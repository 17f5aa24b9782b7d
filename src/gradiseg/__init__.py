"""Differentiable Gaussian-splatting engine with per-Gaussian identity
encodings for 3D instance segmentation and group-level scene editing."""

from .backward import ParamGrads, accumulate_monitors, backward
from .camera import CameraView, Splat2D, depth_sort, look_at, project_cloud, project_gaussian
from .dataset import Dataset, load_dataset, save_dataset
from .igd import IgdConfig, igd_step, split_gaussian
from .laknn import (NeighborQuery, global_neighbors, local_adaptive_neighbors,
                    loss_3d, neighbor_direction)
from .metrics import EvalReport, evaluate_masks, mbiou, miou, psnr
from .render import (RenderOptions, RenderOutput, group_weight_mask,
                     render_group_weights)
from .scene import (Gaussian, GaussianCloud, GroupTable, assign_groups,
                    extract_group, load_scene, recolor_group, remove_group,
                    save_scene)
from .semantic import ClassifierHead, classify, loss_2d, segment_mask
from .synth import SceneSpec, ObjectSpec, default_scene_spec, generate
from .trainer import AdamOptimizer, TrainSchedule, total_loss, train

__version__ = "0.1.0"

__all__ = [
    "AdamOptimizer", "CameraView", "ClassifierHead", "Dataset", "EvalReport",
    "Gaussian", "GaussianCloud", "GroupTable", "IgdConfig",
    "NeighborQuery", "ObjectSpec", "ParamGrads", "RenderOptions", "RenderOutput",
    "SceneSpec", "Splat2D", "TrainSchedule", "accumulate_monitors",
    "assign_groups", "backward", "classify", "default_scene_spec", "depth_sort",
    "evaluate_masks", "extract_group", "generate", "global_neighbors",
    "group_weight_mask", "igd_step", "load_dataset", "load_scene",
    "local_adaptive_neighbors", "look_at", "loss_2d", "loss_3d", "mbiou",
    "miou", "neighbor_direction", "project_cloud",
    "project_gaussian", "psnr", "recolor_group", "remove_group",
    "render_group_weights", "save_dataset", "save_scene", "segment_mask",
    "split_gaussian", "total_loss", "train",
]
