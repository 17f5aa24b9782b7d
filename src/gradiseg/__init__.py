"""Differentiable Gaussian-splatting engine with per-Gaussian identity
encodings for 3D instance segmentation and group-level scene editing."""


def _fix_malloc_thresholds() -> None:
    """Render, the losses and segmentation allocate temporaries of a few MB
    on every call. glibc serves such blocks by mmap below a threshold that
    it raises only after some larger block is freed, and it trims the heap
    top eagerly, so the same run either reuses heap pages or page-faults
    fresh ones on every call, depending on what it happened to allocate
    first. Fixing both thresholds (mmap at 32 MB, glibc's 64-bit maximum;
    trim at 256 MB) keeps those blocks on the heap. The setting is
    process-wide and glibc-only; other C libraries are left alone."""
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD


_fix_malloc_thresholds()

from .backward import ParamGrads, accumulate_monitors
from .camera import CameraView, look_at, project_cloud
from .dataset import Dataset, load_dataset, save_dataset
from .igd import igd_step
from .laknn import loss_3d
from .metrics import EvalReport, evaluate_masks, mbiou, miou, psnr
from .render import RenderOutput, group_weight_mask
from .scene import (GaussianCloud, assign_groups, extract_group, load_scene,
                    recolor_group, remove_group, save_scene)
from .semantic import ClassifierHead, loss_2d, segment_mask
from .synth import SceneSpec, ObjectSpec, default_scene_spec, generate
from .trainer import AdamOptimizer, TrainSchedule, total_loss, train

__version__ = "0.1.0"

__all__ = [
    "AdamOptimizer", "CameraView", "ClassifierHead", "Dataset", "EvalReport",
    "GaussianCloud", "ObjectSpec", "ParamGrads", "RenderOutput",
    "SceneSpec", "TrainSchedule", "accumulate_monitors", "assign_groups",
    "default_scene_spec", "evaluate_masks", "extract_group", "generate",
    "group_weight_mask", "igd_step", "load_dataset", "load_scene", "look_at",
    "loss_2d", "loss_3d", "mbiou", "miou", "project_cloud", "psnr",
    "recolor_group", "remove_group", "save_dataset", "save_scene",
    "segment_mask", "total_loss", "train",
]
