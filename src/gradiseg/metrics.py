"""Segmentation and reconstruction metrics: mIoU, boundary IoU, PSNR."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

PSNR_CAP = 99.0


def _gt_classes(gt: np.ndarray) -> np.ndarray:
    """Classes scored: present in ground truth, background (0) excluded."""
    ids = np.unique(gt)
    return ids[ids != 0]


def miou(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean IoU over ground-truth classes (background excluded).

    A class missing from the prediction scores 0.
    """
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError("mask size mismatch")
    classes = _gt_classes(gt)
    if classes.size == 0:
        return 1.0 if np.array_equal(pred, gt) else 0.0
    scores = []
    for c in classes:
        p, g = pred == c, gt == c
        union = np.logical_or(p, g).sum()
        scores.append(np.logical_and(p, g).sum() / union if union else 0.0)
    return float(np.mean(scores))


def _square_any(binary: np.ndarray, r: int) -> np.ndarray:
    """Whether any set pixel lies within Chebyshev distance r of each pixel,
    pixels beyond the image being unset: the 2r+1 shifted slices ORed along
    each axis in turn, so the work per pixel grows as 2r+1, not (2r+1)^2."""
    rows = binary.copy()
    for d in range(1, min(r, binary.shape[0] - 1) + 1):
        rows[d:] |= binary[:-d]
        rows[:-d] |= binary[d:]
    out = rows.copy()
    for d in range(1, min(r, binary.shape[1] - 1) + 1):
        out[:, d:] |= rows[:, :-d]
        out[:, :-d] |= rows[:, d:]
    return out


def _boundary_pixels(binary: np.ndarray) -> np.ndarray:
    """Mask pixels with an 8-neighbor outside the mask (image border counts)."""
    outside = _square_any(~binary, 1)
    outside[[0, -1]] = True
    outside[:, [0, -1]] = True
    return binary & outside


def _boundary_band(binary: np.ndarray, band_px: int) -> np.ndarray:
    """Pixels within Chebyshev distance band_px of a boundary pixel."""
    return _square_any(_boundary_pixels(binary), band_px)


def default_band_px(shape) -> int:
    """Standard band width: 2% of the image diagonal, at least one pixel."""
    h, w = shape[:2]
    return max(1, round(0.02 * float(np.hypot(h, w))))


def mbiou(pred: np.ndarray, gt: np.ndarray, band_px: int | None = None) -> float:
    """Mean boundary IoU over ground-truth classes (background excluded).

    Boundary IoU as Cheng et al. (CVPR 2021) define it: per class c with
    binary masks P (pred) and G (gt) and boundary bands B_P, B_G of width
    band_px, the IoU of the masks' inner bands P_d = B_P & P, G_d = B_G & G:

        score = |P_d & G_d| / |P_d | G_d|

    An empty denominator scores 1 when the class masks agree, else 0.
    """
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError("mask size mismatch")
    if band_px is None:
        band_px = default_band_px(pred.shape)
    if band_px < 1:
        raise ValueError("band_px must be >= 1")
    classes = _gt_classes(gt)
    if classes.size == 0:
        return 1.0 if np.array_equal(pred, gt) else 0.0
    scores = []
    for c in classes:
        p, g = pred == c, gt == c
        bp, bg = _boundary_band(p, band_px), _boundary_band(g, band_px)
        pd, gd = bp & p, bg & g
        num = (pd & gd).sum()
        den = (pd | gd).sum()
        if den == 0:
            scores.append(1.0 if np.array_equal(p, g) else 0.0)
        else:
            scores.append(num / den)
    return float(np.mean(scores))


def psnr(img_a: np.ndarray, img_b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB for images in [0, 1], capped at 99."""
    a, b = np.asarray(img_a, dtype=np.float64), np.asarray(img_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("image size mismatch")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("images must be finite")
    mse = float(np.mean((a - b) ** 2))
    if mse <= 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * np.log10(1.0 / mse))


@dataclass
class EvalReport:
    """Aggregated scene evaluation: per-class IoU (pixel counts pooled across
    views), mean IoU / boundary IoU, and per-view mIoU, mBIoU and PSNR."""

    per_class_iou: dict = field(default_factory=dict)
    miou: float = 0.0
    mbiou: float = 0.0
    miou_per_view: list = field(default_factory=list)
    mbiou_per_view: list = field(default_factory=list)
    psnr_per_view: list = field(default_factory=list)
    psnr_mean: float = 0.0
    pixel_counts: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)


def evaluate_masks(pred_masks, gt_masks, band_px: int | None = None) -> EvalReport:
    """Pool intersection/union counts across views per class, plus each
    view's mIoU and boundary IoU and the mean of the latter. The two lists
    pair up view by view and must be equally long and non-empty."""
    pred_masks, gt_masks = list(pred_masks), list(gt_masks)
    if not gt_masks:
        raise ValueError("no masks to evaluate")
    if len(pred_masks) != len(gt_masks):
        raise ValueError(f"{len(pred_masks)} predicted masks for "
                         f"{len(gt_masks)} ground-truth masks")
    inter: dict[int, int] = {}
    union: dict[int, int] = {}
    counts: dict[int, int] = {}
    iou_scores, biou_scores = [], []
    for pred, gt in zip(pred_masks, gt_masks):
        if pred.shape != gt.shape:
            raise ValueError("mask size mismatch")
        for c in _gt_classes(gt):
            p, g = pred == c, gt == c
            inter[c] = inter.get(c, 0) + int(np.logical_and(p, g).sum())
            union[c] = union.get(c, 0) + int(np.logical_or(p, g).sum())
            counts[c] = counts.get(c, 0) + int(g.sum())
        iou_scores.append(miou(pred, gt))
        biou_scores.append(mbiou(pred, gt, band_px))
    per_class = {int(c): (inter[c] / union[c] if union[c] else 0.0) for c in inter}
    report = EvalReport(per_class_iou=per_class, miou_per_view=iou_scores,
                        mbiou_per_view=biou_scores,
                        pixel_counts={int(c): counts[c] for c in counts})
    report.miou = float(np.mean(list(per_class.values()))) if per_class else 1.0
    report.mbiou = float(np.mean(biou_scores))
    return report
