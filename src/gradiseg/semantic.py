"""Linear per-pixel classifier over identity features and the 2D segmentation loss."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# a pixel is foreground when its blended weight 1 - T_final reaches this
FOREGROUND_THRESHOLD = 0.5
# masks store class ids as uint8, so a head may have at most this many classes
MAX_CLASSES = 256


class ClassifierHead:
    """Linear map from identity-feature space to class logits (C x D + bias)."""

    def __init__(self, weights: np.ndarray, biases: np.ndarray):
        self.weights = np.ascontiguousarray(weights)
        self.biases = np.ascontiguousarray(biases)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ValueError("head shapes must be (C, D) and (C,)")

    @classmethod
    def zeros(cls, num_classes: int = 256, dim: int = 16, dtype=np.float32):
        return cls(np.zeros((num_classes, dim), dtype=dtype),
                   np.zeros(num_classes, dtype=dtype))

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "ClassifierHead":
        return ClassifierHead(self.weights.copy(), self.biases.copy())

    def logits(self, features: np.ndarray) -> np.ndarray:
        """(..., D) features -> (..., C) logits."""
        return features @ self.weights.T + self.biases


class ClassGroups(NamedTuple):
    """The head's classes grouped by byte-equal [w_c | b_c] rows.

    Classes in one group have equal logits, probabilities and gradients, so
    class-space work runs once per group: a softmax counts group g `size[g]`
    times in its total, and a sum over classes weighs group g by `size[g]`.
    Groups are ordered by their lowest class index, `first`, and `head`
    holds their rows. When every group is one class, the arithmetic is the
    per-class one bit for bit, since a size of 1 multiplies exactly.
    """

    head: ClassifierHead
    first: np.ndarray
    size: np.ndarray
    of_class: np.ndarray

    def weigh(self, a: np.ndarray) -> np.ndarray:
        """Per-group values (..., G) weighted by group size, for sums over classes."""
        return a * self.size

    def expand(self, a: np.ndarray, axis: int = -1) -> np.ndarray:
        """Per-group values along `axis` -> per-class values."""
        return np.take(a, self.of_class, axis=axis)


def class_groups(head: ClassifierHead, keep: np.ndarray | None = None) -> ClassGroups:
    """Group classes by byte-equal [w_c | b_c] rows; each class in `keep` gets
    a group of its own."""
    c, d = head.weights.shape
    rows = np.empty((c, d + 2), dtype=np.result_type(head.weights, head.biases))
    rows[:, :d] = head.weights
    rows[:, d] = head.biases
    rows[:, d + 1] = -1
    if keep is not None:
        rows[keep, d + 1] = keep
    keys = rows.view(np.dtype((np.void, rows.itemsize * (d + 2)))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    first, of_class = first[order], rank[inverse.ravel()]
    grouped = ClassifierHead(head.weights[first], head.biases[first])
    return ClassGroups(grouped, first, np.bincount(of_class).astype(rows.dtype), of_class)


def softmax(logits: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the last axis, computed in the logits' buffer, and the
    logsumexp of each row. Column g counts `size[g]` times in the total."""
    zmax = logits.max(axis=-1, keepdims=True)
    logits -= zmax
    np.exp(logits, out=logits)
    total = (logits * size).sum(axis=-1, keepdims=True)
    logits /= total
    return logits, (zmax + np.log(total))[..., 0]


def _group_probs(features: np.ndarray, groups: ClassGroups) -> np.ndarray:
    """Probability of one class of each group for each feature vector."""
    if not np.all(np.isfinite(features)):
        raise ValueError("features must be finite")
    return softmax(groups.head.logits(features), groups.size)[0]


def predict(features: np.ndarray, head: ClassifierHead) -> np.ndarray:
    """Class of each (..., D) feature row: the argmax of the head's logits.
    Logits are taken once per distinct head row (class_groups), and a tie
    goes to the lowest class index."""
    groups = class_groups(head)
    return groups.first[np.argmax(groups.head.logits(features), axis=-1)]


def segment_mask(identity_map: np.ndarray, final_transmittance: np.ndarray,
                 head: ClassifierHead) -> np.ndarray:
    """Instance-id mask: the predicted class of the rendered identity
    features where the total blended foreground weight 1 - T_final reaches
    FOREGROUND_THRESHOLD, background (0) elsewhere. Only the foreground
    pixels are classified."""
    fg = (1.0 - final_transmittance) >= FOREGROUND_THRESHOLD
    mask = np.zeros(fg.shape, dtype=np.uint8)
    mask[fg] = predict(identity_map[fg], head)
    return mask


def loss_2d(identity_map: np.ndarray, mask: np.ndarray, head: ClassifierHead):
    """Mean per-pixel cross-entropy of softmax(W f + b) against mask ids.

    Returns (loss, dL/didentity_map, (dL/dW, dL/db)). Every pixel takes one
    softmax over the head's distinct rows, with every label class in a group
    of its own (class_groups).
    """
    h, w, d = identity_map.shape
    if mask.shape != (h, w):
        raise ValueError("mask shape does not match identity map")
    labels = np.asarray(mask).reshape(-1).astype(np.int64)
    if labels.min() < 0 or labels.max() >= head.num_classes:
        raise ValueError("mask id out of range for classifier head")
    groups = class_groups(head, keep=np.flatnonzero(np.bincount(labels)))
    labels = groups.of_class[labels]

    feats = identity_map.reshape(-1, d)
    npix = feats.shape[0]
    p = _group_probs(feats, groups)
    eps = np.finfo(p.dtype).tiny
    at = np.arange(npix)
    loss = float(-np.log(np.maximum(p[at, labels], eps)).sum() / npix)

    dlogits = p  # the loss is taken, so p's buffer becomes the gradient
    dlogits[at, labels] -= 1.0
    dlogits /= npix
    d_feats = groups.weigh(dlogits) @ groups.head.weights.astype(p.dtype)
    d_w = dlogits.T @ feats
    d_b = dlogits.sum(axis=0)
    return (loss, d_feats.reshape(h, w, d),
            (groups.expand(d_w, axis=0), groups.expand(d_b)))
