"""Linear per-pixel classifier over identity features and the 2D segmentation loss."""

from __future__ import annotations

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


def softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the last axis, computed in the logits' buffer, and the
    logsumexp of each row."""
    zmax = logits.max(axis=-1, keepdims=True)
    logits -= zmax
    np.exp(logits, out=logits)
    total = logits.sum(axis=-1, keepdims=True)
    logits /= total
    return logits, (zmax + np.log(total))[..., 0]


def classify(features: np.ndarray, head: ClassifierHead) -> np.ndarray:
    """Class probabilities for each feature vector: softmax(W f + b)."""
    features = np.asarray(features)
    if not np.all(np.isfinite(features)):
        raise ValueError("features must be finite")
    return softmax(head.logits(features))[0]


def segment_mask(identity_map: np.ndarray, final_transmittance: np.ndarray,
                 head: ClassifierHead) -> np.ndarray:
    """Instance-id mask: per-pixel argmax class of the rendered identity
    features where the total blended foreground weight 1 - T_final reaches
    FOREGROUND_THRESHOLD, background (0) elsewhere. Logits are taken only
    for the foreground pixels."""
    fg = (1.0 - final_transmittance) >= FOREGROUND_THRESHOLD
    mask = np.zeros(fg.shape, dtype=np.uint8)
    mask[fg] = np.argmax(head.logits(identity_map[fg]), axis=-1)
    return mask


def loss_2d(identity_map: np.ndarray, mask: np.ndarray, head: ClassifierHead):
    """Mean per-pixel cross-entropy of classify(identity_map) against mask ids.

    Returns (loss, dL/didentity_map, (dL/dW, dL/db)). A pixel whose feature
    row is all zero (no fragment, or zero encodings) has logits exactly b, so
    that row is classified once: those pixels enter the loss and dL/db through
    their label counts, add nothing to dL/dW, and share one dL/dfeatures row
    per label.
    """
    h, w, d = identity_map.shape
    if mask.shape != (h, w):
        raise ValueError("mask shape does not match identity map")
    labels = np.asarray(mask).reshape(-1).astype(np.int64)
    if labels.min() < 0 or labels.max() >= head.num_classes:
        raise ValueError("mask id out of range for classifier head")

    feats = identity_map.reshape(-1, d)
    npix = feats.shape[0]
    covered = feats.any(axis=1)
    rows, zero_rows = np.flatnonzero(covered), np.flatnonzero(~covered)
    fc, lc = np.take(feats, rows, axis=0), labels[rows]
    p = classify(fc, head)
    eps = np.finfo(p.dtype).tiny
    at = np.arange(rows.size)
    nll = -np.log(np.maximum(p[at, lc], eps)).sum()

    # all-zero rows: one softmax of b, weighted by each label's pixel count
    counts = np.bincount(labels[zero_rows], minlength=head.num_classes)
    p_b = classify(np.zeros((1, d), dtype=p.dtype), head)
    nll += counts @ -np.log(np.maximum(p_b[0], eps))
    loss = float(nll / npix)

    dlogits = p  # the loss is taken, so p's buffer becomes the gradient
    dlogits[at, lc] -= 1.0
    dlogits /= npix
    weights = head.weights.astype(p.dtype)
    d_w = dlogits.T @ fc
    d_b = dlogits.sum(axis=0)
    d_b += (zero_rows.size * p_b[0] - counts) / npix
    d_feats = np.empty((npix, d), dtype=p.dtype)
    d_feats[rows] = dlogits @ weights
    d_label = (p_b @ weights - weights) / npix   # row l: (p_b - onehot(l)) @ W / npix
    d_feats[zero_rows] = np.take(d_label, labels[zero_rows], axis=0)
    return loss, d_feats.reshape(h, w, d), (d_w, d_b)
