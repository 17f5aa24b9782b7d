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

    Returns (loss, dL/didentity_map, (dL/dW, dL/db)).
    """
    h, w, d = identity_map.shape
    if mask.shape != (h, w):
        raise ValueError("mask shape does not match identity map")
    labels = np.asarray(mask).reshape(-1).astype(np.int64)
    if labels.min() < 0 or labels.max() >= head.num_classes:
        raise ValueError("mask id out of range for classifier head")

    feats = identity_map.reshape(-1, d)
    p = classify(feats, head)
    npix = feats.shape[0]
    rows = np.arange(npix)
    eps = np.finfo(p.dtype).tiny
    loss = float(-np.log(np.maximum(p[rows, labels], eps)).mean())

    dlogits = p  # the loss is taken, so p's buffer becomes the gradient
    dlogits[rows, labels] -= 1.0
    dlogits /= npix
    d_feats = dlogits @ head.weights.astype(p.dtype)
    d_w = dlogits.T @ feats
    d_b = dlogits.sum(axis=0)
    return loss, d_feats.reshape(h, w, d), (d_w, d_b)
