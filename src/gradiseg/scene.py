"""Gaussian scene representation, GSEG1 persistence and group-level editing.

The scene is stored struct-of-arrays: one ndarray per attribute, all row-aligned.
Row i of every array (including the position-gradient monitor) describes
Gaussian i, and every mutation (select/append) moves all arrays in lockstep.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .semantic import predict

GSEG_MAGIC = b"GSEG1"
GSEG_VERSION = 1

QUAT_NORM_TOL = 1e-6       # validation tolerance on |r| - 1
QUAT_LOAD_DRIFT = 1e-4     # renormalize on load up to this drift, error beyond


class SceneFormatError(Exception):
    """Raised for malformed GSEG1 files or invariant-violating payloads."""


# Every per-Gaussian row field, in constructor order: name, trailing shape
# ("D" is the encoding dimension), dtype ("f" is the cloud's float dtype) and
# the value of each row when the field is left out (None: required). The
# last is the gradient monitor that backward.accumulate_monitors updates and
# LA-KNN reads; densification's sums live in trainer.DensifyStats.
ROW_FIELDS = (
    ("positions", (3,), "f", None),
    ("scales", (3,), "f", None),
    ("rotations", (4,), "f", None),
    ("opacities", (), "f", None),
    ("colors", (3,), "f", None),
    ("encodings", ("D",), "f", None),
    ("group_ids", (), np.int32, -1),
    ("pos_grad_ema", (3,), "f", 0),
)
ROW_NAMES = tuple(f[0] for f in ROW_FIELDS)
MONITORS = ROW_NAMES[-1:]


def _field_shape(shape: tuple, n: int, d: int) -> tuple:
    """Full shape of a ROW_FIELDS entry for n rows of encoding dimension d."""
    return (n,) + tuple(d if s == "D" else s for s in shape)


class GaussianCloud:
    """The trainable scene: N Gaussians plus a per-Gaussian gradient monitor.

    One attribute per entry of ROW_FIELDS, all row-aligned: positions (N,3),
    scales (N,3) strictly positive, rotations (N,4) unit wxyz, opacities (N,),
    colors (N,3), encodings (N,D), group_ids (N,) int32 with -1 meaning
    unassigned, and pos_grad_ema (N,3). Fields are passed in that order or by
    name. Every row edit (select/append) moves all of them.
    """

    def __init__(self, *columns, **named):
        given = dict(zip(ROW_NAMES, columns), **named)
        unknown = set(given) - set(ROW_NAMES)
        if unknown or len(columns) > len(ROW_NAMES):
            raise TypeError(f"unknown row fields {sorted(unknown)}")
        dtype = np.asarray(given["positions"]).dtype
        if dtype not in (np.float32, np.float64):
            dtype = np.float64
        n = len(given["positions"])
        enc = np.asarray(given["encodings"])
        d = enc.shape[1] if enc.ndim == 2 else enc.reshape(n, -1).shape[1]
        for name, shape, kind, fill in ROW_FIELDS:
            shape = _field_shape(shape, n, d)
            dt = dtype if kind == "f" else kind
            value = given.get(name)
            if value is None:
                if fill is None:
                    raise TypeError(f"missing row field {name!r}")
                arr = np.full(shape, fill, dtype=dt)
            else:
                arr = np.ascontiguousarray(value, dtype=dt).reshape(shape)
            setattr(self, name, arr)

    def _map(self, fn) -> "GaussianCloud":
        """New cloud whose every row field is fn(field)."""
        return GaussianCloud(**{name: fn(getattr(self, name)) for name in ROW_NAMES})

    # -- basic queries -------------------------------------------------------

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def __len__(self) -> int:
        return self.n

    @property
    def dim(self) -> int:
        return self.encodings.shape[1]

    @property
    def dtype(self):
        return self.positions.dtype

    @classmethod
    def empty(cls, dim: int = 16, dtype=np.float32) -> "GaussianCloud":
        z = lambda *shape: np.zeros(shape, dtype=dtype)
        return cls(z(0, 3), z(0, 3), z(0, 4), z(0), z(0, 3), z(0, dim))

    def copy(self) -> "GaussianCloud":
        return self._map(np.copy)

    def astype(self, dtype) -> "GaussianCloud":
        return self._map(lambda a: a.astype(dtype) if a.dtype.kind == "f" else a.copy())

    def scene_extent(self) -> float:
        """Diagonal length of the positions' axis-aligned bounding box (1.0 for N < 2)."""
        if self.n < 2:
            return 1.0
        span = self.positions.max(axis=0) - self.positions.min(axis=0)
        ext = float(np.linalg.norm(span))
        return ext if ext > 0 else 1.0

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        n, d = self.n, self.dim
        for name, shape, kind, _ in ROW_FIELDS:
            shape = _field_shape(shape, n, d)
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if kind == "f" and name not in MONITORS and not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if n == 0:
            return
        if not np.all(self.scales > 0):
            raise ValueError("scale components must be strictly positive")
        norms = np.linalg.norm(self.rotations, axis=1)
        if np.max(np.abs(norms - 1.0)) > QUAT_NORM_TOL:
            raise ValueError("rotation quaternions must be unit length")
        if np.any(self.opacities < 0) or np.any(self.opacities > 1):
            raise ValueError("opacity out of range")
        if np.any(self.colors < 0) or np.any(self.colors > 1):
            raise ValueError("color components out of range")

    # -- row edits (keep every array in lockstep) ----------------------------

    def select(self, index) -> "GaussianCloud":
        """New cloud with rows `index` (bool mask or index array), order preserved."""
        return self._map(lambda a: a[index])

    def append(self, other: "GaussianCloud") -> "GaussianCloud":
        """New cloud = self rows followed by other's rows."""
        if other.dim != self.dim:
            raise ValueError("encoding dimension mismatch")
        return GaussianCloud(**{
            name: np.concatenate([getattr(self, name),
                                  getattr(other, name).astype(getattr(self, name).dtype)])
            for name in ROW_NAMES})


# -- persistence (GSEG1 container) -------------------------------------------
#
# Layout: b"GSEG1", u32 version=1, u32 N, u32 D, u32 C (1 to 256), then the
# little-endian row arrays of GSEG_ROWS in order (positions N*3, scales N*3,
# rotations N*4, opacities N, colors N*3, encodings N*D as float32,
# group_ids N as int32), then float32 head weights C*D and biases C.

GSEG_ROWS = tuple((name, shape, "<f4" if kind == "f" else "<i4")
                  for name, shape, kind, _ in ROW_FIELDS if name not in MONITORS)


def save_scene(cloud: GaussianCloud, head, path) -> None:
    """Write cloud + classifier head to `path`. Refuses invariant-violating scenes."""
    cloud.validate()
    if not np.all(np.isfinite(head.weights)) or not np.all(np.isfinite(head.biases)):
        raise ValueError("classifier head must be finite")
    n, d = cloud.n, cloud.dim
    c = head.weights.shape[0]
    if head.weights.shape != (c, d) or head.biases.shape != (c,):
        raise ValueError("head shapes inconsistent with cloud encoding dimension")
    parts = [GSEG_MAGIC, struct.pack("<IIII", GSEG_VERSION, n, d, c)]
    parts += [getattr(cloud, name).astype(disk).tobytes() for name, _, disk in GSEG_ROWS]
    parts += [head.weights.astype("<f4").tobytes(), head.biases.astype("<f4").tobytes()]
    write_atomic(path, parts)


def write_atomic(path, chunks) -> None:
    """Write the byte strings `chunks` to `path` through a temporary file in
    the same directory and a rename, so a write that fails or is killed
    midway leaves any old file at `path` whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_scene(path):
    """Load a GSEG1 file. Returns (GaussianCloud, ClassifierHead), float32 arrays.

    Quaternions with norm drift up to 1e-4 are renormalized; larger drift,
    and any payload that GaussianCloud.validate rejects, are errors.
    """
    from .semantic import MAX_CLASSES, ClassifierHead

    with open(path, "rb") as f:
        blob = f.read()
    if blob[:5] != GSEG_MAGIC:
        raise SceneFormatError("bad magic: not a GSEG1 file")
    if len(blob) < 21:
        raise SceneFormatError("truncated header")
    version, n, d, c = struct.unpack_from("<IIII", blob, 5)
    if version != GSEG_VERSION:
        raise SceneFormatError(f"unsupported version {version}")
    if not 1 <= c <= MAX_CLASSES:
        raise SceneFormatError(f"class count {c} outside [1, {MAX_CLASSES}]")
    arrays = [(name, _field_shape(shape, n, d), disk) for name, shape, disk in GSEG_ROWS]
    arrays += [("weights", (c, d), "<f4"), ("biases", (c,), "<f4")]
    total = 21 + sum(4 * math.prod(shape) for _, shape, _ in arrays)
    if len(blob) != total:
        raise SceneFormatError("truncated payload" if len(blob) < total
                               else f"{len(blob) - total} trailing bytes after payload")

    off, rows = 21, {}
    for name, shape, disk in arrays:
        count = math.prod(shape)
        rows[name] = np.frombuffer(blob, dtype=disk, count=count,
                                   offset=off).copy().reshape(shape)
        off += 4 * count
    head = ClassifierHead(rows.pop("weights"), rows.pop("biases"))
    group_ids = rows["group_ids"]
    if n > 0 and (group_ids.min() < -1 or group_ids.max() >= c):
        raise SceneFormatError(f"group id outside [-1, {c}) for class count {c}")
    rotations = rows["rotations"]
    norms = np.linalg.norm(rotations, axis=1)
    drift = np.abs(norms - 1.0)
    if np.any(drift > QUAT_LOAD_DRIFT):
        raise SceneFormatError("quaternion norm drift beyond tolerance")
    # renormalize only rows that violate the in-memory tolerance, so a
    # save -> load -> save cycle is byte-identical for valid scenes
    fix = drift > QUAT_NORM_TOL
    rotations[fix] /= norms[fix, None]

    cloud = GaussianCloud(**rows)
    try:
        cloud.validate()
    except ValueError as e:
        raise SceneFormatError(str(e)) from None
    return cloud, head


# -- grouping and edits --------------------------------------------------------


def assign_groups(cloud: GaussianCloud, head) -> GaussianCloud:
    """Set each Gaussian's group_id to the class that semantic.predict gives
    its encoding."""
    if not np.all(np.isfinite(head.weights)) or not np.all(np.isfinite(head.biases)):
        raise ValueError("classifier head must be finite")
    out = cloud.copy()
    out.group_ids = predict(cloud.encodings, head).astype(np.int32)
    return out


def _require_groups(cloud: GaussianCloud) -> None:
    if cloud.n > 0 and np.all(cloud.group_ids < 0):
        raise ValueError("groups not assigned; run assign_groups first")


def remove_group(cloud: GaussianCloud, gid: int) -> GaussianCloud:
    """Drop every Gaussian of group `gid` (its monitor rows go with it)."""
    _require_groups(cloud)
    mask = cloud.group_ids != gid
    if mask.all():
        warnings.warn(f"group {gid} not present; remove_group is a no-op")
        return cloud.copy()
    return cloud.select(mask)


def extract_group(cloud: GaussianCloud, gid: int) -> GaussianCloud:
    """Keep only the Gaussians of group `gid`."""
    _require_groups(cloud)
    mask = cloud.group_ids == gid
    if not mask.any():
        warnings.warn(f"group {gid} not present; extract_group returns empty cloud")
    return cloud.select(mask)


def recolor_group(cloud: GaussianCloud, gid: int, rgb) -> GaussianCloud:
    """Set the color of every Gaussian in group `gid` to `rgb`."""
    _require_groups(cloud)
    rgb = np.asarray(rgb, dtype=cloud.dtype)
    if rgb.shape != (3,) or not np.all((0 <= rgb) & (rgb <= 1)):  # NaN fails too
        raise ValueError("rgb must be three components in [0, 1]")
    mask = cloud.group_ids == gid
    if not mask.any():
        warnings.warn(f"group {gid} not present; recolor_group is a no-op")
        return cloud.copy()
    out = cloud.copy()
    out.colors[mask] = rgb
    return out
