"""Axis-aligned box regions on a spatial slice.

A Region is a finite union of closed boxes [lo, hi] in R^d held in a
canonical form whose boxes have pairwise disjoint interiors.  Boxes may be
degenerate along any axis (lo == hi), which is how atom positions are
wrapped when a point set has to travel through the region algebra.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

Box = tuple[tuple[float, ...], tuple[float, ...]]


def _as_box(lo: Sequence[float], hi: Sequence[float]) -> Box:
    lo_t = tuple(float(v) for v in lo)
    hi_t = tuple(float(v) for v in hi)
    if len(lo_t) != len(hi_t):
        raise ValueError("box corners have mismatched dimensions")
    for a, b in zip(lo_t, hi_t):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("box corners must be finite")
        if a > b:
            raise ValueError(f"empty box: lo {lo_t} exceeds hi {hi_t}")
    return (lo_t, hi_t)


def _interiors_overlap(a: Box, b: Box) -> bool:
    return all(al < bh and bl < ah for (al, ah), (bl, bh) in
               zip(zip(a[0], a[1]), zip(b[0], b[1])))


def _box_contains_box(outer: Box, inner: Box) -> bool:
    return all(ol <= il and ih <= oh for ol, oh, il, ih in
               zip(outer[0], outer[1], inner[0], inner[1]))


def _subtract_box(box: Box, cutter: Box) -> list[Box]:
    """Closed pieces of `box` not covered by the closed `cutter`."""
    if not _interiors_overlap(box, cutter):
        if _box_contains_box(cutter, box):
            return []
        return [box]
    pieces: list[Box] = []
    lo = list(box[0])
    hi = list(box[1])
    for ax, (cl, ch) in enumerate(zip(cutter[0], cutter[1])):
        if lo[ax] < cl:
            left = (tuple(lo), tuple(hi[:ax] + [cl] + hi[ax + 1:]))
            if left[0][ax] < left[1][ax]:
                pieces.append(left)
            lo[ax] = cl
        if ch < hi[ax]:
            right = (tuple(lo[:ax] + [ch] + lo[ax + 1:]), tuple(hi))
            if right[0][ax] < right[1][ax]:
                pieces.append(right)
            hi[ax] = ch
    # whatever is left of [lo, hi] lies inside the cutter and is dropped
    return pieces


def _merge_intervals(boxes: Iterable[Box]) -> tuple[Box, ...]:
    ivs = sorted(((b[0][0], b[1][0]) for b in boxes))
    merged: list[list[float]] = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple(((a,), (b,)) for a, b in merged)


def _corners(boxes: Sequence[Box], dim: int) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([b[0] for b in boxes], dtype=float).reshape(-1, dim)
    hi = np.array([b[1] for b in boxes], dtype=float).reshape(-1, dim)
    return lo, hi


# entries per block of `points_in_boxes`: its boolean scratch arrays stay
# near 64 KB, under glibc malloc's mmap threshold; freeing larger ones
# raised that threshold and left later allocations on the heap (atoms_2d
# peak RSS +15% at 4M entries)
BOX_BLOCK_ENTRIES = 65_536


def points_in_boxes(points: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """Boolean mask of the points that lie in at least one closed box.

    `points` is (n, d), or (n,) in d = 1; `lo` and `hi` are (B, d) box
    corners.  Runs in blocks of points, so the (points, boxes, d) scratch
    arrays hold about BOX_BLOCK_ENTRIES entries.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    step = max(1, BOX_BLOCK_ENTRIES // max(lo.size, 1))
    if len(pts) <= step:
        return _in_boxes(pts, lo, hi)
    return np.concatenate([_in_boxes(pts[start:start + step], lo, hi)
                           for start in range(0, len(pts), step)])


def _in_boxes(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    p = pts[:, None, :]
    inside = (p >= lo) & (p <= hi)
    # ufunc reductions: the ndarray methods add a Python call per use
    return np.logical_or.reduce(np.logical_and.reduce(inside, axis=2), axis=1)


def _carve(box: Box, cutters_lo: np.ndarray, cutters_hi: np.ndarray,
           cutters: Sequence[Box]) -> list[Box]:
    """Closed pieces of `box` outside every cutter, cut in cutter order.

    `cutters_lo` / `cutters_hi` hold the corners of `cutters`, one row
    each.  Only cutters whose closed box meets `box` are applied: every
    piece lies inside `box`, and `_subtract_box` returns a piece unchanged
    when its closed box misses the cutter's, so the rest cannot change
    the pieces or their order.
    """
    touching = np.flatnonzero(
        np.all((cutters_lo <= box[1]) & (cutters_hi >= box[0]), axis=1))
    frags = [box]
    for i in touching.tolist():
        frags = [p for f in frags for p in _subtract_box(f, cutters[i])]
        if not frags:
            break
    return frags


def _disjointify(boxes: Sequence[Box]) -> tuple[Box, ...]:
    """Split `boxes` into closed boxes with pairwise disjoint interiors.

    Each box, in input order, is carved by the fragments accepted before
    it, in acceptance order.  Exact: `_carve` skips only fragments that
    `_subtract_box` would pass through unchanged, so the result is the
    full O(B^2) carve's, box for box and in order.  Cost: the corners of
    the accepted fragments sit in two arrays that double as they fill, so
    each box takes one vectorised compare against all of them, and Python
    carving only against the fragments whose closed box meets it.
    """
    if not boxes:
        return ()
    dim = len(boxes[0][0])
    out: list[Box] = []
    lo = np.empty((16, dim))
    hi = np.empty((16, dim))
    for box in boxes:
        n = len(out)
        frags = _carve(box, lo[:n], hi[:n], out)
        m = n + len(frags)
        if m > len(lo):
            grow = np.empty((max(2 * len(lo), m) - n, dim))
            lo = np.concatenate([lo[:n], grow])
            hi = np.concatenate([hi[:n], grow])
        lo[n:m], hi[n:m] = _corners(frags, dim)
        out.extend(frags)
    return tuple(out)


@dataclass(frozen=True)
class Region:
    """Finite union of closed axis-aligned boxes with disjoint interiors."""

    boxes: tuple[Box, ...]
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        for lo, hi in self.boxes:
            if len(lo) != self.dim:
                raise ValueError("box dimension does not match region")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_boxes(boxes: Iterable[tuple[Sequence[float], Sequence[float]]],
                   dim: int | None = None) -> "Region":
        norm = [_as_box(lo, hi) for lo, hi in boxes]
        if dim is None:
            if not norm:
                raise ValueError("dimension required for an empty region")
            dim = len(norm[0][0])
        if any(len(b[0]) != dim for b in norm):
            raise ValueError("boxes have mixed dimensions")
        if dim == 1:
            return Region(_merge_intervals(norm), 1)
        return Region(_disjointify(norm), dim)

    @staticmethod
    def interval(a: float, b: float) -> "Region":
        return Region.from_boxes([((a,), (b,))], dim=1)

    @staticmethod
    def empty(dim: int) -> "Region":
        return Region((), dim)

    @staticmethod
    def point_boxes(points: Iterable[Sequence[float]], dim: int | None = None,
                    halfwidth: float = 0.0) -> "Region":
        """Wrap points as (possibly degenerate) boxes of the given halfwidth."""
        seen: set[tuple[float, ...]] = set()
        boxes = []
        for p in points:
            key = tuple(float(v) for v in p)
            if key in seen:
                continue
            seen.add(key)
            boxes.append((tuple(v - halfwidth for v in key),
                          tuple(v + halfwidth for v in key)))
        if not boxes:
            if dim is None:
                raise ValueError("dimension required for an empty region")
            return Region.empty(dim)
        return Region.from_boxes(boxes, dim)

    # -- queries -----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    @cached_property
    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (B, d) arrays of the boxes' lo and hi corners."""
        lo, hi = _corners(self.boxes, self.dim)
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    def contains(self, point: Sequence[float]) -> bool:
        for lo, hi in self.boxes:
            inside = True
            for a, b, x in zip(lo, hi, point):
                if x < a or x > b:
                    inside = False
                    break
            if inside:
                return True
        return False

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorised membership for an (n, d) array of points."""
        return points_in_boxes(points, *self.corners)

    def sup_distance(self, point: Sequence[float]) -> float:
        """Chebyshev distance from the point to the region (0 if inside)."""
        if self.is_empty:
            return math.inf
        lo, hi = self.corners
        x = np.asarray(point, dtype=float)
        # per box max over axes of (a - x, x - b), then the nearest box
        best = float(np.maximum(lo - x, x - hi).max(axis=1).min())
        return best if best > 0.0 else 0.0

    def bounding_box(self) -> Box:
        if self.is_empty:
            raise ValueError("empty region has no bounding box")
        lo = tuple(min(b[0][ax] for b in self.boxes) for ax in range(self.dim))
        hi = tuple(max(b[1][ax] for b in self.boxes) for ax in range(self.dim))
        return (lo, hi)

    # -- algebra -----------------------------------------------------------

    def expand(self, radius: float) -> "Region":
        """Grow every box by `radius` along every axis (Chebyshev dilation)."""
        if radius < 0:
            raise ValueError("expansion radius must be nonnegative")
        if self.is_empty:
            return self
        grown = [(tuple(a - radius for a in lo), tuple(b + radius for b in hi))
                 for lo, hi in self.boxes]
        return Region.from_boxes(grown, self.dim)

    def union(self, other: "Region") -> "Region":
        if self.dim != other.dim:
            raise ValueError("region dimensions differ")
        return Region.from_boxes(self.boxes + other.boxes, self.dim)

    def covers(self, other: "Region") -> bool:
        """True if every point of `other` lies in this region (exact)."""
        if self.dim != other.dim:
            raise ValueError("region dimensions differ")
        lo, hi = self.corners
        return not any(_carve(box, lo, hi, self.boxes) for box in other.boxes)

    def equals(self, other: "Region") -> bool:
        return self.covers(other) and other.covers(self)

    def sample_points(self, resolution: float) -> np.ndarray:
        """Cell centers of a per-box grid no coarser than `resolution`."""
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        chunks = []
        for lo, hi in self.boxes:
            axes = []
            for a, b in zip(lo, hi):
                width = b - a
                n = max(1, math.ceil(width / resolution))
                step = width / n
                axes.append(a + (np.arange(n) + 0.5) * step if width > 0
                            else np.array([a]))
            grids = np.meshgrid(*axes, indexing="ij")
            chunks.append(np.stack([g.ravel() for g in grids], axis=1))
        if not chunks:
            return np.empty((0, self.dim))
        return np.concatenate(chunks, axis=0)

    def to_json(self) -> list:
        return [[list(lo), list(hi)] for lo, hi in self.boxes]

    @staticmethod
    def from_json(data: Sequence, dim: int | None = None) -> "Region":
        if not data and dim is None:
            raise ValueError("dimension required for an empty region")
        if not data:
            return Region.empty(dim)  # type: ignore[arg-type]
        return Region.from_boxes([(lo, hi) for lo, hi in data], dim)
