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
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

Box = tuple[tuple[float, ...], tuple[float, ...]]


def _as_box(lo: Sequence[float], hi: Sequence[float]) -> Box:
    if isinstance(lo, str) or isinstance(hi, str):  # else read per character
        raise ValueError("box corners are sequences of coordinates, "
                         f"got {lo!r} and {hi!r}")
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
    return _merge_sorted(sorted(((b[0][0], b[1][0]) for b in boxes)))


def _merge_sorted(ivs: Iterable[tuple[float, float]]) -> tuple[Box, ...]:
    """Runs of intervals (a, b), given in (a, b) order, that meet or touch,
    each as one d = 1 box."""
    ivs = iter(ivs)
    first = next(ivs, None)
    if first is None:
        return ()
    lo, hi = first
    runs = []
    for a, b in ivs:
        if a <= hi:
            if b > hi:  # max(hi, b), which keeps hi on a tie
                hi = b
        else:
            runs.append(((lo,), (hi,)))
            lo, hi = a, b
    runs.append(((lo,), (hi,)))
    return tuple(runs)


def _point_intervals(points: Sequence[Sequence[float]],
                     halfwidth: float) -> tuple[Box, ...]:
    """`_merge_intervals` of the boxes [x - h, x + h] of d = 1 points."""
    if set(map(len, points)) - {1}:
        raise ValueError("boxes have mixed dimensions")
    # the sort is stable and the merge keeps the first of equal ends, so a
    # repeated point adds nothing, and of -0.0 and 0.0 the first given
    # counts, as when the points are taken once each
    xs = sorted([float(p[0]) for p in points])
    if not all(map(math.isfinite, xs)):
        raise ValueError("box corners must be finite")
    if halfwidth < 0:
        raise ValueError(f"empty box: negative halfwidth {halfwidth!r}")
    boxes = _merge_sorted((x - halfwidth, x + halfwidth) for x in xs)
    # both ends are monotone in x, so the outermost corners are the extremes
    if boxes and not (math.isfinite(boxes[0][0][0])
                      and math.isfinite(boxes[-1][1][0])):
        raise ValueError("box corners must be finite")
    return boxes


def _corners(boxes: Sequence[Box], dim: int) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([b[0] for b in boxes], dtype=float).reshape(-1, dim)
    hi = np.array([b[1] for b in boxes], dtype=float).reshape(-1, dim)
    return lo, hi


# pairs per block of every blocked kernel, read at call time: point x box
# in `_by_blocks`, box x box in `_cut_by_earlier`, source x target in
# `spacetime.cone_blocks`, which `spacetime.window_blocks` asks once a run
# of axis-0 windows.
# Against the former bounds (4M-pair graph blocks, 65,536-entry box blocks,
# 8192-pair reach runs), 5 alternating 8 s pairs on a 2-core VM read
# atoms_2d peak RSS 55.3 -> 44.1 MB and 339 -> 382 ops/s, and cli_protocol
# 141 -> 145 ops/s; 16384 cut atoms_2d from 376 to 349 ops/s (4 pairs)
BLOCK_PAIRS = 8_192

# most points one `Region.sample_points` call makes: its arrays peak near
# 100 bytes a point in d = 3, so about 100 MB; a finer request raises
# ValueError instead of asking numpy for an array that cannot be allocated
MAX_SAMPLE_POINTS = 1_000_000


def _by_blocks(kernel, points: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
    """`kernel` over blocks of (n, d) or, in d = 1, (n,) points and (B, d)
    box corners, with about BLOCK_PAIRS point x box pairs a block."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    # `_in_boxes` takes one axis at a time, so it would not broadcast a
    # mismatch into an error of its own
    if pts.shape[1] != lo.shape[1]:
        raise ValueError("point dimension does not match the boxes")
    step = max(1, BLOCK_PAIRS // max(len(lo), 1))
    if len(pts) <= step:
        return kernel(pts, lo, hi)
    return np.concatenate([kernel(pts[start:start + step], lo, hi)
                           for start in range(0, len(pts), step)])


def points_in_boxes(points: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """Boolean mask of the points that lie in at least one closed box."""
    return _by_blocks(_in_boxes, points, lo, hi)


def _in_boxes(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # one (n, B) compare per axis, AND-ed in place: no (n, B, d) temporary,
    # and no reduction over its short last axis
    x = pts.T[:, :, None]
    inside = (x[0] >= lo[:, 0]) & (x[0] <= hi[:, 0])
    for ax in range(1, lo.shape[1]):
        inside &= x[ax] >= lo[:, ax]
        inside &= x[ax] <= hi[:, ax]
    # a ufunc reduction: the ndarray method adds a Python call per use
    return np.logical_or.reduce(inside, axis=1)


def sum_squares(parts):
    """Sum of p * p over the per-axis differences `parts`, left to right:
    the one squared distance of the cone rule.  Floats and arrays run the
    same operations in the same order, so scalar and array tests round
    alike."""
    total = 0.0
    for p in parts:
        total += p * p
    return total


def points_box_distance2(points: np.ndarray, lo: np.ndarray,
                         hi: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each point to its nearest closed box:
    per box the `sum_squares` of max(lo - x, 0, x - hi); inf when there are
    none."""
    return _by_blocks(_box_distance2, points, lo, hi)


def _box_distance2(pts: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    p = pts[:, None, :]
    gap = np.maximum(np.maximum(lo - p, 0.0), p - hi)
    dist2 = sum_squares(gap.transpose(2, 0, 1))
    return np.minimum.reduce(dist2, axis=1, initial=np.inf)


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


def _cut_by_earlier(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the boxes, given by (B, d) corners, that some earlier box
    cuts: their interiors overlap, or the earlier box holds the box (a
    repeat, a face, a point).  These are the two cases in which
    `_subtract_box` does not return a box unchanged.  One vectorised pass
    in blocks of rows against all earlier boxes, one axis at a time."""
    n, dim = lo.shape
    cut = np.zeros(n, dtype=bool)
    step = max(1, BLOCK_PAIRS // max(n, 1))
    for start in range(1, n, step):
        stop = min(n, start + step)
        # rows: the boxes start..stop-1; columns: the boxes before stop
        overlap = np.arange(stop) < np.arange(start, stop)[:, None]
        holds = overlap.copy()
        for ax in range(dim):
            b_lo, b_hi = lo[start:stop, ax, None], hi[start:stop, ax, None]
            e_lo, e_hi = lo[:stop, ax], hi[:stop, ax]
            overlap &= e_lo < b_hi
            overlap &= b_lo < e_hi
            holds &= e_lo <= b_lo
            holds &= b_hi <= e_hi
        cut[start:stop] = np.logical_or.reduce(overlap | holds, axis=1)
    return cut


def _disjointify(boxes: Sequence[Box]) -> tuple[Box, ...]:
    """Split `boxes` into closed boxes with pairwise disjoint interiors.

    Each box, in input order, is carved by the fragments accepted before
    it, in acceptance order.  Every accepted fragment lies inside an
    earlier input box, so a box that no earlier input box cuts
    (`_cut_by_earlier`, one vectorised pass) is accepted as it stands:
    no fragment can cut it either.  A region none of whose boxes an
    earlier one cuts, such as a scenario's detector region, is therefore
    read without a carve.  Exact: `_carve` skips only fragments that `_subtract_box`
    would pass through unchanged, so the result is the full O(B^2)
    carve's, box for box and in order.  Cost: the corners of the
    accepted fragments sit in two arrays that double as they fill, so
    each cut box takes one vectorised compare against all of them, and
    Python carving only against the fragments whose closed box meets it.
    """
    if not boxes:
        return ()
    dim = len(boxes[0][0])
    cut = _cut_by_earlier(*_corners(boxes, dim)).tolist()
    if not any(cut):
        return tuple(boxes)
    out: list[Box] = []
    lo = np.empty((16, dim))
    hi = np.empty((16, dim))
    for box, is_cut in zip(boxes, cut):
        n = len(out)
        frags = _carve(box, lo[:n], hi[:n], out) if is_cut else [box]
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
        """Wrap points as (possibly degenerate) boxes of the given halfwidth.

        Points are taken once each, first come first kept, and a point p
        is the box [p - h, p + h].  In d = 1 the coordinates are sorted
        once and the intervals merged in one pass by the rule of
        `from_boxes`: both ends are nondecreasing in x, so this is the
        order in which `from_boxes` would sort the boxes, and the runs are
        its boxes.  In d >= 2 one dict pass keeps the first of equal
        points (of -0.0 and 0.0 the first given).  With halfwidth 0 the
        boxes are degenerate, no two of which meet, so the carve of
        `from_boxes` would return them unchanged and is skipped; and
        p - h and p + h are p itself unless p has a zero coordinate
        (-0.0 + 0.0 is 0.0), so only such a point is worked out one
        coordinate at a time.  Either way the checks of `from_boxes`
        (finite corners, one dimension) still run.
        """
        points = list(points)
        if dim is None:
            if not points:
                raise ValueError("dimension required for an empty region")
            dim = len(points[0])
        if dim == 1:
            return Region(_point_intervals(points, halfwidth), 1)
        keys = dict.fromkeys([tuple(map(float, p)) for p in points])

        def box(p):
            return (tuple(v - halfwidth for v in p),
                    tuple(v + halfwidth for v in p))

        if halfwidth != 0:
            return Region.from_boxes(map(box, keys), dim)
        if not all(map(math.isfinite, chain.from_iterable(keys))):
            raise ValueError("box corners must be finite")
        if set(map(len, keys)) - {dim}:
            raise ValueError("boxes have mixed dimensions")
        return Region(tuple([(p, p) if 0.0 not in p else box(p)
                             for p in keys]), dim)

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
        return bool(self.contains_points(np.asarray([point], dtype=float))[0])

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorised membership for an (n, d) array of points."""
        return points_in_boxes(points, *self.corners)

    # -- algebra -----------------------------------------------------------

    def covers(self, other: "Region") -> bool:
        """True if every point of `other` lies in this region (exact)."""
        if self.dim != other.dim:
            raise ValueError("region dimensions differ")
        lo, hi = self.corners
        return not any(_carve(box, lo, hi, self.boxes) for box in other.boxes)

    def sample_points(self, resolution: float) -> np.ndarray:
        """Cell centers of a per-box grid no coarser than `resolution`."""
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        lo, hi = self.corners
        width = hi - lo
        # per-box counts in Python ints, which cannot wrap; a step count
        # that overflows a float is past any limit, and math.ceil rejects it
        steps = [[w / resolution for w in row] for row in width.tolist()]
        if any(q == math.inf for row in steps for q in row):
            raise ValueError(
                f"sampling at resolution {resolution!r} overflows")
        n = [[max(1, math.ceil(q)) for q in row] for row in steps]
        counts = [math.prod(row) for row in n]
        if sum(counts) > MAX_SAMPLE_POINTS:
            raise ValueError(
                f"sampling at resolution {resolution!r} takes {sum(counts)} "
                f"points, above the limit of {MAX_SAMPLE_POINTS}")
        n = np.array(n, dtype=np.int64).reshape(len(n), self.dim)
        box = np.repeat(np.arange(len(lo)), counts)
        # each point's index within its box, unravelled last axis first
        rest = np.arange(len(box)) - (np.cumsum(counts) - counts)[box]
        out = np.empty((len(box), self.dim))
        for ax in reversed(range(self.dim)):
            rest, k = np.divmod(rest, n[box, ax])
            a, w = lo[box, ax], width[box, ax]
            out[:, ax] = np.where(w > 0, a + (k + 0.5) * (w / n[box, ax]), a)
        return out

    def to_json(self) -> list:
        return [[list(lo), list(hi)] for lo, hi in self.boxes]

    @staticmethod
    def from_json(data: Sequence | None, dim: int | None = None) -> "Region":
        """Inverse of `to_json`; null (a holding verdict's worst set) is
        the empty region."""
        return Region.from_boxes(data or (), dim)
