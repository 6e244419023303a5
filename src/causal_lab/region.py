"""Axis-aligned box regions on a spatial slice.

A Region is a finite union of closed boxes [lo, hi] in R^d, which may
overlap.  In d = 1 the intervals are merged into disjoint sorted runs; in
d >= 2 the boxes are kept as given, less exact repeats.  Every reader asks
only for membership, the distance to the nearest box or sample points, and
none of these needs disjoint interiors.  Boxes may be degenerate along any
axis (lo == hi), which is how atom positions are wrapped when a point set
has to travel through the region algebra.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, NoReturn, Sequence

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


def _mixed(values: Iterable) -> NoReturn:
    """Reject d = 1 points of other lengths; as in d >= 2, a value that is
    not finite is reported first."""
    if not all(map(math.isfinite, map(float, values))):
        raise ValueError("box corners must be finite")
    raise ValueError("boxes have mixed dimensions")


def _point_intervals(points: Sequence[Sequence[float]] | np.ndarray,
                     halfwidth: float) -> tuple[Box, ...]:
    """`_merge_intervals` of the boxes [x - h, x + h] of d = 1 points.

    A list is merged in Python by `_merge_sorted`, an (n, 1) array of two
    or more points in numpy (`_array_intervals`), with the same checks,
    messages and boxes.  A lone point has nothing to merge, and the list
    path takes it without numpy's fixed cost per call: most d = 1 arrays
    that ns witnesses give in `scenario_sweep` hold one point."""
    if isinstance(points, np.ndarray) and len(points) > 1:
        return _array_intervals(np.asarray(points, dtype=float), halfwidth)
    if set(map(len, points)) - {1}:
        _mixed(chain.from_iterable(points))
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


def _array_intervals(pts: np.ndarray, halfwidth: float) -> tuple[Box, ...]:
    """`_point_intervals` of an (n, 1) float array, n >= 2.

    The coordinates are sorted stably, so equal ones keep the order given.
    hi = x + h is nondecreasing in sorted x, so the running max of
    `_merge_sorted` is the hi before, and a run ends where the next lo
    passes it.  Its box runs from its first lo to the first hi equal to
    its last, which `_merge_sorted` keeps on a tie (of -0.0 and 0.0, at
    halfwidth -0.0)."""
    if pts.shape[1:] != (1,):
        _mixed(pts.ravel())
    xs = np.sort(pts.reshape(-1), kind="stable")
    # NaN sorts last, so the points are finite when the outermost two are
    first, last = xs[[0, -1]].tolist()
    if not (math.isfinite(first) and math.isfinite(last)):
        raise ValueError("box corners must be finite")
    if halfwidth < 0:
        raise ValueError(f"empty box: negative halfwidth {halfwidth!r}")
    # both ends are monotone in x, so the outermost corners are the
    # extremes; checked in Python floats, before numpy would warn of them
    h = float(halfwidth)
    if not (math.isfinite(first - h) and math.isfinite(last + h)):
        raise ValueError("box corners must be finite")
    lo, hi = xs - h, xs + h
    ends = np.flatnonzero(lo[1:] > hi[:-1]).tolist()
    firsts = lo[[0] + [j + 1 for j in ends]].tolist()
    lasts = hi[hi.searchsorted(hi[ends + [len(xs) - 1]])].tolist()
    return tuple([((a,), (b,)) for a, b in zip(firsts, lasts)])


def _corners(boxes: Sequence[Box], dim: int) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([b[0] for b in boxes], dtype=float).reshape(-1, dim)
    hi = np.array([b[1] for b in boxes], dtype=float).reshape(-1, dim)
    return lo, hi


# pairs per block of every blocked kernel, read at call time: point x box
# in `_by_blocks`, source x target in `spacetime.cone_blocks` and in each
# run of `spacetime.window_blocks`.  Against the bounds it replaced (4M-pair
# graph blocks, 65,536-entry box blocks), 5 alternating 8 s pairs on a
# 2-core VM read atoms_2d peak RSS 55.3 -> 44.1 MB and 339 -> 382 ops/s;
# 16384 cut atoms_2d from 376 to 349 ops/s (4 pairs)
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


@dataclass(frozen=True)
class Region:
    """Finite union of closed axis-aligned boxes, which may overlap: in
    d = 1 merged intervals, in d >= 2 the boxes given less exact repeats."""

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
        # exact repeats go, the first kept; of -0.0 and 0.0 the first given
        return Region(tuple(dict.fromkeys(norm)), dim)

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
        its boxes.  Two or more points given as one array, such as the
        worst set of the d = 1 scan over many sources, are sorted and
        merged in numpy, to the same boxes.  In d >= 2 the points become
        one float array, on which the checks of `from_boxes` (finite
        corners, one dimension) run directly, and one dict pass over its
        rows keeps the first of equal points (of -0.0 and 0.0 the first
        given), so the boxes are those of `from_boxes` in the same order.
        With halfwidth 0, p - h and p + h are p itself unless p has a zero
        coordinate (-0.0 + 0.0 is 0.0), so only such a point is worked out
        one coordinate at a time.
        """
        if not isinstance(points, np.ndarray):
            points = list(points)
        if dim is None:
            if not len(points):
                raise ValueError("dimension required for an empty region")
            dim = len(points[0])
        if dim == 1:
            return Region(_point_intervals(points, halfwidth), 1)
        try:
            pts = np.asarray(points, dtype=float)
            ragged = False
        except ValueError:  # rows of several lengths, or not numbers
            pts = np.array([float(v) for v in chain.from_iterable(points)])
            ragged = True
        if not np.isfinite(pts).all():
            raise ValueError("box corners must be finite")
        if ragged or (len(pts) and pts.shape[1:] != (dim,)):
            raise ValueError("boxes have mixed dimensions")
        keys = dict.fromkeys(map(tuple, pts.tolist()))

        def box(p):
            return (tuple(v - halfwidth for v in p),
                    tuple(v + halfwidth for v in p))

        if halfwidth != 0:
            return Region.from_boxes(map(box, keys), dim)
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

    def sample_points(self, resolution: float) -> np.ndarray:
        """Cell centers of a per-box grid no coarser than `resolution`,
        box by box in order; where boxes overlap, the overlap is sampled
        once per box."""
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
