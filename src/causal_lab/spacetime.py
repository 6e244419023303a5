"""Events, causal order and Lorentz boosts on flat spacetime.

Spatial slices are labelled by coordinate time.  There is one cone, the
exact Euclidean cone, in every dimension and every form: a target is in
a source's closed cone (causal future) when their squared distance is
<= r * r, r = c*(dt + slack), and in its open cone (chronological
future) when it is < r * r, r = c*(dt - slack) clamped at 0.  Each form
compares `region.sum_squares` with `squared_cone_radius`, which decides
time order and overflow too, so the scalar predicates, the kernel
`cone_blocks` and the future of a slice region (`SliceFuture`,
`region_precedes_event`: the cone of its nearest point) agree to the
last ulp.  In d = 1 that future is a union of intervals, which
`causal_future_on_slice` builds; in d >= 2 no box region holds it.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import region
from .region import Region, points_box_distance2, sum_squares

# absolute slack, in time units, on the cone inequality dt >= |dx|/c
EPS_CAUSAL = 1e-12


@dataclass(frozen=True)
class CausalStructure:
    """Flat spacetime with `dim` spatial dimensions and signal speed c."""

    dim: int = 1
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError("spatial dimension must be 1, 2 or 3")
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError("signal speed must be positive and finite")


@dataclass(frozen=True)
class Event:
    t: float
    x: tuple[float, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.t) or not all(math.isfinite(v) for v in self.x):
            raise ValueError("event coordinates must be finite")

    @staticmethod
    def of(t: float, *coords: float) -> "Event":
        return Event(float(t), tuple(float(c) for c in coords))


@dataclass(frozen=True)
class BoostedFrame:
    """Inertial frame moving with velocity v along the given spatial axis."""

    v: float
    axis: int = 0


def _squared_distance(a: Event, b: Event, cs: CausalStructure) -> float:
    if len(a.x) != cs.dim or len(b.x) != cs.dim:
        raise ValueError("event dimension does not match causal structure")
    return sum_squares(map(operator.sub, b.x, a.x))


def causally_precedes(a: Event, b: Event, cs: CausalStructure) -> bool:
    """Closed-cone order: b is reachable from a at speed <= c."""
    return _squared_distance(a, b, cs) <= squared_cone_radius(b.t - a.t, cs)


def chronologically_precedes(a: Event, b: Event, cs: CausalStructure) -> bool:
    """Open-cone order: b is reachable from a strictly slower than c."""
    return _squared_distance(a, b, cs) < squared_cone_radius(
        b.t - a.t, cs, open_cone=True)


def causal_future_on_slice(region: Region, dt: float, cs: CausalStructure) -> Region:
    """Intersection of the causal future of a slice region with time + dt.

    In d = 1: the intervals grown by `cone_radius` at both ends, which may
    differ by an ulp at an end from `SliceFuture`, the test the checks ask.
    In d >= 2 the future is a union of rounded boxes, which a union of
    boxes cannot hold, so it raises `ValueError`; ask `SliceFuture`.
    """
    future = SliceFuture(region, dt, cs)
    if region.dim > 1:
        raise ValueError("the future of a region in d >= 2 is not a box "
                         "region; test points with SliceFuture")
    r = cone_radius(dt, cs)
    return Region.from_boxes(
        zip((future.lo - r).tolist(), (future.hi + r).tolist()), 1)


class SliceFuture:
    """Membership test for the causal future of a slice region, dt later.

    A point is in it when its squared distance to the nearest box of the
    region is at most the squared `cone_radius`, in every dimension: the
    closed cone of that box's nearest point.  Anything that only reads
    `dim` and `contains_points` of a region (`SliceMeasure.mass`,
    `restricted`, `restriction_distance`) accepts it in place of one.
    """

    def __init__(self, region: Region, dt: float, cs: CausalStructure):
        if region.dim != cs.dim:
            raise ValueError(
                "region dimension does not match causal structure")
        if dt < 0:
            raise ValueError("slice separation must be nonnegative")
        self.dim = region.dim
        self.lo, self.hi = region.corners
        self.r2 = squared_cone_radius(dt, cs)

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask over an (n, d) array of points, like Region's."""
        return points_box_distance2(points, self.lo, self.hi) <= self.r2


def cone_radius(dt: float, cs: CausalStructure,
                open_cone: bool = False) -> float:
    """Radius of a point source's cone on the slice dt later.

    Closed cone: c*(dt + slack).  Open cone: c*(dt - slack), clamped at 0.
    """
    if open_cone:
        return max(cs.c * (dt - EPS_CAUSAL), 0.0)
    return cs.c * (dt + EPS_CAUSAL)


def squared_cone_radius(dt: float, cs: CausalStructure,
                        open_cone: bool = False) -> float:
    """`cone_radius` squared, the bound of every cone test.  A closed cone
    more than the slack in the past is -inf, which no distance meets; a
    square that overflows raises `ValueError`, as inf <= inf is inside."""
    if not open_cone and dt < -EPS_CAUSAL:
        return -math.inf  # the radius may underflow to -0.0 for tiny c
    r = cone_radius(dt, cs, open_cone)
    if not math.isfinite(r * r):
        raise ValueError("cone radius overflows")
    return r * r


def cone_blocks(sources: np.ndarray, dt: float, cs: CausalStructure,
                targets: np.ndarray, open_cone: bool = False):
    """Yield, block by block of sources, which targets each one reaches.

    Each block is a boolean (b, n) array with one row per source, in
    source order: a row marks the targets whose `sum_squares` distance
    from its source is <= r * r (closed cone) or < r * r (open cone), with
    r * r from `squared_cone_radius`.  Blocks of at most
    `region.BLOCK_PAIRS` pairs, or of one source, bound memory; a call
    within that bound, or with one source or none, yields one block, as
    each run of `window_blocks` does.
    `sources` is (k, d), `targets` (n, d); swapped, they ask a past cone.
    """
    src = np.atleast_2d(np.asarray(sources, dtype=float))
    tgt = np.atleast_2d(np.asarray(targets, dtype=float))
    if src.shape[1] != cs.dim or tgt.shape[1] != cs.dim:
        raise ValueError("point dimension does not match causal structure")
    r2 = squared_cone_radius(dt, cs, open_cone)
    step = max(1, region.BLOCK_PAIRS // max(tgt.shape[0], 1))
    for start in range(0, max(src.shape[0], 1), step):
        block = src[start:start + step]
        # one (b, n) difference per axis: no (b, n, d) temporary
        dist2 = sum_squares(tgt[:, ax] - block[:, ax, None]
                            for ax in range(tgt.shape[1]))
        yield dist2 < r2 if open_cone else dist2 <= r2


# the rim tests that settle the window ends of both kernels, on a target's
# offset d from a source: elementwise on arrays, a bool on floats
def _not_left_of_cone(d, r2: float):
    return (d >= 0) | (d * d <= r2)


def _right_of_cone(d, r2: float):
    return (d > 0) & (d * d > r2)


def _cone_windows(x: np.ndarray, y: np.ndarray, reach, r2: float,
                  partial: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Index window [lo, hi) of sorted targets y in the cone of each x.

    searchsorted places the ends at x -+ reach; the closed-cone test
    d * d <= r2 of `cone_blocks` then settles them, so a target is in a
    window exactly when that kernel says so.  Rounding is monotone, so
    the test splits sorted y into left-out, inside and right-out runs,
    and both ends are nondecreasing in x.  The x need not be sorted.
    Both ends come back as int arrays.

    With `partial`, one running sum s per x of the squares of earlier
    axes, the test is instead the open one, s + d * d < r2, which is
    `cone_blocks`' sum on this axis: the inside run is still one run, as
    s + d * d falls and then rises along y, and `reach` may be one value
    per x.
    """
    if partial is None:
        not_left, right = _not_left_of_cone, _right_of_cone
    else:
        def not_left(d, r2):
            return (d >= 0) | (partial + d * d < r2)

        def right(d, r2):
            # not d > 0: at an open radius of 0 the target at d = 0 is out
            return (d >= 0) & (partial + d * d >= r2)

    # guards at -inf and +inf, outside every cone, stop each end at 0 and m
    guarded = np.concatenate(([-np.inf], y, [np.inf]))

    def settle(end, past):
        # move each end to the first j where past(j) holds (m if none);
        # guarded[end] is y[end - 1]
        while (step := past(guarded[end] - x, r2)).any():
            end -= step
        while not (stay := past(guarded[end + 1] - x, r2)).all():
            end += ~stay
        return end

    lo = settle(y.searchsorted(x - reach, "left"), not_left)
    hi = settle(y.searchsorted(x + reach, "right"), right)
    return lo, hi


def _small_cone_windows(x: list, y: list, reach: float,
                        r2: float) -> tuple[list[int], list[int]]:
    """`_cone_windows` on lists: bisect places each end, and the same
    tests on the same floats settle it, so the windows are identical."""
    m = len(y)
    lo, hi = [], []
    for xi in x:
        j = bisect_left(y, xi - reach)
        while j > 0 and _not_left_of_cone(y[j - 1] - xi, r2):
            j -= 1
        while j < m and not _not_left_of_cone(y[j] - xi, r2):
            j += 1
        lo.append(j)
        j = bisect_right(y, xi + reach)
        while j > 0 and _right_of_cone(y[j - 1] - xi, r2):
            j -= 1
        while j < m and not _right_of_cone(y[j] - xi, r2):
            j += 1
        hi.append(j)
    return lo, hi


def window_blocks(sources: np.ndarray, dt: float, cs: CausalStructure,
                  targets: np.ndarray):
    """Closed-cone `cone_blocks` over the axis-0 windows of two point sets.

    `sources` (k, d) and `targets` (n, d) may come in any order; each is
    sorted stably on axis 0 here.  `_cone_windows` gives source i the
    targets [lo_i, hi_i) whose axis-0 term alone is within r * r; past
    them that term exceeds it, and the other axes' squares only grow the
    float sum.  The sorted rows are cut in order into runs g..h-1 whose
    dense rectangle, (h - g) * (hi_{h-1} - lo_g) pairs, stays within
    `region.BLOCK_PAIRS`, or that hold one row.  For each run with a
    target, yields (rows, cols, block): the indices into `sources` and
    `targets` of the run and of its targets lo_g .. hi_{h-1}, each in
    axis-0 order, and the one `cone_blocks` block of those rows against
    those columns, so every pair is settled by that kernel, bit for bit.
    """
    rows = np.argsort(sources[:, 0], kind="stable")
    cols = np.argsort(targets[:, 0], kind="stable")
    src, tgt = sources[rows], targets[cols]
    lo, hi = _cone_windows(src[:, 0], tgt[:, 0], cone_radius(dt, cs),
                           squared_cone_radius(dt, cs))
    lo, hi = lo.tolist(), hi.tolist()
    k, g = len(lo), 0
    while g < k:
        # both ends rise with the row, so the area only grows with h
        h = g + max(1, bisect_right(
            range(g + 1, k + 1), region.BLOCK_PAIRS,
            key=lambda j: (j - g) * (hi[j - 1] - lo[g])))
        a, b = lo[g], hi[h - 1]
        if a < b:
            block, = cone_blocks(src[g:h], dt, cs, tgt[a:b])
            yield rows[g:h], cols[a:b], block
        g = h


def point_cone_membership(sources: np.ndarray, dt: float, cs: CausalStructure,
                          targets: np.ndarray) -> np.ndarray:
    """Exact Euclidean cone test for point sources.

    Returns a boolean mask over `targets` marking points in the closed cone
    of at least one source.  `sources` is (k, d), `targets` is (n, d).
    """
    if dt < 0:
        raise ValueError("slice separation must be nonnegative")
    hit = np.zeros(np.atleast_2d(targets).shape[0], dtype=bool)
    for block in cone_blocks(sources, dt, cs, targets):
        hit |= block.any(axis=0)
    return hit


def region_precedes_event(region: Region, slice_time: float, e: Event,
                          cs: CausalStructure) -> bool:
    """True if `e` is in the closed cone of the region's nearest point."""
    if region.dim != cs.dim or len(e.x) != cs.dim:
        raise ValueError("dimension mismatch")
    r2 = squared_cone_radius(e.t - slice_time, cs)
    return bool(points_box_distance2([e.x], *region.corners)[0] <= r2)


def boost(e: Event, frame: BoostedFrame, cs: CausalStructure) -> Event:
    """Standard Lorentz boost of an event along the frame's axis."""
    if len(e.x) != cs.dim:
        raise ValueError("event dimension does not match causal structure")
    if not 0 <= frame.axis < cs.dim:
        raise ValueError("boost axis out of range")
    v, c = frame.v, cs.c
    if abs(v) >= c:
        raise ValueError("boost speed must satisfy |v| < c")
    gamma = 1.0 / math.sqrt(1.0 - (v / c) ** 2)
    xa = e.x[frame.axis]
    t_new = gamma * (e.t - v * xa / (c * c))
    xa_new = gamma * (xa - v * e.t)
    coords = list(e.x)
    coords[frame.axis] = xa_new
    return Event(t_new, tuple(coords))


def inverse(frame: BoostedFrame) -> BoostedFrame:
    return BoostedFrame(-frame.v, frame.axis)
