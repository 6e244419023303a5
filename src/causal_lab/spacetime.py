"""Events, causal order and Lorentz boosts on flat spacetime.

Spatial slices are labelled by coordinate time.  The causal order between
point events uses the exact Euclidean cone; region-valued cone operations
dilate boxes per axis, which over-approximates the Euclidean cone for
d >= 2 (they agree in d = 1).  Conservative direction: a larger future can
only make causality checks pass more easily, never flag a spurious
violation.

The verdict path asks only whether points lie in the future of a slice
region, and asks it through `SliceFuture`, which tests points against the
grown boxes directly; `causal_future_on_slice` is its Region-valued view,
built on demand for callers that want the region itself.

Every point-set cone test goes through one kernel, `cone_blocks`: per
block of point sources it marks the targets in each source's closed cone
(the causal future, |y - x| <= c*(dt + slack)) or, with `open_cone`, its
open cone (the chronological future, |y - x| < c*(dt - slack)); the
radius rule lives in `cone_radius` alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .region import Region, points_in_boxes

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


def _check_dims(a: Event, b: Event, cs: CausalStructure) -> None:
    if len(a.x) != cs.dim or len(b.x) != cs.dim:
        raise ValueError("event dimension does not match causal structure")


def _spatial_distance(a: Event, b: Event) -> float:
    return math.dist(a.x, b.x)


def causally_precedes(a: Event, b: Event, cs: CausalStructure) -> bool:
    """Closed-cone order: b is reachable from a at speed <= c."""
    _check_dims(a, b, cs)
    dt = b.t - a.t
    return dt >= _spatial_distance(a, b) / cs.c - EPS_CAUSAL


def chronologically_precedes(a: Event, b: Event, cs: CausalStructure) -> bool:
    """Open-cone order: b is reachable from a strictly slower than c."""
    _check_dims(a, b, cs)
    dt = b.t - a.t
    return dt > _spatial_distance(a, b) / cs.c + EPS_CAUSAL


def spacelike_separated(a: Event, b: Event, cs: CausalStructure) -> bool:
    return not causally_precedes(a, b, cs) and not causally_precedes(b, a, cs)


def _check_future_args(region: Region, dt: float, cs: CausalStructure) -> None:
    if region.dim != cs.dim:
        raise ValueError("region dimension does not match causal structure")
    if dt < 0:
        raise ValueError("slice separation must be nonnegative")


def causal_future_on_slice(region: Region, dt: float, cs: CausalStructure) -> Region:
    """Intersection of the causal future of a slice region with time + dt.

    Boxes dilate by c*dt along every axis.  Exact in d = 1; a conservative
    over-approximation of the Euclidean cone union for d >= 2.  The
    condition checks do not build this region: they ask `SliceFuture`,
    which holds the same point set.  It is built on demand, for callers
    that want the region itself.
    """
    _check_future_args(region, dt, cs)
    return region.expand(cs.c * dt)


class SliceFuture:
    """Membership test for `causal_future_on_slice(region, dt, cs)`.

    Holds the region's boxes grown by r = c*dt, with corners lo - r and
    hi + r computed by the float expressions of `Region.expand`, and
    never carves them.  `contains_points` marks the points in the union
    of the closed grown boxes, which is bit for bit the membership of the
    built region: its canonical form only copies these corner values (the
    d >= 2 carve and the d = 1 interval merge do no arithmetic) and its
    closed boxes cover exactly that union.  It raises where the region
    would: on a dimension mismatch, a negative dt, or grown corners that
    overflow.

    Anything that only reads `dim` and `contains_points` of a region
    (`SliceMeasure.mass`, `restricted`, `restriction_distance`) accepts
    it in place of the built region.
    """

    def __init__(self, region: Region, dt: float, cs: CausalStructure):
        _check_future_args(region, dt, cs)
        r = cs.c * dt
        lo = [a - r for box_lo, _ in region.boxes for a in box_lo]
        hi = [b + r for _, box_hi in region.boxes for b in box_hi]
        if not all(map(math.isfinite, lo + hi)):
            raise ValueError("box corners must be finite")
        self.lo = np.array(lo, dtype=float).reshape(-1, region.dim)
        self.hi = np.array(hi, dtype=float).reshape(-1, region.dim)
        self.dim = region.dim

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask over an (n, d) array of points, like Region's."""
        return points_in_boxes(points, self.lo, self.hi)


# pairwise entries per kernel block; bounds the kernel's scratch arrays
CONE_BLOCK_PAIRS = 4_000_000


def cone_radius(dt: float, cs: CausalStructure,
                open_cone: bool = False) -> float:
    """Radius of a point source's cone on the slice dt later.

    Closed cone: c*(dt + slack).  Open cone: c*(dt - slack), clamped at 0.
    """
    if open_cone:
        return max(cs.c * (dt - EPS_CAUSAL), 0.0)
    return cs.c * (dt + EPS_CAUSAL)


def cone_blocks(sources: np.ndarray, dt: float, cs: CausalStructure,
                targets: np.ndarray, open_cone: bool = False):
    """Yield, block by block of sources, which targets each one reaches.

    Each block is a boolean (b, n) array with one row per source, in
    source order: a row marks the targets at squared distance <= radius**2
    (closed cone) or < radius**2 (open cone) from its source, with the
    radius of `cone_radius`.  Blocks hold about CONE_BLOCK_PAIRS pairs, so
    memory stays bounded; an empty source set still yields one (0, n)
    block.  `sources` is (k, d) and `targets` is (n, d).
    """
    src = np.atleast_2d(np.asarray(sources, dtype=float))
    tgt = np.atleast_2d(np.asarray(targets, dtype=float))
    r = cone_radius(dt, cs, open_cone)
    r2 = r * r
    step = max(1, CONE_BLOCK_PAIRS // max(tgt.shape[0], 1))
    for start in range(0, max(src.shape[0], 1), step):
        diff = tgt[None, :, :] - src[start:start + step, None, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        yield dist2 < r2 if open_cone else dist2 <= r2


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
    """True if `e` lies in the (box-dilated) causal future of the region."""
    if region.dim != cs.dim or len(e.x) != cs.dim:
        raise ValueError("dimension mismatch")
    dt = e.t - slice_time
    if dt < -EPS_CAUSAL:
        return False
    return region.sup_distance(e.x) <= cs.c * (max(dt, 0.0) + EPS_CAUSAL)


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


def interval_squared(a: Event, b: Event, cs: CausalStructure) -> float:
    """Invariant interval c^2 dt^2 - |dx|^2 between two events."""
    _check_dims(a, b, cs)
    dt = b.t - a.t
    return (cs.c * dt) ** 2 - _spatial_distance(a, b) ** 2
