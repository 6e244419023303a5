"""Turning a marginal-statistics violation into an operational signal.

Given a scenario whose probed marginal loses mass somewhere outside the
detector region's future, a receiver event q is placed so that part of the
losing set C sits in its chronological past while q stays outside the
future of K; lattice events whose chronological futures jointly cover K,
none of them preceding q, act as senders.  Toggling the probe then shifts
the detection frequency on C by the channel gap, which a thresholding
decoder reads out.  Every clause is one pass of `spacetime`'s kernels,
which decide time order and overflow, over whole point sets.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import region
from .conditions import MeasurementScenario, ns_gap_support
from .measure import SliceMeasure
from .region import Region
from .spacetime import (
    BoostedFrame,
    CausalStructure,
    Event,
    SliceFuture,
    _cone_windows,
    boost,
    causally_precedes,
    cone_blocks,
    cone_radius,
    inverse,
    region_precedes_event,
    squared_cone_radius,
)

# `simulate_signalling` holds a few numpy arrays of one entry a trial, about
# 34 bytes a trial at its peak (tracemalloc, 10**6 trials), so this many
# take about 340 MB; a larger count raises ValueError instead of asking
# numpy for the arrays
MAX_TRIALS = 10_000_000
# the largest block size `rng.binomial` takes (a C long)
MAX_BLOCK_SIZE = int(np.iinfo(np.int_).max)


@dataclass(frozen=True)
class LatticeSpec:
    """Uniform search lattices for the receiver and sender slices."""

    q_time: float
    q_lo: tuple[float, ...]
    q_hi: tuple[float, ...]
    q_points: int
    p_time: float
    p_lo: tuple[float, ...]
    p_hi: tuple[float, ...]
    p_points: int
    cover_resolution: float

    def __post_init__(self) -> None:
        if self.q_points < 1 or self.p_points < 1:
            raise ValueError("lattices need at least one point per axis")
        for name in ("q_time", "q_lo", "q_hi", "p_time", "p_lo", "p_hi",
                     "cover_resolution"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value!r}")
        # zipped corners of different lengths would drop axes unseen
        for name, lo, hi in (("q", self.q_lo, self.q_hi),
                             ("p", self.p_lo, self.p_hi)):
            if len(lo) != len(hi):
                raise ValueError(
                    f"{name}_lo and {name}_hi differ in length "
                    f"({len(lo)} and {len(hi)})")
        # checked before any lattice is built, with sample_points' limit
        for name, n, lo in (("receiver", self.q_points, self.q_lo),
                            ("sender", self.p_points, self.p_lo)):
            if n ** len(lo) > region.MAX_SAMPLE_POINTS:
                raise ValueError(
                    f"the {name} lattice takes {n ** len(lo)} points, "
                    f"above the limit of {region.MAX_SAMPLE_POINTS}")
        if self.cover_resolution <= 0:
            raise ValueError("cover resolution must be positive")

    def q_candidates(self) -> np.ndarray:
        return _lattice(_axes(self.q_lo, self.q_hi, self.q_points))


def _axes(lo: tuple[float, ...], hi: tuple[float, ...],
          n: int) -> list[np.ndarray]:
    return [np.linspace(a, b, n) for a, b in zip(lo, hi)]


def _lattice(axes: list[np.ndarray]) -> np.ndarray:
    """(n**d, d) lattice positions, the last axis running fastest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _event(t: float, x: np.ndarray) -> Event:
    """The event at time t over the lattice position x."""
    return Event(t, tuple(float(v) for v in x))


@dataclass(frozen=True)
class SignallingProtocol:
    K: Region
    C: Region
    q: Event
    senders: tuple[Event, ...]
    channel_gap: float

    def __post_init__(self) -> None:
        if self.channel_gap <= 0:
            raise ValueError("a protocol needs a positive channel gap")
        if not self.senders:
            raise ValueError("a protocol needs at least one sender")


@dataclass(frozen=True)
class SignallingStats:
    trials: int
    block_size: int
    error_rate: float
    stderr: float
    p_detect_off: float
    p_detect_on: float
    threshold: float


class ProtocolSearchError(ValueError):
    """No valid receiver/sender assignment was found on the given lattice."""


def _box_corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(n * 2**d, d) box corners, box by box, in `itertools.product` order."""
    sides = itertools.product((False, True), repeat=lo.shape[1])
    corners = np.stack([np.where(s, hi, lo) for s in sides], axis=1)
    return corners.reshape(-1, lo.shape[1])


def construct_protocol(sc: MeasurementScenario, witness: Region,
                       lattice: LatticeSpec) -> SignallingProtocol:
    """Build a receiver, a readout set and a greedy sender cover.

    The receiver maximizes the channel gap among lattice events outside
    the causal future of K whose chronological past contains part of the
    witness; ties break toward lexicographically smaller
    coordinates.  C is the witness shrunk to the cells strictly inside
    the receiver's chronological past.  Senders are picked greedily until
    their chronological futures cover K's sample points: each time the
    candidate that reaches the most points not yet covered, the first one
    in lattice order on a tie.  The reach is kept as intervals on lattice
    lines (`_sender_reach`), and the counts are taken once from them and,
    after each pick, lowered by the newly covered points' intervals
    alone (`_greedy_cover`).  Candidates that causally precede the
    receiver are never eligible.  Lattice exhaustion means "not found at
    this resolution", not nonexistence.
    """
    cs = sc.cs
    s_time, t_time = sc.s_time, sc.t_time
    if lattice.q_time <= t_time:
        raise ValueError("receiver slice must come after the readout slice")
    if lattice.p_time >= s_time:
        raise ValueError("sender slice must come before the source slice")
    if witness is None or witness.is_empty:
        raise ProtocolSearchError("scenario provides no marginal-gap witness")

    pts, gaps = ns_gap_support(sc)
    keep = np.flatnonzero(witness.contains_points(pts)).tolist()
    if not keep:
        raise ProtocolSearchError("witness carries no positive marginal gap")
    pts, cell_gaps = pts[keep], np.asarray([float(gaps[i]) for i in keep])

    q_xs = lattice.q_candidates()
    # a cell is in q's chronological past when all its corners are
    half = sc.nu0.cell_halfwidth
    corners = _box_corners(pts - half, pts + half)
    seen = np.concatenate(list(cone_blocks(
        corners, lattice.q_time - t_time, cs, q_xs, open_cone=True)))
    seen = seen.reshape(len(pts), -1, len(q_xs)).all(axis=1)
    # the receiver must stay outside the future of K
    free = ~SliceFuture(sc.K, lattice.q_time - s_time, cs).contains_points(q_xs)
    best: tuple[float, int, list[int]] | None = None
    for j in np.flatnonzero(free).tolist():
        sel = np.flatnonzero(seen[:, j]).tolist()
        if not sel:
            continue
        gap = float(cell_gaps[sel].sum())
        if gap <= float(sc.mass_tol):
            continue
        if best is None or gap > best[0] + 1e-15:
            best = (gap, j, sel)
    if best is None:
        raise ProtocolSearchError(
            "no receiver event sees the witness gap while avoiding the "
            f"future of K; not found at this resolution (slice "
            f"t={lattice.q_time}, {lattice.q_points} points per axis)")
    gap, j, sel = best
    q = _event(lattice.q_time, q_xs[j])
    c_region = Region.point_boxes(pts[sel], sc.nu0.dim, halfwidth=half)

    reach = _sender_reach(sc, q, lattice)
    senders = _greedy_cover(reach, lattice)
    proto = SignallingProtocol(K=sc.K, C=c_region, q=q,
                               senders=tuple(senders), channel_gap=gap)
    problems = audit_protocol(proto, sc, reach.cover_pts)
    if problems:
        raise ProtocolSearchError("constructed protocol failed its audit: "
                                  + "; ".join(problems))
    return proto


class SenderReach(NamedTuple):
    """Which of K's sample points each sender candidate reaches, as
    intervals on the lines of the sender lattice.

    `cand_xs` are the lattice positions in lattice order, `eligible` marks
    the candidates that may send (they do not causally precede q), and
    `cover_pts` are K's sample points.  Each axis is taken in its stable
    sorted order, `order[k]` holding axis k's lattice indices in that
    order; a line fixes the sorted index of every axis but the last and
    is numbered by those indices ravelled.  Sample point `point[i]` is
    strictly inside the chronological future of the candidates at sorted
    last-axis indices lo[i] .. hi[i] - 1 of line `line[i]`, and of no
    other candidate on that line.  The intervals come point by point and
    each point's line by line; none is empty, and they take no notice of
    `eligible`.
    """

    cand_xs: np.ndarray
    eligible: np.ndarray
    cover_pts: np.ndarray
    order: tuple[np.ndarray, ...]
    point: np.ndarray
    line: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _sender_reach(sc: MeasurementScenario, q: Event,
                  lattice: LatticeSpec) -> SenderReach:
    """Sender candidates, and K's sample points in each one's
    chronological future as intervals on lattice lines.

    The reach is found axis by axis over rows of a point and the sorted
    indices of the axes before: `spacetime._cone_windows` gives each row
    the window of the next axis where its partial sum s plus that axis's
    d * d stays below r * r, and each window index becomes a row of the
    next axis with that sum.  The operands, the order of the additions
    (0.0 + d0 * d0, then + d1 * d1, ...) and the bound are those of the
    open `cone_blocks`, whose sum only grows with each axis, so every
    pair is decided as that kernel decides it, bit for bit.  Along a
    line the sum falls and then rises, so the candidates a point reaches
    there are one interval.  No array holds candidates x points entries.
    """
    cover_pts = sc.K.sample_points(lattice.cover_resolution)
    axes = _axes(lattice.p_lo, lattice.p_hi, lattice.p_points)
    cand_xs = _lattice(axes)
    # the candidates in q's past cone: the same distances, in one block
    eligible = ~next(cone_blocks([q.x], q.t - lattice.p_time, sc.cs,
                                 cand_xs))[0]
    dt = sc.s_time - lattice.p_time
    r2 = squared_cone_radius(dt, sc.cs, open_cone=True)
    radius = cone_radius(dt, sc.cs, open_cone=True)
    order = tuple(np.argsort(a, kind="stable") for a in axes)
    n = lattice.p_points
    point = np.arange(len(cover_pts))
    line = np.zeros(len(cover_pts), dtype=np.intp)
    partial = np.zeros(len(cover_pts))
    for k, ax in enumerate(a[o] for a, o in zip(axes, order)):
        y = cover_pts[point, k]
        lo, hi = _cone_windows(y, ax, radius, r2, partial)
        if k == len(axes) - 1:
            break
        # one row per window index, in row order, each index ascending
        counts = hi - lo
        rows = np.repeat(np.arange(len(lo)), counts)
        idx = np.arange(len(rows)) + np.repeat(lo - np.cumsum(counts)
                                               + counts, counts)
        point, line = point[rows], line[rows] * n + idx
        d = ax[idx] - y[rows]
        partial = partial[rows] + d * d
        # inside the cone, so r2 - partial > 0; the rims are settled exactly
        radius = np.sqrt(r2 - partial)
    keep = lo < hi
    return SenderReach(cand_xs, eligible, cover_pts, order, point[keep],
                       line[keep], lo[keep], hi[keep])


def _greedy_cover(reach: SenderReach, lattice: LatticeSpec) -> list[Event]:
    """Senders picked until their futures cover all of K's sample points.

    Each pick is the eligible candidate that reaches the most points not
    yet covered, the first in lattice order on a tie.  The counts are
    kept in sorted lattice order as a difference array, +1 at each
    interval's lo and -1 at its hi on its line, summed along the lines
    and gathered into lattice order before each pick.  The points a pick
    covers are those with an interval on its line around its index, and
    their intervals then leave the difference array.
    """
    n, dim = lattice.p_points, reach.cand_xs.shape[1]
    width = n + 1
    size = n ** (dim - 1) * width
    lo_at = reach.line * width + reach.lo
    hi_at = reach.line * width + reach.hi

    def ends(sel):
        return (np.bincount(lo_at[sel], minlength=size)
                - np.bincount(hi_at[sel], minlength=size))

    diff = ends(slice(None))
    # each candidate's index in sorted lattice order
    rank = np.meshgrid(*map(np.argsort, reach.order), indexing="ij")
    perm = np.ravel_multi_index(rank, (n,) * dim).ravel()
    cover_pts = reach.cover_pts
    covered = np.zeros(len(cover_pts), dtype=bool)
    senders: list[Event] = []
    while not covered.all():
        gains = np.cumsum(diff.reshape(-1, width)[:, :n], axis=1).ravel()[perm]
        gains[~reach.eligible] = 0
        pick = int(np.argmax(gains))
        if gains[pick] == 0:
            missing = cover_pts[~covered][0]
            raise ProtocolSearchError(
                "no eligible sender reaches the sample point at "
                f"{tuple(float(v) for v in missing)}; not found at this "
                f"resolution (slice t={lattice.p_time}, "
                f"{lattice.p_points} points per axis)")
        senders.append(_event(lattice.p_time, reach.cand_xs[pick]))
        at, j = divmod(int(perm[pick]), n)
        new = reach.point[(reach.line == at) & (reach.lo <= j)
                          & (j < reach.hi)]
        fresh = np.zeros(len(cover_pts), dtype=bool)
        fresh[new] = ~covered[new]
        covered |= fresh
        diff -= ends(fresh[reach.point])  # every interval of those points
    return senders


def audit_protocol(proto: SignallingProtocol, sc: MeasurementScenario,
                   cover_pts: np.ndarray) -> list[str]:
    """Re-verify every protocol clause with the cone kernels.

    The sender cover is checked on `cover_pts`, which must be the (n, d)
    array `sc.K.sample_points(lattice.cover_resolution)`.
    """
    cs = sc.cs
    out: list[str] = []
    corners = _box_corners(*proto.C.corners)
    late = np.flatnonzero(~next(cone_blocks(  # q's past cone, as above
        [proto.q.x], proto.q.t - sc.t_time, cs, corners))[0])
    if late.size:
        out.append("readout set leaves the causal past of q at "
                   f"{tuple(corners[late[0]].tolist())}")
    if region_precedes_event(sc.K, sc.s_time, proto.q, cs):
        out.append("receiver lies in the causal future of K")
    covered = np.zeros(len(cover_pts), dtype=bool)
    # one kernel call over the senders of each slice time (and length, so
    # that a sender of the wrong dimension fails as it would alone)
    groups: dict[tuple[float, int], list] = {}
    for p in proto.senders:
        groups.setdefault((p.t, len(p.x)), []).append(p.x)
    for (t, _), xs in groups.items():
        for block in cone_blocks(xs, sc.s_time - t, cs, cover_pts,
                                 open_cone=True):
            covered |= np.logical_or.reduce(block, axis=0)
    if not covered.all():
        out.append("sender futures fail to cover K's sample points")
    for p in proto.senders:
        if causally_precedes(p, proto.q, cs):
            out.append(f"sender {p} causally precedes the receiver")
    gap = float(sc.nu0.mass(proto.C)) - float(sc.nu1.mass(proto.C))
    if gap <= 0:
        out.append("channel gap vanishes on re-evaluation")
    elif abs(gap - proto.channel_gap) > 1e-9:
        out.append("stored channel gap disagrees with the scenario")
    return out


def simulate_signalling(proto: SignallingProtocol, sc: MeasurementScenario,
                        trials: int, seed: int,
                        block_size: int = 1) -> SignallingStats:
    """Monte Carlo of the one-bit channel with a midpoint-threshold decoder.

    Each trial transmits a uniform random bit by running the experiment
    `block_size` times; the receiver compares the detection frequency on
    C against the midpoint of the two per-run detection rates.  Fixed
    seeds give identical results regardless of internal batching.
    """
    if trials <= 0 or block_size <= 0:
        raise ValueError("trials and block size must be positive")
    if trials > MAX_TRIALS:
        raise ValueError(f"{trials} trials are above the limit of "
                         f"{MAX_TRIALS}")
    if block_size > MAX_BLOCK_SIZE:
        raise ValueError(f"block size {block_size} is above the limit of "
                         f"{MAX_BLOCK_SIZE}")
    p_off = float(sc.nu0.mass(proto.C))   # bit 0: probe absent
    p_on = float(sc.nu1.mass(proto.C))    # bit 1: probe present
    if p_off - p_on <= 0:
        raise ValueError("channel gap is zero; nothing to decode")
    threshold = 0.5 * (p_off + p_on)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=trials)
    probs = np.where(bits == 0, p_off, p_on)
    counts = rng.binomial(block_size, probs)
    decoded = np.where(counts / block_size >= threshold, 0, 1)
    errors = float(np.mean(decoded != bits))
    stderr = math.sqrt(errors * (1.0 - errors) / trials)
    return SignallingStats(trials=trials, block_size=block_size,
                           error_rate=errors, stderr=stderr,
                           p_detect_off=p_off, p_detect_on=p_on,
                           threshold=threshold)


def round_trip_check(proto: SignallingProtocol, frame: BoostedFrame,
                     cs: CausalStructure) -> bool:
    """Mirror the channel in a moving frame and test for a causal loop.

    A second operator moving at the frame's velocity runs an identical
    channel aimed back at the first: in the moving coordinates the reply
    repeats the original displacement with space reversed, starting from
    the received event.  Transforming the reply back, the check returns
    true when it lands in the causal past of the sender that opened the
    exchange, closing the loop.
    """
    for p in proto.senders:
        dt = proto.q.t - p.t
        dx = tuple(b - a for a, b in zip(p.x, proto.q.x))
        q_moving = boost(proto.q, frame, cs)
        reply_moving = Event(q_moving.t + dt,
                             tuple(b - d for b, d in zip(q_moving.x, dx)))
        reply = boost(reply_moving, inverse(frame), cs)
        if causally_precedes(reply, p, cs):
            return True
    return False


# -- canned scenarios ---------------------------------------------------------

ABC_LATTICE = LatticeSpec(q_time=2.0, q_lo=(1.5,), q_hi=(4.5,), q_points=13,
                          p_time=-1.0, p_lo=(-4.0,), p_hi=(4.0,), p_points=41,
                          cover_resolution=0.05)


def make_annulus_scenario(segments: int = 16) -> tuple[MeasurementScenario,
                                                       LatticeSpec]:
    """2+1 scenario whose ring-shaped K admits no single-sender cover.

    The source measure sits on a ring of boxes; unprobed it collapses to
    the center, probed it stays on the ring, so the central point carries
    the whole marginal gap.  Any event whose chronological future covers
    the full ring is early and central enough to causally precede every
    eligible receiver near the axis, so a valid protocol needs several
    senders spread around the ring.
    """
    if segments < 8:
        raise ValueError("need at least 8 segments to shape the ring")
    cs = CausalStructure(dim=2, c=1.0)
    s_time, t_time = 0.0, 0.5
    r_mid = 2.25
    half = 0.22
    angles = [2.0 * math.pi * i / segments for i in range(segments)]
    ring = [(r_mid * math.cos(a), r_mid * math.sin(a)) for a in angles]
    boxes = [((x - half, y - half), (x + half, y + half)) for x, y in ring]
    K = Region.from_boxes(boxes, dim=2)

    w = 1.0 / segments
    mu = SliceMeasure.from_atoms(s_time, [(p, w) for p in ring])
    center = (0.0, 0.0)
    nu0 = SliceMeasure.from_atoms(t_time, [(center, 1.0)]
                                  + [(p, 0.0) for p in ring])
    stay = SliceMeasure.from_atoms(t_time, [(center, 0.0)]
                                   + [(p, w) for p in ring])
    sc = MeasurementScenario(cs=cs, K=K, mu=mu, nu0=nu0, nu1=stay,
                             nu_plus=stay, nu_minus=stay, p_plus=1.0)
    lattice = LatticeSpec(q_time=1.0, q_lo=(-0.4, -0.4), q_hi=(0.4, 0.4),
                          q_points=5, p_time=-1.0, p_lo=(-3.5, -3.5),
                          p_hi=(3.5, 3.5), p_points=29,
                          cover_resolution=0.11)
    return sc, lattice
