"""Turning a marginal-statistics violation into an operational signal.

Given a scenario whose probed marginal loses mass somewhere outside the
detector region's future, a receiver event q is placed so that part of the
losing set C sits in its chronological past while q stays outside the
future of K; lattice events whose chronological futures jointly cover K,
none of them preceding q, act as senders.  Toggling the probe then shifts
the detection frequency on C by the channel gap, which a thresholding
decoder reads out.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .conditions import MeasurementScenario, ns_gap_support
from .measure import SliceMeasure
from .region import Region
from .spacetime import (
    BoostedFrame,
    CausalStructure,
    Event,
    boost,
    causally_precedes,
    chronologically_precedes,
    cone_blocks,
    inverse,
    region_precedes_event,
)


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
        if self.cover_resolution <= 0:
            raise ValueError("cover resolution must be positive")

    def q_candidates(self) -> np.ndarray:
        return _lattice(self.q_lo, self.q_hi, self.q_points)

    def p_candidates(self) -> np.ndarray:
        return _lattice(self.p_lo, self.p_hi, self.p_points)


def _lattice(lo: tuple[float, ...], hi: tuple[float, ...],
             n: int) -> np.ndarray:
    axes = [np.linspace(a, b, n) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


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


def _box_corners(region: Region):
    for lo, hi in region.boxes:
        yield from itertools.product(*zip(lo, hi))


def _chronological_cell(cell: Region, q: Event, slice_time: float,
                        cs: CausalStructure) -> bool:
    """Whole cell strictly inside the chronological past of q."""
    return all(chronologically_precedes(Event(slice_time, corner), q, cs)
               for corner in _box_corners(cell))


def construct_protocol(sc: MeasurementScenario, witness: Region,
                       lattice: LatticeSpec) -> SignallingProtocol:
    """Build a receiver, a readout set and a greedy sender cover.

    The receiver maximizes the channel gap among lattice events outside
    the (box-dilated) future of K whose chronological past contains part
    of the witness; ties break toward lexicographically smaller
    coordinates.  C is the witness shrunk to the cells strictly inside
    the receiver's chronological past.  Senders are picked greedily until
    their chronological futures cover K's sample points; candidates that
    causally precede the receiver are never eligible.  Lattice exhaustion
    means "not found at this resolution", not nonexistence.
    """
    cs = sc.cs
    s_time, t_time = sc.s_time, sc.t_time
    if lattice.q_time <= t_time:
        raise ValueError("receiver slice must come after the readout slice")
    if lattice.p_time >= s_time:
        raise ValueError("sender slice must come before the source slice")
    if witness is None or witness.is_empty:
        raise ProtocolSearchError("scenario provides no marginal-gap witness")

    idx, pts, gaps = ns_gap_support(sc)
    keep = np.flatnonzero(witness.contains_points(pts)).tolist()
    if not keep:
        raise ProtocolSearchError("witness carries no positive marginal gap")
    cells = [sc.nu0.cell_region([int(idx[i])]) for i in keep]
    cell_gaps = np.asarray([float(gaps[i]) for i in keep])

    best: tuple[float, Event, list[int]] | None = None
    for xq in lattice.q_candidates():
        q = Event(lattice.q_time, tuple(float(v) for v in xq))
        if region_precedes_event(sc.K, s_time, q, cs):
            continue  # receiver must stay outside the future of K
        sel = [i for i, cell in enumerate(cells)
               if _chronological_cell(cell, q, t_time, cs)]
        if not sel:
            continue
        gap = float(cell_gaps[sel].sum())
        if gap <= float(sc.mass_tol):
            continue
        if best is None or gap > best[0] + 1e-15:
            best = (gap, q, sel)
    if best is None:
        raise ProtocolSearchError(
            "no receiver event sees the witness gap while avoiding the "
            f"future of K; not found at this resolution (slice "
            f"t={lattice.q_time}, {lattice.q_points} points per axis)")
    gap, q, sel = best
    c_region = sc.nu0.cell_region([int(idx[keep[i]]) for i in sel])

    cand_events, _, cover_pts, reach = _sender_reach(sc, q, lattice)
    senders: list[Event] = []
    covered = np.zeros(len(cover_pts), dtype=bool)
    while not covered.all():
        gains = (reach & ~covered[None, :]).sum(axis=1)
        pick = int(np.argmax(gains))
        if gains[pick] == 0:
            missing = cover_pts[~covered][0]
            raise ProtocolSearchError(
                "no eligible sender reaches the sample point at "
                f"{tuple(float(v) for v in missing)}; not found at this "
                f"resolution (slice t={lattice.p_time}, "
                f"{lattice.p_points} points per axis)")
        senders.append(cand_events[pick])
        covered |= reach[pick]
    proto = SignallingProtocol(K=sc.K, C=c_region, q=q,
                               senders=tuple(senders), channel_gap=gap)
    problems = audit_protocol(proto, sc, lattice.cover_resolution)
    if problems:
        raise ProtocolSearchError("constructed protocol failed its audit: "
                                  + "; ".join(problems))
    return proto


def _sender_reach(sc: MeasurementScenario, q: Event, lattice: LatticeSpec):
    """Sender candidates and which of K's sample points each one reaches.

    Returns the lattice events on the sender slice, whether each may send
    (it does not causally precede q), K's sample points, and the boolean
    (candidates, points) matrix of points strictly inside each candidate's
    chronological future; a candidate that may not send reaches nothing.
    """
    cover_pts = sc.K.sample_points(lattice.cover_resolution)
    cand_xs = lattice.p_candidates()
    events = [Event(lattice.p_time, tuple(float(v) for v in x))
              for x in cand_xs]
    eligible = np.asarray([not causally_precedes(p, q, sc.cs)
                           for p in events])
    reach = np.concatenate(list(cone_blocks(
        cand_xs, sc.s_time - lattice.p_time, sc.cs, cover_pts,
        open_cone=True)))
    reach[~eligible, :] = False
    return events, eligible, cover_pts, reach


def find_single_sender(sc: MeasurementScenario, q: Event,
                       lattice: LatticeSpec) -> Event | None:
    """Exhaustive lattice scan for one sender covering all of K alone.

    Returns the first lattice event whose chronological future contains
    every sample point of K while not causally preceding q, or None when
    the scan comes up empty.
    """
    events, eligible, _, reach = _sender_reach(sc, q, lattice)
    for p, ok, row in zip(events, eligible, reach):
        if ok and row.all():
            return p
    return None


def audit_protocol(proto: SignallingProtocol, sc: MeasurementScenario,
                   cover_resolution: float = 0.05) -> list[str]:
    """Re-verify every protocol clause with the causal-order predicates."""
    cs = sc.cs
    out: list[str] = []
    for corner in _box_corners(proto.C):
        e = Event(sc.t_time, corner)
        if not causally_precedes(e, proto.q, cs):
            out.append(f"readout set leaves the causal past of q at {corner}")
            break
    pts = sc.K.sample_points(cover_resolution)
    covered = np.zeros(len(pts), dtype=bool)
    for p in proto.senders:
        for i, y in enumerate(pts):
            if not covered[i] and chronologically_precedes(
                    p, Event(sc.s_time, tuple(y)), cs):
                covered[i] = True
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
