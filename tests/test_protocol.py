"""Signalling protocol construction, audit, simulation, paradox loop."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import helpers
from causal_lab.cli import Scenario
from causal_lab.conditions import (find_ns_witness, make_abc_scenario,
                                   ns_gap_support)
from causal_lab.measure import SliceMeasure
from causal_lab.protocol import (ABC_LATTICE, LatticeSpec, ProtocolSearchError,
                                 SignallingProtocol, audit_protocol,
                                 _sender_reach, construct_protocol,
                                 make_annulus_scenario, round_trip_check,
                                 simulate_signalling)
from causal_lab.region import Region
from causal_lab.spacetime import (EPS_CAUSAL, BoostedFrame, Event, boost,
                                  causally_precedes, chronologically_precedes,
                                  cone_blocks, inverse, region_precedes_event)


def _abc_protocol(a=0.0, b=1.0, c=1.0):
    sc = make_abc_scenario(a, b, c)
    witness = find_ns_witness(sc)
    assert witness is not None
    return sc, construct_protocol(sc, witness, ABC_LATTICE)


def test_family_protocol_shape():
    sc, proto = _abc_protocol()
    assert len(proto.senders) == 1
    assert proto.channel_gap == pytest.approx(1.0)
    assert proto.q.t == ABC_LATTICE.q_time
    assert audit_protocol(proto, sc) == []


def test_family_protocol_clauses_reverify():
    sc, proto = _abc_protocol()
    cs = sc.cs
    # readout region sits outside the detector's causal future
    for lo, hi in proto.C.boxes:
        for corner in (lo, hi):
            assert not region_precedes_event(
                sc.K, sc.s_time, Event(sc.t_time, corner), cs)
    # the channel gap is real: detection statistics differ on C
    assert float(sc.nu0.mass(proto.C)) - float(sc.nu1.mass(proto.C)) > 0
    # senders reach all of K but not the receiver
    for p in proto.senders:
        assert not causally_precedes(p, proto.q, cs)
    for x in sc.K.sample_points(ABC_LATTICE.cover_resolution):
        target = Event(sc.s_time, tuple(x))
        assert any(causally_precedes(p, target, cs) for p in proto.senders)


def test_protocol_readout_inside_witness():
    sc, proto = _abc_protocol(0.2, 1.0, 0.6)
    witness = find_ns_witness(sc)
    assert helpers.oracle_covers(witness, proto.C)


def _single_senders(sc, q, lattice):
    """The lattice events that may send and cover K's sample points alone,
    in lattice order."""
    got = _sender_reach(sc, q, lattice)
    reach = helpers.dense_reach(got)
    return [Event(lattice.p_time, tuple(x))
            for x in got.cand_xs[got.eligible & reach.all(axis=1)].tolist()]


def test_single_sender_found_on_family():
    sc, proto = _abc_protocol()
    singles = _single_senders(sc, proto.q, ABC_LATTICE)
    assert singles
    for p in singles:
        assert not causally_precedes(p, proto.q, sc.cs)
        for x in sc.K.sample_points(ABC_LATTICE.cover_resolution):
            assert causally_precedes(p, Event(sc.s_time, tuple(x)), sc.cs)


def test_annulus_needs_multiple_senders():
    sc, lattice = make_annulus_scenario()
    witness = find_ns_witness(sc)
    proto = construct_protocol(sc, witness, lattice)
    assert len(proto.senders) > 1
    assert audit_protocol(proto, sc, lattice.cover_resolution) == []
    assert _single_senders(sc, proto.q, lattice) == []


def test_audit_flags_receiver_in_the_future_of_k():
    sc, lattice = helpers.cone_corner_scenario()
    proto = construct_protocol(sc, find_ns_witness(sc), lattice)
    assert audit_protocol(proto, sc, lattice.cover_resolution) == []
    # (1.0, 1.0) is 1.27 from K, inside its cone 1.5 later
    moved = replace(proto, q=Event(proto.q.t, (1.0, 1.0)))
    problems = audit_protocol(moved, sc, lattice.cover_resolution)
    assert any(p.startswith("receiver lies in the causal future of K")
               for p in problems)
    # the clause reads K's own boxes: q just outside the cone passes it
    outside = replace(proto, q=Event(proto.q.t, (1.2, 1.2)))
    assert not any("causal future of K" in p for p in
                   audit_protocol(outside, sc, lattice.cover_resolution))


def test_protocol_requires_gap():
    sc = make_abc_scenario(1.0, 1.0, 1.0)  # no-signalling holds
    assert find_ns_witness(sc) is None
    with pytest.raises(ProtocolSearchError):
        construct_protocol(sc, Region.point_boxes([(2.2,)]), ABC_LATTICE)


def test_protocol_reports_resolution_failure():
    sc = make_abc_scenario(0.0, 1.0, 1.0)
    witness = find_ns_witness(sc)
    # receiver slots all inside the detector future: nothing eligible
    bad = LatticeSpec(q_time=2.0, q_lo=(0.0,), q_hi=(1.0,), q_points=3,
                      p_time=-1.0, p_lo=(-4.0,), p_hi=(4.0,), p_points=11,
                      cover_resolution=0.05)
    with pytest.raises(ProtocolSearchError, match="resolution"):
        construct_protocol(sc, witness, bad)


def test_protocol_rejects_bad_slice_order():
    sc = make_abc_scenario(0.0, 1.0, 1.0)
    witness = find_ns_witness(sc)
    bad = LatticeSpec(q_time=0.5, q_lo=(1.5,), q_hi=(4.5,), q_points=5,
                      p_time=-1.0, p_lo=(-4.0,), p_hi=(4.0,), p_points=11,
                      cover_resolution=0.05)
    with pytest.raises(ValueError):
        construct_protocol(sc, witness, bad)


@pytest.mark.parametrize("field, value", [
    ("q_time", math.nan), ("p_time", math.inf), ("q_lo", (math.inf,)),
    ("q_hi", (math.nan,)), ("p_lo", (-math.inf,)), ("p_hi", (math.inf,)),
    ("cover_resolution", math.nan), ("cover_resolution", math.inf)])
def test_lattice_rejects_non_finite_fields(field, value):
    # each once ran on into an IndexError, a numpy RuntimeWarning or a
    # message about something else; the error names the field
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        replace(ABC_LATTICE, **{field: value})


def test_audit_detects_tampered_sender():
    sc, proto = _abc_protocol()
    inside = SignallingProtocol(K=proto.K, C=proto.C, q=proto.q,
                                senders=(Event(-1.0, (2.4,)),),
                                channel_gap=proto.channel_gap)
    problems = audit_protocol(inside, sc)
    assert problems  # sender both precedes q and fails to cover K


def test_audit_detects_wrong_gap():
    sc, proto = _abc_protocol()
    wrong = SignallingProtocol(K=proto.K, C=proto.C, q=proto.q,
                               senders=proto.senders, channel_gap=0.123)
    assert any("gap" in p for p in audit_protocol(wrong, sc))


def test_protocol_dataclass_guards():
    with pytest.raises(ValueError):
        SignallingProtocol(K=Region.interval(0, 1), C=Region.interval(2, 3),
                           q=Event.of(1.0, 0.0), senders=(),
                           channel_gap=1.0)
    with pytest.raises(ValueError):
        SignallingProtocol(K=Region.interval(0, 1), C=Region.interval(2, 3),
                           q=Event.of(1.0, 0.0),
                           senders=(Event.of(0.0, 0.0),), channel_gap=0.0)


def test_simulation_perfect_channel():
    sc, proto = _abc_protocol()
    stats = simulate_signalling(proto, sc, trials=400, seed=5)
    assert stats.error_rate == 0.0
    assert stats.p_detect_off == pytest.approx(1.0)
    assert stats.p_detect_on == pytest.approx(0.0)
    assert stats.threshold == pytest.approx(0.5)


def test_simulation_rejects_zero_gap():
    sc, proto = _abc_protocol()
    flat = make_abc_scenario(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        simulate_signalling(proto, flat, trials=100, seed=0)


def test_simulation_seed_reproducible():
    sc, proto = _abc_protocol(0.2, 1.0, 0.6)
    s1 = simulate_signalling(proto, sc, trials=500, seed=42)
    s2 = simulate_signalling(proto, sc, trials=500, seed=42)
    s3 = simulate_signalling(proto, sc, trials=500, seed=43)
    assert s1 == s2
    assert s1 != s3


@pytest.mark.parametrize("seed", range(3))
def test_simulation_error_within_hoeffding_envelope(seed):
    sc, proto = _abc_protocol(0.2, 1.0, 0.6)
    gap = proto.channel_gap
    for block in (1, 3, 7):
        stats = simulate_signalling(proto, sc, trials=2000, seed=seed,
                                    block_size=block)
        bound = math.exp(-block * gap * gap / 2) + 3 * stats.stderr
        assert stats.error_rate <= bound


def test_simulation_error_shrinks_with_block_size():
    sc, proto = _abc_protocol(0.2, 1.0, 0.6)
    rates = [simulate_signalling(proto, sc, trials=4000, seed=11,
                                 block_size=b).error_rate
             for b in (1, 3, 9)]
    assert rates[0] > rates[-1]
    for hi, lo in zip(rates[:-1], rates[1:]):
        assert lo <= hi + 0.02


def _explicit_loop_protocol():
    # sender at the origin, receiver spacelike at effective speed 2c
    return SignallingProtocol(K=Region.interval(-0.25, 0.25),
                              C=Region.point_boxes([(2.2,)]),
                              q=Event.of(1.0, 2.0),
                              senders=(Event.of(0.0, 0.0),),
                              channel_gap=1.0)


def test_round_trip_paradox_with_fast_frame():
    from causal_lab.spacetime import CausalStructure
    cs = CausalStructure(dim=1, c=1.0)
    proto = _explicit_loop_protocol()
    assert round_trip_check(proto, BoostedFrame(v=0.9), cs)
    assert not round_trip_check(proto, BoostedFrame(v=0.0), cs)


def test_round_trip_certificate_reverified():
    from causal_lab.spacetime import CausalStructure
    cs = CausalStructure(dim=1, c=1.0)
    proto = _explicit_loop_protocol()
    p, q = proto.senders[0], proto.q
    for v, expect in ((0.9, True), (0.0, False)):
        frame = BoostedFrame(v=v)
        q_mov = boost(q, frame, cs)
        reply_mov = Event(q_mov.t + (q.t - p.t),
                          (q_mov.x[0] - (q.x[0] - p.x[0]),))
        reply = boost(reply_mov, inverse(frame), cs)
        assert causally_precedes(reply, p, cs) == expect


def test_round_trip_needs_fast_enough_frame():
    from causal_lab.spacetime import CausalStructure
    cs = CausalStructure(dim=1, c=1.0)
    proto = _explicit_loop_protocol()
    # u = 2 needs v above 2u/(1+u^2) = 0.8
    assert not round_trip_check(proto, BoostedFrame(v=0.7), cs)
    assert round_trip_check(proto, BoostedFrame(v=0.81), cs)


# -- the per-point predicates the kernels replaced, kept as the oracle --------


def _oracle_box_corners(region):
    for lo, hi in region.boxes:
        yield from itertools.product(*zip(lo, hi))


def _oracle_chronological_cell(cell, q, slice_time, cs):
    """Whole cell strictly inside the chronological past of q."""
    return all(chronologically_precedes(Event(slice_time, corner), q, cs)
               for corner in _oracle_box_corners(cell))


def _oracle_construct(sc, witness, lattice):
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
    half = sc.nu0.cell_halfwidth
    cells = [Region.point_boxes([pts[i]], sc.nu0.dim, halfwidth=half)
             for i in keep]
    cell_gaps = np.asarray([float(gaps[i]) for i in keep])

    best = None
    for xq in lattice.q_candidates():
        q = Event(lattice.q_time, tuple(float(v) for v in xq))
        if region_precedes_event(sc.K, s_time, q, cs):
            continue  # receiver must stay outside the future of K
        sel = [i for i, cell in enumerate(cells)
               if _oracle_chronological_cell(cell, q, t_time, cs)]
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
    c_region = Region.point_boxes([pts[keep[i]] for i in sel], sc.nu0.dim,
                                  halfwidth=half)

    cand_events, _, cover_pts, reach = _oracle_sender_reach(sc, q, lattice)
    senders = []
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
    problems = _oracle_audit(proto, sc, lattice.cover_resolution)
    if problems:
        raise ProtocolSearchError("constructed protocol failed its audit: "
                                  + "; ".join(problems))
    return proto


def _oracle_sender_reach(sc, q, lattice):
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


def _oracle_single_senders(sc, q, lattice):
    events, eligible, _, reach = _oracle_sender_reach(sc, q, lattice)
    return [p for p, ok, row in zip(events, eligible, reach)
            if ok and row.all()]


def _oracle_audit(proto, sc, cover_resolution=0.05):
    cs = sc.cs
    out = []
    for corner in _oracle_box_corners(proto.C):
        e = Event(sc.t_time, corner)
        if not causally_precedes(e, proto.q, cs):
            out.append(f"readout set leaves the causal past of q at {corner}")
            break
    for lo, hi in sc.K.boxes:
        # the point of the box nearest to q reaches q if any point does
        nearest = tuple(min(max(x, a), b)
                        for a, b, x in zip(lo, hi, proto.q.x))
        if causally_precedes(Event(sc.s_time, nearest), proto.q, cs):
            # the clamp names the point; region_precedes_event does not
            out.append("receiver lies in the causal future of K")
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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # ProtocolSearchError included
        return type(exc), str(exc)


def _reweighted_annulus(segments, seed):
    """The annulus with random ring weights, and a probe that leaves part
    of the centre's mass in place."""
    sc, lattice = make_annulus_scenario(segments)
    rng = np.random.default_rng([segments, seed])
    ring = [p for p, _ in sc.mu.atoms]
    w = rng.random(segments) + 0.1
    w /= w.sum()
    m = float(rng.uniform(0.2, 1.0))
    mu = SliceMeasure.from_atoms(sc.s_time, list(zip(ring, w)))
    stay = SliceMeasure.from_atoms(sc.t_time, [((0.0, 0.0), 1.0 - m)]
                                   + list(zip(ring, m * w)))
    return replace(sc, mu=mu, nu1=stay, nu_plus=stay, nu_minus=stay), lattice


def _oracle_cases():
    for a in np.linspace(0.0, 1.0, 5):
        for c in np.linspace(0.0, 1.0, 5):
            yield make_abc_scenario(float(a), 1.0, float(c)), ABC_LATTICE
    yield make_abc_scenario(Fraction(1, 4), 1, 0, exact=True), ABC_LATTICE
    # searches that come up empty: no free receiver, no covering sender
    for bad in (replace(ABC_LATTICE, q_lo=(0.0,), q_hi=(1.0,), q_points=3),
                replace(ABC_LATTICE, p_lo=(3.0,), p_points=3)):
        yield make_abc_scenario(0.0, 1.0, 1.0), bad
    for segments in (8, 16, 24, 64):
        yield make_annulus_scenario(segments)
        yield _reweighted_annulus(segments, 0)
    yield helpers.cone_corner_scenario()
    grid_lattice = LatticeSpec(q_time=2.0, q_lo=(-3.5,), q_hi=(3.5,),
                               q_points=29, p_time=-1.0, p_lo=(-3.0,),
                               p_hi=(3.0,), p_points=41,
                               cover_resolution=0.05)
    rng = np.random.default_rng(5)
    grids = 0
    while grids < 3:
        sc, _ = helpers.random_grid_scenario(rng)
        if find_ns_witness(sc) is not None:
            grids += 1
            yield sc, grid_lattice


def _tampered(proto, sc, resolution):
    """A sender after s, q before t, q inside the future of K; q on the
    cone rim of a corner of C, and a lone sender with a sample point of K
    on its cone rim, where the open and the closed cone part ways."""
    p = proto.senders[0]
    late = Event(sc.s_time + 0.5, p.x)
    k_lo, k_hi = sc.K.boxes[0]
    mid = tuple(0.5 * (a + b) for a, b in zip(k_lo, k_hi))
    corner = next(_oracle_box_corners(proto.C))
    rim_q = (corner[0] + sc.cs.c * (proto.q.t - sc.t_time),) + corner[1:]
    y = min(sc.K.sample_points(resolution).tolist())
    rim_p = (y[0] + sc.cs.c * (sc.s_time - p.t),) + tuple(y[1:])
    return (replace(proto, senders=(late,) + proto.senders[1:]),
            replace(proto, senders=proto.senders + (late,)),
            replace(proto, q=Event(sc.t_time - 0.25, proto.q.x)),
            replace(proto, q=Event(proto.q.t, mid)),
            replace(proto, q=Event(proto.q.t, rim_q)),
            replace(proto, senders=(Event(p.t, rim_p),)))


def test_protocol_matches_per_point_oracle():
    built = found = failed = 0
    for sc, lattice in _oracle_cases():
        witness = find_ns_witness(sc)
        if witness is None:
            continue
        proto = _outcome(construct_protocol, sc, witness, lattice)
        assert proto == _outcome(_oracle_construct, sc, witness, lattice)
        if not isinstance(proto, SignallingProtocol):
            failed += 1
            continue
        built += 1
        assert proto.C.boxes == _oracle_construct(sc, witness, lattice).C.boxes
        singles = _single_senders(sc, proto.q, lattice)
        assert singles == _oracle_single_senders(sc, proto.q, lattice)
        found += bool(singles)
        res = lattice.cover_resolution
        tampered = _tampered(proto, sc, res)
        for t in (proto,) + tampered:
            assert audit_protocol(t, sc, res) == _oracle_audit(t, sc, res)
        # every clause fails on some tampered protocol
        problems = [p for t in tampered for p in audit_protocol(t, sc, res)]
        for start in ("readout set leaves", "receiver lies in the causal",
                      "sender Event"):
            assert any(p.startswith(start) for p in problems), start
    assert built > 20 and 0 < found < built and failed == 2


# -- the interval reach against the all-pairs kernel ---------------------------

DATA = Path(__file__).parent / "data"


def _ring_3d():
    """tests/data/ring_3d.json: the 16-segment annulus lifted to d = 3."""
    sc = Scenario(str(DATA / "ring_3d.json"))
    return sc.measurement_scenario(), sc.lattice()


def _lattice_variants(lattice, rng):
    """The lattice with some axes descending, one axis of one repeated
    value, a single point per axis, and the sender slice within the cone
    slack of the source slice, where the open cone has radius 0."""
    dim = len(lattice.p_lo)
    flip = rng.random(dim) < 0.5
    flip[rng.integers(dim)] = True
    lo = tuple(np.where(flip, lattice.p_hi, lattice.p_lo).tolist())
    hi = tuple(np.where(flip, lattice.p_lo, lattice.p_hi).tolist())
    yield replace(lattice, p_lo=lo, p_hi=hi)
    ax = int(rng.integers(dim))
    v = float(rng.uniform(lattice.p_lo[ax], lattice.p_hi[ax]))
    yield replace(lattice, p_lo=lo[:ax] + (v,) + lo[ax + 1:],
                  p_hi=hi[:ax] + (v,) + hi[ax + 1:])
    yield replace(lattice, p_lo=lo, p_hi=hi, p_points=1)
    yield replace(lattice, p_time=-EPS_CAUSAL / 2)


def _reach_cases():
    rng = np.random.default_rng(83)
    rim_sc, rim_lattice, _ = helpers.rim_annulus()
    cases = [(make_abc_scenario(0.0, 1.0, 1.0), ABC_LATTICE),
             make_annulus_scenario(16), _reweighted_annulus(32, 1),
             (rim_sc, rim_lattice), _ring_3d()]
    for sc, lattice in list(cases):
        cases.extend((sc, v) for v in _lattice_variants(lattice, rng))
    # the rim lattice turned end for end keeps its rim pairs
    cases.append((rim_sc, replace(rim_lattice, p_lo=rim_lattice.p_hi,
                                  p_hi=rim_lattice.p_lo)))
    return cases


def test_interval_reach_matches_all_pairs_kernel():
    # the intervals, expanded, are the open cone_blocks matrix over all
    # pairs in d = 1, 2 and 3, on ascending, descending and one-valued
    # axes, one point per axis, rim points and an open radius of 0
    dims, reached = set(), 0
    for sc, lattice in _reach_cases():
        for q_x in lattice.q_candidates()[[0, -1]]:
            q = Event(lattice.q_time, tuple(q_x.tolist()))
            got = _sender_reach(sc, q, lattice)
            events, eligible, cover_pts, want = _oracle_sender_reach(
                sc, q, lattice)
            assert np.array_equal(got.cand_xs, lattice.p_candidates())
            assert np.array_equal(got.eligible, eligible)
            assert np.array_equal(got.cover_pts, cover_pts)
            assert np.array_equal(helpers.dense_reach(got), want)
            # one nonempty interval a point and line, point by point
            assert (got.lo < got.hi).all()
            key = got.point * len(got.cand_xs) + got.line
            assert (np.diff(key) > 0).all()
            dims.add(sc.cs.dim)
            reached += bool(want.any())
        if lattice.p_time > -EPS_CAUSAL:
            assert not got.point.size  # an open radius of 0 reaches nothing
    assert dims == {1, 2, 3} and reached > 20


def test_sender_reach_holds_no_dense_matrix():
    # the 64-segment ring on a 300 x 300 sender lattice: the dense
    # (candidates, points) matrix alone would be 111 MB
    sc, lattice = make_annulus_scenario(64)
    lattice = replace(lattice, p_points=300)
    witness = find_ns_witness(sc)
    tracemalloc.start()
    try:
        proto = construct_protocol(sc, witness, lattice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(proto.senders) > 1
    assert peak < 50e6


def test_construct_matches_oracle_on_lattice_variants():
    # the greedy cover on the intervals against the dense oracle: ties
    # go to the lowest lattice index on descending and one-valued axes
    rng = np.random.default_rng(89)
    abc = make_abc_scenario(0.2, 1.0, 0.6)
    ring_sc, ring_lattice = _ring_3d()
    cases = [(abc, ABC_LATTICE), (ring_sc, ring_lattice)]
    cases += [_reweighted_annulus(int(s), int(seed)) for s, seed in
              zip(rng.choice([8, 16, 24], 3), rng.integers(0, 100, 3))]
    cases = [(sc, lat) for sc, lattice in cases
             for lat in [lattice, *_lattice_variants(lattice, rng)]]
    # one-valued axes on which a cover exists: every candidate of the
    # d = 1 lattice at x = -0.6, and the d = 3 lattice on the plane z = 0
    # with its other axes descending
    at = replace(ABC_LATTICE, p_lo=(-0.6,), p_hi=(-0.6,))
    cases += [(abc, at), (abc, replace(at, p_points=1))]
    cases += [(ring_sc, replace(ring_lattice, p_lo=lo, p_hi=hi)) for lo, hi
              in (((3.5, -3.5, 0.0), (-3.5, 3.5, 0.0)),
                  ((3.5, 3.5, 0.0), (-3.5, -3.5, 0.0)))]
    built = 0
    for sc, lattice in cases:
        witness = find_ns_witness(sc)
        proto = _outcome(construct_protocol, sc, witness, lattice)
        assert proto == _outcome(_oracle_construct, sc, witness, lattice)
        built += isinstance(proto, SignallingProtocol)
    assert built >= 14
