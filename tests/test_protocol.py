"""Signalling protocol construction, audit, simulation, paradox loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
from causal_lab.conditions import find_ns_witness, make_abc_scenario
from causal_lab.protocol import (ABC_LATTICE, LatticeSpec, ProtocolSearchError,
                                 SignallingProtocol, audit_protocol,
                                 construct_protocol, find_single_sender,
                                 make_annulus_scenario, round_trip_check,
                                 simulate_signalling)
from causal_lab.region import Region
from causal_lab.spacetime import (BoostedFrame, Event, boost,
                                  causally_precedes, inverse,
                                  region_precedes_event)


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
    assert witness.covers(proto.C)


def test_single_sender_found_on_family():
    sc, proto = _abc_protocol()
    p = find_single_sender(sc, proto.q, ABC_LATTICE)
    assert p is not None
    assert not causally_precedes(p, proto.q, sc.cs)
    for x in sc.K.sample_points(ABC_LATTICE.cover_resolution):
        assert causally_precedes(p, Event(sc.s_time, tuple(x)), sc.cs)


def test_annulus_needs_multiple_senders():
    sc, lattice = make_annulus_scenario()
    witness = find_ns_witness(sc)
    proto = construct_protocol(sc, witness, lattice)
    assert len(proto.senders) > 1
    assert audit_protocol(proto, sc, lattice.cover_resolution) == []
    assert find_single_sender(sc, proto.q, lattice) is None


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
