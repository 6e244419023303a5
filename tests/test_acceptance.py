"""Acceptance gate: one test per criterion, timed, one line per verdict."""

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np

from helpers import GRID_MODES, dense_reach, random_abc_triple, \
    random_atomic_pair, random_grid_scenario
from causal_lab.conditions import (evaluate_conditions, find_ns_witness,
                                   make_abc_scenario, truth_table)
from causal_lab.protocol import (ABC_LATTICE, SignallingProtocol,
                                 _sender_reach, audit_protocol,
                                 construct_protocol, make_annulus_scenario,
                                 round_trip_check)
from causal_lab.quantum import (analytic_ce_gaussian, born_measure,
                                bump_spinor_packet, evolve_dirac_1p1,
                                evolve_relativistic, evolve_schrodinger_free,
                                gaussian_packet, min_violation_halfwidth)
from causal_lab.region import Region
from causal_lab.spacetime import (BoostedFrame, CausalStructure, Event, boost,
                                  causal_future_on_slice, causally_precedes,
                                  inverse, region_precedes_event)
from causal_lab.transport import (check_ce_bruteforce, check_ce_maxflow,
                                  recompute_deficit)

ELL = 1.0 + math.sqrt(2.0)  # natural-units violation halfwidth
CS1 = CausalStructure(dim=1, c=1.0)


def _finish(num: int, t0: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num:02d} took {elapsed:.2f}s " \
                             f"(budget {budget}s)"
    print(f"criterion {num:02d}: PASS ({detail}; {elapsed:.2f}s)")


def test_criterion_01_truth_table_exact():
    t0 = time.perf_counter()
    rows = truth_table()
    assert len(rows) == 8
    assert all(r["matches"] for r in rows)
    patterns = {(r["ns"], r["a1"], r["a2"], r["ce"]) for r in rows}
    assert len(patterns) == 8
    err = rows[3].get("erratum")
    assert err is not None
    assert err["claimed_sample"] == ["2/3", "1/3", "0"]
    assert err["corrected_sample"] == ["2/3", "1/3", "1"]
    _finish(1, t0, 1.0, "8 exact rows, corrected sample flagged")


def test_criterion_02_condition_logic_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    reports = []
    plan = [("uniform", 6000), ("ns", 1000), ("a1", 1000), ("a2", 1000),
            ("all", 500), ("corner", 500)]
    for mode, count in plan:
        for _ in range(count):
            a, b, c = random_abc_triple(rng, mode)
            reports.append(evaluate_conditions(make_abc_scenario(a, b, c)))
    n_grid = 1000
    for i in range(n_grid):
        sc, expected = random_grid_scenario(rng, GRID_MODES[i % len(GRID_MODES)])
        rep = evaluate_conditions(sc)
        for key, want in expected.items():
            assert getattr(rep, key) is want, (key, expected)
        reports.append(rep)
    two_true = 0
    for rep in reports:
        outcome_flags = (rep.ns, rep.a1, rep.a2)
        if sum(outcome_flags) == 2:
            two_true += 1
        if sum(outcome_flags) >= 2:
            assert rep.ce, "two outcome conditions without the ordering bound"
        if rep.a2:
            assert rep.ce, "confinement of the null branch must bound the flow"
        assert rep.diagnostics == ()
    assert two_true == 0
    _finish(2, t0, 30.0,
            f"{sum(c for _, c in plan)} family + {n_grid} lattice scenarios, "
            "0 exactly-two-true")


def test_criterion_03_witness_is_strict():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    for _ in range(1000):
        a = float(rng.uniform(0.0, 0.4999))
        c = float(rng.uniform(0.0, 1.0))
        sc = make_abc_scenario(a, 1.0, c)
        witness = find_ns_witness(sc)
        assert witness is not None
        exact = make_abc_scenario(Fraction(a), Fraction(1), Fraction(c))
        assert exact.nu1.mass(witness) < exact.nu0.mass(witness)
    _finish(3, t0, 30.0, "1000 gapped scenarios, strict exact-rational gap")


def test_criterion_04_solver_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    violated = 0
    for _ in range(200):
        mu, nu, cs = random_atomic_pair(rng)
        vb = check_ce_bruteforce(mu, nu, cs)
        vm = check_ce_maxflow(mu, nu, cs)
        assert vb.holds == vm.holds
        assert abs(float(vb.deficit) - float(vm.deficit)) <= 1e-9
        for v in (vb, vm):
            if not v.holds:
                again = recompute_deficit(mu, nu, v.worst_set, cs)
                assert abs(float(again) - float(v.deficit)) <= 1e-9
        violated += not vb.holds
    assert 0 < violated < 200  # both verdicts exercised
    _finish(4, t0, 10.0,
            f"200 instances, {violated} violations, deficits within 1e-9")


def test_criterion_05_asymptotic_scale():
    t0 = time.perf_counter()
    report = min_violation_halfwidth(1e-26, 1e-6, math.inf)
    assert 2.7e4 < report.ell_min_asymptotic < 3.1e4
    assert report.ell_min == report.ell_min_asymptotic
    reps = 200
    t1 = time.perf_counter()
    for _ in range(reps):
        min_violation_halfwidth(1e-26, 1e-6, math.inf)
    mean_s = (time.perf_counter() - t1) / reps
    assert mean_s < 1e-3
    _finish(5, t0, 5.0,
            f"asymptote {report.ell_min_asymptotic:.6g} m, "
            f"{mean_s * 1e6:.1f}us per call")


def test_criterion_06_grid_matches_analytic_threshold():
    t0 = time.perf_counter()
    n, origin = 4096, -24.0
    cell = 2 * abs(origin) / n
    assert cell <= ELL / 200
    psi0 = gaussian_packet(1.0, origin=origin, cell_size=cell, n=n)
    psi1 = evolve_schrodinger_free(psi0, 1.0)
    for psi in (psi0, psi1):
        assert float(psi.density[0] + psi.density[-1]) < 1e-12
    nu = born_measure(psi1, 1.0)
    verdicts = []
    for ratio in (0.5, 0.8, 1.2, 2.0):
        ell = ratio * ELL
        mu = born_measure(psi0, 0.0).restricted(Region.interval(-ell, ell))
        holds = check_ce_maxflow(mu, nu, CS1).holds
        assert holds == analytic_ce_gaussian(1.0, 1.0, 1.0, ell)
        verdicts.append(holds)
    assert verdicts == [True, True, False, False]
    _finish(6, t0, 60.0, "4 halfwidth ratios match the closed form")


def test_criterion_07_violation_is_physical_not_numerical():
    t0 = time.perf_counter()
    # relativistic control: strictly confined dynamics never leak
    spinor = bump_spinor_packet(center=0.0, halfwidth=1.0, origin=-32.0,
                                cell_size=0.0625, n=1024, mass=1.0)
    support = Region.interval(-1.0, 1.0)
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        born = born_measure(evolve_dirac_1p1(spinor, t), t)
        cone = causal_future_on_slice(support, t, CS1)
        mask = cone.contains_points(born.positions)
        leak = float(np.asarray(born.weights_flat)[~mask].sum())
        assert leak <= 1e-6, f"confined dynamics leaked {leak} at t={t}"

    # nonrelativistic deficit clears the discretization error by 10x
    ell = 1.5 * ELL
    deficits = {}
    for n in (4096, 8192):
        cell = 48.0 / n
        psi0 = gaussian_packet(1.0, origin=-24.0, cell_size=cell, n=n)
        mu = born_measure(psi0, 0.0).restricted(Region.interval(-ell, ell))
        nu = born_measure(evolve_schrodinger_free(psi0, 1.0), 1.0)
        verdict = check_ce_maxflow(mu, nu, CS1)
        assert not verdict.holds
        deficits[n] = float(verdict.deficit)
    a_star = 1.0 + math.sqrt(2.0 + math.log(2.0))
    closed_form = math.erf(a_star) - math.erf((a_star + 1.0) / math.sqrt(2.0))
    err_est = max(abs(deficits[4096] - deficits[8192]),
                  abs(deficits[4096] - closed_form))
    assert deficits[4096] > 10.0 * err_est
    _finish(7, t0, 60.0,
            f"confined leak <= 1e-6, deficit {deficits[4096]:.3e} "
            f"> 10 x {err_est:.3e}")


def _verify_protocol_clauses(sc, proto, resolution):
    cs = sc.cs
    for lo, hi in proto.C.boxes:
        for corner in (lo, hi):
            assert not region_precedes_event(
                sc.K, sc.s_time, Event(sc.t_time, corner), cs)
    assert float(sc.nu0.mass(proto.C)) - float(sc.nu1.mass(proto.C)) > 0
    for p in proto.senders:
        assert not causally_precedes(p, proto.q, cs)
    for x in sc.K.sample_points(resolution):
        target = Event(sc.s_time, tuple(x))
        assert any(causally_precedes(p, target, cs) for p in proto.senders)


def test_criterion_08_sender_counts():
    t0 = time.perf_counter()
    sc1 = make_abc_scenario(0.0, 1.0, 1.0)
    proto1 = construct_protocol(sc1, find_ns_witness(sc1), ABC_LATTICE)
    assert len(proto1.senders) == 1
    assert audit_protocol(proto1, sc1) == []
    _verify_protocol_clauses(sc1, proto1, ABC_LATTICE.cover_resolution)

    sc2, lat2 = make_annulus_scenario()
    proto2 = construct_protocol(sc2, find_ns_witness(sc2), lat2)
    assert len(proto2.senders) > 1
    assert audit_protocol(proto2, sc2, lat2.cover_resolution) == []
    _verify_protocol_clauses(sc2, proto2, lat2.cover_resolution)
    got = _sender_reach(sc2, proto2.q, lat2)
    assert not (got.eligible & dense_reach(got).all(axis=1)).any()

    # exhaustive: no lattice event both covers the ring and avoids q
    samples = [Event(sc2.s_time, tuple(x))
               for x in sc2.K.sample_points(lat2.cover_resolution)]
    axes = [np.linspace(lat2.p_lo[i], lat2.p_hi[i], lat2.p_points)
            for i in range(sc2.cs.dim)]
    for xs in product(*axes):
        p = Event(lat2.p_time, tuple(float(v) for v in xs))
        if causally_precedes(p, proto2.q, sc2.cs):
            continue
        assert not all(causally_precedes(p, s, sc2.cs) for s in samples)
    _finish(8, t0, 120.0,
            f"point source: 1 sender; ring source: {len(proto2.senders)} "
            "senders, single-sender cover exhaustively ruled out")


def test_criterion_09_unitarity_and_composition():
    t0 = time.perf_counter()
    grid = dict(origin=-32.0, cell_size=0.0625, n=1024)
    scalar = gaussian_packet(1.0, **grid)
    spinor = bump_spinor_packet(center=0.0, halfwidth=1.0, mass=1.0, **grid)
    engines = [(evolve_schrodinger_free, scalar),
               (evolve_relativistic, scalar),
               (evolve_dirac_1p1, spinor)]

    def l2_gap(p1, p2):
        if hasattr(p1, "amplitudes"):
            sq = np.abs(p1.amplitudes - p2.amplitudes) ** 2
        else:
            sq = (np.abs(p1.upper - p2.upper) ** 2
                  + np.abs(p1.lower - p2.lower) ** 2)
        return math.sqrt(float(np.sum(sq) * grid["cell_size"]))

    rng = np.random.default_rng(99)
    for _ in range(100):
        t1, t2 = (float(v) for v in rng.uniform(0.05, 1.2, 2))
        for evolve, psi0 in engines:
            stepped = evolve(evolve(psi0, t1), t2)
            direct = evolve(psi0, t1 + t2)
            assert abs(stepped.norm - 1.0) <= 1e-10
            assert abs(direct.norm - 1.0) <= 1e-10
            assert l2_gap(stepped, direct) <= 1e-10
    _finish(9, t0, 60.0, "100 random time splits x 3 propagators")


def test_criterion_10_frame_dependent_paradox():
    t0 = time.perf_counter()
    proto = SignallingProtocol(K=Region.interval(-0.25, 0.25),
                               C=Region.point_boxes([(2.2,)]),
                               q=Event.of(1.0, 2.0),
                               senders=(Event.of(0.0, 0.0),),
                               channel_gap=1.0)
    assert round_trip_check(proto, BoostedFrame(v=0.9), CS1)
    assert not round_trip_check(proto, BoostedFrame(v=0.0), CS1)
    # re-derive both certificates from the frame maps alone
    p, q = proto.senders[0], proto.q
    for v, expect in ((0.9, True), (0.0, False)):
        frame = BoostedFrame(v=v)
        q_mov = boost(q, frame, CS1)
        reply_mov = Event(q_mov.t + (q.t - p.t),
                          (q_mov.x[0] - (q.x[0] - p.x[0]),))
        reply = boost(reply_mov, inverse(frame), CS1)
        assert causally_precedes(reply, p, CS1) == expect
    _finish(10, t0, 10.0, "loop closes at v=0.9, stays open at v=0")
