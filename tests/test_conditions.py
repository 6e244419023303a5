"""Scenario validation, the four condition checkers, and the family table."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import helpers
from causal_lab import conditions, measure, spacetime, transport
from causal_lab.conditions import (TRUTH_TABLE_SAMPLES, MeasurementScenario,
                                   check_a1, check_a2, check_ce, check_ns,
                                   evaluate_conditions, find_ns_witness,
                                   make_abc_scenario, ns_gap_support,
                                   truth_table, validate)
from causal_lab.measure import SliceMeasure, mixture
from causal_lab.protocol import (ABC_LATTICE, audit_protocol,
                                 construct_protocol, make_annulus_scenario)
from causal_lab.region import Region
from causal_lab.spacetime import CausalStructure, SliceFuture, cone_radius


def test_valid_family_scenario_passes():
    assert validate(make_abc_scenario(1.0, 1.0, 1.0)) == []
    assert validate(make_abc_scenario(0.3, 0.7, 0.2)) == []


@pytest.mark.parametrize("seed", range(5))
def test_random_family_scenarios_validate(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        a, b, c = rng.random(3)
        assert validate(make_abc_scenario(a, b, c)) == []


def test_validate_flags_wrong_detection_probability():
    sc = make_abc_scenario(0.5, 0.5, 0.5)
    bad = replace(sc, p_plus=0.25)
    msgs = validate(bad)
    assert any("detection probability" in m for m in msgs)


def test_validate_flags_broken_mixture():
    sc = make_abc_scenario(0.2, 1.0, 0.0)
    bad = replace(sc, nu1=sc.nu0)
    msgs = validate(bad)
    assert any("total probability" in m for m in msgs)


def test_validate_flags_slice_disorder():
    sc = make_abc_scenario(0.5, 0.5, 0.5)
    late_mu = SliceMeasure.from_atoms(2.0, list(sc.mu.atoms))
    msgs = validate(replace(sc, mu=late_mu))
    assert any("slice ordering" in m for m in msgs)


def test_validate_flags_unnormalized_measure():
    sc = make_abc_scenario(0.5, 0.5, 0.5)
    msgs = validate(replace(sc, nu0=sc.nu0.scaled(0.5)))
    assert any("normalization" in m for m in msgs)


def test_checkers_return_plain_booleans():
    sc = make_abc_scenario(1.0, 1.0, 1.0)
    assert check_ns(sc) is True
    assert check_a1(sc) is True
    assert check_a2(sc) is True
    sc = make_abc_scenario(0.0, 0.0, 1.0)
    assert check_ns(sc) is False
    assert check_a1(sc) is False
    assert check_a2(sc) is False


@pytest.mark.parametrize("mode", helpers.ABC_MODES)
@pytest.mark.parametrize("seed", range(3))
def test_family_algebra_predicts_checkers(mode, seed):
    rng = np.random.default_rng(10 * seed + 1)
    for _ in range(40):
        a, b, c = helpers.random_abc_triple(rng, mode)
        predicted = helpers.predicted_abc_flags(a, b, c)
        if mode == "uniform" and min(abs(2 * a - (b + c)), abs(b - 1),
                                     abs(2 * a - 1 - c), abs(2 * a - 1)) < 1e-6:
            continue  # knife edge, tolerance may legitimately flip it
        sc = make_abc_scenario(a, b, c)
        rep = evaluate_conditions(sc)
        assert (rep.ce, rep.ns, rep.a1, rep.a2) == predicted
        assert rep.diagnostics == ()


def test_exact_rational_family_flags():
    sc = make_abc_scenario(Fraction(2, 3), Fraction(1, 3), Fraction(1),
                           exact=True)
    rep = evaluate_conditions(sc)
    assert (rep.ns, rep.a1, rep.a2, rep.ce) == (True, False, False, True)
    sc = make_abc_scenario(Fraction(1, 2), Fraction(1), Fraction(0),
                           exact=True)
    rep = evaluate_conditions(sc)
    assert (rep.ns, rep.a1, rep.a2, rep.ce) == (True, True, True, True)


def test_exact_mode_has_zero_tolerance():
    eps = Fraction(1, 10**18)
    sc = make_abc_scenario(Fraction(1, 2) - eps, Fraction(1), Fraction(0),
                           exact=True)
    rep = evaluate_conditions(sc)
    assert not rep.ce and not rep.ns
    # same triple in float collapses onto the satisfied boundary
    rep_f = evaluate_conditions(make_abc_scenario(0.5, 1.0, 0.0))
    assert rep_f.ce and rep_f.ns


def test_truth_table_rows_and_erratum():
    rows = truth_table()
    assert len(rows) == 8
    assert all(r["matches"] for r in rows)
    assert sum(len(r["samples"]) for r in rows) == 9  # one row lists two
    flagged = [r for r in rows if r.get("erratum")]
    assert len(flagged) == 1
    assert flagged[0]["row"] == 4
    err = flagged[0]["erratum"]
    assert err["claimed_sample"] == ["2/3", "1/3", "0"]
    assert err["corrected_sample"] == ["2/3", "1/3", "1"]
    assert flagged[0]["samples"] == [["2/3", "1/3", "1"]]
    # the claimed sample really does break its own row: 2A != B + C
    a, b, c = Fraction(2, 3), Fraction(1, 3), Fraction(0)
    assert 2 * a != b + c


def test_truth_table_flag_patterns_are_distinct():
    rows = truth_table()
    patterns = {(r["ns"], r["a1"], r["a2"], r["ce"]) for r in rows}
    assert len(patterns) == 8


def test_vacuous_positive_branch():
    # all initial mass outside K: a positive detection has probability 0
    cs = CausalStructure(dim=1, c=1.0)
    K = Region.interval(-0.25, 0.25)
    mu = SliceMeasure.from_atoms(0.0, [((1.5,), 1.0)])
    post = SliceMeasure.from_atoms(1.0, [((2.0,), 1.0)])
    sc = MeasurementScenario(cs=cs, K=K, mu=mu, nu0=post, nu1=post,
                             nu_plus=post, nu_minus=post, p_plus=0.0)
    assert validate(sc) == []
    rep = evaluate_conditions(sc)
    assert rep.a1 and rep.a1_vacuous
    assert not rep.a2_vacuous
    assert rep.diagnostics == ()


def test_vacuous_negative_branch():
    cs = CausalStructure(dim=1, c=1.0)
    K = Region.interval(-1.0, 1.0)
    mu = SliceMeasure.from_atoms(0.0, [((0.0,), 1.0)])
    post = SliceMeasure.from_atoms(1.0, [((0.5,), 1.0)])
    sc = MeasurementScenario(cs=cs, K=K, mu=mu, nu0=post, nu1=post,
                             nu_plus=post, nu_minus=post, p_plus=1.0)
    assert validate(sc) == []
    rep = evaluate_conditions(sc)
    assert rep.a2 and rep.a2_vacuous
    assert not rep.a1_vacuous


_EXACTLY_TWO = ("logic: exactly two of the marginal/outcome conditions hold "
                "(ns=True, a1=True, a2=False); two should force the third")
_A2_BUT_NOT_CE = ("logic: negative-outcome update holds but the ordering "
                  "inequality fails at the detector region")
_TWO_BUT_NOT_CE = ("logic: two outcome conditions hold but the ordering "
                   "inequality fails at the detector region")


@pytest.mark.parametrize("weights, messages", [
    ((0, 0, 1, 0, 0, "1/4"), (_EXACTLY_TWO,)),
    (("1/4", 0, 0, 0, 0, 0), (_A2_BUT_NOT_CE,)),
    (("1/4", 0, 1, 0, 0, "1/4"), (_EXACTLY_TWO, _TWO_BUT_NOT_CE)),
], ids=["exactly_two", "a2_but_not_ce", "two_but_not_ce"])
def test_logic_diagnostics_fire_on_inconsistent_scenarios(weights, messages,
                                                         tmp_path, capsys):
    # the two-atom geometry: mu = m d0 + (1 - m) d1.5, each late measure
    # w d0.9 + (1 - w) d2.2, K = [-1/4, 1/4]; weights lists (m, w of nu0,
    # nu_plus, nu_minus, nu1, p_plus)
    import json

    from causal_lab.cli import main

    m, *late, p_plus = (Fraction(v) for v in weights)

    def atoms(w, near, far):
        return [[*near, w], [*far, 1 - w]]

    measures = {"mu": {"time": 0.0, "atoms": atoms(m, (0.0,), (1.5,))}}
    for name, w in zip(("nu0", "nup", "num", "nu1"), late):
        measures[name] = {"time": 1.0, "atoms": atoms(w, (0.9,), (2.2,))}
    parsed = {name: SliceMeasure.from_atoms(
        e["time"], [((x,), w) for x, w in e["atoms"]])
        for name, e in measures.items()}
    sc = MeasurementScenario(
        cs=CausalStructure(dim=1, c=1.0), K=Region.interval(-0.25, 0.25),
        mu=parsed["mu"], nu0=parsed["nu0"], nu1=parsed["nu1"],
        nu_plus=parsed["nup"], nu_minus=parsed["num"], p_plus=p_plus)
    assert sc.exact
    with pytest.warns(RuntimeWarning) as record:
        rep = evaluate_conditions(sc)
    assert rep.diagnostics == messages
    assert tuple(str(w.message) for w in record) == messages

    path = tmp_path / "inconsistent.json"
    path.write_text(json.dumps({
        "spacetime": {"dim": 1, "c": 1.0},
        "measures": {name: {"time": e["time"],
                            "atoms": [[x, str(w)] for x, w in e["atoms"]]}
                     for name, e in measures.items()},
        "measurement": {"K": [[[-0.25], [0.25]]], "p_plus": str(p_plus),
                        "mu": "mu", "nu0": "nu0", "nu1": "nu1",
                        "nu_plus": "nup", "nu_minus": "num"}}))
    with pytest.warns(RuntimeWarning):
        code = main(["check", "all", "--exact-rational", "--scenario",
                     str(path)])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["result"]["diagnostics"] == list(messages)


def test_ns_witness_absent_when_marginals_agree():
    assert find_ns_witness(make_abc_scenario(1.0, 1.0, 1.0)) is None
    assert find_ns_witness(make_abc_scenario(0.5, 0.6, 0.4)) is None


@pytest.mark.parametrize("seed", range(4))
def test_ns_witness_strict_on_family(seed):
    rng = np.random.default_rng(40 + seed)
    for _ in range(30):
        a = float(rng.uniform(0, 0.4999))
        c = float(rng.random())
        sc = make_abc_scenario(a, 1.0, c)
        w = find_ns_witness(sc)
        assert w is not None
        assert float(sc.nu1.mass(w)) < float(sc.nu0.mass(w))
        # the witness stays clear of the detector future
        future = helpers.future_region(sc)
        assert not helpers.oracle_covers(future, w) or w.is_empty
        for box in w.boxes:
            assert not future.contains(box[0])


def test_ns_gap_support_grid():
    rng = np.random.default_rng(3)
    sc, _ = helpers.random_grid_scenario(rng, "break")
    pts, gaps = ns_gap_support(sc)
    jk = helpers.future_region(sc)
    for p, g in zip(pts, gaps):
        assert not jk.contains(tuple(p))
        assert g > 0


@pytest.mark.parametrize("mode", helpers.GRID_MODES)
def test_grid_scenarios_validate_and_meet_expectations(mode):
    rng = np.random.default_rng(hash(mode) % 2**32)
    for _ in range(12):
        sc, expected = helpers.random_grid_scenario(rng, mode)
        assert validate(sc) == []
        rep = evaluate_conditions(sc)
        assert rep.diagnostics == ()
        for name, want in expected.items():
            assert getattr(rep, name) == want, (mode, name)


def test_check_ce_method_dispatch():
    sc = make_abc_scenario(0.2, 1.0, 0.4)
    vb = check_ce(sc, "bruteforce")
    vm = check_ce(sc, "maxflow")
    va = check_ce(sc, "auto")
    assert vb.holds == vm.holds == va.holds is False
    assert va.method == "maxflow"  # auto is max-flow, whatever the size
    assert abs(float(vb.deficit) - float(vm.deficit)) <= 1e-12
    with pytest.raises(ValueError):
        check_ce(sc, "simplex")


def _random_ce_scenario(rng, dim, exact):
    """Seeded atomic scenario for the ordering check, 1 to 14 atoms a side.

    Atoms sit on a lattice of spacing 1/2 and the cone radius is a whole
    number of half steps, so targets tie with the cone's rim; only mu and
    nu0 matter to the ordering check.
    """
    cs = CausalStructure(dim=dim, c=float(rng.choice([0.5, 1.0, 2.0])))
    dt = float(rng.integers(0, 4)) * 0.5 / cs.c

    def atoms(time, gain):
        n = int(rng.integers(1, 15))
        side = {1: 15, 2: 7, 3: 5}[dim]
        cells = rng.choice(side ** dim, n, replace=False)
        pos = (np.stack(np.unravel_index(cells, (side,) * dim), 1)
               - side // 2) * 0.5
        raw = gain * rng.integers(0, 9, n) * (rng.random(n) > 0.2)
        w = ([Fraction(int(v), 24) for v in raw] if exact
             else (raw * rng.random(n)).tolist())
        return SliceMeasure.from_atoms(time, zip(pos.tolist(), w), dim)

    mu, nu = atoms(0.0, 1), atoms(dt, int(rng.integers(1, 4)))
    K = Region.point_boxes([mu.atoms[0][0]], dim)
    return MeasurementScenario(cs, K, mu, nu, nu, nu, nu, 0)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_auto_matches_bruteforce_oracle(seed, dim, exact):
    rng = np.random.default_rng([seed, dim, exact])
    for _ in range(4):
        sc = _random_ce_scenario(rng, dim, exact)
        va = check_ce(sc, "auto")
        vb = transport.check_ce_bruteforce(sc.mu, sc.nu0, sc.cs)
        assert va.method == "maxflow"
        helpers.assert_same_verdict(va, vb)
        assert isinstance(va.deficit, Fraction) == exact
        if not va.holds:
            again = transport.recompute_deficit(sc.mu, sc.nu0, va.worst_set,
                                                sc.cs)
            if exact:
                assert again == va.deficit
            else:
                assert abs(again - va.deficit) <= 1e-12


def test_grid_scenario_uses_maxflow_automatically():
    rng = np.random.default_rng(9)
    sc, _ = helpers.random_grid_scenario(rng, "generic")
    assert check_ce(sc, "auto").method == "maxflow"


def test_scenario_times_and_future():
    sc = make_abc_scenario(0.5, 0.5, 0.5)
    assert sc.s_time == 0.0 and sc.t_time == 1.0
    reach = cone_radius(1.0, sc.cs)
    assert helpers.future_region(sc).boxes == (((-0.25 - reach,),
                                                (0.25 + reach,)),)


def test_family_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_abc_scenario(1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        make_abc_scenario(0.5, -0.1, 0.0)


# -- the verdict path asks the future test, never the built region ----------


def _oracle_in_future(sc, points):
    """Detector-future membership asked point by point: with `contains` on
    the built region in d = 1; in d >= 2, where no box region holds the
    future, with math.dist from the point to its clamp into each box of K
    against `cone_radius`."""
    pts = np.asarray(points, dtype=float).reshape(-1, sc.K.dim).tolist()
    if sc.K.dim == 1:
        jk = helpers.future_region(sc)
        return np.array([jk.contains(tuple(p)) for p in pts], dtype=bool)
    reach = cone_radius(sc.t_time - sc.s_time, sc.cs)
    return np.array([
        any(math.dist(p, [min(max(x, a), b) for a, b, x in zip(lo, hi, p)])
            <= reach for lo, hi in sc.K.boxes) for p in pts], dtype=bool)


class _LoopFuture:
    """Stands in for `SliceFuture`, asking `_oracle_in_future`."""

    def __init__(self, sc):
        self.sc = sc
        self.dim = sc.K.dim

    def contains_points(self, points):
        return _oracle_in_future(self.sc, points)


def _no_future_region(region, dt, cs):
    raise AssertionError("the verdict path built the detector future")


def _forbid_future_region(m):
    """Make building the future as a region fail, by either name."""
    for module in (conditions, spacetime):
        m.setattr(module, "causal_future_on_slice", _no_future_region)


def _verdict_summary(sc):
    rep = evaluate_conditions(sc)
    wit = rep.witnesses
    # the ordering verdict's deficit and worst set live in ce_verdict only
    assert set(wit) == {"ns_distance", "ns_witness", "a1_future_mass",
                        "a2_distance"}
    values = (wit["ns_distance"], wit["a1_future_mass"], wit["a2_distance"],
              rep.ce_verdict.deficit)
    witnesses = (wit["ns_witness"], find_ns_witness(sc))
    return (rep.as_flags(), rep.a1_vacuous, rep.a2_vacuous, rep.diagnostics,
            values, tuple(type(v) for v in values),
            tuple(None if w is None else w.boxes for w in witnesses))


def _oracle_ns_gap_support(sc):
    """`ns_gap_support` as it was, asking the future atom by atom."""
    outside = ~_oracle_in_future(sc, sc.nu0.positions)
    if sc.nu0.is_grid:
        pos = sc.nu0.positions
        gaps = sc.nu0.weights_flat - sc.nu1.weights_flat
        idx = np.nonzero(outside & (gaps > 0))[0]
        return idx, pos[idx], gaps[idx]
    w1 = {p: w for p, w in sc.nu1.atoms}
    idx, pts, gaps = [], [], []
    for i, ((p, w0), off) in enumerate(zip(sc.nu0.atoms, outside.tolist())):
        if not off:
            continue
        g = w0 - w1.get(p, 0)
        if g > 0:
            idx.append(i)
            pts.append(p)
            gaps.append(g)
    return (np.asarray(idx, dtype=int),
            np.asarray(pts, dtype=float).reshape(-1, sc.nu0.dim), gaps)


def _same_gap_support(got, want, nu0):
    """`ns_gap_support`'s (positions, gaps) against the oracle's (indices
    into nu0's support, positions, gaps)."""
    (gp, gg), (wi, wp, wg) = got, want
    assert np.array_equal(gp, wp) and np.array_equal(gp, nu0.positions[wi])
    if isinstance(wg, np.ndarray):
        assert np.array_equal(gg, wg)
    else:
        assert gg == wg and [type(g) for g in gg] == [type(g) for g in wg]


def _ask_point_loop(m):
    """Make the checks ask the future point by point (`_oracle_in_future`)."""
    m.setattr(MeasurementScenario, "_in_future",
              property(lambda sc: _LoopFuture(sc)))


def _oracle_summary(monkeypatch, build):
    with monkeypatch.context() as m:
        _ask_point_loop(m)
        return _verdict_summary(build())


def _scenario_builders():
    builders = [lambda s=s: make_annulus_scenario(s)[0] for s in (16, 32, 64)]
    for mode in helpers.GRID_MODES:
        rng = np.random.default_rng([hash(mode) % 2**32, 5])
        for _ in range(3):
            sc, _ = helpers.random_grid_scenario(rng, mode)
            builders.append(lambda sc=sc: replace(sc))
    for mode in helpers.ABC_MODES:
        rng = np.random.default_rng([hash(mode) % 2**32, 6])
        for _ in range(3):
            trip = helpers.random_abc_triple(rng, mode)
            builders.append(lambda t=trip: make_abc_scenario(*t))
    for trip in (samples[0] for samples in TRUTH_TABLE_SAMPLES):
        builders.append(lambda t=trip: make_abc_scenario(*t, exact=True))
    builders.append(lambda: helpers.cone_corner_scenario()[0])
    return builders


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verdict_path_never_builds_future_region(monkeypatch):
    exact = witnessed = dropped = 0
    builders = _scenario_builders()
    for build in builders:
        want = _oracle_summary(monkeypatch, build)
        want_gaps = _oracle_ns_gap_support(build())
        with monkeypatch.context() as m:
            _forbid_future_region(m)
            got = _verdict_summary(build())
            got_gaps = ns_gap_support(build())
        assert got == want
        _same_gap_support(got_gaps, want_gaps, build().nu0)
        dropped += len(build().nu0.positions) - len(got_gaps[0])
        witnessed += got[-1][0] is not None
        if build().exact:
            exact += 1
            assert all(t is Fraction for t in got[5])
    assert exact == len(TRUTH_TABLE_SAMPLES)
    assert 0 < witnessed < len(builders) and dropped > 0


@pytest.mark.parametrize("segments", [16, 32, 64])
def test_protocol_never_builds_future_region(segments, monkeypatch):
    def protocol():
        sc, lattice = make_annulus_scenario(segments)
        proto = construct_protocol(sc, find_ns_witness(sc), lattice)
        return (proto.C.boxes, proto.q, proto.senders, proto.channel_gap)

    with monkeypatch.context() as m:
        _ask_point_loop(m)
        want = protocol()
    _forbid_future_region(monkeypatch)
    assert protocol() == want


@pytest.mark.parametrize("build", [
    lambda: (make_abc_scenario(0, 1, 1), ABC_LATTICE),
    lambda: make_annulus_scenario(64),
], ids=["two_atom", "annulus_64"])
def test_ns_readers_merge_nu0_with_nu1_once(build, monkeypatch):
    # the ns distance, the witness and the protocol's readout gaps all read
    # the scenario's one table of nu0 - nu1
    merges = []
    aligned_diffs = measure._aligned_diffs

    def spy(m1, m2):
        merges.append({id(m1), id(m2)})
        return aligned_diffs(m1, m2)

    monkeypatch.setattr(measure, "_aligned_diffs", spy)
    monkeypatch.setattr(conditions, "_aligned_diffs", spy)
    sc, lattice = build()
    rep = evaluate_conditions(sc)
    witness = find_ns_witness(sc)
    proto = construct_protocol(sc, witness, lattice)
    assert not rep.ns and rep.witnesses["ns_witness"] == witness
    assert proto.channel_gap > 0
    assert merges.count({id(sc.nu0), id(sc.nu1)}) == 1


def test_cli_check_all_never_builds_future_region(tmp_path, capsys,
                                                  monkeypatch):
    import json

    from causal_lab.cli import main

    sc, _ = make_annulus_scenario(32)
    atoms = {name: {"time": m.time,
                    "atoms": [list(p) + [float(w)] for p, w in m.atoms]}
             for name, m in (("mu", sc.mu), ("nu0", sc.nu0), ("nu1", sc.nu1),
                             ("nup", sc.nu_plus), ("num", sc.nu_minus))}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({
        "spacetime": {"dim": 2, "c": 1.0},
        "measures": atoms,
        "measurement": {"K": sc.K.to_json(), "p_plus": 1.0, "mu": "mu",
                        "nu0": "nu0", "nu1": "nu1", "nu_plus": "nup",
                        "nu_minus": "num"}}))

    def check_all():
        code = main(["check", "all", "--scenario", str(path)])
        rec = json.loads(capsys.readouterr().out)
        rec.pop("wall_clock_s")
        return code, rec

    with monkeypatch.context() as m:
        _ask_point_loop(m)
        want = check_all()
    _forbid_future_region(monkeypatch)
    got = check_all()
    assert got == want
    assert got[1]["result"]["ns"] is False
    assert got[1]["result"]["ns_witness"]


def test_ns_sees_a_loss_in_the_corner_of_the_box_dilation():
    # the atom at (0.9, 0.9) is within c*dt of K on each axis, so a box
    # dilation of K held it and hid the loss; the cone does not hold it
    sc, lattice = helpers.cone_corner_scenario()
    assert validate(sc) == []
    assert not check_ns(sc)
    rep = evaluate_conditions(sc)
    assert rep.as_flags() == (False, True, False, True)
    assert rep.witnesses["ns_distance"] == pytest.approx(0.25)
    witness = rep.witnesses["ns_witness"]
    assert witness.contains((0.9, 0.9))
    with pytest.raises(ValueError, match="not a box region"):
        helpers.future_region(sc)
    proto = construct_protocol(sc, witness, lattice)
    assert proto.channel_gap == pytest.approx(0.25)
    pts = sc.K.sample_points(lattice.cover_resolution)
    assert audit_protocol(proto, sc, pts) == []


def _rim_loss_scenario(dim):
    """K = [-0.25, 0.25] (a segment in d = 2), dt = c = 1, and nu1 losing
    0.2 at 1.25 + 1e-13: inside the cone radius c*(dt + slack) of K's end,
    so no receiver outside the future of K can see the loss."""
    pad = (0.0,) * (dim - 1)
    cs = CausalStructure(dim=dim, c=1.0)

    def post(w_rim):
        return SliceMeasure.from_atoms(1.0, [((1.25 + 1e-13,) + pad, w_rim),
                                             ((0.5,) + pad, 1.0 - w_rim)])

    nu0, plus, minus = post(0.6), post(0.5), post(0.3)
    return MeasurementScenario(
        cs=cs, K=Region.from_boxes([((-0.25,) + pad, (0.25,) + pad)]),
        mu=SliceMeasure.from_atoms(0.0, [((0.0,) + pad, 1.0)]), nu0=nu0,
        nu1=mixture(0.5, plus, minus), nu_plus=plus, nu_minus=minus,
        p_plus=0.5)


def test_ns_on_the_rim_is_the_same_in_d1_and_d2():
    verdicts = []
    for dim in (1, 2):
        sc = _rim_loss_scenario(dim)
        assert sc._in_future.contains_points(sc.nu0.positions).all()
        verdicts.append((check_ns(sc), find_ns_witness(sc)))
    assert verdicts == [(True, None), (True, None)]


@pytest.mark.parametrize("grid", [False, True], ids=["atoms", "grid"])
def test_a2_rejects_a_nu0_weight_the_scale_overflows(grid):
    # nu0 / (1 - p_plus) with a weight of 1e308 and p_plus 0.5 is inf
    if grid:
        sc, _ = helpers.random_grid_scenario(np.random.default_rng(3))
        w = sc.nu0.grid_weights.copy()
        w[0] = 1e308
        nu0 = SliceMeasure.from_grid(sc.t_time, sc.nu0.grid_origin,
                                     sc.nu0.grid_cell, w)
        sc, message = replace(sc, nu0=nu0, p_plus=0.5), "grid weights must"
    else:
        sc = make_abc_scenario(0.5, 1.0, 0.0)
        nu0 = SliceMeasure.from_atoms(sc.t_time, [((0.9,), 1e308),
                                                  ((2.2,), 0.5)])
        sc, message = replace(sc, nu0=nu0), "weights must"
    for check in (check_a2, evaluate_conditions):
        with pytest.raises(ValueError, match=message):
            check(sc)
    # an exact scale never overflows
    big = SliceMeasure.from_atoms(1.0, [((0.9,), Fraction(10) ** 400),
                                        ((2.2,), Fraction(1, 2))])
    exact = replace(make_abc_scenario(Fraction(1, 2), 1, 0, exact=True),
                    nu0=big)
    assert check_a2(exact) is True


# -- one detector-future table per scenario ----------------------------------

def _bits(value):
    """A check's result as its exact spelling: bool, int, float and
    Fraction values compare by type and repr, so -0.0 is not 0.0."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return type(value), repr(value)


def _table_details(sc):
    out = {}
    for name in ("_ns_detail", "_a1_detail", "_a2_detail",
                 "_ce_at_detector"):
        try:
            out[name] = getattr(conditions, name)(sc)
        except ValueError as exc:
            out[name] = ("raises", type(exc), str(exc))
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_future_table_matches_per_check_passes():
    # each check reads its measure's mask from the scenario's one table;
    # every flag and distance must equal, bit for bit, what a pass of its
    # own over its own support gave
    seen = dict.fromkeys(helpers.SUPPORT_KINDS, 0)
    raised = exact = 0
    for seed in range(400):
        kind = helpers.SUPPORT_KINDS[seed % len(helpers.SUPPORT_KINDS)]
        sc = helpers.random_support_scenario(
            np.random.default_rng([seed, 28]), kind)
        want = helpers.per_check_details(replace(sc))
        got = _table_details(replace(sc))
        assert _bits(got) == _bits(want), (seed, kind)
        seen[kind] += 1
        raised += any(v[0] == "raises" for v in got.values()
                      if isinstance(v, tuple))
        exact += sc.exact
    assert min(seen.values()) == 400 // len(helpers.SUPPORT_KINDS)
    assert raised >= 400 // len(helpers.SUPPORT_KINDS) and exact > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_future_pass_per_evaluation(monkeypatch):
    calls = []
    contains = SliceFuture.contains_points

    def counted(future, points):
        calls.append(len(points))
        return contains(future, points)

    def passes(sc):
        calls.clear()
        evaluate_conditions(sc)
        return len(calls)

    monkeypatch.setattr(SliceFuture, "contains_points", counted)
    rng = np.random.default_rng(28)
    shared = [make_abc_scenario(0.0, 1.0, 1.0),
              make_abc_scenario(Fraction(1, 3), 1, 0, exact=True),
              helpers.random_grid_scenario(rng)[0],
              helpers.random_support_scenario(rng, "grid_2d"),
              make_annulus_scenario(64)[0],
              helpers.cone_corner_scenario()[0]]
    for _ in range(6):
        shared.append(helpers.random_support_scenario(rng, "atoms"))
    for sc in shared:
        assert passes(sc) == 1
    # a measure the table does not cover takes one pass of its own
    for kind in ("other_grid", "atoms_beside_grid"):
        sc = helpers.random_support_scenario(rng, kind)
        assert passes(sc) == 2
