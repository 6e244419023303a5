"""Scenario validation, the four condition checkers, and the family table."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import helpers
from causal_lab.conditions import (TRUTH_TABLE_SAMPLES, MeasurementScenario,
                                   check_a1, check_a2, check_ce, check_ns,
                                   evaluate_conditions, find_ns_witness,
                                   make_abc_scenario, ns_gap_support,
                                   truth_table, validate)
from causal_lab.measure import SliceMeasure, mixture
from causal_lab.protocol import construct_protocol, make_annulus_scenario
from causal_lab.region import Region
from causal_lab.spacetime import CausalStructure


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
        assert not sc.detector_future.covers(w) or w.is_empty
        for box in w.boxes:
            assert not sc.detector_future.contains(box[0])


def test_ns_gap_support_grid():
    rng = np.random.default_rng(3)
    sc, _ = helpers.random_grid_scenario(rng, "break")
    idx, pts, gaps = ns_gap_support(sc)
    jk = sc.detector_future
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
    assert va.method == "bruteforce"  # two atoms stay under the cap
    assert abs(float(vb.deficit) - float(vm.deficit)) <= 1e-12
    with pytest.raises(ValueError):
        check_ce(sc, "simplex")


def test_grid_scenario_uses_maxflow_automatically():
    rng = np.random.default_rng(9)
    sc, _ = helpers.random_grid_scenario(rng, "generic")
    assert check_ce(sc, "auto").method == "maxflow"


def test_scenario_times_and_future():
    sc = make_abc_scenario(0.5, 0.5, 0.5)
    assert sc.s_time == 0.0 and sc.t_time == 1.0
    bb = sc.detector_future.bounding_box()
    assert bb == ((-1.25,), (1.25,))


def test_family_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_abc_scenario(1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        make_abc_scenario(0.5, -0.1, 0.0)


# -- the verdict path asks the future test, never the built region ----------


class _LoopRegion:
    """The detector-future region asked point by point with `contains`, as
    the checks asked it before they used the future test."""

    def __init__(self, region):
        self.region = region
        self.dim = region.dim

    def contains_points(self, points):
        pts = np.asarray(points, dtype=float).reshape(-1, self.dim)
        return np.array([self.region.contains(tuple(p)) for p in pts],
                        dtype=bool)


def _no_expand(self, radius):
    raise AssertionError("the verdict path built the dilated region")


def _verdict_summary(sc):
    rep = evaluate_conditions(sc)
    wit = rep.witnesses
    values = (wit["ns_distance"], wit["a1_future_mass"], wit["a2_distance"],
              rep.ce_verdict.deficit)
    witnesses = (wit["ns_witness"], find_ns_witness(sc))
    return (rep.as_flags(), rep.a1_vacuous, rep.a2_vacuous, rep.diagnostics,
            values, tuple(type(v) for v in values),
            tuple(None if w is None else w.boxes for w in witnesses))


def _oracle_ns_gap_support(sc):
    """`ns_gap_support` as it was, asking the built region atom by atom."""
    jk = sc.detector_future
    if sc.nu0.is_grid:
        pos = sc.nu0.positions
        gaps = sc.nu0.weights_flat - sc.nu1.weights_flat
        outside = ~jk.contains_points(pos)
        idx = np.nonzero(outside & (gaps > 0))[0]
        return idx, pos[idx], gaps[idx]
    w1 = {p: w for p, w in sc.nu1.atoms}
    idx, pts, gaps = [], [], []
    for i, (p, w0) in enumerate(sc.nu0.atoms):
        if jk.contains(p):
            continue
        g = w0 - w1.get(p, 0)
        if g > 0:
            idx.append(i)
            pts.append(p)
            gaps.append(g)
    return (np.asarray(idx, dtype=int),
            np.asarray(pts, dtype=float).reshape(-1, sc.nu0.dim), gaps)


def _same_gap_support(got, want):
    (gi, gp, gg), (wi, wp, wg) = got, want
    assert np.array_equal(gi, wi) and np.array_equal(gp, wp)
    if isinstance(wg, np.ndarray):
        assert np.array_equal(gg, wg)
    else:
        assert gg == wg and [type(g) for g in gg] == [type(g) for g in wg]


def _ask_built_region(m):
    """Make the checks ask the built `detector_future`, point by point."""
    m.setattr(MeasurementScenario, "_in_future",
              property(lambda sc: _LoopRegion(sc.detector_future)))


def _oracle_summary(monkeypatch, build):
    with monkeypatch.context() as m:
        _ask_built_region(m)
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
    return builders


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verdict_path_never_builds_detector_future(monkeypatch):
    exact = witnessed = dropped = 0
    builders = _scenario_builders()
    for build in builders:
        want = _oracle_summary(monkeypatch, build)
        want_gaps = _oracle_ns_gap_support(build())
        with monkeypatch.context() as m:
            m.setattr(Region, "expand", _no_expand)
            got = _verdict_summary(build())
            got_gaps = ns_gap_support(build())
        assert got == want
        _same_gap_support(got_gaps, want_gaps)
        dropped += len(build().nu0.positions) - len(got_gaps[0])
        witnessed += got[-1][0] is not None
        if build().exact:
            exact += 1
            assert all(t is Fraction for t in got[5])
    assert exact == len(TRUTH_TABLE_SAMPLES)
    assert 0 < witnessed < len(builders) and dropped > 0


@pytest.mark.parametrize("segments", [16, 32, 64])
def test_protocol_never_builds_detector_future(segments, monkeypatch):
    def protocol():
        sc, lattice = make_annulus_scenario(segments)
        proto = construct_protocol(sc, find_ns_witness(sc), lattice)
        return (proto.C.boxes, proto.q, proto.senders, proto.channel_gap)

    with monkeypatch.context() as m:
        _ask_built_region(m)
        want = protocol()
    monkeypatch.setattr(Region, "expand", _no_expand)
    assert protocol() == want


def test_cli_check_all_never_builds_detector_future(tmp_path, capsys,
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
        _ask_built_region(m)
        want = check_all()
    monkeypatch.setattr(Region, "expand", _no_expand)
    got = check_all()
    assert got == want
    assert got[1]["result"]["ns"] is False
    assert got[1]["result"]["ns_witness"]
