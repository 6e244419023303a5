"""Wave packets, the three propagators, collapse, and scale formulas."""

import math

import numpy as np
import pytest

from causal_lab.conditions import evaluate_conditions, validate
from causal_lab.quantum import (NATURAL_UNITS, SI_UNITS, WavePacket,
                                analytic_ce_gaussian, born_measure,
                                bump_spinor_packet, collapse, dispersed_width,
                                evolve_dirac_1p1, evolve_relativistic,
                                evolve_schrodinger_free, gaussian_packet,
                                measurement_scenario_from_collapse,
                                min_violation_halfwidth)
from causal_lab.region import Region
from causal_lab.spacetime import CausalStructure, causal_future_on_slice

GRID = dict(origin=-32.0, cell_size=0.0625, n=1024)
ELL_NATURAL = 1 + math.sqrt(2)


def _l2_diff(a: WavePacket, b: WavePacket) -> float:
    return math.sqrt(float(np.sum(np.abs(a.amplitudes - b.amplitudes) ** 2)
                           * a.cell_size))


def test_gaussian_packet_normalized_and_centered():
    psi = gaussian_packet(1.0, x0=0.5, **GRID)
    assert psi.norm == pytest.approx(1.0, abs=1e-12)
    xs = psi.centers
    mean = float(np.sum(xs * psi.density) * psi.cell_size)
    assert mean == pytest.approx(0.5, abs=1e-9)


def test_gaussian_density_profile():
    lam = 1.25
    psi = gaussian_packet(lam, **GRID)
    xs = psi.centers
    expect = np.exp(-xs**2 / lam**2) / (lam * math.sqrt(math.pi))
    assert np.max(np.abs(psi.density - expect)) < 1e-12


def test_dispersed_width_matches_evolved_density():
    lam, t = 1.0, 1.0
    psi = evolve_schrodinger_free(gaussian_packet(lam, **GRID), t)
    lam_t = dispersed_width(lam, 1.0, t)
    assert lam_t == pytest.approx(math.sqrt(2.0))
    xs = psi.centers
    expect = np.exp(-xs**2 / lam_t**2) / (lam_t * math.sqrt(math.pi))
    assert np.max(np.abs(psi.density - expect)) < 1e-10


def test_momentum_kick_moves_packet():
    psi = gaussian_packet(1.0, k0=2.0, **GRID)
    out = evolve_schrodinger_free(psi, 1.0)
    xs = out.centers
    mean = float(np.sum(xs * out.density) * out.cell_size)
    assert mean == pytest.approx(2.0, abs=1e-6)  # group velocity hbar k / m


@pytest.mark.parametrize("seed", range(4))
def test_norm_and_group_property_all_engines(seed):
    rng = np.random.default_rng(seed)
    t1, t2 = rng.uniform(0.05, 1.2, size=2)
    psi = gaussian_packet(1.0, k0=0.4, **GRID)
    for evolve in (evolve_schrodinger_free, evolve_relativistic):
        a = evolve(evolve(psi, t1), t2)
        b = evolve(psi, t1 + t2)
        assert a.norm == pytest.approx(1.0, abs=1e-10)
        assert _l2_diff(a, b) < 1e-10
    spinor = bump_spinor_packet(center=0.0, halfwidth=1.0, mass=1.0,
                                units=NATURAL_UNITS, **GRID)
    a = evolve_dirac_1p1(evolve_dirac_1p1(spinor, t1), t2)
    b = evolve_dirac_1p1(spinor, t1 + t2)
    assert a.norm == pytest.approx(1.0, abs=1e-10)
    gap = math.sqrt(float(np.sum(np.abs(a.upper - b.upper) ** 2
                                 + np.abs(a.lower - b.lower) ** 2)
                          * a.cell_size))
    assert gap < 1e-10


def test_massless_drift_at_light_speed():
    # a right-moving massless packet translates by c*t
    psi = gaussian_packet(1.5, k0=8.0, mass=1.0, **GRID)
    psi = WavePacket(psi.amplitudes, psi.origin, psi.cell_size, 0.0, psi.units)
    t = 3.0
    out = evolve_relativistic(psi, t)
    xs = out.centers
    mean = float(np.sum(xs * out.density) * out.cell_size)
    assert abs(mean - NATURAL_UNITS.c * t) <= out.cell_size


def test_relativistic_engine_rejects_coarse_grid():
    psi = gaussian_packet(1.0, origin=-32.0, cell_size=2.0, n=32, mass=100.0)
    with pytest.raises(ValueError):
        evolve_relativistic(psi, 0.1)


def test_dirac_zero_time_is_identity():
    spinor = bump_spinor_packet(center=0.0, halfwidth=1.0, mass=1.0,
                                units=NATURAL_UNITS, **GRID)
    assert evolve_dirac_1p1(spinor, 0.0) is spinor


def test_dirac_initial_support_is_compact():
    spinor = bump_spinor_packet(center=0.0, halfwidth=1.0, mass=1.0,
                                units=NATURAL_UNITS, **GRID)
    xs = spinor.centers
    outside = np.abs(xs) > 1.0
    assert float(np.sum(spinor.density[outside])) == 0.0
    assert spinor.norm == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_dirac_mass_stays_in_light_cone(t):
    cs = CausalStructure(dim=1, c=1.0)
    spinor = bump_spinor_packet(center=0.0, halfwidth=1.0, mass=1.0,
                                units=NATURAL_UNITS, **GRID)
    out = evolve_dirac_1p1(spinor, t)
    born = born_measure(out, t)
    cone = causal_future_on_slice(Region.interval(-1, 1), t, cs)
    mask = cone.contains_points(born.positions)
    leak = float(np.asarray(born.weights_flat)[~mask].sum())
    assert leak <= 1e-6


def test_born_measure_shape_and_total():
    psi = gaussian_packet(1.0, **GRID)
    m = born_measure(psi, 0.0)
    assert m.is_grid and m.time == 0.0
    assert float(m.total) == pytest.approx(1.0, abs=1e-12)
    assert float(m.mass(Region.interval(-1, 1))) == pytest.approx(
        math.erf(1.0), rel=1e-3)


def test_collapse_projects_and_renormalizes():
    psi = gaussian_packet(1.0, **GRID)
    K = Region.interval(-0.5, 0.5)
    plus = collapse(psi, K, "+")
    minus = collapse(psi, K, "-")
    assert plus.norm == pytest.approx(1.0, abs=1e-12)
    assert minus.norm == pytest.approx(1.0, abs=1e-12)
    inside = K.contains_points(psi.centers)
    assert float(np.sum(plus.density[~inside])) == 0.0
    assert float(np.sum(minus.density[inside])) == 0.0
    overlap = float(np.abs(np.sum(np.conj(plus.amplitudes) * minus.amplitudes)))
    assert overlap == 0.0


def test_collapse_rejects_null_outcome():
    psi = gaussian_packet(1.0, **GRID)
    with pytest.raises(ValueError):
        collapse(psi, Region.interval(30.0, 31.0), "+")
    with pytest.raises(ValueError):
        collapse(psi, Region.interval(-0.5, 0.5), "up")


def test_collapse_scenario_valid_and_a1_exact_at_zero_dt():
    psi = gaussian_packet(1.0, **GRID)
    K = Region.interval(-0.5, 0.5)
    sc = measurement_scenario_from_collapse(psi, K, 0.0,
                                            evolve_schrodinger_free)
    assert validate(sc) == []
    rep = evaluate_conditions(sc)
    assert rep.a1 and not rep.a1_vacuous
    assert rep.ns  # nothing evolves, marginals agree exactly


def test_collapse_scenario_dirac_branch_stays_confined():
    spinor = bump_spinor_packet(center=0.0, halfwidth=2.0, mass=1.0,
                                units=NATURAL_UNITS, **GRID)
    K = Region.interval(-0.5, 0.5)
    sc = measurement_scenario_from_collapse(spinor, K, 0.5, evolve_dirac_1p1)
    assert validate(sc) == []
    future = causal_future_on_slice(K, 0.5, sc.cs)
    inside = float(sc.nu_plus.mass(future))
    assert inside >= 1 - 1e-6


def test_collapse_scenario_schrodinger_branch_leaks():
    # sharp truncation spreads instantly: the positive branch escapes the
    # light cone by far more than tolerance, breaking the confinement axiom
    psi = gaussian_packet(1.0, **GRID)
    K = Region.interval(-0.5, 0.5)
    sc = measurement_scenario_from_collapse(psi, K, 0.05,
                                            evolve_schrodinger_free)
    assert validate(sc) == []
    rep = evaluate_conditions(sc)
    assert not rep.a1
    future = causal_future_on_slice(K, 0.05, sc.cs)
    leak = 1.0 - float(sc.nu_plus.mass(future))
    assert leak > 1e-3


def _si_electron():
    """An SI electron packet, λ = 20 nm, on a 512-cell grid of 1 nm cells."""
    return gaussian_packet(2e-8, origin=-2.56e-7, cell_size=1e-9, n=512,
                           mass=9.1093837015e-31, units=SI_UNITS)


def test_collapse_scenario_rejects_a_cs_of_another_speed():
    # an SI state evolves at c = 299792458 m/s; a check at c = 1 m/s would
    # read the evolution against a cone 3e8 times too narrow
    K = Region.interval(-2e-8, 2e-8)
    with pytest.raises(ValueError, match="c = 299792458.0.*c = 1.0"):
        measurement_scenario_from_collapse(
            _si_electron(), K, 1e-11, evolve_schrodinger_free,
            cs=CausalStructure(dim=1, c=1.0))
    with pytest.raises(ValueError, match="c = 1.0.*c = 2.0"):
        measurement_scenario_from_collapse(
            gaussian_packet(1.0, **GRID), Region.interval(-0.5, 0.5), 0.05,
            evolve_schrodinger_free, cs=CausalStructure(dim=1, c=2.0))


def test_collapse_scenario_takes_a_cs_of_the_state_speed():
    # at dt = 0, since the sharp collapse spreads past any small SI grid
    K = Region.interval(-2e-8, 2e-8)
    given = measurement_scenario_from_collapse(
        _si_electron(), K, 0.0, evolve_schrodinger_free,
        cs=CausalStructure(dim=1, c=SI_UNITS.c))
    own = measurement_scenario_from_collapse(
        _si_electron(), K, 0.0, evolve_schrodinger_free)
    assert given.cs == own.cs == CausalStructure(dim=1, c=SI_UNITS.c)
    assert validate(given) == []
    assert evaluate_conditions(given).as_flags() == \
        evaluate_conditions(own).as_flags()


def test_scale_report_closed_form():
    m, lam = 1e-26, 1e-6
    rep = min_violation_halfwidth(m, lam, float("inf"))
    asym = SI_UNITS.c * m * lam**2 / SI_UNITS.hbar
    assert rep.ell_min == rep.ell_min_asymptotic == pytest.approx(asym)
    assert rep.compton == pytest.approx(SI_UNITS.hbar / (m * SI_UNITS.c))
    assert 2.7e4 <= rep.ell_min_asymptotic <= 3.1e4


def test_scale_natural_units_value():
    rep = min_violation_halfwidth(1.0, 1.0, 1.0, units=NATURAL_UNITS)
    assert rep.ell_min == pytest.approx(ELL_NATURAL, rel=1e-15)
    assert rep.ell_min_asymptotic == 1.0
    assert rep.compton == 1.0


def test_scale_ladder_monotone_toward_asymptote():
    m, lam = 1e-26, 1e-6
    times = [10.0**k for k in range(-2, 9)]
    ells = [min_violation_halfwidth(m, lam, t).ell_min for t in times]
    asym = min_violation_halfwidth(m, lam, float("inf")).ell_min_asymptotic
    for hi, lo in zip(ells[:-1], ells[1:]):
        assert hi > lo
    assert all(e > asym for e in ells)
    assert ells[-1] == pytest.approx(asym, rel=1e-3)


def test_scale_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        min_violation_halfwidth(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        min_violation_halfwidth(1.0, 1.0, -1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("m, lam, t", [
    (NAN, 1.0, 1.0), (INF, 1.0, 1.0), (1.0, NAN, 1.0), (1.0, INF, 1.0),
    (1.0, 1.0, NAN), (-INF, 1.0, INF)])
def test_scale_rejects_non_finite_inputs(m, lam, t):
    # once a record of NaN fields, or ell_min inf and compton 0 at m = inf
    with pytest.raises(ValueError, match="finite"):
        min_violation_halfwidth(m, lam, t)


@pytest.mark.parametrize("m, lam, t", [
    (1e300, 1e10, INF), (1e300, 1e10, 1.0), (1.0, 1e-200, 1.0),
    (1.0, 1e-200, INF)])
def test_scale_rejects_results_out_of_float_range(m, lam, t):
    # finite inputs once gave ell_min inf and compton 0, or ell_min 0
    with pytest.raises(ValueError, match="overflow or underflow"):
        min_violation_halfwidth(m, lam, t)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_packets_reject_non_finite_parameters(bad):
    # once a packet whose norm was NaN, as NaN passed every check
    for kw in (dict(lam=bad), dict(lam=1.0, x0=bad), dict(lam=1.0, k0=bad)):
        with pytest.raises(ValueError, match="must be finite"):
            gaussian_packet(**kw, **GRID)
    for kw in (dict(center=bad, halfwidth=1.0),
               dict(center=0.0, halfwidth=bad)):
        with pytest.raises(ValueError, match="must be finite"):
            bump_spinor_packet(**kw, **GRID)


def test_packet_rejects_nan_norm():
    psi = gaussian_packet(1.0, **GRID)
    with pytest.raises(ValueError, match="packet norm nan is not 1"):
        psi.with_components(np.full(psi.n, np.nan, dtype=complex))
    with pytest.raises(ValueError, match="is not 1"):
        psi.with_components(2 * psi.amplitudes)


def test_analytic_verdict_flips_at_threshold():
    rep = min_violation_halfwidth(1.0, 1.0, 1.0, units=NATURAL_UNITS)
    ell = rep.ell_min
    assert analytic_ce_gaussian(1.0, 1.0, 1.0, ell * (1 - 1e-9))
    assert not analytic_ce_gaussian(1.0, 1.0, 1.0, ell * (1 + 1e-9))
    # the threshold itself satisfies the defining equality to float noise
    lam_t = dispersed_width(1.0, 1.0, 1.0)
    assert ell / 1.0 == pytest.approx((ell + 1.0) / lam_t, rel=1e-12)


def test_analytic_verdict_monotone_in_ell():
    holds = [analytic_ce_gaussian(1.0, 1.0, 1.0, e)
             for e in np.linspace(0.3, 6.0, 40)]
    # a single switch from holding to failing as the box grows
    assert holds == sorted(holds, reverse=True)
