"""Mass-ordering checks: flow network build, both solvers, witnesses."""

import math
from fractions import Fraction

import numpy as np
import pytest

import helpers
from causal_lab import spacetime, transport
from causal_lab.measure import SliceMeasure
from causal_lab.quantum import (analytic_ce_gaussian, born_measure,
                                evolve_schrodinger_free, gaussian_packet)
from causal_lab.region import Region
from causal_lab.spacetime import CausalStructure, point_cone_membership
from causal_lab.transport import (build_flow_network, check_ce_bruteforce,
                                  check_ce_maxflow, recompute_deficit)
from oracle_maxflow import solve_cone_graph

CS1 = CausalStructure(dim=1, c=1.0)


def _atoms(time, pairs):
    return SliceMeasure.from_atoms(time, [((x,), w) for x, w in pairs])


def test_zero_dt_requires_pointwise_domination():
    mu = _atoms(0.0, [(0.0, 0.5), (1.0, 0.5)])
    ok = _atoms(0.0, [(0.0, 0.6), (1.0, 0.5)])
    bad = _atoms(0.0, [(0.0, 0.4), (1.0, 0.6)])
    assert check_ce_bruteforce(mu, ok, CS1).holds
    v = check_ce_bruteforce(mu, bad, CS1)
    assert not v.holds
    assert float(v.deficit) == pytest.approx(0.1)
    assert v.worst_set.contains((0.0,)) and not v.worst_set.contains((1.0,))


def test_split_source_hand_deficit():
    # half the mass starts where the later slice holds nothing reachable
    mu = _atoms(0.0, [(0.0, 0.5), (1.5, 0.5)])
    nu = _atoms(1.0, [(2.2, 1.0)])
    for checker in (check_ce_bruteforce, check_ce_maxflow):
        v = checker(mu, nu, CS1)
        assert not v.holds
        assert float(v.deficit) == pytest.approx(0.5)
        assert v.worst_set.contains((0.0,))
        assert not v.worst_set.contains((1.5,))


def test_full_transport_possible():
    mu = _atoms(0.0, [(0.0, 0.5), (1.5, 0.5)])
    nu = _atoms(1.0, [(0.9, 0.5), (2.2, 0.5)])
    for checker in (check_ce_bruteforce, check_ce_maxflow):
        v = checker(mu, nu, CS1)
        assert v.holds
        assert float(v.deficit) == 0.0


def test_sub_probability_target_fails():
    mu = _atoms(0.0, [(0.0, 1.0)])
    nu = _atoms(1.0, [(0.5, 0.75)])
    v = check_ce_maxflow(mu, nu, CS1)
    assert not v.holds
    assert float(v.deficit) == pytest.approx(0.25)


@pytest.mark.parametrize("seed", range(10))
def test_deficit_nonincreasing_in_speed(seed):
    rng = np.random.default_rng(seed)
    mu, nu, _ = helpers.random_atomic_pair(rng, max_atoms=8)
    deficits = []
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        cs = CausalStructure(dim=mu.dim, c=c)
        deficits.append(float(check_ce_maxflow(mu, nu, cs).deficit))
    for lo, hi in zip(deficits[1:], deficits[:-1]):
        assert lo <= hi + 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_deficit_nonincreasing_in_dt(seed):
    rng = np.random.default_rng(50 + seed)
    pts_mu = rng.uniform(-2, 2, 6)
    pts_nu = rng.uniform(-2, 2, 6)
    w = rng.random(6)
    w /= w.sum()
    mu = _atoms(0.0, list(zip(pts_mu, w)))
    deficits = []
    for dt in (0.0, 0.5, 1.0, 2.0, 5.0):
        nu = _atoms(dt, list(zip(pts_nu, w[::-1])))
        deficits.append(float(check_ce_maxflow(mu, nu, CS1).deficit))
    for lo, hi in zip(deficits[1:], deficits[:-1]):
        assert lo <= hi + 1e-12
    assert deficits[-1] == 0.0  # every atom reachable at dt = 5


@pytest.mark.parametrize("seed", range(25))
def test_solvers_agree_and_worst_set_recomputes(seed):
    rng = np.random.default_rng(1000 + seed)
    mu, nu, cs = helpers.random_atomic_pair(rng, max_atoms=9)
    vb = check_ce_bruteforce(mu, nu, cs)
    vm = check_ce_maxflow(mu, nu, cs)
    helpers.assert_same_verdict(vb, vm)
    if not vm.holds:
        again = recompute_deficit(mu, nu, vm.worst_set, cs)
        assert abs(float(again) - float(vm.deficit)) <= 1e-9


def test_methods_tagged():
    mu = _atoms(0.0, [(0.0, 1.0)])
    nu = _atoms(1.0, [(0.5, 1.0)])
    assert check_ce_bruteforce(mu, nu, CS1).method == "bruteforce"
    assert check_ce_maxflow(mu, nu, CS1).method == "maxflow"


def test_exact_rational_zero_tolerance():
    tiny = Fraction(1, 10**24)
    mu = SliceMeasure.from_atoms(0.0, [((0.0,), Fraction(1, 2)),
                                       ((3.0,), Fraction(1, 2))])
    nu = SliceMeasure.from_atoms(1.0, [((0.0,), Fraction(1, 2) - tiny),
                                       ((3.0,), Fraction(1, 2) + tiny)])
    v = check_ce_maxflow(mu, nu, CS1)
    assert not v.holds
    assert v.deficit == tiny
    assert isinstance(v.deficit, Fraction)


def test_exact_rational_bruteforce_matches():
    mu = SliceMeasure.from_atoms(0.0, [((0.0,), Fraction(2, 3)),
                                       ((2.0,), Fraction(1, 3))])
    nu = SliceMeasure.from_atoms(1.0, [((0.5,), Fraction(1, 3)),
                                       ((2.0,), Fraction(2, 3))])
    vb = check_ce_bruteforce(mu, nu, CS1)  # exactness inferred from weights
    vm = check_ce_maxflow(mu, nu, CS1)
    assert vb.holds == vm.holds
    assert vb.deficit == vm.deficit == Fraction(1, 3)


def test_network_edges_match_cone_membership():
    rng = np.random.default_rng(7)
    mu, nu, cs = helpers.random_atomic_pair(rng, max_atoms=10)
    net = build_flow_network(mu, nu, cs)
    mu_pos = mu.positions[np.asarray(mu.weights_flat) > 0]
    nu_pos = nu.positions[np.asarray(nu.weights_flat) > 0]
    dt = nu.time - mu.time
    for i in range(net.num_left):
        linked = set(int(net.edge_indices[k])
                     for k in range(net.edge_indptr[i], net.edge_indptr[i + 1]))
        reach = point_cone_membership(mu_pos[i:i + 1], dt, cs, nu_pos)
        assert linked == set(np.nonzero(reach)[0])


def test_network_prunes_zero_weight_atoms():
    mu = _atoms(0.0, [(0.0, 0.5), (1.0, 0.0), (2.0, 0.5)])
    nu = _atoms(1.0, [(0.0, 0.7), (5.0, 0.0), (2.0, 0.3)])
    net = build_flow_network(mu, nu, CS1)
    assert net.num_left == 2
    assert net.num_right == 2


def test_grid_target_window_path_matches_atomic_path():
    # same underlying data once as a grid, once as atoms
    w = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    nu_grid = SliceMeasure.from_grid(1.0, (0.0,), 1.0, w)
    nu_atoms = SliceMeasure.from_atoms(
        1.0, [((0.5 + i,), float(x)) for i, x in enumerate(w)])
    mu = _atoms(0.0, [(0.4, 0.6), (4.1, 0.4)])
    vg = check_ce_maxflow(mu, nu_grid, CS1)
    va = check_ce_maxflow(mu, nu_atoms, CS1)
    assert vg.holds == va.holds
    assert float(vg.deficit) == pytest.approx(float(va.deficit), abs=1e-12)


def test_bruteforce_rejects_oversized_instances():
    pairs = [(float(i), 1.0 / 25) for i in range(25)]
    mu = _atoms(0.0, pairs)
    nu = _atoms(1.0, pairs)
    with pytest.raises(ValueError):
        check_ce_bruteforce(mu, nu, CS1)


@pytest.mark.parametrize("dim", [1, 2])
def test_both_solvers_reject_a_deficit_past_the_largest_float(dim):
    # about 2e308 of mu reaches 1.0 of nu: the float deficit would be inf
    # (brute force's sum) or raise OverflowError (maxflow's rest / den)
    cs = CausalStructure(dim=dim, c=1.0)
    pad = (0.0,) * (dim - 1)
    mu = SliceMeasure.from_atoms(0.0, [((0.0, *pad), 1e308),
                                       ((1.5, *pad), 1e308)])
    nu = SliceMeasure.from_atoms(1.0, [((0.9, *pad), 0.2),
                                       ((2.2, *pad), 0.8)])
    for check in (check_ce_maxflow, check_ce_bruteforce):
        with pytest.raises(ValueError,
                           match="^the deficit overflows a float$"):
            check(mu, nu, cs)
    # one atom of 1e308 is a float deficit, and so is an exact one
    one = SliceMeasure.from_atoms(0.0, [((5.0, *pad), 1e308)])
    for check in (check_ce_maxflow, check_ce_bruteforce):
        assert check(one, nu, cs).deficit == 1e308
    exact = SliceMeasure.from_atoms(0.0, [((5.0, *pad), 10 ** 400)])
    exact_nu = SliceMeasure.from_atoms(1.0, [((0.9, *pad), Fraction(1, 5))])
    for check in (check_ce_maxflow, check_ce_bruteforce):
        assert check(exact, exact_nu, cs).deficit == 10 ** 400
    # nu's sum past the largest float is no deficit
    many = SliceMeasure.from_atoms(1.0, [((0.5, *pad), 1e308),
                                         ((-0.5, *pad), 1e308)])
    small = SliceMeasure.from_atoms(0.0, [((0.0, *pad), 1.0)])
    for check in (check_ce_maxflow, check_ce_bruteforce):
        assert check(small, many, cs).holds


@pytest.mark.parametrize("mu_pairs, nu_pairs, worst", [
    # the sum over {0, 10} is inf - inf, once skipped as NaN
    ([(0.0, 1e308), (10.0, 1e308)], [(0.0, 9.5e307), (10.0, 9e307)],
     [0.0, 10.0]),
    # the sum over {0, 5} is inf, once read as an overflowing deficit
    ([(0.0, 1e308), (5.0, 1e308)], [(0.0, 1e308), (5.0, 5e307)], [5.0]),
    # {0} and {0, 10} both fall 0.1 short, but the float sum 0.1 + 0.2 -
    # 0.2 is 0.10000000000000003, which once named the larger set
    ([(0.0, 0.1), (10.0, 0.2), (20.0, 0.7)], [(10.0, 0.2), (20.0, 0.8)],
     [0.0]),
], ids=["nan_sum", "inf_sum", "float_tie"])
def test_bruteforce_agrees_where_float_sums_round_or_overflow(
        mu_pairs, nu_pairs, worst):
    exact = (sum(Fraction(w) for x, w in mu_pairs if x in worst)
             - sum(Fraction(w) for x, w in nu_pairs if x in worst))
    for dim in (1, 2):
        pad = (0.0,) * (dim - 1)

        def atoms(time, pairs):
            return SliceMeasure.from_atoms(
                time, [((x, *pad), w) for x, w in pairs])

        mu, nu = atoms(0.0, mu_pairs), atoms(1.0, nu_pairs)
        cs = CausalStructure(dim=dim, c=1.0)
        for v in (check_ce_maxflow(mu, nu, cs),
                  check_ce_bruteforce(mu, nu, cs)):
            assert not v.holds
            assert v.deficit == float(exact)
            assert v.worst_set.boxes == Region.point_boxes(
                [(x, *pad) for x in worst], dim).boxes


def test_time_order_enforced():
    mu = _atoms(1.0, [(0.0, 1.0)])
    nu = _atoms(0.0, [(0.0, 1.0)])
    with pytest.raises(ValueError):
        check_ce_maxflow(mu, nu, CS1)


# -- the d = 1 sweep against Dinic and brute force ------------------------

SWEEP_KINDS = ("atoms", "grid", "mixed", "exact")


def _dinic_verdict(mu, nu, cs):
    """check_ce_maxflow with Dinic standing in for the d = 1 sweep."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_solve_sweep_1d", transport._solve_dinic)
        return check_ce_maxflow(mu, nu, cs)


def _random_1d_instance(rng, kind):
    """Seeded 1-D (mu, nu, cs) for the solver cross-checks.

    Positions sit on a lattice whose spacing divides c*dt, so targets tie
    with the cone edge; dt may be 0 and a quarter of the weights are 0.
    nu's weights are scaled up by a random gain so that some checks hold.
    """
    h = float(rng.choice([0.25, 0.1]))
    c = float(rng.choice([0.5, 1.0, 2.0]))
    dt = float(rng.integers(0, 4)) * h / c
    exact = kind == "exact"

    def weights(n, gain=1):
        raw = gain * rng.integers(0, 9, n) * (rng.random(n) > 0.25)
        if exact:
            return [Fraction(int(v), 24) for v in raw]
        return list(raw * rng.random(n))

    def atoms(time, n, gain=1):
        pos = rng.choice(np.arange(-12, 13), size=n, replace=False) * h
        return SliceMeasure.from_atoms(
            time, [((float(x),), w) for x, w in zip(pos, weights(n, gain))])

    def grid(time, n, gain=1):
        return SliceMeasure.from_grid(
            time, (-12 * h,), h, np.array(weights(n, gain), dtype=float))

    nl, nr = (int(v) for v in rng.integers(1, 11, 2))
    gain = int(rng.integers(1, 5))
    if kind in ("atoms", "exact"):
        mu, nu = atoms(0.0, nl), atoms(dt, nr, gain)
    elif kind == "grid":
        mu, nu = grid(0.0, 24), grid(dt, 24, gain)
    else:
        mu, nu = atoms(0.0, nl), grid(dt, 24, gain)
    return mu, nu, CausalStructure(dim=1, c=c)


@pytest.mark.parametrize("kind", SWEEP_KINDS)
@pytest.mark.parametrize("seed", range(25))
def test_sweep_matches_dinic_and_bruteforce(seed, kind):
    rng = np.random.default_rng([seed, SWEEP_KINDS.index(kind)])
    mu, nu, cs = _random_1d_instance(rng, kind)
    exact = kind == "exact"
    vs = check_ce_maxflow(mu, nu, cs)
    helpers.assert_same_verdict(vs, _dinic_verdict(mu, nu, cs))
    assert isinstance(vs.deficit, Fraction) == exact
    if not vs.holds:
        again = recompute_deficit(mu, nu, vs.worst_set, cs)
        if exact:
            assert again == vs.deficit
        else:
            assert abs(float(again) - vs.deficit) <= 1e-9
    if mu.is_atomic:
        # brute force keeps the first maximiser in subset-bitmask order of
        # the lifted integers, which is the inclusion-minimal one
        helpers.assert_same_verdict(check_ce_bruteforce(mu, nu, cs), vs)


def test_zero_gain_atom_stays_out_of_worst_set():
    # the atom at 1.5 adds 1/4 of supply and reaches 1/4 more of nu, so
    # {0} and {0, 1.5} both fall 1/4 short; the worst set is the smaller
    mu = _atoms(0.0, [(0.0, Fraction(1, 2)), (1.5, Fraction(1, 4)),
                      (9.0, Fraction(1, 4))])
    nu = _atoms(1.0, [(0.5, Fraction(1, 4)), (2.5, Fraction(1, 4)),
                      (9.0, Fraction(1, 2))])
    for v in (check_ce_maxflow(mu, nu, CS1), _dinic_verdict(mu, nu, CS1),
              check_ce_bruteforce(mu, nu, CS1)):
        assert not v.holds
        assert v.deficit == Fraction(1, 4)
        assert v.worst_set.boxes == Region.point_boxes([(0.0,)], 1).boxes


PRUNE_KINDS = ("atoms", "exact", "grid", "unreached")


def _localised_instance(rng, kind):
    """Seeded 1-D (mu, nu, cs) with mu near 0 and nu spread over [-40, 40].

    The cone reach is at most 1, so the windows cover a few of nu's
    points.  Positions sit on a dyadic lattice whose spacing divides c*dt,
    so targets tie with the cone edge.  For "unreached", nu keeps away
    from mu by more than the reach, so every source is out of reach.
    """
    h = 0.25
    cs = CausalStructure(dim=1, c=float(rng.choice([0.5, 1.0])))
    dt = float(rng.integers(0, 5)) * h / cs.c
    exact = kind in ("exact", "unreached")

    def weights(n, gain=1):
        raw = gain * rng.integers(0, 9, n) * (rng.random(n) > 0.2)
        if exact:
            return [Fraction(int(v), 24) for v in raw]
        return list(raw * rng.random(n))

    near = np.arange(-8, 9)
    wide = np.arange(-160, 161)
    if kind == "unreached":
        wide = wide[np.abs(wide) > 16]
    pos = rng.choice(wide, size=int(rng.integers(20, 120)), replace=False)
    nu = SliceMeasure.from_atoms(dt, [((float(x) * h,), w) for x, w in
                                      zip(pos, weights(len(pos), 3))])
    if kind == "grid":
        w = np.zeros(320)
        w[152:169] = weights(17)
        return SliceMeasure.from_grid(0.0, (-40.0,), h, w), nu, cs
    pos = rng.choice(near, size=int(rng.integers(1, 12)), replace=False)
    mu = SliceMeasure.from_atoms(0.0, [((float(x) * h,), w) for x, w in
                                       zip(pos, weights(len(pos)))])
    return mu, nu, cs


@pytest.mark.parametrize("kind", PRUNE_KINDS)
@pytest.mark.parametrize("seed", range(12))
def test_sweep_lifts_only_reachable_targets(monkeypatch, seed, kind):
    # nu's points outside every window are not lifted; Dinic on the whole
    # cone graph must still give the same verdict, deficit and worst set
    rng = np.random.default_rng([seed, PRUNE_KINDS.index(kind), 83])
    mu, nu, cs = _localised_instance(rng, kind)
    lifted = []
    lift = transport._integer_lift

    def recorded(caps):
        lifted.append(len(caps))
        return lift(caps)

    monkeypatch.setattr(transport, "_integer_lift", recorded)
    vs = check_ce_maxflow(mu, nu, cs)
    monkeypatch.setattr(transport, "_integer_lift", lift)
    vd = _dinic_verdict(mu, nu, cs)
    sources = len(transport._support(mu)[1])
    targets = len(transport._support(nu)[1])
    assert lifted[0] - sources < targets / 2
    assert vs.holds == vd.holds
    assert vs.deficit == vd.deficit
    assert type(vs.deficit) is type(vd.deficit)
    if vs.holds:
        assert vs.worst_set is None and vd.worst_set is None
    else:
        assert vs.worst_set.boxes == vd.worst_set.boxes
    if kind == "unreached":
        assert lifted[0] == sources
        assert vs.deficit == mu.total
        assert vs.holds == (mu.total == 0)


_LIFT_MIXES = {
    "subnormal": [5e-324, 2.2e-308, 1.0],
    "extremes": [5e-324, 1.7976931348623157e308, 0.0],
    "ints": [3, 0, 7, 2.5],
    "numpy": [np.float64(0.1), np.float64(5e-324), 0.75],
    "fraction": [Fraction(1, 24)],
    "float_fraction": [0.1, Fraction(1, 24), 5e-324, Fraction(3, 8), 2],
    "huge_fraction": [1.7976931348623157e308, Fraction(5, 3), 2.2e-308],
    "empty": [],
    "one_zero": [1.0, 0.0],
    "zeros": [0.0, 0.0],
    "integral": [3.0, 4.0, 1024.0, 2.0 ** 60, 0.0],
}


@pytest.mark.parametrize("mix", sorted(_LIFT_MIXES))
def test_integer_lift_is_exact(mix):
    caps = _LIFT_MIXES[mix]
    den, nums = transport._integer_lift(caps)
    assert den == math.lcm(*(Fraction(c).denominator for c in caps))
    assert len(nums) == len(caps)
    for c, n in zip(caps, nums):
        assert type(n) is int
        assert Fraction(c) * den == n
    if all(isinstance(c, float) for c in caps):
        # the trimmed d = 1 scan lifts its float arrays from np.frexp
        assert transport._frexp_lift(np.array(caps)) == (den, nums)


def test_integer_lift_matches_fractions_on_random_mixes():
    rng = np.random.default_rng(91)
    pool = [5e-324, 2.2e-308, 1.7976931348623157e308, 0, 1, 12,
            np.float64(0.3), Fraction(1, 24), Fraction(7, 9)]
    for _ in range(200):
        n = int(rng.integers(1, 8))
        caps = [pool[i] for i in rng.integers(0, len(pool), n)]
        caps += list(rng.random(int(rng.integers(0, 4)))
                     * 2.0 ** rng.integers(-1070, 1000))
        den, nums = transport._integer_lift(caps)
        assert den == math.lcm(*(Fraction(c).denominator for c in caps))
        assert nums == [Fraction(c) * den for c in caps]


@pytest.mark.parametrize("seed", range(10))
def test_cone_windows_match_squared_predicate(seed):
    # lattice spacing 0.1 is not dyadic, so x +- reach rounds across
    # targets that the squared test puts on the other side
    rng = np.random.default_rng(300 + seed)
    scale = float(rng.choice([0.1, 1e-3, 1e3]))
    x = np.sort(rng.integers(-30, 31, 40) * scale)
    y = np.sort(np.unique(rng.integers(-30, 31, 40) * scale))
    reach = float(rng.integers(0, 6)) * scale
    lo, hi = spacetime._cone_windows(x, y, reach, reach * reach)
    inside = (y[None, :] - x[:, None]) ** 2 <= reach * reach
    for i in range(len(x)):
        want = np.flatnonzero(inside[i])
        got = np.arange(lo[i], hi[i])
        assert list(got) == list(want)
    assert lo.tolist() == sorted(lo) and hi.tolist() == sorted(hi)
    # with a running sum s per x, the open test s + d * d < r2 of the
    # sender reach: s = r2 leaves no target, not even one at d = 0, and
    # so does r2 = 0
    r2 = reach * reach
    part = r2 * rng.choice([0.0, 0.25, 0.5, 1.0], len(x))
    lo, hi = spacetime._cone_windows(x, y, np.sqrt(r2 - part), r2, part)
    inside = part[:, None] + (y[None, :] - x[:, None]) ** 2 < r2
    for i in range(len(x)):
        assert list(range(lo[i], hi[i])) == list(np.flatnonzero(inside[i]))


def _rim_instance(rng, n, c):
    """Seeded sorted d = 1 sources and targets for the window tests.

    Targets sit on the cone rims x +- reach of random sources and one ulp
    either side of them, plus both zeros, so every settle step is taken.
    """
    cs = CausalStructure(dim=1, c=c)
    dt = float(rng.choice([0.0, 0.3, 1.0, 2.5]))
    reach = transport.cone_radius(dt, cs)
    # distinct sources, one of them -0.0, two beyond every target
    lattice = np.r_[-80:0, 1:81] * 0.1
    x = rng.choice(lattice, n - 3, replace=False).tolist() + [-0.0]
    y = [-0.0, 0.0]
    for xi in rng.choice(x, 12):
        for edge in (xi - reach, xi + reach):
            y += [edge, np.nextafter(edge, -np.inf),
                  np.nextafter(edge, np.inf)]
    y += list(rng.uniform(-6, 6, 2 * n))
    # stable sorts, as the solver orders both sides
    x = sorted(x + [-100.0, 100.0])
    y = sorted(float(v) for v in y)
    return x, y, reach, transport.squared_cone_radius(dt, cs)


@pytest.mark.parametrize("c", [1.0, 0.7, 3.0])
@pytest.mark.parametrize("offset", [0, 1])
def test_small_windows_match_numpy_windows(c, offset):
    n = transport.SMALL_SWEEP_ATOMS + offset
    rng = np.random.default_rng([int(c * 10), offset])
    for _ in range(5):
        x, y, reach, r2 = _rim_instance(rng, n, c)
        lo, hi = spacetime._cone_windows(np.array(x), np.array(y), reach, r2)
        want = lo.tolist(), hi.tolist()
        assert spacetime._small_cone_windows(x, y, reach, r2) == want


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_small_sweep_matches_numpy_sweep(monkeypatch, exact, offset):
    # the same instances through both window paths, at and around the cutoff
    n = transport.SMALL_SWEEP_ATOMS + offset
    rng = np.random.default_rng([n, exact])
    for _ in range(5):
        x, y, _, _ = _rim_instance(rng, n, float(rng.choice([0.5, 1.0])))
        dt = float(rng.choice([0.0, 0.3, 1.0]))
        w = (rng.integers(0, 9, len(x) + len(y))
             * (rng.random(len(x) + len(y)) > 0.2))
        w = ([Fraction(int(v), 12) for v in w] if exact
             else list(w * rng.random(len(w))))
        mu = _atoms(0.0, zip(x, w))
        nu = _atoms(dt, zip(dict.fromkeys(y), w[len(x):]))
        cs = CausalStructure(dim=1, c=float(rng.choice([0.5, 2.0])))
        # the same weights on grids; with cells of 0.1, which is not
        # dyadic, and centres offset by 0.05, cone rims round across them
        cells = np.array(w, dtype=float)
        grids = (SliceMeasure.from_grid(0.0, (-4.0,), 0.1, cells[:len(x)]),
                 SliceMeasure.from_grid(dt, (-3.95,), 0.1, cells[len(x):]))
        for mu, nu in ((mu, nu), grids):
            got = []
            for cutoff in (10**6, -1):
                monkeypatch.setattr(transport, "SMALL_SWEEP_ATOMS", cutoff)
                got.append(check_ce_maxflow(mu, nu, cs))
            small, large = got
            assert small.holds == large.holds
            assert small.deficit == large.deficit
            assert type(small.deficit) is type(large.deficit)
            if not small.holds:
                assert small.worst_set.boxes == large.worst_set.boxes


def test_float_verdict_decided_on_integers():
    # a lone source with no target: the deficit is its weight, and the
    # float verdict holds up to EPS_FLOW and no further
    nu = _atoms(1.0, [(5.0, 1.0)])
    at = _atoms(0.0, [(0.0, transport.EPS_FLOW)])
    assert check_ce_maxflow(at, nu, CS1).holds
    above = np.nextafter(transport.EPS_FLOW, 1.0)
    v = check_ce_maxflow(_atoms(0.0, [(0.0, above)]), nu, CS1)
    assert not v.holds and v.deficit == above
    # a correctly rounded quotient of the exact leftover
    thirds = _atoms(0.0, [(0.0, 1 / 3), (4.0, 1 / 3), (9.0, 1 / 3)])
    v = check_ce_maxflow(thirds, _atoms(1.0, [(0.5, 0.25)]), CS1)
    assert v.deficit == float(Fraction(1 / 3) * 3 - Fraction(0.25))


@pytest.mark.parametrize("seed", range(8))
def test_recompute_deficit_d1_matches_all_pairs(seed):
    rng = np.random.default_rng(700 + seed)
    cs = CausalStructure(dim=1, c=float(rng.choice([0.5, 1.0, 3.0])))
    dt = float(rng.choice([0.0, 0.1, 1.0]))
    reach = transport.cone_radius(dt, cs)
    src = rng.uniform(-5, 5, int(rng.integers(1, 12)))
    rims = [e for xi in src for e in (xi - reach, xi + reach)]
    tgt = np.array(rims + [np.nextafter(e, s) for e in rims
                           for s in (-np.inf, np.inf)]
                   + list(rng.uniform(-8, 8, 50)) + [0.0, -0.0])
    # recompute_deficit, on a worst set that holds every source, against
    # the all-pairs cone test on rim targets and their neighbours
    w = rng.random(len(src))
    mu = _atoms(0.0, zip(src.tolist(), w))
    nu = _atoms(dt, zip(dict.fromkeys(tgt.tolist()), rng.random(len(tgt))))
    all_src = Region.point_boxes(src[:, None], 1)
    d = nu.positions[:, 0] - src[:, None]
    hit = (d * d <= spacetime.squared_cone_radius(dt, cs)).any(axis=0)
    expect = mu.total - sum(wt for (_, wt), h in zip(nu.atoms, hit) if h)
    assert recompute_deficit(mu, nu, all_src, cs) == expect


def test_solver_follows_dimension(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("dinic_max_flow called")

    monkeypatch.setattr(transport, "dinic_max_flow", refuse)
    mu = _atoms(0.0, [(0.0, 0.5), (1.5, 0.5)])
    nu = _atoms(1.0, [(2.2, 1.0)])
    v = check_ce_maxflow(mu, nu, CS1)
    assert not v.holds and v.method == "maxflow"
    cs2 = CausalStructure(dim=2, c=1.0)
    mu2 = SliceMeasure.from_atoms(0.0, [((0.0, 0.0), 1.0)])
    nu2 = SliceMeasure.from_atoms(1.0, [((0.5, 0.0), 1.0)])
    with pytest.raises(RuntimeError, match="dinic_max_flow called"):
        check_ce_maxflow(mu2, nu2, cs2)


def test_born_grid_16384_full_support():
    # at this size Dinic's cone graph would hold about 1e7 edges
    n, half = 16384, 24.0
    psi0 = gaussian_packet(1.0, origin=-half, cell_size=2 * half / n, n=n)
    mu = born_measure(psi0, 0.0)
    nu = born_measure(evolve_schrodinger_free(psi0, 1.0), 1.0)
    v = check_ce_maxflow(mu, nu, CS1)
    # the support holds windows twice the threshold halfwidth 1 + sqrt 2
    ell = 2 * (1 + math.sqrt(2))
    assert v.holds == analytic_ce_gaussian(1.0, 1.0, 1.0, ell)
    again = recompute_deficit(mu, nu, v.worst_set, CS1)
    assert float(again) == pytest.approx(v.deficit, rel=1e-9)


# -- the d = 1 trim ----------------------------------------------------------

TRIM_KINDS = ("born", "restricted", "zeros", "gaps", "subnormal", "wide",
              "beyond", "empty")


def _trim_instance(rng, kind, n=None):
    """Seeded d = 1 (mu, nu, cs), mostly above `SMALL_SWEEP_ATOMS` sources.

    mu and nu are Gaussian grids of a free packet's widths before and
    after spreading, with tails down to the subnormal range and below.
    "born": a packet's Born grids, spread by the FFT engine; "restricted":
    mu cut to an interval about the centre; "zeros": a random third of
    both grids' cells emptied; "gaps": nu as atoms at random positions and
    a cone reach of a fifth of mu's cell, so windows hold a few targets or
    none, with gaps between them; "subnormal": O(1) weights mixed with
    subnormal ones on both grids; "wide": nu on a grid three times as
    wide, so the windows start well after its first target and end well
    before its last; "beyond": nu's cells past a random point emptied, on
    a random side, so mu's support runs past nu's and the windows at that
    end are empty; "empty": nu with no positive mass.
    """
    n = n or int(rng.choice([64, 256, 1024]))
    half = float(rng.choice([6.0, 12.0, 24.0]))
    cell = 2 * half / n
    lam, x0 = float(rng.uniform(0.5, 1.5)), float(rng.uniform(-1.0, 1.0))
    t = float(rng.uniform(0.2, 1.5))
    cs = CausalStructure(dim=1, c=float(rng.choice([0.5, 1.0, 2.0])))
    x = -half + (np.arange(n) + 0.5) * cell

    def grid(time, w):
        return SliceMeasure.from_grid(time, (-half,), cell, w)

    def gauss(width):
        w = np.exp(-((x - x0) / width) ** 2)
        return w / w.sum()

    mu, nu = grid(0.0, gauss(lam)), grid(t, gauss(math.hypot(lam, t / lam)))
    if kind == "born":
        psi = gaussian_packet(lam, x0=x0, origin=-24.0, cell_size=48 / 1024,
                              n=1024)
        mu = born_measure(psi, 0.0)
        nu = born_measure(evolve_schrodinger_free(psi, t), t)
    elif kind == "restricted":
        ell = float(rng.uniform(0.3, 3.0)) * lam
        mu = mu.restricted(Region.interval(x0 - ell, x0 + ell))
    elif kind == "zeros":
        mu = grid(0.0, mu.weights_flat * (rng.random(n) > 1 / 3))
        nu = grid(t, nu.weights_flat * (rng.random(n) > 1 / 3))
    elif kind == "gaps":
        dt = cell / 5 / cs.c
        pos = np.unique(rng.uniform(-half, half, 2 * n))
        cells = ((pos + half) // cell).astype(int)
        gain = rng.uniform(0.0, 4.0, len(pos))
        nu = SliceMeasure.from_atoms(dt, [((p,), w) for p, w in zip(
            pos.tolist(), (mu.weights_flat[cells] * gain).tolist())])
    elif kind == "subnormal":
        def weights():
            tiny = rng.random(n) * 10.0 ** -rng.integers(300, 316, n)
            return np.where(rng.random(n) < 0.5, rng.random(n), tiny)

        mu, nu = grid(0.0, weights()), grid(t, 2.0 * weights())
    elif kind == "wide":
        wide = -3 * half + (np.arange(3 * n) + 0.5) * cell
        w = np.exp(-((wide - x0) / math.hypot(lam, t / lam)) ** 2)
        nu = SliceMeasure.from_grid(t, (-3 * half,), cell, w / w.sum())
    elif kind == "beyond":
        past = x > float(rng.uniform(-1.0, 1.0)) * lam + x0
        nu = grid(t, np.where(past if rng.random() < 0.5 else ~past, 0.0,
                              nu.weights_flat))
    elif kind == "empty":
        nu = grid(t, np.zeros(n))
    return mu, nu, cs


def _untrimmed(mu, nu, cs):
    """check_ce_maxflow with the d = 1 trim keeping every source."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_trim_1d", lambda s, c, lo, hi: (0, len(s)))
        return check_ce_maxflow(mu, nu, cs)


def _spy_trim(monkeypatch):
    """Record each `_trim_1d` call as (sources, kept)."""
    calls = []
    trim = transport._trim_1d

    def recorded(s, c, lo, hi):
        t0, t1 = trim(s, c, lo, hi)
        calls.append((len(s), t1 - t0))
        return t0, t1

    monkeypatch.setattr(transport, "_trim_1d", recorded)
    return calls


def _same_verdict(v, u):
    assert v.holds == u.holds
    assert v.deficit == u.deficit
    assert type(v.deficit) is type(u.deficit)
    if v.holds:
        assert v.worst_set is None and u.worst_set is None
    else:
        assert v.worst_set.boxes == u.worst_set.boxes


@pytest.mark.parametrize("kind", TRIM_KINDS)
def test_trimmed_scan_matches_untrimmed(monkeypatch, kind):
    calls = _spy_trim(monkeypatch)
    for seed in range(16):
        rng = np.random.default_rng([seed, TRIM_KINDS.index(kind), 211])
        mu, nu, cs = _trim_instance(rng, kind)
        _same_verdict(check_ce_maxflow(mu, nu, cs), _untrimmed(mu, nu, cs))
    # instances above SMALL_SWEEP_ATOMS sources took the trim, and it
    # dropped sources in some; with no mass in nu every source falls short
    assert len(calls) >= 4
    if kind == "empty":
        assert all(kept == sources for sources, kept in calls)
    else:
        assert any(kept < sources for sources, kept in calls)


def test_trim_drops_every_source_of_holding_checks(monkeypatch):
    # nu holds twice mu on the same grid, or mu is cut well inside the
    # threshold halfwidth 1 + sqrt 2: no set falls short, and the trim
    # certifies it for every source.  The cut mu has no tails, and the
    # leading pass alone drops every source; the far right tail of the
    # whole grid sits below the rounding bound of the leading sums, and
    # the trailing pass drops it
    calls = _spy_trim(monkeypatch)
    passes = []
    droppable = transport._droppable

    def recorded(s, c, lo, hi):
        passes.append(len(s))
        return droppable(s, c, lo, hi)

    monkeypatch.setattr(transport, "_droppable", recorded)
    for seed in range(6):
        rng = np.random.default_rng([seed, 223])
        mu, _, _ = _trim_instance(rng, "zeros", n=int(rng.choice([256, 1024])))
        doubled = SliceMeasure.from_grid(
            0.5, mu.grid_origin, mu.grid_cell, 2.0 * mu.weights_flat)
        ell = float(rng.uniform(0.2, 0.8)) * (1 + math.sqrt(2))
        psi = gaussian_packet(1.0, origin=-24.0, cell_size=48 / 2048, n=2048)
        cut = born_measure(psi, 0.0).restricted(Region.interval(-ell, ell))
        spread = born_measure(evolve_schrodinger_free(psi, 1.0), 1.0)
        for a, b in ((mu, doubled), (cut, spread)):
            passes.clear()
            v = check_ce_maxflow(a, b, CS1)
            assert v.holds and v.deficit == 0.0
            _same_verdict(v, _untrimmed(a, b, CS1))
        assert passes == [calls[-1][0]]
    assert len(calls) == 12
    assert all(kept == 0 for _, kept in calls)


def test_trim_keeps_a_source_that_rounding_hides():
    # source 1 holds 11 * 2**-55 and reaches 10 * 2**-55, so it falls
    # 2**-55 short; in the prefix sums 1 + its supply rounds down by
    # 3 * 2**-55 and 2 + its room rounds up by 6 * 2**-55, so its run reads
    # -2**-52 in floats.  Only the rounding bound keeps it.
    supply, room = 11 * 2.0 ** -55, 10 * 2.0 ** -55
    assert (1.0 + supply) - 1.0 == 2.0 ** -52
    assert (2.0 + room) - 2.0 == 2.0 ** -51
    far = [float(20 + 10 * i) for i in range(transport.SMALL_SWEEP_ATOMS)]
    mu = _atoms(0.0, [(0.0, 1.0), (10.0, supply)] + [(x, 1.0) for x in far])
    nu = _atoms(0.5, [(0.0, 2.0), (10.0, room)] + [(x, 2.0) for x in far])
    rest, den, cut = transport._solve_sweep_1d(mu, nu, CS1)
    assert Fraction(rest, den) == 2.0 ** -55
    assert cut.tolist() == [[10.0]]


@pytest.mark.filterwarnings("error")
def test_trim_of_overflowing_sums_warns_nothing():
    # 40 atoms of 1e307 a side, nu shifted by 5: the prefix sums pass the
    # largest float, and the NaN and inf that they give certify nothing;
    # the four leading sources reach nothing and fall short
    mu = _atoms(0.0, [(float(i), 1e307) for i in range(40)])
    nu = _atoms(1.0, [(float(i + 5), 1e307) for i in range(40)])
    v = check_ce_maxflow(mu, nu, CS1)
    assert v.deficit == 4e307
    _same_verdict(v, _untrimmed(mu, nu, CS1))


@pytest.mark.parametrize("kind", TRIM_KINDS)
def test_trimmed_scan_matches_oracle_maxflow(kind):
    # exact leftover and inclusion-minimal cut of the generic Dinic oracle
    # on the cone graph, over Fractions of the float weights
    for seed in range(3):
        rng = np.random.default_rng([seed, TRIM_KINDS.index(kind), 227])
        mu, nu, cs = _trim_instance(rng, kind, n=64)
        v = check_ce_maxflow(mu, nu, cs)
        net = build_flow_network(mu, nu, cs)
        rest, cut = solve_cone_graph(
            [Fraction(c) for c in net.left_caps],
            net.edge_indices.tolist(), net.edge_indptr.tolist(),
            [Fraction(c) for c in net.right_caps])
        assert v.holds == (rest <= Fraction(transport.EPS_FLOW))
        if not v.holds:
            assert v.deficit == float(rest)
            want = Region.point_boxes(net.left_points[cut].tolist(), 1,
                                      halfwidth=mu.cell_halfwidth)
            assert v.worst_set.boxes == want.boxes


def test_float_atoms_take_the_trim(monkeypatch):
    # more than SMALL_SWEEP_ATOMS float atoms take the trim, as grids do;
    # one Fraction weight keeps the whole scan
    calls = _spy_trim(monkeypatch)
    rng = np.random.default_rng(229)
    mu, nu, cs = _trim_instance(rng, "born")
    pts = mu.positions[:, 0].tolist()
    w = mu.weights_flat.tolist()
    atoms = _atoms(0.0, zip(pts, w))
    assert len(calls) == 0
    _same_verdict(check_ce_maxflow(atoms, nu, cs),
                  check_ce_maxflow(mu, nu, cs))
    assert len(calls) == 2
    mixed = _atoms(0.0, zip(pts, w[:-1] + [Fraction(1, 3)]))
    _same_verdict(check_ce_maxflow(mixed, nu, cs), _untrimmed(mixed, nu, cs))
    assert len(calls) == 2


def test_frexp_lift_matches_integer_lift_on_random_floats():
    rng = np.random.default_rng(233)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        caps = (rng.random(n) * 2.0 ** rng.integers(-1074, 1000, n)
                * (rng.random(n) > 0.2))
        caps = np.append(caps, rng.choice([0.0, 1.0, 5e-324], 2))
        assert (transport._frexp_lift(caps)
                == transport._integer_lift(caps.tolist()))


# the widest numerator at the int64 shift's bound and past it: 63 bits
# are shifted in int64, 64 and more one Python int at a time (zeros,
# subnormals and integral floats of narrow lifts are in _LIFT_MIXES)
_FREXP_WIDTHS = {
    "62_bits": ([2.0 ** 61, 1.0, 0.0], 62),
    "63_bits": ([(2.0 ** 53 - 1) * 2.0 ** 10, 1.0, 0.0], 63),
    "63_bits_power": ([2.0 ** 62, 1.0, 3.0], 63),
    "63_bits_subnormal": ([(2.0 ** 53 - 1) * 2.0 ** -1064, 5e-324, 0.0],
                          63),
    "64_bits": ([(2.0 ** 53 - 1) * 2.0 ** 11, 1.0], 64),
    "64_bits_power": ([2.0 ** 63, 1.0, 0.0], 64),
    "wide": ([1.7976931348623157e308, 5e-324, 0.25], 2098),
}


@pytest.mark.parametrize("case", sorted(_FREXP_WIDTHS))
def test_frexp_lift_matches_integer_lift_at_every_width(case):
    caps, width = _FREXP_WIDTHS[case]
    den, nums = transport._frexp_lift(np.array(caps))
    assert (den, nums) == transport._integer_lift(caps)
    assert max(nums).bit_length() == width
    assert all(type(n) is int for n in nums)


def test_full_support_born_scan_keeps_few_sources(monkeypatch):
    # the n = 4096 full-support Born pair: 2,995 of mu's cells weigh under
    # 2**-60 of the largest, so lifting them all took 925 bits; the trim
    # keeps the few hundred sources about the worst set
    psi0 = gaussian_packet(1.0, origin=-24.0, cell_size=48 / 4096, n=4096)
    mu = born_measure(psi0, 0.0)
    nu = born_measure(evolve_schrodinger_free(psi0, 1.0), 1.0)
    calls = _spy_trim(monkeypatch)
    lifts = []
    lift = transport._frexp_lift

    def recorded(w):
        den, nums = lift(w)
        lifts.append(max([den, *nums]).bit_length())
        return den, nums

    monkeypatch.setattr(transport, "_frexp_lift", recorded)
    v = check_ce_maxflow(mu, nu, CS1)
    assert not v.holds
    assert calls == [(4096, calls[0][1])] and calls[0][1] <= 500
    assert len(lifts) == 1 and lifts[0] < 128


def test_drained_cloud_takes_no_list_lift(monkeypatch):
    # an 800-atom float cloud of the atoms_2d construction in d = 2: its
    # capacities are lifted from np.frexp, never by `_integer_lift`, and
    # its worst set is the drained atoms as per-point boxes, first come
    # first kept; a drained atom on an axis-1 zero keeps the sign in its
    # lo corner, and its hi corner has -0.0 + 0.0 = 0.0
    dt = 0.4
    mu_pts, nu_pts, weights, drained = helpers.drained_cloud(
        np.random.default_rng(241), 800, dt)
    mu_pts[drained[:3], 1] = -0.0
    mu_pts[drained[3:5], 1] = 0.0

    def unlifted(caps):
        raise AssertionError("float capacities took _integer_lift")

    monkeypatch.setattr(transport, "_integer_lift", unlifted)
    cs = CausalStructure(dim=2, c=1.0)
    v = check_ce_maxflow(SliceMeasure.from_atoms(0.0, zip(mu_pts, weights)),
                         SliceMeasure.from_atoms(dt, zip(nu_pts, weights)),
                         cs)
    assert not v.holds
    want = [(p, tuple(x + 0.0 for x in p))
            for p in map(tuple, mu_pts[drained].tolist())]

    def signed(boxes):
        return [tuple(tuple(x.hex() for x in corner) for corner in box)
                for box in boxes]

    assert signed(v.worst_set.boxes) == signed(want)
