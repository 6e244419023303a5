"""Slice measures: construction, restriction, mixtures, sup-distance."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from causal_lab.measure import (EPS_MASS, SliceMeasure, _aligned_diffs,
                                _is_exact_weight, cellwise_max_difference,
                                mixture, restriction_distance)
from causal_lab.region import Region

ERF_ONE = 0.8427007929497149  # mass of exp(-x^2)/sqrt(pi) on [-1, 1]


def test_atoms_total_and_mass():
    m = SliceMeasure.from_atoms(0.0, [((0.0,), 0.25), ((2.0,), 0.75)])
    assert m.is_atomic and not m.is_grid
    assert m.total == pytest.approx(1.0)
    assert m.mass(Region.interval(-1, 1)) == pytest.approx(0.25)
    assert m.mass(Region.interval(5, 6)) == 0.0
    assert abs(m.total - 1) <= EPS_MASS


def test_atom_on_region_boundary_counts():
    m = SliceMeasure.from_atoms(0.0, [((1.0,), 1.0)])
    assert m.mass(Region.interval(0.0, 1.0)) == pytest.approx(1.0)


def test_negative_and_nan_weights_rejected():
    with pytest.raises(ValueError):
        SliceMeasure.from_atoms(0.0, [((0.0,), -0.1)])
    with pytest.raises(ValueError):
        SliceMeasure.from_atoms(0.0, [((0.0,), float("nan"))])


@pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
def test_slice_time_must_be_finite(time):
    # a time of 1e200 is finite; only its cone radius overflows, later
    with pytest.raises(ValueError, match="^slice time must be finite$"):
        SliceMeasure.from_atoms(time, [((0.0,), 0.5)])
    with pytest.raises(ValueError, match="^slice time must be finite$"):
        SliceMeasure.from_grid(time, (0.0,), 1.0, [0.5, 0.5])
    assert SliceMeasure.from_atoms(1e200, [((0.0,), 0.5)]).time == 1e200
    assert SliceMeasure.from_grid(-1e200, (0.0,), 1.0, [0.5]).time == -1e200


def test_atom_faults_raise_for_the_first_faulty_atom():
    # the bulk checks find faults anywhere; the error is the one the
    # first faulty atom raises, whichever fault comes first
    ok = [((0.0, 0.0), 0.5), ((1.0, 0.0), Fraction(1, 4))]
    faults = {
        "atom positions must be finite": ((math.inf, 0.0), 0.1),
        "duplicate atom position": ((0.0, 0.0), 0.1),
        "weights must be finite and nonnegative": ((2.0, 0.0), -0.1),
        "weights must be nonnegative": ((3.0, 0.0), Fraction(-1, 3)),
        "could not convert": (("x", 0.0), 0.1),
    }
    for (m1, a1), (m2, a2) in itertools.permutations(faults.items(), 2):
        for given in (ok + [a1, a2], iter(ok + [a1, a2])):
            with pytest.raises(ValueError, match=m1):
                SliceMeasure.from_atoms(0.0, given)
        with pytest.raises(ValueError, match=m2):
            SliceMeasure.from_atoms(0.0, ok + [a2, a1])
    # one fault alone, after many clean atoms
    many = [((float(i), 0.5), 0.25) for i in range(100)]
    with pytest.raises(ValueError, match=r"duplicate atom position \(7.0"):
        SliceMeasure.from_atoms(0.0, many + [((7.0, 0.5), 0.1)])
    with pytest.raises(ValueError, match="finite and nonnegative"):
        SliceMeasure.from_atoms(0.0, many + [((-1.0, 0.5), math.nan)])


def test_bulk_checked_atoms_are_the_loop_ones():
    # positions as floats in one tuple each, weights as given, in order
    atoms = [((1, 2), 0.5), ([0.5, np.float64(3)], Fraction(1, 3)),
             ((np.int64(4), True), 0), ((-0.0, 5.0), np.float64(0.25))]
    m = SliceMeasure.from_atoms(1.0, iter(atoms))
    assert m.atoms == tuple(SliceMeasure._checked_atoms(atoms))
    assert [type(v) for p, _ in m.atoms for v in p] == [float] * 8
    assert [w for _, w in m.atoms] == [w for _, w in atoms]
    assert math.copysign(1.0, m.atoms[3][0][0]) == -1.0
    with pytest.raises(ValueError, match="inconsistent"):
        SliceMeasure.from_atoms(0.0, [((0.0,), 0.5), ((1.0, 0.0), 0.5)])


def test_grid_gaussian_matches_error_function():
    n, half = 2048, 8.0
    h = 2 * half / n
    centers = -half + (np.arange(n) + 0.5) * h
    density = np.exp(-centers**2) / math.sqrt(math.pi)
    m = SliceMeasure.from_grid(0.0, (-half,), h, density * h)
    assert m.is_grid
    assert float(m.total) == pytest.approx(1.0, rel=1e-6)
    assert float(m.mass(Region.interval(-1, 1))) == pytest.approx(ERF_ONE,
                                                                  rel=1e-3)


def test_grid_mass_uses_cell_centers():
    m = SliceMeasure.from_grid(0.0, (0.0,), 1.0, np.array([1.0, 2.0, 4.0]))
    # centers sit at 0.5, 1.5, 2.5
    assert float(m.mass(Region.interval(0.0, 1.0))) == pytest.approx(1.0)
    assert float(m.mass(Region.interval(1.0, 3.0))) == pytest.approx(6.0)


def test_restricted_keeps_slice_and_drops_outside():
    m = SliceMeasure.from_atoms(1.0, [((0.0,), 0.5), ((3.0,), 0.5)])
    r = m.restricted(Region.interval(-1, 1))
    assert r.time == 1.0
    assert r.total == pytest.approx(0.5)
    assert r.mass(Region.interval(2, 4)) == 0.0


def test_mixture_is_cellwise_convex_combination():
    plus = SliceMeasure.from_atoms(1.0, [((0.0,), 1.0)])
    minus = SliceMeasure.from_atoms(1.0, [((0.0,), 0.5), ((2.0,), 0.5)])
    mix = mixture(0.25, plus, minus)
    assert mix.mass(Region.interval(-0.5, 0.5)) == pytest.approx(0.625)
    assert mix.mass(Region.interval(1.5, 2.5)) == pytest.approx(0.375)
    assert mix.total == pytest.approx(1.0)


def test_mixture_exact_fractions():
    plus = SliceMeasure.from_atoms(1.0, [((0.0,), Fraction(1))])
    minus = SliceMeasure.from_atoms(1.0, [((1.0,), Fraction(1))])
    mix = mixture(Fraction(1, 3), plus, minus)
    assert mix.exact
    assert mix.mass(Region.interval(-0.1, 0.1)) == Fraction(1, 3)
    assert mix.total == Fraction(1)


def test_mixture_time_mismatch_rejected():
    a = SliceMeasure.from_atoms(0.0, [((0.0,), 1.0)])
    b = SliceMeasure.from_atoms(1.0, [((0.0,), 1.0)])
    with pytest.raises(ValueError):
        mixture(0.5, a, b)


# -- the support merge against the per-function merges it replaced ---------

def _old_mixture(p, m_plus, m_minus):
    """`mixture`'s weights as its own dict merge computed them."""
    if m_plus.is_grid:
        pf = float(p)
        return pf * m_plus.grid_weights + (1.0 - pf) * m_minus.grid_weights
    acc = {}
    for pos, w in m_plus.atoms:
        acc[pos] = acc.get(pos, 0) + p * w
    q = 1 - p
    for pos, w in m_minus.atoms:
        acc[pos] = acc.get(pos, 0) + q * w
    return list(acc.items())


def _old_aligned_diffs(m1, m2):
    """`_aligned_diffs` as its own dict merge computed it."""
    if m1.is_grid:
        return (m1.positions,
                (m1.grid_weights - m2.grid_weights).reshape(-1))
    acc = {}
    for pos, w in m1.atoms:
        acc[pos] = acc.get(pos, 0) + w
    for pos, w in m2.atoms:
        acc[pos] = acc.get(pos, 0) - w
    return (np.array(list(acc), dtype=float).reshape(-1, m1.dim),
            list(acc.values()))


def _bits(weights):
    """Type and value of each weight, floats to the last bit."""
    return [(type(w), w.hex() if isinstance(w, float) else w)
            for w in weights]


def _random_pair(rng, kind, dim):
    """Two measures on one slice; atoms share some lattice points."""
    if kind == "grid":
        shape = tuple(int(v) for v in rng.integers(1, 6, dim))
        return [SliceMeasure.from_grid(
            1.0, (-1.0,) * dim, 0.25,
            rng.random(shape) * (rng.random(shape) > 0.2)) for _ in "ab"]
    lattice = [tuple(0.5 * v for v in c)
               for c in itertools.product(range(-2, 3), repeat=dim)]

    def atoms(exact):
        n = int(rng.integers(0, min(8, len(lattice)) + 1))
        chosen = rng.choice(len(lattice), size=n, replace=False).tolist()
        weights = [Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 9)))
                   if exact else float(rng.random()) * (rng.random() > 0.2)
                   for _ in chosen]
        return SliceMeasure.from_atoms(
            1.0, [(lattice[i], w) for i, w in zip(chosen, weights)], dim)

    return atoms(kind == "fraction"), atoms(kind in ("fraction", "mixed"))


MERGE_KINDS = ("float", "fraction", "mixed", "grid")


@pytest.mark.parametrize("kind", MERGE_KINDS)
def test_support_merge_is_bit_identical_to_old_merges(kind):
    shared = unshared = 0
    for seed in range(40):
        rng = np.random.default_rng([seed, MERGE_KINDS.index(kind)])
        dim = 1 + seed % 2
        m1, m2 = _random_pair(rng, kind, dim)
        for p in (float(rng.random()), Fraction(int(rng.integers(0, 8)), 7)):
            mix, want = mixture(p, m1, m2), _old_mixture(p, m1, m2)
            if kind == "grid":
                assert mix.grid_weights.shape == want.shape
                assert mix.grid_weights.tobytes() == want.tobytes()
            else:
                assert [x for x, _ in mix.atoms] == [x for x, _ in want]
                assert _bits(w for _, w in mix.atoms) == _bits(w for _, w in want)
        (got_pos, got), (want_pos, want) = (_aligned_diffs(m1, m2),
                                            _old_aligned_diffs(m1, m2))
        assert got_pos.shape == want_pos.shape
        assert got_pos.tobytes() == want_pos.tobytes()
        if kind == "grid":
            assert isinstance(got, np.ndarray)
            assert got.tobytes() == want.tobytes()
        else:
            assert _bits(got) == _bits(want)
            both = {x for x, _ in m1.atoms} & {x for x, _ in m2.atoms}
            shared += len(both)
            unshared += len(got) - len(both)
    assert kind == "grid" or (shared > 0 and unshared > 0)


def test_merge_rejects_mismatched_grid_geometry():
    atoms = SliceMeasure.from_atoms(1.0, [((0.0,), 1.0)])
    grid = SliceMeasure.from_grid(1.0, (0.0,), 0.5, np.ones(4))
    shifted = SliceMeasure.from_grid(1.0, (0.1,), 0.5, np.ones(4))
    for m1, m2 in ((atoms, grid), (grid, atoms), (grid, shifted)):
        with pytest.raises(ValueError, match="share geometry"):
            mixture(0.5, m1, m2)
        with pytest.raises(ValueError, match="share geometry"):
            _aligned_diffs(m1, m2)


def test_scaled():
    m = SliceMeasure.from_atoms(0.0, [((0.0,), 0.5), ((1.0,), 0.5)])
    assert m.scaled(2.0).total == pytest.approx(2.0)
    assert m.scaled(Fraction(1, 2)).mass(Region.interval(-1, 2)) == pytest.approx(0.5)


def test_point_boxes_wrap_grid_cells():
    m = SliceMeasure.from_grid(0.0, (0.0,), 0.5, np.array([1.0, 1.0, 1.0, 1.0]))
    r = Region.point_boxes(m.positions[[1, 2]], m.dim,
                           halfwidth=m.cell_halfwidth)
    assert r.contains((0.75,)) and r.contains((1.25,))
    assert not r.contains((0.25,)) and not r.contains((1.9,))


def test_cell_halfwidth():
    grid = SliceMeasure.from_grid(0.0, (0.0,), 0.5, np.ones(4))
    atoms = SliceMeasure.from_atoms(0.0, [((0.0,), 1.0)])
    assert grid.cell_halfwidth == 0.25 and atoms.cell_halfwidth == 0.0


def test_point_boxes_on_atom_positions_give_points():
    m = SliceMeasure.from_atoms(0.0, [((0.0,), 0.5), ((2.0,), 0.5)])
    r = Region.point_boxes(m.positions[[1]], m.dim,
                           halfwidth=m.cell_halfwidth)
    assert r.contains((2.0,)) and not r.contains((0.0,))


def test_grid_compatible():
    a = SliceMeasure.from_grid(0.0, (0.0,), 0.5, np.ones(4))
    b = SliceMeasure.from_grid(0.0, (0.0,), 0.5, np.ones(4))
    c = SliceMeasure.from_grid(0.0, (0.1,), 0.5, np.ones(4))
    assert a.grid_compatible(b)
    assert not a.grid_compatible(c)


def test_restriction_distance_hand_case():
    m1 = SliceMeasure.from_atoms(1.0, [((0.0,), 0.5), ((2.0,), 0.3), ((4.0,), 0.2)])
    m2 = SliceMeasure.from_atoms(1.0, [((0.0,), 0.1), ((2.0,), 0.6), ((4.0,), 0.3)])
    masked = Region.interval(-1.0, 1.0)
    # off the mask the gaps are -0.3 at 2 and -0.1 at 4; 0 is excluded
    assert restriction_distance(m1, m2, masked) == pytest.approx(0.4)
    # with nothing masked the positive side (+0.4 at 0) ties the negative
    assert restriction_distance(m1, m2, Region.empty(1)) == pytest.approx(0.4)


@pytest.mark.parametrize("seed", range(6))
def test_restriction_distance_matches_subset_oracle(seed):
    rng = np.random.default_rng(seed)
    pts = sorted(rng.uniform(-3, 3, size=7))
    w1 = rng.random(7)
    w2 = rng.random(7)
    m1 = SliceMeasure.from_atoms(0.0, [((p,), w) for p, w in zip(pts, w1)])
    m2 = SliceMeasure.from_atoms(0.0, [((p,), w) for p, w in zip(pts, w2)])
    mask = Region.interval(-1.0, 0.5)
    outside = [i for i, p in enumerate(pts) if not mask.contains((p,))]
    best = 0.0
    for r in range(1, len(outside) + 1):
        for combo in itertools.combinations(outside, r):
            reg = Region.point_boxes([(pts[i],) for i in combo])
            best = max(best, abs(float(m1.mass(reg)) - float(m2.mass(reg))))
    assert float(restriction_distance(m1, m2, mask)) == pytest.approx(best)


def test_restriction_distance_grid_pair():
    w1 = np.array([0.1, 0.4, 0.3, 0.2])
    w2 = np.array([0.2, 0.1, 0.3, 0.4])
    m1 = SliceMeasure.from_grid(0.0, (0.0,), 1.0, w1)
    m2 = SliceMeasure.from_grid(0.0, (0.0,), 1.0, w2)
    mask = Region.interval(0.0, 1.0)  # hides only the first cell center
    assert float(restriction_distance(m1, m2, mask)) == pytest.approx(0.3)


def test_cellwise_max_difference():
    m1 = SliceMeasure.from_atoms(0.0, [((0.0,), 0.5), ((1.0,), 0.5)])
    m2 = SliceMeasure.from_atoms(0.0, [((0.0,), 0.45), ((1.0,), 0.55)])
    assert cellwise_max_difference(m1, m2) == pytest.approx(0.05)


def test_exact_totals_stay_fractions():
    m = SliceMeasure.from_atoms(0.0, [((0.0,), Fraction(1, 3)),
                                      ((1.0,), Fraction(2, 3))])
    assert m.exact
    assert m.total == Fraction(1)
    assert isinstance(m.mass(Region.interval(-1, 2)), Fraction)


def test_all_float_means_every_weight_is_a_binary_float():
    def atoms(*ws):
        return SliceMeasure.from_atoms(
            0.0, [((float(i),), w) for i, w in enumerate(ws)], dim=1)

    assert atoms(0.5, 0.0, np.float64(0.25)).all_float
    assert atoms().all_float
    grid = SliceMeasure.from_grid(0.0, (0.0,), 1.0, np.array([1, 0]))
    assert grid.all_float and not grid.exact
    for odd in (Fraction(1, 2), 0, True):
        assert not atoms(0.5, odd).all_float


def test_exact_weights_are_the_rationals():
    exact = (True, False, 0, 3, np.int64(2), np.uint8(1), Fraction(1, 3))
    inexact = (0.5, 0.0, -0.0, np.float64(0.25), np.float32(0.5),
               np.float16(1.0))
    assert all(_is_exact_weight(w) for w in exact)
    assert not any(_is_exact_weight(w) for w in inexact)
    for w in exact + inexact:
        m = SliceMeasure.from_atoms(0.0, [((0.0,), w)])
        assert m.exact is _is_exact_weight(w)
