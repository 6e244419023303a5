"""Region algebra: normalization, membership, dilation, serialization."""

import math

import numpy as np
import pytest

from causal_lab.measure import SliceMeasure
from causal_lab.region import Region, _as_box, _subtract_box
from causal_lab.spacetime import CausalStructure
from causal_lab.transport import check_ce_maxflow, recompute_deficit


def test_interval_basic_membership():
    r = Region.interval(-1.0, 2.0)
    assert r.dim == 1
    assert r.contains((0.0,))
    assert r.contains((-1.0,)) and r.contains((2.0,))  # closed boundaries
    assert not r.contains((2.0000001,))


def test_from_boxes_merges_overlaps_1d():
    r = Region.from_boxes([((0.0,), (1.0,)), ((0.5,), (2.0,)), ((3.0,), (4.0,))])
    assert len(r.boxes) == 2
    assert r.contains((1.5,)) and r.contains((3.5,))
    assert not r.contains((2.5,))


def test_adjacent_intervals_merge():
    r = Region.from_boxes([((0.0,), (1.0,)), ((1.0,), (2.0,))])
    assert len(r.boxes) == 1
    assert r.bounding_box() == ((0.0,), (2.0,))


def test_disjointify_2d_overlap():
    r = Region.from_boxes([((0.0, 0.0), (2.0, 2.0)), ((1.0, 1.0), (3.0, 3.0))])
    # total area must count the overlap once
    area = sum((b[1][0] - b[0][0]) * (b[1][1] - b[0][1]) for b in r.boxes)
    assert area == pytest.approx(7.0)
    assert r.contains((2.5, 2.5)) and r.contains((0.5, 0.5))
    assert not r.contains((0.5, 2.5))


def test_degenerate_point_boxes():
    r = Region.point_boxes([(0.0,), (1.5,)])
    assert r.contains((0.0,)) and r.contains((1.5,))
    assert not r.contains((0.7,))


def test_empty_region():
    r = Region.empty(2)
    assert r.is_empty
    assert not r.contains((0.0, 0.0))
    assert r.union(Region.from_boxes([((0.0, 0.0), (1.0, 1.0))])).contains((0.5, 0.5))


def test_contains_points_matches_scalar():
    rng = np.random.default_rng(5)
    r = Region.from_boxes([((-1.0, -1.0), (0.5, 0.5)), ((1.0, 1.0), (2.0, 2.0))])
    pts = rng.uniform(-2, 3, size=(200, 2))
    mask = r.contains_points(pts)
    for p, m in zip(pts, mask):
        assert m == r.contains(tuple(p))


def test_expand_interval_exact():
    r = Region.interval(-1.0, 1.0).expand(0.25)
    assert r.bounding_box() == ((-1.25,), (1.25,))


def test_expand_merges_nearby_boxes():
    r = Region.from_boxes([((0.0,), (1.0,)), ((1.5,), (2.0,))]).expand(0.3)
    assert len(r.boxes) == 1


def test_expand_zero_is_identity():
    r = Region.from_boxes([((0.0, 0.0), (1.0, 2.0))])
    assert r.expand(0.0).equals(r)


def test_sup_distance():
    r = Region.from_boxes([((0.0, 0.0), (1.0, 1.0))])
    assert r.sup_distance((0.5, 0.5)) == 0.0
    assert r.sup_distance((2.0, 0.5)) == pytest.approx(1.0)
    assert r.sup_distance((2.0, 3.0)) == pytest.approx(2.0)


def test_union_and_covers():
    a = Region.interval(0.0, 1.0)
    b = Region.interval(2.0, 3.0)
    u = a.union(b)
    assert u.covers(a) and u.covers(b)
    assert not a.covers(u)
    assert u.equals(b.union(a))


def test_covers_needs_full_containment():
    outer = Region.interval(0.0, 10.0)
    inner = Region.from_boxes([((1.0,), (2.0,)), ((8.0,), (9.0,))])
    straddle = Region.interval(9.0, 11.0)
    assert outer.covers(inner)
    assert not outer.covers(straddle)


@pytest.mark.parametrize("seed", range(4))
def test_sample_points_inside_and_dense(seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-3, 0, size=2)
    hi = lo + rng.uniform(0.5, 2.0, size=2)
    r = Region.from_boxes([(tuple(lo), tuple(hi))])
    res = 0.2
    pts = r.sample_points(res)
    assert len(pts) > 0
    assert r.contains_points(pts).all()
    # every corner has a sample within one resolution step in sup norm
    for corner in (lo, hi, (lo[0], hi[1]), (hi[0], lo[1])):
        gap = np.abs(pts - np.asarray(corner)).max(axis=1).min()
        assert gap <= res + 1e-12


def test_json_round_trip():
    r = Region.from_boxes([((0.0, -1.0), (1.0, 1.0)), ((2.0, 2.0), (3.0, 4.0))])
    again = Region.from_json(r.to_json())
    assert again.equals(r)


def test_from_json_rejects_mixed_dims():
    with pytest.raises(ValueError):
        Region.from_json([[[0.0], [1.0]], [[0.0, 0.0], [1.0, 1.0]]])


def test_inverted_box_rejected():
    with pytest.raises(ValueError):
        Region.from_boxes([((1.0,), (0.0,))])


# -- the prefiltered carve against the full O(B^2) carve ----------------------

def _oracle_disjointify(boxes):
    """The full carve: every box against every fragment accepted before it."""
    out = []
    for box in boxes:
        frags = [box]
        for existing in out:
            frags = [p for f in frags for p in _subtract_box(f, existing)]
            if not frags:
                break
        out.extend(frags)
    return tuple(out)


def _oracle_covers(self, other):
    """The full carve of each of `other`'s boxes by all of `self`'s."""
    for box in other.boxes:
        frags = [box]
        for mine in self.boxes:
            frags = [p for f in frags for p in _subtract_box(f, mine)]
            if not frags:
                break
        if frags:
            return False
    return True


_LATTICE = np.arange(7) * 0.5


def _random_box(rng, dim, earlier):
    """One box of a mix that makes degenerate, face-sharing, nested,
    duplicate and ulp-overlapping boxes common."""
    kind = rng.integers(6)
    if kind == 0 or not earlier:  # lattice corners: shared faces, lo == hi
        ends = np.sort(rng.choice(_LATTICE, size=(dim, 2)), axis=1)
        return _as_box(ends[:, 0], ends[:, 1])
    if kind == 1:  # duplicate of an earlier box
        return earlier[rng.integers(len(earlier))]
    if kind == 2:  # nested in an earlier box, sometimes flush with a face
        lo, hi = map(np.asarray, earlier[rng.integers(len(earlier))])
        t = np.sort(rng.choice([0.0, 0.25, 0.5, 1.0], size=(dim, 2)), axis=1)
        return _as_box(lo + t[:, 0] * (hi - lo), lo + t[:, 1] * (hi - lo))
    if kind == 3:  # grid cell v +- h: neighbours overlap or gap by an ulp
        h = rng.choice([0.1, 1.0 / 3.0, 0.25])
        v = -0.7 + (rng.integers(0, 6, size=dim) + 0.5) * 2 * h
        return _as_box(v - h, v + h)
    if kind == 4:  # a point: a lattice point or a corner of an earlier box
        if rng.random() < 0.5:
            p = rng.choice(_LATTICE, size=dim)
        else:
            lo, hi = earlier[rng.integers(len(earlier))]
            p = np.where(rng.random(dim) < 0.5, lo, hi)
        return _as_box(p, p)
    lo = rng.uniform(-1.0, 3.0, size=dim)
    return _as_box(lo, lo + rng.uniform(0.0, 1.5, size=dim))


def _random_box_set(rng, dim):
    boxes = []
    for _ in range(rng.integers(1, 13)):
        boxes.append(_random_box(rng, dim, boxes))
    return boxes


@pytest.mark.parametrize("seed", range(25))
def test_carve_matches_full_carve(seed):
    rng = np.random.default_rng([seed, 31])
    for trial in range(100):
        dim = 2 + trial % 2
        boxes = _random_box_set(rng, dim)
        region = Region.from_boxes(boxes)
        assert region.boxes == _oracle_disjointify(boxes)
        # covers: against itself, a piece of its input, and a fresh set
        part = [boxes[i] for i in range(len(boxes)) if rng.random() < 0.5]
        fresh = _random_box_set(rng, dim)
        for other in (region, Region.from_boxes(part, dim),
                      Region.from_boxes(fresh, dim), Region.empty(dim)):
            assert region.covers(other) == _oracle_covers(region, other)
            assert other.covers(region) == _oracle_covers(other, region)


@pytest.mark.parametrize("seed", range(2))
def test_failing_cloud_worst_set_is_the_drained_atoms(seed):
    # the atoms_2d construction: nu is mu pushed inside each atom's cone,
    # except for 3/4 of the atoms, in a box of their own, whose nu atoms
    # are sent far away; their cones are empty and every other atom can
    # ship all its mass, so the min cut is exactly the drained atoms
    rng = np.random.default_rng([seed, 47])
    k, k_drained, dt = 400, 300, 0.4
    # about five cone neighbours per kept atom
    side = (np.pi * dt ** 2 * (k - k_drained) / 5.0) ** 0.5
    mu_pts = rng.uniform(-side / 2, side / 2, (k, 2))
    mu_pts[k - k_drained:, 0] += side + 2.0 * dt
    step = rng.normal(size=(k, 2))
    step /= np.linalg.norm(step, axis=1)[:, None]
    nu_pts = mu_pts + 0.95 * dt * rng.random((k, 1)) * step
    drained = np.arange(k - k_drained, k)
    nu_pts[drained, 0] = 1.0e3 + np.arange(k_drained)
    weights = rng.random(k) + 0.05
    weights /= weights.sum()
    mu = SliceMeasure.from_atoms(0.0, zip(mu_pts, weights))
    nu = SliceMeasure.from_atoms(dt, zip(nu_pts, weights))
    cs = CausalStructure(dim=2, c=1.0)
    v = check_ce_maxflow(mu, nu, cs)
    assert not v.holds
    drained_pts = [tuple(float(x) for x in p) for p in mu_pts[drained]]
    assert v.worst_set.boxes == tuple((p, p) for p in drained_pts)
    assert v.deficit == pytest.approx(math.fsum(weights[drained]), abs=1e-12)
    assert recompute_deficit(mu, nu, v.worst_set, cs) == pytest.approx(
        v.deficit, abs=1e-12)


def _oracle_sup_distance(region, point):
    """The per-box loop `sup_distance` used before it was vectorised."""
    if region.is_empty:
        return math.inf
    best = math.inf
    for lo, hi in region.boxes:
        d = 0.0
        for a, b, x in zip(lo, hi, point):
            d = max(d, a - x, x - b)
        best = min(best, d)
    return max(best, 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sup_distance_matches_loop(dim):
    rng = np.random.default_rng([dim, 53])
    zeros = 0
    for _ in range(100):
        region = Region.from_boxes(_random_box_set(rng, dim))
        lo, hi = region.corners
        pts = np.concatenate([lo, hi, np.nextafter(lo, -np.inf),
                              np.nextafter(hi, np.inf),
                              rng.uniform(-2.0, 4.0, size=(20, dim))])
        for p in pts.tolist():
            got, want = region.sup_distance(p), _oracle_sup_distance(region, p)
            assert got == want and math.copysign(1, got) == 1
            assert type(got) is float
            zeros += got == 0.0
    assert zeros > 500
    assert Region.empty(dim).sup_distance((0.0,) * dim) == math.inf
