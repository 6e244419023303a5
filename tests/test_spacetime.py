"""Causal order, cones on slices, and boost kinematics."""

import numpy as np
import pytest

from causal_lab import region as region_module
from causal_lab import spacetime
from causal_lab.conditions import make_abc_scenario
from causal_lab.measure import SliceMeasure
from causal_lab.protocol import (ABC_LATTICE, _sender_reach,
                                 make_annulus_scenario)
from causal_lab.region import Region
from causal_lab.spacetime import (EPS_CAUSAL, BoostedFrame, CausalStructure,
                                  Event, SliceFuture, boost,
                                  causal_future_on_slice,
                                  causally_precedes, chronologically_precedes,
                                  cone_blocks, interval_squared, inverse,
                                  point_cone_membership, region_precedes_event,
                                  spacelike_separated)
from causal_lab.transport import _cone_bits, build_flow_network

CS1 = CausalStructure(dim=1, c=1.0)
CS2 = CausalStructure(dim=2, c=1.0)


def test_order_basics():
    o = Event.of(0.0, 0.0)
    assert causally_precedes(o, Event.of(1.0, 0.5), CS1)
    assert causally_precedes(o, Event.of(1.0, 1.0), CS1)  # lightlike counts
    assert not causally_precedes(o, Event.of(1.0, 1.1), CS1)
    assert not causally_precedes(Event.of(1.0, 0.0), o, CS1)
    assert chronologically_precedes(o, Event.of(1.0, 0.5), CS1)
    assert not chronologically_precedes(o, Event.of(1.0, 1.0), CS1)
    assert spacelike_separated(o, Event.of(0.5, 2.0), CS1)


def test_order_respects_speed():
    fast = CausalStructure(dim=1, c=3.0)
    a, b = Event.of(0.0, 0.0), Event.of(1.0, 2.0)
    assert not causally_precedes(a, b, CS1)
    assert causally_precedes(a, b, fast)


def test_order_transitive_on_samples():
    rng = np.random.default_rng(2)
    events = [Event(float(t), (float(x), float(y)))
              for t, x, y in rng.uniform(-2, 2, size=(40, 3))]
    for a in events[:10]:
        for b in events:
            for c_ev in events[:10]:
                if (causally_precedes(a, b, CS2)
                        and causally_precedes(b, c_ev, CS2)):
                    assert causally_precedes(a, c_ev, CS2)


def test_interval_sign_convention():
    o = Event.of(0.0, 0.0)
    assert interval_squared(o, Event.of(1.0, 0.0), CS1) > 0  # timelike
    assert interval_squared(o, Event.of(0.0, 1.0), CS1) < 0  # spacelike
    assert interval_squared(o, Event.of(1.0, 1.0), CS1) == pytest.approx(0.0)


@pytest.mark.parametrize("seed", range(8))
def test_boost_preserves_interval(seed):
    rng = np.random.default_rng(seed)
    v = float(rng.uniform(-0.95, 0.95))
    frame = BoostedFrame(v=v)
    a = Event(float(rng.uniform(-3, 3)), (float(rng.uniform(-3, 3)),))
    b = Event(float(rng.uniform(-3, 3)), (float(rng.uniform(-3, 3)),))
    s_lab = interval_squared(a, b, CS1)
    s_mov = interval_squared(boost(a, frame, CS1), boost(b, frame, CS1), CS1)
    assert s_mov == pytest.approx(s_lab, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_boost_round_trip_identity(seed):
    rng = np.random.default_rng(100 + seed)
    frame = BoostedFrame(v=float(rng.uniform(-0.9, 0.9)))
    e = Event(float(rng.uniform(-2, 2)), (float(rng.uniform(-2, 2)),))
    back = boost(boost(e, frame, CS1), inverse(frame), CS1)
    assert back.t == pytest.approx(e.t, rel=1e-12, abs=1e-12)
    assert back.x[0] == pytest.approx(e.x[0], rel=1e-12, abs=1e-12)


def test_boost_zero_velocity_identity():
    e = Event.of(1.5, -0.25)
    out = boost(e, BoostedFrame(v=0.0), CS1)
    assert out.t == e.t and out.x == e.x


@pytest.mark.parametrize("seed", range(6))
def test_boost_preserves_timelike_order(seed):
    rng = np.random.default_rng(300 + seed)
    frame = BoostedFrame(v=float(rng.uniform(-0.9, 0.9)))
    a = Event(0.0, (float(rng.uniform(-1, 1)),))
    dt = float(rng.uniform(0.5, 2.0))
    b = Event(a.t + dt, (a.x[0] + rng.uniform(-0.99, 0.99) * dt,))
    assert chronologically_precedes(a, b, CS1)
    assert chronologically_precedes(boost(a, frame, CS1),
                                    boost(b, frame, CS1), CS1)


def test_boost_rejects_superluminal_frame():
    with pytest.raises(ValueError):
        boost(Event.of(0.0, 0.0), BoostedFrame(v=1.0), CS1)


def test_future_on_slice_zero_dt_is_identity():
    r = Region.from_boxes([((-1.0,), (0.5,)), ((2.0,), (3.0,))])
    assert causal_future_on_slice(r, 0.0, CS1).equals(r)


def test_future_on_slice_dilates_by_ct():
    r = Region.interval(-1.0, 1.0)
    out = causal_future_on_slice(r, 2.0, CausalStructure(dim=1, c=0.5))
    assert out.bounding_box() == ((-2.0,), (2.0,))


def test_future_on_slice_merges_boxes():
    r = Region.from_boxes([((-1.0,), (0.0,)), ((1.0,), (2.0,))])
    assert len(causal_future_on_slice(r, 1.0, CS1).boxes) == 1


def test_future_on_slice_negative_dt_rejected():
    with pytest.raises(ValueError):
        causal_future_on_slice(Region.interval(0, 1), -0.5, CS1)


@pytest.mark.parametrize("seed", range(5))
def test_point_cone_matches_event_order(seed):
    rng = np.random.default_rng(700 + seed)
    dim = 2
    cs = CausalStructure(dim=dim, c=float(rng.uniform(0.5, 2.0)))
    dt = float(rng.uniform(0.0, 2.0))
    src = rng.uniform(-2, 2, size=(4, dim))
    tgt = rng.uniform(-4, 4, size=(60, dim))
    mask = point_cone_membership(src, dt, cs, tgt)
    for j, p in enumerate(tgt):
        expect = any(
            causally_precedes(Event(0.0, tuple(s)), Event(dt, tuple(p)), cs)
            for s in src)
        assert mask[j] == expect


def test_region_precedes_event():
    r = Region.interval(-1.0, 1.0)
    assert region_precedes_event(r, 0.0, Event.of(1.0, 1.8), CS1)
    assert not region_precedes_event(r, 0.0, Event.of(1.0, 2.2), CS1)
    assert not region_precedes_event(r, 0.0, Event.of(-1.0, 0.0), CS1)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        causally_precedes(Event.of(0.0, 0.0), Event(1.0, (0.0, 0.0)), CS1)


# -- one cone kernel against the separate kernels it replaced ------------------
# The oracles below are the earlier per-caller cone tests, kept verbatim:
# the flow graph's CSR builder, the protocol's open-cone reach matrix, the
# closed-cone mask, and brute force's per-atom bitset loop.


def _oracle_cone_edges(left_pts: np.ndarray, right_pts: np.ndarray,
                       reach: float):
    """CSR adjacency from each left point to right points within `reach`."""
    n = len(left_pts)
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
    chunks = []
    counts = np.zeros(n, dtype=np.int64)
    step = max(1, int(4e6 // max(len(right_pts), 1)))
    r2 = reach * reach
    for start in range(0, n, step):
        block = left_pts[start:start + step]
        diff = right_pts[None, :, :] - block[:, None, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        hit = d2 <= r2
        counts[start:start + step] = hit.sum(axis=1)
        chunks.append(np.nonzero(hit)[1].astype(np.int64))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return indptr, indices


def _oracle_chronological_reach(sources: np.ndarray, targets: np.ndarray,
                                dt: float, cs: CausalStructure) -> np.ndarray:
    """Boolean (n_sources, n_targets): strictly inside the open cone."""
    diff = targets[None, :, :] - sources[:, None, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    strict = max(cs.c * (dt - EPS_CAUSAL), 0.0)
    return d2 < strict * strict


def _oracle_point_cone_membership(sources: np.ndarray, dt: float,
                                  cs: CausalStructure,
                                  targets: np.ndarray) -> np.ndarray:
    if dt < 0:
        raise ValueError("slice separation must be nonnegative")
    src = np.atleast_2d(np.asarray(sources, dtype=float))
    tgt = np.atleast_2d(np.asarray(targets, dtype=float))
    if src.shape[0] == 0:
        return np.zeros(tgt.shape[0], dtype=bool)
    reach = cs.c * (dt + EPS_CAUSAL)
    hit = np.zeros(tgt.shape[0], dtype=bool)
    # blocks of sources keep the pairwise arrays near 4e6 entries
    step = max(1, int(4e6 // max(tgt.shape[0], 1)))
    for start in range(0, src.shape[0], step):
        diff = tgt[None, :, :] - src[start:start + step, None, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        hit |= np.any(dist2 <= reach * reach, axis=0)
    return hit


def _oracle_cone_bits(mu_pts, dt, cs, nu_pts):
    n = len(mu_pts)
    reach_mask = [_oracle_point_cone_membership(mu_pts[i:i + 1], dt, cs,
                                                nu_pts)
                  for i in range(n)]
    cone_bits = []
    for mask in reach_mask:
        bits = 0
        for j in np.nonzero(mask)[0]:
            bits |= 1 << int(j)
        cone_bits.append(bits)
    return cone_bits


def _point_set(rng, k: int, dim: int, lattice: bool) -> np.ndarray:
    """k distinct points; quarter-lattice points put many pairs on the edge."""
    if lattice:
        side = {1: 81, 2: 17, 3: 7}[dim]
        cells = rng.choice(side ** dim, size=k, replace=False)
        idx = np.stack(np.unravel_index(cells, (side,) * dim), axis=1)
        return (idx - side // 2) / 4.0
    return rng.uniform(-2.0, 2.0, size=(k, dim))


def _with_slack_targets(src: np.ndarray, tgt: np.ndarray, c: float,
                        dt: float) -> np.ndarray:
    """Add targets on the cone edge of src[0] and within the slack of it."""
    if not len(src) or not len(tgt):
        return tgt
    offsets = [c * (dt + EPS_CAUSAL), max(c * (dt - EPS_CAUSAL), 0.0), c * dt,
               c * (dt + EPS_CAUSAL / 2), c * (dt - EPS_CAUSAL / 2)]
    edge = np.repeat(src[:1], len(offsets), axis=0)
    edge[:, 0] += offsets
    return np.unique(np.vstack([tgt, edge]), axis=0)


def _atoms(time: float, pts: np.ndarray, dim: int) -> SliceMeasure:
    return SliceMeasure.from_atoms(time, [(p, 1.0) for p in pts.tolist()],
                                   dim=dim)


SIZES = [(0, 7), (7, 0), (0, 0), (1, 1), (5, 40), (40, 60)]


@pytest.mark.parametrize("block", [None, 1, 150])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cone_kernel_matches_replaced_kernels(dim, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(spacetime, "CONE_BLOCK_PAIRS", block)
    rng = np.random.default_rng(900 + dim)
    edge_pairs = 0
    for lattice in (True, False):
        for c in (1.0, 2.0):
            cs = CausalStructure(dim=dim, c=c)
            for dt in (0.0, 0.25, 1.0):
                for k, n in SIZES:
                    src = _point_set(rng, k, dim, lattice)
                    tgt = _with_slack_targets(
                        src, _point_set(rng, n, dim, lattice), c, dt)
                    reach = c * (dt + EPS_CAUSAL)

                    net = build_flow_network(_atoms(0.0, src, dim),
                                             _atoms(dt, tgt, dim), cs)
                    indptr, indices = _oracle_cone_edges(src, tgt, reach)
                    assert np.array_equal(net.left_points, src)
                    assert net.edge_indptr.dtype == indptr.dtype
                    assert net.edge_indices.dtype == indices.dtype
                    assert np.array_equal(net.edge_indptr, indptr)
                    assert np.array_equal(net.edge_indices, indices)

                    assert np.array_equal(
                        point_cone_membership(src, dt, cs, tgt),
                        _oracle_point_cone_membership(src, dt, cs, tgt))
                    assert (_cone_bits(src, dt, cs, tgt)
                            == _oracle_cone_bits(src, dt, cs, tgt))

                    blocks = list(cone_blocks(src, dt, cs, tgt,
                                              open_cone=True))
                    if block == 1 and k > 1 and n > 0:
                        assert len(blocks) == k
                    assert np.array_equal(
                        np.concatenate(blocks),
                        _oracle_chronological_reach(src, tgt, dt, cs))

                    if lattice and k and n:
                        d = np.linalg.norm(tgt[None] - src[:, None], axis=2)
                        edge_pairs += int(np.sum(d == c * dt))
    assert edge_pairs > 50  # pairs exactly on the cone edge were exercised


@pytest.mark.parametrize("block", [None, 5])
def test_sender_reach_matches_replaced_kernel(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(spacetime, "CONE_BLOCK_PAIRS", block)
    cases = [(make_abc_scenario(0.0, 1.0, 1.0), ABC_LATTICE),
             make_annulus_scenario(16)]
    for sc, lattice in cases:
        q = Event(lattice.q_time, tuple(float(v) for v in
                                        lattice.q_candidates()[-1]))
        events, eligible, cover_pts, reach = _sender_reach(sc, q, lattice)
        cand_xs = lattice.p_candidates()
        want = _oracle_chronological_reach(
            cand_xs, sc.K.sample_points(lattice.cover_resolution),
            sc.s_time - lattice.p_time, sc.cs)
        want[~eligible, :] = False
        assert np.array_equal(reach, want)
        assert [p.x for p in events] == [tuple(x) for x in cand_xs.tolist()]
        assert list(eligible) == [not causally_precedes(p, q, sc.cs)
                                  for p in events]
        assert reach.any() and eligible.any() and not eligible.all()


# -- the future test against the region it stands for -------------------------


def _grown_boxes(region: Region, r: float):
    """Region.expand's grown boxes, corner for corner."""
    return [(tuple(a - r for a in lo), tuple(b + r for b in hi))
            for lo, hi in region.boxes]


def _oracle_contains_points(region: Region, points: np.ndarray) -> np.ndarray:
    """`Region.contains_points` as it was: one pass per box."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    mask = np.zeros(len(pts), dtype=bool)
    for lo, hi in region.boxes:
        mask |= np.all((pts >= np.asarray(lo)) & (pts <= np.asarray(hi)),
                       axis=1)
    return mask


def _future_queries(rng, grown, dim: int) -> np.ndarray:
    """Every grown corner, every face midpoint, each of them moved by one
    ulp up or down along each axis and along all axes, and uniform points."""
    base = []
    for lo, hi in grown:
        lo, hi = np.asarray(lo), np.asarray(hi)
        for pick in np.ndindex(*(2,) * dim):
            base.append(np.where(np.asarray(pick) == 1, hi, lo))
        mid = (lo + hi) / 2
        for ax in range(dim):
            for end in (lo, hi):
                p = mid.copy()
                p[ax] = end[ax]
                base.append(p)
    pts = [np.empty((0, dim))]
    if base:
        base = np.asarray(base)
        pts.append(base)
        for direction in (np.inf, -np.inf):
            pts.append(np.nextafter(base, direction))
            for ax in range(dim):
                moved = base.copy()
                moved[:, ax] = np.nextafter(base[:, ax], direction)
                pts.append(moved)
    pts.append(rng.uniform(-2.5, 4.5, size=(50, dim)))
    return np.concatenate(pts)


@pytest.mark.parametrize("block", [None, 1, 400])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_slice_future_matches_built_region(dim, block, monkeypatch):
    # the box sets of tests/test_region.py: degenerate boxes, shared faces,
    # nested boxes, duplicates and grid cells that overlap by an ulp
    from test_region import _random_box_set
    if block is not None:
        monkeypatch.setattr(region_module, "BOX_BLOCK_ENTRIES", block)
    rng = np.random.default_rng([dim, 61])
    cs = CausalStructure(dim=dim, c=1.0)
    inside = boundary = 0
    # small blocks loop in Python point by point, so they get fewer sets
    for trial in range(60 if block is None else 15):
        region = Region.from_boxes(_random_box_set(rng, dim))
        for r in (0.0, 1.0 / 3.0, 0.5, 1.0):
            pts = _future_queries(rng, _grown_boxes(region, r), dim)
            future = causal_future_on_slice(region, r, cs)
            want = _oracle_contains_points(future, pts)
            got = SliceFuture(region, r, cs).contains_points(pts)
            assert got.dtype == bool and got.shape == (len(pts),)
            assert np.array_equal(got, want)
            assert np.array_equal(future.contains_points(pts), want)
            assert np.array_equal(region.contains_points(pts),
                                  _oracle_contains_points(region, pts))
            inside += int(want.sum())
            boundary += int(len(pts) - want.sum())
    assert inside > 200 and boundary > 200


@pytest.mark.parametrize("segments", [16, 32])
def test_slice_future_matches_on_annulus(segments):
    sc, _ = make_annulus_scenario(segments)
    rng = np.random.default_rng(segments)
    dt = sc.t_time - sc.s_time
    pts = _future_queries(rng, _grown_boxes(sc.K, sc.cs.c * dt), 2)
    assert np.array_equal(
        SliceFuture(sc.K, dt, sc.cs).contains_points(pts),
        _oracle_contains_points(sc.detector_future, pts))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_slice_future_edge_cases(dim):
    cs = CausalStructure(dim=dim, c=1.0)
    pts = np.zeros((3, dim))
    empty = Region.empty(dim)
    assert not SliceFuture(empty, 1.0, cs).contains_points(pts).any()
    assert np.array_equal(SliceFuture(empty, 1.0, cs).contains_points(pts),
                          causal_future_on_slice(empty, 1.0, cs)
                          .contains_points(pts))
    box = Region.from_boxes([((0.0,) * dim, (1.0,) * dim)])
    got = SliceFuture(box, 1.0, cs).contains_points(np.empty((0, dim)))
    assert got.shape == (0,) and got.dtype == bool
    # the errors the built region raises, with the same messages
    huge = Region.from_boxes([((-1e308,) * dim, (1e308,) * dim)])
    other = CausalStructure(dim=dim % 3 + 1, c=1.0)
    for args in ((huge, 1e308, cs), (box, -0.5, cs), (box, 1.0, other)):
        with pytest.raises(ValueError) as built:
            causal_future_on_slice(*args)
        with pytest.raises(ValueError) as tested:
            SliceFuture(*args)
        assert str(tested.value) == str(built.value)
