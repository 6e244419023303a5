"""Causal order, cones on slices, and boost kinematics."""

import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
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
                                  cone_blocks, inverse, point_cone_membership,
                                  region_precedes_event)
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
    far = Event.of(0.5, 2.0)  # spacelike: neither precedes the other
    assert not causally_precedes(o, far, CS1)
    assert not causally_precedes(far, o, CS1)


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


@pytest.mark.parametrize("seed", range(8))
def test_boost_preserves_interval(seed):
    rng = np.random.default_rng(seed)
    v = float(rng.uniform(-0.95, 0.95))
    frame = BoostedFrame(v=v)
    a = Event(float(rng.uniform(-3, 3)), (float(rng.uniform(-3, 3)),))
    b = Event(float(rng.uniform(-3, 3)), (float(rng.uniform(-3, 3)),))

    def interval2(p, q):  # c^2 dt^2 - |dx|^2
        return (CS1.c * (q.t - p.t)) ** 2 - (q.x[0] - p.x[0]) ** 2

    s_lab = interval2(a, b)
    s_mov = interval2(boost(a, frame, CS1), boost(b, frame, CS1))
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
    # at dt = 0 only the slack grows the region: by cone_radius(0) = c*slack
    r = Region.from_boxes([((-1.0,), (0.5,)), ((2.0,), (3.0,))])
    e = spacetime.cone_radius(0.0, CS1)
    assert e == EPS_CAUSAL
    assert causal_future_on_slice(r, 0.0, CS1).boxes == (
        ((-1.0 - e,), (0.5 + e,)), ((2.0 - e,), (3.0 + e,)))


def test_future_on_slice_dilates_by_ct():
    r = Region.interval(-1.0, 1.0)
    cs = CausalStructure(dim=1, c=0.5)
    out = causal_future_on_slice(r, 2.0, cs)
    reach = spacetime.cone_radius(2.0, cs)
    assert reach == 0.5 * (2.0 + EPS_CAUSAL)
    assert out.boxes == (((-1.0 - reach,), (1.0 + reach,)),)


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
        monkeypatch.setattr(region_module, "BLOCK_PAIRS", block)
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


def _window_cases():
    """(name, sources, targets, cs, dt) on which axis-0 windows are easy
    to get wrong; points are distinct, on the quarter lattice of
    `_point_set` unless said otherwise."""
    rng = np.random.default_rng(77)
    out = []
    src = _point_set(rng, 30, 2, True)
    src = src[np.argsort(-src[:, 0], kind="stable")]  # descending axis 0
    out.append(("unsorted sources", src, _point_set(rng, 40, 2, True), CS2,
                0.5))
    # two source clusters; the second cluster's targets sit near 1e3, as
    # in a failing atoms_2d cloud, so its cones are empty
    mu_pts = rng.uniform(-1.0, 1.0, (60, 2))
    mu_pts[20:, 0] += 3.0
    nu_pts = mu_pts + rng.uniform(-0.25, 0.25, (60, 2))
    nu_pts[20:, 0] = 1.0e3 + np.arange(40.0)
    out.append(("far targets", mu_pts, nu_pts, CS2, 0.4))
    # many targets per axis-0 value, sources on the same values
    tgt = _point_set(rng, 120, 2, True)
    tgt = tgt[np.abs(tgt[:, 0]) <= 0.75]
    out.append(("ties on axis 0", _point_set(rng, 12, 2, True), tgt, CS2,
                0.5))
    # targets on the axis-0 rims x -+ reach of sources on a 0.1 lattice
    # and one ulp either side, where x -+ reach rounds across targets
    # that the squared test puts on the other side
    src = np.unique(rng.integers(-30, 31, (20, 2)), axis=0) * 0.1
    reach = spacetime.cone_radius(0.3, CS2)
    edge = np.concatenate([src[:, 0] - reach, src[:, 0] + reach])
    col = np.concatenate([edge, np.nextafter(edge, -np.inf),
                          np.nextafter(edge, np.inf)])
    tgt = np.unique(np.stack([col, np.tile(src[:, 1], 6)], axis=1), axis=0)
    out.append(("axis-0 rims", src, tgt[rng.permutation(len(tgt))], CS2,
                0.3))
    # d = 3 targets exactly on the cone rim of each source: integer
    # offsets of length 9, scaled by 1/8, so every coordinate is exact
    cs3 = CausalStructure(dim=3, c=1.0)
    src = _point_set(rng, 10, 3, True)
    rims = np.array([(1, 4, 8), (4, 4, -7), (-8, 1, 4), (-4, 7, -4),
                     (0, 0, 9), (-7, -4, 4)]) / 8.0
    tgt = np.unique(np.concatenate(
        [(src[:, None, :] + rims[None]).reshape(-1, 3),
         _point_set(rng, 40, 3, True)]), axis=0)
    out.append(("d = 3 rims", src, tgt[rng.permutation(len(tgt))], cs3,
                1.125))
    return out


def _grid(time: float, n: int, shift: int) -> SliceMeasure:
    g = np.exp(-np.linspace(-2.0, 2.0, n) ** 2)
    w = np.roll(np.outer(g, g), shift, axis=0)
    w[:, n // 2] = 0.0  # a pruned column
    return SliceMeasure.from_grid(time, (-1.0, -1.0), 2.0 / n, w / w.sum())


@pytest.mark.parametrize("block", [None, 1, 37])
def test_flow_network_windows_match_oracle(block, monkeypatch):
    # the CSR of the windowed build against the all-pairs oracle, exactly,
    # with sources split into blocks of about `block` candidate pairs
    if block is not None:
        monkeypatch.setattr(region_module, "BLOCK_PAIRS", block)
    cases = [(name, _atoms(0.0, s, cs.dim), _atoms(dt, t, cs.dim), cs)
             for name, s, t, cs, dt in _window_cases()]
    for n, dt in ((8, 0.25), (12, 0.5)):
        cases.append((f"grid {n}", _grid(0.0, n, 0), _grid(dt, n, 1), CS2))
    for name, mu, nu, cs in cases:
        net = build_flow_network(mu, nu, cs)
        src = mu.positions[np.asarray(mu.weights_flat) > 0]
        tgt = nu.positions[np.asarray(nu.weights_flat) > 0]
        indptr, indices = _oracle_cone_edges(
            src, tgt, cs.c * (nu.time - mu.time + EPS_CAUSAL))
        assert net.edge_indptr.dtype == indptr.dtype, name
        assert net.edge_indices.dtype == indices.dtype, name
        assert np.array_equal(net.edge_indptr, indptr), name
        assert np.array_equal(net.edge_indices, indices), name
        assert 0 < net.num_edges < len(src) * len(tgt), name


@pytest.mark.parametrize("block", [None, 1, 5, 64, 10**9])
def test_sender_reach_matches_replaced_kernel(block, monkeypatch):
    # the interval reach, expanded to a dense matrix, against the einsum
    # oracle and against the dense open-cone kernel over all pairs, bit
    # for bit, with that kernel in blocks of one source up to one block
    if block is not None:
        monkeypatch.setattr(region_module, "BLOCK_PAIRS", block)
    rim_sc, rim_lattice, rims = helpers.rim_annulus()
    abc = make_abc_scenario(0.0, 1.0, 1.0)
    cases = [(abc, ABC_LATTICE), (abc, replace(ABC_LATTICE, p_points=2001)),
             make_annulus_scenario(16), make_annulus_scenario(32),
             make_annulus_scenario(64), (rim_sc, rim_lattice)]
    for sc, lattice in cases:
        q = Event(lattice.q_time, tuple(float(v) for v in
                                        lattice.q_candidates()[-1]))
        got = _sender_reach(sc, q, lattice)
        xs, eligible, cover_pts = got.cand_xs, got.eligible, got.cover_pts
        reach = helpers.dense_reach(got)
        cand_xs = lattice.p_candidates()
        dt = sc.s_time - lattice.p_time
        want = _oracle_chronological_reach(
            cand_xs, sc.K.sample_points(lattice.cover_resolution), dt, sc.cs)
        want[~eligible, :] = False
        assert np.array_equal(reach, want)
        dense = np.concatenate(list(cone_blocks(
            cand_xs, dt, sc.cs, cover_pts, open_cone=True)))
        dense[~eligible, :] = False
        assert np.array_equal(reach, dense)
        assert np.array_equal(xs, cand_xs)
        assert list(eligible) == [
            not causally_precedes(Event(lattice.p_time, tuple(x)), q, sc.cs)
            for x in cand_xs.tolist()]
        assert reach.any() and eligible.any() and not eligible.all()
    # the rim points sit where they were meant to, and the reach says so
    q = Event(rim_lattice.q_time, tuple(rim_lattice.q_candidates()[-1]))
    got = _sender_reach(rim_sc, q, rim_lattice)
    xs, eligible, cover_pts = got.cand_xs, got.eligible, got.cover_pts
    reach = helpers.dense_reach(got)
    row = {tuple(x): i for i, x in enumerate(xs.tolist())}
    col = {tuple(p): j for j, p in enumerate(cover_pts.tolist())}
    for source, target, reached, closed in rims:
        i, j = row[source], col[target]
        assert eligible[i]
        assert reach[i, j] == reached
        p, t = (Event(rim_lattice.p_time, source),
                Event(rim_sc.s_time, target))
        assert chronologically_precedes(p, t, rim_sc.cs) == reached
        assert causally_precedes(p, t, rim_sc.cs) == closed


def _axis0_order(pts: np.ndarray) -> np.ndarray:
    return np.argsort(pts[:, 0], kind="stable")


@pytest.mark.parametrize("block", [None, 1, 7, 64])
def test_window_runs_cover_rows_in_order(block, monkeypatch):
    # the runs of `window_blocks` take the rows in stable axis-0 order,
    # and the rows between them reach no target; a run of two or more
    # rows has a dense rectangle within the bound, and the next row would
    # pass it; the blocks put together at their (rows, cols) are the dense
    # kernel's reach.  No rows, no targets, empty windows, rows wider than
    # the bound, and point sets given in any order, ties on axis 0 included
    if block is not None:
        monkeypatch.setattr(region_module, "BLOCK_PAIRS", block)
    bound = region_module.BLOCK_PAIRS
    rng = np.random.default_rng(71)
    strip = np.stack([rng.uniform(-0.5, 0.5, bound + 9),
                      np.zeros(bound + 9)], axis=1)
    cases = [(np.empty((0, 2)), _point_set(rng, 5, 2, True), 1.0),
             (_point_set(rng, 5, 2, True), np.empty((0, 2)), 1.0),
             (_point_set(rng, 3, 2, False), strip, 4.0)]
    for _ in range(40):
        k, n = rng.integers(1, 120, 2)
        src = _point_set(rng, int(k), 2, bool(rng.random() < 0.5))
        src[rng.random(len(src)) < 0.2, 0] += 9.0  # some empty windows
        cases.append((src, _point_set(rng, int(n), 2, False),
                      float(rng.choice([0.0, 0.1, 0.5, 2.0]))))
    sorted_cases = [(src[_axis0_order(src)], tgt[_axis0_order(tgt)], dt)
                    for src, tgt, dt in cases]
    for src, tgt, dt in cases + sorted_cases:
        order, cols_order = _axis0_order(src), _axis0_order(tgt)
        place = np.argsort(order)  # each row's place in axis-0 order
        lo, hi = spacetime._cone_windows(
            src[order, 0], tgt[cols_order, 0],
            spacetime.cone_radius(dt, CS2),
            spacetime.squared_cone_radius(dt, CS2))
        got = np.zeros((len(src), len(tgt)), dtype=bool)
        last = 0
        for rows, cols, blk in spacetime.window_blocks(src, dt, CS2, tgt):
            g = int(place[rows[0]])
            h = g + len(rows)
            a, b = lo[g], hi[h - 1]
            assert np.array_equal(rows, order[g:h])
            assert np.array_equal(cols, cols_order[a:b])
            assert blk.shape == (h - g, b - a)
            assert g >= last and a < b
            assert (lo[last:g] == hi[last:g]).all()
            assert h - g == 1 or (h - g) * (b - a) <= bound
            if h < len(src):
                assert (h + 1 - g) * (hi[h] - a) > bound
            got[rows[:, None], cols] = blk
            last = h
        assert (lo[last:] == hi[last:]).all()
        want = np.zeros_like(got)
        if len(src) and len(tgt):
            want = np.concatenate(list(cone_blocks(src, dt, CS2, tgt)))
        assert np.array_equal(got, want)


def _spy_cone_blocks(monkeypatch) -> list:
    """Record the blocks of each `spacetime.cone_blocks` call."""
    calls = []
    kernel = spacetime.cone_blocks

    def spy(*args, **kwargs):
        calls.append(list(kernel(*args, **kwargs)))
        yield from calls[-1]

    monkeypatch.setattr(spacetime, "cone_blocks", spy)
    return calls


def _one_bounded_block(calls) -> None:
    assert calls
    for blocks in calls:
        assert len(blocks) == 1
        assert len(blocks[0]) == 1 or blocks[0].size <= (
            region_module.BLOCK_PAIRS)


def test_window_blocks_take_one_bounded_block(monkeypatch):
    # the cone graph asks the kernel once a run, and each call is one
    # block of at most `region.BLOCK_PAIRS` pairs or of one row
    calls = _spy_cone_blocks(monkeypatch)
    dt = 0.4
    mu_pts, nu_pts, weights, _ = helpers.drained_cloud(
        np.random.default_rng(241), 800, dt)
    build_flow_network(SliceMeasure.from_atoms(0.0, zip(mu_pts, weights)),
                       SliceMeasure.from_atoms(dt, zip(nu_pts, weights)),
                       CS2)
    _one_bounded_block(calls)


# -- the future test against the cone it stands for ---------------------------


def _grown_boxes(region: Region, r: float):
    """The region's boxes grown by r along every axis."""
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


def _oracle_in_cone_of_boxes(region: Region, dt: float, cs: CausalStructure,
                             points: np.ndarray) -> np.ndarray:
    """Point by point: is the clamp of the point into some box of the
    region within the closed cone radius c*(dt + slack)?"""
    reach = cs.c * (dt + EPS_CAUSAL)
    return np.array([
        any(math.dist(p, [min(max(x, a), b) for a, b, x in zip(lo, hi, p)])
            <= reach for lo, hi in region.boxes)
        for p in np.asarray(points, dtype=float).tolist()], dtype=bool)


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


def _rim_queries(rng, region: Region, r: float, dim: int) -> np.ndarray:
    """Points just inside and just outside the rounded rim at distance r
    from a box, off the axes, where a box dilation would keep them all."""
    out = [np.empty((0, dim))]
    for lo, hi in region.boxes:
        corner = np.where(rng.random((8, dim)) < 0.5, lo, hi)
        u = np.abs(rng.normal(size=(8, dim))) + 0.1
        u /= np.linalg.norm(u, axis=1)[:, None]
        u = np.where(corner == np.asarray(hi), u, -u)
        for scale in (1.0 - 1e-9, 1.0 + 1e-9):
            out.append(corner + scale * r * u)
    return np.concatenate(out)


@pytest.mark.parametrize("block", [None, 1, 400])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_slice_future_matches_built_region(dim, block, monkeypatch):
    # the box sets of tests/test_region.py: degenerate boxes, shared faces,
    # nested boxes, duplicates and grid cells that overlap by an ulp; in
    # d = 1 the oracle is the built region, in d >= 2 a per-point loop
    from test_region import _random_box_set
    if block is not None:
        monkeypatch.setattr(region_module, "BLOCK_PAIRS", block)
    rng = np.random.default_rng([dim, 61])
    cs = CausalStructure(dim=dim, c=1.0)
    inside = boundary = dilated_only = 0
    # small blocks loop in Python point by point, so they get fewer sets
    for trial in range(60 if block is None else 15):
        region = Region.from_boxes(_random_box_set(rng, dim))
        for r in (0.0, 1.0 / 3.0, 0.5, 1.0):
            pts = _future_queries(rng, _grown_boxes(region, r), dim)
            got = SliceFuture(region, r, cs).contains_points(pts)
            if dim == 1:
                future = causal_future_on_slice(region, r, cs)
                want = _oracle_contains_points(future, pts)
                assert np.array_equal(future.contains_points(pts), want)
            else:
                pts = np.concatenate([pts, _rim_queries(rng, region, r, dim)])
                got = SliceFuture(region, r, cs).contains_points(pts)
                want = _oracle_in_cone_of_boxes(region, r, cs, pts)
                reach = spacetime.cone_radius(r, cs)
                dilated = _oracle_contains_points(
                    Region(tuple(_grown_boxes(region, reach)), dim), pts)
                assert not (want & ~dilated).any()
                dilated_only += int((dilated & ~want).sum())
            assert got.dtype == bool and got.shape == (len(pts),)
            assert np.array_equal(got, want)
            assert np.array_equal(region.contains_points(pts),
                                  _oracle_contains_points(region, pts))
            inside += int(want.sum())
            boundary += int(len(pts) - want.sum())
    assert inside > 200 and boundary > 200
    # the box dilation holds points that the cone does not
    assert dim == 1 or dilated_only > 200


@pytest.mark.parametrize("segments", [16, 32])
def test_slice_future_matches_on_annulus(segments):
    sc, _ = make_annulus_scenario(segments)
    rng = np.random.default_rng(segments)
    dt = sc.t_time - sc.s_time
    r = sc.cs.c * dt
    pts = np.concatenate([_future_queries(rng, _grown_boxes(sc.K, r), 2),
                          _rim_queries(rng, sc.K, r, 2)])
    want = _oracle_in_cone_of_boxes(sc.K, dt, sc.cs, pts)
    assert np.array_equal(SliceFuture(sc.K, dt, sc.cs).contains_points(pts),
                          want)
    assert want.sum() > 100 and (~want).sum() > 100


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_slice_future_of_a_point_is_its_cone(dim, seed):
    # a one-point K: the future test must mark exactly the targets of the
    # point's row of the cone kernel, at the radius to the last ulp
    rng = np.random.default_rng([dim, seed, 67])
    cs = CausalStructure(dim=dim, c=float(rng.uniform(0.5, 2.0)))
    dt = float(rng.uniform(0.0, 1.5))
    x = rng.uniform(-1.0, 1.0, size=dim)
    point = Region.point_boxes([x])
    u = rng.normal(size=(40, dim))
    u /= np.linalg.norm(u, axis=1)[:, None]
    rim = x + spacetime.cone_radius(dt, cs) * u
    on_axis = np.repeat(x[None], 2 * dim, axis=0)
    for ax in range(dim):
        on_axis[2 * ax, ax] += spacetime.cone_radius(dt, cs)
        on_axis[2 * ax + 1, ax] -= spacetime.cone_radius(dt, cs)
    edge = np.concatenate([rim, on_axis])
    tgt = np.concatenate([edge, np.nextafter(edge, np.inf),
                          np.nextafter(edge, -np.inf),
                          rng.uniform(-3.0, 3.0, size=(60, dim))])
    (row,) = next(cone_blocks(x[None], dt, cs, tgt))
    got = SliceFuture(point, dt, cs).contains_points(tgt)
    assert np.array_equal(got, row)
    assert row.any() and not row.all()
    # the ulp neighbours of the rim fall on both sides of it
    rim_hits = row[:len(edge) * 3].reshape(3, -1)
    assert (rim_hits.any(axis=0) & ~rim_hits.all(axis=0)).any()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_slice_future_edge_cases(dim):
    cs = CausalStructure(dim=dim, c=1.0)
    pts = np.zeros((3, dim))
    empty = Region.empty(dim)
    assert not SliceFuture(empty, 1.0, cs).contains_points(pts).any()
    box = Region.from_boxes([((0.0,) * dim, (1.0,) * dim)])
    got = SliceFuture(box, 1.0, cs).contains_points(np.empty((0, dim)))
    assert got.shape == (0,) and got.dtype == bool
    huge = Region.from_boxes([((-1e308,) * dim, (1e308,) * dim)])
    other = CausalStructure(dim=dim % 3 + 1, c=1.0)
    bad = ((huge, 1e308, cs), (box, -0.5, cs), (box, 1.0, other))
    if dim == 1:
        assert np.array_equal(
            SliceFuture(empty, 1.0, cs).contains_points(pts),
            causal_future_on_slice(empty, 1.0, cs).contains_points(pts))
        # the errors the built region raises, with the same messages
        for args in bad:
            with pytest.raises(ValueError) as built:
                causal_future_on_slice(*args)
            with pytest.raises(ValueError) as tested:
                SliceFuture(*args)
            assert str(tested.value) == str(built.value)
        return
    for args in bad:
        with pytest.raises(ValueError):
            SliceFuture(*args)
    # no box region holds the future of a region in d >= 2
    for region in (empty, box):
        with pytest.raises(ValueError, match="not a box region"):
            causal_future_on_slice(region, 1.0, cs)


def test_region_future_is_round_in_2d():
    # the corner of the box dilation: within c*dt of K on each axis, but
    # farther than c*dt from every point of K
    k = Region.from_boxes([((-0.1, -0.1), (0.1, 0.1))])
    pts = np.array([[0.9, 0.9], [0.7, 0.7], [1.1, 0.0], [1.0, 0.6]])
    want = [False, True, True, False]
    assert SliceFuture(k, 1.0, CS2).contains_points(pts).tolist() == want
    assert [region_precedes_event(k, 0.0, Event(1.0, tuple(p)), CS2)
            for p in pts.tolist()] == want
    assert not region_precedes_event(k, 0.0, Event(-1.0, (0.0, 0.0)), CS2)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_one_cone_rule_on_the_rim(dim):
    # points on the closed and open cone rims of a point and of a box, and
    # their ulp neighbours: every cone test, scalar or array, decides each
    # of them alike; in d = 1 this includes the detector future's ends
    rng = np.random.default_rng([dim, 71])
    straddles = 0
    for _ in range(6):
        cs = CausalStructure(dim=dim, c=float(rng.uniform(0.3, 3.0)))
        dt = float(rng.uniform(0.0, 2.0))
        x = rng.uniform(-1.0, 1.0, size=dim)
        half = rng.uniform(0.0, 0.5, size=dim)
        lo, hi = x - half, x + half
        point = Region.point_boxes([x])
        box = Region.from_boxes([(lo, hi)])
        u = rng.normal(size=(30, dim))
        u /= np.linalg.norm(u, axis=1)[:, None]
        rims = []
        for open_cone in (False, True):
            r = spacetime.cone_radius(dt, cs, open_cone)
            rims += [x + r * u, np.where(u > 0, hi, lo) + r * u]
        base = np.concatenate(rims)
        pts = np.concatenate([base, np.nextafter(base, np.inf),
                              np.nextafter(base, -np.inf)])
        events = [Event(dt, tuple(p)) for p in pts.tolist()]
        src = Event(0.0, tuple(x.tolist()))
        (closed,) = next(cone_blocks(x[None], dt, cs, pts))
        (opened,) = next(cone_blocks(x[None], dt, cs, pts, open_cone=True))
        assert [causally_precedes(src, e, cs) for e in events] \
            == closed.tolist()
        assert [chronologically_precedes(src, e, cs) for e in events] \
            == opened.tolist()
        assert np.array_equal(SliceFuture(point, dt, cs).contains_points(pts),
                              closed)
        assert [region_precedes_event(point, 0.0, e, cs) for e in events] \
            == closed.tolist()
        # a box: the cone of its nearest point, as audit_protocol asks
        near = np.clip(pts, lo, hi).tolist()
        want = [causally_precedes(Event(0.0, tuple(q)), e, cs)
                for q, e in zip(near, events)]
        assert SliceFuture(box, dt, cs).contains_points(pts).tolist() == want
        assert [region_precedes_event(box, 0.0, e, cs) for e in events] \
            == want
        for hits in (closed, opened, np.array(want)):
            triples = hits.reshape(3, -1)
            straddles += int((triples.any(axis=0)
                              & ~triples.all(axis=0)).sum())
    # many rim points have ulp neighbours on both sides of the rim
    assert straddles > 100


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cone_kernel_keeps_time_order(dim):
    # targets before the source: only within the slack may the closed cone
    # reach back; with a tiny c the radius underflows to -0.0, and the
    # source's own position must still be out of its past
    rng = np.random.default_rng([dim, 83])
    for c in (1.0, 2.5, 5e-324):
        cs = CausalStructure(dim=dim, c=c)
        for dt in (-1.0, -2 * EPS_CAUSAL, -EPS_CAUSAL / 2):
            x = rng.uniform(-1.0, 1.0, size=dim)
            u = rng.normal(size=(12, dim))
            u /= np.linalg.norm(u, axis=1)[:, None]
            r = abs(cs.c * (dt + EPS_CAUSAL))
            base = np.concatenate([x[None], x + 0.5 * r * u, x + r * u])
            pts = np.concatenate([base, np.nextafter(base, np.inf),
                                  np.nextafter(base, -np.inf)])
            events = [Event(dt, tuple(p)) for p in pts.tolist()]
            src = Event(0.0, tuple(x.tolist()))
            (closed,) = next(cone_blocks(x[None], dt, cs, pts))
            (opened,) = next(cone_blocks(x[None], dt, cs, pts,
                                         open_cone=True))
            want = [causally_precedes(src, e, cs) for e in events]
            assert closed.tolist() == want
            assert opened.tolist() == [chronologically_precedes(src, e, cs)
                                       for e in events]
            assert [region_precedes_event(Region.point_boxes([x]), 0.0, e,
                                          cs) for e in events] == want
            assert not opened.any()
            assert closed.any() == (dt == -EPS_CAUSAL / 2)


def test_cone_radius_overflow_raises():
    # 1e200 squared is inf, and inf <= inf would put 1e300 inside the cone
    cs = CausalStructure(dim=1, c=1.0)
    a, b = Event(0.0, (0.0,)), Event(1e200, (1e300,))
    k = Region.point_boxes([a.x])
    asks = (lambda: causally_precedes(a, b, cs),
            lambda: chronologically_precedes(a, b, cs),
            lambda: next(cone_blocks([a.x], b.t, cs, [b.x])),
            lambda: next(cone_blocks([a.x], b.t, cs, [b.x], open_cone=True)),
            lambda: region_precedes_event(k, a.t, b, cs),
            lambda: SliceFuture(k, b.t, cs))
    for ask in asks:
        with pytest.raises(ValueError, match="^cone radius overflows$"):
            ask()
    # below the overflow the cone still decides
    assert not causally_precedes(a, Event(1e150, (1e300,)), cs)
    assert causally_precedes(a, Event(1e150, (1e149,)), cs)
