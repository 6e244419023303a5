"""Max flow: the bipartite cone-graph solver against the generic oracle.

The first group checks the generic Dinic oracle of `oracle_maxflow` on
its own (value, feasibility, min-cut extraction).  The second holds
`causal_lab.maxflow.dinic_max_flow` to that oracle's leftover and cut
side, on random bipartite graphs and on the cone graphs of the ordering
check in d = 2 and 3, and checks its cut against its flow value without
the oracle.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import helpers
from causal_lab import maxflow, transport
from causal_lab.measure import SliceMeasure
from causal_lab.spacetime import CausalStructure
from causal_lab.transport import check_ce_maxflow, recompute_deficit
from oracle_maxflow import dinic_max_flow, solve_cone_graph


def _check_feasible(n, edges, flows, source, sink):
    """Capacity and conservation constraints for a flow assignment."""
    net = [0] * n
    for (u, v, cap), f in zip(edges, flows):
        assert 0 <= f <= cap
        net[u] -= f
        net[v] += f
    for node in range(n):
        if node not in (source, sink):
            assert net[node] == 0
    return net[sink]


def _cut_capacity(edges, side):
    return sum(cap for u, v, cap in edges if u in side and v not in side)


def test_textbook_network():
    # classic two-path network with a cross edge
    edges = [(0, 1, 10), (0, 2, 10), (1, 2, 2), (1, 3, 4),
             (1, 4, 8), (2, 4, 9), (4, 3, 6), (3, 5, 10), (4, 5, 10)]
    value, flows, side = dinic_max_flow(6, edges, 0, 5)
    assert value == 19
    assert _check_feasible(6, edges, flows, 0, 5) == 19
    assert 0 in side and 5 not in side
    assert _cut_capacity(edges, side) == 19


def test_disconnected_sink():
    edges = [(0, 1, 5)]
    value, flows, side = dinic_max_flow(3, edges, 0, 2)
    assert value == 0
    assert side == {0, 1}


def test_parallel_edges_accumulate():
    edges = [(0, 1, 3), (0, 1, 4), (1, 2, 5)]
    value, _, _ = dinic_max_flow(3, edges, 0, 2)
    assert value == 5


def test_huge_integer_capacities_exact():
    big = 10**30
    edges = [(0, 1, big), (1, 2, big - 7), (0, 2, 13)]
    value, flows, side = dinic_max_flow(3, edges, 0, 2)
    assert value == big + 6
    assert _cut_capacity(edges, side) == value


def test_fraction_capacities():
    edges = [(0, 1, Fraction(1, 3)), (0, 2, Fraction(1, 6)),
             (1, 3, Fraction(1, 4)), (2, 3, Fraction(1, 2))]
    value, flows, side = dinic_max_flow(4, edges, 0, 3)
    assert value == Fraction(5, 12)
    assert _cut_capacity(edges, side) == Fraction(5, 12)


def _min_cut_by_enumeration(n, edges, source, sink):
    best = None
    others = [x for x in range(n) if x not in (source, sink)]
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            side = {source, *extra}
            cap = _cut_capacity(edges, side)
            best = cap if best is None else min(best, cap)
    return best


@pytest.mark.parametrize("seed", range(12))
def test_random_flow_equals_enumerated_min_cut(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.45:
                edges.append((u, v, int(rng.integers(1, 20))))
    source, sink = 0, n - 1
    value, flows, side = dinic_max_flow(n, edges, source, sink)
    assert _check_feasible(n, edges, flows, source, sink) == value
    assert value == _min_cut_by_enumeration(n, edges, source, sink)
    assert _cut_capacity(edges, side) == value


def test_source_side_unreachable_in_residual():
    # saturated forward edge with no residual path back into the cut
    edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
    value, flows, side = dinic_max_flow(3, edges, 0, 2)
    assert value == 2
    assert side == {0}


# -- the bipartite cone-graph solver -----------------------------------------

def _random_bipartite(rng):
    """Random CSR arcs, each row in random order, and integer supplies and
    rooms, some of them 0; a third of the instances have unit capacities,
    on which the greedy fill often needs augmenting paths after it."""
    nl, nr = (int(v) for v in rng.integers(0, 24, 2))
    p = rng.uniform(0.05, 0.4)
    rows = [rng.permutation(np.flatnonzero(rng.random(nr) < p)).tolist()
            for _ in range(nl)]
    heads = [j for row in rows for j in row]
    indptr = np.cumsum([0] + [len(row) for row in rows]).tolist()
    top = int(rng.choice([2, 10, 30]))
    supply = (rng.integers(0, top, nl) * (rng.random(nl) > 0.2)).tolist()
    room = (rng.integers(0, top, nr) * (rng.random(nr) > 0.2)).tolist()
    return supply, heads, indptr, room


def _certified(supply, heads, indptr, room, leftover, cut):
    """The cut's capacity, the supply outside it plus the room of every
    target it reaches, equals the flow the solver placed."""
    inside = set(cut)
    reached = {j for i in cut for j in heads[indptr[i]:indptr[i + 1]]}
    capacity = (sum(c for i, c in enumerate(supply) if i not in inside)
                + sum(room[j] for j in reached))
    return sum(supply) - leftover == capacity


@pytest.mark.parametrize("seed", range(150))
def test_bipartite_matches_oracle(seed):
    problem = _random_bipartite(np.random.default_rng([seed, 14]))
    leftover, cut = maxflow.dinic_max_flow(*problem)
    assert (leftover, cut) == solve_cone_graph(*problem)
    assert _certified(*problem, leftover, cut)


def test_bipartite_without_arcs():
    assert maxflow.dinic_max_flow([3, 0, 5], [], [0, 0, 0, 0], [4]) == (
        8, [0, 2])
    assert maxflow.dinic_max_flow([], [], [0], [2, 2]) == (0, [])
    assert maxflow.dinic_max_flow([2], [], [0, 0], []) == (2, [0])


def test_bipartite_needs_augmenting_paths():
    # the greedy fill sends source 0 to target 0, which source 1 needs
    supply, heads, indptr, room = [1, 1], [0, 1, 0], [0, 2, 3], [1, 1]
    assert maxflow.dinic_max_flow(supply, heads, indptr, room) == (0, [])
    # a third source on target 0 alone finds it full: the cut holds it and
    # source 1, which fills that target; source 0 fills target 1, out of
    # the cut's reach
    supply, heads, indptr = [1, 1, 1], [0, 1, 0, 0], [0, 2, 3, 4]
    assert maxflow.dinic_max_flow(supply, heads, indptr, room) == (1, [1, 2])


def test_bipartite_long_augmenting_path():
    # source i prefers target i + 1, so the greedy fill leaves the last
    # source blocked and one path through every node frees it
    n = 50
    rows = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
    heads = [j for row in rows for j in row]
    indptr = np.cumsum([0] + [len(row) for row in rows]).tolist()
    assert maxflow.dinic_max_flow([1] * n, heads, indptr, [1] * n) == (0, [])
    # with no room at target 0 the path finds no end, and every source
    # lies on it
    room = [0] + [1] * (n - 1)
    assert maxflow.dinic_max_flow([1] * n, heads, indptr, room) == (
        1, list(range(n)))


def test_bipartite_huge_integers_exact():
    big = 10**30
    # source 1 reaches both targets and leaves target 0 to source 0
    problem = ([big, 13], [0, 0, 1], [0, 1, 3], [big - 7, 20])
    assert maxflow.dinic_max_flow(*problem) == (7, [0])
    problem = ([big, 13], [0, 0], [0, 1, 2], [big - 7, 20])
    assert maxflow.dinic_max_flow(*problem) == (20, [0, 1])


def _solve(mu, nu, cs):
    """`transport._solve_dinic`, its array of cut points as a list."""
    rest, den, cut = transport._solve_dinic(mu, nu, cs)
    return rest, den, cut.tolist()


def _oracle_solve(mu, nu, cs):
    """`_solve` with the generic oracle as its solver."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "dinic_max_flow", solve_cone_graph)
        return _solve(mu, nu, cs)


def _lattice_instance(rng, dim, exact):
    """Seeded (mu, nu, cs) on a lattice of spacing h in d = 2 or 3.

    c * dt is 0 or a whole number of cells, up to 5, so targets tie with
    the cone rim along the axes and, at 5 cells, on the 3-4-5 diagonals.
    A quarter of the weights are 0; nu's weights carry a random gain so
    that some checks hold.
    """
    h = float(rng.choice([0.25, 0.5]))
    c = float(rng.choice([0.5, 1.0, 2.0]))
    dt = float(rng.integers(0, 6)) * h / c

    def atoms(time, n, gain):
        cells = rng.choice(9 ** dim, size=n, replace=False)
        pos = (np.stack(np.unravel_index(cells, (9,) * dim), axis=1) - 4) * h
        raw = gain * rng.integers(0, 9, n) * (rng.random(n) > 0.25)
        weights = ([Fraction(int(v), 24) for v in raw] if exact
                   else (raw * rng.random(n)).tolist())
        return SliceMeasure.from_atoms(
            time, [(tuple(p), w) for p, w in zip(pos.tolist(), weights)])

    nl, nr = (int(v) for v in rng.integers(1, 25, 2))
    mu = atoms(0.0, nl, 1)
    nu = atoms(dt, nr, int(rng.integers(1, 5)))
    return mu, nu, CausalStructure(dim=dim, c=c)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(40))
def test_cone_graph_matches_oracle(seed, dim, exact):
    rng = np.random.default_rng([seed, dim, exact])
    mu, nu, cs = _lattice_instance(rng, dim, exact)
    got = _solve(mu, nu, cs)
    assert got == _oracle_solve(mu, nu, cs)
    v = check_ce_maxflow(mu, nu, cs)
    assert isinstance(v.deficit, Fraction) == exact
    if not v.holds:
        again = recompute_deficit(mu, nu, v.worst_set, cs)
        if exact:
            assert again == v.deficit
        else:
            assert abs(float(again) - v.deficit) <= 1e-9


def _float_cloud(rng, dim, odd=None):
    """Seeded (mu, nu, cs) of 33 to 150 positive atoms a side in d = 2 or
    3: above `SMALL_SWEEP_ATOMS` sources, so float weights are lifted from
    np.frexp.

    The atoms sit on a lattice of spacing 0.25, and c * dt is a whole
    number of cells, up to 5, so targets tie with the cone rim.  A third
    as many atoms again weigh 0.0, and a sixth of the others are
    subnormal, so the lift spans more than 1074 bits; nu's weights carry
    a gain of 1/2 to 2 so that some checks hold.  `odd` puts a Fraction
    and an int 0 ("mu") or a bool ("nu") among the floats.
    """
    side = 15 if dim == 2 else 7
    cs = CausalStructure(dim=dim, c=1.0)
    dt = float(rng.integers(0, 6)) * 0.25

    def atoms(time, gain):
        n = int(rng.integers(33, 151))
        cells = rng.choice(side ** dim, size=n + n // 3, replace=False)
        pos = (np.stack(np.unravel_index(cells, (side,) * dim), axis=1)
               - side // 2) * 0.25
        w = gain * rng.random(len(cells))
        tiny = rng.random(len(cells)) < 1 / 6
        w[tiny] = rng.integers(1, 1 << 20, int(tiny.sum())) * 5e-324
        w[n:] = 0.0  # the cells come in random order
        return [(tuple(p), v) for p, v in zip(pos.tolist(), w.tolist())]

    mu_atoms = atoms(0.0, 1.0)
    nu_atoms = atoms(dt, float(rng.uniform(0.5, 2.0)))
    if odd == "mu":
        mu_atoms[0] = (mu_atoms[0][0], Fraction(1, 3))
        mu_atoms[1] = (mu_atoms[1][0], 0)
    elif odd == "nu":
        nu_atoms[0] = (nu_atoms[0][0], True)
    return (SliceMeasure.from_atoms(0.0, mu_atoms),
            SliceMeasure.from_atoms(dt, nu_atoms), cs)


def _spy(monkeypatch, name):
    """Record the argument lengths of the calls to transport.<name>."""
    calls, real = [], getattr(transport, name)

    def spy(caps):
        calls.append(len(caps))
        return real(caps)

    monkeypatch.setattr(transport, name, spy)
    return calls


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_frexp_lifted_cone_graph_matches_oracle(monkeypatch, seed, dim):
    # float clouds above SMALL_SWEEP_ATOMS sources are lifted from
    # np.frexp; the leftover, denominator and cut must be the generic
    # oracle's, and those of the list lift that smaller clouds take
    rng = np.random.default_rng([seed, dim, 22])
    mu, nu, cs = _float_cloud(rng, dim)
    frexp = _spy(monkeypatch, "_frexp_lift")
    got = _solve(mu, nu, cs)
    assert frexp and got == _oracle_solve(mu, nu, cs)
    monkeypatch.setattr(transport, "SMALL_SWEEP_ATOMS", 10 ** 9)
    listed = _spy(monkeypatch, "_integer_lift")
    assert _solve(mu, nu, cs) == got and listed


@pytest.mark.parametrize("odd", ["mu", "nu"])
def test_mixed_weights_keep_the_list_lift(monkeypatch, odd):
    # a Fraction, an int or a bool among float weights: the capacities
    # are not all binary floats, so they keep `_integer_lift`
    mu, nu, cs = _float_cloud(np.random.default_rng(23), 2, odd)
    assert not (mu.all_float and nu.all_float)
    frexp = _spy(monkeypatch, "_frexp_lift")
    listed = _spy(monkeypatch, "_integer_lift")
    got = _solve(mu, nu, cs)
    assert listed and not frexp
    assert got == _oracle_solve(mu, nu, cs)


@pytest.mark.parametrize("seed", range(12))
def test_cone_graph_grids_match_oracle(seed):
    rng = np.random.default_rng([seed, 2, 14])
    n, h = int(rng.integers(4, 13)), 0.25
    cs = CausalStructure(dim=2, c=1.0)
    dt = float(rng.integers(0, 4)) * h

    def grid(time, gain):
        w = gain * rng.random((n, n)) * (rng.random((n, n)) > 0.25)
        return SliceMeasure.from_grid(time, (-n * h / 2,) * 2, h, w)

    mu, nu = grid(0.0, 1.0), grid(dt, float(rng.uniform(0.5, 3.0)))
    rest, den, cut = _solve(mu, nu, cs)
    assert (rest, den, cut) == _oracle_solve(mu, nu, cs)
    net = transport.build_flow_network(mu, nu, cs)
    _, caps = transport._integer_lift(net.left_caps + net.right_caps)
    supply, room = caps[:net.num_left], caps[net.num_left:]
    heads, indptr = net.edge_indices.tolist(), net.edge_indptr.tolist()
    _, cut_left = maxflow.dinic_max_flow(supply, heads, indptr, room)
    assert _certified(supply, heads, indptr, room, rest, cut_left)


def test_cone_graph_without_edges():
    cs = CausalStructure(dim=2, c=1.0)
    mu = SliceMeasure.from_atoms(0.0, [((0.0, 0.0), 0.25), ((1.0, 0.0), 0.0),
                                       ((0.0, 1.0), 0.75)])
    nu = SliceMeasure.from_atoms(0.5, [((5.0, 5.0), 1.0)])
    assert transport.build_flow_network(mu, nu, cs).num_edges == 0
    rest, den, cut = _solve(mu, nu, cs)
    assert (rest, den, cut) == _oracle_solve(mu, nu, cs)
    assert rest == den and cut == [[0.0, 0.0], [0.0, 1.0]]


# -- the early exit and the lift of reached targets --------------------------

class _SliceSpy(list):
    """Arc heads that count the slices read from them: the layered search
    reads each source's arcs as one slice, the greedy fill and the
    blocking flow one arc at a time."""

    slices = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slices += 1
        return super().__getitem__(key)


def _spied(supply, heads, indptr, room):
    spy = _SliceSpy(heads)
    return maxflow.dinic_max_flow(supply, spy, indptr, room), spy.slices


def test_search_reads_arcs_as_slices():
    # the spy's control: a flow that needs an augmenting path searches
    supply, heads, indptr, room = [1, 1], [0, 1, 0], [0, 2, 3], [1, 1]
    (leftover, cut), slices = _spied(supply, heads, indptr, room)
    assert (leftover, cut) == (0, []) and slices > 0


@pytest.mark.parametrize("k", [40, 400])
@pytest.mark.parametrize("seed", range(3))
def test_drained_cloud_runs_no_search(monkeypatch, seed, k):
    # the greedy fill places all the mass that can move; what is left
    # sits on the drained sources, whose cones hold no target, so no
    # search phase runs and the cut is those sources
    dt = 0.4
    mu_pts, nu_pts, weights, drained = helpers.drained_cloud(
        np.random.default_rng([seed, k, 57]), k, dt)
    searched = []

    def spied(*problem):
        result, slices = _spied(*problem)
        searched.append(slices)
        return result

    monkeypatch.setattr(transport, "dinic_max_flow", spied)
    cs = CausalStructure(dim=2, c=1.0)
    v = check_ce_maxflow(SliceMeasure.from_atoms(0.0, zip(mu_pts, weights)),
                         SliceMeasure.from_atoms(dt, zip(nu_pts, weights)),
                         cs)
    assert not v.holds and searched == [0]
    assert ({lo for lo, _ in v.worst_set.boxes}
            == set(map(tuple, mu_pts[drained].tolist())))


def _with_arcless_sources(rng, alone):
    """A `_random_bipartite` problem with sources added that hold supply
    and have no arc; when `alone`, the other sources hold none."""
    supply, heads, indptr, room = _random_bipartite(rng)
    rows = [heads[a:b] for a, b in zip(indptr, indptr[1:])]
    if alone:
        supply = [0] * len(supply)
    for _ in range(int(rng.integers(1, 5))):
        at = int(rng.integers(0, len(rows) + 1))
        rows.insert(at, [])
        supply.insert(at, int(rng.integers(1, 30)))
    heads = [j for row in rows for j in row]
    indptr = np.cumsum([0] + [len(row) for row in rows]).tolist()
    return supply, heads, indptr, room


@pytest.mark.parametrize("alone", [True, False])
def test_arcless_sources_match_oracle(alone):
    # sources with supply and no arc, alone or beside sources that have
    # arcs and supply: the leftover and the cut are the oracle's, whether
    # the solver stops after the greedy fill or searches
    stopped = 0
    for seed in range(120):
        problem = _with_arcless_sources(
            np.random.default_rng([seed, alone, 58]), alone)
        (leftover, cut), slices = _spied(*problem)
        assert (leftover, cut) == solve_cone_graph(*problem)
        assert _certified(*problem, leftover, cut)
        stopped += slices == 0
    if alone:
        assert stopped == 120
    else:
        assert 0 < stopped < 120


def _solve_all_targets(mu, nu, cs):
    """`transport._solve_dinic` with every target lifted and solved, as
    before the lift kept only the reached ones."""
    net = transport.build_flow_network(mu, nu, cs)
    nl = net.num_left
    den, caps = transport._lift(net.left_caps, net.right_caps, mu, nu)
    rest, cut = maxflow.dinic_max_flow(caps[:nl], net.edge_indices.tolist(),
                                       net.edge_indptr.tolist(), caps[nl:])
    return rest, den, net.left_points[cut]


def _kind_weights(rng, kind, n, far):
    """n weights of one kind, a fifth of them 0; `far` ones carry a finer
    denominator, which only they bring to the lift."""
    if kind == "mixed":
        return [_kind_weights(rng, str(rng.choice(["float", "fraction",
                                                   "int"])), 1, far)[0]
                for _ in range(n)]
    on = rng.random(n) > 0.2
    if kind == "float":
        scale = 2.0 ** -70 if far else 1.0
        return (rng.random(n) * on * scale).tolist()
    if kind == "fraction":
        den = 997 if far else 24
        return [Fraction(int(v), den) for v in rng.integers(0, 30, n) * on]
    return (rng.integers(0, 5, n) * on).tolist()


def _reach_instance(rng, kind, k, edges=True):
    """d = 2 atoms: k sources on a lattice, targets beside them and, far
    from every cone unless `edges` is False for all, targets of their
    own denominators."""
    cs = CausalStructure(dim=2, c=1.0)
    cells = rng.choice(15 * 15, size=2 * k, replace=False)
    pos = np.stack(np.unravel_index(cells, (15, 15)), axis=1) * 0.25
    near, far = pos[k:k + k // 2], pos[:k // 2] + 100.0
    nu_pts = np.concatenate([near, far] if edges else [far + 50.0, far])
    nu_w = (_kind_weights(rng, kind, len(near), False)
            + _kind_weights(rng, kind, len(far), True))
    mu = SliceMeasure.from_atoms(0.0, list(zip(
        map(tuple, pos[:k].tolist()), _kind_weights(rng, kind, k, False))))
    nu = SliceMeasure.from_atoms(0.5, list(zip(
        map(tuple, nu_pts.tolist()), nu_w)))
    return mu, nu, cs


def _signed(region):
    return None if region is None else [
        tuple(tuple(x.hex() for x in corner) for corner in box)
        for box in region.boxes]


@pytest.mark.parametrize("kind", ["float", "fraction", "int", "mixed"])
def test_reached_lift_matches_lift_of_all_targets(monkeypatch, kind):
    # dropping the targets that no arc reaches may change the lift's
    # denominator, never rest / den, the verdict, the deficit or the
    # worst set; float clouds of 40 sources are lifted from np.frexp
    moved = 0
    for seed in range(12):
        rng = np.random.default_rng([seed, 59])
        k = 40 if seed % 2 else 12
        mu, nu, cs = _reach_instance(rng, kind, k, edges=seed % 4 != 3)
        rest, den, cut = transport._solve_dinic(mu, nu, cs)
        all_rest, all_den, all_cut = _solve_all_targets(mu, nu, cs)
        assert Fraction(rest, den) == Fraction(all_rest, all_den)
        assert rest / den == all_rest / all_den
        assert cut.tolist() == all_cut.tolist()
        moved += den != all_den
        got = check_ce_maxflow(mu, nu, cs)
        with monkeypatch.context() as mp:
            mp.setattr(transport, "_solve_dinic", _solve_all_targets)
            want = check_ce_maxflow(mu, nu, cs)
        assert got.holds == want.holds
        assert type(got.deficit) is type(want.deficit)
        assert got.deficit == want.deficit
        assert _signed(got.worst_set) == _signed(want.worst_set)
    assert moved > 0 or kind == "int"


def test_reached_lift_without_edges():
    # no arc at all: no target is lifted, and the leftover is all supply
    mu, nu, cs = _reach_instance(np.random.default_rng(60), "fraction", 12,
                                 edges=False)
    assert transport.build_flow_network(mu, nu, cs).num_edges == 0
    rest, den, cut = transport._solve_dinic(mu, nu, cs)
    assert Fraction(rest, den) == mu.total
    assert len(cut) == sum(w > 0 for _, w in mu.atoms)
    # the far targets' 997ths stay out of the lift
    assert 24 % den == 0 and _solve_all_targets(mu, nu, cs)[1] % 997 == 0
