"""Deciding whether mass can flow causally between two slices.

The ordering condition under test: every compact set K in the support of
the earlier measure must satisfy mu(K) <= nu(future cone of K).  By the
marriage theorem (Strassen 1965) this holds for all K iff a bipartite flow
saturating the earlier measure exists, so the decision procedure is a
max-flow on the atom/cell cone graph; the min cut names a worst offending
set.

The solver follows the geometry.  In one dimension every cone is an
interval of the same radius c*dt, so a worst set is a union of runs of
consecutive sources, and one prefix scan over the runs finds the largest
deficit mu(S) - nu(J+(S)) directly (the deficiency form of Hall's
theorem, Ore 1955); no graph is built, and targets outside every window,
which no set reaches, are not lifted.  With float weights and more than
`SMALL_SWEEP_ATOMS` sources, the scan first drops the leading and
trailing sources that no worst set can hold: the leading t go when every
run i..j before t has mu(i..j) < nu([lo_i, min(hi_j, lo_t))), strictly,
which float prefix sums decide soundly once each run's value is raised
by a bound on its own rounding error (`_solve_sweep_1d`).  So the far
tails of a Born grid, cells of 1e-200 beside cells of 0.1, are mostly
neither lifted nor scanned.  The leading pass reads only the targets
that the windows reach; the trailing pass reads only the sources that
the leading one kept and their targets, and does not run when it kept
none (`_trim_1d`).  When the kept sources' windows chain and every run
of them holds strictly more mass than the room that only it reaches,
again on float prefix sums under a rounding bound (`_one_run`; cf.
Shewchuk 1997 on float filters with exact fallbacks), they are the one
worst set: removing runs from them loses the sum of those runs' slacks,
and the trim leaves no worst set outside them.  Then the scan's loop
does not run, and the deficit is their lifted supply less the lifted
room of their windows.  The scan's worst set leaves as one array, which
`Region.point_boxes` merges in numpy.  In d >= 2 a greedy fill plus
bipartite Dinic phases on the cone graph's CSR arrays
(`maxflow.dinic_max_flow`) give a maximum flow, and residual reachability
the min-cut side; only the targets that some arc reaches are lifted and
solved (`_solve_dinic`), and when the mass left after the greedy fill
sits on sources without arcs, no search runs.  Both run on an exact
integer lift of the capacities and name the same worst set: the
inclusion-minimal one of greatest deficit.
Both solvers read the positive supports through `_support` and lift
their capacities through `_lift`: when every weight is a binary float
and there are more than `SMALL_SWEEP_ATOMS` sources (in d = 1, those the
trim keeps), from np.frexp in one numpy pass (`_frexp_lift`); Fraction,
int and bool weights, mixes of them with floats, and fewer sources one
capacity at a time (`_integer_lift`), to the same denominator and
numerators.
The d = 1 scan places its windows on Python lists when mu's positive
support is small, atoms or grid cells alike, and with numpy otherwise;
both paths give the same windows.  In d >= 2 the same axis-0 windows
pick the candidate pairs of the cone graph: `spacetime.window_blocks`
takes sources and targets in any order, sorts them on axis 0 itself,
settles the windows a run of sources at a time with the one cone kernel
and names each block's rows and columns (Efrat, Itai and Katz 2001 build
geometric bipartite graphs from neighbour queries the same way).

`conditions.check_ce` with method "auto" always runs this max-flow check.
The exhaustive subset scan `check_ce_bruteforce` stays for
`--method bruteforce` and as the test oracle.  It sums the same lifted
integers and ends in the same verdict rule (`_verdict`), so its verdict
equals max-flow's bit for bit; only its subset enumeration is its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress

import numpy as np

from .maxflow import dinic_max_flow
from .measure import SliceMeasure, Weight
from .region import Region
from .spacetime import (CausalStructure, _cone_windows, _small_cone_windows,
                        cone_blocks, cone_radius, point_cone_membership,
                        squared_cone_radius, window_blocks)

EPS_FLOW = 1e-9
_EPS_NUM, _EPS_DEN = EPS_FLOW.as_integer_ratio()
MAX_BRUTEFORCE_ATOMS = 20
# up to this many points in mu's positive support, atoms or grid cells,
# the d = 1 scan places its windows on Python lists, above it with numpy.
# Per `_solve_sweep_1d` call (best of 15, 2-core VM, unit spacing, 2 or 16
# targets a window): lists 16-37 us against numpy's 42-86 us at 2 points,
# about even at 32 to 40, and 170-370 against 142-338 us at 64.  Above it,
# float weights are lifted from np.frexp (`_lift`) and atom weights are
# read from the measure's weight array (`_support`); at or below it they
# keep the lists, as a frexp lift on 2-16 atoms slowed scenario_sweep by
# 8-10%, and the array read cost 3-5 us more a fresh measure of 2-16 atoms.
SMALL_SWEEP_ATOMS = 32


@dataclass(frozen=True)
class CeVerdict:
    holds: bool
    deficit: Weight
    worst_set: Region | None
    method: str

    def __post_init__(self) -> None:
        if self.deficit < 0:
            raise ValueError("deficit is clamped at zero")
        if not self.holds and self.worst_set is None:
            raise ValueError("failing verdict requires a worst set")


@dataclass(frozen=True)
class FlowNetwork:
    """Bipartite cone graph: source -> left (mu) -> right (nu) -> sink."""

    left_points: np.ndarray
    left_caps: tuple
    right_caps: tuple
    edge_indptr: np.ndarray   # CSR over left nodes
    edge_indices: np.ndarray  # right-node targets

    @property
    def num_left(self) -> int:
        return len(self.left_caps)

    @property
    def num_right(self) -> int:
        return len(self.right_caps)

    @property
    def num_edges(self) -> int:
        return int(self.edge_indptr[-1]) if len(self.edge_indptr) else 0


def _slice_gap(mu: SliceMeasure, nu: SliceMeasure,
               cs: CausalStructure) -> float:
    """Time from mu's slice to nu's, once both fit the causal structure."""
    if mu.dim != cs.dim or nu.dim != cs.dim:
        raise ValueError("measure dimension does not match causal structure")
    dt = nu.time - mu.time
    if dt < 0:
        raise ValueError("nu must live on the later slice")
    return dt


def _support(m: SliceMeasure, ordered: bool = False):
    """Positions and weights of the atoms or cells with positive mass.

    A grid's weights, and those of more than `SMALL_SWEEP_ATOMS` atoms
    that are all binary floats (`SliceMeasure.all_float`), are read from
    the measure's cached `weights_flat` in one numpy pass and stay a float
    array.  Other atom weights keep their own type, and fewer atoms, whose
    array would cost more to build than the loop, are read one at a time
    into a list.  `ordered` puts atoms in stable axis-0 order; grid cells
    come in it."""
    if m.is_atomic and (len(m.atoms) <= SMALL_SWEEP_ATOMS
                        or not m.all_float):
        atoms = [a for a in m.atoms if a[1] > 0]
        if ordered:
            atoms.sort(key=lambda a: a[0][0])
        pts = np.array([p for p, _ in atoms], dtype=float)
        return pts.reshape(-1, m.dim), [w for _, w in atoms]
    pts, w = m.positions, m.weights_flat
    keep = np.flatnonzero(w > 0)
    if ordered and m.is_atomic:
        keep = keep[np.argsort(pts[keep, 0], kind="stable")]
    return pts[keep], w[keep]


def _listed(w) -> list:
    return w.tolist() if isinstance(w, np.ndarray) else list(w)


def _lift(left, right, mu: SliceMeasure,
          nu: SliceMeasure) -> tuple[int, list[int]]:
    """Common denominator and integer numerators of the capacities of mu's
    sources `left` and then of nu's targets `right`.

    When there are more than `SMALL_SWEEP_ATOMS` sources and every weight
    of mu and nu is a binary float (`SliceMeasure.all_float`, read only
    then, as its first read is a pass over fresh atoms), they are lifted
    from np.frexp in one numpy pass (`_frexp_lift`); fewer sources, and
    Fraction, int and bool weights or mixes of them with floats, are
    lifted one capacity at a time (`_integer_lift`).  Both give the same
    denominator and numerators."""
    if len(left) > SMALL_SWEEP_ATOMS and mu.all_float and nu.all_float:
        return _frexp_lift(np.concatenate((left, right)))
    return _integer_lift(_listed(left) + _listed(right))


def _integer_lift(caps) -> tuple[int, list[int]]:
    """Common denominator and the integer numerators of `caps` over it.

    Floats are dyadic rationals, so the lift is lossless and keeps the flow
    decision free of rounding and overflow regardless of magnitude.  When
    every denominator is a power of two (one set bit each), the lcm is
    simply the largest and each numerator is lifted by a shift; other
    denominators (from Fraction weights) go through math.lcm and a
    division per capacity.
    """
    ratios = [c.as_integer_ratio() if isinstance(c, float)
              else Fraction(c).as_integer_ratio() for c in caps]
    dens = [d for _, d in ratios]
    if sum(map(int.bit_count, dens)) == len(dens):
        bits = max(map(int.bit_length, dens), default=1)
        return 1 << (bits - 1), [n << (bits - d.bit_length())
                                 for n, d in ratios]
    den = math.lcm(*set(dens))
    return den, [n * (den // d) for n, d in ratios]


def build_flow_network(mu: SliceMeasure, nu: SliceMeasure,
                       cs: CausalStructure) -> FlowNetwork:
    """Cone graph between the supports of mu and nu.

    Sources and targets go in any order through
    `spacetime.window_blocks`, which settles every pair of each source's
    axis-0 window by the `sum_squares` test of the one cone kernel, in
    blocks of at most `region.BLOCK_PAIRS` pairs (or one source), and
    names the rows and columns of each block; no edge lies outside the
    windows, so the edges are that kernel's over all pairs, each row in
    ascending target index.  A block's edges are its flat true indices,
    split into row and column by the block's width.
    """
    dt = _slice_gap(mu, nu, cs)
    left_pts, left_caps = _support(mu)
    right_pts, right_caps = _support(nu)
    k, n = len(left_pts), len(right_pts)
    keys = [np.empty(0, dtype=np.int64)]
    for rows, cols, block in window_blocks(left_pts, dt, cs, right_pts):
        # a 2-D np.nonzero took as long as computing the block
        r, c = np.divmod(block.ravel().nonzero()[0], block.shape[1])
        # one int64 key orders the edges by source, then by target index
        keys.append(rows[r] * n + cols[c])
    key = np.concatenate(keys)
    key.sort()
    return FlowNetwork(
        left_points=left_pts, left_caps=tuple(_listed(left_caps)),
        right_caps=tuple(_listed(right_caps)),
        edge_indptr=key.searchsorted(np.arange(k + 1, dtype=np.int64) * n),
        edge_indices=key % max(n, 1))


def _solve_dinic(mu: SliceMeasure, nu: SliceMeasure,
                 cs: CausalStructure) -> tuple[int, int, np.ndarray]:
    """Exact max-flow deficit and min-cut left points on the cone graph,
    with the deficit as leftover supply over the lift's denominator.

    Only the targets that some arc reaches are lifted and handed to the
    solver, renumbered in order: the others take no flow and no cut.
    Dropping them may change the denominator, but not the quotient, as
    in the d = 1 scan.  The cut's points come back as one (k, d) array.
    """
    net = build_flow_network(mu, nu, cs)
    nl = net.num_left
    hit = np.zeros(net.num_right, dtype=bool)
    hit[net.edge_indices] = True
    heads = (np.cumsum(hit) - 1)[net.edge_indices]
    den, caps = _lift(net.left_caps,
                      list(compress(net.right_caps, hit.tolist())), mu, nu)
    rest, cut = dinic_max_flow(caps[:nl], heads.tolist(),
                               net.edge_indptr.tolist(), caps[nl:])
    return rest, den, net.left_points[cut]


def _frexp_lift(w: np.ndarray) -> tuple[int, list[int]]:
    """`_integer_lift` of an array of finite nonnegative floats: each weight
    is its 53-bit mantissa times a power of two, read from np.frexp, with
    the mantissa's trailing zeros moved into the exponent, so the lowest
    exponent (or 0, the exponent of 0.0 and the integers) gives the same
    reduced denominator and numerators.  A numerator's width is its
    weight's frexp exponent less the lowest exponent.  When the widest
    fits in 63 bits (53-bit mantissas within about 2**10 of each other,
    as in the atom clouds of `atoms_2d`), the numerators are shifted in
    int64 and read with one `.tolist()`; wider lifts, such as a Born
    grid's full support, take one Python shift a numerator."""
    frac, top = np.frexp(w)  # w < 2**top
    mant = np.ldexp(frac, 53).astype(np.int64)
    nonzero = mant > 0
    # the lowest set bit is exact in a float; np.frexp(0) gives exponent 0
    zeros = np.frexp((mant & -mant).astype(float))[1] - 1
    zeros[~nonzero] = 0
    exp = np.where(nonzero, top - 53 + zeros, 0)
    low = int(exp.min(initial=0))
    mant >>= zeros
    # a zero's shift would be -low, which may pass int64's width
    shift = np.where(nonzero, exp - low, 0)
    if int(top.max(initial=low, where=nonzero)) - low <= 63:
        return 1 << -low, (mant << shift).tolist()
    return 1 << -low, [v << e for v, e in zip(mant.tolist(), shift.tolist())]


# a sum that overflows is no input error (see the last comment below), so
# numpy is told not to warn of it
@np.errstate(over="ignore", invalid="ignore")
def _droppable(s: np.ndarray, c: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> int:
    """The most leading sources that no worst set holds, as certified in
    floats; the certificate and its rounding bound are `_trim_1d`'s.

    It reads the supplies s of the sources and the rooms c of the targets
    it is given, each window [lo_i, hi_i) an index range of c, and takes
    its rounding bound from their counts: the bound holds for the prefix
    sums of any such arrays, so a caller may hand it the targets that the
    windows reach, shifted to start at 0."""
    k, m = len(s), len(c)
    supply = np.concatenate(([0.0], np.cumsum(s)))  # before each source
    room = np.concatenate(([0.0], np.cumsum(c)))    # before each target
    # best[j]: the largest room[lo_i] - supply[i] over the sources i <= j
    best = np.maximum.accumulate(room[lo] - supply[:-1])
    tol, ulps = 8 * (k + m) * 2.0 ** -52, (k + m) * 2.0 ** -1074

    def excess(end):
        # per j, the largest mu(i..j) - nu([lo_i, end_j)) over i <= j,
        # raised by a bound on its own rounding error
        top, past = supply[1:], room[end]
        return (top + best) - past + (tol * (top + past) + ulps)

    # cut t keeps sources t.. and their targets from lo_t on (m if t = k)
    cut = np.append(lo[1:], m)
    # runs that end before cut t with their windows: a prefix of the j,
    # hi_j <= lo_t; the others count up to lo_t, most at j = t - 1
    whole = np.maximum.accumulate(excess(hi))
    short = np.minimum(hi.searchsorted(cut, "right"), np.arange(1, k + 1))
    ok = (excess(np.minimum(hi, cut)) < 0) & (
        (short == 0) | (whole[short - 1] < 0))
    # NaN from an overflowed sum fails every test above
    return int(np.flatnonzero(ok)[-1]) + 1 if ok.any() else 0


def _trim_1d(s: np.ndarray, c: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> tuple[int, int]:
    """Sources [t0, t1) of the d = 1 scan outside of which no worst set
    holds a source, for float supplies s, float rooms c and the windows,
    nondecreasing at both ends.

    The leading pass reads every source and the targets [lo_0, hi_{k-1})
    that some window reaches.  When it drops every source, no set falls
    short and the trailing pass does not run.  Otherwise the trailing pass
    reads only the sources t0.. that are left and the targets [lo_t0,
    hi_{k-1}) that they reach, reversed.  That is sound: no worst set
    holds a dropped leading source, so the worst sets of the whole scan
    are those of the scan over sources t0.., whose trailing sources the
    mirror image certifies."""
    k = len(s)
    a, b = int(lo[0]), int(hi[-1])
    t0 = _droppable(s, c[a:b], lo - a, hi - a)
    if t0 == k:
        return k, k
    # the trailing side in mirror image: tail sums from their own end; the
    # slice is reversed whole, as c[b - 1:a - 1:-1] wraps at a = 0 or b = 0
    a = int(lo[t0])
    return t0, k - _droppable(s[t0:][::-1], c[a:b][::-1],
                              b - hi[t0:][::-1], b - lo[t0:][::-1])


@np.errstate(over="ignore", invalid="ignore")
def _one_run(s: np.ndarray, c: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> bool:
    """Whether the sources 0..k-1, k >= 1, are certified in floats to be
    the one worst set among their subsets; the certificate and its
    rounding bound are `_solve_sweep_1d`'s.

    It reads the supplies s, the rooms c and the windows [lo_i, hi_i),
    index ranges of c, nondecreasing at both ends.  Piece i..j-1 is
    tested on the targets [H_i, L_j) with H_0 = lo_0, H_i = hi_{i-1},
    L_j = lo_j and L_k = hi_{k-1}, for every i <= j with H_i < L_j: the
    empty piece j..j-1 is tested when hi_{j-1} < lo_j, and fails, so the
    windows chain when the test holds."""
    a, b = int(lo[0]), int(hi[-1])
    k, m = len(s), b - a
    supply = np.concatenate(([0.0], np.cumsum(s)))  # before each source
    room = np.concatenate(([0.0], np.cumsum(c[a:b])))
    starts = np.concatenate(([0], hi[:-1] - a))  # H_i
    ends = np.append(lo[1:] - a, m)              # L_j, j = 1..k
    # best[q]: the largest supply[i] - room[H_i] over i < q, -inf at q = 0
    best = np.maximum.accumulate(
        np.concatenate(([-np.inf], supply[:-1] - room[starts])))
    # the pieces i..j-1 with H_i < L_j are those with i < q_j
    q = starts.searchsorted(ends)
    top, past = supply[1:], room[ends]
    tol, ulps = 8 * (k + m) * 2.0 ** -52, (k + m) * 2.0 ** -1074
    # NaN from an overflowed sum fails the test
    return bool(((top - past) - best[q] > tol * (top + past) + ulps).all())


def _solve_sweep_1d(mu: SliceMeasure, nu: SliceMeasure,
                    cs: CausalStructure
                    ) -> tuple[int, int, list | np.ndarray]:
    """Exact deficit and worst-set points of the ordering check in d = 1.

    The deficit is the largest mu(S) - nu(J+(S)) over source sets S, the
    leftover supply of a maximum flow (Ore 1955).  Window ends rise with
    the sources, so a source between two members of S whose windows meet
    reaches nothing new: a worst set is a union of runs of consecutive
    sources, each reaching the targets from its first window's start to
    its last window's end, no two the same target.  One left-to-right scan
    over prefix sums finds the best union; a run from source i may follow
    only runs that end before the first source whose window ends past
    lo[i].  Each source counts w = k + 1 times its supply less one, so
    ties go to the fewest sources: the maximisers of this supermodular
    score form a lattice, so that is the inclusion-minimal worst set, the
    one that residual reachability names.  Only the targets from the
    lowest window start to the highest window end are lifted; the others
    are outside every window.  Returns the deficit and the lift's
    denominator as integers; dropping targets may change the denominator,
    but not their quotient.

    Above `SMALL_SWEEP_ATOMS` sources with float weights, the scan first
    drops the leading and trailing sources that no worst set holds
    (`_trim_1d`, whose passes read only the targets that their sources'
    windows reach), and lifts the rest by `_lift`.  The leading t
    sources go if every run i..j < t has mu(i..j) < nu([lo_i, min(hi_j,
    lo_t))): kept sources reach nothing before lo_t, and the dropped
    members of a set split into groups whose windows chain, each reaching
    [lo of its first, hi of its last), so adding them to any set lowers
    its deficit strictly, and no maximiser holds one.  The trailing side
    is the mirror image.  The test runs on float prefix sums: for each j,
    the worst run ending there is M[j+1] + max_{i<=j}(R[lo_i] - M[i]) -
    R[end], which `np.cumsum`'s sequential sums and three more roundings
    get within (3 max(k, m) + 4) 2**-53 (M[j+1] + R[end]) to first order,
    additions being exact in the subnormal range.  Raised by 8 (k + m)
    2**-52 of that sum plus k + m subnormal ulps, a value still below 0
    proves the strict inequality; the largest t so proved is taken.  The
    deficit, its quotient and the worst set are those of the whole scan.

    When the trim keeps sources A = 0..k-1, k >= 1, the scan does not run
    if they are certified to be the one worst set (`_one_run`); the
    deficit is then A's lifted supply less the lifted room of [lo_0,
    hi_{k-1}).  Every worst set lies in A (the trim).  When the windows
    chain, hi_i >= lo_{i+1}, a set S in A falls short of A by the sum,
    over the maximal runs i..j-1 of A outside S, of mu(i..j-1) less the
    room that only that piece reaches, [H_i, L_j) with H_i = hi_{i-1}
    and L_j = lo_j, read as lo_0 at i = 0 and as hi_{k-1} at j = k: any
    other target of the piece lies in the window of a source of S beside
    it.  So A is the one maximiser when every piece with H_i < L_j holds
    more supply than that room, and by at least one lifted unit, so the
    scan's score w D - |S| (w = k + 1 > |S|) peaks at A alone too.  For
    each j one running max of M[i] - R[H_i] settles every piece ending
    there; a break in the chain, hi_{j-1} < lo_j, is the empty piece
    j..j-1, whose room holds mass, so it fails.  Each value M[j] - R[L_j]
    - max_i (M[i] - R[H_i]) is within (2 (k + m) - 1) 2**-53 (M[j] +
    R[L_j]) of its exact value to first order, and it certifies only when
    it is above the trim's bound of that sum, computed on the targets
    [lo_0, hi_{k-1}); a NaN fails.  Unions of several runs, ties within
    the bound, exact weights and small inputs take the scan.

    The worst set's points come back as a list of 1-tuples at or below
    `SMALL_SWEEP_ATOMS` sources, and above it as one (k, 1) array taken
    from the sorted positions by the runs, or all of them when certified,
    which `Region.point_boxes` merges in numpy.
    """
    dt = _slice_gap(mu, nu, cs)
    reach, r2 = cone_radius(dt, cs), squared_cone_radius(dt, cs)
    xs, left_caps = _support(mu, ordered=True)
    ys, right_caps = _support(nu, ordered=True)
    xs, ys = xs[:, 0], ys[:, 0]
    small = len(xs) <= SMALL_SWEEP_ATOMS
    one = False
    if small:
        lo, hi = _small_cone_windows(xs.tolist(), ys.tolist(), reach, r2)
    else:
        lo, hi = _cone_windows(xs, ys, reach, r2)
        if mu.all_float and nu.all_float:
            keep = slice(*_trim_1d(left_caps, right_caps, lo, hi))
            xs, lo, hi = xs[keep], lo[keep], hi[keep]
            left_caps = left_caps[keep]
            one = len(xs) > 0 and _one_run(left_caps, right_caps, lo, hi)
        lo, hi = lo.tolist(), hi.tolist()
    a, b = min(lo, default=0), max(hi, default=0)
    den, caps = _lift(left_caps, right_caps[a:b], mu, nu)
    k = len(xs)
    if one:
        return sum(caps[:k]) - sum(caps[k:]), den, xs[:, None]
    w = k + 1
    # room[t]: w times the room of the lifted targets before t
    room = list(accumulate((w * c for c in caps[k:]), initial=0))
    best = [0]    # best[j]: the top score of a union of runs before j
    start = []    # start[j]: where the run ending at j starts, -1 if none
    prev = []     # prev[i]: runs before one from i use sources before it
    # top: the max of best[prev[i]] + room[lo[i]] - gain over i so far
    top, arg = -math.inf, 0
    p = gain = 0  # gain: the summed w * supply - 1 of the sources before i
    for i, (s, lo_i, hi_i) in enumerate(zip(caps, lo, hi)):
        while p < i and hi[p] <= lo_i:
            p += 1
        prev.append(p)
        here = best[p] + room[lo_i - a] - gain
        if here > top:
            top, arg = here, i
        gain += w * s - 1
        score = top + gain - room[hi_i - a]
        if score > best[i]:
            start.append(arg)
            best.append(score)
        else:
            start.append(-1)
            best.append(best[i])
    runs, j = [], k
    while j:
        i = start[j - 1]
        if i < 0:
            j -= 1
        else:
            runs.append(slice(i, j))
            j = prev[i]
    runs.reverse()
    if small:
        x = xs.tolist()
        cut = [(v,) for run in runs for v in x[run]]
    else:
        inside = np.zeros(k, dtype=bool)
        for run in runs:
            inside[run] = True
        cut = xs[inside][:, None]
    return -(-best[k] // w), den, cut


def _verdict(rest: int, den: int, cut_pts, mu: SliceMeasure,
             nu: SliceMeasure, method: str) -> CeVerdict:
    """The verdict on a leftover supply `rest` over the lift's denominator
    `den` and the points of the worst set that leaves it.

    The eps_flow slack on float verdicts is tested on the integers, and a
    Fraction is built only when every weight is rational."""
    exact = mu.exact and nu.exact
    if rest == 0 or (not exact and rest * _EPS_DEN <= _EPS_NUM * den):
        return CeVerdict(True, Fraction(0) if exact else 0.0, None, method)
    try:
        # int true division rounds correctly, as float(Fraction) does
        deficit = Fraction(rest, den) if exact else rest / den
    except OverflowError:
        raise ValueError("the deficit overflows a float") from None
    worst = Region.point_boxes(cut_pts, mu.dim, halfwidth=mu.cell_halfwidth)
    return CeVerdict(False, deficit, worst, method)


def check_ce_maxflow(mu: SliceMeasure, nu: SliceMeasure,
                     cs: CausalStructure) -> CeVerdict:
    """Flow-based ordering check; min cut names the worst offending set.

    The solver is the exact prefix scan over runs in d = 1; in d >= 2 it
    is a greedy fill plus bipartite Dinic phases on the CSR arrays of the
    cone graph.
    Either is exact for any input; the eps_flow slack on float verdicts
    only absorbs noise already present in the given weights.  Both return
    the leftover supply as an integer over the lift's denominator, so the
    verdict is decided on integers (`_verdict`).
    """
    solve = _solve_sweep_1d if cs.dim == 1 else _solve_dinic
    return _verdict(*solve(mu, nu, cs), mu, nu, "maxflow")


def _cone_bits(sources: np.ndarray, dt: float, cs: CausalStructure,
               targets: np.ndarray) -> list[int]:
    """Per source, the targets in its closed cone as an integer bitset."""
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(),
                           "little")
            for block in cone_blocks(sources, dt, cs, targets)
            for row in block]


def check_ce_bruteforce(mu: SliceMeasure, nu: SliceMeasure,
                        cs: CausalStructure) -> CeVerdict:
    """Exhaustive subset scan over mu's atoms (capped at 20 atoms).

    The scan sums the integer capacities of `_lift`, as max-flow does, and
    hands its largest deficit to the same verdict rule (`_verdict`), so
    the two solvers give the same holds, deficit and worst set bit for
    bit: in exact integers the first maximiser in subset-bitmask order is
    the inclusion-minimal worst set.
    """
    if not mu.is_atomic:
        raise ValueError("bruteforce check requires an atomic mu")
    dt = _slice_gap(mu, nu, cs)
    left_pts, left_caps = _support(mu)
    n = len(left_pts)
    if n > MAX_BRUTEFORCE_ATOMS:
        raise ValueError(f"bruteforce capped at {MAX_BRUTEFORCE_ATOMS} atoms")
    right_pts, right_caps = _support(nu)
    den, caps = _lift(left_caps, right_caps, mu, nu)
    best, subset = _subset_scan(caps[:n], caps[n:],
                                _cone_bits(left_pts, dt, cs, right_pts))
    cut = np.array([subset >> i & 1 for i in range(n)], dtype=bool)
    return _verdict(best, den, left_pts[cut], mu, nu, "bruteforce")


def _subset_scan(mu_w: list[int], nu_w: list[int],
                 cone_bits: list[int]) -> tuple[int, int]:
    """The greatest mu(S) - nu(J+(S)) over subsets S of the sources, 0 for
    the empty set, and the first subset (as a bitmask) that reaches it."""
    n = len(mu_w)
    nu_mass_cache: dict[int, int] = {0: 0}

    def nu_mass(bits: int) -> int:
        got = nu_mass_cache.get(bits)
        if got is not None:
            return got
        low = bits & -bits
        rest = nu_mass(bits ^ low)
        val = rest + nu_w[low.bit_length() - 1]
        nu_mass_cache[bits] = val
        return val

    best = best_subset = 0
    mu_sum = [0] * (1 << n)
    or_bits = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        i = low.bit_length() - 1
        mu_sum[s] = mu_sum[s ^ low] + mu_w[i]
        or_bits[s] = or_bits[s ^ low] | cone_bits[i]
        d = mu_sum[s] - nu_mass(or_bits[s])
        if d > best:
            best = d
            best_subset = s
    return best, best_subset


def recompute_deficit(mu: SliceMeasure, nu: SliceMeasure, worst: Region,
                      cs: CausalStructure) -> Weight:
    """Re-derive mu(W) - nu(cone(W)) from first principles for a worst set.

    Point sources inside W use the exact Euclidean cone, matching the edge
    rule of the flow network in every dimension: each target is tested
    against every source by `point_cone_membership`.
    """
    dt = nu.time - mu.time
    mu_in = mu.restricted(worst)
    src_pts = (mu_in.positions[mu_in.weights_flat > 0]
               if mu_in.is_grid else mu_in.positions)
    if len(src_pts) == 0:
        return Fraction(0) if (mu.exact and nu.exact) else 0.0
    mask = point_cone_membership(src_pts, dt, cs, nu.positions)
    if nu.is_atomic:
        nu_cov = sum((w for (_, w), hit in zip(nu.atoms, mask) if hit),
                     Fraction(0) if nu.exact else 0.0)
    else:
        nu_cov = float(nu.weights_flat[mask].sum())
    return mu_in.total - nu_cov
