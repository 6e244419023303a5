"""Seeded scenario generators shared across the test modules."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from causal_lab.conditions import MeasurementScenario
from causal_lab.measure import (SliceMeasure, _aligned_diffs, _larger_side,
                                mixture, restriction_distance)
from causal_lab.protocol import LatticeSpec, make_annulus_scenario
from causal_lab.region import Region
from causal_lab.spacetime import (CausalStructure, SliceFuture,
                                  causal_future_on_slice, cone_radius)

# fixed 1D grid geometry: K and its future land exactly on cell edges
GRID_N = 28
GRID_H = 0.25
GRID_ORIGIN = -3.5
GRID_S, GRID_T = 0.0, 1.0
GRID_REACH_CELLS = 4  # c * (t - s) / h
GRID_K = Region.interval(-0.75, 0.75)
GRID_CS = CausalStructure(dim=1, c=1.0)
GRID_JK = causal_future_on_slice(GRID_K, GRID_T - GRID_S, GRID_CS)

ABC_MODES = ("uniform", "ns", "a1", "a2", "all", "corner")
GRID_MODES = ("generic", "ns", "a1", "a2", "three", "break")

_CORNER_TRIPLES = (
    (1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0), (2 / 3, 1 / 3, 1.0),
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 1.0), (1.0, 0.5, 0.5),
    (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.5, 1.0, 0.0), (0.75, 1.0, 0.5),
)


def random_abc_triple(rng: np.random.Generator, mode: str = "uniform"):
    """One (a, b, c) sample; engineered modes pin chosen conditions true."""
    if mode == "uniform":
        return tuple(rng.random(3))
    if mode == "ns":
        while True:
            a, b = rng.random(2)
            c = 2 * a - b
            if 0.0 <= c <= 1.0:
                return a, b, c
    if mode == "a1":
        a, c = rng.random(2)
        return a, 1.0, c
    if mode == "a2":
        a = 0.5 + 0.5 * rng.random()
        return a, rng.random(), 2 * a - 1
    if mode == "all":
        a = 0.5 + 0.5 * rng.random()
        return a, 1.0, 2 * a - 1
    if mode == "corner":
        return _CORNER_TRIPLES[rng.integers(len(_CORNER_TRIPLES))]
    raise ValueError(f"unknown mode {mode!r}")


def predicted_abc_flags(a, b, c, tol: float = 1e-9):
    """(ce, ns, a1, a2) from the family algebra; valid off knife edges."""
    ns = abs(2 * a - (b + c)) <= tol
    a1 = abs(b - 1) <= tol
    a2 = abs(2 * a - (1 + c)) <= tol
    ce = 2 * a >= 1 - 2 * tol
    return ce, ns, a1, a2


def _grid_measure(time: float, weights: np.ndarray) -> SliceMeasure:
    return SliceMeasure.from_grid(time, (GRID_ORIGIN,), GRID_H,
                                  np.asarray(weights, dtype=float))


def _grid_cell_index(x: float) -> int:
    return int((x - GRID_ORIGIN) // GRID_H)


def _inside_masks():
    centers = GRID_ORIGIN + (np.arange(GRID_N) + 0.5) * GRID_H
    pts = centers.reshape(-1, 1)
    return GRID_K.contains_points(pts), GRID_JK.contains_points(pts)


_IN_K, _IN_JK = _inside_masks()


def _causal_push(rng: np.random.Generator, w_mu: np.ndarray) -> np.ndarray:
    """Pushforward moving each cell's mass at most GRID_REACH_CELLS cells."""
    w = np.zeros(GRID_N)
    for i, m in enumerate(w_mu):
        if m == 0:
            continue
        lo = max(0, i - GRID_REACH_CELLS)
        hi = min(GRID_N - 1, i + GRID_REACH_CELLS)
        split = rng.random()
        w[rng.integers(lo, hi + 1)] += m * split
        w[rng.integers(lo, hi + 1)] += m * (1 - split)
    return w


def _random_dist(rng: np.random.Generator, mask=None) -> np.ndarray:
    w = rng.random(GRID_N) + 0.02
    if mask is not None:
        w = w * mask
    return w / w.sum()


def random_grid_scenario(rng: np.random.Generator, mode: str = "generic"):
    """Valid grid scenario; engineered modes pin chosen conditions true.

    Returns (scenario, expected) where expected maps condition names to
    booleans the construction guarantees (other outcomes are left free).
    """
    if mode not in GRID_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    w_mu = _random_dist(rng)
    p = float(w_mu[_IN_K].sum())
    w_nu0 = _causal_push(rng, w_mu)
    expected = {"ce": True}

    if mode == "break":
        # drain the detector future to defeat the ordering condition
        donors = np.nonzero(_IN_JK & (w_nu0 > 0))[0]
        sink = _grid_cell_index(3.4)
        moved = float(w_nu0[donors].sum())
        w_nu0[donors] = 0.0
        w_nu0[sink] += moved
        expected = {"ce": False}

    out_mass = float(w_nu0[~_IN_JK].sum())
    if mode == "ns":
        # split nu0 into outcome branches that recombine to it exactly
        bump = np.zeros(GRID_N)
        jk_cells = np.nonzero(_IN_JK)[0]
        gi, gj = rng.choice(jk_cells, size=2, replace=False)
        eps = 0.25 * min(p, 1 - p) * min(w_nu0[gi] + 0.01, 0.05)
        bump[gi], bump[gj] = eps, -eps
        w_plus = w_nu0 + bump / p
        w_minus = w_nu0 - bump / (1 - p)
        if w_plus.min() < 0 or w_minus.min() < 0:
            w_plus, w_minus = w_nu0.copy(), w_nu0.copy()
        expected.update({"ns": True})
    elif mode == "a1":
        w_plus = _random_dist(rng, _IN_JK)
        w_minus = _random_dist(rng)
        expected.update({"a1": True})
    elif mode in ("a2", "three"):
        w_minus = np.where(_IN_JK, 0.0, w_nu0) / (1 - p)
        remainder = 1.0 - float(w_minus.sum())
        w_minus = w_minus + remainder * _random_dist(rng, _IN_JK)
        w_plus = (_random_dist(rng, _IN_JK) if mode == "three"
                  else _random_dist(rng))
        expected.update({"a2": True})
        if mode == "three":
            expected.update({"ns": True, "a1": True})
    else:
        w_plus = _random_dist(rng)
        w_minus = _random_dist(rng)

    if mode == "a2":
        # an unconfined positive branch must leak outside the future
        if float(w_plus[~_IN_JK].sum()) < 1e-3 or out_mass < 1e-3:
            return random_grid_scenario(rng, mode)

    mu = _grid_measure(GRID_S, w_mu)
    nu0 = _grid_measure(GRID_T, w_nu0)
    nu_plus = _grid_measure(GRID_T, w_plus)
    nu_minus = _grid_measure(GRID_T, w_minus)
    nu1 = mixture(p, nu_plus, nu_minus)
    sc = MeasurementScenario(cs=GRID_CS, K=GRID_K, mu=mu, nu0=nu0, nu1=nu1,
                             nu_plus=nu_plus, nu_minus=nu_minus, p_plus=p)
    return sc, expected


def random_atomic_pair(rng: np.random.Generator, max_atoms: int = 12):
    """Random atomic (mu, nu, cs, dt) pair for ordering-check cross-tests."""
    dim = int(rng.integers(1, 3))
    cs = CausalStructure(dim=dim, c=float(rng.uniform(0.5, 2.0)))
    nl = int(rng.integers(1, max_atoms + 1))
    nr = int(rng.integers(1, max_atoms + 1))
    span = 3.0
    mu_pts = rng.uniform(-span, span, (nl, dim))
    nu_pts = rng.uniform(-span, span, (nr, dim))
    regime = rng.integers(3)
    dt = (0.0, float(rng.uniform(0.2, 1.5)), float(rng.uniform(3.0, 8.0)))[regime]
    mu_w = rng.random(nl) + 1e-3
    mu_w /= mu_w.sum()
    nu_w = rng.random(nr) + 1e-3
    nu_w /= nu_w.sum()
    mu = SliceMeasure.from_atoms(0.0, list(zip(map(tuple, mu_pts), mu_w)))
    nu = SliceMeasure.from_atoms(dt, list(zip(map(tuple, nu_pts), nu_w)))
    return mu, nu, cs


def drained_cloud(rng: np.random.Generator, k: int, dt: float = 0.4):
    """The failing atom clouds of the atoms_2d benchmark, in d = 2.

    nu is mu pushed inside each atom's cone, except for 3/4 of the atoms,
    in a box of their own, whose nu atoms are sent far away; their cones
    are empty and every other atom can ship all its mass, so the min cut
    is exactly the drained atoms.  Returns (mu_pts, nu_pts, weights,
    drained indices); the weights are float64 and sum to 1.
    """
    k_drained = 3 * k // 4
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
    return mu_pts, nu_pts, weights, drained


def cone_corner_scenario():
    """2+1 scenario that signals through the corner of a box dilation.

    K = [-0.1, 0.1]^2 and dt = c = 1.  The atom at (0.9, 0.9) lies within
    c*dt of K along each axis, but 1.13 from K, outside its causal
    future; the probe moves 0.25 of its mass to the origin.  Returns the
    scenario and a lattice on which a protocol exists.
    """
    cs = CausalStructure(dim=2, c=1.0)
    origin, corner = (0.0, 0.0), (0.9, 0.9)

    def post(w):
        return SliceMeasure.from_atoms(1.0, [(origin, 1.0 - w), (corner, w)])

    nu_plus, nu_minus = post(0.0), post(0.5)
    sc = MeasurementScenario(
        cs=cs, K=Region.from_boxes([((-0.1, -0.1), (0.1, 0.1))]),
        mu=SliceMeasure.from_atoms(0.0, [(origin, 0.5), (corner, 0.5)]),
        nu0=post(0.5), nu1=mixture(0.5, nu_plus, nu_minus),
        nu_plus=nu_plus, nu_minus=nu_minus, p_plus=0.5)
    lattice = LatticeSpec(q_time=1.5, q_lo=(1.0, 1.0), q_hi=(1.4, 1.4),
                          q_points=5, p_time=-1.0, p_lo=(-1.0, -1.0),
                          p_hi=(1.0, 1.0), p_points=11,
                          cover_resolution=0.05)
    return sc, lattice


def _per_check_mass(m: SliceMeasure, future: SliceFuture):
    """`SliceMeasure.mass` as it was: a membership pass of its own, then
    the weights summed in atom order."""
    inside = future.contains_points(m.positions)
    if m.is_atomic:
        hits = [w for (_, w), h in zip(m.atoms, inside.tolist()) if h]
        if m.exact:
            return sum(hits, Fraction(0))
        return float(sum(float(w) for w in hits))
    return float(m.weights_flat[inside].sum())


def per_check_details(sc: MeasurementScenario):
    """ns, a1, a2 and the ordering leg at the detector, each asking the
    detector future of its own support, as the checks did before a
    scenario kept one table of that future: a `SliceFuture` pass per
    measure, and a2 through `restriction_distance` on `nu0.scaled`.

    Returns {name: result}, named for the `conditions` function it stands
    for; a check that raises gives ("raises", type, message).
    """
    future = SliceFuture(sc.K, sc.t_time - sc.s_time, sc.cs)
    tol = sc.mass_tol

    def ns():
        positions, diffs = _aligned_diffs(sc.nu0, sc.nu1)
        d = _larger_side(diffs, ~future.contains_points(positions),
                         sc.nu0.exact and sc.nu1.exact)
        return d <= tol, d

    def a1():
        m = _per_check_mass(sc.nu_plus, future)
        if sc.p_plus <= tol:
            return True, True, m
        return m >= 1 - tol, False, m

    def a2():
        if 1 - sc.p_plus <= tol:
            return True, True, 0 if sc.exact else 0.0
        scale = (Fraction(1, 1) / (1 - sc.p_plus) if sc.exact
                 else 1.0 / (1.0 - float(sc.p_plus)))
        d = restriction_distance(sc.nu_minus, sc.nu0.scaled(scale),
                                 outside=future)
        return d <= tol, False, d

    def ce_at_detector():
        short = sc.mu.mass(sc.K) - _per_check_mass(sc.nu0, future)
        return short <= tol

    out = {}
    for name, check in (("_ns_detail", ns), ("_a1_detail", a1),
                        ("_a2_detail", a2),
                        ("_ce_at_detector", ce_at_detector)):
        try:
            out[name] = check()
        except ValueError as exc:
            out[name] = ("raises", type(exc), str(exc))
    return out


SUPPORT_KINDS = ("atoms", "exact", "mixed", "grid", "grid_2d",
                 "other_grid", "atoms_beside_grid", "other_grid_minus")


def _support_weights(rng, kind: str, k: int):
    """k weights: floats, Fractions, or for "mixed" all floats, all
    Fractions, or each a float, an int or a Fraction."""
    if kind == "mixed":
        kind = ("atoms", "exact", "each")[rng.integers(0, 3)]
    if kind == "exact":
        return [Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 9)))
                for _ in range(k)]
    if kind == "each":
        return [(float(rng.random()), int(rng.integers(0, 3)),
                 Fraction(int(rng.integers(0, 5)), 4))[rng.integers(0, 3)]
                for _ in range(k)]
    return (rng.random(k) * (rng.random(k) < 0.8)).tolist()


def _random_grid(rng, time, origin, cell, shape):
    return SliceMeasure.from_grid(time, origin, cell, rng.random(shape))


def random_support_scenario(rng: np.random.Generator, kind: str):
    """Scenario whose post-slice measures line up in the ways the checks
    must handle, valid or not.

    Atom kinds, in d = 1 to 3: each post-slice measure holds a random
    subset of one point pool, in an order of its own and at times empty,
    so supports are shuffled and partly disjoint; the pool holds a point
    on the rim of the detector future.  "exact" weighs them with
    Fractions, "mixed" with floats, ints and Fractions.  Grid kinds:
    `random_grid_scenario`, 2-D grids of one geometry, nu_plus on a grid
    of another geometry or as atoms beside the grids, and nu_minus on a
    grid of another geometry, on which a2 raises.
    """
    if kind in ("grid", "other_grid", "atoms_beside_grid",
                "other_grid_minus"):
        sc, _ = random_grid_scenario(rng, GRID_MODES[rng.integers(0, 6)])
        if kind == "other_grid":
            return replace(sc, nu_plus=_random_grid(
                rng, GRID_T, (GRID_ORIGIN + 0.1,), GRID_H / 2, 2 * GRID_N))
        if kind == "other_grid_minus":
            return replace(sc, nu_minus=_random_grid(
                rng, GRID_T, (GRID_ORIGIN,), GRID_H, GRID_N + 1))
        if kind == "atoms_beside_grid":
            xs = rng.uniform(-3.0, 3.0, 5)
            return replace(sc, nu_plus=SliceMeasure.from_atoms(
                GRID_T, [((x,), w) for x, w in zip(xs, rng.random(5))]))
        return sc
    if kind == "grid_2d":
        cs = CausalStructure(dim=2, c=1.0)
        shape, origin, cell = (6, 5), (-1.5, -1.25), 0.5
        post = [_random_grid(rng, 1.0, origin, cell, shape)
                for _ in range(4)]
        return MeasurementScenario(
            cs=cs, K=Region.from_boxes([((-0.25, -0.25), (0.25, 0.25))]),
            mu=_random_grid(rng, 0.5, origin, cell, shape), nu0=post[0],
            nu1=post[1], nu_plus=post[2], nu_minus=post[3],
            p_plus=float(rng.choice([0.0, 1.0, rng.random()])))
    dim = int(rng.integers(1, 4))
    cs = CausalStructure(dim=dim, c=float(rng.uniform(0.5, 2.0)))
    half, dt = float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.2, 1.5))
    k_box = Region.from_boxes([((-half,) * dim, (half,) * dim)])
    reach = half + cs.c * dt
    # a pool within reach on each axis lies mostly in the detector future
    span = reach * float(rng.choice([1.0, 2.0]))
    pool = [tuple(p) for p in rng.uniform(-span, span, (8, dim)).tolist()]
    pool.append((reach,) + (0.0,) * (dim - 1))

    def post(at_least):
        k = int(rng.integers(at_least, len(pool) + 1))
        points = [pool[i] for i in rng.permutation(len(pool))[:k]]
        return SliceMeasure.from_atoms(
            dt, zip(points, _support_weights(rng, kind, k)), dim)

    mu_points = [tuple(p) for p in rng.uniform(-reach, reach,
                                               (3, dim)).tolist()]
    mu = SliceMeasure.from_atoms(
        0.0, zip(mu_points, _support_weights(rng, kind, 3)), dim)
    if kind == "exact" or (kind == "mixed" and rng.random() < 0.5):
        p_plus = Fraction(int(rng.integers(0, 5)), 4)
    else:
        p_plus = float(rng.choice([0.0, 1.0, 0.5, rng.random()]))
    return MeasurementScenario(
        cs=cs, K=k_box, mu=mu, nu0=post(int(rng.random() < 0.9)),
        nu1=post(0), nu_plus=post(0), nu_minus=post(0), p_plus=p_plus)


def canonical_json_oracle(obj, indent: int = 0) -> str:
    """The record writer as it was before `cli.canonical_json` became one
    pass by exact type: an isinstance chain per value, recursing through
    itself.  Kept as the reference the writer must equal."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{inner}{json.dumps(str(key))}: '
                         + canonical_json_oracle(obj[key], indent + 2))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + canonical_json_oracle(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return format(obj, ".17g")
    if isinstance(obj, Fraction):
        return f'"{obj}"'
    if obj is None:
        return "null"
    return json.dumps(str(obj))


ODD_FLOATS = (math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
              -2.2250738585072014e-308, 1e308, 1.7976931348623157e308,
              1e16, 0.1)
ODD_STRINGS = ('', 'plain', 'say "hi"', 'back\\slash', 'tab\there\n',
               '\x00\x1f\x7f', 'caf\u00e9 \u2014 \u03bd\u2080',
               '\U0001d4c3')


def random_record(rng: np.random.Generator, depth: int = 0):
    """A seeded JSON-like value of the kinds a CLI record can hold:
    nested dicts, lists and tuples (empty ones too), bools, ints, None,
    Fractions, odd and random floats, numpy scalars and strings with
    quotes, backslashes, control characters and non-ASCII text."""
    kind = rng.integers(0, 14 if depth < 4 else 11)
    if kind == 0:
        return bool(rng.integers(0, 2))
    if kind == 1:
        return int(rng.integers(-10**9, 10**9))
    if kind == 2:
        return None
    if kind == 3:
        return Fraction(int(rng.integers(-99, 99)), int(rng.integers(1, 99)))
    if kind == 4:
        return ODD_FLOATS[rng.integers(0, len(ODD_FLOATS))]
    if kind == 5:
        return float(rng.normal() * 10.0 ** rng.integers(-300, 300))
    if kind == 6:
        return np.float64(rng.normal())
    if kind == 7:
        return np.int64(rng.integers(-1000, 1000))
    if kind == 8:
        return np.bool_(rng.integers(0, 2))
    if kind in (9, 10):
        return ODD_STRINGS[rng.integers(0, len(ODD_STRINGS))]
    size = int(rng.integers(0, 5))
    items = [random_record(rng, depth + 1) for _ in range(size)]
    if kind == 11:
        return items
    if kind == 12:
        return tuple(items)
    keys = [ODD_STRINGS[rng.integers(1, 3)] + str(i) for i in range(size)]
    return dict(zip(keys, items))


# -- the box carve, kept as an oracle ------------------------------------------

def _interiors_overlap(a, b) -> bool:
    return all(al < bh and bl < ah for (al, ah), (bl, bh) in
               zip(zip(a[0], a[1]), zip(b[0], b[1])))


def _box_contains_box(outer, inner) -> bool:
    return all(ol <= il and ih <= oh for ol, oh, il, ih in
               zip(outer[0], outer[1], inner[0], inner[1]))


def subtract_box(box, cutter) -> list:
    """Closed pieces of `box` not covered by the closed `cutter`."""
    if not _interiors_overlap(box, cutter):
        if _box_contains_box(cutter, box):
            return []
        return [box]
    pieces = []
    lo = list(box[0])
    hi = list(box[1])
    for ax, (cl, ch) in enumerate(zip(cutter[0], cutter[1])):
        if lo[ax] < cl:
            left = (tuple(lo), tuple(hi[:ax] + [cl] + hi[ax + 1:]))
            if left[0][ax] < left[1][ax]:
                pieces.append(left)
            lo[ax] = cl
        if ch < hi[ax]:
            right = (tuple(lo[:ax] + [ch] + lo[ax + 1:]), tuple(hi))
            if right[0][ax] < right[1][ax]:
                pieces.append(right)
            hi[ax] = ch
    # whatever is left of [lo, hi] lies inside the cutter and is dropped
    return pieces


def _carve(box, cutters) -> list:
    """Closed pieces of `box` outside every cutter, cut in cutter order."""
    frags = [box]
    for cutter in cutters:
        frags = [p for f in frags for p in subtract_box(f, cutter)]
        if not frags:
            break
    return frags


def oracle_disjointify(boxes) -> tuple:
    """The full carve: each box, in input order, cut by every fragment
    accepted before it; the fragments have pairwise disjoint interiors and
    cover the same union."""
    out = []
    for box in boxes:
        out.extend(_carve(box, out))
    return tuple(out)


def oracle_covers(outer: Region, inner: Region) -> bool:
    """True if every point of `inner` lies in `outer`: each of `inner`'s
    boxes carved by all of `outer`'s leaves nothing."""
    if outer.dim != inner.dim:
        raise ValueError("region dimensions differ")
    return not any(_carve(box, outer.boxes) for box in inner.boxes)


# -- the sender reach ---------------------------------------------------------

def rim_annulus():
    """The 16-segment annulus with point boxes added to K on the rim of the
    open cone of the corner columns x = -3.5 and 3.5, at y = -3.5: one ulp
    inside it, one ulp past it, and exactly c * dt away, where the open and
    the closed cone part ways.  Returns the scenario, its lattice and the
    (source, target, open, closed) positions and verdicts."""
    sc, lattice = make_annulus_scenario(16)
    dt = sc.s_time - lattice.p_time
    r_open = cone_radius(dt, sc.cs, open_cone=True)
    rims = []
    for x, side in ((-3.5, 1.0), (3.5, -1.0)):
        inside = x + side * r_open
        for t, reached in ((inside, True),
                           (float(np.nextafter(inside, side * np.inf)), False),
                           (x + side * sc.cs.c * dt, False)):
            rims.append(((x, -3.5), (t, -3.5), reached, True))
    boxes = list(sc.K.boxes) + [(t, t) for _, t, _, _ in rims]
    sc = replace(sc, K=Region.from_boxes(boxes, 2))
    return sc, lattice, rims


def dense_reach(reach) -> np.ndarray:
    """The boolean (candidates, points) matrix of a `protocol.SenderReach`:
    row i, in lattice order, marks the sample points strictly inside
    candidate i's chronological future; a candidate that may not send
    reaches nothing."""
    dim = len(reach.order)
    n = len(reach.order[0])
    counts = reach.hi - reach.lo
    rows = np.repeat(np.arange(len(counts)), counts)
    j = np.arange(len(rows)) + np.repeat(
        reach.lo - np.cumsum(counts) + counts, counts)
    # sorted lattice indices of each pair, then the lattice's own
    at = np.unravel_index(reach.line[rows] * n + j, (n,) * dim)
    cand = np.ravel_multi_index([o[i] for o, i in zip(reach.order, at)],
                                (n,) * dim)
    out = np.zeros((len(reach.cand_xs), len(reach.cover_pts)), dtype=bool)
    out[cand, reach.point[rows]] = True
    out[~reach.eligible] = False
    return out
