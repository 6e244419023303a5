"""Seeded input generators for the benchmark workloads.

Every generator takes a `numpy.random.Generator` (or a seed) and returns
plain data: floats, tuples, numpy arrays and `Fraction`s.  Nothing here
imports `causal_lab`; the workloads turn these specs into package objects
through the package's own constructors, as set-up (scenario_sweep does it
inside each operation).  The sizes are fixed per workload and the seed only
moves values (positions, weights, jitter), so runs with different seeds
do the same amount of work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ELL_STAR = 1.0 + math.sqrt(2.0)  # violation halfwidth for m = lam = t = 1


# -- born_grid_1d -------------------------------------------------------------

BORN_SIZES = (2048, 4096)
BORN_RATIOS = (0.5, 0.8, 1.2, 2.0)
BORN_FULL_N = 4096     # the grid that also runs on the whole support
BORN_HALF_SPAN = 24.0  # grid covers [-24, 24]


@dataclass(frozen=True)
class BornCase:
    n: int
    x0: float
    ell: float | None  # None: the whole support of the packet


def born_cases(seed: int) -> list[BornCase]:
    """Per grid: four halfwidths around the threshold; the larger grid
    also runs on its full support.  Nine cases, an odd count, so the
    median falls inside one case's samples.

    Halfwidths are jittered by at most 1% around ratio * ELL_STAR, which
    keeps every case at least 18% away from the closed-form threshold, and
    the seed's share of a case's cost small.
    """
    rng = np.random.default_rng([seed, 1])
    out = []
    for n in BORN_SIZES:
        x0 = float(rng.uniform(-0.5, 0.5))
        for r in BORN_RATIOS:
            ell = r * ELL_STAR * float(1.0 + rng.uniform(-0.01, 0.01))
            out.append(BornCase(n, x0, ell))
        if n == BORN_FULL_N:
            out.append(BornCase(n, x0, None))
    return out


# -- atoms_2d -----------------------------------------------------------------

ATOM_DIMS = (2, 3)
ATOM_COUNTS = (200, 400, 800)
# every (dim, k, verdict) but the cheapest, so 11 cases: with an odd count
# the median and the tail rank fall inside one case's samples, not between
# the fastest repeat of one case and the slowest of the next
ATOM_LEFT_OUT = (3, 200, False)
ATOM_DEGREE = 5.0     # mean number of cone neighbours per atom
ATOM_FAR = 1.0e3      # drained atoms move this far along axis 0


@dataclass(frozen=True)
class AtomCloud:
    dim: int
    dt: float
    mu_pts: np.ndarray
    nu_pts: np.ndarray
    weights: np.ndarray
    drained: np.ndarray  # indices whose nu atom left every cone

    @property
    def deficit(self) -> float:
        return math.fsum(float(w) for w in self.weights[self.drained])


def _unit_ball(rng: np.random.Generator, k: int, dim: int) -> np.ndarray:
    v = rng.normal(size=(k, dim))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * (rng.random(k) ** (1.0 / dim))[:, None]


def _box_side(k: int, dim: int, dt: float) -> float:
    """Side of the box that gives k atoms ATOM_DEGREE cone neighbours."""
    ball = (math.pi if dim == 2 else 4.0 * math.pi / 3.0) * dt ** dim
    return (k * ball / ATOM_DEGREE) ** (1.0 / dim)


def atom_cloud(rng: np.random.Generator, dim: int, k: int,
               fail: bool) -> AtomCloud:
    """k atoms per slice; nu is mu pushed inside the cone of each atom.

    The pushforward is a feasible flow, so the ordering check holds.  A
    failing cloud puts 3/4 of its atoms in a second box, beyond reach of
    the first, and drains their nu atoms far away: those atoms have empty
    cones, so the worst set is exactly that box and the deficit is its
    weight, both known before the program runs and the same size for
    every seed.
    """
    dt = float(rng.uniform(0.35, 0.45))
    k_drained = 3 * k // 4 if fail else 0
    k_kept = k - k_drained
    side = _box_side(k_kept, dim, dt)
    mu_pts = rng.uniform(-side / 2, side / 2, (k, dim))
    mu_pts[k_kept:, 0] += side + 2.0 * dt
    nu_pts = mu_pts + 0.95 * dt * _unit_ball(rng, k, dim)
    weights = rng.random(k) + 0.05
    weights /= weights.sum()
    drained = np.arange(k_kept, k)
    nu_pts[drained, 0] = ATOM_FAR + np.arange(k_drained, dtype=float)
    return AtomCloud(dim, dt, mu_pts, nu_pts, weights, drained)


def atom_clouds(seed: int) -> list[tuple[str, AtomCloud]]:
    rng = np.random.default_rng([seed, 2])
    out = []
    for dim in ATOM_DIMS:
        for k in ATOM_COUNTS:
            for fail in (False, True):
                if (dim, k, fail) == ATOM_LEFT_OUT:
                    continue
                label = f"d{dim}-k{k}-{'fail' if fail else 'hold'}"
                out.append((label, atom_cloud(rng, dim, k, fail)))
    return out


# -- scenario_sweep ----------------------------------------------------------

SWEEP_ABC_FLOAT = 360
SWEEP_ABC_EXACT = 100
SWEEP_GRID = 110
# brute force keeps 2^n-entry tables (8.5 MB at 16 atoms, 136 MB at 20);
# with up to 20 atoms, throughput and peak memory swung by a third between
# runs
SWEEP_ATOM_SIZES = tuple(range(2, 17))
SWEEP_ATOM_DIMS = (1, 2)

_ABC_MODES = ("uniform", "ns", "a1", "a2", "all")


def abc_triple(rng: np.random.Generator, mode: str) -> tuple[float, ...]:
    """(a, b, c) in [0, 1]^3; engineered modes pin chosen conditions."""
    if mode == "uniform":
        return tuple(float(v) for v in rng.random(3))
    if mode == "ns":
        while True:
            a, b = (float(v) for v in rng.random(2))
            if 0.0 <= 2 * a - b <= 1.0:
                return a, b, 2 * a - b
    if mode == "a1":
        a, c = (float(v) for v in rng.random(2))
        return a, 1.0, c
    a = 0.5 + 0.5 * float(rng.random())
    if mode == "a2":
        return a, float(rng.random()), 2 * a - 1
    return a, 1.0, 2 * a - 1  # "all"


def abc_exact_triple(rng: np.random.Generator) -> tuple[Fraction, ...]:
    """Rational triple on a 1/12 lattice, so knife edges are hit exactly."""
    return tuple(Fraction(int(v), 12) for v in rng.integers(0, 13, 3))


def abc_flags(a, b, c) -> dict[str, bool]:
    """Family algebra: ns <=> 2a = b+c, a1 <=> b = 1, a2 <=> 2a = 1+c,
    ce <=> 2a >= 1 (tolerance 1e-9 for floats, exact for rationals)."""
    tol = 0 if isinstance(a, Fraction) else 1e-9
    return {"ns": abs(2 * a - (b + c)) <= tol, "a1": abs(b - 1) <= tol,
            "a2": abs(2 * a - (1 + c)) <= tol, "ce": 2 * a >= 1 - 2 * tol}


GRID_N = 28
GRID_H = 0.25
GRID_ORIGIN = -3.5
GRID_REACH = 4             # cells reachable in one slice step (c dt / h)
GRID_K_CELLS = (11, 17)    # K = [-0.75, 0.75] covers cells 11..16
GRID_MODES = ("generic", "ns", "a1", "three", "break")


@dataclass(frozen=True)
class GridSpec:
    w_mu: np.ndarray
    w_nu0: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    p: float
    flags: dict


def _grid_masks() -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(GRID_N)
    lo, hi = GRID_K_CELLS
    in_k = (idx >= lo) & (idx < hi)
    in_jk = (idx >= lo - GRID_REACH) & (idx < hi + GRID_REACH)
    return in_k, in_jk


def _dist(rng: np.random.Generator, mask=None) -> np.ndarray:
    w = rng.random(GRID_N) + 0.02
    if mask is not None:
        w = w * mask
    return w / w.sum()


def grid_spec(rng: np.random.Generator, mode: str) -> GridSpec:
    """28-cell scenario; the mode fixes which flags hold by construction.

    nu0 pushes each mu cell at most GRID_REACH cells, so ce holds except
    in "break", which empties the detector future into the far cell.
    Outcome flags not pinned by the mode are left out of `flags`.
    """
    in_k, in_jk = _grid_masks()
    w_mu = _dist(rng)
    p = float(w_mu[in_k].sum())
    w_nu0 = np.zeros(GRID_N)
    for i, m in enumerate(w_mu):
        lo, hi = max(0, i - GRID_REACH), min(GRID_N - 1, i + GRID_REACH)
        split = float(rng.random())
        w_nu0[rng.integers(lo, hi + 1)] += m * split
        w_nu0[rng.integers(lo, hi + 1)] += m * (1 - split)
    flags = {"ce": True}
    if mode == "break":
        moved = float(w_nu0[in_jk].sum())
        w_nu0[in_jk] = 0.0
        w_nu0[GRID_N - 1] += moved
        flags = {"ce": False}
    if mode == "ns":
        # outcome branches that recombine to nu0 exactly off the future
        gi, gj = rng.choice(np.nonzero(in_jk)[0], size=2, replace=False)
        eps = 0.25 * min(p, 1 - p) * min(w_nu0[gi] + 0.01, 0.05)
        bump = np.zeros(GRID_N)
        bump[gi], bump[gj] = eps, -eps
        w_plus, w_minus = w_nu0 + bump / p, w_nu0 - bump / (1 - p)
        if w_plus.min() < 0 or w_minus.min() < 0:
            w_plus, w_minus = w_nu0.copy(), w_nu0.copy()
        flags["ns"] = True
    elif mode == "a1":
        w_plus, w_minus = _dist(rng, in_jk), _dist(rng)
        flags["a1"] = True
    elif mode == "three":
        w_minus = np.where(in_jk, 0.0, w_nu0) / (1 - p)
        w_minus = w_minus + (1.0 - float(w_minus.sum())) * _dist(rng, in_jk)
        w_plus = _dist(rng, in_jk)
        flags.update(ns=True, a1=True, a2=True)
    else:
        w_plus, w_minus = _dist(rng), _dist(rng)
    return GridSpec(w_mu, w_nu0, w_plus, w_minus, p, flags)


@dataclass(frozen=True)
class AtomicSpec:
    dim: int
    mu_pts: np.ndarray
    nu_pts: np.ndarray
    weights: np.ndarray
    drained: np.ndarray

    @property
    def deficit(self) -> float:
        return math.fsum(float(w) for w in self.weights[self.drained])


ATOMIC_K_HALF = 0.5   # K = [-0.5, 0.5]^d, dt = c = 1
ATOMIC_SPACING = 3.0  # lattice spacing; with jitter and push, cones stay apart
ATOMIC_SITES = 10     # lattice sites per side of the origin, per axis


def atomic_spec(rng: np.random.Generator, dim: int, n: int) -> AtomicSpec:
    """n-atom scenario with ns true and a1, a2 false by construction.

    Atoms sit on distinct sites of a jittered lattice: atom 0 at the origin
    inside K, atom 1 one site out along axis 0, beyond the future of K, so
    0 < p < 1 and the branches differ off the future.  nu0 pushes every
    atom by at most 0.9 dt, and the spacing keeps each atom's cone to its
    own image, so every subset reaches a different set of targets and the
    brute-force cost depends on n alone.  Odd sizes drain the last atom, so
    ce fails with the drained weight as deficit.
    """
    axis = np.arange(-ATOMIC_SITES, ATOMIC_SITES + 1)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    sites = np.stack([g.ravel() for g in grids], axis=1)
    first = np.zeros((2, dim), dtype=np.int64)
    first[1, 0] = 1
    taken = {tuple(s) for s in first}
    rest = [s for s in sites if tuple(s) not in taken]
    pick = rng.choice(len(rest), size=n - 2, replace=False)
    pts = np.concatenate([first, np.asarray(rest)[pick]]) * ATOMIC_SPACING
    pts = pts + rng.uniform(-0.2, 0.2, (n, dim))
    nu_pts = pts + 0.9 * _unit_ball(rng, n, dim)
    weights = rng.random(n) + 0.25
    weights /= weights.sum()
    drained = np.empty(0, dtype=np.int64)
    if n % 2:
        drained = np.array([n - 1])
        nu_pts[n - 1, 0] = 100.0 * ATOMIC_SITES
    return AtomicSpec(dim, pts, nu_pts, weights, drained)


def sweep_specs(seed: int) -> list[tuple[str, object]]:
    """One round of the scenario mix, interleaved so kinds alternate."""
    rng = np.random.default_rng([seed, 3])
    abc = [("abc", abc_triple(rng, _ABC_MODES[i % len(_ABC_MODES)]))
           for i in range(SWEEP_ABC_FLOAT)]
    exact = [("abc_exact", abc_exact_triple(rng))
             for _ in range(SWEEP_ABC_EXACT)]
    grids = [("grid", grid_spec(rng, GRID_MODES[i % len(GRID_MODES)]))
             for i in range(SWEEP_GRID)]
    atomic = [("atomic", atomic_spec(rng, dim, n))
              for n in SWEEP_ATOM_SIZES for dim in SWEEP_ATOM_DIMS]
    small = abc + exact + grids
    out: list[tuple[str, object]] = []
    stride = len(small) // len(atomic)
    for i, item in enumerate(atomic):
        out.extend(small[i * stride:(i + 1) * stride])
        out.append(item)
    out.extend(small[len(atomic) * stride:])
    return out


# -- cli_protocol -------------------------------------------------------------

ANNULUS_SEGMENTS = (16, 32, 64)
QUANTUM_N = 4096
# two simulate-quantum files, each with its own packet position and window
QUANTUM_FILES = 2


@dataclass(frozen=True)
class CliSpec:
    abc: tuple[float, float, float]
    ring_weights: dict[int, np.ndarray]
    quantum: tuple[tuple[float, float], ...]  # (x0, ell) per file
    sim_seed: int


def cli_spec(seed: int) -> CliSpec:
    """Values for the generated scenario files; geometry stays fixed.

    The two-atom case keeps b = 1 and b + c > 2a, so the probe moves mass
    off the far point and a protocol exists.  Ring weights are random but
    normalized, which keeps the annulus protocol and its cost unchanged.
    """
    rng = np.random.default_rng([seed, 4])
    a = float(rng.uniform(0.0, 0.3))
    c = float(rng.uniform(0.8, 1.0))
    rings = {}
    for s in ANNULUS_SEGMENTS:
        w = rng.random(s) + 0.5
        rings[s] = w / w.sum()
    quantum = tuple((float(rng.uniform(-0.5, 0.5)),
                     1.5 * ELL_STAR * float(1 + rng.uniform(-0.01, 0.01)))
                    for _ in range(QUANTUM_FILES))
    return CliSpec(abc=(a, 1.0, c), ring_weights=rings, quantum=quantum,
                   sim_seed=int(rng.integers(0, 2 ** 31)))
