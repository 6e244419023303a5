"""Finite measures living on a single spatial slice.

Two representations: weighted atoms at arbitrary positions, and uniform
grids holding one weight per cell.  Grid cells belong to a region iff
their center does; no resampling ever happens implicitly.  Atom weights
may be `fractions.Fraction` for exact-rational work, in which case sums
stay exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from numbers import Rational
from typing import Iterable, Sequence, Union

import numpy as np

from .region import Region

EPS_MASS = 1e-9

Weight = Union[float, Fraction, int]


def _is_exact_weight(w: Weight) -> bool:
    # floats (numpy's float64 among them) come first: they are the common
    # weight, and the Rational ABC check is the slow one
    return not isinstance(w, float) and isinstance(w, Rational)


def _check_weight(w: Weight) -> None:
    if _is_exact_weight(w):
        if w < 0:
            raise ValueError("weights must be nonnegative")
        return
    wf = float(w)
    if not math.isfinite(wf) or wf < 0:
        raise ValueError("weights must be finite and nonnegative")


def _slice_time(time: float) -> float:
    t = float(time)
    if not math.isfinite(t):
        raise ValueError("slice time must be finite")
    return t


@dataclass(frozen=True)
class SliceMeasure:
    """Nonnegative measure on one slice, atomic or grid-backed."""

    time: float
    dim: int
    atoms: tuple[tuple[tuple[float, ...], Weight], ...] | None = None
    grid_origin: tuple[float, ...] | None = None
    grid_cell: float | None = None
    grid_weights: np.ndarray | None = field(default=None, repr=False)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_atoms(time: float,
                   atoms: Iterable[tuple[Sequence[float], Weight]],
                   dim: int | None = None) -> "SliceMeasure":
        """Atoms (position, weight), checked in bulk: positions in one
        pass, finiteness over all coordinates, repeats by one set, float
        weights by one comparison each.  On any fault the atoms are
        checked again one at a time, which raises the error of the first
        faulty atom."""
        time = _slice_time(time)
        atoms = list(atoms)
        try:
            pos = [tuple(map(float, p)) for p, _ in atoms]
            weights = [w for _, w in atoms]
            clean = (all(map(math.isfinite, chain.from_iterable(pos)))
                     and len(set(pos)) == len(pos))
            for w in weights:
                if isinstance(w, float):
                    clean = clean and 0.0 <= w < math.inf
                else:
                    _check_weight(w)
        except (TypeError, ValueError, ArithmeticError):
            # a fault: the loop below raises it for the first faulty atom
            clean = False
        norm = (list(zip(pos, weights)) if clean
                else SliceMeasure._checked_atoms(atoms))
        if dim is None:
            if not norm:
                raise ValueError("dimension required for an empty measure")
            dim = len(norm[0][0])
        if any(len(p) != dim for p, _ in norm):
            raise ValueError("atom dimensions are inconsistent")
        return SliceMeasure(time, dim, atoms=tuple(norm))

    @staticmethod
    def _checked_atoms(atoms) -> list[tuple[tuple[float, ...], Weight]]:
        """`from_atoms`' checks one atom at a time, in order."""
        norm: list[tuple[tuple[float, ...], Weight]] = []
        seen: set[tuple[float, ...]] = set()
        for pos, w in atoms:
            p = tuple(float(v) for v in pos)
            if any(not math.isfinite(v) for v in p):
                raise ValueError("atom positions must be finite")
            if p in seen:
                raise ValueError(f"duplicate atom position {p}")
            seen.add(p)
            _check_weight(w)
            norm.append((p, w))
        return norm

    @staticmethod
    def from_grid(time: float, origin: Sequence[float], cell_size: float,
                  weights: np.ndarray) -> "SliceMeasure":
        time = _slice_time(time)
        w = np.asarray(weights, dtype=float)
        if w.ndim < 1:
            raise ValueError("grid weights must be an array")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("grid weights must be finite and nonnegative")
        origin_t = tuple(float(v) for v in origin)
        if len(origin_t) != w.ndim:
            raise ValueError("grid origin dimension does not match weights")
        if not (cell_size > 0 and math.isfinite(cell_size)):
            raise ValueError("cell size must be positive")
        w = w.copy()
        w.flags.writeable = False
        return SliceMeasure(time, w.ndim, grid_origin=origin_t,
                            grid_cell=float(cell_size), grid_weights=w)

    # -- structure ---------------------------------------------------------

    @property
    def is_atomic(self) -> bool:
        return self.atoms is not None

    @property
    def is_grid(self) -> bool:
        return self.grid_weights is not None

    @cached_property
    def exact(self) -> bool:
        """True when every atom weight is rational (sums are exact)."""
        return self.is_atomic and all(_is_exact_weight(w) for _, w in self.atoms)

    @cached_property
    def all_float(self) -> bool:
        """True when every weight is a binary float: always for a grid, and
        for atoms when no weight is a Fraction, int or bool, so that
        `weights_flat` holds the weights exactly."""
        return not self.is_atomic or all(isinstance(w, float)
                                         for _, w in self.atoms)

    @cached_property
    def total(self) -> Weight:
        if self.is_atomic:
            if self.exact:
                return sum((w for _, w in self.atoms), Fraction(0))
            return float(sum(float(w) for _, w in self.atoms))
        return float(self.grid_weights.sum())

    @cached_property
    def positions(self) -> np.ndarray:
        """(n, d) array of atom positions or grid cell centers."""
        if self.is_atomic:
            if not self.atoms:
                return np.empty((0, self.dim))
            return np.array([p for p, _ in self.atoms], dtype=float)
        shape = self.grid_weights.shape
        idx = np.indices(shape).reshape(len(shape), -1).T
        return np.asarray(self.grid_origin) + (idx + 0.5) * self.grid_cell

    @cached_property
    def weights_flat(self) -> np.ndarray:
        if self.is_atomic:
            return np.array([float(w) for _, w in self.atoms])
        return self.grid_weights.reshape(-1)

    def grid_compatible(self, other: "SliceMeasure") -> bool:
        return (self.is_grid and other.is_grid
                and self.grid_origin == other.grid_origin
                and self.grid_cell == other.grid_cell
                and self.grid_weights.shape == other.grid_weights.shape)

    @property
    def cell_halfwidth(self) -> float:
        """Half the side of a grid cell; 0.0 for atoms, which are points."""
        return self.grid_cell / 2 if self.is_grid else 0.0

    # -- measure operations --------------------------------------------

    def mass(self, region: Region) -> Weight:
        """Mass carried by atoms in the region / cells whose center is in it.

        `region` may be anything with `dim` and `contains_points`, such as
        a `spacetime.SliceFuture`.  Two steps: membership, one
        `contains_points` call over the support, then `_mass_where` on
        that mask.  A scenario asks its detector future once for all its
        post-slice measures (`MeasurementScenario._future_table`) and
        hands each measure's mask to `_mass_where` directly.
        """
        if region.dim != self.dim:
            raise ValueError("region dimension does not match measure")
        inside = region.contains_points(self.positions)
        return self._mass_where(inside.tolist() if self.is_atomic else inside)

    def _mass_where(self, inside) -> Weight:
        """Mass at the support points where `inside` holds: a boolean
        array over the grid cells, or a sequence of bools over the atoms,
        whose weights are summed in atom order (from Fraction(0) when
        exact)."""
        if self.is_atomic:
            hits = list(compress((w for _, w in self.atoms), inside))
            if self.exact:
                return sum(hits, Fraction(0))
            return float(sum(float(w) for w in hits))
        return float(self.weights_flat[inside].sum())

    def restricted(self, region: Region) -> "SliceMeasure":
        """Zero out everything outside the region, keeping weights as-is."""
        inside = region.contains_points(self.positions)
        if self.is_atomic:
            kept = [(p, w)
                    for (p, w), h in zip(self.atoms, inside.tolist()) if h]
            return SliceMeasure.from_atoms(self.time, kept, self.dim)
        w = np.where(inside.reshape(self.grid_weights.shape),
                     self.grid_weights, 0.0)
        return SliceMeasure.from_grid(self.time, self.grid_origin,
                                      self.grid_cell, w)

    def scaled(self, factor: Weight) -> "SliceMeasure":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        if self.is_atomic:
            return SliceMeasure.from_atoms(
                self.time, [(p, w * factor) for p, w in self.atoms], self.dim)
        return SliceMeasure.from_grid(self.time, self.grid_origin,
                                      self.grid_cell,
                                      self.grid_weights * float(factor))


def _merged_atoms(w1: dict, w2: dict):
    """(points, weights of w1, weights of w2) on the union of two
    point -> weight maps: w1's points in order, then those only w2 has,
    with 0 where a map has no weight."""
    points = [*w1, *(p for p in w2 if p not in w1)]
    return (points, [w1.get(p, 0) for p in points],
            [w2.get(p, 0) for p in points])


def _comparable_grids(m1: SliceMeasure, m2: SliceMeasure) -> bool:
    """Whether two measures of one dimension are grids of one geometry
    (False for two atomic measures); raises `ValueError` for any other
    pair, which has no pointwise comparison."""
    if m1.dim != m2.dim:
        raise ValueError("measure dimensions differ")
    if m1.is_grid or m2.is_grid:
        if not m1.grid_compatible(m2):
            raise ValueError("grid measures must share geometry to compare")
        return True
    return False


def mixture(p: Weight, m_plus: SliceMeasure, m_minus: SliceMeasure) -> SliceMeasure:
    """Convex combination p*m_plus + (1-p)*m_minus on a shared support."""
    if m_plus.dim != m_minus.dim or m_plus.time != m_minus.time:
        raise ValueError("mixture components must share slice and dimension")
    # grids mix their weights alone, without the cell centres
    if _comparable_grids(m_plus, m_minus):
        pf = float(p)
        mixed = pf * m_plus.weights_flat + (1.0 - pf) * m_minus.weights_flat
        return SliceMeasure.from_grid(m_plus.time, m_plus.grid_origin,
                                      m_plus.grid_cell,
                                      mixed.reshape(m_plus.grid_weights.shape))
    points, w_plus, w_minus = _merged_atoms(dict(m_plus.atoms),
                                            dict(m_minus.atoms))
    q = 1 - p
    return SliceMeasure.from_atoms(
        m_plus.time, [(x, p * a + q * b)
                      for x, a, b in zip(points, w_plus, w_minus)], m_plus.dim)


def _aligned_diffs(m1: SliceMeasure, m2: SliceMeasure):
    """Pointwise weight differences m1 - m2 on the merged support.

    Returns (positions as an (n, d) array, differences): a float array for
    grids, a list in the weights' own type for atoms.  The support starts
    with m1's own support in order; only those points can carry a positive
    difference.  A scenario takes nu0 - nu1 once, in
    `MeasurementScenario._ns_diffs`, and the ns distance, the ns witness
    and the protocol's readout gaps all read that one table.
    """
    if _comparable_grids(m1, m2):
        return m1.positions, m1.weights_flat - m2.weights_flat
    points, w1, w2 = _merged_atoms(dict(m1.atoms), dict(m2.atoms))
    positions = np.array(points, dtype=float).reshape(-1, m1.dim)
    return positions, [a - b for a, b in zip(w1, w2)]


def _scaled_diffs(m1: SliceMeasure, m2: SliceMeasure, factor: Weight):
    """Pointwise differences m1 - factor * m2 on the merged support,
    without building the scaled measure: the support, the values and the
    exactness of `_aligned_diffs(m1, m2.scaled(factor))`, in its order,
    with its types and from the same operations.  Returns (points,
    differences, exact): for atoms, the points as tuples, m1's in order
    and then those only m2 has; for grids, m2's cell centres, which m1
    shares, so that a scenario's nu0 keeps the one copy.

    The scaled weights are checked first, as `scaled` checks them, so a
    weight that the factor takes past the largest float raises the
    `ValueError` of `from_atoms` or `from_grid`.
    """
    if factor < 0:
        raise ValueError("scale factor must be nonnegative")
    if m2.is_atomic:
        scaled = [w * factor for _, w in m2.atoms]
        for w in scaled:
            _check_weight(w)
    else:
        scaled = m2.weights_flat * float(factor)
        if not np.all(np.isfinite(scaled)):
            raise ValueError("grid weights must be finite and nonnegative")
    if _comparable_grids(m1, m2):
        return m2.positions, m1.weights_flat - scaled, False
    points, w1, w2 = _merged_atoms(
        dict(m1.atoms), dict(zip((p for p, _ in m2.atoms), scaled)))
    return (points, [a - b for a, b in zip(w1, w2)],
            m1.exact and all(map(_is_exact_weight, scaled)))


def _larger_side(diffs, keep, exact: bool) -> Weight:
    """Larger of the positive and the negative sum of `diffs` where `keep`:
    sup over compact C of the kept points of |m1(C) - m2(C)|.  `diffs` is
    a float array (grids) or a list in the weights' own type (atoms),
    summed from Fraction(0) when `exact`; `keep` is a boolean array, or
    for atoms any sequence of bools."""
    if isinstance(diffs, np.ndarray):
        kept = diffs[keep]
        return max(float(kept[kept > 0].sum()), float(-kept[kept < 0].sum()))
    if isinstance(keep, np.ndarray):
        keep = keep.tolist()
    pos = neg = Fraction(0) if exact else 0.0
    for d in compress(diffs, keep):
        if d > 0:
            pos += d
        elif d < 0:
            neg -= d
    return max(pos, neg)


def restriction_distance(m1: SliceMeasure, m2: SliceMeasure,
                         outside: Region) -> Weight:
    """sup over compact C disjoint from `outside` of |m1(C) - m2(C)|."""
    positions, diffs = _aligned_diffs(m1, m2)
    if outside.dim != m1.dim:
        raise ValueError("region dimension does not match measures")
    return _larger_side(diffs, ~outside.contains_points(positions),
                        m1.exact and m2.exact)


def cellwise_max_difference(m1: SliceMeasure, m2: SliceMeasure) -> float:
    """Largest absolute pointwise weight difference on the merged support."""
    _, diffs = _aligned_diffs(m1, m2)
    if isinstance(diffs, np.ndarray):
        return float(np.abs(diffs).max()) if diffs.size else 0.0
    return max((abs(d) for d in diffs), default=0.0)
