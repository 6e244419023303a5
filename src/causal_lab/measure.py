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
from numbers import Rational
from typing import Iterable, Sequence, Union

import numpy as np

from .region import Region

EPS_MASS = 1e-9

Weight = Union[float, Fraction, int]


def _is_exact_weight(w: Weight) -> bool:
    return isinstance(w, Rational)


def _check_weight(w: Weight) -> None:
    if _is_exact_weight(w):
        if w < 0:
            raise ValueError("weights must be nonnegative")
        return
    wf = float(w)
    if not math.isfinite(wf) or wf < 0:
        raise ValueError("weights must be finite and nonnegative")


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
        if dim is None:
            if not norm:
                raise ValueError("dimension required for an empty measure")
            dim = len(norm[0][0])
        if any(len(p) != dim for p, _ in norm):
            raise ValueError("atom dimensions are inconsistent")
        return SliceMeasure(float(time), dim, atoms=tuple(norm))

    @staticmethod
    def from_grid(time: float, origin: Sequence[float], cell_size: float,
                  weights: np.ndarray) -> "SliceMeasure":
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
        return SliceMeasure(float(time), w.ndim, grid_origin=origin_t,
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
    def total(self) -> Weight:
        if self.is_atomic:
            if self.exact:
                return sum((w for _, w in self.atoms), Fraction(0))
            return float(sum(float(w) for _, w in self.atoms))
        return float(self.grid_weights.sum())

    @property
    def is_probability(self) -> bool:
        return abs(self.total - 1) <= EPS_MASS

    @cached_property
    def positions(self) -> np.ndarray:
        """(n, d) array of atom positions or grid cell centers."""
        if self.is_atomic:
            if not self.atoms:
                return np.empty((0, self.dim))
            return np.array([p for p, _ in self.atoms], dtype=float)
        return self._grid_centers

    @cached_property
    def _grid_centers(self) -> np.ndarray:
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

    def cell_region(self, flat_indices: Sequence[int]) -> Region:
        """Region made of the cells (or atom points) at the given indices."""
        pts = self.positions[list(flat_indices)]
        if self.is_grid:
            return Region.point_boxes(pts, self.dim, halfwidth=self.grid_cell / 2)
        return Region.point_boxes(pts, self.dim)

    # -- measure operations --------------------------------------------

    def mass(self, region: Region) -> Weight:
        """Mass carried by atoms in the region / cells whose center is in it.

        `region` may be anything with `dim` and `contains_points`, such as
        a `spacetime.SliceFuture`; membership is one `contains_points`
        call, and atom weights are summed in atom order.
        """
        if region.dim != self.dim:
            raise ValueError("region dimension does not match measure")
        inside = region.contains_points(self.positions)
        if self.is_atomic:
            hits = [w for (_, w), h in zip(self.atoms, inside.tolist()) if h]
            if self.exact:
                return sum(hits, Fraction(0))
            return float(sum(float(w) for w in hits))
        return float(self.weights_flat[inside].sum())

    def restrict_and_renormalize(self, region: Region) -> "SliceMeasure":
        m = self.mass(region)
        if m <= EPS_MASS:
            raise ValueError("cannot condition on a region of negligible mass")
        inside = region.contains_points(self.positions)
        if self.is_atomic:
            kept = [(p, w / m)
                    for (p, w), h in zip(self.atoms, inside.tolist()) if h]
            return SliceMeasure.from_atoms(self.time, kept, self.dim)
        w = np.where(inside.reshape(self.grid_weights.shape),
                     self.grid_weights / m, 0.0)
        return SliceMeasure.from_grid(self.time, self.grid_origin,
                                      self.grid_cell, w)

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


def mixture(p: Weight, m_plus: SliceMeasure, m_minus: SliceMeasure) -> SliceMeasure:
    """Convex combination p*m_plus + (1-p)*m_minus on a shared support."""
    if m_plus.dim != m_minus.dim or m_plus.time != m_minus.time:
        raise ValueError("mixture components must share slice and dimension")
    if m_plus.is_grid or m_minus.is_grid:
        if not m_plus.grid_compatible(m_minus):
            raise ValueError("mixture of grids requires identical geometry")
        pf = float(p)
        return SliceMeasure.from_grid(
            m_plus.time, m_plus.grid_origin, m_plus.grid_cell,
            pf * m_plus.grid_weights + (1.0 - pf) * m_minus.grid_weights)
    acc: dict[tuple[float, ...], Weight] = {}
    for pos, w in m_plus.atoms:
        acc[pos] = acc.get(pos, 0) + p * w
    q = 1 - p
    for pos, w in m_minus.atoms:
        acc[pos] = acc.get(pos, 0) + q * w
    return SliceMeasure.from_atoms(m_plus.time, list(acc.items()), m_plus.dim)


def _aligned_diffs(m1: SliceMeasure, m2: SliceMeasure):
    """Pointwise weight differences m1 - m2 on the merged support."""
    if m1.dim != m2.dim:
        raise ValueError("measure dimensions differ")
    if m1.is_grid or m2.is_grid:
        if not m1.grid_compatible(m2):
            raise ValueError("grid measures must share geometry to compare")
        diffs = (m1.grid_weights - m2.grid_weights).reshape(-1)
        return m1._grid_centers, diffs
    acc: dict[tuple[float, ...], Weight] = {}
    for pos, w in m1.atoms:
        acc[pos] = acc.get(pos, 0) + w
    for pos, w in m2.atoms:
        acc[pos] = acc.get(pos, 0) - w
    positions = np.array(list(acc.keys()), dtype=float).reshape(-1, m1.dim)
    return positions, list(acc.values())


def restriction_distance(m1: SliceMeasure, m2: SliceMeasure,
                         outside: Region) -> Weight:
    """Largest one-sided disagreement on sets avoiding `outside`.

    Equals sup over compact C disjoint from `outside` of |m1(C) - m2(C)|
    for atomic and grid measures alike: the supremum picks either all
    positive or all negative pointwise differences.
    """
    positions, diffs = _aligned_diffs(m1, m2)
    if outside.dim != m1.dim:
        raise ValueError("region dimension does not match measures")
    if len(positions) == 0:
        return Fraction(0) if (m1.exact and m2.exact) else 0.0
    excluded = outside.contains_points(positions)
    if isinstance(diffs, np.ndarray):
        kept = diffs[~excluded]
        pos = float(kept[kept > 0].sum()) if kept.size else 0.0
        neg = float(-kept[kept < 0].sum()) if kept.size else 0.0
        return max(pos, neg)
    exact = m1.exact and m2.exact
    pos = Fraction(0) if exact else 0.0
    neg = Fraction(0) if exact else 0.0
    for d, out in zip(diffs, excluded):
        if out:
            continue
        if d > 0:
            pos += d
        elif d < 0:
            neg -= d
    return max(pos, neg)


def cellwise_max_difference(m1: SliceMeasure, m2: SliceMeasure) -> float:
    """Largest absolute pointwise weight difference on the merged support."""
    _, diffs = _aligned_diffs(m1, m2)
    if isinstance(diffs, np.ndarray):
        return float(np.abs(diffs).max()) if diffs.size else 0.0
    return max((abs(d) for d in diffs), default=0.0)
