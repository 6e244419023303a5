"""Operational causality conditions for a two-slice measurement scenario.

A scenario holds the pre-measurement distribution mu on slice s, a probed
region K, and the post-slice distributions: unconditional nu0, measured
nu1, and the outcome-conditioned nu_plus / nu_minus.  Four checks:

  ce  -- ordering: mu(A) <= nu0(future of A) for every compact A
  ns  -- marginal statistics outside the future of K ignore the probe
  a1  -- a positive outcome confines nu_plus to the future of K
  a2  -- a negative outcome Bayes-updates nu0 off the future of K

Tolerances collapse to exact comparisons when every weight is rational.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Mapping

import numpy as np

from .measure import (
    EPS_MASS,
    SliceMeasure,
    Weight,
    _aligned_diffs,
    _comparable_grids,
    _larger_side,
    _scaled_diffs,
    cellwise_max_difference,
    mixture,
    restriction_distance,  # noqa: F401  perfbench traces it by this name
)
from .region import Region
from .spacetime import (
    CausalStructure,
    SliceFuture,
    causal_future_on_slice,  # noqa: F401  perfbench traces it by this name
)
from .transport import (
    CeVerdict,
    check_ce_bruteforce,
    check_ce_maxflow,
)


@dataclass(frozen=True)
class MeasurementScenario:
    cs: CausalStructure
    K: Region
    mu: SliceMeasure
    nu0: SliceMeasure
    nu1: SliceMeasure
    nu_plus: SliceMeasure
    nu_minus: SliceMeasure
    p_plus: Weight

    def __post_init__(self) -> None:
        dims = {self.K.dim, self.mu.dim, self.nu0.dim, self.nu1.dim,
                self.nu_plus.dim, self.nu_minus.dim, self.cs.dim}
        if len(dims) != 1:
            raise ValueError("scenario components have mixed dimensions")
        if not (0 <= self.p_plus <= 1):
            raise ValueError("p_plus must lie in [0, 1]")

    @property
    def s_time(self) -> float:
        return self.mu.time

    @property
    def t_time(self) -> float:
        return self.nu0.time

    @cached_property
    def exact(self) -> bool:
        return (isinstance(self.p_plus, Rational)
                and all(m.exact for m in (self.mu, self.nu0, self.nu1,
                                          self.nu_plus, self.nu_minus)))

    @cached_property
    def _in_future(self) -> SliceFuture:
        """Membership test of the detector future, without building it."""
        return SliceFuture(self.K, self.t_time - self.s_time, self.cs)

    @cached_property
    def _future_table(self):
        """Detector-future membership of the post-slice supports, from one
        `contains_points` pass: the table that ns, a1, a2 and the ordering
        leg at the detector read.

        For a grid nu0, the mask over its cell centres, which every grid
        of its geometry shares.  For atomic nu0, a dict from each point of
        the atomic supports among nu0, nu1, nu_plus and nu_minus to its
        membership.  A measure the table does not cover (a grid of
        another geometry, atoms beside a grid nu0) takes a pass of its own.
        """
        if self.nu0.is_grid:
            return self._in_future.contains_points(self.nu0.positions)
        points = list(dict.fromkeys(
            p for m in (self.nu0, self.nu1, self.nu_plus, self.nu_minus)
            if m.is_atomic for p, _ in m.atoms))
        inside = self._in_future.contains_points(
            np.array(points, dtype=float).reshape(-1, self.nu0.dim))
        return dict(zip(points, inside.tolist()))

    def _off_future(self, points) -> list[bool] | np.ndarray:
        """Mask off the detector future of `points`, nu0's support merged
        with another's (`measure._merged_atoms`): a boolean array over
        nu0's grid cells, or a list of bools over atoms given as tuples."""
        table = self._future_table
        if isinstance(table, dict):
            return [not table[p] for p in points]
        return ~table

    def _future_mass(self, m: SliceMeasure) -> Weight:
        """Mass of post-slice measure `m` in the detector future, from the
        table when it covers `m`."""
        table = self._future_table
        if m.is_atomic and isinstance(table, dict):
            return m._mass_where([table[p] for p, _ in m.atoms])
        if m.is_grid and self.nu0.grid_compatible(m):
            return m._mass_where(table)
        return m.mass(self._in_future)

    @cached_property
    def _ns_diffs(self):
        """(positions, nu0 - nu1, mask off the detector future) on the merged
        support, nu0's points first: the one table of every ns reader.  The
        mask is read from `_future_table`."""
        positions, diffs = _aligned_diffs(self.nu0, self.nu1)
        points = (positions if self.nu0.is_grid
                  else map(tuple, positions.tolist()))
        return positions, diffs, np.asarray(self._off_future(points),
                                            dtype=bool)

    @property
    def mass_tol(self) -> Weight:
        return 0 if self.exact else EPS_MASS


@dataclass(frozen=True)
class ConditionReport:
    ce: bool
    ns: bool
    a1: bool
    a2: bool
    ce_verdict: CeVerdict
    a1_vacuous: bool = False
    a2_vacuous: bool = False
    witnesses: Mapping[str, object] = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    def as_flags(self) -> tuple[bool, bool, bool, bool]:
        return (self.ns, self.a1, self.a2, self.ce)


def validate(sc: MeasurementScenario) -> list[str]:
    """Structural and probabilistic consistency; violations are data."""
    tol = sc.mass_tol
    out: list[str] = []
    slice_times = {sc.nu0.time, sc.nu1.time, sc.nu_plus.time, sc.nu_minus.time}
    if len(slice_times) != 1:
        out.append("post-measurement measures live on different slices")
    if sc.mu.time > sc.t_time:
        out.append("slice ordering: mu must not follow the detection slice")
    for name, m in (("mu", sc.mu), ("nu0", sc.nu0), ("nu1", sc.nu1)):
        if abs(m.total - 1) > tol:
            out.append(f"normalization: {name} has total {float(m.total)!r}")
    p = sc.p_plus
    if p > tol and abs(sc.nu_plus.total - 1) > tol:
        out.append("normalization: nu_plus is not a probability measure")
    if 1 - p > tol and abs(sc.nu_minus.total - 1) > tol:
        out.append("normalization: nu_minus is not a probability measure")
    diff = abs(sc.mu.mass(sc.K) - p)
    if diff > tol:
        out.append("detection probability: p_plus must equal the mass of mu on K")
    try:
        mix = mixture(p, sc.nu_plus, sc.nu_minus)
        err = cellwise_max_difference(sc.nu1, mix)
        if err > tol:
            out.append("total probability: nu1 must mix nu_plus and nu_minus "
                       f"with weight p_plus (max cell error {float(err):.3e})")
    except ValueError as exc:
        out.append(f"total probability: components are not comparable ({exc})")
    # ns lines up nu0 with nu1, a2 nu0 with nu_minus; nu1 ~ nu_minus is
    # checked above and grid geometry is transitive, so one check does
    try:
        _comparable_grids(sc.nu0, sc.nu1)
    except ValueError as exc:
        out.append(f"marginal: nu0 and nu1 are not comparable ({exc})")
    return out


def _a1_detail(sc: MeasurementScenario) -> tuple[bool, bool, Weight]:
    """Positive-outcome confinement as (holds, vacuous, future mass).

    Conditioning on a zero-probability positive outcome constrains nothing,
    so the check is vacuously true when p_plus is 0.
    """
    tol = sc.mass_tol
    m = sc._future_mass(sc.nu_plus)
    if sc.p_plus <= tol:
        return True, True, m
    return m >= 1 - tol, False, m


def _ns_detail(sc: MeasurementScenario) -> tuple[bool, Weight]:
    d = _larger_side(*sc._ns_diffs[1:], sc.nu0.exact and sc.nu1.exact)
    return d <= sc.mass_tol, d


def _a2_detail(sc: MeasurementScenario) -> tuple[bool, bool, Weight]:
    tol = sc.mass_tol
    if 1 - sc.p_plus <= tol:
        return True, True, 0 if sc.exact else 0.0
    scale = (Fraction(1, 1) / (1 - sc.p_plus) if sc.exact
             else 1.0 / (1.0 - float(sc.p_plus)))
    # nu_minus - scale * nu0 on their merged support, masked from the table
    points, diffs, exact = _scaled_diffs(sc.nu_minus, sc.nu0, scale)
    d = _larger_side(diffs, sc._off_future(points), exact)
    return d <= tol, False, d


def check_a1(sc: MeasurementScenario) -> bool:
    """Does a positive outcome confine nu_plus to the detector future?"""
    return _a1_detail(sc)[0]


def check_ns(sc: MeasurementScenario) -> bool:
    """Do marginal statistics off the detector future ignore the probe?"""
    return _ns_detail(sc)[0]


def check_a2(sc: MeasurementScenario) -> bool:
    """Is nu_minus just nu0 renormalized, off the detector future?"""
    return _a2_detail(sc)[0]


def check_ce(sc: MeasurementScenario, method: str = "auto") -> CeVerdict:
    """Ordering condition between mu and the unconditional nu0.

    "auto" is "maxflow", exact and polynomial for every input: a prefix
    scan over runs of sources in d = 1; in d >= 2 a greedy fill plus
    bipartite Dinic phases on the cone graph's CSR arrays.  "bruteforce"
    enumerates mu's atom subsets and stays as an oracle to check the flow
    against.
    """
    if method == "bruteforce":
        return check_ce_bruteforce(sc.mu, sc.nu0, sc.cs)
    if method in ("auto", "maxflow"):
        return check_ce_maxflow(sc.mu, sc.nu0, sc.cs)
    raise ValueError(f"unknown method {method!r}")


def _ce_at_detector(sc: MeasurementScenario) -> bool:
    """Ordering inequality for the measured region itself."""
    short = sc.mu.mass(sc.K) - sc._future_mass(sc.nu0)
    return short <= sc.mass_tol


def _logic_diagnostics(ns: bool, a1: bool, a2: bool, ce_at_k: bool,
                       a1_vac: bool, a2_vac: bool) -> tuple[str, ...]:
    """Cross-checks that two informative conditions force the third.

    The ordering legs use the inequality at the measured region only; the
    global ordering condition can fail on mass causally unrelated to the
    detector without contradicting the outcome conditions.
    """
    out = []
    if not a1_vac and not a2_vac:
        informative = (ns, a1, a2)
        if sum(informative) == 2:
            out.append("logic: exactly two of the marginal/outcome conditions "
                       f"hold (ns={ns}, a1={a1}, a2={a2}); two should force "
                       "the third")
        if sum(informative) >= 2 and not ce_at_k:
            out.append("logic: two outcome conditions hold but the ordering "
                       "inequality fails at the detector region")
    if a2 and not a2_vac and not ce_at_k:
        out.append("logic: negative-outcome update holds but the ordering "
                   "inequality fails at the detector region")
    return tuple(out)


def evaluate_conditions(sc: MeasurementScenario,
                        method: str = "auto") -> ConditionReport:
    """Run all four checks and cross-check their joint consistency.

    Inconsistent combinations raise a warning diagnostic rather than an
    exception; they indicate a tolerance or construction problem.
    """
    ce_v = check_ce(sc, method)
    ns, ns_dist = _ns_detail(sc)
    a1, a1_vac, a1_mass = _a1_detail(sc)
    a2, a2_vac, a2_dist = _a2_detail(sc)
    diags = _logic_diagnostics(ns, a1, a2, _ce_at_detector(sc),
                               a1_vac, a2_vac)
    for d in diags:
        warnings.warn(d, RuntimeWarning, stacklevel=2)
    witnesses = {
        "ce_deficit": ce_v.deficit,
        "ce_worst_set": ce_v.worst_set,
        "ns_distance": ns_dist,
        "ns_witness": None if ns else find_ns_witness(sc),
        "a1_future_mass": a1_mass,
        "a2_distance": a2_dist,
    }
    return ConditionReport(ce=ce_v.holds, ns=ns, a1=a1, a2=a2, ce_verdict=ce_v,
                           a1_vacuous=a1_vac, a2_vacuous=a2_vac,
                           witnesses=witnesses, diagnostics=diags)


# -- marginal-disturbance witness -----------------------------------------

def ns_gap_support(sc: MeasurementScenario):
    """Support points off the detector future where nu0 exceeds nu1.

    Returns (positions, gaps nu0 - nu1): the positive entries off the
    future of the scenario's one ns table `_ns_diffs`, whose one-sided
    sums give `ns_distance`, in nu0's support order.  The gaps are a float
    array for grids, a list in the weights' own type for atoms.
    """
    points, diffs, off = sc._ns_diffs
    idx = np.flatnonzero(off & (np.asarray(diffs) > 0))
    gaps = (diffs[idx] if isinstance(diffs, np.ndarray)
            else [diffs[i] for i in idx.tolist()])
    return points[idx], gaps


def find_ns_witness(sc: MeasurementScenario) -> Region | None:
    """Region C off the detector future with nu1(C) strictly below nu0(C).

    The points of `ns_gap_support`, each a cell of nu0's halfwidth (a
    point for atoms), so when present it maximizes the one-sided
    disagreement; absent when no compact set qualifies beyond tolerance.
    """
    pts, gaps = ns_gap_support(sc)
    total_gap = sum(gaps) if not isinstance(gaps, np.ndarray) else float(gaps.sum())
    if total_gap <= sc.mass_tol:
        return None
    return Region.point_boxes(pts, sc.nu0.dim, halfwidth=sc.nu0.cell_halfwidth)


# -- the two-atom family ----------------------------------------------------

ABC_S_TIME = 0.0
ABC_T_TIME = 1.0
ABC_SOURCE_IN = (0.0,)     # emission point inside K
ABC_SOURCE_OUT = (1.5,)    # emission point outside K
ABC_TARGET_NEAR = (0.9,)   # detector-slice point inside the future of K
ABC_TARGET_FAR = (2.2,)    # detector-slice point outside the future of K
ABC_K = ((-0.25,), (0.25,))


def _abc_weight(x, exact: bool):
    if exact:
        if isinstance(x, float) and not x.is_integer():
            raise ValueError("exact mode needs rational parameters "
                             "(pass Fraction or int)")
        return Fraction(x)
    return float(x)


def make_abc_scenario(a, b, c, exact: bool = False) -> MeasurementScenario:
    """Two-atom scenario family parametrized by (a, b, c) in [0, 1]^3.

    mu splits evenly between a point inside K and one outside; the later
    slice holds two points, one inside the future of K and one spacelike
    to it.  a, b, c set the near-point weights of nu0, nu_plus, nu_minus.
    Algebraically: ns <=> 2a = b + c, a1 <=> b = 1, a2 <=> 2a = 1 + c,
    ce <=> 2a >= 1.
    """
    A, B, C = (_abc_weight(v, exact) for v in (a, b, c))
    for v in (A, B, C):
        if not 0 <= v <= 1:
            raise ValueError("family parameters must lie in [0, 1]")
    one = Fraction(1) if exact else 1.0
    half = Fraction(1, 2) if exact else 0.5
    cs = CausalStructure(dim=1, c=1.0)

    def post(w_near):
        return SliceMeasure.from_atoms(ABC_T_TIME, [
            (ABC_TARGET_NEAR, w_near),
            (ABC_TARGET_FAR, one - w_near),
        ])

    mu = SliceMeasure.from_atoms(ABC_S_TIME, [
        (ABC_SOURCE_IN, half), (ABC_SOURCE_OUT, half)])
    nu0 = post(A)
    nu_plus = post(B)
    nu_minus = post(C)
    nu1 = mixture(half, nu_plus, nu_minus)
    return MeasurementScenario(cs=cs, K=Region.from_boxes([ABC_K]), mu=mu,
                               nu0=nu0, nu1=nu1, nu_plus=nu_plus,
                               nu_minus=nu_minus, p_plus=half)


TRUTH_TABLE_SAMPLES: tuple[tuple[tuple, ...], ...] = (
    ((Fraction(1), Fraction(1), Fraction(1)),),
    ((Fraction(1), Fraction(0), Fraction(1)),),
    ((Fraction(1), Fraction(1), Fraction(0)),),
    ((Fraction(2, 3), Fraction(1, 3), Fraction(1)),),
    ((Fraction(1), Fraction(0), Fraction(0)),),
    ((Fraction(0), Fraction(1), Fraction(0)),
     (Fraction(0), Fraction(1), Fraction(1))),
    ((Fraction(0), Fraction(0), Fraction(0)),),
    ((Fraction(0), Fraction(0), Fraction(1)),),
)

TRUTH_TABLE_EXPECTED: tuple[tuple[bool, bool, bool, bool], ...] = (
    (True, True, True, True),
    (False, False, True, True),
    (False, True, False, True),
    (True, False, False, True),
    (False, False, False, True),
    (False, True, False, False),
    (True, False, False, False),
    (False, False, False, False),
)

# the row-4 sample often quoted as (2/3, 1/3, 0) fails its own marginal
# condition (2a = 4/3 while b + c = 1/3); (2/3, 1/3, 1) realizes the row
TRUTH_TABLE_ERRATUM = {
    "row": 4,
    "claimed_sample": ["2/3", "1/3", "0"],
    "reason": "2a = 4/3 but b + c = 1/3, so the marginal condition fails",
    "corrected_sample": ["2/3", "1/3", "1"],
}


def truth_table() -> list[dict]:
    """Evaluate every canonical (a, b, c) sample row in exact arithmetic.

    One entry per table row; a row lists every published sample triple
    and matches only if each evaluates to the row's flag pattern.
    """
    rows = []
    for i, (samples, expected) in enumerate(
            zip(TRUTH_TABLE_SAMPLES, TRUTH_TABLE_EXPECTED), start=1):
        verdicts = []
        for trip in samples:
            sc = make_abc_scenario(*trip, exact=True)
            rep = evaluate_conditions(sc)
            verdicts.append(rep.as_flags())
        row = {
            "row": i,
            "samples": [[str(v) for v in trip] for trip in samples],
            "ns": verdicts[0][0], "a1": verdicts[0][1],
            "a2": verdicts[0][2], "ce": verdicts[0][3],
            "expected": {"ns": expected[0], "a1": expected[1],
                         "a2": expected[2], "ce": expected[3]},
            "matches": all(v == expected for v in verdicts),
        }
        if i == TRUTH_TABLE_ERRATUM["row"]:
            row["erratum"] = dict(TRUTH_TABLE_ERRATUM)
        rows.append(row)
    return rows
