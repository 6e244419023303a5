"""Wave-packet dynamics on a 1d grid and the causality scale formulas.

Propagators act by exact exponentiation in momentum space (FFT), so each
evolution is unitary per mode and composes exactly.  Born weights follow
the cell-center rule: weight = |psi(center)|^2 * cell_size.

Width convention: a packet of width lam has amplitude proportional to
exp(-(x-x0)^2 / (2 lam^2)), so its density is exp(-(x-x0)^2 / lam^2) and
the free-particle density width obeys lam_t^2 = lam^2 + (hbar t / (m lam))^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .conditions import MeasurementScenario
from .measure import EPS_MASS, SliceMeasure, mixture
from .region import Region
from .spacetime import CausalStructure

BOUNDARY_DENSITY_TOL = 1e-12
RELATIVISTIC_CUTOFF_FACTOR = 20.0
# packet grids hold 2**20 cells at most: `simulate-quantum` peaks at about
# 270 bytes a cell (tracemalloc, 2**14 and 2**16 cells), so about 300 MB
# there; a finer grid raises ValueError instead of asking numpy for arrays
# that cannot be allocated
MAX_GRID_CELLS = 1 << 20


@dataclass(frozen=True)
class Constants:
    hbar: float = 1.0
    c: float = 1.0


NATURAL_UNITS = Constants()
SI_UNITS = Constants(hbar=1.054571817e-34, c=2.99792458e8)


def _check_grid(n: int) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError("grid size must be a power of two")
    if n > MAX_GRID_CELLS:
        raise ValueError(f"grid size {n} is above the limit of "
                         f"{MAX_GRID_CELLS} cells")


def _check_boundary(psi: _GridPacket) -> _GridPacket:
    """`psi`, unless its density at either grid end reaches the tolerance."""
    worst = max(psi.density[0], psi.density[-1])
    if worst >= BOUNDARY_DENSITY_TOL:
        raise ValueError(
            f"boundary density {worst:.3e} exceeds {BOUNDARY_DENSITY_TOL:.0e}; "
            "the grid is too narrow for this state")
    return psi


def _cell_centers(origin: float, cell_size: float, n: int) -> np.ndarray:
    return origin + (np.arange(n) + 0.5) * cell_size


class _GridPacket:
    """Complex components sampled at the `n` cell centers of a uniform 1d
    grid of `cell_size` from `origin`, normalized to 1.

    A subclass is a frozen dataclass that declares its fields and names
    its complex components in `component_names`; the checks, the
    density and every rebuilt packet are shared.
    """

    component_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        first, *rest = self.components
        _check_grid(len(first))
        if any(len(c) != len(first) for c in rest):
            raise ValueError("spinor components differ in length")
        for name, c in zip(self.component_names, self.components):
            arr = np.ascontiguousarray(c, dtype=complex)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not abs(self.norm - 1.0) <= EPS_MASS:  # NaN included
            raise ValueError(f"packet norm {self.norm!r} is not 1")

    @property
    def components(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, c) for c in self.component_names)

    def with_components(self, *arrays: np.ndarray) -> _GridPacket:
        """The same packet on the same grid with new component arrays."""
        return replace(self, **dict(zip(self.component_names, arrays,
                                        strict=True)))

    @property
    def n(self) -> int:
        return len(self.components[0])

    @cached_property
    def density(self) -> np.ndarray:
        return sum(np.abs(c) ** 2 for c in self.components)

    @property
    def norm(self) -> float:
        return float(np.sum(self.density) * self.cell_size)

    @cached_property
    def centers(self) -> np.ndarray:
        return _cell_centers(self.origin, self.cell_size, self.n)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.cell_size)


@dataclass(frozen=True)
class WavePacket(_GridPacket):
    """Scalar wavefunction sampled at cell centers of a uniform 1d grid."""

    amplitudes: np.ndarray
    origin: float
    cell_size: float
    mass: float
    units: Constants = NATURAL_UNITS

    component_names = ("amplitudes",)


@dataclass(frozen=True)
class DiracPacket(_GridPacket):
    """Two-component spinor on a uniform 1d grid."""

    upper: np.ndarray
    lower: np.ndarray
    origin: float
    cell_size: float
    mass: float
    units: Constants = NATURAL_UNITS

    component_names = ("upper", "lower")


@dataclass(frozen=True)
class ScaleReport:
    mass: float
    lam: float
    t: float
    ell_min: float
    ell_min_asymptotic: float
    compton: float


# -- construction ------------------------------------------------------------


def gaussian_packet(lam: float, x0: float = 0.0, k0: float = 0.0, *,
                    origin: float, cell_size: float, n: int,
                    mass: float = 1.0,
                    units: Constants = NATURAL_UNITS) -> WavePacket:
    """Normalized Gaussian, amplitude ~ exp(-(x-x0)^2/(2 lam^2) + i k0 x)."""
    if not (0 < lam < math.inf and math.isfinite(x0) and math.isfinite(k0)):
        raise ValueError("width, centre and k0 must be finite, width > 0")
    _check_grid(n)
    x = _cell_centers(origin, cell_size, n)
    amp = np.exp(-((x - x0) ** 2) / (2.0 * lam * lam) + 1j * k0 * x)
    nrm = math.sqrt(float(np.sum(np.abs(amp) ** 2) * cell_size))
    if nrm <= 0:
        raise ValueError("degenerate packet")
    amp = amp / nrm
    edge = max(abs(amp[0]), abs(amp[-1]))
    if edge >= 1e-12:
        raise ValueError(
            f"boundary amplitude {edge:.3e} too large; widen the grid")
    return WavePacket(amp, origin, cell_size, mass, units)


def bump_spinor_packet(center: float, halfwidth: float, *, origin: float,
                       cell_size: float, n: int, mass: float = 1.0,
                       units: Constants = NATURAL_UNITS) -> DiracPacket:
    """Compactly supported smooth spinor (upper component only).

    The profile exp(-1/(1-u^2)) vanishes with all derivatives at the
    support edge, yet the spectral propagator still leaks at grid scale,
    above the light-cone test tolerances; the leak decays with n.
    """
    if not (0 < halfwidth < math.inf and math.isfinite(center)):
        raise ValueError("support centre and halfwidth must be finite, "
                         "halfwidth > 0")
    _check_grid(n)
    x = _cell_centers(origin, cell_size, n)
    u = (x - center) / halfwidth
    prof = np.zeros(n)
    inside = np.abs(u) < 1.0
    prof[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    nrm = math.sqrt(float(np.sum(prof ** 2) * cell_size))
    if nrm <= 0:
        raise ValueError("support does not intersect the grid")
    return DiracPacket(prof / nrm, np.zeros(n, dtype=complex), origin,
                       cell_size, mass, units)


# -- propagators -------------------------------------------------------------


def _evolve_phase(psi: WavePacket, phase: np.ndarray) -> WavePacket:
    """Multiply each momentum mode by exp(-i omega(k) t), given as `phase`."""
    return _check_boundary(
        psi.with_components(np.fft.ifft(np.fft.fft(psi.amplitudes) * phase)))


def evolve_schrodinger_free(psi: WavePacket, t: float) -> WavePacket:
    """Free nonrelativistic propagator exp(-i hbar k^2 t / (2 m))."""
    if t == 0:
        return psi
    if psi.mass <= 0:
        raise ValueError("nonrelativistic evolution needs positive mass")
    hbar = psi.units.hbar
    k = psi.wavenumbers
    phase = np.exp(-1j * hbar * k * k * t / (2.0 * psi.mass))
    return _evolve_phase(psi, phase)


def evolve_relativistic(psi: WavePacket, t: float) -> WavePacket:
    """Square-root dispersion exp(-i t sqrt(k^2 c^2 + m^2 c^4 / hbar^2))."""
    hbar, c = psi.units.hbar, psi.units.c
    k_cut = np.pi / psi.cell_size
    k_compton = psi.mass * c / hbar
    if psi.mass > 0 and k_cut < RELATIVISTIC_CUTOFF_FACTOR * k_compton:
        raise ValueError(
            "momentum cutoff too low for the mass scale: "
            f"pi/h = {k_cut:.3e} < {RELATIVISTIC_CUTOFF_FACTOR:.0f} m c/hbar")
    if t == 0:
        return psi
    k = psi.wavenumbers
    omega = np.sqrt(k * k * c * c + (psi.mass * c * c / hbar) ** 2)
    return _evolve_phase(psi, np.exp(-1j * omega * t))


def evolve_dirac_1p1(psi: DiracPacket, t: float) -> DiracPacket:
    """1+1 Dirac step: per mode exp(-i t (c hbar k s1 + m c^2 s3) / hbar).

    The generator is E(k) (n . sigma) with E = sqrt(c^2 hbar^2 k^2 + m^2 c^4),
    so the exponential closes as cos(theta) I - i sin(theta) (n . sigma).
    """
    if t == 0:
        return psi
    hbar, c = psi.units.hbar, psi.units.c
    k = psi.wavenumbers
    hk = c * hbar * k          # sigma_1 coefficient
    hm = psi.mass * c * c      # sigma_3 coefficient
    energy = np.sqrt(hk * hk + hm * hm)
    theta = energy * t / hbar
    safe = np.where(energy > 0, energy, 1.0)  # k = 0, m = 0 mode is inert
    n1 = hk / safe
    n3 = hm / safe
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    u = np.fft.fft(psi.upper)
    v = np.fft.fft(psi.lower)
    u_new = (cos_t - 1j * sin_t * n3) * u + (-1j * sin_t * n1) * v
    v_new = (-1j * sin_t * n1) * u + (cos_t + 1j * sin_t * n3) * v
    return _check_boundary(
        psi.with_components(np.fft.ifft(u_new), np.fft.ifft(v_new)))


# -- measurement -------------------------------------------------------------


def born_measure(psi: WavePacket | DiracPacket, time: float) -> SliceMeasure:
    """Detection measure of the state: weight = density * cell_size."""
    return SliceMeasure.from_grid(time, (psi.origin,), psi.cell_size,
                                  psi.density * psi.cell_size)


def collapse(psi: WavePacket | DiracPacket, region: Region,
             outcome: str) -> WavePacket | DiracPacket:
    """Project onto the region ('+') or its complement ('-'), renormalize."""
    if outcome not in ("+", "-"):
        raise ValueError("outcome must be '+' or '-'")
    if region.dim != 1:
        raise ValueError("collapse acts on 1d regions")
    keep = region.contains_points(psi.centers)
    if outcome == "-":
        keep = ~keep
    captured = float(np.sum(psi.density[keep]) * psi.cell_size)
    if captured <= EPS_MASS:
        raise ValueError("conditioning on an outcome of negligible probability")
    scale = 1.0 / math.sqrt(captured)
    return psi.with_components(*(np.where(keep, c, 0.0) * scale
                                 for c in psi.components))


# -- scale formulas -----------------------------------------------------------


def dispersed_width(lam: float, m: float, t: float,
                    units: Constants = NATURAL_UNITS) -> float:
    """Density width after free spreading: sqrt(lam^2 + (hbar t/(m lam))^2)."""
    return math.sqrt(lam * lam + (units.hbar * t / (m * lam)) ** 2)


def min_violation_halfwidth(m: float, lam: float, t: float,
                            units: Constants = SI_UNITS) -> ScaleReport:
    """Smallest box halfwidth around the packet center that the ordering
    condition fails for, after free spreading over time t.

    Closed form (c m lam^2 / (t hbar^2)) (m lam^2 + sqrt(m^2 lam^4 + t^2 hbar^2));
    equals c lam t / (lam_t - lam) and decreases toward c m lam^2 / hbar.
    Raises ValueError when an input is not finite and positive (t may be
    inf, the asymptote), or when a result is not, through overflow or
    underflow.
    """
    # NaN fails every comparison; t = inf is the asymptote
    if not (0 < m < math.inf and 0 < lam < math.inf and t > 0):
        raise ValueError("m and lambda must be finite and > 0, t > 0")
    hbar, c = units.hbar, units.c
    asym = c * m * lam * lam / hbar
    if math.isinf(t):
        ell = asym
    else:
        ell = (c * m * lam * lam / (t * hbar * hbar)) * (
            m * lam * lam + math.hypot(m * lam * lam, t * hbar))
    compton = hbar / (m * c)
    # finite inputs may still overflow to inf or underflow to 0
    if not all(0 < v < math.inf for v in (ell, asym, compton)):
        raise ValueError("the scales overflow or underflow a float: "
                         f"ell_min {ell!r}, ell_min_asymptotic {asym!r}, "
                         f"compton {compton!r}")
    return ScaleReport(mass=m, lam=lam, t=t, ell_min=ell,
                       ell_min_asymptotic=asym, compton=compton)


def analytic_ce_gaussian(m: float, lam: float, t: float, ell: float,
                         units: Constants = NATURAL_UNITS) -> bool:
    """Ordering verdict for K = [-ell, ell] under free Gaussian spreading.

    Holds iff ell / lam <= (ell + c t) / lam_t: the box keeps no more mass
    than its light-cone image gains.
    """
    if ell <= 0:
        raise ValueError("box halfwidth must be positive")
    lam_t = dispersed_width(lam, m, t, units)
    return ell / lam <= (ell + units.c * t) / lam_t


# -- scenario assembly --------------------------------------------------------


def measurement_scenario_from_collapse(psi: WavePacket | DiracPacket,
                                       region: Region, dt: float, evolve,
                                       cs=None):
    """Build a measurement scenario from projective collapse plus evolution.

    mu is the state's detection measure at its own slice (time 0), the
    post-measurement branches evolve for dt and land on the later slice.
    At dt = 0 the positive branch sits entirely inside the region by
    construction.  A `cs` given must have the c of the state's units.
    """
    if dt < 0:
        raise ValueError("detection slice must not precede the state")
    if cs is None:
        cs = CausalStructure(dim=1, c=psi.units.c)
    elif cs.c != psi.units.c:
        raise ValueError(f"the state evolves at c = {psi.units.c!r}, but cs "
                         f"has c = {cs.c!r}")
    mu = born_measure(psi, 0.0)
    p = mu.mass(region)
    psi_plus = collapse(psi, region, "+")
    psi_minus = collapse(psi, region, "-")
    nu0 = born_measure(evolve(psi, dt), dt)
    nu_p = born_measure(evolve(psi_plus, dt), dt)
    nu_m = born_measure(evolve(psi_minus, dt), dt)
    nu1 = mixture(p, nu_p, nu_m)
    return MeasurementScenario(cs=cs, K=region, mu=mu, nu0=nu0, nu1=nu1,
                               nu_plus=nu_p, nu_minus=nu_m, p_plus=p)
