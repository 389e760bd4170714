"""Sampled functions on collars and their quadrature energies.

Functions live on a tensor grid in Fermi coordinates: rho nodes along
the width (banded so that +-w are exact grid points when the unit
shell is included) and a uniform periodic t grid along the core.  The
Dirichlet energy uses a staggered second-order scheme -- radial
differences on cell midpoints, circular differences on node rows --
against the area element l cosh(rho) drho dt, with

    |grad f|^2 = (df/drho)^2 + (df/dt)^2 / (l cosh rho)^2.

Two inequality checks ride on these quadratures: the crossing-energy
bound (any function separating the two collar walls by a gap c spends
energy at least c^2 l / 4 inside the collar) and the cutoff-extension
bound (a function with small shell mass and energy keeps core energy
at least (1 - 16 delta) c / 4).  Both verify their hypotheses
numerically; a function that fails the hypotheses is rejected, which
is not a check failure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_N_RHO = 256
DEFAULT_N_T = 64

_REGIONS = ("all", "core", "shell")


class HypothesisNotMet(ValueError):
    """An inequality check was handed a function outside its hypotheses."""

    def __init__(self, which: str, measured: float, bound: float):
        self.which = which
        self.measured = measured
        self.bound = bound
        super().__init__(f"hypothesis {which!r} not met: {measured!r} vs bound {bound!r}")


def _rho_nodes(half_width: float, has_shell: bool, n_rho: int) -> np.ndarray:
    if half_width <= 0.0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if n_rho < 16:
        raise ValueError(f"n_rho must be >= 16, got {n_rho}")
    if not has_shell:
        return np.linspace(-half_width, half_width, n_rho + 1)
    span = 2.0 * half_width + 2.0
    h = span / n_rho
    n_shell = max(8, round(1.0 / h))
    n_core = max(16, round(2.0 * half_width / h))
    left = np.linspace(-half_width - 1.0, -half_width, n_shell + 1)
    core = np.linspace(-half_width, half_width, n_core + 1)
    right = np.linspace(half_width, half_width + 1.0, n_shell + 1)
    return np.concatenate([left, core[1:], right[1:]])


@dataclass(frozen=True)
class CollarGridFunction:
    """Node values of a function on a collar (optionally with its shell)."""

    ell: float
    half_width: float
    has_shell: bool
    rho: np.ndarray
    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.rho.size, self.t.size):
            raise ValueError(
                f"values must be {(self.rho.size, self.t.size)}, got {self.values.shape}"
            )

    def with_values(self, values: np.ndarray) -> "CollarGridFunction":
        return CollarGridFunction(
            ell=self.ell,
            half_width=self.half_width,
            has_shell=self.has_shell,
            rho=self.rho,
            t=self.t,
            values=np.asarray(values, dtype=float),
        )

    def wall_indices(self) -> tuple[int, int]:
        """Row indices of the collar walls rho = -w and rho = +w."""
        i_lo = int(np.argmin(np.abs(self.rho + self.half_width)))
        i_hi = int(np.argmin(np.abs(self.rho - self.half_width)))
        return i_lo, i_hi


def sample_collar_function(
    ell: float,
    half_width: float,
    fn,
    *,
    has_shell: bool = False,
    n_rho: int = DEFAULT_N_RHO,
    n_t: int = DEFAULT_N_T,
) -> CollarGridFunction:
    """Evaluate ``fn(rho, t)`` (numpy-broadcastable) on the collar grid."""
    if ell <= 0.0:
        raise ValueError(f"ell must be positive, got {ell}")
    if n_t < 4:
        raise ValueError(f"n_t must be >= 4, got {n_t}")
    rho = _rho_nodes(half_width, has_shell, n_rho)
    t = np.arange(n_t) / n_t
    vals = np.asarray(fn(rho[:, None], t[None, :]), dtype=float)
    vals = np.broadcast_to(vals, (rho.size, t.size)).copy()
    return CollarGridFunction(
        ell=ell, half_width=half_width, has_shell=has_shell, rho=rho, t=t, values=vals
    )


# -------------------------------------------------------------------
# quadrature weights
# -------------------------------------------------------------------

def _cell_mask(f: CollarGridFunction, region: str) -> np.ndarray:
    mids = 0.5 * (f.rho[:-1] + f.rho[1:])
    if region == "all":
        return np.ones(mids.size, dtype=bool)
    core = np.abs(mids) < f.half_width
    return core if region == "core" else ~core


def _node_weights(f: CollarGridFunction, region: str) -> np.ndarray:
    """Trapezoid weights restricted to the region's cells (bands never straddle)."""
    mask = _cell_mask(f, region)
    h = np.diff(f.rho)
    w = np.zeros(f.rho.size)
    hw = 0.5 * h * mask
    w[:-1] += hw
    w[1:] += hw
    return w


def _check_region(f: CollarGridFunction, region: str) -> None:
    if region not in _REGIONS:
        raise ValueError(f"region must be one of {_REGIONS}, got {region!r}")
    if region == "shell" and not f.has_shell:
        raise ValueError("grid function has no shell")


# -------------------------------------------------------------------
# energies
# -------------------------------------------------------------------

def l2_norm_sq(f: CollarGridFunction, region: str = "all") -> float:
    """Integral of f^2 against the area element over the region."""
    _check_region(f, region)
    w = _node_weights(f, region)
    dt = 1.0 / f.t.size
    row = w * f.ell * np.cosh(f.rho)
    return float(np.einsum("i,ij->", row, f.values**2) * dt)


def dirichlet_energy(f: CollarGridFunction, region: str = "all") -> float:
    """Quadrature of |grad f|^2 over the region (second order in both steps)."""
    _check_region(f, region)
    dt = 1.0 / f.t.size
    h = np.diff(f.rho)
    mids = 0.5 * (f.rho[:-1] + f.rho[1:])
    mask = _cell_mask(f, region)
    d_rho = (f.values[1:, :] - f.values[:-1, :]) / h[:, None]
    e_rho = np.einsum(
        "i,ij->", mask * h * f.ell * np.cosh(mids), d_rho**2
    ) * dt
    wts = _node_weights(f, region)
    d_t = (np.roll(f.values, -1, axis=1) - f.values) / dt
    e_t = np.einsum("i,ij->", wts / (f.ell * np.cosh(f.rho)), d_t**2) * dt
    return float(e_rho + e_t)


# -------------------------------------------------------------------
# crossing energy
# -------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingCheck:
    """Crossing gap, measured core energy, and the c^2 l / 4 bound."""

    crossing_gap: float
    energy: float
    bound: float
    passed: bool


def crossing_energy_check(f: CollarGridFunction, *, rtol: float = 1e-9) -> CrossingCheck:
    """Verify energy(T) >= c^2 l / 4 with c the min wall-to-wall gap.

    The gap is minimized over reflection-paired wall points (-w, t)
    and (w, t).  The sharp constant in the underlying bound is
    pi/(4 gd(w)) > 1, so honest quadrature passes with margin; rtol
    only absorbs roundoff.
    """
    i_lo, i_hi = f.wall_indices()
    gaps = np.abs(f.values[i_hi, :] - f.values[i_lo, :])
    c = float(gaps.min())
    energy = dirichlet_energy(f, region="core" if f.has_shell else "all")
    bound = c * c * f.ell / 4.0
    passed = energy >= bound - rtol * max(1.0, bound)
    return CrossingCheck(crossing_gap=c, energy=energy, bound=bound, passed=passed)


# -------------------------------------------------------------------
# cutoff extension
# -------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffCheck:
    """All quantities entering the cutoff-extension chain."""

    delta: float
    mass_floor: float
    core_mass: float
    shell_mass: float
    shell_energy: float
    core_energy: float
    final_bound: float
    shell_extension_energy: float
    shell_extension_bound: float
    intermediate_ok: bool
    final_ok: bool

    @property
    def passed(self) -> bool:
        return self.intermediate_ok and self.final_ok


def cutoff_extension_check(
    f: CollarGridFunction, delta: float, mass_floor: float, *, rtol: float = 1e-9
) -> CutoffCheck:
    """Verify the cutoff-extension bound for a collar-with-shell function.

    Hypotheses (checked, not assumed; violation raises
    :class:`HypothesisNotMet`):  integral of f^2 over the core at
    least ``mass_floor`` = c, and shell mass and shell energy both at
    most delta * c, with 0 < delta < 1/16.

    The linear cutoff F = (w + 1 - |rho|) f on the shell satisfies
    |grad F|^2 <= 2 f^2 + 2 |grad f|^2 pointwise; the discrete scheme
    preserves that inequality exactly (checked as
    ``intermediate_ok``).  Since F vanishes on the outer boundary and
    any collar supports no Dirichlet energy below 1/4, the core energy
    of f must be at least (1 - 16 delta) c / 4 (``final_ok``).
    """
    if not f.has_shell:
        raise ValueError("cutoff extension needs a grid function with shell")
    if not 0.0 < delta < 1.0 / 16.0:
        raise ValueError(f"delta must lie in (0, 1/16), got {delta}")
    if mass_floor <= 0.0:
        raise ValueError(f"mass_floor must be positive, got {mass_floor}")
    core_mass = l2_norm_sq(f, "core")
    shell_mass = l2_norm_sq(f, "shell")
    shell_energy = dirichlet_energy(f, "shell")
    if core_mass < mass_floor:
        raise HypothesisNotMet("core-mass", core_mass, mass_floor)
    if shell_mass > delta * mass_floor:
        raise HypothesisNotMet("shell-mass", shell_mass, delta * mass_floor)
    if shell_energy > delta * mass_floor:
        raise HypothesisNotMet("shell-energy", shell_energy, delta * mass_floor)

    factor = np.minimum(1.0, f.half_width + 1.0 - np.abs(f.rho))
    extension = f.with_values(f.values * factor[:, None])
    shell_extension_energy = dirichlet_energy(extension, "shell")
    shell_extension_bound = 2.0 * shell_mass + 2.0 * shell_energy
    intermediate_ok = shell_extension_energy <= shell_extension_bound + rtol * max(
        1.0, shell_extension_bound
    )

    core_energy = dirichlet_energy(f, "core")
    final_bound = (1.0 - 16.0 * delta) * mass_floor / 4.0
    final_ok = core_energy >= final_bound - rtol * max(1.0, final_bound)
    return CutoffCheck(
        delta=delta,
        mass_floor=mass_floor,
        core_mass=core_mass,
        shell_mass=shell_mass,
        shell_energy=shell_energy,
        core_energy=core_energy,
        final_bound=final_bound,
        shell_extension_energy=shell_extension_energy,
        shell_extension_bound=shell_extension_bound,
        intermediate_ok=intermediate_ok,
        final_ok=final_ok,
    )
