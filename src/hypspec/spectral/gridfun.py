"""Sampled functions on collars and their quadrature energies.

Functions live on a tensor grid in Fermi coordinates: rho nodes along
the width (banded so that +-w are exact grid points when the unit
shell is included) and a uniform periodic t grid along the core.  The
Dirichlet energy uses a staggered second-order scheme -- radial
differences on cell midpoints, circular differences on node rows --
against the area element l cosh(rho) drho dt, with

    |grad f|^2 = (df/drho)^2 + (df/dt)^2 / (l cosh rho)^2.

``values`` holds one function as an (n_rho, n_t) array, or a stack of
functions on the same grid as an array of shape (..., n_rho, n_t).
Every energy and check reduces over the last two axes, so it returns
one number per function of the stack: a scalar for a single function,
an array of the stack's shape otherwise.  Each function's result is
the same whichever functions share its stack.  An energy over the
"core" or the "shell" reads only the node rows of that region; the
quadrature weights are those of the whole grid restricted to the
region, so a region's energy equals its share of the whole-grid sum.
Each grid's nodes, and each region's rows, weights and radial steps,
are built once per grid and shared, read-only, by every later call on
that grid; the Dirichlet sum runs in one scratch array per call.

Two inequality checks ride on these quadratures: the crossing-energy
bound (any function separating the two collar walls by a gap c spends
energy at least c^2 l / 4 inside the collar) and the cutoff-extension
bound (a function with small shell mass and energy keeps core energy
at least (1 - 16 delta) c / 4).  Both verify their hypotheses
numerically; a function that fails the hypotheses is rejected, which
is not a check failure.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

DEFAULT_N_RHO = 256
DEFAULT_N_T = 64

_REGIONS = ("all", "core", "shell")


class HypothesisNotMet(ValueError):
    """An inequality check was handed a function outside its hypotheses.

    ``index`` locates the function in its stack; it is ``()`` for a
    single function.
    """

    def __init__(self, which: str, measured: float, bound: float, index: tuple = ()):
        self.which = which
        self.measured = measured
        self.bound = bound
        self.index = index
        where = f" by function {index}" if index else ""
        super().__init__(
            f"hypothesis {which!r} not met{where}: {measured!r} vs bound {bound!r}"
        )


@functools.lru_cache(maxsize=64)
def _grid(half_width: float, has_shell: bool, n_rho: int, n_t: int):
    """The (rho, t) nodes of a collar grid, built once per grid and read-only."""
    if half_width <= 0.0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if n_rho < 16:
        raise ValueError(f"n_rho must be >= 16, got {n_rho}")
    if n_t < 4:
        raise ValueError(f"n_t must be >= 4, got {n_t}")
    if not has_shell:
        rho = np.linspace(-half_width, half_width, n_rho + 1)
    else:
        span = 2.0 * half_width + 2.0
        h = span / n_rho
        n_shell = max(8, round(1.0 / h))
        n_core = max(16, round(2.0 * half_width / h))
        left = np.linspace(-half_width - 1.0, -half_width, n_shell + 1)
        core = np.linspace(-half_width, half_width, n_core + 1)
        right = np.linspace(half_width, half_width + 1.0, n_shell + 1)
        rho = np.concatenate([left, core[1:], right[1:]])
    t = np.arange(n_t) / n_t
    rho.setflags(write=False)
    t.setflags(write=False)
    return rho, t


@dataclass(frozen=True)
class CollarGridFunction:
    """Node values of a function, or a stack of them, on a collar (optionally with its shell)."""

    ell: float
    half_width: float
    has_shell: bool
    rho: np.ndarray
    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape[-2:] != (self.rho.size, self.t.size):
            raise ValueError(
                f"values must end in {(self.rho.size, self.t.size)}, got {self.values.shape}"
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
    """Evaluate ``fn(rho, t)`` (numpy-broadcastable) on the collar grid.

    ``fn`` receives ``rho`` as a column and ``t`` as a row; a result
    with leading axes before those two is a stack of functions.  The
    grid function keeps its own copy of the values; its ``rho`` and
    ``t`` nodes are read-only and shared by every function sampled on
    the same grid.
    """
    return _sample(ell, half_width, fn, has_shell, n_rho, n_t, fresh=False)


def _sample(ell, half_width, fn, has_shell, n_rho, n_t, *, fresh) -> CollarGridFunction:
    """Sample ``fn`` on the grid, as :func:`sample_collar_function` does.

    With ``fresh``, ``fn`` promises a new float array of the full grid
    shape, which the grid function then keeps without a copy.
    """
    if ell <= 0.0:
        raise ValueError(f"ell must be positive, got {ell}")
    rho, t = _grid(half_width, has_shell, n_rho, n_t)
    vals = fn(rho[:, None], t[None, :])
    if not fresh:
        vals = np.asarray(vals, dtype=float)
        vals = np.broadcast_to(vals, vals.shape[:-2] + (rho.size, t.size)).copy()
    return CollarGridFunction(
        ell=ell, half_width=half_width, has_shell=has_shell, rho=rho, t=t, values=vals
    )


# -------------------------------------------------------------------
# quadrature weights
# -------------------------------------------------------------------

@dataclass(frozen=True)
class _RegionRows:
    """The node rows a region's quadrature reads, with their weights.

    ``rows`` selects the nodes of nonzero trapezoid weight (a slice
    when they form one run, as in the core).  Over those rows,
    ``mass_w`` weighs f^2 (trapezoid weight times the area element
    l cosh rho) and ``t_w`` the squared circular differences (trapezoid
    weight over l cosh rho).  ``cell_w`` weighs the radial difference
    between each pair of consecutive selected rows: the whole-grid
    weight of the cell that starts at the first row, which is zero
    where the pair bounds no cell of the region (the shell's two halves
    meet across the core there).  ``d_rho`` holds that pair's radial
    step once per t node, since numpy divides by a whole array of the
    differences' shape faster than by a broadcast column.  Dropping
    only zero-weight rows keeps every sum of the whole-grid quadrature,
    term for term and in order.  The arrays are read-only: each grid's
    quadrature is built once and shared.
    """

    rows: slice | np.ndarray
    rho: np.ndarray
    mass_w: np.ndarray
    t_w: np.ndarray
    cell_w: np.ndarray
    d_rho: np.ndarray


def _region_rows(f: CollarGridFunction, region: str) -> _RegionRows:
    if region not in _REGIONS:
        raise ValueError(f"region must be one of {_REGIONS}, got {region!r}")
    if region == "shell" and not f.has_shell:
        raise ValueError("grid function has no shell")
    rho = np.asarray(f.rho, dtype=float)
    return _quadrature(f.ell, f.half_width, rho.tobytes(), f.t.size, region)


@functools.lru_cache(maxsize=128)
def _quadrature(
    ell: float, half_width: float, rho_bytes: bytes, n_t: int, region: str
) -> _RegionRows:
    """The region's rows and weights on the grid of nodes ``rho_bytes`` by ``n_t``."""
    rho = np.frombuffer(rho_bytes)
    h = np.diff(rho)
    mids = 0.5 * (rho[:-1] + rho[1:])
    if region == "all":
        mask = np.ones(mids.size, dtype=bool)
    else:
        core = np.abs(mids) < half_width
        mask = core if region == "core" else ~core
    # trapezoid weights restricted to the masked cells (bands never straddle)
    weights = np.zeros(rho.size)
    hw = 0.5 * h * mask
    weights[:-1] += hw
    weights[1:] += hw
    idx = np.flatnonzero(weights)
    first, last = int(idx[0]), int(idx[-1])
    rows = slice(first, last + 1) if last - first + 1 == idx.size else idx
    node_w, r_rho = weights[rows], rho[rows]
    cell_w = mask * h * ell * np.cosh(mids)
    out = _RegionRows(
        rows=rows,
        rho=r_rho,
        mass_w=node_w * ell * np.cosh(r_rho),
        t_w=node_w / (ell * np.cosh(r_rho)),
        cell_w=cell_w[idx[:-1]],
        d_rho=np.repeat(np.diff(r_rho)[:, None], n_t, axis=1),
    )
    for a in (idx, out.rho, out.mass_w, out.t_w, out.cell_w, out.d_rho):
        a.setflags(write=False)
    return out


# -------------------------------------------------------------------
# energies
# -------------------------------------------------------------------

def l2_norm_sq(f: CollarGridFunction, region: str = "all") -> float | np.ndarray:
    """Integral of f^2 against the area element over the region."""
    r = _region_rows(f, region)
    return _mass(f, r, f.values[..., r.rows, :])


def _mass(f: CollarGridFunction, r: _RegionRows, sub: np.ndarray):
    """L2 quadrature of the region's node rows ``sub``."""
    return np.einsum("i,...ij->...", r.mass_w, sub**2) * (1.0 / f.t.size)


def _dirichlet(f: CollarGridFunction, r: _RegionRows, sub: np.ndarray):
    """Dirichlet quadrature of the region's node rows ``sub``.

    Both differences are taken, scaled and squared in place in one
    scratch array of ``sub``'s size, on each function's rows read as one
    flat run: a radial difference pairs entries one row apart, a
    circular one neighbours in a row, and only the last one of each row
    wraps around to the row's start.  The radial differences fill the
    scratch array's head, one row less per function.
    """
    dt = 1.0 / f.t.size
    lead, (m, n) = sub.shape[:-2], sub.shape[-2:]
    flat = sub.reshape(lead + (m * n,))
    scratch = np.empty(sub.size)
    d_rho = scratch[: sub.size // m * (m - 1)].reshape(lead + ((m - 1) * n,))
    np.subtract(flat[..., n:], flat[..., :-n], out=d_rho)
    d_rho = d_rho.reshape(lead + (m - 1, n))
    d_rho /= r.d_rho
    e_rho = np.einsum("i,...ij->...", r.cell_w, np.square(d_rho, out=d_rho)) * dt
    d_t = scratch.reshape(lead + (m * n,))
    np.subtract(flat[..., 1:], flat[..., :-1], out=d_t[..., :-1])
    d_t = d_t.reshape(sub.shape)
    np.subtract(sub[..., 0], sub[..., -1], out=d_t[..., -1])
    d_t /= dt
    e_t = np.einsum("i,...ij->...", r.t_w, np.square(d_t, out=d_t)) * dt
    return e_rho + e_t


def dirichlet_energy(f: CollarGridFunction, region: str = "all") -> float | np.ndarray:
    """Quadrature of |grad f|^2 over the region (second order in both steps)."""
    r = _region_rows(f, region)
    return _dirichlet(f, r, f.values[..., r.rows, :])


# -------------------------------------------------------------------
# crossing energy
# -------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingCheck:
    """Crossing gap, measured core energy, and the c^2 l / 4 bound (per function)."""

    crossing_gap: float | np.ndarray
    energy: float | np.ndarray
    bound: float | np.ndarray
    passed: bool | np.ndarray


def crossing_energy_check(f: CollarGridFunction, *, rtol: float = 1e-9) -> CrossingCheck:
    """Verify energy(T) >= c^2 l / 4 with c the min wall-to-wall gap.

    The gap is minimized over reflection-paired wall points (-w, t)
    and (w, t).  The sharp constant in the underlying bound is
    pi/(4 gd(w)) > 1, so honest quadrature passes with margin; rtol
    only absorbs roundoff.
    """
    i_lo, i_hi = f.wall_indices()
    gaps = np.abs(f.values[..., i_hi, :] - f.values[..., i_lo, :])
    c = gaps.min(axis=-1)
    energy = dirichlet_energy(f, region="core" if f.has_shell else "all")
    bound = c * c * f.ell / 4.0
    passed = energy >= bound - rtol * np.maximum(1.0, bound)
    return CrossingCheck(crossing_gap=c, energy=energy, bound=bound, passed=passed)


# -------------------------------------------------------------------
# cutoff extension
# -------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffCheck:
    """All quantities entering the cutoff-extension chain (per function)."""

    delta: float
    mass_floor: float | np.ndarray
    core_mass: float | np.ndarray
    shell_mass: float | np.ndarray
    shell_energy: float | np.ndarray
    core_energy: float | np.ndarray
    final_bound: float | np.ndarray
    shell_extension_energy: float | np.ndarray
    shell_extension_bound: float | np.ndarray
    intermediate_ok: bool | np.ndarray
    final_ok: bool | np.ndarray

    @property
    def passed(self) -> bool | np.ndarray:
        return self.intermediate_ok & self.final_ok


def cutoff_extension_check(
    f: CollarGridFunction, delta: float, mass_floor, *, rtol: float = 1e-9
) -> CutoffCheck:
    """Verify the cutoff-extension bound for a collar-with-shell function.

    Hypotheses (checked, not assumed; violation raises
    :class:`HypothesisNotMet`):  integral of f^2 over the core at
    least ``mass_floor`` = c, and shell mass and shell energy both at
    most delta * c, with 0 < delta < 1/16.  For a stack, ``mass_floor``
    holds one c per function (or one for all), and the error names the
    first function in the stack that misses a hypothesis.

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
    mass_floor = np.asarray(mass_floor, dtype=float)
    if (mass_floor <= 0.0).any():
        raise ValueError(f"mass_floor must be positive, got {mass_floor}")
    shell = _region_rows(f, "shell")
    shell_values = f.values[..., shell.rows, :]
    core_mass = l2_norm_sq(f, "core")
    shell_mass = _mass(f, shell, shell_values)
    shell_energy = _dirichlet(f, shell, shell_values)
    _require_hypotheses(
        ("core-mass", core_mass, mass_floor, core_mass < mass_floor),
        ("shell-mass", shell_mass, delta * mass_floor, shell_mass > delta * mass_floor),
        ("shell-energy", shell_energy, delta * mass_floor, shell_energy > delta * mass_floor),
    )

    # the cutoff factor is 1 on the core, so F differs from f only on the shell
    factor = np.minimum(1.0, f.half_width + 1.0 - np.abs(shell.rho))
    shell_extension_energy = _dirichlet(f, shell, shell_values * factor[:, None])
    shell_extension_bound = 2.0 * shell_mass + 2.0 * shell_energy
    intermediate_ok = shell_extension_energy <= shell_extension_bound + rtol * np.maximum(
        1.0, shell_extension_bound
    )

    core_energy = dirichlet_energy(f, "core")
    final_bound = (1.0 - 16.0 * delta) * mass_floor / 4.0
    final_ok = core_energy >= final_bound - rtol * np.maximum(1.0, final_bound)
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


def _require_hypotheses(*hypotheses) -> None:
    """Raise for the first function of the stack that misses a hypothesis.

    Each hypothesis is (name, measured, bound, missed); for the first
    function that misses any, the error names the first one it misses.
    """
    missed = np.stack([h[3] for h in hypotheses]).reshape(len(hypotheses), -1)
    bad = np.flatnonzero(missed.any(axis=0))
    if bad.size == 0:
        return
    k = int(bad[0])
    name, measured, bound, _ = hypotheses[int(np.argmax(missed[:, k]))]
    shape = np.shape(measured)
    raise HypothesisNotMet(
        name,
        float(np.reshape(measured, -1)[k]),
        float(np.broadcast_to(bound, shape).reshape(-1)[k]),
        tuple(int(i) for i in np.unravel_index(k, shape)),
    )
