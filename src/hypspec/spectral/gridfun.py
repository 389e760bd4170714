"""Sampled functions on collars and their quadrature energies.

Functions live on a tensor grid in Fermi coordinates: rho nodes along
the width (banded so that +-w are exact grid points when the unit
shell is included) and a uniform periodic t grid along the core.  The
Dirichlet energy uses a staggered second-order scheme -- radial
differences on cell midpoints, circular differences on node rows --
against the area element l cosh(rho) drho dt, with

    |grad f|^2 = (df/drho)^2 + (df/dt)^2 / (l cosh rho)^2.

A grid function holds its node values as a radial factor P of shape
(..., rows, r), one row per rho node, times a circular factor C of
shape (..., r, n_t): a separable function of rank r keeps its r radial
profiles and its r waves, and a constant is ones times ones.  ``values`` forms the product
on demand.  A single function has no leading axes; a stack of
functions on the same grid has them, and every energy and check
returns one number per function of the stack: a scalar for a single
function, an array of the stack's shape otherwise.  Each function's
result is the same whichever functions share its stack.

Every energy is reduced on the factors, in square-root form, without
forming a node.  With R the triangular factor of a QR of C^T (so R^T R =
C C^T) and S that of the circular difference D = roll(C, -1) - C, a
row p of P has |p C|^2 = |p R^T|^2 and |p D|^2 = |p S^T|^2.  So the
mass is the weighted row sums of squares of P R^T, the radial
Dirichlet term those of diff(P) R^T, and the circular term those of
P S^T, each reduced per function by ``einsum``.  The square roots keep
the conditioning of C: the Gram form P (C C^T) P^T would square it.
A constant has zero energy exactly: its radial differences and its
circular difference D are zero, and so is S.

An energy over the "core" or the "shell" reads only the radial rows of
that region; the quadrature weights are those of the whole grid
restricted to the region, so a region's energy equals its share of
the whole-grid sum.  A grid is named by its parameters, not its nodes;
its nodes, and each region's rows and weights, are built once per grid
and shared, read-only; each grid function's roots are taken once.
The weights come pre-divided: the mass weights by n_t, the radial
Dirichlet weights by the squared radial step and by n_t, the circular
ones multiplied by n_t (1/dt^2 times dt), so no difference is divided.

Two inequality checks ride on these quadratures: the crossing-energy
bound (any function separating the two collar walls by a gap c spends
energy at least c^2 l / 4 inside the collar) and the cutoff-extension
bound (a function with small shell mass and energy keeps core energy
at least (1 - 16 delta) c / 4).  Both verify their hypotheses
numerically; a function that fails the hypotheses is rejected, which
is not a check failure.
"""
from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

_REGIONS = ("all", "core", "shell")
CHECK_RTOL = 1e-9


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


def _require_positive_finite(name: str, value) -> None:
    """Reject a value (or any entry of an array) that is not positive and finite."""
    if not np.all((value > 0.0) & np.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@functools.lru_cache(maxsize=64)
def _grid(half_width: float, has_shell: bool, n_rho: int, n_t: int):
    """The (rho, t) nodes of a collar grid, built once per grid and read-only."""
    _require_positive_finite("half_width", half_width)
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
    """A function, or a stack of them, on a collar (optionally with its shell).

    Its grid's nodes :attr:`rho` and :attr:`t` are those ``_grid``
    builds from ``half_width``, ``has_shell``, ``n_rho`` and ``n_t``.
    Held as a radial factor ``radial`` of shape (..., rho.size, r) times a
    circular factor ``circular`` of shape (..., r, n_t); the leading
    axes of the two broadcast to the stack's shape.  The node values
    are formed on demand as :attr:`values`.  The grid function keeps
    read-only copies of the factors it is given, so the roots every
    energy reads are taken once per grid function and no later write to
    the caller's arrays reaches them.
    """

    ell: float
    half_width: float
    has_shell: bool
    n_rho: int
    n_t: int
    radial: np.ndarray
    circular: np.ndarray

    def __post_init__(self):
        _require_positive_finite("ell", self.ell)
        # C order, so a stack's radial rows read as one flat run (_radial_diff)
        for name in ("radial", "circular"):
            factor = np.array(getattr(self, name), dtype=float, order="C")
            factor.setflags(write=False)
            object.__setattr__(self, name, factor)
        rows, n_t = self.rho.size, self.t.size  # _grid checks the parameters
        p, c = self.radial.shape, self.circular.shape
        if len(p) < 2 or len(c) < 2 or (p[-2], c[-1], p[-1]) != (rows, n_t, c[-2]):
            raise ValueError(
                f"factors must be (..., {rows}, r) and (..., r, {n_t}), got {p} and {c}"
            )

    @property
    def rho(self) -> np.ndarray:
        return _grid(self.half_width, self.has_shell, self.n_rho, self.n_t)[0]

    @property
    def t(self) -> np.ndarray:
        return _grid(self.half_width, self.has_shell, self.n_rho, self.n_t)[1]

    @property
    def values(self) -> np.ndarray:
        """Node values ``np.matmul(radial, circular)``, of shape (..., rho.size, n_t)."""
        return np.matmul(self.radial, self.circular)

    @functools.cached_property
    def _roots(self) -> np.ndarray:
        """R^T for the circular factor C (index 0) and its circular difference D (index 1).

        R is the triangular factor of a QR of C^T (or D^T), so R^T R =
        C C^T and a radial row p has |p C|^2 = |p R^T|^2: the sum over
        the circle, taken without forming the row's nodes.  Both QRs run
        as one stacked call, one per function and matrix.
        """
        c = self.circular
        pair = np.stack((c, np.roll(c, -1, axis=-1) - c))
        return np.swapaxes(np.linalg.qr(np.swapaxes(pair, -1, -2), mode="r"), -1, -2)

    def with_factors(self, radial: np.ndarray, circular: np.ndarray) -> "CollarGridFunction":
        """The function(s) with copies of these factors, on the same grid."""
        return dataclasses.replace(self, radial=radial, circular=circular)

    def wall_indices(self) -> tuple[int, int]:
        """Row indices of the collar walls rho = -w and rho = +w."""
        i_lo = int(np.argmin(np.abs(self.rho + self.half_width)))
        i_hi = int(np.argmin(np.abs(self.rho - self.half_width)))
        return i_lo, i_hi


# -------------------------------------------------------------------
# quadrature weights
# -------------------------------------------------------------------

@dataclass(frozen=True)
class _RegionRows:
    """The node rows a region's quadrature reads, with their weights.

    ``rows`` selects the nodes of nonzero trapezoid weight (a slice
    when they form one run, as in the core).  Over those rows,
    ``mass_w`` weighs f^2 (trapezoid weight times the area element
    l cosh rho, over n_t) and ``t_w`` the squared undivided circular
    differences (trapezoid weight over l cosh rho, times n_t).
    ``cell_w`` weighs the squared undivided radial difference between
    each pair of consecutive selected rows: the whole-grid weight of the
    cell that starts at the first row, divided by the pair's squared
    radial step and by n_t, which is zero where the pair bounds no cell
    of the region (the shell's two halves meet across the core there).
    So the weights already hold every step of the difference quotients
    and the t quadrature, and no difference is divided.  Dropping only
    zero-weight rows keeps every term of the whole-grid quadrature.  The
    arrays are read-only: each grid's quadrature is built once and
    shared.
    """

    rows: slice | np.ndarray
    rho: np.ndarray
    mass_w: np.ndarray
    t_w: np.ndarray
    cell_w: np.ndarray


def _region_rows(f: CollarGridFunction, region: str) -> _RegionRows:
    if region not in _REGIONS:
        raise ValueError(f"region must be one of {_REGIONS}, got {region!r}")
    if region == "shell" and not f.has_shell:
        raise ValueError("grid function has no shell")
    return _quadrature(f.ell, f.half_width, f.has_shell, f.n_rho, f.n_t, region)


@functools.lru_cache(maxsize=128)
def _quadrature(
    ell: float, half_width: float, has_shell: bool, n_rho: int, n_t: int, region: str
) -> _RegionRows:
    """The region's rows and weights on the collar grid of these parameters."""
    rho = _grid(half_width, has_shell, n_rho, n_t)[0]
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
    step = np.diff(r_rho)
    out = _RegionRows(
        rows=rows,
        rho=r_rho,
        mass_w=node_w * ell * np.cosh(r_rho) / n_t,
        t_w=node_w / (ell * np.cosh(r_rho)) * n_t,
        cell_w=cell_w[idx[:-1]] / (step * step) / n_t,
    )
    for a in (idx, out.rho, out.mass_w, out.t_w, out.cell_w):
        a.setflags(write=False)
    return out


# -------------------------------------------------------------------
# energies
# -------------------------------------------------------------------

def l2_norm_sq(f: CollarGridFunction, region: str = "all") -> float | np.ndarray:
    """Integral of f^2 against the area element over the region."""
    r = _region_rows(f, region)
    return _mass(r, f.radial[..., r.rows, :], f._roots[0])


def _sum_sq(weights: np.ndarray, rows: np.ndarray):
    """Each function's weighted sum of its rows' squares; ``rows`` is a fresh array."""
    return np.einsum("i,...ij->...", weights, np.square(rows, out=rows))


def _mass(r: _RegionRows, sub: np.ndarray, c_root: np.ndarray):
    """L2 quadrature of the region's radial rows ``sub``."""
    return _sum_sq(r.mass_w, np.matmul(sub, c_root))


def _radial_diff(radial: np.ndarray, rows: slice) -> np.ndarray:
    """``np.diff(radial[..., rows, :], axis=-2)``, taken as one flat subtraction.

    ``radial`` is C-contiguous, so its rows are one flat run, each
    function's after the last's, and a row pairs with the next one r
    entries on.  The subtraction reads that run over the base array,
    from the first selected row of the first function to the last of
    the last, so a slice of rows is never copied; the result is a view
    of a base-shaped buffer that drops the differences pairing rows
    outside the slice (a function's last selected row and the next
    function's rows).  A flat subtraction needs none of the buffers
    numpy allocates for a strided one.
    """
    first, stop, _ = rows.indices(radial.shape[-2])
    flat, r = radial.reshape(-1), radial.shape[-1]
    lo, hi = first * r, flat.size - (radial.shape[-2] - stop) * r
    out = np.empty(radial.shape)
    np.subtract(flat[lo + r : hi], flat[lo : hi - r], out=out.reshape(-1)[: hi - lo - r])
    return out[..., : stop - first - 1, :]


def _dirichlet(r: _RegionRows, radial: np.ndarray, roots: np.ndarray, rows=slice(None)):
    """Dirichlet quadrature of the region's radial rows ``radial[..., rows, :]``.

    A radial difference of the nodes is the difference of two radial
    rows times the circular factor, and a circular difference is the
    radial row times the circular difference of the circular factor;
    each is summed over the circle through the matching root.  Rows
    that are not one slice (the shell's) are gathered first.
    """
    if not isinstance(rows, slice):
        radial, rows = radial[..., rows, :], slice(None)
    c_root, d_root = roots
    e_rho = _sum_sq(r.cell_w, np.matmul(_radial_diff(radial, rows), c_root))
    return e_rho + _sum_sq(r.t_w, np.matmul(radial[..., rows, :], d_root))


def dirichlet_energy(f: CollarGridFunction, region: str = "all") -> float | np.ndarray:
    """Quadrature of |grad f|^2 over the region (second order in both steps)."""
    r = _region_rows(f, region)
    return _dirichlet(r, f.radial, f._roots, r.rows)


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


def crossing_energy_check(f: CollarGridFunction) -> CrossingCheck:
    """Verify energy(T) >= c^2 l / 4 with c the min wall-to-wall gap.

    The gap is minimized over reflection-paired wall points (-w, t)
    and (w, t).  The sharp constant in the underlying bound is
    pi/(4 gd(w)) > 1, so honest quadrature passes with margin; the
    slack :data:`CHECK_RTOL` times max(1, bound) only absorbs roundoff.
    """
    walls = np.matmul(f.radial[..., list(f.wall_indices()), :], f.circular)
    c = np.abs(walls[..., 1, :] - walls[..., 0, :]).min(axis=-1)
    energy = dirichlet_energy(f, region="core" if f.has_shell else "all")
    bound = c * c * f.ell / 4.0
    passed = energy >= bound - CHECK_RTOL * np.maximum(1.0, bound)
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


def cutoff_extension_check(f: CollarGridFunction, delta: float, mass_floor) -> CutoffCheck:
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
    of f must be at least (1 - 16 delta) c / 4 (``final_ok``).  Both
    comparisons allow the roundoff slack :data:`CHECK_RTOL` times max(1, bound).
    """
    if not f.has_shell:
        raise ValueError("cutoff extension needs a grid function with shell")
    if not 0.0 < delta < 1.0 / 16.0:
        raise ValueError(f"delta must lie in (0, 1/16), got {delta}")
    mass_floor = np.asarray(mass_floor, dtype=float)
    _require_positive_finite("mass_floor", mass_floor)
    roots, shell = f._roots, _region_rows(f, "shell")
    shell_radial = f.radial[..., shell.rows, :]
    core_mass = l2_norm_sq(f, "core")
    shell_mass = _mass(shell, shell_radial, roots[0])
    shell_energy = _dirichlet(shell, shell_radial, roots)
    _require_hypotheses(
        ("core-mass", core_mass, mass_floor, ~(core_mass >= mass_floor)),
        ("shell-mass", shell_mass, delta * mass_floor, ~(shell_mass <= delta * mass_floor)),
        ("shell-energy", shell_energy, delta * mass_floor, ~(shell_energy <= delta * mass_floor)),
    )

    # the cutoff factor is 1 on the core, so F differs from f only on the shell
    factor = np.minimum(1.0, f.half_width + 1.0 - np.abs(shell.rho))
    shell_extension_energy = _dirichlet(shell, shell_radial * factor[:, None], roots)
    shell_extension_bound = 2.0 * shell_mass + 2.0 * shell_energy
    slack = CHECK_RTOL * np.maximum(1.0, shell_extension_bound)
    intermediate_ok = shell_extension_energy <= shell_extension_bound + slack

    core_energy = dirichlet_energy(f, "core")
    final_bound = (1.0 - 16.0 * delta) * mass_floor / 4.0
    final_ok = core_energy >= final_bound - CHECK_RTOL * np.maximum(1.0, final_bound)
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
