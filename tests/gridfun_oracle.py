"""Per-call oracle for the grid-function energy kernels and checks.

Every call rebuilds its region's rows and weights from the grid nodes
and takes each function of a stack on its own, as 2-D arrays: with P
its radial factor and C its circular factor, it takes R from a QR of
C^T and S from a QR of D^T, D = roll(C, -1) - C the circular
difference, and sums the weighted squares of P R^T (mass), of
diff(P) R^T (radial Dirichlet term) and of P S^T (circular Dirichlet
term), against weights that hold the radial steps, dt and 1/n_t.  The
crossing gap is read off the node values ``f.values``.
``hypspec.spectral.gridfun`` must reproduce every value of this
``formula="factored"`` bit for bit.

Two other formulas round differently and serve as drift references,
compared within a tolerance:

- ``formula="dividing"`` takes the same Dirichlet sums but divides
  each difference by its step and multiplies each sum by dt, against
  weights that hold no step: the formula before the weights were
  pre-divided.  Its mass is the ``"factored"`` one.
- ``formula="grid"`` sums on the node values, with the radial
  differences taken by ``np.diff`` and the circular ones by
  ``np.roll``, against the pre-divided weights: the formula before the
  sums were taken on the factors.

:func:`longdouble_dirichlet` evaluates the same quadrature with every
node, difference and sum in ``np.longdouble``, from the same factors and
weights: the accuracy reference.
"""
import collections
import functools

import numpy as np


def _cell_mask(f, region):
    mids = 0.5 * (f.rho[:-1] + f.rho[1:])
    if region == "all":
        return np.ones(mids.size, dtype=bool)
    core = np.abs(mids) < f.half_width
    return core if region == "core" else ~core


def _node_weights(f, mask):
    h = np.diff(f.rho)
    w = np.zeros(f.rho.size)
    hw = 0.5 * h * mask
    w[:-1] += hw
    w[1:] += hw
    return w


Rows = collections.namedtuple("Rows", "rows rho node_w cell mass_w t_w cell_w")


def region_rows(f, region):
    """The region's rows, nodes, node and cell weights, and the pre-divided weights."""
    if region == "shell" and not f.has_shell:
        raise ValueError("grid function has no shell")
    n_t = f.t.size
    mask = _cell_mask(f, region)
    weights = _node_weights(f, mask)
    idx = np.flatnonzero(weights)
    first, last = int(idx[0]), int(idx[-1])
    rows = slice(first, last + 1) if last - first + 1 == idx.size else idx
    mids = 0.5 * (f.rho[:-1] + f.rho[1:])
    cell_w = mask * np.diff(f.rho) * f.ell * np.cosh(mids)
    rho, node_w = f.rho[rows], weights[rows]
    step = np.diff(rho)
    return Rows(
        rows,
        rho,
        node_w,
        cell_w[idx[:-1]],
        node_w * f.ell * np.cosh(rho) / n_t,
        node_w / (f.ell * np.cosh(rho)) * n_t,
        cell_w[idx[:-1]] / (step * step) / n_t,
    )


def _per_function(f, radial, one):
    """``one(P, circle)`` of every function of the stack, P its rows of ``radial``.

    ``circle(rows, m)`` maps radial rows to rows whose squares sum, over
    each row, to those of the rows' nodes (m = 0) or of their circular
    differences (m = 1).
    """
    shape = np.broadcast_shapes(radial.shape[:-2], f.circular.shape[:-2])
    p = np.broadcast_to(radial, shape + radial.shape[-2:])
    c_all = np.broadcast_to(f.circular, shape + f.circular.shape[-2:])
    out = np.empty(shape)
    for index in np.ndindex(shape):
        c = c_all[index]
        circle = functools.partial(_times, (_root(c), _root(np.roll(c, -1, axis=-1) - c)))
        out[index] = one(p[index], circle)
    return out[()]


def _root(c):
    return np.linalg.qr(c.T, mode="r").T


def _times(roots, rows, m):
    return rows @ roots[m]


def _sum_sq(w, rows):
    return np.einsum("i,ij->", w, rows**2)


def _nodes(f, radial):
    return np.matmul(radial, f.circular)


def mass(f, r, radial, formula="factored"):
    """L2 quadrature of the region ``r`` for the functions of radial rows ``radial``."""
    if formula == "grid":
        return np.einsum(
            "i,...ij->...", r.node_w * f.ell * np.cosh(r.rho), _nodes(f, radial) ** 2
        ) * (1.0 / f.t.size)
    return _per_function(f, radial, lambda p, circle: _sum_sq(r.mass_w, circle(p, 0)))


def dirichlet(f, r, radial, formula="factored"):
    """Dirichlet quadrature of the region ``r`` for the radial rows ``radial``."""
    if formula == "grid":
        values = _nodes(f, radial)
        d_t = np.roll(values, -1, axis=-1)
        d_t -= values
        return np.einsum("i,...ij->...", r.cell_w, np.diff(values, axis=-2) ** 2) + np.einsum(
            "i,...ij->...", r.t_w, d_t**2
        )
    dt = 1.0 / f.t.size

    def one(p, circle):
        d_rho = np.diff(p, axis=0)
        if formula == "dividing":
            d_rho /= np.diff(r.rho)[:, None]
            e_rho = _sum_sq(r.cell, circle(d_rho, 0)) * dt
            return e_rho + _sum_sq(r.node_w / (f.ell * np.cosh(r.rho)), circle(p, 1) / dt) * dt
        return _sum_sq(r.cell_w, circle(d_rho, 0)) + _sum_sq(r.t_w, circle(p, 1))

    return _per_function(f, radial, one)


def l2_norm_sq(f, region="all", formula="factored"):
    r = region_rows(f, region)
    return mass(f, r, f.radial[..., r.rows, :], formula)


def dirichlet_energy(f, region="all", formula="factored"):
    r = region_rows(f, region)
    return dirichlet(f, r, f.radial[..., r.rows, :], formula)


def longdouble_dirichlet(f, region="all"):
    """The Dirichlet quadrature of the region in ``np.longdouble``, from the factors."""
    r = region_rows(f, region)
    ld = np.longdouble
    values = np.matmul(f.radial[..., r.rows, :].astype(ld), f.circular.astype(ld))
    d_rho = np.diff(values, axis=-2)
    d_t = np.roll(values, -1, axis=-1) - values
    return np.einsum("i,...ij->...", r.cell_w.astype(ld), d_rho**2) + np.einsum(
        "i,...ij->...", r.t_w.astype(ld), d_t**2
    )


def crossing_energy_check(f, rtol=1e-9, formula="factored"):
    """Every field of the crossing check, as a dict."""
    i_lo, i_hi = f.wall_indices()
    values = f.values
    c = np.abs(values[..., i_hi, :] - values[..., i_lo, :]).min(axis=-1)
    energy = dirichlet_energy(f, "core" if f.has_shell else "all", formula)
    bound = c * c * f.ell / 4.0
    passed = energy >= bound - rtol * np.maximum(1.0, bound)
    return {"crossing_gap": c, "energy": energy, "bound": bound, "passed": passed}


def cutoff_measures(f, formula="factored"):
    """The five quadratures of the cutoff check, by name."""
    shell = region_rows(f, "shell")
    shell_radial = f.radial[..., shell.rows, :]
    factor = np.minimum(1.0, f.half_width + 1.0 - np.abs(shell.rho))[:, None]
    return {
        "core_mass": l2_norm_sq(f, "core", formula),
        "shell_mass": mass(f, shell, shell_radial, formula),
        "shell_energy": dirichlet(f, shell, shell_radial, formula),
        "shell_extension_energy": dirichlet(f, shell, shell_radial * factor, formula),
        "core_energy": dirichlet_energy(f, "core", formula),
    }


def cutoff_extension_check(f, delta, mass_floor, rtol=1e-9, formula="factored"):
    """Every field of the cutoff check as a dict, or the first miss.

    A function that misses a hypothesis gives ``("missed", name, index)``
    for the first such function of the stack (in C order) and the first
    hypothesis it misses, in the order core mass, shell mass, shell
    energy; a NaN measure misses.  A floor that is not positive and
    finite raises ``ValueError``.
    """
    mass_floor = np.asarray(mass_floor, dtype=float)
    if not np.all(np.isfinite(mass_floor) & (mass_floor > 0.0)):
        raise ValueError(f"mass_floor must be positive and finite, got {mass_floor}")
    m = cutoff_measures(f, formula)
    floor = np.broadcast_to(mass_floor, np.shape(m["core_mass"]))
    missed = (
        ("core-mass", ~(m["core_mass"] >= floor)),
        ("shell-mass", ~(m["shell_mass"] <= delta * floor)),
        ("shell-energy", ~(m["shell_energy"] <= delta * floor)),
    )
    for index in np.ndindex(floor.shape):
        for name, miss in missed:
            if miss[index]:
                return ("missed", name, index)
    extension = m["shell_extension_energy"]
    extension_bound = 2.0 * m["shell_mass"] + 2.0 * m["shell_energy"]
    final_bound = (1.0 - 16.0 * delta) * mass_floor / 4.0
    return {
        "delta": delta,
        "mass_floor": mass_floor,
        **m,
        "final_bound": final_bound,
        "shell_extension_bound": extension_bound,
        "intermediate_ok": extension
        <= extension_bound + rtol * np.maximum(1.0, extension_bound),
        "final_ok": m["core_energy"] >= final_bound - rtol * np.maximum(1.0, final_bound),
    }
