"""Per-call oracle for the grid-function energy kernels and checks.

Every call rebuilds its region's rows and weights from the grid nodes,
takes the radial differences with ``np.diff`` and the circular ones
with ``np.roll``, and gathers the shell rows anew for each sum.  Its
Dirichlet weights come pre-divided, as the library's do: the radial
cell weights by the squared radial step and by n_t, the circular
weights multiplied by n_t.  ``hypspec.spectral.gridfun`` must reproduce
every value bit for bit, signed zeros included.

``dividing=True`` runs the Dirichlet sum as the library did before it
pre-divided its weights: each difference divided by its step, squared,
weighted and the sum multiplied by dt.  That formula is the drift
reference; it rounds differently, so it is compared within a tolerance,
not bit for bit.
"""
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


def region_rows(f, region):
    """(rows, rho, node_w, cell_w) of the region's quadrature."""
    if region == "shell" and not f.has_shell:
        raise ValueError("grid function has no shell")
    mask = _cell_mask(f, region)
    weights = _node_weights(f, mask)
    idx = np.flatnonzero(weights)
    first, last = int(idx[0]), int(idx[-1])
    rows = slice(first, last + 1) if last - first + 1 == idx.size else idx
    mids = 0.5 * (f.rho[:-1] + f.rho[1:])
    cell_w = mask * np.diff(f.rho) * f.ell * np.cosh(mids)
    return rows, f.rho[rows], weights[rows], cell_w[idx[:-1]]


def l2_norm_sq(f, region="all"):
    rows, rho, node_w, _ = region_rows(f, region)
    dt = 1.0 / f.t.size
    row = node_w * f.ell * np.cosh(rho)
    return np.einsum("i,...ij->...", row, f.values[..., rows, :] ** 2) * dt


def dirichlet(f, r, sub, dividing=False):
    """Dirichlet quadrature of the node rows ``sub`` of the region ``r``."""
    if dividing:
        return _dividing_dirichlet(f, r, sub)
    _, rho, node_w, cell_w = r
    n_t = f.t.size
    step = np.diff(rho)
    d_rho = np.diff(sub, axis=-2)
    e_rho = np.einsum(
        "i,...ij->...", cell_w / (step * step) / n_t, np.square(d_rho, out=d_rho)
    )
    d_t = np.roll(sub, -1, axis=-1)
    d_t -= sub
    e_t = np.einsum(
        "i,...ij->...", node_w / (f.ell * np.cosh(rho)) * n_t, np.square(d_t, out=d_t)
    )
    return e_rho + e_t


def _dividing_dirichlet(f, r, sub):
    """The Dirichlet sum with every difference divided by its step."""
    _, rho, node_w, cell_w = r
    dt = 1.0 / f.t.size
    d_rho = np.diff(sub, axis=-2)
    d_rho /= np.diff(rho)[:, None]
    e_rho = np.einsum("i,...ij->...", cell_w, np.square(d_rho, out=d_rho)) * dt
    d_t = np.roll(sub, -1, axis=-1)
    d_t -= sub
    d_t /= dt
    e_t = np.einsum(
        "i,...ij->...", node_w / (f.ell * np.cosh(rho)), np.square(d_t, out=d_t)
    ) * dt
    return e_rho + e_t


def dirichlet_energy(f, region="all", dividing=False):
    r = region_rows(f, region)
    return dirichlet(f, r, f.values[..., r[0], :], dividing)


def crossing_energy_check(f, rtol=1e-9, dividing=False):
    """Every field of the crossing check, as a dict."""
    i_lo, i_hi = f.wall_indices()
    c = np.abs(f.values[..., i_hi, :] - f.values[..., i_lo, :]).min(axis=-1)
    energy = dirichlet_energy(f, "core" if f.has_shell else "all", dividing)
    bound = c * c * f.ell / 4.0
    passed = energy >= bound - rtol * np.maximum(1.0, bound)
    return {"crossing_gap": c, "energy": energy, "bound": bound, "passed": passed}


def cutoff_extension_check(f, delta, mass_floor, rtol=1e-9, dividing=False):
    """Every field of the cutoff check as a dict, or the first miss.

    A function that misses a hypothesis gives ``("missed", name, index)``
    for the first such function of the stack (in C order) and the first
    hypothesis it misses, in the order core mass, shell mass, shell
    energy.
    """
    mass_floor = np.asarray(mass_floor, dtype=float)
    shell = region_rows(f, "shell")
    core_mass = l2_norm_sq(f, "core")
    shell_mass = l2_norm_sq(f, "shell")
    shell_energy = dirichlet(f, shell, f.values[..., shell[0], :], dividing)
    floor = np.broadcast_to(mass_floor, np.shape(core_mass))
    missed = (
        ("core-mass", core_mass < floor),
        ("shell-mass", shell_mass > delta * floor),
        ("shell-energy", shell_energy > delta * floor),
    )
    for index in np.ndindex(np.shape(core_mass)):
        for name, miss in missed:
            if miss[index]:
                return ("missed", name, index)
    factor = np.minimum(1.0, f.half_width + 1.0 - np.abs(shell[1]))
    extension = dirichlet(f, shell, f.values[..., shell[0], :] * factor[:, None], dividing)
    extension_bound = 2.0 * shell_mass + 2.0 * shell_energy
    core_energy = dirichlet_energy(f, "core", dividing)
    final_bound = (1.0 - 16.0 * delta) * mass_floor / 4.0
    return {
        "delta": delta,
        "mass_floor": mass_floor,
        "core_mass": core_mass,
        "shell_mass": shell_mass,
        "shell_energy": shell_energy,
        "core_energy": core_energy,
        "final_bound": final_bound,
        "shell_extension_energy": extension,
        "shell_extension_bound": extension_bound,
        "intermediate_ok": extension
        <= extension_bound + rtol * np.maximum(1.0, extension_bound),
        "final_ok": core_energy >= final_bound - rtol * np.maximum(1.0, final_bound),
    }
