"""The property/oracle checks behind ``hypspec verify``.

Each check tests one ingredient of the lower bound lambda_1 >~ L_1/g^2
(the collar identities, the epsilon constants, the shell detour, the
interval cut inequality, the crossing and cutoff energy bounds, the 1/4
collar floor) or the network surrogate against closed forms, and
returns ``(passed, total)``.  Every check takes the run's random
generator and nothing else; the ones that draw no samples ignore it.
:data:`CHECKS` lists them in the order they run: the generator is
shared, so that order fixes which draws each check sees.  The
acceptance tests call the same functions.
"""
from __future__ import annotations

import math

import numpy as np

from .collars import (
    collar_volume,
    max_half_width,
    modified_half_width,
    shell_detour_lengths,
    shell_volume,
)
from .intervals import cut_inequality_verdicts, find_cut_indices, random_interval_systems
from .spectral import (
    NetworkEdge,
    NetworkModel,
    build_network,
    collar_conductance,
    collar_dirichlet_lambda1_batch,
    crossing_energy_check,
    cutoff_extension_check,
    network_lambda1,
)
from .spectral.corpus import crossing_corpus, cutoff_corpus
from .surfaces import ChainFamilyParams, build_chain_family
from .thickthin import decompose, epsilon_admissible


def check_collar_identity(rng: np.random.Generator) -> tuple[int, int]:
    """2 l sinh w(l) = 2 l / sinh(l/2) at five lengths, and e^w l / 4 -> 1."""
    passed = total = 0
    for ell in (1e-4, 1e-2, 0.1, 0.5, 1.0):
        total += 1
        w = max_half_width(ell)
        lhs = 2.0 * ell * math.sinh(w)
        rhs = 2.0 * ell / math.sinh(0.5 * ell)
        if abs(lhs - rhs) <= 1e-12 * abs(rhs):
            passed += 1
    total += 1
    if abs(math.exp(max_half_width(1e-4)) * 1e-4 / 4.0 - 1.0) < 1e-3:
        passed += 1
    return passed, total


def check_epsilon_constants(rng: np.random.Generator) -> tuple[int, int]:
    """eps = 0.05 is admissible; tube and shell areas reach their l -> 0 limits."""
    passed = total = 0
    total += 1
    if epsilon_admissible(0.05).passed:
        passed += 1
    ell = 1e-6
    w_mod = modified_half_width(ell)
    limit_t = 4.0 / math.e**2
    limit_s = 4.0 * (math.e - 1.0) / math.e**2
    for value, limit in (
        (collar_volume(ell, w_mod), limit_t),
        (shell_volume(ell, w_mod), limit_s),
    ):
        total += 1
        if abs(value - limit) < 1e-3:
            passed += 1
    return passed, total


def sample_shell_detours(
    rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Direct and detour lengths of random same-side shell pairs at direct <= 0.05.

    Returns two float64 arrays of length ``count``: entry i of each is
    the i-th accepted attempt, in attempt order.

    Attempts are drawn in rounds of at most the number of pairs still
    missing (and never past the budget of ``100 * count`` attempts).  A
    round of n attempts makes four generator calls, each for a whole
    array: ``random(n)`` twice, for rho1 and t1, then
    ``standard_normal(n)`` twice, scaled for the rho and t offsets.  So
    each attempt has the law U(0,1), U(0,1), N(0,1), N(0,1), as if drawn
    on its own; only which values land in which attempt depends on the
    round sizes.  Attempt k (counted from 1) uses shell ``k % 3``, and
    the round is turned into points and tested at once with
    :func:`shell_detour_lengths`.
    """
    ells = np.array([0.02, 0.05, 0.09])
    widths = np.array([modified_half_width(ell) for ell in ells.tolist()])
    max_attempts = 100 * count
    directs, detours = np.empty(count), np.empty(count)
    accepted = attempts = 0
    while accepted < count and attempts < max_attempts:
        n = min(count - accepted, max_attempts - attempts)
        u, t1 = rng.random(n), rng.random(n)
        z_rho, z_t = rng.standard_normal(n), rng.standard_normal(n)
        shell = (attempts + 1 + np.arange(n)) % len(ells)
        attempts += n
        ell, w = ells[shell], widths[shell]
        rho1 = w + u
        rho2 = np.minimum(w + 1.0, np.maximum(w, rho1 + 0.02 * z_rho))
        t2 = (t1 + 0.02 / (ell * np.cosh(rho1)) * z_t) % 1.0
        direct, detour = shell_detour_lengths(rho1, rho2, t1, t2, ell)
        keep = (direct > 0.0) & (direct <= 0.05)
        end = accepted + int(np.count_nonzero(keep))
        directs[accepted:end], detours[accepted:end] = direct[keep], detour[keep]
        accepted = end
    if accepted < count:
        raise RuntimeError("shell detour sampler failed to reach the requested count")
    return directs, detours


def check_shell_detour(rng: np.random.Generator) -> tuple[int, int]:
    """detour <= 5 direct on 10 000 random shell pairs."""
    direct, detour = sample_shell_detours(rng, 10_000)
    return int(np.count_nonzero(detour <= 5.0 * direct)), direct.size


def check_interval_cut(rng: np.random.Generator) -> tuple[int, int]:
    """On 500 random systems the constructive cut index satisfies the inequality.

    A system passes when both the constructive index and an exhaustive
    scan over every index find the inequality satisfied.  The systems
    are drawn, then reduced, as one stack: one generator call gives
    every size, then one call per size drawn gives the systems of that
    size (see :func:`random_interval_systems`).
    """
    stack = random_interval_systems(rng, 500)
    holds = cut_inequality_verdicts(stack)
    constructive = holds[np.arange(stack.count), find_cut_indices(stack) - 1]
    return int(np.count_nonzero(constructive & holds.any(axis=1))), stack.count


def check_crossing_energy(rng: np.random.Generator) -> tuple[int, int]:
    """The crossing energy bound on 200 random collar functions."""
    passed = total = 0
    for stack in crossing_corpus(rng, 200):
        ok = crossing_energy_check(stack).passed
        passed += int(np.count_nonzero(ok))
        total += ok.size
    return passed, total


def check_cutoff_extension(rng: np.random.Generator) -> tuple[int, int]:
    """The cutoff extension bounds, intermediate and final, at delta = 1/64.

    Tested on 100 random collar functions.  :func:`cutoff_extension_check`
    measures each function's core mass, shell mass and shell energy
    again, although :func:`cutoff_corpus` has just measured them to
    accept it (about 0.45 ms a run on a 2-core x86_64 box).  That is
    kept on purpose: the check verifies its own hypotheses, so a corpus
    that hands it a function outside them raises instead of passing
    silently.
    """
    passed = total = 0
    for stack, floors in cutoff_corpus(rng, 100):
        ok = cutoff_extension_check(stack, 1.0 / 64.0, floors).passed
        passed += int(np.count_nonzero(ok))
        total += ok.size
    return passed, total


def check_collar_ode(rng: np.random.Generator) -> tuple[int, int]:
    """Collar Dirichlet eigenvalue > 1/4 on the 3 x 3 (length, width) grid.

    The nine widths are solved in one batch; a width's value does not
    depend on the other widths in it.  The values compared with 1/4 are
    Ritz upper bounds, so this comparison proves nothing about the
    eigenvalue: an upper bound above 1/4 allows an eigenvalue below it.
    The proof is the floor 1/4 + (pi / 2w)^2 of the symmetric form,
    which :func:`collar_dirichlet_lambda1_batch` enforces on every value
    it returns (a value more than 1e-9 relative below it raises
    ``ArithmeticError``).
    """
    widths = [w for ell in (0.05, 0.1, 0.5) for w in (1.0, 2.0, max_half_width(ell))]
    values, _ = collar_dirichlet_lambda1_batch(widths)
    return int(np.count_nonzero(values > 0.25)), values.size


def check_network_oracles(rng: np.random.Generator) -> tuple[int, int]:
    """Closed-form network gaps, the genus-10 chain network, one conductance."""
    passed = total = 0

    total += 1
    two = NetworkModel(
        genus=2,
        node_pants=(("p000",), ("p001",)),
        masses=(3.0, 5.0),
        edges=(NetworkEdge(label="e", a=0, b=1, conductance=0.7),),
    )
    if abs(network_lambda1(two) - 0.7 * (1 / 3.0 + 1 / 5.0)) <= 1e-12:
        passed += 1

    total += 1
    n, mass, cond = 6, 2.0, 0.3
    path = NetworkModel(
        genus=2,
        node_pants=tuple((f"p{i:03d}",) for i in range(n)),
        masses=(mass,) * n,
        edges=tuple(
            NetworkEdge(label=f"e{i}", a=i, b=i + 1, conductance=cond)
            for i in range(n - 1)
        ),
    )
    expected = (cond / mass) * 2.0 * (1.0 - math.cos(math.pi / n))
    if abs(network_lambda1(path) - expected) <= 1e-12:
        passed += 1

    total += 1
    surface = build_chain_family(ChainFamilyParams(genus=10, core_length=0.09))
    model = build_network(decompose(surface, 0.05))
    if (
        model.n_nodes == 18
        and len(model.edges) == 27
        and abs(model.total_mass() - 36.0 * math.pi) <= 1e-10
    ):
        passed += 1

    total += 1
    if abs(collar_conductance(0.09, 50.0) - 0.09 / math.pi) <= 1e-15:
        passed += 1
    return passed, total


CHECKS = (
    ("collar-identity", check_collar_identity),
    ("epsilon-admissible", check_epsilon_constants),
    ("shell-detour", check_shell_detour),
    ("interval-cut", check_interval_cut),
    ("crossing-energy", check_crossing_energy),
    ("cutoff-extension", check_cutoff_extension),
    ("collar-ode-quarter", check_collar_ode),
    ("network-oracles", check_network_oracles),
)


def run_checks(seed: int) -> list[tuple[str, int, int]]:
    """(name, passed, total) of every check in :data:`CHECKS`, on one generator."""
    rng = np.random.default_rng(seed)
    return [(name, *check(rng)) for name, check in CHECKS]
