"""Command-line front end: build surfaces, report geometry and bounds, verify.

All output is deterministic for a fixed command line and seed: JSON is
emitted with sorted keys, CSV with 12 significant digits, and nothing
carries timestamps or machine identifiers.  Exit codes: 0 success,
2 invalid input, 3 inadmissible epsilon without --force-epsilon,
4 verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from array import array
from pathlib import Path

import numpy as np

from . import __version__
from .collars import (
    collar_volume,
    max_half_width,
    modified_half_width,
    shell_detour_lengths,
    shell_volume,
)
from .cuts import bers_upper_bound, make_multicut, min_separating_length
from .intervals import find_cut_index, random_interval_system, verify_cut_inequality
from .spectral import (
    NetworkBuildError,
    NetworkEdge,
    NetworkModel,
    assemble_report,
    build_network,
    collar_conductance,
    collar_dirichlet_lambda1,
    crossing_energy_check,
    cutoff_extension_check,
    network_lambda1,
    scaling_rows_to_csv,
    scaling_study,
)
from .spectral.corpus import crossing_corpus, cutoff_corpus
from .spectral.report import collar_modes
from .surfaces import (
    ChainFamilyParams,
    InvalidSurfaceError,
    PantsSurface,
    build_chain_family,
    dump_surface,
    load_surface,
)
from .thickthin import DEFAULT_EPSILON, InadmissibleEpsilonError, decompose

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_INADMISSIBLE_EPSILON = 3
EXIT_VERIFY_FAILED = 4


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _surface_from_args(args) -> PantsSurface:
    if args.input is not None:
        return load_surface(Path(args.input).read_text())
    if args.family == "chain":
        if args.genus is None or args.length is None:
            raise ValueError("--family chain requires --genus and --length")
        return build_chain_family(
            ChainFamilyParams(
                genus=args.genus, core_length=args.length, twist=args.twist
            )
        )
    raise ValueError("provide --input FILE or --family chain --genus G --length L")


def _add_surface_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", default=None, help="surface JSON file")
    p.add_argument("--family", choices=["chain"], default=None, help="generated family")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--length", type=float, default=None, help="common curve length")
    p.add_argument("--twist", type=float, default=0.0)


def _add_epsilon_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument(
        "--force-epsilon",
        action="store_true",
        help="build the decomposition even if epsilon fails admissibility",
    )


# -------------------------------------------------------------------
# subcommands
# -------------------------------------------------------------------

def cmd_build(args) -> int:
    _emit(args, dump_surface(_surface_from_args(args)))
    return EXIT_OK


def cmd_geometry(args) -> int:
    surface = _surface_from_args(args)
    lines = ["label,length,max_half_width,modified_half_width,collar_volume,shell_volume"]
    for e in sorted(surface.edges, key=lambda e: e.label):
        w_max = max_half_width(e.length)
        w_mod = modified_half_width(e.length)
        lines.append(
            ",".join(
                [
                    e.label,
                    f"{e.length:.12g}",
                    f"{w_max:.12g}",
                    f"{w_mod:.12g}",
                    f"{collar_volume(e.length, w_mod):.12g}",
                    f"{shell_volume(e.length, w_mod):.12g}",
                ]
            )
        )
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_thickthin(args) -> int:
    surface = _surface_from_args(args)
    ttd = decompose(surface, args.epsilon, force=args.force_epsilon)
    _emit(args, _json_text(ttd.to_dict()))
    return EXIT_OK


def cmd_cuts(args) -> int:
    surface = _surface_from_args(args)
    cut = min_separating_length(surface, args.i, method=args.method)
    bers = bers_upper_bound(args.i, surface.genus)
    _emit(
        args,
        _json_text(
            {
                "i": args.i,
                "method": args.method,
                "edge_labels": list(cut.edge_labels),
                "total_length": cut.total_length,
                "component_count": cut.component_count,
                "bers_upper_bound": bers,
                "bers_ok": cut.total_length <= bers,
            }
        ),
    )
    return EXIT_OK


def cmd_spectrum(args) -> int:
    surface = _surface_from_args(args)
    ttd = decompose(surface, args.epsilon, force=args.force_epsilon)
    model_dict = None
    lam = None
    note = ""
    try:
        model = build_network(ttd)
        model_dict = model.to_dict()
        lam = network_lambda1(model)
    except NetworkBuildError as exc:
        note = str(exc)
    _emit(
        args,
        _json_text(
            {
                "genus": surface.genus,
                "epsilon": args.epsilon,
                "forced_epsilon": ttd.forced,
                "network": model_dict,
                "network_lambda1": lam,
                "network_note": note,
                "collar_ode_lambda1": {
                    m.label: m.lambda1 for m in collar_modes(ttd, args.n_rho)
                },
            }
        ),
    )
    return EXIT_OK


def cmd_bounds(args) -> int:
    surface = _surface_from_args(args)
    cut = None
    if args.cut:
        cut = make_multicut(surface, args.cut.split(","))
    report = assemble_report(
        surface,
        args.epsilon,
        force=args.force_epsilon,
        n_rho=args.n_rho,
        rayleigh_cut=cut,
    )
    _emit(args, _json_text(report.to_dict()))
    return EXIT_OK


def cmd_scaling(args) -> int:
    genus_list = [int(tok) for tok in args.genus_list.split(",") if tok]
    if not genus_list:
        raise ValueError("--genus-list must name at least one genus")
    rows = scaling_study(
        genus_list, args.length, args.epsilon, force=args.force_epsilon
    )
    _emit(args, scaling_rows_to_csv(rows))
    return EXIT_OK


# -------------------------------------------------------------------
# verify suite
# -------------------------------------------------------------------

def _check_collar_identity() -> tuple[int, int]:
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


def _check_epsilon_constants() -> tuple[int, int]:
    from .thickthin import epsilon_admissible

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
        if abs(value - limit) <= 1e-3:
            passed += 1
    return passed, total


def sample_shell_detours(
    rng: np.random.Generator, count: int
) -> list[tuple[float, float]]:
    """(direct, detour) pairs for random same-side shell points at direct <= 0.05.

    Attempts are drawn in rounds of at most the number of pairs still
    missing, each round tested at once with :func:`shell_detour_lengths`.
    A round therefore never draws past the attempt at which one-by-one
    sampling would stop, so the pairs and the generator's final state are
    those of drawing and testing one attempt at a time.
    """
    shells = tuple((ell, modified_half_width(ell)) for ell in (0.02, 0.05, 0.09))
    max_attempts = 100 * count
    out: list[tuple[float, float]] = []
    attempts = 0
    while len(out) < count and attempts < max_attempts:
        n = min(count - len(out), max_attempts - attempts)
        draws = array("d")
        for _ in range(n):
            attempts += 1
            ell, w = shells[attempts % len(shells)]
            rho1 = w + rng.uniform(0.0, 1.0)
            t1 = rng.uniform(0.0, 1.0)
            rho2 = min(w + 1.0, max(w, rho1 + rng.normal(0.0, 0.02)))
            t2 = (t1 + rng.normal(0.0, 0.02 / (ell * math.cosh(rho1)))) % 1.0
            draws.extend((rho1, rho2, t1, t2, ell))
        direct, detour = shell_detour_lengths(*np.frombuffer(draws).reshape(n, 5).T)
        keep = (direct > 0.0) & (direct <= 0.05)
        out.extend(zip(direct[keep].tolist(), detour[keep].tolist()))
    if len(out) < count:
        raise RuntimeError("shell detour sampler failed to reach the requested count")
    return out


def _check_shell_detour(rng: np.random.Generator) -> tuple[int, int]:
    pairs = sample_shell_detours(rng, 10_000)
    passed = sum(1 for direct, detour in pairs if detour <= 5.0 * direct)
    return passed, len(pairs)


def _check_interval_cut(rng: np.random.Generator) -> tuple[int, int]:
    passed = total = 0
    for _ in range(500):
        total += 1
        system = random_interval_system(rng)
        k = find_cut_index(system)
        exists = any(
            verify_cut_inequality(system, kk) for kk in range(1, system.n)
        )
        if verify_cut_inequality(system, k) and exists:
            passed += 1
    return passed, total


def _check_crossing_energy(rng: np.random.Generator) -> tuple[int, int]:
    corpus = crossing_corpus(rng, 200)
    passed = sum(1 for f in corpus if crossing_energy_check(f).passed)
    return passed, len(corpus)


def _check_cutoff_extension(rng: np.random.Generator) -> tuple[int, int]:
    corpus = cutoff_corpus(rng, 100)
    passed = 0
    for f, c in corpus:
        if cutoff_extension_check(f, 1.0 / 64.0, c).passed:
            passed += 1
    return passed, len(corpus)


def _check_collar_ode(n_rho: int = 1024) -> tuple[int, int]:
    passed = total = 0
    for ell in (0.05, 0.1, 0.5):
        for w in (1.0, 2.0, max_half_width(ell)):
            total += 1
            if collar_dirichlet_lambda1(ell, w, n=n_rho) > 0.25:
                passed += 1
    return passed, total


def _check_network_oracles() -> tuple[int, int]:
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


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks = [
        ("collar-identity", _check_collar_identity()),
        ("epsilon-admissible", _check_epsilon_constants()),
        ("shell-detour", _check_shell_detour(rng)),
        ("interval-cut", _check_interval_cut(rng)),
        ("crossing-energy", _check_crossing_energy(rng)),
        ("cutoff-extension", _check_cutoff_extension(rng)),
        ("collar-ode-quarter", _check_collar_ode()),
        ("network-oracles", _check_network_oracles()),
    ]
    lines = []
    ok = 0
    for name, (passed, total) in checks:
        lines.append(f"{name}: {passed}/{total}")
        ok += passed == total
    lines.append(f"verify: {ok}/{len(checks)} checks passed (seed={args.seed})")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok == len(checks) else EXIT_VERIFY_FAILED


# -------------------------------------------------------------------
# parser
# -------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypspec",
        description="spectral-gap bounds for genus-g hyperbolic surfaces from pants data",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build", help="emit a surface description as JSON")
    _add_surface_args(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("geometry", help="per-edge collar table (CSV)")
    _add_surface_args(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("thickthin", help="thick-thin decomposition (JSON)")
    _add_surface_args(p)
    _add_epsilon_args(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_thickthin)

    p = sub.add_parser("cuts", help="minimal separating curve system (JSON)")
    _add_surface_args(p)
    p.add_argument("--i", type=int, required=True, help="target component surplus")
    p.add_argument(
        "--method",
        choices=["auto", "exhaustive", "bnb"],
        default="auto",
        help="auto: exact minimum cut for i=1, exhaustive (<= 20 curves) or "
        "branch-and-bound for i>=2",
    )
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_cuts)

    p = sub.add_parser("spectrum", help="network surrogate and collar modes (JSON)")
    _add_surface_args(p)
    _add_epsilon_args(p)
    p.add_argument("--n-rho", type=int, default=1024)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bounds", help="full spectral report (JSON)")
    _add_surface_args(p)
    _add_epsilon_args(p)
    p.add_argument("--n-rho", type=int, default=1024)
    p.add_argument("--cut", default=None, help="comma-separated labels for the Rayleigh cut")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("scaling", help="chain-family scaling study (CSV)")
    p.add_argument("--genus-list", required=True, help="comma-separated genera")
    p.add_argument("--length", type=float, required=True)
    _add_epsilon_args(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("verify", help="run the property/oracle suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InadmissibleEpsilonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE_EPSILON
    except (InvalidSurfaceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
