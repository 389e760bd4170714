"""Command-line front end: build surfaces, report geometry and bounds, verify.

All output is deterministic for a fixed command line and seed: JSON is
emitted with sorted keys, CSV with 12 significant digits, and nothing
carries timestamps or machine identifiers.  Exit codes: 0 success,
2 invalid input, 3 inadmissible epsilon without --force-epsilon,
4 verification failure.

Each command imports the spectral modules, :mod:`hypspec.verify` and
:mod:`hypspec.cuts` only when it runs: ``build``, ``geometry``,
``cuts``, ``thickthin`` and ``--version`` load no numpy, ``bounds`` and
``spectrum`` no ``verify`` machinery, and ``spectrum`` and ``verify``
no cut search.  No command loads ``numpy.random``: ``verify`` draws
from its own :class:`hypspec.verify.SplitMix64` stream, and refuses a
negative ``--seed`` with exit 2.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .collars import collar_volume, max_half_width, modified_half_width, shell_volume
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
    for e in surface.edges:
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
    from .cuts import bers_upper_bound, min_separating_length

    surface = _surface_from_args(args)
    cut = min_separating_length(surface, args.i)
    bers = bers_upper_bound(args.i, surface.genus)
    _emit(
        args,
        _json_text(
            {
                "i": args.i,
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
    from .spectral.network import NetworkBuildError, build_network, network_lambda1
    from .spectral.report import collar_lambda1

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
                "collar_ode_lambda1": collar_lambda1(ttd),
            }
        ),
    )
    return EXIT_OK


def cmd_bounds(args) -> int:
    from .cuts import make_multicut
    from .spectral.report import assemble_report

    surface = _surface_from_args(args)
    cut = None
    if args.cut == "":
        raise ValueError("--cut must name at least one label")
    if args.cut is not None:
        try:
            cut = make_multicut(surface, args.cut.split(","))
        except KeyError as exc:  # an unknown label is an input error, not a crash
            raise ValueError(exc.args[0]) from None
    report = assemble_report(
        surface,
        args.epsilon,
        force=args.force_epsilon,
        rayleigh_cut=cut,
    )
    _emit(args, _json_text(report.to_dict()))
    return EXIT_OK


def cmd_scaling(args) -> int:
    from .spectral.report import scaling_rows_to_csv, scaling_study

    genus_list = [int(tok) for tok in args.genus_list.split(",") if tok]
    if not genus_list:
        raise ValueError("--genus-list must name at least one genus")
    rows = scaling_study(
        genus_list, args.length, args.epsilon, force=args.force_epsilon
    )
    _emit(args, scaling_rows_to_csv(rows))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_checks(args.seed)
    lines = [f"{name}: {passed}/{total}" for name, passed, total in results]
    ok = sum(passed == total for _, passed, total in results)
    lines.append(f"verify: {ok}/{len(results)} checks passed (seed={args.seed})")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok == len(results) else EXIT_VERIFY_FAILED


# -------------------------------------------------------------------
# parser
# -------------------------------------------------------------------

# built once per process: in-process callers run main() many times
@functools.cache
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
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_cuts)

    p = sub.add_parser("spectrum", help="network surrogate and collar modes (JSON)")
    _add_surface_args(p)
    _add_epsilon_args(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bounds", help="full spectral report (JSON)")
    _add_surface_args(p)
    _add_epsilon_args(p)
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
