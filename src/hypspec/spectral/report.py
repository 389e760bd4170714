"""Assembled spectral bounds and the genus-scaling study.

One report gathers, for a single surface: the shortest separating
system restricted to pants curves (L1), the Cheeger-type lower bound
min(1/4, L1^2 / (4 vol^2)), the network surrogate's spectral gap, a
Rayleigh-quotient upper bound from an explicit cut, and a Ritz upper
bound on the first Dirichlet eigenvalue of each thin collar of positive
width (see :mod:`.collar_ode`); zero-width collars have no interior, so
the collar map skips them and the network contracts them.  Only the
Cheeger value bounds the surface gap; the Rayleigh value is an upper
bound for the network surrogate and a model estimate for the surface
(on the chain family it sits up to 1.1 % below the Rayleigh quotient of
its own test function on the surface).
Consistency flags record whether the Cheeger value lies below the
Rayleigh value and whether the surrogate lands between them; the
surrogate band is reported, never enforced.

The scaling study runs the chain family across a genus list at fixed
core length and emits one CSV row per genus with the normalization
lambda1 * g^2 / L1 that the two-sided gap comparison predicts to stay
within constant factors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..surfaces import (
    ChainFamilyParams,
    PantsSurface,
    build_chain_family,
    chain_central_join_label,
    total_volume,
)
from ..thickthin import DEFAULT_EPSILON, ThickThinDecomposition, decompose
from .collar_ode import collar_dirichlet_lambda1_batch
from .network import NetworkBuildError, build_network, network_lambda1, rayleigh_upper_bound

if TYPE_CHECKING:  # the cut search is loaded only by the commands that cut
    from ..cuts import Multicut

_CSV_COLUMNS = (
    "genus",
    "L1",
    "volume",
    "cheeger_lower",
    "network_lambda1",
    "rayleigh_upper",
    "lambda1_times_g2_over_L1",
)


def cheeger_lower_bound(l1: float, vol: float) -> float:
    """min(1/4, L1^2 / (4 vol^2)): lower bound for the gap via isoperimetry."""
    if not (math.isfinite(l1) and l1 > 0.0):
        raise ValueError(f"L1 must be positive and finite, got {l1}")
    if not (math.isfinite(vol) and vol > 0.0):
        raise ValueError(f"vol must be positive and finite, got {vol}")
    return min(0.25, l1 * l1 / (4.0 * vol * vol))


def collar_lambda1(ttd: ThickThinDecomposition) -> dict[str, float]:
    """Label -> Ritz upper bound on the first Dirichlet eigenvalue, in collar order.

    Only :attr:`ThickThinDecomposition.wide_collars` are solved:
    zero-width collars have no interior and are skipped.  The eigenvalue
    is a function of the half-width alone (see :mod:`.collar_ode`), so
    each distinct width is solved once, all of them in one batched call.
    """
    collars = ttd.wide_collars
    widths = list(dict.fromkeys(tc.half_width for tc in collars))
    values, _ = collar_dirichlet_lambda1_batch(widths)
    by_width = dict(zip(widths, values.tolist()))
    return {tc.label: by_width[tc.half_width] for tc in collars}


@dataclass(frozen=True)
class SpectralReport:
    """All bounds for one surface, plus consistency flags."""

    genus: int
    epsilon: float
    forced_epsilon: bool
    l1_restricted: float
    cut_labels: tuple[str, ...]
    volume: float
    cheeger_lower: float
    network_lambda1: float | None
    network_note: str
    rayleigh_upper: float
    collar_lambda1: dict[str, float]
    consistency_flags: dict

    def to_dict(self) -> dict:
        return {
            "genus": self.genus,
            "epsilon": self.epsilon,
            "forced_epsilon": self.forced_epsilon,
            "L1_restricted": self.l1_restricted,
            "cut": list(self.cut_labels),
            "volume": self.volume,
            "cheeger_lower": self.cheeger_lower,
            "network_lambda1": self.network_lambda1,
            "network_note": self.network_note,
            "rayleigh_upper": self.rayleigh_upper,
            "collar_ode_lambda1": dict(self.collar_lambda1),
            "consistency_flags": dict(self.consistency_flags),
        }


def assemble_report(
    surface: PantsSurface,
    epsilon: float = DEFAULT_EPSILON,
    *,
    force: bool = False,
    rayleigh_cut: Multicut | None = None,
) -> SpectralReport:
    """Run the full bounds pipeline on one surface.

    Uses the minimal 2-component cut for the Rayleigh bound unless an
    explicit ``rayleigh_cut`` is given.  The network surrogate is
    skipped (with the reason recorded) when the decomposition has no
    two-sided thin part.  ``collar_lambda1`` maps each wide collar's
    label to its eigenvalue from :func:`collar_lambda1`; zero-width
    collars are skipped there and contracted by :func:`build_network`.

    Flags: ``cheeger_le_rayleigh`` orders the Cheeger lower bound for
    the surface and the Rayleigh upper bound for the network surrogate
    (a model estimate for the surface, not a bound on it);
    ``collar_modes_above_quarter`` checks every collar eigenvalue
    exceeds 1/4, but the eigenvalues are Ritz upper bounds, so the flag
    proves nothing on its own; the proof is the floor 1/4 + (pi / 2w)^2,
    which :func:`collar_dirichlet_lambda1_batch` enforces on every value
    (a value more than 1e-9 relative below it raises);
    ``network_in_sanity_band`` reports (never enforces) whether the
    surrogate lies in [cheeger/2, rayleigh + tol].
    """
    from ..cuts import min_separating_length

    ttd = decompose(surface, epsilon, force=force)
    cut = min_separating_length(surface, 1)
    l1 = cut.total_length
    volume = total_volume(surface)
    cheeger = cheeger_lower_bound(l1, volume)

    network_value: float | None
    try:
        network_value = network_lambda1(build_network(ttd))
        network_note = ""
    except NetworkBuildError as exc:
        network_value = None
        network_note = str(exc)

    rayleigh = rayleigh_upper_bound(surface, rayleigh_cut if rayleigh_cut is not None else cut)

    collars = collar_lambda1(ttd)

    tol = 1e-9 * max(1.0, rayleigh)
    flags = {
        "cheeger_le_rayleigh": bool(cheeger <= rayleigh + tol),
        "collar_modes_above_quarter": all(v > 0.25 for v in collars.values()),
        "network_in_sanity_band": (
            None
            if network_value is None
            else bool(0.5 * cheeger - tol <= network_value <= rayleigh + tol)
        ),
    }
    return SpectralReport(
        genus=surface.genus,
        epsilon=epsilon,
        forced_epsilon=ttd.forced,
        l1_restricted=l1,
        cut_labels=cut.edge_labels,
        volume=volume,
        cheeger_lower=cheeger,
        network_lambda1=network_value,
        network_note=network_note,
        rayleigh_upper=rayleigh,
        collar_lambda1=collars,
        consistency_flags=flags,
    )


# -------------------------------------------------------------------
# scaling study
# -------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingRow:
    """One chain-family data point of the genus-scaling study."""

    genus: int
    l1: float
    volume: float
    cheeger_lower: float
    network_lambda1: float
    rayleigh_upper: float

    @property
    def normalized_gap(self) -> float:
        """network lambda1 * g^2 / L1 — the quantity predicted to be ~constant."""
        return self.network_lambda1 * self.genus**2 / self.l1


def _scaling_row(genus: int, core_length: float, epsilon: float, force: bool) -> ScalingRow:
    from ..cuts import make_multicut, min_separating_length

    surface = build_chain_family(ChainFamilyParams(genus=genus, core_length=core_length))
    ttd = decompose(surface, epsilon, force=force)
    cut = min_separating_length(surface, 1)
    volume = total_volume(surface)
    lam = network_lambda1(build_network(ttd))
    central = make_multicut(surface, [chain_central_join_label(genus)])
    rayleigh = rayleigh_upper_bound(surface, central)
    return ScalingRow(
        genus=genus,
        l1=cut.total_length,
        volume=volume,
        cheeger_lower=cheeger_lower_bound(cut.total_length, volume),
        network_lambda1=lam,
        rayleigh_upper=rayleigh,
    )


def scaling_study(
    genus_list: list[int],
    core_length: float,
    epsilon: float = DEFAULT_EPSILON,
    *,
    force: bool = False,
) -> list[ScalingRow]:
    """Chain-family rows for each genus, in the given order.

    The Rayleigh bound uses the balanced central cut (tightest of the
    single-join cuts for long chains); every numeric is a pure function
    of (genus, core_length, epsilon), so output is reproducible bit for
    bit.
    """
    if not genus_list:
        raise ValueError("genus_list must be non-empty")
    return [_scaling_row(g, core_length, epsilon, force) for g in genus_list]


def scaling_rows_to_csv(rows: list[ScalingRow]) -> str:
    """CSV text (12 significant digits, '.' decimal, trailing newline)."""
    lines = [",".join(_CSV_COLUMNS)]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.genus),
                    f"{r.l1:.12g}",
                    f"{r.volume:.12g}",
                    f"{r.cheeger_lower:.12g}",
                    f"{r.network_lambda1:.12g}",
                    f"{r.rayleigh_upper:.12g}",
                    f"{r.normalized_gap:.12g}",
                ]
            )
        )
    return "\n".join(lines) + "\n"
