"""Modified thick-thin decomposition of a pants surface.

Curves shorter than 2*epsilon are "thin" and get collars of modified
half-width max(0, w(l) - 2); the rest of the surface is "thick" and is
tracked combinatorially as the connected components of the dual graph
with thin edges removed.  Each thin collar owns a unit-width shell
that lives inside the thick part.

An epsilon qualifies when (a) even the shortest admissible collar
still has a deep shell margin, (b) collar and shell areas stay in
[1/2, 4] over the whole thin range, and (c) epsilon < 1/(2 e^2) (which
also forces sinh(eps) <= 2*eps).  epsilon = 0.05 passes all three.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .collars import Collar, collar_volume, max_half_width, modified_half_width, shell_volume
from .surfaces import PantsSurface

EPSILON_SMALLNESS_BOUND = 1.0 / (2.0 * math.e**2)
DEFAULT_EPSILON = 0.05
_VOLUME_GRID_POINTS = 512


class InadmissibleEpsilonError(ValueError):
    """Raised when a decomposition is requested with a failing epsilon."""

    def __init__(self, checklist: "EpsilonChecklist"):
        self.checklist = checklist
        super().__init__(
            f"epsilon={checklist.epsilon} fails: {', '.join(checklist.failed_conditions())}"
        )


@dataclass(frozen=True)
class EpsilonChecklist:
    """Outcome of the three admissibility conditions for one epsilon."""

    epsilon: float
    width_ok: bool
    width_margin: float
    volume_ok: bool
    volume_t_range: tuple[float, float]
    volume_s_range: tuple[float, float]
    smallness_ok: bool
    smallness_bound: float = EPSILON_SMALLNESS_BOUND

    @property
    def passed(self) -> bool:
        return self.width_ok and self.volume_ok and self.smallness_ok

    def failed_conditions(self) -> list[str]:
        out = []
        if not self.width_ok:
            out.append("width (arcsinh(1/sinh eps) - 2 >= 1 > eps)")
        if not self.volume_ok:
            out.append("volume (collar/shell areas outside [1/2, 4])")
        if not self.smallness_ok:
            out.append(f"smallness (eps >= 1/(2e^2) = {self.smallness_bound:.9f})")
        return out


@functools.lru_cache(maxsize=64, typed=True)
def epsilon_admissible(epsilon: float) -> EpsilonChecklist:
    """Check the three collar-scale conditions for ``epsilon``.

    The volume condition is verified on a fixed geometric grid of
    lengths over (0, 2*epsilon] (512 points down to 1e-6 * 2eps); the
    observed ranges are reported in the checklist.  Both area curves
    are monotone and flatten toward the analytic l -> 0 limits
    4/e^2 and 4(e-1)/e^2, so the grid resolution is not delicate.
    The checklist is frozen, so it is computed once per ``epsilon`` and
    repeat calls return the same object.
    """
    # imported here so that importing this module does not load numpy
    import numpy as np

    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    width_value = max_half_width(epsilon) - 2.0
    width_ok = (width_value >= 1.0) and (1.0 > epsilon)
    lengths = np.geomspace(2.0 * epsilon * 1e-6, 2.0 * epsilon, _VOLUME_GRID_POINTS)
    vol_t = np.array([collar_volume(l, modified_half_width(l)) for l in lengths])
    vol_s = np.array([shell_volume(l, modified_half_width(l)) for l in lengths])
    volume_ok = bool(
        (vol_t.min() >= 0.5)
        and (vol_t.max() <= 4.0)
        and (vol_s.min() >= 0.5)
        and (vol_s.max() <= 4.0)
    )
    smallness_ok = epsilon < EPSILON_SMALLNESS_BOUND
    return EpsilonChecklist(
        epsilon=epsilon,
        width_ok=width_ok,
        width_margin=width_value - 1.0,
        volume_ok=volume_ok,
        volume_t_range=(float(vol_t.min()), float(vol_t.max())),
        volume_s_range=(float(vol_s.min()), float(vol_s.max())),
        smallness_ok=smallness_ok,
    )


@dataclass(frozen=True)
class ThinCollar:
    """A thin curve with its modified collar (shell included)."""

    label: str
    endpoints: tuple[str, str]
    collar: Collar


@dataclass(frozen=True)
class ThickThinDecomposition:
    """Thin collars plus the dual-graph components of the thick part."""

    epsilon: float
    surface: PantsSurface
    thin_collars: tuple[ThinCollar, ...]
    thick_components: tuple[frozenset[str], ...]
    forced: bool = False

    @property
    def thin_labels(self) -> tuple[str, ...]:
        return tuple(tc.label for tc in self.thin_collars)

    def component_index(self) -> dict[str, int]:
        """Map each pants id to the index of its thick component."""
        out: dict[str, int] = {}
        for i, comp in enumerate(self.thick_components):
            for v in comp:
                out[v] = i
        return out

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "forced": self.forced,
            "thin_collars": [
                {
                    "label": tc.label,
                    "endpoints": list(tc.endpoints),
                    "core_length": tc.collar.core_length,
                    "half_width": tc.collar.half_width,
                    "collar_volume": tc.collar.volume(),
                    "shell_volume": tc.collar.shell_volume(),
                }
                for tc in self.thin_collars
            ],
            "thick_components": [sorted(c) for c in self.thick_components],
        }


def decompose(
    surface: PantsSurface, epsilon: float = DEFAULT_EPSILON, *, force: bool = False
) -> ThickThinDecomposition:
    """Split ``surface`` at scale ``epsilon``.

    Thin curves are those with length strictly below 2*epsilon; each
    gets a modified collar (with shell), one frozen :class:`Collar`
    shared by every thin curve of the same length.  Thick components
    are the connected components of the dual graph after removing thin
    edges.  An inadmissible epsilon raises unless ``force=True``, in
    which case the decomposition is built anyway and flagged.
    """
    checklist = epsilon_admissible(epsilon)
    if not checklist.passed and not force:
        raise InadmissibleEpsilonError(checklist)
    two_eps = 2.0 * epsilon
    collars: dict[float, Collar] = {}
    thin = []
    thick = []
    for k, e in enumerate(surface.edges):
        if e.length < two_eps:
            collar = collars.get(e.length)
            if collar is None:
                collar = collars[e.length] = Collar(
                    core_length=e.length,
                    half_width=modified_half_width(e.length),
                    has_shell=True,
                )
            thin.append(ThinCollar(label=e.label, endpoints=(e.a, e.b), collar=collar))
        else:
            thick.append(k)
    return ThickThinDecomposition(
        epsilon=epsilon,
        surface=surface,
        thin_collars=tuple(thin),
        thick_components=tuple(surface._graph.parts(thick)),
        forced=not checklist.passed,
    )
