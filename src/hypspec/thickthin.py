"""Modified thick-thin decomposition of a pants surface.

Curves shorter than 2*epsilon are "thin" and get collars of modified
half-width max(0, w(l) - 2); the rest of the surface is "thick" and is
tracked combinatorially as the connected components of the dual graph
with thin edges removed.  Each thin collar owns a unit-width shell
that lives inside the thick part.

An epsilon qualifies when (a) even the shortest admissible collar
still has a deep shell margin, (b) collar and shell areas stay in
[1/2, 4] over the whole thin range, which is proved from the two ends
of that range, and (c) epsilon < 1/(2 e^2) (which also forces
sinh(eps) <= 2*eps).  epsilon = 0.05 passes all three.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .collars import collar_volume, max_half_width, modified_half_width, shell_volume
from .surfaces import PantsSurface

EPSILON_SMALLNESS_BOUND = 1.0 / (2.0 * math.e**2)
DEFAULT_EPSILON = 0.05
# the l -> 0 limits of the modified collar and shell areas
_COLLAR_AREA_LIMIT = 4.0 / math.e**2
_SHELL_AREA_LIMIT = 4.0 * (math.e - 1.0) / math.e**2


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
            out.append(f"smallness (eps >= 1/(2e^2) = {EPSILON_SMALLNESS_BOUND:.9f})")
        return out


def epsilon_admissible(epsilon: float) -> EpsilonChecklist:
    """Check the three collar-scale conditions for ``epsilon``.

    The volume condition asks that the modified collar area
    T(l) = 2 l sinh(w - 2) and its shell area
    S(l) = 2 l (sinh(w - 1) - sinh(w - 2)) lie in [1/2, 4] for every
    thin length l in (0, 2 eps], where w = w(l) is the maximal
    half-width and the modified width w - 2 is clamped at 0.  T never
    increases and S never decreases in l, so two end values decide it:

    * Write x = l/2.  Then sinh w = 1/sinh x and cosh w = coth x.  Let
      phi(x) = x / sinh x, strictly decreasing since tanh x < x, and
      psi(x) = x coth x, strictly increasing since sinh 2x > 2x.
    * While w >= 2, expanding sinh(w - k) gives
      T = 4 (cosh 2 phi - sinh 2 psi), which decreases, and
      S = 4 ((sinh 2 - sinh 1) psi - (cosh 2 - cosh 1) phi), which
      increases.
    * w decreases in l.  Once w < 2 the modified width is 0, so T = 0
      and S = 2 l sinh 1; both pieces agree at w = 2.
    * As l -> 0, phi and psi tend to 1, so T -> 4/e^2 ~ 0.541 and
      S -> 4(e - 1)/e^2 ~ 0.930; neither limit is attained.

    Over (0, 2 eps] T therefore runs over [T(2 eps), 4/e^2) and S over
    (4(e - 1)/e^2, S(2 eps)]; these are the checklist's ranges.  Both
    limits lie inside [1/2, 4], so the condition holds exactly when
    T(2 eps) >= 1/2 and S(2 eps) <= 4.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    width_value = max_half_width(epsilon) - 2.0
    width_ok = (width_value >= 1.0) and (1.0 > epsilon)
    two_eps = 2.0 * epsilon
    if math.isfinite(two_eps):
        w = modified_half_width(two_eps)
        t_range = (collar_volume(two_eps, w), _COLLAR_AREA_LIMIT)
        s_range = (_SHELL_AREA_LIMIT, shell_volume(two_eps, w))
    else:  # 2 eps overflows: the l -> inf ends, w = 0 so T = 0 and S = 2 l sinh 1
        t_range, s_range = (0.0, _COLLAR_AREA_LIMIT), (_SHELL_AREA_LIMIT, math.inf)
    return EpsilonChecklist(
        epsilon=epsilon,
        width_ok=width_ok,
        width_margin=width_value - 1.0,
        volume_ok=all(0.5 <= v <= 4.0 for v in (*t_range, *s_range)),
        volume_t_range=t_range,
        volume_s_range=s_range,
        smallness_ok=epsilon < EPSILON_SMALLNESS_BOUND,
    )


@dataclass(frozen=True)
class ThinCollar:
    """A thin curve with its modified collar; the unit shell lies outside ``half_width``."""

    label: str
    endpoints: tuple[str, str]
    core_length: float
    half_width: float


@dataclass(frozen=True)
class ThickThinDecomposition:
    """Thin collars plus the dual-graph components of the thick part."""

    epsilon: float
    surface: PantsSurface
    thin_collars: tuple[ThinCollar, ...]
    thick_components: tuple[frozenset[str], ...]
    forced: bool = False

    @property
    def wide_collars(self) -> tuple[ThinCollar, ...]:
        """Thin collars of positive modified width, in collar order.

        A zero-width collar has no interior: the collar eigenvalue map
        skips it and the network surrogate contracts it.
        """
        return tuple(tc for tc in self.thin_collars if tc.half_width != 0.0)

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "forced": self.forced,
            "thin_collars": [
                {
                    "label": tc.label,
                    "endpoints": list(tc.endpoints),
                    "core_length": tc.core_length,
                    "half_width": tc.half_width,
                    "collar_volume": collar_volume(tc.core_length, tc.half_width),
                    "shell_volume": shell_volume(tc.core_length, tc.half_width),
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
    gets a modified collar (with shell) of half-width max(0, w(l) - 2),
    computed once per distinct length.  Thick components
    are the connected components of the dual graph after removing thin
    edges.  An inadmissible epsilon raises unless ``force=True``, in
    which case the decomposition is built anyway and flagged.
    """
    checklist = epsilon_admissible(epsilon)
    if not checklist.passed and not force:
        raise InadmissibleEpsilonError(checklist)
    two_eps = 2.0 * epsilon
    widths: dict[float, float] = {}
    thin = []
    thick = []
    for k, e in enumerate(surface.edges):
        if e.length < two_eps:
            w = widths.get(e.length)
            if w is None:
                w = widths[e.length] = modified_half_width(e.length)
            thin.append(
                ThinCollar(label=e.label, endpoints=(e.a, e.b), core_length=e.length, half_width=w)
            )
        else:
            thick.append(k)
    return ThickThinDecomposition(
        epsilon=epsilon,
        surface=surface,
        thin_collars=tuple(thin),
        thick_components=tuple(surface._graph.parts(thick)),
        forced=not checklist.passed,
    )
