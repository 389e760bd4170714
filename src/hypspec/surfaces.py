"""Closed hyperbolic surfaces described by a pants decomposition.

A genus-g surface cut along 3g-3 disjoint simple closed geodesics falls
apart into 2g-2 pairs of pants.  We keep only the combinatorial dual
multigraph (one vertex per pants, one edge per curve, self-loops and
parallel edges allowed) together with the Fenchel-Nielsen length and
twist of every curve.  Everything downstream -- thick-thin splitting,
separating multicurves, spectral surrogates -- consumes this data.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

TWO_ARCSINH_ONE = 2.0 * math.asinh(1.0)


class InvalidSurfaceError(ValueError):
    """Raised when a surface description violates a structural invariant."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Edge:
    """One pants curve: its two incident pants, length, and twist."""

    a: str
    b: str
    length: float
    twist: float
    label: str


@dataclass(frozen=True)
class PantsSurface:
    """Immutable dual multigraph of a pants decomposition.

    ``vertices`` are pants ids, ``edges`` are pants curves in strictly
    increasing label order (else ValueError), so edge k has label rank k.
    A valid surface of genus g has 2(g-1) trivalent vertices (self-loops
    count twice), 3(g-1) edges, positive finite lengths, and a connected
    dual graph.  :func:`build_from_description` and the family builders
    sort the edges by label and validate the surface.
    """

    genus: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        labels = [e.label for e in self.edges]
        if any(a >= b for a, b in zip(labels, labels[1:])):
            raise ValueError("surface edges must be in strictly increasing label order")

    def edge_by_label(self, label: str) -> Edge:
        for e in self.edges:
            if e.label == label:
                return e
        raise KeyError(label)

    @functools.cached_property
    def _graph(self) -> _DualGraph:
        """The integer view of the dual graph, built on first use and kept."""
        index = {v: k for k, v in enumerate(self.vertices)}
        return _DualGraph(
            vertices=self.vertices,
            ends=tuple((index[e.a], index[e.b]) for e in self.edges),
        )


@dataclass(frozen=True)
class ChainFamilyParams:
    """Parameters of the equal-length handle-chain family.

    ``core_length`` is the common length of all 3g-3 curves; it must
    stay below 2*arcsinh(1) so the curves are systolic candidates.
    """

    genus: int
    core_length: float
    twist: float = 0.0

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError(f"genus must be >= 2, got {self.genus}")
        if not (0.0 < self.core_length < TWO_ARCSINH_ONE):
            raise ValueError(
                f"core_length must lie in (0, 2*arcsinh(1) = {TWO_ARCSINH_ONE:.6f}), "
                f"got {self.core_length}"
            )


# ===================================================================
# graph helpers
# ===================================================================

def _union_find(n: int, pairs) -> list[int]:
    """Root of every vertex 0..n-1 once the (a, b) pairs are joined.

    The one union-find of the package, with path halving; self-loops
    join nothing.  Two vertices share a root exactly when a path of
    pairs links them, and the count of distinct roots is the count of
    components.
    """
    parent = list(range(n))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
    for v in range(n):
        root = v
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        parent[v] = root
    return parent


def _groups(names, roots) -> list[frozenset]:
    """Names grouped by root, ordered by each group's smallest name."""
    groups: dict[int, list] = {}
    for name, root in zip(names, roots):
        groups.setdefault(root, []).append(name)
    return sorted(map(frozenset, groups.values()), key=min)


class _DualGraph:
    """Integer view of a surface's dual graph.

    Vertex k is ``vertices[k]`` and edge k, the surface's ``edges[k]``,
    joins the vertices ``ends[k]``.  A plain class: a dataclass would
    add its class construction to every import of the package's core.
    """

    __slots__ = ("vertices", "ends")

    def __init__(self, vertices: tuple[str, ...], ends: tuple[tuple[int, int], ...]):
        self.vertices = vertices
        self.ends = ends

    def roots(self, kept) -> list[int]:
        """Union-find root of every vertex, joined by the edges numbered in ``kept``."""
        ends = self.ends
        return _union_find(len(self.vertices), [ends[k] for k in kept])

    def parts(self, kept) -> list[frozenset[str]]:
        """Pants sets of the components joined by the edges numbered in ``kept``."""
        return _groups(self.vertices, self.roots(kept))


def connected_components(vertices, edge_pairs) -> list[frozenset[str]]:
    """Connected components of a multigraph given as (a, b) endpoint pairs.

    Every vertex is its own component unless an edge joins it to
    another; self-loops do not merge anything.  Output order follows
    the sorted order of each component's smallest vertex.
    """
    index = {v: k for k, v in enumerate(dict.fromkeys(vertices))}
    roots = _union_find(len(index), [(index[a], index[b]) for a, b in edge_pairs])
    return _groups(index, roots)


# ===================================================================
# builders and validation
# ===================================================================

def _structural_violations(genus, vertices, edges) -> list[str]:
    problems: list[str] = []
    if genus < 2:
        problems.append(f"genus must be >= 2, got {genus}")
        return problems
    if len(set(vertices)) != len(vertices):
        dupes = sorted({v for v in vertices if vertices.count(v) > 1})
        problems.append(f"duplicate vertex ids: {dupes}")
    vset = set(vertices)
    labels = [e.label for e in edges]
    if len(set(labels)) != len(labels):
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        problems.append(f"duplicate edge labels: {dupes}")
    for e in edges:
        for end in (e.a, e.b):
            if end not in vset:
                problems.append(f"edge {e.label!r} references unknown vertex {end!r}")
        if not (math.isfinite(e.length) and e.length > 0.0):
            problems.append(f"edge {e.label!r} has non-positive or non-finite length {e.length}")
        if not math.isfinite(e.twist):
            problems.append(f"edge {e.label!r} has non-finite twist {e.twist}")
    if len(vertices) != 2 * (genus - 1):
        problems.append(
            f"genus {genus} needs {2 * (genus - 1)} pants, got {len(vertices)}"
        )
    if len(edges) != 3 * (genus - 1):
        problems.append(
            f"genus {genus} needs {3 * (genus - 1)} curves, got {len(edges)}"
        )
    if not problems:
        deg = {v: 0 for v in vertices}
        for e in edges:
            deg[e.a] += 1
            deg[e.b] += 1
        bad = {v: d for v, d in deg.items() if d != 3}
        for v, d in sorted(bad.items()):
            problems.append(f"pants {v!r} has degree {d}, expected 3")
        comps = connected_components(vertices, [(e.a, e.b) for e in edges])
        if len(comps) != 1:
            problems.append(f"dual graph is disconnected ({len(comps)} components)")
    return problems


def _read_description(desc: dict) -> tuple[list[str], int, list[str], list[Edge]]:
    """Violations of a description, with the genus, vertices and edges read from it.

    Each edge is built once, for the checks and for the surface alike.
    A field of the wrong type is listed as a violation, never raised.
    """
    if not isinstance(desc, dict):
        return ["surface description is not an object"], 0, [], []
    problems: list[str] = []
    for key in ("genus", "vertices", "edges"):
        if key not in desc:
            problems.append(f"missing field {key!r}")
        elif key != "genus" and not isinstance(desc[key], (list, tuple)):
            problems.append(f"{key} is not a list")
    if problems:
        return problems, 0, [], []
    try:
        genus = int(desc["genus"])
    except (TypeError, ValueError):
        return [f"genus is not an integer: {desc['genus']!r}"], 0, [], []
    vertices = [str(v) for v in desc["vertices"]]
    edges = []
    for i, raw in enumerate(desc["edges"]):
        if not isinstance(raw, dict):
            problems.append(f"edge #{i} is not an object")
            continue
        missing = [k for k in ("a", "b", "length", "label") if k not in raw]
        if missing:
            problems.append(f"edge #{i} missing fields {missing}")
            continue
        numbers = {}
        for key, value in (("length", raw["length"]), ("twist", raw.get("twist", 0.0))):
            try:
                numbers[key] = float(value)
            except (TypeError, ValueError):
                problems.append(f"edge #{i} has non-numeric {key} {value!r}")
        if len(numbers) < 2:
            continue
        edges.append(
            Edge(
                a=str(raw["a"]),
                b=str(raw["b"]),
                length=numbers["length"],
                twist=numbers["twist"],
                label=str(raw["label"]),
            )
        )
    return problems or _structural_violations(genus, vertices, edges), genus, vertices, edges


def validate_description(desc: dict) -> list[str]:
    """Structural violations of a JSON-style surface description (empty = valid)."""
    return _read_description(desc)[0]


def build_from_description(desc: dict) -> PantsSurface:
    """Validated surface from a ``{"genus", "vertices", "edges"}`` mapping.

    Raises :class:`InvalidSurfaceError` listing every violation (with
    the offending element) when the description is not a closed
    genus-g pants decomposition.
    """
    problems, genus, vertices, edges = _read_description(desc)
    if problems:
        raise InvalidSurfaceError(problems)
    return PantsSurface(
        genus=genus,
        vertices=tuple(vertices),
        edges=tuple(sorted(edges, key=lambda e: e.label)),
    )


def build_chain_family(params: ChainFamilyParams) -> PantsSurface:
    """Equal-length handle-chain surface of the given genus.

    The dual graph is a linear chain: an end pants with a self-glued
    handle curve, then g-2 blocks of two pants sharing a parallel pair
    of rung curves, then the mirror end pants; consecutive pieces are
    joined by single curves.  All 3g-3 curves share ``core_length``
    and ``twist``.  Labels sort in a fixed scheme: joins ``j``, rungs
    ``r``, self-loops ``s``, with zero-padded chain positions, so the
    lexicographically first join is the leftmost one.
    """
    g = params.genus
    ell = params.core_length
    tw = params.twist
    n_pants = 2 * (g - 1)
    verts = [f"p{i:03d}" for i in range(n_pants)]
    left, right = verts[0], verts[-1]
    edges: list[Edge] = []
    edges.append(Edge(a=left, b=left, length=ell, twist=tw, label="s000"))
    edges.append(Edge(a=right, b=right, length=ell, twist=tw, label="s001"))
    # chain order: left end pants, block pairs, right end pants
    for k in range(g - 1):
        a = verts[2 * k]
        b = verts[2 * k + 1]
        edges.append(Edge(a=a, b=b, length=ell, twist=tw, label=f"j{k:03d}"))
    for blk in range(1, g - 1):
        a = verts[2 * blk - 1]
        b = verts[2 * blk]
        edges.append(Edge(a=a, b=b, length=ell, twist=tw, label=f"r{blk:03d}a"))
        edges.append(Edge(a=a, b=b, length=ell, twist=tw, label=f"r{blk:03d}b"))
    edges.sort(key=lambda e: e.label)
    surface = PantsSurface(genus=g, vertices=tuple(verts), edges=tuple(edges))
    problems = _structural_violations(g, list(surface.vertices), list(surface.edges))
    if problems:  # pragma: no cover - construction is exact by design
        raise InvalidSurfaceError(problems)
    return surface


def chain_join_label(genus: int, k: int) -> str:
    """Label of the k-th join curve (0-based from the left end)."""
    if not 0 <= k <= genus - 2:
        raise ValueError(f"join index {k} out of range for genus {genus}")
    return f"j{k:03d}"


def chain_central_join_label(genus: int) -> str:
    """Join curve splitting the chain as close to evenly as possible."""
    return chain_join_label(genus, (genus - 2) // 2)


# ===================================================================
# global quantities
# ===================================================================

def total_volume(surface: PantsSurface) -> float:
    """Hyperbolic area 4*pi*(g-1): each of the 2(g-1) pants has area 2*pi."""
    return 4.0 * math.pi * (surface.genus - 1)


# ===================================================================
# serialization
# ===================================================================

def surface_to_dict(surface: PantsSurface) -> dict:
    """JSON-ready description; edges are in label order."""
    return {
        "genus": surface.genus,
        "vertices": list(surface.vertices),
        "edges": [
            {
                "a": e.a,
                "b": e.b,
                "length": e.length,
                "twist": e.twist,
                "label": e.label,
            }
            for e in surface.edges
        ],
    }


def dump_surface(surface: PantsSurface) -> str:
    return json.dumps(surface_to_dict(surface), indent=2, sort_keys=True) + "\n"


def load_surface(text: str) -> PantsSurface:
    return build_from_description(json.loads(text))
