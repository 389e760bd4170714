"""Per-layer tracing for the benchmark's traced run.

The recorder replaces each traced public function under every name a
``hypspec`` module holds it by (``hypspec.spectral.report.decompose``,
``hypspec.cuts.component_count_after_removal``, ...), so calls made
inside the package are seen without changing it.  Every wrapped call
adds its duration to its caller's child time, which gives each function
its self time: duration minus the time of the traced calls it made.
Calls that are not hot also record a span (name, start, end, parent),
kept in memory and written out once the run ends; hot leaves are only
counted and timed, which keeps the overhead down.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Matches hypspec.cuts.EXHAUSTIVE_EDGE_LIMIT at the seed commit; kept as
# the benchmark's own definition so the metric survives that constant.
EXHAUSTIVE_EDGES = 20

# (module, function, records a span).  Hot leaves record no span.
TRACED = (
    ("hypspec.surfaces", "build_from_description", True),
    ("hypspec.thickthin", "decompose", True),
    ("hypspec.thickthin", "epsilon_admissible", True),
    ("hypspec.cuts", "min_separating_length", True),
    ("hypspec.cuts", "component_count_after_removal", False),
    ("hypspec.spectral.collar_ode", "collar_dirichlet_lambda1", True),
    ("hypspec.spectral.collar_ode", "radial_mode_lambda1", True),
    ("hypspec.spectral.network", "build_network", True),
    ("hypspec.spectral.network", "network_lambda1", True),
    ("hypspec.spectral.network", "rayleigh_upper_bound", True),
    ("hypspec.spectral.report", "assemble_report", True),
    ("hypspec.spectral.report", "scaling_study", True),
    ("hypspec.collars", "shell_detour_length", False),
    ("hypspec.collars", "collar_distance", False),
    ("hypspec.intervals", "find_cut_index", True),
    ("hypspec.intervals", "verify_cut_inequality", False),
    ("hypspec.spectral.gridfun", "crossing_energy_check", True),
    ("hypspec.spectral.gridfun", "cutoff_extension_check", True),
    ("hypspec.spectral.corpus", "crossing_corpus", True),
    ("hypspec.spectral.corpus", "cutoff_corpus", True),
)


def short_name(module: str, function: str) -> str:
    """``hypspec.spectral.collar_ode`` + ``f`` -> ``collar_ode.f``."""
    return f"{module.rsplit('.', 1)[-1]}.{function}"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Recorder:
    """Counters, self times and spans of one traced pass."""

    stats: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    max_spans: int = 200_000
    exhaustive_calls: int = 0
    max_nodes: int = 0
    # child time of every open call, innermost last; [0] is the op level
    _child: list = field(default_factory=lambda: [0.0])
    # span id of every open recorded call, innermost last
    _open: list = field(default_factory=lambda: [None])

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    @contextlib.contextmanager
    def root(self, name: str):
        """One op: a top-level span that parents the layer spans inside it."""
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), None, None])
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[sid][2] = perf_counter()


def _observer(rec: Recorder, name: str):
    """Extra per-call bookkeeping of a few layers, or None."""
    if name == "cuts.min_separating_length":
        def observe(args):
            if len(args[0].edges) <= EXHAUSTIVE_EDGES:
                rec.exhaustive_calls += 1
        return observe
    if name == "network.network_lambda1":
        def observe(args):
            rec.max_nodes = max(rec.max_nodes, len(args[0].masses))
        return observe
    return None


def _wrap(rec: Recorder, name: str, fn, span: bool):
    stat = rec.stat(name)
    child, open_ = rec._child, rec._open
    observe = _observer(rec, name)

    def wrapper(*args, **kwargs):
        if observe is not None:
            observe(args)
        sid = None
        if span and len(rec.spans) < rec.max_spans:
            sid = len(rec.spans)
            rec.spans.append([name, None, None, open_[-1]])
            open_.append(sid)
        child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            duration = t1 - t0
            stat.calls += 1
            stat.self_s += duration - child.pop()
            child[-1] += duration
            if sid is not None:
                open_.pop()
                rec.spans[sid][1] = t0
                rec.spans[sid][2] = t1

    wrapper.__wrapped__ = fn
    return wrapper


class Patch:
    """Install wrappers for every traced function; ``restore`` undoes it."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.undo: list = []
        self.missing: list = []

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "hypspec" or n.startswith("hypspec."))
        ]
        for modname, fname, span in TRACED:
            try:
                original = getattr(importlib.import_module(modname), fname)
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}.{fname}")
                continue
            wrapper = _wrap(self.rec, short_name(modname, fname), original, span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.undo.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self.undo):
            setattr(mod, attr, original)
        self.undo.clear()


def layer_metrics(rec: Recorder, warnings_seen: int) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    out: dict = {}
    for modname, fname, _ in TRACED:
        name = short_name(modname, fname)
        stat = rec.stats.get(name, Stat())
        out[f"{name}.calls"] = (stat.calls, "count")
        out[f"{name}.self_s"] = (stat.self_s, "s")
    cuts = out["cuts.min_separating_length.calls"][0]
    tests = out["cuts.component_count_after_removal.calls"][0]
    out["cuts.useful_ratio"] = (cuts / tests if tests else 0.0, "ratio")
    out["cuts.exhaustive_share"] = (rec.exhaustive_calls / cuts if cuts else 0.0, "ratio")
    collar = out["collar_ode.collar_dirichlet_lambda1.calls"][0]
    radial = out["collar_ode.radial_mode_lambda1.calls"][0]
    out["collar_ode.radial_solves_per_call"] = (radial / collar if collar else 0.0, "count")
    out["collar_ode.extrapolation_warnings"] = (warnings_seen, "count")
    out["network.max_nodes"] = (rec.max_nodes, "count")
    return out


def write_spans(rec: Recorder, path: Path) -> None:
    """One JSON object per span: id, name, start and end (s), parent id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for sid, (name, start, end, parent) in enumerate(rec.spans):
            fh.write(
                json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                )
                + "\n"
            )
