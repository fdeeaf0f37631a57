"""Span tracer for the benchmark's traced run.

The tracer times each layer of ``bubblebands`` from outside: it replaces a
layer's public entry points, under the names their callers look them up by,
with wrappers that record one span per call.  A span is
``(parent, layer, name, start, end)``; ``parent`` is the index of the span
that was open when the call began, so nested calls form a tree and a layer's
self time is its spans' durations minus the time their child spans cover.
Spans stay in memory until ``write_spans`` dumps them at the end of a run.

An entry point that no longer exists (a module folded away, a function
renamed) is skipped; a layer none of whose entry points exist is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Entry points by layer.  ``where`` is the module whose namespace the caller
# looks the name up in (``multipole``, ``bands``, ``capacity`` and ``cli``
# import their callees by name, so patching the defining module alone would
# miss those calls); ``attr`` may be ``Class.method``.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("bessel", "bubblebands.bessel", "bessel_j_seq"),
    ("bessel", "bubblebands.bessel", "bessel_y_seq"),
    ("bessel", "bubblebands.bessel", "hankel1_seq"),
    ("bessel", "bubblebands.bessel", "bessel_j_seq_complex"),
    ("bessel", "bubblebands.bessel", "bessel_y_seq_complex"),
    ("bessel", "bubblebands.bessel", "hankel1_seq_complex"),
    ("lattice", "bubblebands.multipole", "lattice_sum_table"),
    ("lattice", "bubblebands.lattice", "LatticeSumEngine.table"),
    ("lattice", "bubblebands.lattice", "LatticeSumEngine.__init__"),
    ("multipole", "bubblebands.bands", "assemble_characteristic_matrix"),
    ("multipole", "bubblebands.capacity", "quasistatic_matrix"),
    ("bands", "bubblebands.bands", "band_structure"),
    ("bands", "bubblebands.cli", "band_structure"),
    ("bands", "bubblebands.cli", "resonance_near"),
    ("bands", "bubblebands.bands", "scan_and_bracket"),
    ("bands", "bubblebands.bands", "singular_value_indicator"),
    ("bands", "bubblebands.bands", "muller_refine"),
    ("capacity", "bubblebands.cli", "capacity_quasi"),
    ("cli", "bubblebands.cli", "main"),
    ("cli", "bubblebands.cli", "run_bands"),
    ("cli", "bubblebands.cli", "run_compare"),
    ("cli", "bubblebands.cli", "run_capacity"),
)

LAYERS = ("bessel", "lattice", "multipole", "bands", "capacity", "cli")

# Per-layer metrics: name -> (unit, direction).  The layer is the prefix.
PER_LAYER_METRICS: dict[str, tuple[str, str]] = {
    "bessel.calls": ("count", "lower"),
    "bessel.self_s": ("s", "lower"),
    "bessel.args": ("count", "lower"),
    "lattice.table_evals": ("count", "lower"),
    "lattice.tables": ("count", "lower"),
    "lattice.widened": ("count", "lower"),
    "lattice.useful_ratio": ("ratio", "higher"),
    "lattice.guard_rejects": ("count", "lower"),
    "lattice.self_s": ("s", "lower"),
    "lattice.engines": ("count", "lower"),
    "lattice.engine_s": ("s", "lower"),
    "multipole.assemblies": ("count", "lower"),
    "multipole.assembly_self_s": ("s", "lower"),
    "multipole.quasistatic_calls": ("count", "lower"),
    "multipole.quasistatic_self_s": ("s", "lower"),
    "bands.scans": ("count", "lower"),
    "bands.scan_self_s": ("s", "lower"),
    "bands.indicator_evals": ("count", "lower"),
    "bands.indicator_s": ("s", "lower"),
    "bands.brackets": ("count", "lower"),
    "bands.flagged_zones": ("count", "lower"),
    "bands.refines": ("count", "lower"),
    "bands.muller_iters": ("count", "lower"),
    "bands.refine_self_s": ("s", "lower"),
    "bands.roots_accepted": ("count", "higher"),
    "bands.rejected": ("count", "lower"),
    "bands.unconverged": ("count", "lower"),
    "bands.accept_ratio": ("ratio", "higher"),
    "bands.evals_per_root": ("evals/root", "lower"),
    "capacity.calls": ("count", "lower"),
    "capacity.self_s": ("s", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
}


@dataclass
class Call:
    """What a wrapper saw of one call: its arguments and outcome."""

    outer: bool           # the caller was not inside the same layer
    args: tuple
    result: object = None
    error: BaseException | None = None


class Tracer:
    """Records spans and outcome counts for patched entry points.

    ``clock`` is injectable so tests can drive span times exactly.
    """

    def __init__(self, entry_points=ENTRY_POINTS,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.entry_points = tuple(entry_points)
        self.clock = clock
        self.spans: list[tuple[int, str, str, float, float] | None] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[tuple[int, str]] = []   # open spans and their layers
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, layer: str, name: str, fn: Callable,
             note: Callable[[Tracer, Call], None] | None = None,
             adapt: Callable[[Tracer, tuple], tuple] | None = None) -> Callable:
        """``fn`` wrapped to record a span per call.

        ``adapt`` may rewrite the positional arguments before the call (to
        count work done by a callback); ``note`` sees the finished call.
        """
        tracer = self

        def traced(*args, **kwargs):
            parent, parent_layer = tracer._stack[-1] if tracer._stack \
                else (-1, None)
            span = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append((span, layer))
            call = Call(parent_layer != layer, args)
            if adapt is not None:
                args = adapt(tracer, args)
            start = tracer.clock()
            try:
                call.result = fn(*args, **kwargs)
                return call.result
            except BaseException as exc:
                call.error = exc
                raise
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans[span] = (parent, layer, name, start, end)
                if note is not None:
                    note(tracer, call)

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point that exists; remember the missing ones."""
        for layer, where, attr in self.entry_points:
            owner, leaf = _resolve_owner(where, attr)
            if owner is None or not hasattr(owner, leaf):
                self.missing.append(f"{where}.{attr}")
                continue
            original = getattr(owner, leaf)
            note, adapt = _HOOKS.get(attr, (None, None))
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(layer, attr, original, note, adapt))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def present_layers(self) -> set[str]:
        missing = set(self.missing)
        return {layer for layer, where, attr in self.entry_points
                if f"{where}.{attr}" not in missing}

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its children's durations."""
        own = [end - start for (_, _, _, start, end) in self.spans]
        selfs = list(own)
        for index, (parent, *_rest) in enumerate(self.spans):
            if parent >= 0:
                selfs[parent] -= own[index]
        return selfs

    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric; layers with no entry point are absent."""
        selfs = self.self_times()
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        spans_by_name: dict[str, int] = {}
        self_by_name: dict[str, float] = {}
        total_by_name: dict[str, float] = {}
        tables_children: dict[int, int] = {}
        for index, (parent, layer, name, start, end) in enumerate(self.spans):
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + selfs[index]
            spans_by_name[name] = spans_by_name.get(name, 0) + 1
            self_by_name[name] = self_by_name.get(name, 0.0) + selfs[index]
            total_by_name[name] = total_by_name.get(name, 0.0) + (end - start)
            if name == "LatticeSumEngine.table" and parent >= 0 \
                    and self.spans[parent][2] == "lattice_sum_table":
                tables_children[parent] = tables_children.get(parent, 0) + 1
        c = self.counts.get
        n = spans_by_name.get
        table_evals = n("LatticeSumEngine.table", 0)
        tables = c("lattice.tables", 0)
        refines = n("muller_refine", 0)
        accepted = c("bands.roots_accepted", 0)
        assemblies = n("assemble_characteristic_matrix", 0)
        values = {
            "bessel.calls": c("bessel.calls", 0),
            "bessel.self_s": self_by_layer["bessel"],
            "bessel.args": c("bessel.args", 0),
            "lattice.table_evals": table_evals,
            "lattice.tables": tables,
            "lattice.widened": sum(k - 1 for k in tables_children.values()
                                   if k > 1),
            "lattice.useful_ratio": tables / table_evals if table_evals else 0.0,
            "lattice.guard_rejects": c("lattice.guard_rejects", 0),
            "lattice.self_s": self_by_layer["lattice"],
            "lattice.engines": n("LatticeSumEngine.__init__", 0),
            "lattice.engine_s": total_by_name.get("LatticeSumEngine.__init__",
                                                  0.0),
            "multipole.assemblies": assemblies,
            "multipole.assembly_self_s": self_by_name.get(
                "assemble_characteristic_matrix", 0.0),
            "multipole.quasistatic_calls": n("quasistatic_matrix", 0),
            "multipole.quasistatic_self_s": self_by_name.get(
                "quasistatic_matrix", 0.0),
            "bands.scans": n("scan_and_bracket", 0),
            "bands.scan_self_s": self_by_name.get("scan_and_bracket", 0.0),
            "bands.indicator_evals": n("singular_value_indicator", 0),
            "bands.indicator_s": total_by_name.get("singular_value_indicator",
                                                   0.0),
            "bands.brackets": c("bands.brackets", 0),
            "bands.flagged_zones": c("bands.flagged_zones", 0),
            "bands.refines": refines,
            "bands.muller_iters": c("bands.muller_iters", 0),
            "bands.refine_self_s": self_by_name.get("muller_refine", 0.0),
            "bands.roots_accepted": accepted,
            "bands.rejected": c("bands.rejected", 0),
            "bands.unconverged": c("bands.unconverged", 0),
            "bands.accept_ratio": accepted / refines if refines else 0.0,
            "bands.evals_per_root": assemblies / accepted if accepted else 0.0,
            "capacity.calls": n("capacity_quasi", 0),
            "capacity.self_s": self_by_layer["capacity"],
            "cli.calls": c("cli.calls", 0),
            "cli.self_s": self_by_layer["cli"],
        }
        present = self.present_layers()
        out = {}
        for key, (unit, _) in PER_LAYER_METRICS.items():
            entry = {"value": float(values[key]), "unit": unit}
            if key.split(".")[0] not in present:
                entry["absent"] = True
            out[key] = entry
        return out

    def write_spans(self, path: Path) -> None:
        """Dump spans as CSV: ``id,parent,layer,name,start_s,end_s``."""
        lines = ["id,parent,layer,name,start_s,end_s"]
        for index, (parent, layer, name, start, end) in enumerate(self.spans):
            lines.append(f"{index},{parent},{layer},{name},{start!r},{end!r}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _resolve_owner(where: str, attr: str):
    """The object holding the last component of ``attr``, or None."""
    try:
        owner = importlib.import_module(where)
    except ImportError:
        return None, attr
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, leaf
    return owner, leaf


# ---------------------------------------------------------------------------
# outcome hooks: counts taken where the work happens
# ---------------------------------------------------------------------------

def _note_bessel(tracer: Tracer, call: Call) -> None:
    if call.outer:
        tracer.add("bessel.calls")
        tracer.add("bessel.args", int(np.size(call.args[1])))


def _note_lattice_table(tracer: Tracer, call: Call) -> None:
    if call.error is None:
        tracer.add("lattice.tables")


def _note_engine_table(tracer: Tracer, call: Call) -> None:
    if type(call.error).__name__ == "NearEmptyResonanceError":
        tracer.add("lattice.guard_rejects")


def _note_scan(tracer: Tracer, call: Call) -> None:
    if call.error is None:
        tracer.add("bands.brackets", len(call.result.brackets))
        tracer.add("bands.flagged_zones", len(call.result.flagged))


def _count_evaluations(tracer: Tracer, args: tuple) -> tuple:
    # Every Muller iteration evaluates the target once after the three starts.
    target = args[0]

    def counted(x):
        tracer.add("bands.muller_evals")
        return target(x)

    return (counted, *args[1:])


def _note_muller(tracer: Tracer, call: Call) -> None:
    evals = tracer.counts.pop("bands.muller_evals", 0)
    tracer.add("bands.muller_iters", max(evals - 3, 0))
    kind = type(call.error).__name__
    if call.error is None:
        tracer.add("bands.roots_accepted")
    elif kind == "RejectedRootError":
        tracer.add("bands.rejected")
    elif kind == "RootNotConvergedError":
        tracer.add("bands.unconverged")


def _note_cli(tracer: Tracer, call: Call) -> None:
    if call.outer:
        tracer.add("cli.calls")


_HOOKS = {name: (_note_bessel, None) for name in (
    "bessel_j_seq", "bessel_y_seq", "hankel1_seq",
    "bessel_j_seq_complex", "bessel_y_seq_complex", "hankel1_seq_complex")}
_HOOKS.update({
    "lattice_sum_table": (_note_lattice_table, None),
    "LatticeSumEngine.table": (_note_engine_table, None),
    "scan_and_bracket": (_note_scan, None),
    "muller_refine": (_note_muller, _count_evaluations),
    "main": (_note_cli, None),
    "run_bands": (_note_cli, None),
    "run_compare": (_note_cli, None),
    "run_capacity": (_note_cli, None),
})
