"""Spans around the public functions of every ``specgraph`` module.

The modules import each other's functions by name (``from .graph import
set_measures``), so wrapping a function means replacing it at every binding
inside ``specgraph.*``, not only where it is defined.  ``Tracer.install``
does that and ``Tracer.uninstall`` puts every original back.  The wrappers
only time and count; they never touch arguments or results, so traced and
untraced calls return the same outputs (the benchmark checks this on every
traced operation).

Spans stay in memory as flat columns (name, start, end, parent span,
operation id, raised, count, key) and are written out once, when the run
ends.  ``layer_metrics`` derives the per-layer table from them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Per-span count and key hooks, by traced name.  A count is taken from the
# arguments or the result after a call returns; a key identifies the graph a
# call worked on, for the useful-call ratio.


def _graph_arg(args, kwargs):
    return kwargs["graph"] if "graph" in kwargs else args[0]


def _subsets_full(args, kwargs, result):
    return float(2 ** _graph_arg(args, kwargs).n)


def _subsets_half(args, kwargs, result):
    return float(2 ** (_graph_arg(args, kwargs).n - 1))


def _eigenvectors_flag(args, kwargs, result):
    return float(bool(kwargs.get("eigenvectors", args[1] if len(args) > 1 else False)))


COUNTS = {
    "graph.WeightedGraph": lambda args, kwargs, result: float(len(args[0].edges)),
    "graph.graph_from_json": lambda args, kwargs, result: float(len(args[0])),
    "invariants.cheeger_constant_exact": _subsets_full,
    "invariants.dual_cheeger_exact": _subsets_full,
    "invariants.kappa_exact": _subsets_half,
    "spectral.spectrum": _eigenvectors_flag,
    "kgraph.p_eigenvalue": lambda args, kwargs, result: float(result.truncation_terms),
    "kgraph.delta_eigenvalue": lambda args, kwargs, result: float(result.truncation_terms),
    "harness.run_suite": lambda args, kwargs, result: float(result["instances"]),
    "harness.graph_checks": lambda args, kwargs, result: float(len(result)),
}

# Calls counted by ``harness.useful_call_ratio``: the results a per-graph
# analysis would compute once.
KEYED = (
    "invariants.cheeger_constant_exact",
    "invariants.dual_cheeger_exact",
    "invariants.kappa_exact",
    "spectral.spectrum",
    "reports.graph_fingerprint",
)


def specgraph_modules() -> list:
    return sorted(
        (mod for name, mod in sys.modules.items()
         if mod is not None and (name == "specgraph" or name.startswith("specgraph."))),
        key=lambda mod: mod.__name__,
    )


class Tracer:
    """In-memory span recorder plus the bindings it replaced."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.count = array("d")
        self.key = array("q")
        self._stack: list[int] = []
        # Operation table: kind, units of work, phase ("op" or "check").
        self.op_kind: list[str] = []
        self.op_units: list[int] = []
        self.op_phase: list[str] = []
        self.op_time: list[float] = []
        self._current_op = -1
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ operations

    @contextlib.contextmanager
    def active(self, kind: str, units: int, phase: str):
        """Wrappers installed for one operation (phase "op") or one output
        check (phase "check"); its spans carry the operation's id."""
        self.op_kind.append(kind)
        self.op_units.append(units)
        self.op_phase.append(phase)
        self.op_time.append(0.0)
        self._current_op = len(self.op_kind) - 1
        self.install()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.op_time[self._current_op] = time.perf_counter() - start
            self.uninstall()
            self._current_op = -1

    # ------------------------------------------------------------- wrapping

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, func):
        name_id = self._name_id(name)
        count_of = COUNTS.get(name)
        keyed = name in KEYED
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer._current_op)
            tracer.raised.append(0)
            tracer.count.append(0.0)
            tracer.key.append(id(_graph_arg(args, kwargs)) if keyed else 0)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.end[idx] = time.perf_counter()
                tracer.raised[idx] = 1
                stack.pop()
                raise
            tracer.end[idx] = time.perf_counter()
            stack.pop()
            if count_of is not None:
                tracer.count[idx] = count_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every public function of ``specgraph.*`` at every binding."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = specgraph_modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        # The constructor is the one graph build every caller goes through
        # (build_graph, truncate_K and auxiliary_graph all construct directly).
        graph_cls = sys.modules["specgraph.graph"].WeightedGraph
        init = graph_cls.__init__
        self._patched.append((graph_cls, "__init__", init))
        graph_cls.__init__ = self._wrap("graph.WeightedGraph", init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --------------------------------------------------------------- output

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "count": np.frombuffer(self.count, dtype=np.float64).copy(),
            "key": np.frombuffer(self.key, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            op_kind=np.array(self.op_kind, dtype=str),
            op_units=np.array(self.op_units, dtype=np.int64),
            op_phase=np.array(self.op_phase, dtype=str),
            op_time=np.array(self.op_time, dtype=np.float64),
            **self.columns(),
        )


# ------------------------------------------------------------ derived tables


class SpanTable:
    """Column view of a tracer's spans with the derived quantities."""

    def __init__(self, tracer: Tracer):
        cols = tracer.columns()
        self.names = tracer.names
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.op = cols["op"]
        self.raised = cols["raised"]
        self.count = cols["count"]
        self.key = cols["key"]
        self.dur = cols["end"] - cols["start"]
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        phase = np.array(tracer.op_phase + [""], dtype=object)
        self.in_op = phase[self.op] == "op"  # op id -1 picks the "" sentinel
        layer_of = np.array([n.partition(".")[0] for n in self.names] + [""], dtype=object)
        self.module = layer_of[self.name]

    def ids(self, names) -> np.ndarray:
        wanted = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, wanted)

    def outermost(self, names) -> np.ndarray:
        """Spans named in ``names`` with no ancestor also named in ``names``."""
        member = self.ids(names)
        covered = np.zeros(len(member), dtype=bool)
        parent = self.parent
        for i in np.flatnonzero(parent >= 0):  # parents precede children
            p = parent[i]
            covered[i] = covered[p] or member[p]
        return member & ~covered

    def busy(self, names) -> float:
        return float(self.dur[self.outermost(names)].sum())

    def calls(self, names) -> int:
        return int(self.ids(names).sum())

    def raised_out_of(self, layer: str) -> int:
        """Exceptions that left the layer: a raising span of the layer whose
        parent belongs to another layer (or is the benchmark itself)."""
        in_layer = self.module == layer
        parent_layer = np.where(
            self.parent >= 0, self.module[np.maximum(self.parent, 0)], ""
        )
        return int(np.sum(in_layer & (self.raised == 1) & (parent_layer != layer)))

    def layer_self(self, layer: str) -> float:
        return float(self.self_time[(self.module == layer) & self.in_op].sum())


def layer_metrics(tracer: Tracer, cli_stdout_bytes: int, identical_frac: float,
                  overhead_frac: float) -> tuple[dict[str, float], dict]:
    """The per-layer table, per unit of work of the traced operations.

    Busy times (``_s``) include children and count each nesting of the same
    function once; ``self_s`` subtracts every child span.  Returns the metrics
    and a detail record (layer shares of operation time per operation kind).
    """
    t = SpanTable(tracer)
    units = sum(u for u, ph in zip(tracer.op_units, tracer.op_phase) if ph == "op")
    per = 1.0 / max(units, 1)

    def busy(*names):
        return t.busy(names) * per

    def calls(*names):
        return t.calls(names) * per

    def total_count(*names):
        return float(t.count[t.ids(names)].sum())

    cheeger = t.busy(["invariants.cheeger_constant_exact"])
    dual = t.busy(["invariants.dual_cheeger_exact"])
    kappa = t.busy(["invariants.kappa_exact"])
    sub_h = total_count("invariants.cheeger_constant_exact")
    sub_d = total_count("invariants.dual_cheeger_exact")
    sub_k = total_count("invariants.kappa_exact")
    roots = t.outermost(["kgraph.p_eigenvalue", "kgraph.delta_eigenvalue"]) & (t.raised == 0)
    eig = t.ids(["spectral.spectrum"]) & (t.count == 1.0)
    eig_outer = eig & t.outermost(["spectral.spectrum"])

    keyed = t.ids(KEYED) & t.in_op
    keyed_calls = int(keyed.sum())
    distinct = len(set(zip(t.op[keyed].tolist(), t.key[keyed].tolist(),
                           t.name[keyed].tolist())))

    suite_graphs = total_count("harness.run_suite")

    def ns_per(seconds, subsets):
        return seconds / subsets * 1e9 if subsets else 0.0

    metrics = {
        "graph.build_s": busy("graph.WeightedGraph"),
        "graph.build_calls": calls("graph.WeightedGraph"),
        "graph.edges_built": total_count("graph.WeightedGraph") * per,
        "graph.from_json_s": busy("graph.graph_from_json"),
        "graph.json_bytes_in": total_count("graph.graph_from_json") * per,
        "graph.to_json_s": busy("graph.graph_to_json"),
        "graph.to_json_calls": calls("graph.graph_to_json"),
        "graph.raised": t.raised_out_of("graph") * per,
        "invariants.cheeger_s": cheeger * per,
        "invariants.dual_s": dual * per,
        "invariants.kappa_s": kappa * per,
        "invariants.h_via_r_s": busy("invariants.h_via_r"),
        "invariants.cheeger_calls": calls("invariants.cheeger_constant_exact"),
        "invariants.dual_calls": calls("invariants.dual_cheeger_exact"),
        "invariants.kappa_calls": calls("invariants.kappa_exact"),
        "invariants.subsets": (sub_h + sub_d + sub_k) * per,
        "invariants.cheeger_ns_per_subset": ns_per(cheeger, sub_h),
        "invariants.dual_ns_per_subset": ns_per(dual, sub_d),
        "invariants.kappa_ns_per_subset": ns_per(kappa, sub_k),
        "invariants.raised": t.raised_out_of("invariants") * per,
        "spectral.spectrum_s": busy("spectral.spectrum"),
        "spectral.spectrum_calls": calls("spectral.spectrum"),
        "spectral.eigvec_s": float(t.dur[eig_outer].sum()) * per,
        "spectral.eigvec_calls": float(eig.sum()) * per,
        "spectral.conjugation_s": busy("spectral.signed_conjugation", "spectral.p_psi_norm"),
        "spectral.coarea_s": busy("spectral.coarea_check"),
        "spectral.auxiliary_s": busy("spectral.auxiliary_graph"),
        "spectral.raised": t.raised_out_of("spectral") * per,
        "kgraph.root_s": float(t.dur[roots].sum()) * per,
        "kgraph.roots": float(roots.sum()) * per,
        "kgraph.truncation_terms": float(t.count[roots].sum()) * per,
        "kgraph.asymmetry_s": busy("kgraph.asymmetry_K"),
        "kgraph.truncate_s": busy("kgraph.truncate_K"),
        "kgraph.raised": t.raised_out_of("kgraph") * per,
        "reports.fingerprint_s": busy("reports.graph_fingerprint"),
        "reports.fingerprint_calls": calls("reports.graph_fingerprint"),
        "harness.graph_checks_s": busy("harness.graph_checks"),
        "harness.self_s": t.layer_self("harness") * per,
        "harness.per_graph_ms": (
            t.busy(["harness.run_suite"]) / suite_graphs * 1e3 if suite_graphs else 0.0
        ),
        "harness.reports": total_count("harness.graph_checks") * per,
        "harness.useful_call_ratio": distinct / keyed_calls if keyed_calls else 1.0,
        "families.generate_s": busy("families.generate"),
        "cli.main_s": busy("cli.main"),
        "cli.self_s": t.layer_self("cli") * per,
        "cli.stdout_bytes": cli_stdout_bytes * per,
        "cli.stdout_identical_frac": identical_frac,
        "trace.overhead_frac": overhead_frac,
    }
    return metrics, {"layer_shares": layer_shares(t, tracer), "spans": len(t.dur),
                     "traced_units": units}


def layer_shares(t: SpanTable, tracer: Tracer) -> dict:
    """Per operation kind: each layer's share of the traced operation time.

    A layer's time is the time covered by its outermost spans, so nested
    calls into other layers count for the outer layer too; the shares of one
    kind can therefore sum to more than 1.
    """
    out: dict[str, dict[str, float]] = {}
    kinds = sorted({k for k, ph in zip(tracer.op_kind, tracer.op_phase) if ph == "op"})
    op_kind = np.array(tracer.op_kind + [""], dtype=object)[t.op]
    layers = sorted({n.partition(".")[0] for n in t.names})
    outer = {
        layer: t.outermost([n for n in t.names if n.partition(".")[0] == layer])
        for layer in layers
    }
    for kind in kinds:
        sel = (op_kind == kind) & t.in_op
        total = sum(s for k, ph, s in zip(tracer.op_kind, tracer.op_phase, tracer.op_time)
                    if k == kind and ph == "op")
        if total <= 0.0:
            continue
        out[kind] = {
            "op_seconds": total,
            **{layer: float(t.dur[sel & outer[layer]].sum()) / total for layer in layers
               if (sel & outer[layer]).any()},
        }
    all_time = sum(s for ph, s in zip(tracer.op_phase, tracer.op_time) if ph == "op")
    if all_time > 0.0:
        sel = t.in_op
        out["all"] = {
            "op_seconds": all_time,
            **{layer: float(t.dur[sel & outer[layer]].sum()) / all_time for layer in layers
               if (sel & outer[layer]).any()},
        }
    return out
