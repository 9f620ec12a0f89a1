"""Outside-in spans: timed wrappers around each layer's public calls.

Nothing under ``src/`` records a span.  :class:`Tracer` patches public
functions and methods for the length of one operation and restores them
afterwards, so untraced operations run the unmodified program.

Protocol bail handlers are wrapped on the *instance*, never on the
class: ``kernel_eligibility`` compares ``DSMProtocol`` method identities
on the type, and a class-level wrapper would silently demote the run to
the batched engine.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.analysis import validate
from repro.engine import kernel as kernel_engine
from repro.engine.kernel import cbuild
from repro.engine.kernel.state import (
    RC_BAIL_COLLAPSE, RC_BAIL_DECIDE, RC_BAIL_FAULT, RC_BAIL_MIGRATE,
    RC_BAIL_PAGECACHE, RC_BAIL_RELOCATE, RC_BAIL_REPLICATE, RC_DONE,
    KernelState,
)
from repro.experiments import runner as runner_mod
from repro.experiments.store import ResultStore
from repro.workloads import tracefile
from repro.workloads.generator import TraceGenerator

BAIL_KINDS = {RC_BAIL_FAULT: "fault", RC_BAIL_COLLAPSE: "collapse",
              RC_BAIL_REPLICATE: "replicate", RC_BAIL_MIGRATE: "migrate",
              RC_BAIL_RELOCATE: "relocate", RC_BAIL_DECIDE: "decide",
              RC_BAIL_PAGECACHE: "pagecache"}

#: protocol methods the kernel engine calls to service a bail
BAIL_HANDLERS = ("handle_miss", "_service_remote_page", "_maybe_relocate",
                 "_perform_relocation", "_evaluate_migrep", "_evaluate_policy",
                 "_perform_replication", "_perform_migration")

#: span name -> per-layer metric its duration sums into
SPAN_METRIC = {
    "workloads.generate": "workloads.gen_s",
    "workloads.digest": "workloads.digest_s",
    "engine.classify_phase": "engine.classify_s",
    "engine.kernel.schedule_arrays": "engine.kernel.schedule_s",
    "engine.kernel.KernelState.__init__": "engine.kernel.marshal_s",
    "engine.kernel.KernelState.reserve_for_phase": "engine.kernel.marshal_s",
    "engine.kernel.KernelState.marshal_phase": "engine.kernel.marshal_s",
    "engine.kernel.bind": "engine.kernel.bind_s",
    "engine.kernel.walk": "engine.kernel.walk_s",
    "engine.kernel.KernelState.load_absolutes": "engine.kernel.sync_s",
    "engine.kernel.KernelState.materialize_placements": "engine.kernel.sync_s",
    "engine.kernel.KernelState.sync_nics_out": "engine.kernel.sync_s",
    "engine.kernel.KernelState.load_nics": "engine.kernel.sync_s",
    "engine.kernel.KernelState.flush": "engine.kernel.fold_s",
    "engine.kernel.KernelState.release": "engine.kernel.fold_s",
    "experiments.runner.map_runs": "experiments.runner.map_s",
    "experiments.store.put": "experiments.store.put_s",
    "experiments.store.get": "experiments.store.get_s",
    "analysis.validate": "analysis.validate_s",
}
SPAN_METRIC.update({f"core.bail.{kind}": f"core.bail.{kind}_s"
                    for kind in BAIL_KINDS.values()})

_KERNEL_STATE_METHODS = ("__init__", "reserve_for_phase", "marshal_phase",
                         "load_absolutes", "materialize_placements",
                         "sync_nics_out", "load_nics", "flush", "release")


class Tracer:
    """Spans kept in memory, keyed by operation id, written at exit.

    A span is ``[op, name, parent, start, end]`` with ``parent`` the
    index of the enclosing span (or -1).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.op: Optional[str] = None
        self.bail_kind = "fault"
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, name, parent, perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][4] = perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span closed out of order")

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.op][name] += n

    def timed(self, fn: Callable, name, on_result=None) -> Callable:
        """``fn`` wrapped in a span; ``name`` may be a callable for late naming."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name() if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_of: Callable) -> None:
        had = attr in vars(owner)
        original = vars(owner)[attr] if had else getattr(owner, attr)
        setattr(owner, attr, wrapper_of(original))
        if had:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def install(self, op: str) -> None:
        """Wrap every layer's public calls for operation ``op``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.op = op
        t = self.timed
        self._patch(TraceGenerator, "generate",
                    lambda f: t(f, "workloads.generate"))
        self._patch(tracefile, "trace_digest",
                    lambda f: t(f, "workloads.digest"))
        self._patch(runner_mod, "trace_digest",
                    lambda f: t(f, "workloads.digest"))
        self._patch(kernel_engine, "classify_phase",
                    lambda f: t(f, "engine.classify_phase"))
        self._patch(kernel_engine, "schedule_arrays",
                    lambda f: t(f, "engine.kernel.schedule_arrays"))
        for meth in _KERNEL_STATE_METHODS:
            self._patch(KernelState, meth,
                        lambda f, m=meth: t(f, f"engine.kernel.KernelState.{m}"))
        self._patch(cbuild, "load_cwalk", self._wrap_load_cwalk)
        self._patch(runner_mod.SweepRunner, "map_runs",
                    lambda f: t(f, "experiments.runner.map_runs"))
        self._patch(ResultStore, "put", lambda f: t(
            f, "experiments.store.put",
            lambda _r: self.count("experiments.store.puts")))
        self._patch(ResultStore, "get", lambda f: t(
            f, "experiments.store.get",
            lambda r: self.count("experiments.store.hits", r is not None)))
        for name in dir(validate):
            if name.startswith("check_") and callable(getattr(validate, name)):
                self._patch(validate, name, lambda f: t(f, "analysis.validate"))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self.op = None

    def _wrap_load_cwalk(self, load_cwalk: Callable) -> Callable:
        tracer = self

        def on_rc(rc: int) -> None:
            tracer.count("engine.kernel.walk_entries")
            if rc != RC_DONE:
                tracer.bail_kind = BAIL_KINDS[rc]
                tracer.count(f"core.bail.{tracer.bail_kind}_n")

        def traced_load():
            bind = load_cwalk()
            if bind is None:
                return None

            def traced_bind(args):
                runner = tracer.timed(bind, "engine.kernel.bind")(args)
                return tracer.timed(runner, "engine.kernel.walk", on_rc)

            return traced_bind

        return traced_load

    def instrument_protocol(self, protocol) -> None:
        """Wrap the bail handlers on this protocol instance only."""
        def kind() -> str:
            return f"core.bail.{self.bail_kind}"

        for name in BAIL_HANDLERS:
            fn = getattr(protocol, name, None)
            if fn is not None:
                setattr(protocol, name, self.timed(fn, kind))

    # -- aggregation ----------------------------------------------------------

    def op_metrics(self, op: str) -> Dict[str, float]:
        """Per-layer totals of one operation.

        A span adds to its metric only when no enclosing span feeds the
        same metric (a migration inside a fault bail counts once).
        ``engine.kernel.unattributed_s`` is the self time of the
        ``engine.run`` spans: run time covered by no timed call.
        """
        out: Dict[str, float] = defaultdict(float)
        metric_of = [SPAN_METRIC.get(s[1]) for s in self.spans]
        child_time: Dict[int, float] = defaultdict(float)
        for idx, (sop, name, parent, start, end) in enumerate(self.spans):
            if sop != op:
                continue
            if parent >= 0:
                child_time[parent] += end - start
            metric = metric_of[idx]
            if metric is None:
                continue
            anc = parent
            while anc >= 0 and metric_of[anc] != metric:
                anc = self.spans[anc][2]
            if anc < 0:
                out[metric] += end - start
        for idx, (sop, name, _parent, start, end) in enumerate(self.spans):
            if sop == op and name == "engine.run":
                out["engine.kernel.unattributed_s"] += (
                    end - start - child_time[idx])
        for name, n in self.counts.get(op, {}).items():
            out[name] += n
        return dict(out)

    def write(self, path: Path, meta: Dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"meta": meta,
                   "fields": ["op", "name", "parent", "start", "end"],
                   "spans": self.spans,
                   "counts": {op: dict(c) for op, c in self.counts.items()}}
        path.write_text(json.dumps(payload), encoding="utf-8")
