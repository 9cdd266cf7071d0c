"""Wall-clock span tracer, installed from outside around the public seams.

The benchmark may not edit ``src/``, so the per-layer numbers come from
wrappers this module sets as *class attributes* (or module attributes
for plain functions) around the public functions at each module seam,
and restores on exit.  A span is ``(id, name, start, end, thread, cause,
note)``; the layer is the part of the name before the first dot, which
is the ``repro`` sub-package the wrapped function lives in.  Spans stay
in memory and are written out as Chrome trace-event JSON after the run.

Rules the analysis relies on:

* a span's *cause* is the span open on the same thread when it started;
  a span that starts on another thread with nothing open there (an HTTP
  handler in the server thread) is caused by the span open on the thread
  that installed the tracer (the harness's in-flight client request);
* *self time* is a span's duration minus the part of it its child spans
  cover (overlapping children are unioned, cross-thread children count:
  the caller is blocked while the handler runs);
* a seam re-entered under its own name (``BlockedBackend.gemm``
  deferring to ``NumpyBackend.gemm``) is one span, not two.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["NULL_TRACER", "SEAMS", "Seam", "Span", "SpanTracer", "children_of",
           "layer_of", "layer_table", "self_times", "subtree"]

#: Layer of the harness's own root spans (never counted as covered time).
HARNESS = "harness"


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    thread: int
    cause: int  # 0 = root
    note: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


class Seam(NamedTuple):
    """One wrapped public function: ``module.owner.attribute`` → span name."""

    name: str
    module: str
    owner: Optional[str]  # class name, or None for a module-level function
    attribute: str
    kind: str = "call"  # "call" | "iter" (generator: one span per item) | "schedule" | "gemm"


def _status_note(record: Any) -> Any:
    if isinstance(record, dict):
        return {"state": record.get("state"),
                "epochs_completed": record.get("epochs_completed")}
    return None


#: Span notes derived from a call's result (kept tiny: they live in memory).
NOTES: Dict[str, Callable[[Any], Any]] = {
    "api.client.status": _status_note,
    "server.status": _status_note,
    "obs.load_rows": len,
}

_CLIENT_CALLS = ("health", "submit", "status", "resume", "metrics",
                 "metrics_raw", "snapshot", "result")

SEAMS: Tuple[Seam, ...] = (
    # api — the JobSpec facade and the HTTP client SDK
    Seam("api.jobspec_parse", "repro.api.jobspec", "JobSpec", "from_json_dict"),
    Seam("api.build_workload", "repro.api.runtime", None, "build_workload"),
    Seam("api.build_trainer", "repro.api.runtime", None, "build_trainer"),
    Seam("api.resume_trainer", "repro.api.runtime", None, "resume_trainer"),
    *(Seam(f"api.client.{call}", "repro.api.client", "RunClient", call)
      for call in _CLIENT_CALLS),
    Seam("wait.client_wait", "repro.api.client", "RunClient", "wait"),
    # server — HTTP handler thread and the job manager behind it
    Seam("server.http_handler", "repro.server.http", "RunServer", "finish_request"),
    Seam("server.submit", "repro.server.jobs", "JobManager", "submit"),
    Seam("server.status", "repro.server.jobs", "JobManager", "status"),
    Seam("server.resume", "repro.server.jobs", "JobManager", "resume"),
    Seam("server.result", "repro.server.jobs", "JobManager", "result"),
    Seam("obs.load_rows", "repro.server.http", None, "load_rows"),
    # core — trainer, event engine, queue, server segment, end-systems
    Seam("core.trainer.train", "repro.core.trainer", "SpatioTemporalTrainer", "train"),
    Seam("core.trainer.evaluate", "repro.core.trainer", "SpatioTemporalTrainer", "evaluate"),
    Seam("core.trainer.resume", "repro.core.trainer", "SpatioTemporalTrainer",
         "resume_from_store"),
    Seam("core.engine.run", "repro.core.engine", "TrainingEngine", "run_synchronous_epoch"),
    Seam("core.engine.run", "repro.core.engine", "TrainingEngine", "run_asynchronous"),
    Seam("core.queue.push", "repro.core.scheduling", "ParameterQueue", "push"),
    Seam("core.queue.pop", "repro.core.scheduling", "ParameterQueue", "pop"),
    Seam("core.queue.drain", "repro.core.scheduling", "ParameterQueue", "drain"),
    Seam("core.server.process", "repro.core.server", "CentralServer", "process"),
    Seam("core.server.process", "repro.core.server", "CentralServer", "process_next"),
    Seam("core.server.process", "repro.core.server", "CentralServer", "process_batch"),
    Seam("core.server.process", "repro.core.server", "CentralServer",
         "process_pending_batch"),
    Seam("core.server.evaluate", "repro.core.server", "CentralServer", "evaluate"),
    Seam("core.end_system.forward", "repro.core.end_system", "EndSystem", "forward_batch"),
    Seam("core.end_system.backward", "repro.core.end_system", "EndSystem", "apply_gradient"),
    Seam("core.end_system.inference", "repro.core.end_system", "EndSystem",
         "forward_inference"),
    # simnet — transport sends and the event calendar
    Seam("simnet.transport.send", "repro.simnet.transport", "Transport", "send_to_server"),
    Seam("simnet.transport.send", "repro.simnet.transport", "Transport", "send_to_end_system"),
    Seam("simnet.transport.send", "repro.simnet.transport", "Transport",
         "send_between_servers"),
    Seam("simnet.simulator.run", "repro.simnet.events", "Simulator", "run"),
    Seam("core.engine.event", "repro.simnet.events", "Simulator", "schedule", "schedule"),
    # cluster — inter-shard synchronisation and failover moves
    Seam("cluster.sync", "repro.cluster.coordinator", "ClusterCoordinator", "sync_average"),
    Seam("cluster.sync", "repro.cluster.coordinator", "ClusterCoordinator", "merge_staleness"),
    Seam("cluster.sync", "repro.cluster.shard", "ServerShard", "weights_snapshot"),
    Seam("cluster.sync", "repro.cluster.shard", "ServerShard", "install_weights"),
    Seam("cluster.reassign", "repro.cluster.coordinator", "ClusterCoordinator", "reassign"),
    # backend + nn — GEMMs and the autograd substrate around them
    Seam("backend.gemm", "repro.backend", "NumpyBackend", "gemm", "gemm"),
    Seam("backend.gemm", "repro.backend", "BlockedBackend", "gemm", "gemm"),
    Seam("nn.forward", "repro.nn.layers.container", "Sequential", "__call__"),
    Seam("nn.loss", "repro.nn.losses", "Loss", "__call__"),
    Seam("nn.backward", "repro.nn.tensor", "Tensor", "backward"),
    Seam("nn.optimizer_step", "repro.nn.optim", "Optimizer", "step"),
    Seam("nn.zero_grad", "repro.nn.optim", "Optimizer", "zero_grad"),
    # data
    Seam("data.dataset_gen", "repro.data.datasets", "SyntheticCIFAR10", "__init__"),
    Seam("data.loader_next", "repro.data.loader", "DataLoader", "__iter__", "iter"),
    # state — checkpoint capture/write/read/restore
    Seam("state.capture", "repro.state.checkpoint", "ShardCheckpoint", "capture"),
    Seam("state.capture", "repro.state.checkpoint", "ClientCheckpoint", "capture"),
    Seam("state.checkpoint_write", "repro.state.store", "CheckpointStore", "save_shard"),
    Seam("state.checkpoint_write", "repro.state.store", "CheckpointStore", "save_run"),
    Seam("state.checkpoint_read", "repro.state.store", "CheckpointStore", "latest_shard"),
    Seam("state.checkpoint_read", "repro.state.store", "CheckpointStore", "latest_run"),
    Seam("state.restore", "repro.core.trainer", "SpatioTemporalTrainer",
         "restore_run_checkpoint"),
    Seam("state.restore", "repro.state.checkpoint", "ShardCheckpoint", "restore"),
    # obs
    Seam("obs.flush", "repro.obs.plane", "Observability", "flush"),
    Seam("obs.export", "repro.obs.plane", "Observability", "write"),
    Seam("obs.export", "repro.obs.plane", "Observability", "write_trace"),
    Seam("obs.trace_event", "repro.obs.tracing", "Tracer", "span"),
    Seam("obs.trace_event", "repro.obs.tracing", "Tracer", "instant"),
    # chaos
    Seam("chaos.message_chaos", "repro.chaos.message_chaos", "MessageChaos", "apply"),
    Seam("chaos.plan", "repro.chaos.plan", "ScheduledFaults", "peek"),
    Seam("chaos.plan", "repro.chaos.plan", "ScheduledFaults", "advance"),
    # utils
    Seam("utils.arena.stage", "repro.utils.arena", "ActivationArena", "stage"),
    Seam("utils.arena.gather", "repro.utils.arena", "ActivationArena", "gather"),
    Seam("utils.arena.release", "repro.utils.arena", "ActivationArena", "release"),
    Seam("utils.arena.release", "repro.utils.arena", "ActivationArena", "discard"),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


@contextmanager
def _no_span(name: str) -> Iterator[None]:
    yield


class _NullTracer:
    """Tracing off: ``span`` costs one generator, nothing is recorded."""

    enabled = False
    span = staticmethod(_no_span)

    def mark(self, name: str) -> None:
        return None


NULL_TRACER = _NullTracer()


class SpanTracer:
    """Records spans from the installed seam wrappers and ``span()`` blocks."""

    enabled = True

    def __init__(self) -> None:
        #: Finished spans as plain tuples in ``Span`` field order (cheaper to
        #: append from the wrappers); read them through :attr:`spans`.
        self._raw: List[Tuple[Any, ...]] = []
        #: Instant events ``(name, time)`` the harness drops (e.g. the kill).
        self.marks: List[Tuple[str, float]] = []
        #: 2·M·N·K summed over every outermost ``Backend.gemm`` call.
        self.gemm_flops = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: List[Tuple[int, str]] = []
        self._local.stack = self._home_stack
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    @property
    def spans(self) -> List[Span]:
        return [Span._make(raw) for raw in self._raw]

    # -- recording --------------------------------------------------------- #
    def _stack(self) -> List[Tuple[int, str]]:
        try:
            return self._local.stack  # type: ignore[no-any-return]
        except AttributeError:
            stack: List[Tuple[int, str]] = []
            self._local.stack = stack
            return stack

    def _open(self, stack: List[Tuple[int, str]], name: str) -> Tuple[int, int]:
        if stack:
            cause = stack[-1][0]
        elif stack is not self._home_stack and self._home_stack:
            cause = self._home_stack[-1][0]
        else:
            cause = 0
        span_id = next(self._ids)
        stack.append((span_id, name))
        return span_id, cause

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Harness-side span around a block of benchmark code; its note is
        the GEMM flops issued while it was open."""
        stack = self._stack()
        span_id, cause = self._open(stack, name)
        flops = self.gemm_flops
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._raw.append((span_id, name, start, end, threading.get_ident(), cause,
                              {"gemm_flops": self.gemm_flops - flops}))

    def mark(self, name: str) -> None:
        self.marks.append((name, time.perf_counter()))

    def _traced(self, name: str, func: Callable[..., Any], kind: str = "call",
                inner: bool = False) -> Callable[..., Any]:
        """``func`` wrapped for ``kind``; ``inner`` wrappers (made per call by
        the iter/schedule kinds) skip the ``functools.wraps`` dressing."""
        spans = self._raw
        note_of = NOTES.get(name)
        clock = time.perf_counter
        get_ident = threading.get_ident

        local = self._local
        home = self._home_stack
        ids = self._ids

        def call(*args: Any, **kwargs: Any) -> Any:
            # Hot: runs once per span, its cost lands in the parent's self time.
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                cause, open_name = stack[-1]
                if open_name is name:
                    return func(*args, **kwargs)
            else:
                cause = home[-1][0] if stack is not home and home else 0
            span_id = next(ids)
            stack.append((span_id, name))
            note = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                if note_of is not None:
                    note = note_of(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, get_ident(), cause, note))

        def gemm(backend: Any, a: Any, b: Any, *args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if not (stack and stack[-1][1] is name):  # the outermost call only
                self.gemm_flops += 2 * a.size * b.shape[-1]
            return call(backend, a, b, *args, **kwargs)

        def iterate(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = func(*args, **kwargs)
            step = self._traced(name, lambda: next(iterator), inner=True)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        def schedule(sim: Any, when: float, callback: Callable[..., Any],
                     *args: Any, **kwargs: Any) -> Any:
            return func(sim, when, self._traced(name, callback, inner=True),
                        *args, **kwargs)

        chosen = {"call": call, "gemm": gemm, "iter": iterate, "schedule": schedule}[kind]
        return chosen if inner else functools.wraps(func)(chosen)

    # -- installation ------------------------------------------------------ #
    def install(self, seams: Sequence[Seam] = SEAMS) -> "SpanTracer":
        for seam in seams:
            module = importlib.import_module(seam.module)
            owner = module if seam.owner is None else getattr(module, seam.owner)
            own = seam.attribute in vars(owner)
            original = vars(owner)[seam.attribute] if own else getattr(owner, seam.attribute)
            if isinstance(original, (classmethod, staticmethod)):
                wrapped: Any = type(original)(
                    self._traced(seam.name, original.__func__, seam.kind))
            else:
                wrapped = self._traced(seam.name, original, seam.kind)
            self._patches.append((owner, seam.attribute, original, own))
            setattr(owner, seam.attribute, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attribute, original, own in reversed(self._patches):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)  # inherited: uncover the base's
        self._patches.clear()

    def __enter__(self) -> "SpanTracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- export ------------------------------------------------------------ #
    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        spans = self.spans
        if not spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(span.start for span in spans)
        threads = {thread: index for index, thread in
                   enumerate(sorted({span.thread for span in spans}))}
        events: List[Dict[str, Any]] = []
        for span in sorted(spans, key=lambda s: s.start):
            args: Dict[str, Any] = {"id": span.span_id, "cause": span.cause}
            if span.note is not None:
                args["note"] = span.note
            events.append({
                "name": span.name, "cat": layer_of(span.name), "ph": "X",
                "ts": (span.start - origin) * 1e6, "dur": span.duration * 1e6,
                "pid": 1, "tid": threads[span.thread], "args": args,
            })
        for name, when in self.marks:
            events.append({"name": name, "cat": HARNESS, "ph": "i", "s": "g",
                           "ts": (when - origin) * 1e6, "pid": 1, "tid": 0})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Any) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


# -- analysis -------------------------------------------------------------- #
def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        children[span.cause].append(span)
    return children


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → duration minus the part its child spans cover."""
    children = children_of(spans)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.span_id] = span.duration - covered
    return result


def subtree(spans: Sequence[Span], roots: Sequence[Span]) -> List[Span]:
    """Every span caused, directly or not, by one of ``roots`` (roots included)."""
    children = children_of(spans)
    found: List[Span] = []
    pending = list(roots)
    while pending:
        span = pending.pop()
        found.append(span)
        pending.extend(children.get(span.span_id, ()))
    return found


def layer_table(spans: Sequence[Span], own: Dict[int, float]) -> Dict[str, float]:
    """Layer → summed self time (seconds) over ``spans``."""
    table: Dict[str, float] = defaultdict(float)
    for span in spans:
        table[layer_of(span.name)] += own[span.span_id]
    return dict(table)
