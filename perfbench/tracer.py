"""Spans recorded from outside the program, by wrapping its public calls.

A :class:`Tracer` replaces a function where its caller looks it up (a
module global, a class attribute or a dispatch-table entry) with a wrapper
that records one span per call: name, start, end, parent span and a few
attributes.  Spans stay in memory until :meth:`Tracer.dump`, so tracing
costs two clock reads and a list append per call and no I/O.

``install_inprocess`` wraps the offline layers (data, embeddings, dc,
graphs, clustering, metrics, stream, wal, serialize, index) in the
benchmark's own process; ``install_server`` wraps the serving layers inside
a ``repro serve`` process (see ``serve_traced.py``).  Nothing under
``src/`` knows about it.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path

_MISSING = object()


class Tracer:
    """In-memory span recorder with reversible monkey-patches."""

    def __init__(self) -> None:
        #: Each span is ``[name, start, end, parent, attrs]``; ``parent`` is
        #: the index of the enclosing span on the same thread, or -1.
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _traced(self, original, name: str, on_return=None):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else -1, {}]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(record[4], record, args, result)
            return result
        return wrapper

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` (module or class) with a traced wrapper.

        ``on_return(attrs, record, args, result)`` may add attributes to the
        span after the call returned.
        """
        saved = (owner.__dict__.get(attr, _MISSING) if isinstance(owner, type)
                 else getattr(owner, attr))
        original = getattr(owner, attr)
        setattr(owner, attr, self._traced(original, name, on_return))
        self._patches.append((owner, attr, saved))

    def wrap_item(self, mapping: dict, key, name: str) -> None:
        """Replace one dispatch-table entry with a traced wrapper."""
        original = mapping[key]
        mapping[key] = self._traced(original, name)
        self._patches.append((mapping, key, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, saved in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = saved
            elif saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    # ------------------------------------------------------------------
    def dump(self, path: str | Path) -> None:
        """Write every finished span as JSON (the traced run's artifact)."""
        with self._lock:
            rows = [{"name": n, "start": s, "end": e, "parent": p, **a}
                    for n, s, e, p, a in self.spans if e is not None]
        Path(path).write_text(json.dumps(rows), encoding="utf-8")


def load_spans(path: str | Path) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children share their parent's thread and run inside it one after the
    other, so the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["end"] - span["start"]
    return [span["end"] - span["start"] - covered[i]
            for i, span in enumerate(spans)]


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, total self time and every duration."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span["name"], {"count": 0, "self_s": 0.0,
                                              "durations": [], "spans": []})
        entry["count"] += 1
        entry["self_s"] += own
        entry["durations"].append(span["end"] - span["start"])
        entry["spans"].append(span)
    return out


# ----------------------------------------------------------------------
# Where each layer's public calls are looked up.  A name bound at import
# time (``from ..metrics.silhouette import silhouette_score``) has to be
# patched in the importing module as well, or its calls go unseen.

def install_inprocess(tracer: Tracer) -> None:
    """Wrap the offline layers for the paper_tables and stream workloads."""
    import repro.dc.sdcn as sdcn_mod
    import repro.dc.stopping as stopping_mod
    import repro.experiments.runner as runner_mod
    import repro.experiments.streaming as streaming_mod
    import repro.graphs.hin as hin_mod
    import repro.graphs.knn as knn_mod
    import repro.metrics.silhouette as silhouette_mod
    import repro.stream.drift as drift_mod
    import repro.tasks.base as task_base
    import repro.tasks.domain_discovery as dd_mod
    import repro.tasks.entity_resolution as er_mod
    import repro.tasks.schema_inference as si_mod
    from repro.clustering import DBSCAN, Birch, KMeans
    from repro.dc import EDESC, SDCN, SHGP, Autoencoder
    from repro.index.base import VectorIndex
    from repro.stream import DriftMonitor
    from repro.wal import WriteAheadLog

    tracer.wrap(runner_mod, "build_dataset", "data.build")
    for module, attr in ((si_mod, "embed_tables"), (er_mod, "embed_records"),
                         (dd_mod, "embed_columns")):
        tracer.wrap(module, attr, "embeddings.embed")
    for task in list(streaming_mod._EMBED_FNS):
        tracer.wrap_item(streaming_mod._EMBED_FNS, task, "embeddings.embed")

    tracer.wrap(Autoencoder, "pretrain", "dc.pretrain")

    def branch(attrs, record, args, result):
        attrs["fallback"] = args[0].selected_branch_ == "autoencoder"

    tracer.wrap(SDCN, "fit", "dc.finetune", on_return=branch)
    tracer.wrap(EDESC, "fit", "dc.finetune")
    tracer.wrap(SHGP, "fit", "dc.finetune")

    for module in (knn_mod, sdcn_mod):
        tracer.wrap(module, "knn_graph", "graphs.knn")
        tracer.wrap(module, "sparse_knn_graph", "graphs.knn")
    tracer.wrap(hin_mod, "knn_graph", "graphs.knn")

    for module in (silhouette_mod, sdcn_mod, stopping_mod, drift_mod):
        tracer.wrap(module, "silhouette_score", "metrics.silhouette")
    for module in (task_base, streaming_mod):
        tracer.wrap(module, "adjusted_rand_index", "metrics.score")
        tracer.wrap(module, "clustering_accuracy", "metrics.score")

    for cls in (KMeans, Birch, DBSCAN):
        tracer.wrap(cls, "fit", "clustering.fit")

    def decision(attrs, record, args, result):
        attrs["refit"] = result.action == "refit"

    tracer.wrap(DriftMonitor, "assess", "stream.assess", on_return=decision)
    tracer.wrap(streaming_mod, "incremental_update", "stream.update")
    tracer.wrap(WriteAheadLog, "append", "wal.append")

    def checkpoint_size(attrs, record, args, result):
        attrs["bytes"] = Path(args[0]).stat().st_size

    tracer.wrap(streaming_mod, "rotate_checkpoint", "serialize.rotate",
                on_return=checkpoint_size)
    for cls in _index_classes(VectorIndex, "add"):
        tracer.wrap(cls, "add", "index.add")


def _index_classes(base, attr: str) -> list[type]:
    """The index base and every backend that defines ``attr`` itself."""
    import repro.index  # noqa: F401 - registers every backend subclass

    classes, pending = [], [base]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    return [cls for cls in dict.fromkeys(classes) if attr in cls.__dict__]


def install_server(tracer: Tracer) -> None:
    """Wrap the serving layers inside a ``repro serve`` process."""
    import repro.serve.registry as registry_mod
    import repro.serve.service as service_mod
    from repro.dc import SDCN
    from repro.index.base import VectorIndex
    from repro.obs.trace import current_trace
    from repro.serve.batching import MicroBatcher
    from repro.serve.service import PredictService

    def request_id(attrs, record, args, result):
        trace = current_trace()
        attrs["trace"] = trace.trace_id if trace is not None else None

    tracer.wrap(PredictService, "predict", "serve.service",
                on_return=request_id)
    tracer.wrap(PredictService, "search", "serve.service",
                on_return=request_id)

    def batch(attrs, record, args, result):
        items = args[1]
        attrs["rows"] = sum(int(item.rows.shape[0]) for item in items)
        attrs["waits"] = [record[1] - item.enqueued for item in items]

    # The queue wait ends where the collector thread starts a batch; the
    # private _run_batch is the only call that sees both ends of it.
    tracer.wrap(MicroBatcher, "_run_batch", "serve.batch", on_return=batch)

    def resident(attrs, record, args, result):
        if isinstance(result, VectorIndex):
            attrs["resident_bytes"] = int(result.memory_bytes())

    tracer.wrap(registry_mod, "load_checkpoint", "registry.load",
                on_return=resident)
    tracer.wrap(service_mod, "embed_items", "embeddings.embed_item")
    tracer.wrap(SDCN, "predict", "dc.predict")

    def rows(attrs, record, args, result):
        attrs["rows"] = int(len(args[1]))

    for cls in _index_classes(VectorIndex, "query"):
        tracer.wrap(cls, "query", "index.query", on_return=rows)
