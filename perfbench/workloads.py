"""The four workloads: what each sets up, times, checks and traces.

Every workload returns a :class:`Outcome`.  End-to-end metrics are the same
seven names on every workload, each defined for that workload's unit of
work (see NOTES.md):

``setup_s``    train/build/boot before the timed phase (medians of repeats)
``ops_per_s``  closed-loop work per second
``p50_ms``     median time per operation
``tail_ms``    highest percentile with >= 10 samples beyond it
``ok_frac``    operations answered correctly / operations attempted
``agreement``  share of answers equal to the reference answer
``rss_mb``     resident memory of the process that did the work

With ``trace`` set a workload runs its timed phase twice, untraced and
then traced, and reports per-layer metrics from the traced half plus the
difference between the halves as ``trace.overhead_pct``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import loadgen
from tracer import Tracer, install_inprocess, load_spans, summarize

HERE = Path(__file__).resolve().parent

#: Open-loop arrival rate for both serve workloads: about half the
#: closed-loop capacity of the server this benchmark was defined on
#: (~40 requests/s over two keep-alive connections).  Fixed, so that a
#: later change is compared at the same offered load.
OPEN_RATE = 20.0

#: Dataset seeds whose paper-table cells are pinned in pins.json; the
#: workload seed picks one of them.
PIN_SEEDS = (7, 11, 13, 17, 19, 23, 29, 31)
TABLES = ("table2", "table3")

STREAM_BATCHES = 20
SETUP_REPEATS = 3

#: Per-layer metrics each workload must fire (count > 0) when traced.
EXPECTED_LAYERS = {
    "paper_tables": (
        "data.build_s", "embeddings.embed_s", "cache.embed_hit_ratio",
        "dc.pretrain_s", "dc.finetune_s", "dc.fallback_ratio",
        "graphs.knn_s", "metrics.silhouette_s", "metrics.silhouette_calls",
        "clustering.fit_s", "metrics.score_s", "trace.overhead_pct"),
    "serve_predict": (
        "serve.open_p50_ms", "serve.open_tail_ms",
        "serve.http_p50_ms", "serve.http_share", "serve.service_p50_ms",
        "serve.queue_wait_p50_ms", "serve.batch_rows_mean",
        "registry.load_s", "serve.boot_s", "embeddings.embed_item_p50_ms",
        "cache.predict_hit_ratio", "dc.predict_p50_ms",
        "loadgen.late_tail_ms", "trace.overhead_pct"),
    "serve_search": (
        "serve.open_p50_ms", "serve.open_tail_ms",
        "serve.http_p50_ms", "serve.http_share", "serve.service_p50_ms",
        "serve.queue_wait_p50_ms", "serve.batch_rows_mean",
        "registry.load_s", "serve.boot_s", "index.query_p50_ms",
        "index.query_rows_mean", "index.resident_mb",
        "loadgen.late_tail_ms", "trace.overhead_pct"),
    "stream_ingest": (
        "embeddings.embed_s", "stream.assess_s", "stream.update_s",
        "stream.refit_ratio", "wal.append_p50_ms", "wal.bytes_mb",
        "serialize.rotate_p50_ms", "serialize.checkpoint_mb", "index.add_s",
        "metrics.silhouette_s", "metrics.silhouette_calls",
        "trace.overhead_pct"),
}

@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    import_s: float


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    #: per-layer name -> (value, sample count)
    layers: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


@dataclass
class Phase:
    """What one timed phase measured (end-to-end inputs)."""

    ops: int
    wall_s: float
    latencies_s: list
    attempted: int
    failed: int
    agreement: float
    rss_mb: float
    extra: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# statistics

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples
    beyond it; the median when there are fewer than 20 samples."""
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return float(np.percentile(values, pct)), pct
    return float(np.percentile(values, 50)), 50.0


def p50(values) -> float:
    return float(np.percentile(values, 50)) if len(values) else 0.0


def self_rss_mb() -> float:
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"VmRSS:\s+(\d+)", status).group(1)) / 1024.0


def repeat_for(seconds: float, run_once) -> list:
    """Run ``run_once`` at least once, and again while another run of the
    same length still fits in ``seconds``."""
    results, started = [], time.perf_counter()
    while True:
        lap = time.perf_counter()
        results.append(run_once())
        now = time.perf_counter()
        if now - started + (now - lap) > seconds:
            return results


def finish(setup_s: float, phase: Phase, details: dict) -> Outcome:
    latencies_ms = [value * 1000.0 for value in phase.latencies_s]
    tail_ms, tail_pct = tail(latencies_ms)
    outcome = Outcome(attempted=phase.attempted, failed=phase.failed)
    outcome.metrics = {
        "setup_s": setup_s,
        "ops_per_s": phase.ops / phase.wall_s,
        "p50_ms": p50(latencies_ms),
        "tail_ms": tail_ms,
        "ok_frac": (phase.attempted - phase.failed) / phase.attempted,
        "agreement": phase.agreement,
        "rss_mb": phase.rss_mb,
    }
    outcome.details = {"tail_percentile": tail_pct,
                       "latency_samples": len(latencies_ms),
                       "ops": phase.ops, "wall_s": phase.wall_s,
                       **phase.extra, **details}
    return outcome


def add_layers(outcome: Outcome, untraced: Phase, traced: Phase,
               layers: dict) -> None:
    base = untraced.ops / untraced.wall_s
    with_trace = traced.ops / traced.wall_s
    layers["trace.overhead_pct"] = ((base / with_trace - 1.0) * 100.0, 1)
    outcome.layers = layers
    outcome.attempted += traced.attempted
    outcome.failed += traced.failed


def _span_layers(summary: dict, names: dict) -> dict:
    """Total self time of each span name, as ``layer -> (seconds, count)``."""
    out = {}
    for layer, span_name in names.items():
        entry = summary.get(span_name)
        out[layer] = ((entry["self_s"], entry["count"]) if entry
                      else (0.0, 0))
    return out


def _p50_ms_layer(summary: dict, span_name: str) -> tuple[float, int]:
    entry = summary.get(span_name)
    if not entry:
        return 0.0, 0
    return p50(entry["durations"]) * 1000.0, entry["count"]


def _ratio(hits: float, total: float) -> tuple[float, int]:
    return (hits / total if total else 0.0), int(total)


# ----------------------------------------------------------------------
# paper_tables

def _load_pins(data_seed: int) -> dict:
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    return {tuple(row[:4]): tuple(row[4:]) for row in pins[str(data_seed)]}


def cell_key(table: str, result) -> tuple:
    return (table, result.dataset, result.embedding, result.algorithm)


def cell_values(result) -> tuple:
    return (int(result.n_clusters_predicted), round(float(result.ari), 6),
            round(float(result.acc), 6))


def run_tables(data_seed: int, table_s: list | None = None
               ) -> list[tuple[str, object]]:
    """One ``repro run`` of both tables from a cold embedding cache.

    Each table's wall time is appended to ``table_s`` when given.
    """
    from repro.cache import reset_cache
    from repro.config import TEST_SCALE
    from repro.experiments.runner import run_experiment

    reset_cache()
    cells = []
    for table in TABLES:
        started = time.perf_counter()
        cells += [(table, result) for result in run_experiment(
            table, scale=TEST_SCALE, workers=1, seed=data_seed)]
        if table_s is not None:
            table_s.append(time.perf_counter() - started)
    return cells


def paper_tables(ctx: Context) -> Outcome:
    from repro.cache import get_cache
    from repro.config import TEST_SCALE
    from repro.experiments.plan import plan_experiment
    from repro.experiments.runner import build_dataset

    data_seed = PIN_SEEDS[ctx.seed % len(PIN_SEEDS)]
    pins = _load_pins(data_seed)

    # Set-up is generating the tables' inputs; run_experiment generates
    # them again inside the timed run, as `repro run` does.
    prep = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        for table in TABLES:
            plan = plan_experiment(table, scale=TEST_SCALE, seed=data_seed)
            for name in plan.datasets:
                build_dataset(name, TEST_SCALE, seed=data_seed)
        prep.append(time.perf_counter() - started)
    setup_s = ctx.import_s + statistics.median(prep)

    # The unit of work is one table, what `repro run tableN` waits for.
    # The per-cell runtimes are a detail only: most cells take tens of
    # milliseconds, and their median moved by a sixth between runs.
    def phase() -> Phase:
        table_s = []
        runs = repeat_for(ctx.seconds, lambda: run_tables(data_seed, table_s))
        cells = [cell for run in runs for cell in run]
        wrong = [cell_key(t, r) for t, r in cells
                 if pins.get(cell_key(t, r)) != cell_values(r)]
        # A pinned cell the run did not produce is a failure too.
        missing = len(pins) * len(runs) - len(cells)
        failed = len(wrong) + max(missing, 0)
        attempted = max(len(pins) * len(runs), len(cells))
        return Phase(ops=len(table_s), wall_s=sum(table_s),
                     latencies_s=table_s,
                     attempted=attempted, failed=failed,
                     agreement=(attempted - failed) / attempted,
                     rss_mb=self_rss_mb(),
                     extra={"passes": len(runs), "data_seed": data_seed,
                            "cell_p50_ms": 1000.0 * p50(
                                [r.runtime_seconds for _, r in cells]),
                            "mismatched_cells": [list(k) for k in wrong[:5]]})

    untraced = phase()
    outcome = finish(setup_s, untraced, {})
    if not ctx.trace:
        return outcome

    tracer = Tracer()
    install_inprocess(tracer)
    try:
        traced = phase()
    finally:
        tracer.restore()
    stats = get_cache().stats
    spans = _dump(ctx, tracer, "paper_tables")
    summary = summarize(spans)
    layers = _span_layers(summary, {
        "data.build_s": "data.build", "embeddings.embed_s": "embeddings.embed",
        "dc.pretrain_s": "dc.pretrain", "dc.finetune_s": "dc.finetune",
        "graphs.knn_s": "graphs.knn", "metrics.silhouette_s":
        "metrics.silhouette", "clustering.fit_s": "clustering.fit",
        "metrics.score_s": "metrics.score"})
    # The cache counters cover the last pass (each pass resets the cache).
    layers["cache.embed_hit_ratio"] = _ratio(stats.hits,
                                             stats.hits + stats.misses)
    sdcn = [span for span in summary.get("dc.finetune", {}).get("spans", ())
            if "fallback" in span]
    layers["dc.fallback_ratio"] = _ratio(
        sum(span["fallback"] for span in sdcn), len(sdcn))
    calls = layers["metrics.silhouette_s"][1]
    layers["metrics.silhouette_calls"] = (float(calls), calls)
    add_layers(outcome, untraced, traced, layers)
    return outcome


def trace_file(ctx: Context, workload: str) -> Path:
    """Where a traced run leaves its spans, next to the checkout."""
    traces = ctx.root / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    return traces / f"{workload}-seed{ctx.seed}.json"


def _dump(ctx: Context, tracer: Tracer, workload: str) -> list[dict]:
    path = trace_file(ctx, workload)
    tracer.dump(path)
    return load_spans(path)


# ----------------------------------------------------------------------
# stream_ingest

@contextlib.contextmanager
def batch_clock(laps: list):
    """Time each arrival batch from its yield to the next request for one.

    ``run_stream_scenario`` pulls batches from ``StreamSource.batches``;
    the gap between two pulls is the whole per-batch path: embed, drift
    check, WAL append, update, checkpoint and index rotation.
    """
    from repro.stream import StreamSource

    original = StreamSource.batches

    def timed(self):
        marked = None
        for batch in original(self):
            if marked is not None:
                laps.append(time.perf_counter() - marked)
            marked = time.perf_counter()
            yield batch
        if marked is not None:
            laps.append(time.perf_counter() - marked)

    StreamSource.batches = timed
    try:
        yield
    finally:
        StreamSource.batches = original


def stream_ingest(ctx: Context) -> Outcome:
    from repro.cache import reset_cache
    from repro.config import BENCHMARK_SCALE, TEST_SCALE
    from repro.experiments.runner import build_dataset
    from repro.experiments.streaming import run_stream_scenario
    from repro.obs.metrics import get_registry, reset_registry
    from repro.serialize import read_checkpoint_header

    def scenario(dataset, n_batches: int, work: Path, seed: int):
        return run_stream_scenario(
            "entity_resolution", dataset=dataset, algorithm="kmeans",
            drift="typo", n_batches=n_batches, seed=seed,
            save_path=work / "stream.npz", wal_dir=work / "wal",
            with_index="ivf")

    prep, dataset = [], None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        dataset = build_dataset("musicbrainz", BENCHMARK_SCALE, seed=ctx.seed)
        prep.append(time.perf_counter() - started)
    # One small scenario first, so that no timed scenario pays for the
    # process's first checkpoint, journal and index (lazy imports, first
    # calls); a long-running ingester pays that once, not per batch.
    started = time.perf_counter()
    scenario(build_dataset("musicbrainz", TEST_SCALE, seed=ctx.seed), 2,
             ctx.work / "warmup", ctx.seed)
    warmup_s = time.perf_counter() - started
    setup_s = ctx.import_s + statistics.median(prep) + warmup_s
    counter = [0]

    def phase() -> Phase:
        laps, walls, applied, items = [], [], [], []
        wal_bytes = [0.0]

        def once():
            counter[0] += 1
            work = ctx.work / f"stream-{counter[0]}"
            save_path = work / "stream.npz"
            reset_cache()
            reset_registry()
            # Each scenario of a run gets its own arrival order and drift
            # draws: whether the drift monitor asks for a refit depends on
            # them, and one draw per run would make a run's throughput
            # hinge on a single seed's refit count.
            seed = ctx.seed * 1000 + len(walls)
            started = time.perf_counter()
            with batch_clock(laps):
                steps = scenario(dataset, STREAM_BATCHES, work, seed)
            walls.append(time.perf_counter() - started)
            items.append(sum(step.n_items for step in steps[1:]))
            header = read_checkpoint_header(save_path)
            applied.append(int(header["metadata"].get(
                "wal_updates_applied", -1)))
            family = get_registry().snapshot().get(
                "repro_wal_append_bytes_total", {})
            wal_bytes[0] += sum(s["value"] for s in family.get("series", ()))
            shutil.rmtree(work)

        runs = len(repeat_for(ctx.seconds, once))
        failed = sum(count != STREAM_BATCHES for count in applied)
        # Ingest throughput counts the time spent on arrival batches; the
        # initial fit that bootstraps each scenario is not ingest.
        return Phase(ops=sum(items), wall_s=sum(laps), latencies_s=laps,
                     attempted=runs, failed=failed,
                     agreement=float(np.mean(
                         [min(c, STREAM_BATCHES) / STREAM_BATCHES
                          for c in applied])),
                     rss_mb=self_rss_mb(),
                     extra={"scenarios": runs, "batches": len(laps),
                            "scenario_s": walls,
                            "wal_updates_applied": applied,
                            "wal_bytes": wal_bytes[0]})

    untraced = phase()
    outcome = finish(setup_s, untraced, {})
    if not ctx.trace:
        return outcome

    tracer = Tracer()
    install_inprocess(tracer)
    try:
        traced = phase()
    finally:
        tracer.restore()
    summary = summarize(_dump(ctx, tracer, "stream_ingest"))
    layers = _span_layers(summary, {
        "data.build_s": "data.build", "embeddings.embed_s": "embeddings.embed",
        "stream.assess_s": "stream.assess", "stream.update_s": "stream.update",
        "index.add_s": "index.add", "metrics.silhouette_s":
        "metrics.silhouette", "metrics.score_s": "metrics.score",
        "clustering.fit_s": "clustering.fit"})
    assess = summary.get("stream.assess", {}).get("spans", ())
    layers["stream.refit_ratio"] = _ratio(
        sum(span.get("refit", False) for span in assess), len(assess))
    layers["wal.append_p50_ms"] = _p50_ms_layer(summary, "wal.append")
    appends = layers["wal.append_p50_ms"][1]
    layers["wal.bytes_mb"] = (traced.extra["wal_bytes"] / 1e6, appends)
    layers["serialize.rotate_p50_ms"] = _p50_ms_layer(summary,
                                                      "serialize.rotate")
    rotations = summary.get("serialize.rotate", {}).get("spans", ())
    layers["serialize.checkpoint_mb"] = (
        float(np.mean([s["bytes"] for s in rotations])) / 1e6
        if rotations else 0.0, len(rotations))
    calls = layers["metrics.silhouette_s"][1]
    layers["metrics.silhouette_calls"] = (float(calls), calls)
    add_layers(outcome, untraced, traced, layers)
    return outcome


# ----------------------------------------------------------------------
# the two serve workloads

class ServeDriver:
    """Boots servers on one model directory and drives the two phases.

    ``bodies(i)`` encodes request ``i``; ``check(samples)`` returns
    ``(failed, agreement)`` for a phase's answers.  ``probe`` is a request
    body whose correct answer ``probe_ok(status, body)`` recognises: the
    boot time runs from process launch to that first correct answer.
    """

    def __init__(self, ctx: Context, name: str, model_dir: Path, path: str,
                 bodies, check, probe: bytes, probe_ok) -> None:
        self.ctx, self.name = ctx, name
        self.model_dir, self.path = model_dir, path
        self.bodies, self.check = bodies, check
        self.probe, self.probe_ok = probe, probe_ok
        self.next_index = 0
        self.boots = 0

    def boot(self, launcher=None) -> tuple[loadgen.Server, float]:
        self.boots += 1
        server = loadgen.Server(
            self.ctx.root, self.model_dir,
            self.ctx.work / f"server-{self.boots}.log", launcher)
        started = time.perf_counter()
        server.start()
        try:
            port = server.wait_port()
            client = loadgen.Client(port)
            try:
                while True:
                    status, body = client.request("POST", self.path,
                                                  self.probe)
                    if self.probe_ok(status, body):
                        break
                    if time.perf_counter() - started > 60:
                        raise RuntimeError("server never answered correctly")
            finally:
                client.close()
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - started

    def phase(self, server: loadgen.Server) -> tuple[Phase, list, list]:
        """Closed loop, then open loop, half of ``--seconds`` each.

        The end-to-end latency is the closed loop's: the machine this
        benchmark was defined on shares its cores with other tenants, and
        the open loop's few-millisecond latencies doubled whenever they
        were busy, while the closed loop's (dominated by the keep-alive
        stall, see NOTES.md) moved by a tenth.  The open-loop latency,
        timed from each request's due time, is kept as a detail and as
        the per-layer ``serve.open_p50_ms``/``serve.open_tail_ms``.
        """
        half = self.ctx.seconds / 2.0
        closed = loadgen.closed_loop(server.port, self.path, self.bodies,
                                     self.next_index, half)
        self.next_index += len(closed) + loadgen.CONNECTIONS
        opened = loadgen.open_loop(server.port, self.path, self.bodies,
                                   self.next_index, OPEN_RATE, half)
        self.next_index += len(opened)
        failed, agreement = self.check(closed + opened)
        wall = (max(s.done for s in closed) - min(s.sent for s in closed)
                if closed else half)
        open_ms = [s.latency * 1000.0 for s in opened]
        late_ms = [(s.sent - s.due) * 1000.0 for s in opened]
        phase = Phase(ops=len(closed), wall_s=wall,
                      latencies_s=[s.latency for s in closed],
                      attempted=len(closed) + len(opened), failed=failed,
                      agreement=agreement, rss_mb=server.rss_mb(),
                      extra={"closed_requests": len(closed),
                             "open_requests": len(opened),
                             "open_rate_per_s": OPEN_RATE,
                             "connections": loadgen.CONNECTIONS,
                             "open_p50_ms": p50(open_ms),
                             "open_tail_ms": tail(open_ms)[0],
                             "open_tail_percentile": tail(open_ms)[1],
                             "late_tail_ms": tail(late_ms)[0]})
        return phase, closed, opened

    def run(self, build_s: float) -> Outcome:
        boots, server = [], None
        try:
            for _ in range(1 if self.ctx.trace else SETUP_REPEATS):
                if server is not None:
                    server.stop()
                server, boot_s = self.boot()
                boots.append(boot_s)
            untraced, _, _ = self.phase(server)
        finally:
            if server is not None:
                server.stop()
        setup_s = build_s + statistics.median(boots)
        outcome = finish(setup_s, untraced,
                         {"build_s": build_s, "boot_s": boots})
        if self.ctx.trace:
            self._traced(outcome, untraced, statistics.median(boots))
        return outcome

    def _traced(self, outcome: Outcome, untraced: Phase,
                boot_s: float) -> None:
        spans_path = self.ctx.work / "server-spans.json"
        launcher = [str(HERE / "serve_traced.py"), str(spans_path)]
        server, _ = self.boot(launcher)
        try:
            traced, closed, opened = self.phase(server)
            client = loadgen.Client(server.port)
            try:
                stats = json.loads(client.request("GET", "/v1/stats")[1])
                metrics = json.loads(
                    client.request("GET", "/v1/metrics?format=json")[1])
            finally:
                client.close()
        finally:
            server.stop()
        spans = load_spans(spans_path)
        shutil.copy(spans_path, trace_file(self.ctx, self.name))
        summary = summarize(spans)
        layers = {"serve.boot_s": (boot_s, 1),
                  "serve.open_p50_ms": (untraced.extra["open_p50_ms"],
                                        untraced.extra["open_requests"]),
                  "serve.open_tail_ms": (untraced.extra["open_tail_ms"],
                                         untraced.extra["open_requests"])}

        service = {span["trace"]: span["end"] - span["start"]
                   for span in summary.get("serve.service", {}).get(
                       "spans", ()) if span.get("trace")}
        # Closed loop only: back-to-back requests on a busy connection are
        # where the keep-alive stall shows (see NOTES.md).
        http_ms, client_ms = [], []
        for sample in closed:
            own = service.get(f"pb-{sample.index}")
            if own is not None and sample.status == 200:
                client_ms.append((sample.done - sample.sent) * 1000.0)
                http_ms.append(client_ms[-1] - own * 1000.0)
        layers["serve.http_p50_ms"] = (p50(http_ms), len(http_ms))
        layers["serve.http_share"] = (
            p50(http_ms) / p50(client_ms) if client_ms else 0.0,
            len(http_ms))
        layers["serve.service_p50_ms"] = _p50_ms_layer(summary,
                                                       "serve.service")
        batches = summary.get("serve.batch", {}).get("spans", ())
        waits = [w * 1000.0 for span in batches for w in span["waits"]]
        layers["serve.queue_wait_p50_ms"] = (p50(waits), len(waits))
        rows = sum(b["rows"] for b in stats["batchers"].values())
        count = sum(b["batches"] for b in stats["batchers"].values())
        layers["serve.batch_rows_mean"] = (rows / count if count else 0.0,
                                           count)
        loads = summary.get("registry.load", {})
        layers["registry.load_s"] = (sum(loads.get("durations", ())),
                                     loads.get("count", 0))
        resident = [s["resident_bytes"] for s in loads.get("spans", ())
                    if "resident_bytes" in s]
        layers["index.resident_mb"] = (
            resident[-1] / 1e6 if resident else 0.0, len(resident))
        layers["embeddings.embed_item_p50_ms"] = _p50_ms_layer(
            summary, "embeddings.embed_item")
        layers["dc.predict_p50_ms"] = _p50_ms_layer(summary, "dc.predict")
        layers["index.query_p50_ms"] = _p50_ms_layer(summary, "index.query")
        queries = summary.get("index.query", {}).get("spans", ())
        layers["index.query_rows_mean"] = (
            float(np.mean([s["rows"] for s in queries])) if queries else 0.0,
            len(queries))
        hits = _series_sum(metrics, "repro_predict_cache_hits_total")
        asked = _series_sum(metrics, "repro_predict_requests_total",
                            kind="predict")
        layers["cache.predict_hit_ratio"] = _ratio(hits, asked)
        late = [(s.sent - s.due) * 1000.0 for s in opened]
        layers["loadgen.late_tail_ms"] = (tail(late)[0], len(late))
        add_layers(outcome, untraced, traced, layers)


def _field(raw: bytes, name: str):
    """One field of a JSON object response; None if the body is not one."""
    try:
        body = json.loads(raw)
    except ValueError:
        return None
    return body.get(name) if isinstance(body, dict) else None


def _series_sum(snapshot: dict, family: str, **labels) -> float:
    series = snapshot.get(family, {}).get("series", ())
    return float(sum(s["value"] for s in series
                     if all(s["labels"].get(k) == v
                            for k, v in labels.items())))


def serve_predict(ctx: Context) -> Outcome:
    from repro.cli import main as repro_main
    from repro.config import BENCHMARK_SCALE
    from repro.embeddings import embed_items
    from repro.experiments.runner import build_dataset
    from repro.serialize import load_checkpoint

    model_dir = ctx.work / "models"
    model_path = model_dir / "mb.npz"
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        repro_main(["train", "entity_resolution", "--dataset", "musicbrainz",
                    "--embedding", "sbert", "--algorithm", "sdcn",
                    "--scale", "test", "--seed", str(ctx.seed),
                    "--save", str(model_path)])
    build_s = time.perf_counter() - started

    # Requests come from another seed's records than the training set.
    # Every fourth request repeats one of HOT records (a memo-cache hit
    # after its first ask); the others are records not asked before.  A
    # quarter, not a half: with half the requests hitting, the median
    # would sit on the edge between the fast and the slow mode.
    records = build_dataset("musicbrainz", BENCHMARK_SCALE,
                            seed=ctx.seed + 10_000).records
    hot = 8

    def item(i: int) -> dict:
        if i % 4 == 0:
            return {"values": records[(i // 4) % hot].values}
        j = hot + i
        values = dict(records[j % len(records)].values)
        if j >= len(records):
            # Past the pool: make the record new again with a marker.
            first = next(iter(values))
            values[first] = f"{values[first]} v{j // len(records)}"
        return {"values": values}

    def body(i: int) -> bytes:
        return json.dumps({"items": [item(i)]}, default=str).encode()

    model = load_checkpoint(model_path)
    task = model.checkpoint_header_["metadata"]["task"]
    expected: dict[int, int] = {}

    def label_of(i: int) -> int:
        key = i if i % 4 else -1 - (i // 4) % hot
        if key not in expected:
            X = embed_items(task, "sbert", [item(i)])
            expected[key] = int(model.predict(X)[0])
        return expected[key]

    def check(samples) -> tuple[int, float]:
        failed = 0
        for sample in samples:
            failed += not (sample.status == 200 and _field(
                sample.body, "labels") == [label_of(sample.index)])
        return failed, (len(samples) - failed) / len(samples)

    # An index far past any phase: a record no request will repeat.
    probe = 20_000_001
    probe_label = label_of(probe)

    def probe_ok(status: int, raw: bytes) -> bool:
        return status == 200 and _field(raw, "labels") == [probe_label]

    driver = ServeDriver(ctx, "serve_predict", model_dir,
                         "/v1/models/mb/predict", body, check, body(probe),
                         probe_ok)
    return driver.run(build_s)


def serve_search(ctx: Context) -> Outcome:
    from repro.index import FlatIndex, IVFPQIndex

    n, dim, clusters, n_queries = 200_000, 64, 100, 512
    rng = np.random.default_rng(ctx.seed)
    centers = rng.normal(size=(clusters, dim)) * 3.0
    X = centers[rng.integers(0, clusters, size=n)] + rng.normal(size=(n, dim))
    Q = centers[rng.integers(0, clusters, size=n_queries)] \
        + rng.normal(size=(n_queries, dim))

    model_dir = ctx.work / "models"
    model_dir.mkdir(parents=True)
    started = time.perf_counter()
    index = IVFPQIndex(nlist=256, nprobe=16, m=16, rerank=128).build(X)
    index.save(model_dir / "vectors.npz")
    build_s = time.perf_counter() - started
    del index

    truth, _ = FlatIndex().build(X).query(Q, 10)
    del X
    bodies = [json.dumps({"vectors": [row.tolist()], "k": 10}).encode()
              for row in Q]

    def body(i: int) -> bytes:
        return bodies[i % n_queries]

    def check(samples) -> tuple[int, float]:
        failed, found = 0, 0
        for sample in samples:
            positions = (_field(sample.body, "positions")
                         if sample.status == 200 else None)
            if not isinstance(positions, list) or len(positions) != 1 \
                    or len(positions[0]) != 10:
                failed += 1
                continue
            found += len(set(positions[0])
                         & set(truth[sample.index % n_queries].tolist()))
        answered = len(samples) - failed
        return failed, found / (10.0 * answered) if answered else 0.0

    def probe_ok(status: int, raw: bytes) -> bool:
        positions = _field(raw, "positions") if status == 200 else None
        return isinstance(positions, list) and len(positions[0]) == 10

    driver = ServeDriver(ctx, "serve_search", model_dir, "/v1/search",
                         body, check, bodies[0], probe_ok)
    return driver.run(build_s)


WORKLOADS = {"paper_tables": paper_tables, "serve_predict": serve_predict,
             "serve_search": serve_search, "stream_ingest": stream_ingest}
