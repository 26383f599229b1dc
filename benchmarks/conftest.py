"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  To keep a
full ``pytest benchmarks/ --benchmark-only`` run tractable on a laptop the
benches use the reduced-but-structurally-faithful scale defined here and a
shortened deep clustering configuration; pass ``--paper-scale`` to use the
larger default scale recorded in EXPERIMENTS.md.

Each bench prints the rows/series it reproduces (visible with ``-s`` or in
the captured output), so the harness doubles as the table generator.  For
untimed runs the same tables are available from the CLI
(``python -m repro run <id> --workers N``), and within one pytest process
the benches share embedding matrices through the repro.cache artifact
cache.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.config import DeepClusteringConfig, ExperimentScale

#: Scale used by default for the benchmark harness: large enough to show the
#: paper's trends, small enough to complete in a few minutes per table.
BENCH_SCALE = ExperimentScale(
    webtables_tables=80, webtables_clusters=16,
    tus_tables=80, tus_clusters=16,
    musicbrainz_records=180, musicbrainz_clusters=60,
    geographic_records=180, geographic_clusters=60,
    camera_columns=200, camera_domains=40,
    monitor_columns=220, monitor_domains=42,
)

#: Deep clustering configuration for the benches (short but non-trivial).
BENCH_CONFIG = DeepClusteringConfig(
    pretrain_epochs=10, train_epochs=10, layer_size=256, latent_dim=48, seed=7)


def pytest_addoption(parser):
    parser.addoption("--paper-scale", action="store_true", default=False,
                     help="run the benches at the larger EXPERIMENTS.md scale")


@pytest.fixture(scope="session")
def bench_scale(request) -> ExperimentScale:
    if request.config.getoption("--paper-scale"):
        return ExperimentScale()
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_config() -> DeepClusteringConfig:
    return BENCH_CONFIG


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are minutes-scale pipelines, not micro-benchmarks;
    a single round keeps the harness usable while still recording wall-clock
    time per table.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


#: Thread-count getters exported by the OpenBLAS builds numpy links.
_OPENBLAS_GETTERS = ("openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_")


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS this process has loaded (None if unknown)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:  # not Linux
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for name in _OPENBLAS_GETTERS:
            getter = getattr(library, name, None)
            if getter is not None:
                return int(getter())
    return None


def _git_sha() -> str | None:
    """Commit of the checkout the benches run from (None outside one)."""
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"],
                                cwd=Path(__file__).parent,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def bench_provenance() -> dict:
    """Where a BENCH file's numbers were measured.

    Core count, Python and numpy versions, BLAS threads and git sha —
    enough to tell whether two BENCH files are comparable at all.
    """
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": _blas_threads(),
            "git_sha": _git_sha()}


def write_bench_json(path: Path, document: dict) -> None:
    """Write one BENCH file, stamped with :func:`bench_provenance`."""
    document = {**document, "provenance": bench_provenance()}
    path.write_text(json.dumps(document, indent=2), encoding="utf-8")
