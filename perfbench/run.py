"""The repository's benchmark: one command, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 12 \\
        --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the timed
phase untraced and then traced and prints every per-layer metric plus the
tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds provenance and per-workload details.  Everything written goes under
``.perfbench/`` in the checkout.  See NOTES.md for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

IMPORT_STARTED = time.perf_counter()

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _terminate(signum, frame):
    raise KeyboardInterrupt


def provenance(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": config.get("name"), "version": config.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    blas["threads"] = _blas_threads()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": _git_sha(),
        "src_sha256": _tree_hash(SRC),
        "seed": seed,
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked of the library."""
    maps = Path("/proc/self/maps").read_text()
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower()
             and line.split()[-1].startswith("/")}
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _tree_hash(directory: Path) -> str:
    """Content hash of the program's sources (a checkout has no git sha)."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import repro.cli  # noqa: F401 - the CLI pulls in every layer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - IMPORT_STARTED

    signal.signal(signal.SIGTERM, _terminate)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = workloads.Context(root=ROOT, work=work, seed=args.seed,
                            seconds=args.seconds, trace=bool(args.trace),
                            import_s=import_s)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # BENCHMARK.json is the one list of metric names and units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    correct = outcome.failed == 0
    if args.trace:
        missing = [name for name in workloads.EXPECTED_LAYERS[args.workload]
                   if outcome.layers.get(name, (0.0, 0))[1] <= 0]
        if missing:
            # A renamed function leaves its wrapper unused: fail loudly
            # rather than report a silently idle layer.
            print(f"perfbench: per-layer metrics never fired: {missing}",
                  file=sys.stderr)
            correct = False
        metrics = {m["name"]: {"value": float(
                       outcome.layers.get(m["name"], (0.0,))[0]),
                       "unit": m["unit"]} for m in spec["per_layer"]}
        counts = {name: entry[1] for name, entry in outcome.layers.items()}
        outcome.details["layer_counts"] = counts
    else:
        metrics = {m["name"]: {"value": float(outcome.metrics[m["name"]]),
                               "unit": m["unit"]} for m in spec["end_to_end"]}

    print(json.dumps({"workload": args.workload,
                      "provenance": provenance(args.seed),
                      "details": outcome.details}, default=str))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
