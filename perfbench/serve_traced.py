"""Run ``repro serve`` with the serving layers wrapped in spans.

Usage: ``python3 perfbench/serve_traced.py SPANS.json serve [serve args]``.
The wrappers go in before the server imports anything request-related, the
spans stay in memory while it serves, and they are written to
``SPANS.json`` when the server exits (SIGTERM shuts it down cleanly).
"""

from __future__ import annotations

import sys

from tracer import Tracer, install_server


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_server(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
