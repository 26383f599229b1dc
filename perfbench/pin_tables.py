"""Write pins.json: every paper-table cell's K/ARI/ACC per pinned seed.

Usage, from the root of a checkout: ``python3 perfbench/pin_tables.py``.
Run it only when a change is meant to alter the paper's numbers; the
paper_tables workload fails every cell that differs from these pins.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    PIN_SEEDS, cell_key, cell_values, run_tables)


def main() -> int:
    blocks = []
    for seed in PIN_SEEDS:
        rows = [json.dumps([*cell_key(table, result), *cell_values(result)])
                for table, result in run_tables(seed)]
        print(f"seed {seed}: {len(rows)} cells", file=sys.stderr)
        blocks.append(f'"{seed}": [\n  ' + ",\n  ".join(rows) + "\n]")
    # One cell per line, so a changed number shows as a one-line diff.
    (HERE / "pins.json").write_text("{\n" + ",\n".join(blocks) + "\n}\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
