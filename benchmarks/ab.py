"""A/B runner: perfbench at two revisions, alternating, on one machine.

A speed claim against a parent commit is only as good as the comparison
behind it.  This script makes that comparison one command::

    python benchmarks/ab.py --base REV --head REV --workload W --pairs N \\
        [--out benchmarks/ab]

Each revision is ``git archive``d into its own temporary directory and
``perfbench/run.py`` runs there, so the working tree is never touched.
The two sides alternate, base first on even pairs and head first on odd
ones, so host drift lands on both sides alike.  Both runs of pair ``i``
use workload seed ``FIRST_SEED + i`` and ``BENCHMARK.json``'s
``run_seconds``: no run picks its own seed or length.  perfbench stays a
black box: the runner reads the last two lines of its output (provenance
and details, then the result) and edits nothing under ``perfbench/`` or
``BENCHMARK.json``.  The two revisions must carry the same
``BENCHMARK.json``; a head that edits it is refused, so no change is
judged by bounds it set itself.

It writes ``AB_<workload>.json``: every pair's metrics, the median and
quartiles of each side, how many pairs the head won per metric, both
revisions' provenance, and a per-metric verdict against the ``better``
and ``bound`` of ``BENCHMARK.json``:

* ``better`` — over at least ten pairs, the head won at least 9 of every
  10 and its median beats the base's by more than the base's
  interquartile range, and in no pair did a larger share of the head's
  operations fail;
* ``worse`` — the head's median is worse than the base's by more than
  the bound (a relative change);
* ``unresolved`` — neither, but the head is ahead over too few pairs or
  with more failures, or one side's interquartile range is wider than
  the bound, so the runs cannot show a gain or that the metric held;
* ``same`` — none of these.

Next to each side's spread it writes the paired one: the median and
quartiles of the per-pair ratio head/base (``paired``), which cancels
what the two runs of a pair share, such as the seed.  From that spread
``pairs_needed`` estimates how many pairs pin the median ratio to within
the bound (``same``), and whether ten pairs can win often enough for a
gain (``better``: ten, or ``None`` when the head is not ahead or the
spread puts its per-pair win rate below 9 in 10, which no count of pairs
mends).  The estimates are normal approximations, for planning a run;
the verdicts above do not use them.  A verdict still needs what the
paired spread cannot show: a gain larger than the base's IQR, and each
side's IQR within the bound.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import NormalDist

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Share of pairs the head must win for a ``better`` verdict.
WIN_SHARE = 0.9
#: Fewest pairs that can carry a ``better`` verdict.
MIN_PAIRS = 10
#: Workload seed of pair 0; pair ``i`` runs with ``FIRST_SEED + i``.
FIRST_SEED = 41
#: Two-sided 95% normal quantile, for ``pairs_needed``.
Z_95 = NormalDist().inv_cdf(0.975)


def resolve(rev: str) -> str:
    """Full commit sha of ``rev`` in this repository."""
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.strip()


def export(sha: str, dest: Path) -> Path:
    """Unpack the tree of commit ``sha`` into ``dest``."""
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive),
                    sha], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def load_benchmark(base: Path, head: Path) -> dict:
    """``BENCHMARK.json`` of two checkouts, refused unless identical."""
    text = (base / "BENCHMARK.json").read_text()
    if (head / "BENCHMARK.json").read_text() != text:
        raise ValueError("the head revision edits BENCHMARK.json; its "
                         "metrics cannot be judged by its own bounds")
    return json.loads(text)


def parse_output(stdout: str) -> dict:
    """perfbench's result line and the provenance line before it."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "provenance": details.get("provenance", {})}


def run_side(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One perfbench run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {checkout} "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return parse_output(proc.stdout)


def side_order(pair: int) -> tuple[str, str]:
    """Base first on even pairs, head first on odd ones."""
    return ("base", "head") if pair % 2 == 0 else ("head", "base")


def _spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1)}


def paired(spec: dict, base: list[float], head: list[float]) -> dict | None:
    """Spread of the per-pair ratio head/base and the pairs it needs.

    The ratio's IQR gives a normal sigma (``iqr / 1.349``).  The median
    of ``n`` ratios has standard error ``1.2533 * sigma / sqrt(n)``, so
    ``(Z_95 * 1.2533 * sigma / bound)**2`` pairs pin it to within the
    bound.  A pair is won with probability ``Phi(gain / sigma)``; below
    ``WIN_SHARE`` no number of pairs reads ``better``.  ``None`` when no
    pair has a non-zero base.
    """
    ratios = [h / b for b, h in zip(base, head) if b]
    if not ratios:
        return None
    spread = _spread(ratios)
    sigma = spread["iqr"] / 1.349
    sign = 1.0 if spec["better"] == "higher" else -1.0
    gain = sign * (spread["median"] - 1.0)
    same = max(1, math.ceil((Z_95 * 1.2533 * sigma / spec["bound"]) ** 2))
    wins = gain > 0 and (sigma == 0 or NormalDist().cdf(gain / sigma) >= WIN_SHARE)
    return {**spread, "pairs_needed": {
        "same": same, "better": MIN_PAIRS if wins else None}}


def failed_share(run: dict) -> float:
    return run["failed"] / run["attempted"] if run["attempted"] else 0.0


def verdict(spec: dict, base: list[float], head: list[float],
            more_failures: bool = False) -> dict:
    """Spread per side, head wins and the verdict of one metric.

    ``spec`` is the metric's ``BENCHMARK.json`` entry (``better`` is
    ``"lower"`` or ``"higher"``, ``bound`` a relative change).
    ``more_failures`` says a larger share of the head's operations failed
    in some pair, which rules a gain out.
    """
    sign = 1.0 if spec["better"] == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    b, h = _spread(base), _spread(head)
    gain = sign * (h["median"] - b["median"])
    allowed = spec["bound"] * abs(b["median"])
    ahead = wins >= math.ceil(WIN_SHARE * len(base)) and gain > b["iqr"]
    if ahead and len(base) >= MIN_PAIRS and not more_failures:
        call = "better"
    elif -gain > allowed:
        call = "worse"
    elif ahead or max(b["iqr"], h["iqr"]) > allowed:
        call = "unresolved"
    else:
        call = "same"
    return {"unit": spec.get("unit"), "better": spec["better"],
            "bound": spec["bound"], "base": b, "head": h,
            "relative_change": ((h["median"] - b["median"]) / b["median"]
                                if b["median"] else None),
            "paired": paired(spec, base, head),
            "wins": int(wins), "pairs": len(base), "verdict": call}


def summarize(pairs: list[dict], benchmark: dict) -> dict:
    """Per-metric verdicts over ``pairs`` (each ``{"base", "head"}``)."""
    more_failures = any(failed_share(p["head"]) > failed_share(p["base"])
                        for p in pairs)
    return {spec["name"]: verdict(
                spec, [p["base"]["metrics"][spec["name"]] for p in pairs],
                [p["head"]["metrics"][spec["name"]] for p in pairs],
                more_failures)
            for spec in benchmark["end_to_end"]
            if all(spec["name"] in p[side]["metrics"]
                   for p in pairs for side in ("base", "head"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "ab")
    args = parser.parse_args(argv)

    revs = {"base": resolve(args.base), "head": resolve(args.head)}
    pairs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: export(sha, Path(tmp) / side)
                 for side, sha in revs.items()}
        try:
            benchmark = load_benchmark(trees["base"], trees["head"])
        except ValueError as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 2
        seconds = benchmark["run_seconds"]
        for pair in range(args.pairs):
            order = side_order(pair)
            seed = FIRST_SEED + pair
            runs = {side: run_side(trees[side], args.workload, seed, seconds)
                    for side in order}
            pairs.append({"pair": pair, "seed": seed, "order": list(order),
                          **runs})
            print(json.dumps({"pair": pair, **{
                side: runs[side]["metrics"] for side in ("base", "head")}}),
                flush=True)

    report = {
        "workload": args.workload, "seconds": seconds,
        "base": {"rev": args.base, "sha": revs["base"],
                 "provenance": pairs[0]["base"]["provenance"]},
        "head": {"rev": args.head, "sha": revs["head"],
                 "provenance": pairs[0]["head"]["provenance"]},
        "metrics": summarize(pairs, benchmark),
        "pairs": [{"pair": p["pair"], "seed": p["seed"],
                   "order": p["order"], **{
            side: {key: p[side][key] for key in
                   ("metrics", "correct", "attempted", "failed")}
            for side in ("base", "head")}} for p in pairs],
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"AB_{args.workload}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    for name, entry in report["metrics"].items():
        ratio = entry["paired"]
        spread = ("" if ratio is None else
                  f" ratio {ratio['median']:.3f} (IQR {ratio['iqr']:.3f}; "
                  f"pairs for same {ratio['pairs_needed']['same']}, "
                  f"better {ratio['pairs_needed']['better']})")
        print(f"{name:>10}: base {entry['base']['median']:.4g} "
              f"head {entry['head']['median']:.4g} wins "
              f"{entry['wins']}/{entry['pairs']} {entry['verdict']}{spread}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
