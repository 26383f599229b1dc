"""A/B runner: benchmarks/ab.py statistics and verdicts on canned runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_MODULE_PATH = Path(__file__).parent.parent / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _MODULE_PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

_BENCHMARK = json.loads(
    (Path(__file__).parent.parent / "BENCHMARK.json").read_text())


def _perfbench_stdout(setup_s: float, ops_per_s: float, *,
                      sha: str = "abc", failed: int = 0) -> str:
    """What perfbench prints: chatter, provenance+details, result."""
    details = {"workload": "serve_search",
               "provenance": {"nproc": 2, "git_sha": sha, "seed": 1},
               "details": {"boot_s": [1.0, 1.1, 1.2]}}
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
               "ok_frac": {"value": 1.0, "unit": "ratio"}}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": metrics}
    return "\n".join(["warming up", json.dumps(details), json.dumps(result),
                      ""])


def _pairs(base: list[tuple[float, float]], head: list[tuple[float, float]],
           head_failed: int = 0):
    return [{"base": ab.parse_output(_perfbench_stdout(*b)),
             "head": ab.parse_output(_perfbench_stdout(
                 *h, failed=head_failed))}
            for b, h in zip(base, head)]


_CLEAR_GAIN = ([(17.0, 100.0), (18.0, 101.0), (17.5, 99.0), (19.0, 100.0),
                (17.2, 100.5)],
               [(8.0, 100.5), (8.5, 100.0), (8.1, 99.5), (9.0, 101.0),
                (7.9, 100.0)])


def test_parse_output_reads_the_last_two_lines():
    run = ab.parse_output(_perfbench_stdout(17.5, 120.0, sha="f00"))
    assert run["metrics"] == {"setup_s": 17.5, "ops_per_s": 120.0,
                              "ok_frac": 1.0}
    assert run["provenance"]["git_sha"] == "f00"
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 10, 0)


def test_sides_alternate_base_first_on_even_pairs():
    assert [ab.side_order(i) for i in range(4)] == [
        ("base", "head"), ("head", "base"), ("base", "head"),
        ("head", "base")]


def test_median_iqr_wins_and_a_clear_gain():
    base, head = (runs * 2 for runs in _CLEAR_GAIN)     # ten pairs
    report = ab.summarize(_pairs(base, head), _BENCHMARK)
    setup = report["setup_s"]
    assert setup["base"]["median"] == pytest.approx(17.5)
    assert setup["base"]["q1"] == pytest.approx(17.2)
    assert setup["base"]["q3"] == pytest.approx(18.0)
    assert setup["base"]["iqr"] == pytest.approx(0.8)
    assert setup["head"]["median"] == pytest.approx(8.1)
    assert setup["wins"] == 10 and setup["pairs"] == 10
    assert setup["verdict"] == "better"
    assert setup["relative_change"] == pytest.approx(8.1 / 17.5 - 1)
    # Noise inside the bound is neither a gain nor a regression.
    assert report["ops_per_s"]["verdict"] == "same"
    # Equal values win nothing.
    assert report["ok_frac"]["wins"] == 0
    assert report["ok_frac"]["verdict"] == "same"
    # Metrics perfbench did not print are left out.
    assert set(report) == {"setup_s", "ops_per_s", "ok_frac"}


def test_a_gain_over_fewer_than_ten_pairs_is_unresolved():
    report = ab.summarize(_pairs(*_CLEAR_GAIN), _BENCHMARK)
    assert report["setup_s"]["wins"] == 5
    assert report["setup_s"]["verdict"] == "unresolved"


def test_a_gain_with_more_failed_operations_is_unresolved():
    base, head = (runs * 2 for runs in _CLEAR_GAIN)
    report = ab.summarize(_pairs(base, head, head_failed=1), _BENCHMARK)
    assert report["setup_s"]["wins"] == 10
    assert report["setup_s"]["verdict"] == "unresolved"


def test_a_head_that_edits_the_benchmark_is_refused(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    for tree in (base, head):
        tree.mkdir()
        (tree / "BENCHMARK.json").write_text(json.dumps(_BENCHMARK))
    assert ab.load_benchmark(base, head) == _BENCHMARK
    loosened = json.loads(json.dumps(_BENCHMARK))
    loosened["end_to_end"][0]["bound"] = 0.9
    (head / "BENCHMARK.json").write_text(json.dumps(loosened))
    with pytest.raises(ValueError, match="BENCHMARK.json"):
        ab.load_benchmark(base, head)


def test_a_regression_past_the_bound_is_worse():
    base = [(10.0, 100.0)] * 4
    head = [(10.0, 70.0)] * 4          # ops_per_s down 30%, bound 25%
    report = ab.summarize(_pairs(base, head), _BENCHMARK)
    assert report["ops_per_s"]["verdict"] == "worse"
    assert report["ops_per_s"]["wins"] == 0
    head = [(10.0, 80.0)] * 4          # down 20%: inside the bound
    assert ab.summarize(_pairs(base, head),
                        _BENCHMARK)["ops_per_s"]["verdict"] == "same"


def test_a_gain_needs_nine_of_ten_wins_and_to_clear_the_iqr():
    spec = {"better": "lower", "bound": 0.25}
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    # Lower median, but the head loses two pairs: 8 of 10 wins.
    head = [9.0, 10.0, 11.0, 12.0, 13.0, 9.0, 10.0, 11.0, 20.0, 20.0]
    assert ab.verdict(spec, base, head)["wins"] == 8
    assert ab.verdict(spec, base, head)["verdict"] == "same"
    # Wins every pair, but by less than the base's IQR (2.0).
    head = [b - 0.5 for b in base]
    assert ab.verdict(spec, base, head)["verdict"] == "same"
    head = [b - 3.0 for b in base]
    assert ab.verdict(spec, base, head)["verdict"] == "better"


def test_a_spread_wider_than_the_bound_is_unresolved():
    spec = {"better": "higher", "bound": 0.25}
    base = [100.0, 200.0, 300.0, 150.0, 250.0]     # IQR 100 > 25% of 200
    head = [110.0, 190.0, 290.0, 160.0, 240.0]
    assert ab.verdict(spec, base, head)["verdict"] == "unresolved"
    tight = [200.0, 201.0, 199.0, 200.5, 199.5]
    assert ab.verdict(spec, tight, tight)["verdict"] == "same"


def test_paired_ratio_spread_and_pairs_needed():
    spec = {"better": "lower", "bound": 0.25}
    # The seed moves both sides alike: each side spreads 10-19, but the
    # head is 0.8 of its base in every pair but one.
    base = [10.0, 12.0, 14.0, 16.0, 18.0, 11.0, 13.0, 15.0, 17.0, 19.0]
    head = [0.8 * b for b in base]
    head[9] = 0.9 * base[9]
    report = ab.verdict(spec, base, head)
    ratio = report["paired"]
    assert ratio["median"] == pytest.approx(0.8)
    assert (ratio["q1"], ratio["q3"]) == (pytest.approx(0.8),
                                          pytest.approx(0.8))
    assert ratio["iqr"] == pytest.approx(0.0)
    # No spread: one pair pins the ratio, and a gain needs the ten-pair floor.
    assert ratio["pairs_needed"] == {"same": 1, "better": ab.MIN_PAIRS}
    # Each side's own spread is far wider than the paired one.
    assert report["base"]["iqr"] == pytest.approx(4.5)


def test_pairs_needed_grows_with_the_paired_spread():
    spec = {"better": "higher", "bound": 0.25}
    base = [100.0] * 8
    # Ratios 0.7..1.4: IQR 0.35, sigma 0.259; (1.96 * 1.2533 * 0.259 /
    # 0.25)**2 = 6.5, so seven pairs pin the median within the bound.
    head = [70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0]
    ratio = ab.verdict(spec, base, head)["paired"]
    assert ratio["median"] == pytest.approx(1.05)
    assert ratio["iqr"] == pytest.approx(0.35)
    assert ratio["pairs_needed"]["same"] == 7
    # A 5% gain against that spread wins fewer than 9 pairs in 10.
    assert ratio["pairs_needed"]["better"] is None
    # A 10% gain with IQR 0.06 (sigma 0.044) wins 99% of pairs: ten do.
    head = [110.0, 104.0, 116.0, 112.0, 108.0, 120.0, 100.0, 110.0]
    ratio = ab.verdict(spec, base, head)["paired"]
    assert ratio["iqr"] == pytest.approx(0.06)
    assert ratio["pairs_needed"] == {"same": 1, "better": ab.MIN_PAIRS}
    # The same gain with IQR 0.25 (sigma 0.185) wins 71%: never enough.
    head = [110.0, 90.0, 130.0, 120.0, 100.0, 140.0, 80.0, 110.0]
    ratio = ab.verdict(spec, base, head)["paired"]
    assert ratio["median"] == pytest.approx(1.1)
    assert ratio["iqr"] == pytest.approx(0.25)
    assert ratio["pairs_needed"] == {"same": 4, "better": None}
    # A head that is behind has no gain to resolve.
    ratio = ab.verdict(spec, base, [90.0] * 8)["paired"]
    assert ratio["pairs_needed"]["better"] is None


def test_paired_spread_skips_zero_bases_and_is_written_per_metric():
    spec = {"better": "lower", "bound": 0.25}
    assert ab.verdict(spec, [0.0, 0.0], [1.0, 2.0])["paired"] is None
    assert ab.verdict(spec, [0.0, 2.0], [1.0, 3.0])["paired"]["median"] == \
        pytest.approx(1.5)
    report = ab.summarize(_pairs(*_CLEAR_GAIN), _BENCHMARK)
    assert all(set(entry["paired"]) == {"median", "q1", "q3", "iqr",
                                        "pairs_needed"}
               for entry in report.values())
    assert report["setup_s"]["paired"]["median"] == pytest.approx(8.1 / 17.5,
                                                                  rel=0.05)
