"""Every committed ``BENCH_*.json`` at the repository root parses and holds
what a benchmark record needs: both commits, the seed and run length, the
machine, and for each workload its interleaved parent/change pairs with the
median and quartiles of every end-to-end metric, as recomputed here."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
METRICS = ("setup_s", "run_s", "peak_rss_mb", "out_bytes")
SIDES = ("parent", "change")


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_holds_its_fields(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    for side in SIDES:
        commit = bench["commits"][side]
        assert len(commit) == 40 and int(commit, 16) >= 0, side
    assert bench["seed"] >= 0 and bench["seconds"] > 0
    machine = bench["machine"]
    assert machine["nproc"] >= 1 and machine["ram_gb"] > 0
    for key in ("cpu_model", "python", "numpy"):
        assert machine[key], key
    assert {"e2e", "budget-sweep"} <= set(bench["workloads"])
    for name, workload in bench["workloads"].items():
        pairs = workload["pairs"]
        assert pairs, name
        for pair in pairs:
            assert pair["first"] in SIDES
            for side in SIDES:
                assert pair[side]["correct"] is True, (name, pair["pair"])
                assert pair[side]["failed"] == 0, (name, pair["pair"])
        for metric in METRICS:
            for side in SIDES:
                values = [pair[side][metric] for pair in pairs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                want = {"median": median, "q1": q1, "q3": q3}
                got = workload["summary"][metric][side]
                assert got == pytest.approx(want), (name, metric, side)
