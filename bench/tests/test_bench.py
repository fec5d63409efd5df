"""The benchmark's own tests:  python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from metrics import PER_LAYER, SPEC  # noqa: E402
from tracing import layer_metrics, self_times  # noqa: E402
from workloads import REF  # noqa: E402

CLI = [sys.executable, "-m", "walkmax.cli"]
SMALL_MC = ["tail-report", "--measured", "mc", "--x", "1,2,3", "--model", REF,
            "--n-paths", "150000", "--seed", "5"]  # 3 blocks, so shards run threads


def cli(argv, tmp_path):
    return run.run_process(CLI + argv, run.child_env(), tmp_path)


def traced(argv, tmp_path):
    spans = tmp_path / "spans.json"
    op = run.run_process([sys.executable, str(BENCH / "traced_cli.py"), str(spans), "--", *argv],
                         run.child_env(), tmp_path)
    return op, json.loads(spans.read_text())


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        ["root", 0.0, 10.0, None, None, None],
        ["a", 1.0, 4.0, 0, None, None],  # a and b overlap: two worker threads
        ["b", 3.0, 6.0, 0, None, None],
        ["a.child", 2.0, 3.0, 1, None, None],
        ["late", 9.5, 12.0, 0, None, None],  # clipped to its parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 0.5, 2.0, 3.0, 1.0, 2.5])


def test_layer_metrics_totals_and_ratios():
    trace = {"import_s": 1.0, "modules": 900, "spans": [
        ["cli.main", 0.0, 4.0, None, None, None],
        ["montecarlo.estimate_tail_crude", 1.0, 3.0, 0, 3.0,
         {"paths": 100, "hits": 25, "undecided": 0}],
        ["increments.sample", 1.0, 2.0, 1, 0.5, {"draws": 400}],
        ["increments.sample", 1.5, 2.5, 1, 0.5, {"draws": 600}],
    ]}
    m = layer_metrics([trace, trace])
    assert m["cli.main.self_s"] == pytest.approx(2 * 2.0)
    assert m["import.walkmax_s"] == 1.0
    assert m["montecarlo.path_steps"] == 2000
    assert m["montecarlo.estimate_tail_crude.hit_frac"] == pytest.approx(0.25)
    assert m["montecarlo.thread_efficiency"] == pytest.approx(1.5)
    assert m["montecarlo.sample_share"] == pytest.approx(2.0 / 6.0)
    assert m["increments.sample.ns_per_draw"] == pytest.approx(1e9 * 4.0 / 2000)
    assert m["lattice.lindley_fixed_point.s_per_iter"] == 0.0  # no lattice spans


@pytest.fixture(scope="module")
def constants_op(tmp_path_factory):
    op = cli(["constants", "--model", REF, "--step", "0.02"], tmp_path_factory.mktemp("c"))
    assert op.returncode == 0
    return op


def test_corrupted_payload_counts_as_failure(constants_op):
    ledger = run.Ledger()
    ledger.check(0, "constants", constants_op, None)
    assert ledger.failures == []

    payload = json.loads(constants_op.stdout)
    c = payload["constants"]["constant"]
    c["lo"] = c["value"] + 1e-9  # lo > value
    bad = run.Op(0, json.dumps(payload).encode(), b"", 0.0, 0.0, 0)
    ledger.check(1, "constants", bad, None)
    assert ledger.attempted == 2 and len(ledger.failures) == 1
    assert "C bracket" in ledger.failures[0]

    # a failed set-up probe is no workload operation, but is still recorded
    ledger.other("walkmax --version", "exit code 1")
    assert ledger.attempted == 2 and len(ledger.failures) == 1
    assert ledger.other_failures == ["walkmax --version: exit code 1"]


def test_refusals_and_tracebacks_are_failures():
    assert checks.failure(1, b"", b"usage") == "exit code 1"
    assert checks.failure(2, b"", b"refused") is not None
    assert checks.failure(0, b"{}", b"Traceback (most recent call last):\n") == "traceback"


def test_mc_estimates_identical_across_shard_counts(tmp_path):
    one = cli(SMALL_MC + ["--shards", "1"], tmp_path)
    two = cli(SMALL_MC + ["--shards", "2"], tmp_path)
    assert one.returncode == two.returncode and one.returncode in (0, 2)
    p1, p2 = json.loads(one.stdout), json.loads(two.stdout)
    assert p1["manifest"]["params"].pop("shards") == 1
    assert p2["manifest"]["params"].pop("shards") == 2
    assert p1 == p2


def test_traced_payload_bytes_match_untraced(tmp_path):
    for argv in (["constants", "--model", REF, "--step", "0.02"], SMALL_MC + ["--shards", "2"]):
        plain = cli(argv, tmp_path)
        op, trace = traced(argv, tmp_path)
        assert op.returncode == plain.returncode
        assert op.stdout == plain.stdout
        names = {span[0] for span in trace["spans"]}
        assert "cli.main" in names
    assert {"montecarlo.estimate_tail_crude", "increments.sample"} <= names
    m = layer_metrics([trace])
    assert m["montecarlo.estimate_tail_crude.paths"] == 3 * 150000
    assert m["montecarlo.path_steps"] == m["increments.sample.draws"] > 0


def test_benchmark_json_matches_catalogue():
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert {kind for kind, _ in PER_LAYER.values()} <= {"measured", "computed"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-coarse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
