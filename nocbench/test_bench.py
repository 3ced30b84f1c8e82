"""The benchmark's own tests: determinism, the tail helper, the metric
names and a short smoke run of every workload with its checks on."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nocbench import flit, metrics, serving, stats, sweep
from nocbench.run import MODULES

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "nocbench" / "run.py"


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- determinism -------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(serving.PROFILES))
def test_same_seed_same_arrivals_and_inputs(name):
    profile = serving.PROFILES[name]
    a, b = (serving.make_schedule(profile, 3, 20) for _ in range(2))
    other = serving.make_schedule(profile, 4, 20)
    assert len(a) == len(b) > 0
    for x, y in zip(a, b):
        assert x.rate == y.rate
        np.testing.assert_array_equal(x.due, y.due)
        np.testing.assert_array_equal(x.idx, y.idx)
    assert any(not np.array_equal(x.due, y.due) for x, y in zip(a, other))
    for x, y in zip(serving.make_inputs(3), serving.make_inputs(3)):
        np.testing.assert_array_equal(x, y)
    assert not np.array_equal(serving.make_inputs(3)[0], serving.make_inputs(4)[0])


def test_schedule_covers_every_rate_at_its_rate():
    profile = serving.PROFILES["serve-hot"]
    slices = serving.make_schedule(profile, 0, 20)
    assert {s.rate for s in slices} == set(profile.ladder)
    for s in slices:
        assert (np.diff(s.due) >= 0).all() and s.due[-1] < serving.SLICE_S
        assert abs(len(s.due) - s.rate * serving.SLICE_S) < 6 * math.sqrt(s.rate)


def test_same_seed_same_grid():
    a, b, c = sweep.setup("zoo-sweep", 1), sweep.setup("zoo-sweep", 1), sweep.setup("zoo-sweep", 2)
    assert [p.key for p in a] == [p.key for p in b]
    assert len({p.key for p in a}) == len(a) == len(metrics.ZOO_NETWORKS) * len(sweep.DELTAS)
    assert [p.key for p in a] != [p.key for p in c]


def test_same_seed_same_flit_inputs():
    a, b = flit.setup("lenet-flit", 5), flit.setup("lenet-flit", 5)
    assert a.blob.payload == b.blob.payload
    assert flit.setup("lenet-flit", 6).blob.payload != a.blob.payload


# -- the tail helper -----------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 1001))  # 1..1000
    assert stats.tail(values) == (99.0, 990.0, 1000)  # exactly ten beyond 990
    assert stats.tail(values[:999])[0] == 95.0  # p99 would leave 9 beyond
    assert stats.tail(values[:20]) == (50.0, 10.0, 20)
    pct, value, n = stats.tail(values[:19])
    assert math.isnan(pct) and math.isnan(value) and n == 19


def test_tail_counts_misses_as_slowest():
    values = [1.0] * 990 + [math.inf] * 10
    assert stats.tail(values) == (99.0, 1.0, 1000)
    assert stats.tail(values + [math.inf])[1] == math.inf


def test_calibration_scales_to_the_nominal_kernel_time():
    assert stats.calibrated(2.0, [stats.SPIN_REF_MS] * 2) == 2.0
    assert stats.calibrated(2.0, [2 * stats.SPIN_REF_MS, 2 * stats.SPIN_REF_MS]) == 1.0
    assert stats.calibrated(3.0, [10.0, 20.0]) == 3.0


# -- metric names ---------------------------------------------------------------
def test_benchmark_json_matches_the_metric_tables():
    doc = _bench_json()
    assert doc == metrics.benchmark_doc(doc["run_seconds"])
    assert {w["name"] for w in doc["workloads"]} == set(MODULES)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_per_layer_metric_names_known_end_to_end_targets():
    for name, (_, better, moves) in metrics.PER_LAYER.items():
        assert better in ("lower", "higher"), name
        for e2e, workload in moves:
            assert e2e in metrics.END_TO_END and workload in metrics.WORKLOADS, name


# -- smoke runs -------------------------------------------------------------------
def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(MODULES))
def test_smoke_run_passes_checks_and_prints_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    doc = _bench_json()
    table = doc["per_layer"] if trace == "1" else doc["end_to_end"]
    assert {n: {"unit": m["unit"]} for n, m in ((m["name"], m) for m in table)} == {
        n: {"unit": v["unit"]} for n, v in result["metrics"].items()
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_lenet_flit_exact_metrics_at_seed_0():
    done = _run("--workload", "lenet-flit", "--seed", "0", "--seconds", "1", "--trace", "1")
    values = {k: v["value"] for k, v in json.loads(done.stdout.splitlines()[-1])["metrics"].items()}
    assert (values["noc.sim_cycles.unc"], values["noc.sim_cycles.cmp"]) == (16561, 14428)
    assert round(values["noc.sim_latency_norm"], 4) == 0.8712
    assert round(values["noc.sim_energy_norm"], 4) == 0.8305
    assert round(values["noc.txn_err_max"], 4) == 0.2257


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "nocbench", tmp_path / "nocbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "nocbench/run.py", "--workload", "serve-hot", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
