"""The benchmark's own checks. From the repository root:

    python3 -m pytest -q bench/test_bench.py

About a minute: every workload is traced twice.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Counts worked out by hand from the workload configs.
EXPECTED = {
    "monte_carlo": {
        "models.streams": 3 * 20_000 + 6 * 100,
        "models.path_values": 20_000 * (50 + 16 + 12) + 100 * (2000 + 8000 + 4 * 32000),
        "models.path_mb": 8 * (20_000 * (50 + 16 + 12) + 100 * (2000 + 8000 + 4 * 32000)) / 2**20,
        "models.path_block_reuse": (3 + 3) / (3 + 6),
        "models.product_moment_calls": 12**4,
        "quadform.sign_configs": 2 ** (16 + 1),
        "longrun.estimate_calls": 6 * 100,
        "longrun.lag_products": 100 * (12 + 20 + 2 + 8 + 32 + 128),
        "runner.records": 3 + 6,
    },
    "spectral_esd": {
        "models.streams": 100 + 200,
        "models.path_values": 50 * 100 + 100 * 200,
        "spectral.eigen_dim": 50 + 100,
        "spectral.stieltjes_points": 50,
        "runner.records": 2 + 50,
    },
}


def test_benchmark_json_names_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]
    } == tracer.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_samples_repeat_their_counts(workload, tmp_path):
    env = {**os.environ, **dict.fromkeys(run.THREAD_VARS, "1")}
    samples = [
        run.launch(workload, 1, tmp_path / f"traced{k}", env, "--trace") for k in range(2)
    ]
    assert None not in samples
    first, second = (sample["layers"] for sample in samples)
    assert set(first) == set(tracer.PER_LAYER) - {"trace.overhead_frac"}
    assert {name: first[name] for name in tracer.COUNTS} == {
        name: second[name] for name in tracer.COUNTS
    }
    for name, value in EXPECTED[workload].items():
        assert first[name] == value, name
    assert run.judge(samples, {}) == []
    for layers in (first, second):
        assert abs(layers["trace.unaccounted_frac"]) <= run.MAX_UNACCOUNTED


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectral_esd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
