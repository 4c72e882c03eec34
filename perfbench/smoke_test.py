"""Smoke test of the benchmark itself at a tiny size (about a minute on 2 cores).

    python3 perfbench/smoke_test.py      # or: python3 -m pytest perfbench/smoke_test.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit, traced and untraced, with all checks passing, and that corrupted
outputs trip the checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402

os.environ.update(run.worker_env(run.BLAS_THREADS))  # the CLI child processes import tfchirp from src/

import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_printed_with_its_unit():
    spec = _spec()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (workload, result)
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, (workload, trace)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
            if kind == "end_to_end":
                assert all(metric["value"] > 0 for metric in result["metrics"].values()), workload


def test_corrupted_outputs_trip_the_checks():
    import numpy as np

    size = workloads.TINY
    inputs = workloads.study_inputs(0, size, None)
    out = workloads.study_unit(inputs, False)
    assert workloads.study_check(inputs, out) == []
    sct = out["sct"]
    out["sct"] = type(sct)(sct.method, sct.seed, (np.nan, sct.rel_errors[1]), sct.ot_errors)
    assert workloads.study_check(inputs, out)

    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        inputs = workloads.cli_inputs(0, size, workdir)
        out = workloads.cli_unit(inputs, False)
        workloads.cli_collect(inputs, out)
        assert workloads.cli_check(inputs, out) == []
        header, residual = out["conservation"]
        residual = residual.copy()
        residual[3, 1] = 1e-6  # one frame's mass no longer conserved
        assert workloads.cli_check(inputs, {**out, "conservation": (header, residual)})
        header, ridges = out["ridges"]
        ridges = ridges.copy()
        ridges[5, 1] = np.nan
        assert workloads.cli_check(inputs, {**out, "ridges": (header, ridges)})
        assert workloads.cli_check(inputs, {**out, "codes": [("sct", 3, "error: numerical failure")]})
        path = os.path.join(workdir, "sct.tfc1")
        with open(path, "r+b") as fh:  # flip one payload byte: the repeat no longer matches
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        workloads.cli_collect(inputs, out)
        assert workloads.cli_check(inputs, out) == ["TFC1 output of repeated `sct` runs differs"]


if __name__ == "__main__":
    test_every_metric_is_printed_with_its_unit()
    test_corrupted_outputs_trip_the_checks()
    print("smoke test passed")
