"""The benchmark's workloads and the worker process that runs one of them.

Each workload builds its inputs from the seed outside the timed region, then
repeats one unit of work until the measuring time is used up, checking the
outputs of every unit.  Run through ``run.py``, which pins the BLAS thread
count before this process starts; ``--probe`` instead times a fresh
process's set-up (import, grid, window bank) and exits.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

CONSERVATION_LIMIT = 1e-10  # acceptance criterion 06
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Size:
    study_duration_s: float
    study_alpha_sq: float
    study_half_len: int
    study_cloud: int
    cli_span_s: tuple


FULL = Size(10.0, None, None, None, (1.0, 5.0))  # None: the study's own constants
TINY = Size(4.0, 0.02, 100, 600, (1.0, 2.5))
SIZES = {"full": FULL, "tiny": TINY}
CLI_NOISE_SCALE = 0.1
CLI_T0_S = 1.0
RATE_HZ = 100.0


@dataclass(frozen=True)
class Setup:
    """A workload's grid and analysis-window-bank parameters, shared by its inputs and ``probe``."""

    family: object
    n_time: int
    alpha_sq: float
    half_len: int


# ---------------------------------------------------------------------------
# study_seed: one crossing_study call at random_study's configuration


def study_setup(size):
    from tfchirp import pipeline
    from tfchirp.signal import WindowFamily

    return Setup(
        family=WindowFamily(2, 1.0),
        n_time=int(round(size.study_duration_s * RATE_HZ)) + 1,
        alpha_sq=size.study_alpha_sq or pipeline.STUDY_ALPHA_SQ,
        half_len=size.study_half_len or pipeline.STUDY_HALF_LEN,
    )


def study_inputs(seed, size, workdir):
    from tfchirp import pipeline
    from tfchirp.ridge import RidgeParams
    from tfchirp.signal import WindowFamily, grid_from_resolution
    from tfchirp.synth import random_ict_scene

    setup = study_setup(size)
    cloud = size.study_cloud or pipeline.STUDY_CLOUD_SIZE
    scene = random_ict_scene(seed, sample_rate_hz=RATE_HZ, duration_s=size.study_duration_s)
    x = scene.times_s
    assert len(x) == setup.n_time, (len(x), setup.n_time)
    grid = grid_from_resolution(setup.alpha_sq, setup.n_time, RATE_HZ)
    q = 1.0 - cloud / (grid.n_chirp * grid.n_freq * setup.n_time)
    return {
        "scene": scene,
        "score_mask": (x >= 1.0) & (x <= x[-1] - 1.0),
        "analysis_family": setup.family,
        "recon_family": WindowFamily(0, 1.0),
        "alpha_sq": setup.alpha_sq,
        "noise_scale": pipeline.STUDY_NOISE_SCALE,
        "seed": seed,
        "ridge_params": RidgeParams(
            seed=seed, q=q, sigma_pct=pipeline.STUDY_SIGMA_PCT, min_per_frame=pipeline.STUDY_MIN_PER_FRAME
        ),
        "half_len": setup.half_len,
    }


def study_unit(inputs, traced):
    from tfchirp import pipeline

    rows, _ = pipeline.crossing_study(**inputs)
    return {row.method: row for row in rows}


def study_check(inputs, out):
    import numpy as np

    k = inputs["scene"].components.shape[0]
    expected = {"sct": (k, k), "ct": (0, k), "sst2": (k, 0)}
    problems = []
    for method, (n_rel, n_ot) in expected.items():
        row = out.get(method)
        if row is None:
            problems.append(f"no {method} row")
        elif len(row.rel_errors) != n_rel or len(row.ot_errors) != n_ot:
            problems.append(f"{method}: expected {k} ridges")
        elif not np.all(np.isfinite(row.rel_errors + row.ot_errors)):
            problems.append(f"{method}: non-finite error")
    return problems


def study_accuracy(inputs, out):
    import numpy as np

    return {
        "sct_rel_error": float(np.mean(out["sct"].rel_errors)),
        "sct_if_w1_hz": float(np.mean(out["sct"].ot_errors)),
        "ct_if_w1_hz": float(np.mean(out["ct"].ot_errors)),
        "sst2_rel_error": float(np.mean(out["sst2"].rel_errors)),
    }


# ---------------------------------------------------------------------------
# cli_crossing: the README session (sct --summary, ridge, reconstruct)


def cli_setup(size):
    """The grid and bank `tfchirp sct` builds with its default configuration."""
    from tfchirp.cli import RunConfig

    config = RunConfig()
    lo, hi = size.cli_span_s
    return Setup(
        family=config.family(),
        n_time=int(round((hi - lo) * RATE_HZ)) + 1,
        alpha_sq=config.alpha_sq,
        half_len=config.half_len or config.family().default_half_len(1 / RATE_HZ),
    )


def cli_inputs(seed, size, workdir):
    from tfchirp import tensorio
    from tfchirp.signal import Signal
    from tfchirp.synth import add_student_t_noise, crossing_chirp_pair

    scene = crossing_chirp_pair(sample_rate_hz=RATE_HZ, span=size.cli_span_s)
    assert len(scene.times_s) == cli_setup(size).n_time
    noisy, _ = add_student_t_noise(scene.components.sum(axis=0), 4.0, CLI_NOISE_SCALE, seed)
    tensorio.write_signal_csv(os.path.join(workdir, "scene.csv"), Signal(noisy, scene.sample_rate_hz, CLI_T0_S))
    for k in range(scene.components.shape[0]):
        tensorio.write_signal_csv(
            os.path.join(workdir, f"truth_component{k}.csv"),
            Signal(scene.components[k], scene.sample_rate_hz, CLI_T0_S),
        )
    signal_args = ["--input", "scene.csv", "--format", "csv", "--rate", str(RATE_HZ), "--t0", str(CLI_T0_S)]
    return {
        "workdir": workdir,
        "n_time": len(scene.times_s),
        "digests": [],  # sha256 of the TFC1 file of every `sct` run so far
        "commands": [
            ["sct", *signal_args, "--output", "sct.tfc1", "--summary", "conservation.csv"],
            ["ridge", "--tensor", "sct.tfc1", "--output", "ridges.csv"],
            ["reconstruct", *signal_args, "--ridge-csv", "ridges_full.csv", "--mode-prefix", "mode",
             "--truth", "truth_component1.csv", "truth_component0.csv", "--report", "report.csv"],
        ],
        "outputs": ["sct.tfc1", "conservation.csv", "ridges.csv", "ridges_full.csv", "report.csv"],
    }


def cli_clean(inputs):
    """Remove the previous session's files, so each session writes its own."""
    for fname in inputs["outputs"]:
        path = os.path.join(inputs["workdir"], fname)
        if os.path.exists(path):
            os.unlink(path)


def cli_unit(inputs, traced):
    workdir = inputs["workdir"]
    codes = []
    for command in inputs["commands"]:
        if not traced:
            argv = [sys.executable, "-m", "tfchirp.cli", *command]
        else:
            spans = os.path.join(workdir, f"spans-{command[0]}.json")
            argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), spans, *command]
        proc = subprocess.run(argv, cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=150)
        codes.append((command[0], proc.returncode, proc.stderr.decode(errors="replace").strip()[-300:]))
        if proc.returncode != 0:
            break
    return {"codes": codes}


def _read_table(path):
    import numpy as np

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))


def cli_collect(inputs, out):
    """Read the session's files and spans once the timing is done (outside the timed region)."""
    workdir = inputs["workdir"]
    out["child_spans"] = []
    for command in inputs["commands"]:
        path = os.path.join(workdir, f"spans-{command[0]}.json")
        if os.path.exists(path):
            with open(path) as fh:
                out["child_spans"].append(json.load(fh))
            os.unlink(path)
    if all(code == 0 for _, code, _ in out["codes"]) and len(out["codes"]) == len(inputs["commands"]):
        with open(os.path.join(workdir, "sct.tfc1"), "rb") as fh:
            inputs["digests"].append(hashlib.sha256(fh.read()).hexdigest())
        for name in ("conservation", "ridges", "report"):
            out[name] = _read_table(os.path.join(workdir, f"{name}.csv"))


def cli_check(inputs, out):
    import numpy as np

    problems = [f"`tfchirp {name}` exited {code}: {err}" for name, code, err in out["codes"] if code != 0]
    if problems or "report" not in out:
        return problems or ["session incomplete"]
    _, residual = out["conservation"]
    worst = float(np.max(residual[:, 1]))
    if not worst <= CONSERVATION_LIMIT:
        problems.append(f"conservation residual {worst:.3e} > {CONSERVATION_LIMIT:g}")
    header, ridges = out["ridges"]
    if header != ["t_s", "omega0_hz", "mu0_hzps", "omega1_hz", "mu1_hzps"] or ridges.shape[0] != inputs["n_time"]:
        problems.append("ridge CSV does not hold 2 ridges over every frame")
    elif not np.all(np.isfinite(ridges)):
        problems.append("ridge CSV has non-finite values")
    _, report = out["report"]
    if report.shape != (2, 2) or not np.all(np.isfinite(report)):
        problems.append("reconstruct report does not hold 2 finite errors")
    if len(set(inputs["digests"])) > 1:  # at the pinned thread count the bytes must repeat exactly
        problems.append("TFC1 output of repeated `sct` runs differs")
    return problems


def cli_accuracy(inputs, out):
    return {"sct_rel_error": float(out["report"][1][:, 1].mean())}


def _nothing(*args):
    pass


@dataclass(frozen=True)
class Workload:
    setup_module: str  # what a user imports before the first unit
    setup: Callable  # size -> Setup
    inputs: Callable  # (seed, size, workdir) -> inputs, built outside the timed region
    unit: Callable  # (inputs, traced) -> out: the timed unit
    check: Callable  # (inputs, out) -> list of problems
    accuracy: Callable  # (inputs, out) -> accuracy guards of a checked unit
    prepare: Callable = _nothing  # (inputs): before each unit, untimed
    collect: Callable = _nothing  # (inputs, out): after each unit, untimed
    min_units: int = 1
    rusage: int = resource.RUSAGE_SELF  # whose peak RSS is the workload's


WORKLOADS = {
    "study_seed": Workload("tfchirp", study_setup, study_inputs, study_unit, study_check, study_accuracy),
    "cli_crossing": Workload(
        "tfchirp.cli", cli_setup, cli_inputs, cli_unit, cli_check, cli_accuracy,
        prepare=cli_clean, collect=cli_collect,
        min_units=2,  # the byte-identity check needs two `sct` sessions
        rusage=resource.RUSAGE_CHILDREN,
    ),
}


# ---------------------------------------------------------------------------
# Worker


def probe(name, size):
    """Seconds to import tfchirp and build the workload's grid and window bank."""
    workload = WORKLOADS[name]
    start = time.perf_counter()
    __import__(workload.setup_module)
    from tfchirp.signal import grid_from_resolution, make_window_bank

    setup = workload.setup(size)
    grid_from_resolution(setup.alpha_sq, setup.n_time, RATE_HZ)
    make_window_bank(setup.family, setup.half_len, 1 / RATE_HZ)
    return time.perf_counter() - start


def _attempt(workload, inputs, traced=False):
    """Run one timed unit and check it: (seconds, problems, accuracy, out)."""
    workload.prepare(inputs)
    start = time.perf_counter()
    try:
        out = workload.unit(inputs, traced)
    except Exception as exc:  # a unit that raises counts as failed; the run goes on
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"], {}, {}
    elapsed = time.perf_counter() - start
    workload.collect(inputs, out)
    problems = workload.check(inputs, out)
    return elapsed, problems, ({} if problems else workload.accuracy(inputs, out)), out


def _traced(name, inputs, workdir):
    """One untraced unit, then the same unit traced; their difference is the tracing overhead."""
    import tracing

    workload = WORKLOADS[name]
    untraced_s, problems, _, _ = _attempt(workload, inputs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s, traced_problems, accuracy, out = _attempt(workload, inputs, traced=True)
    finally:
        tracer.uninstall()
    records = [tracer.records(), *out.get("child_spans", [])]
    spans_dir = os.path.join(os.path.dirname(workdir), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    with open(os.path.join(spans_dir, f"{name}.json"), "w") as fh:
        json.dump(records, fh)
    per_layer = tracing.layer_metrics(records, traced_s)
    per_layer["trace.overhead_s"] = traced_s - untraced_s
    return [untraced_s, traced_s], [problems, traced_problems], accuracy, per_layer


def run(name, seed, seconds, trace, size, workdir):
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, size, workdir)
    per_layer = None
    if trace:
        times, problems, accuracy, per_layer = _traced(name, inputs, workdir)
    else:
        times, problems, accuracy = [], [], {}
        start = time.perf_counter()
        while True:
            elapsed, unit_problems, unit_accuracy, _ = _attempt(workload, inputs)
            times.append(elapsed)
            problems.append(unit_problems)
            accuracy = accuracy or unit_accuracy
            if time.perf_counter() - start >= seconds and len(times) >= workload.min_units:
                break
    return {
        "unit_times_s": times,
        "attempted": len(times),
        "failed": sum(1 for p in problems if p),
        "problems": [p for unit in problems for p in unit],
        "peak_rss_mb": resource.getrusage(workload.rusage).ru_maxrss / 1024.0,
        "accuracy": accuracy,
        "per_layer": per_layer,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    size = SIZES[args.size]
    if args.probe:
        print(json.dumps({"setup_s": probe(args.workload, size)}))
        return 0
    os.makedirs(args.workdir, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, size, args.workdir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
