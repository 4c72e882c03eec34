"""tfchirp benchmark: run one workload for a seed and print its metrics.

    python3 perfbench/run.py --workload study_seed --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  With ``--trace 0`` the last line of output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of one traced unit.  Workloads, metrics and the layer map
are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study_seed", "cli_crossing")
BLAS_THREADS = 2  # capped at the cores available; recorded with every result
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0
# derived from shapes, dtypes and tap counts, not measured
COMPUTED = {"transform.tensors", "transform.gflop", "transform.out_mb", "reassign.field_mb"}


def environment(threads):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def worker_env(threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def call_worker(args, env, timeout):
    argv = [sys.executable, os.path.join(HERE, "workloads.py"), *args]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test scale")
    parser.add_argument("--record", default=None, help="append the full result as one JSON line to this file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tfchirp", "__init__.py")):
        print(f"error: no tfchirp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    started = time.perf_counter()
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = worker_env(threads)
    common = ["--workload", args.workload, "--size", args.size]
    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup.append(call_worker([*common, "--probe"], env, 60)["setup_s"])
        workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        result = call_worker(
            [*common, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", workdir],
            env, remaining,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    times = result["unit_times_s"]
    if args.trace:
        values = dict(result["per_layer"])
        for key in ("sct_rel_error", "sct_if_w1_hz", "ct_if_w1_hz", "sst2_rel_error"):
            values[f"metrics.{key}"] = result["accuracy"].get(key, 0.0)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "analysis_s": statistics.median(times),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    env_record = {**environment(threads), **result["versions"]}
    print("env " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    if args.trace:
        print(f"{args.workload} seed {args.seed}: untraced unit {times[0]:.4f} s, traced unit {times[1]:.4f} s")
        print(stage_table(values, result["peak_rss_mb"]))
    else:
        print(f"{args.workload} seed {args.seed}: {len(times)} unit(s), setup probes {len(setup)}")
    for name, unit in units.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"  {name:28s} {values[name]:.6g} {unit}{label}")
    for key, value in result["accuracy"].items():
        print(f"  accuracy {key:19s} {value:.6g}")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  failed_share {result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:.3g}")

    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "size": args.size, "env": env_record,
                "unit_times_s": times, "setup_times_s": setup, "accuracy": result["accuracy"],
                "problems": result["problems"], "result": summary,
            }) + "\n")
    print(json.dumps(summary))
    return 0


def stage_table(v, peak_rss_mb):
    """The per-stage table of ROADMAP's measured baseline, from one traced unit."""
    rows = [
        ("`chirplet_bank_transform`", v["transform.bank_s"]),
        ("`reassignment_field`", v["reassign.field_s"]),
        ("`synchrosqueeze`", v["reassign.squeeze_s"]),
        ("`squeeze_conservation`", v["reassign.conservation_s"]),
        ("`extract_ridges` SCT path", v["ridge.sct_s"]),
        ("`extract_ridges` CT baseline", v["ridge.ct_s"]),
        ("— select / embed / cluster / aggregate (both paths)",
         "{:.2f} / {:.2f} / {:.2f} / {:.2f}".format(
             v["ridge.select_s"], v["ridge.embed_s"], v["ridge.cluster_s"], v["ridge.aggregate_s"])),
        ("`reconstruct_modes` + `sst2` + band", v["reconstruct.modes_s"] + v["reassign.sst2_s"] + v["reconstruct.sst_band_s"]),
        ("CLI import / `sct` / `ridge` / `reconstruct`",
         "{:.2f} / {:.2f} / {:.2f} / {:.2f}".format(
             v["cli.import_s"], v["cli.sct_s"], v["cli.ridge_s"], v["cli.reconstruct_s"])),
        ("**traced unit**", v["trace.analysis_s"]),
        ("**peak RSS (traced)**", f"{peak_rss_mb / 1024:.2f} GB"),
    ]
    lines = ["| stage | s |", "|---|---|"]
    for stage, value in rows:
        lines.append(f"| {stage} | {value:.2f} |" if isinstance(value, float) else f"| {stage} | {value} |")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
