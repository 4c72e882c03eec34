"""Summarize or compare benchmark result sets (JSON lines written by ``run.py --record``).

    python3 perfbench/compare.py RESULTS.jsonl             # spread of each metric against its bound
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl  # gain / regression verdicts

One file: per workload and end-to-end metric, the median, the quartiles and
the spread (interquartile range over the median) next to the metric's bound;
a spread under a third of the bound is ``steady``.

Two files: per workload and end-to-end metric, each side's median and
quartiles and a verdict.  ``gain``: the change is better in at least 9 of 10
seed-paired runs (ties count for neither side) and the medians differ by
more than the parent's interquartile range; ``gain void: more failures``
when the change also fails more units than the parent.  ``regression``: the
change's median is worse than the parent's by more than the bound.
``unresolved``: the parent's spread exceeds the bound and not every change
run beats every parent run.  Then, per seed run on both sides, every
accuracy guard that differs by more than ACCURACY_RTOL of the parent's
value.  Per-layer medians of traced runs are listed side by side.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The guards are deterministic for a seed at a fixed BLAS thread count; a
# reordered floating-point sum moves them by about 1e-15.
ACCURACY_RTOL = 1e-9


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load(path, trace):
    """{workload: {seed: record}} for runs of the given trace mode."""
    out = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == trace:
                out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def values(by_seed, name):
    return {seed: rec["result"]["metrics"][name]["value"] for seed, rec in by_seed.items()}


def failed_units(by_seed):
    return sum(rec["result"]["failed"] for rec in by_seed.values())


def accuracy_changes(parent, change):
    """One line per seed-paired accuracy guard that differs by more than ACCURACY_RTOL."""
    lines = []
    for seed in sorted(set(parent) & set(change)):
        a, b = parent[seed]["accuracy"], change[seed]["accuracy"]
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                lines.append(f"seed {seed} {key}: parent {a.get(key, 'missing')}, change {b.get(key, 'missing')}")
            elif abs(b[key] - a[key]) > ACCURACY_RTOL * abs(a[key]):
                worse = "worse" if b[key] > a[key] else "better"  # every guard is an error: lower is better
                lines.append(f"seed {seed} {key}: parent {a[key]:.10g}, change {b[key]:.10g} "
                             f"({b[key] - a[key]:+.3g}, {worse})")
    return lines


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def fmt(xs):
    q1, med, q3 = quartiles(xs)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}]"


def summarize(path):
    spec = load_spec()
    runs = load(path, 0)
    print(f"{'workload':14s} {'metric':12s} {'n':>3s} {'median [q1, q3]':>34s} {'spread':>7s} {'bound':>6s}  status")
    worst = 0.0
    for workload, by_seed in runs.items():
        for m in spec["end_to_end"]:
            vals = list(values(by_seed, m["name"]).values())
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            status = "steady" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"{workload:14s} {m['name']:12s} {len(vals):3d} {fmt(vals):>34s} {spread:7.3f} "
                  f"{m['bound']:6.2f}  {status} ({m['unit']})")
        print(f"{workload:14s} failed units: {failed_units(by_seed)}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


def verdict(parent, change, better, bound, failed_parent, failed_change):
    sign = 1 if better == "lower" else -1
    common = sorted(set(parent) & set(change))
    pairs = [(parent[s], change[s]) for s in common] or list(zip(parent.values(), change.values()))
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    a_vals, b_vals = list(parent.values()), list(change.values())
    q1, med_a, q3 = quartiles(a_vals)
    med_b = quartiles(b_vals)[1]
    gain_gap = sign * (med_a - med_b) > q3 - q1
    all_better = all(sign * (a - b) > 0 for a in a_vals for b in b_vals)
    if pairs and wins >= 0.9 * len(pairs) and gain_gap:
        result = "gain" if failed_change <= failed_parent else "gain void: more failures"
    elif (q3 - q1) / med_a > bound and not all_better:
        result = "unresolved"
    elif sign * (med_b - med_a) > bound * med_a:
        result = "regression"
    else:
        result = "no regression"
    return f"wins {wins}/{len(pairs)}  {result}"


def compare(parent_path, change_path):
    spec = load_spec()
    parent, change = load(parent_path, 0), load(change_path, 0)
    for workload in sorted(set(parent) & set(change)):
        print(f"== {workload}")
        failed = failed_units(parent[workload]), failed_units(change[workload])
        for m in spec["end_to_end"]:
            a = values(parent[workload], m["name"])
            b = values(change[workload], m["name"])
            print(f"  {m['name']:12s} {m['unit']:3s} parent {fmt(list(a.values()))}  change {fmt(list(b.values()))}  "
                  + verdict(a, b, m["better"], m["bound"], *failed))
        print(f"  failed units: parent {failed[0]}, change {failed[1]}")
        paired = len(set(parent[workload]) & set(change[workload]))
        changed = accuracy_changes(parent[workload], change[workload])
        print(f"  accuracy guards on {paired} paired seeds: "
              + (f"{len(changed)} beyond {ACCURACY_RTOL:g} (relative)" if changed else
                 f"all within {ACCURACY_RTOL:g} (relative)"))
        for line in changed:
            print(f"    {line}")
    parent_t, change_t = load(parent_path, 1), load(change_path, 1)
    for workload in sorted(set(parent_t) & set(change_t)):
        print(f"== {workload} (traced, per layer, medians)")
        for m in spec["per_layer"]:
            a = statistics.median(values(parent_t[workload], m["name"]).values())
            b = statistics.median(values(change_t[workload], m["name"]).values())
            if a or b:
                print(f"  {m['name']:28s} {m['unit']:8s} parent {a:11.5g}  change {b:11.5g}")


def main(argv):
    if len(argv) == 1:
        summarize(argv[0])
    elif len(argv) == 2:
        compare(*argv)
    else:
        print(__doc__, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
