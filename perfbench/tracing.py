"""Span tracing of tfchirp's public functions, installed from outside the package.

`Tracer.install` wraps every public function of the nine layers and swaps
the wrapper into every ``tfchirp`` namespace that holds the original, so a
traced unit executes exactly the calls of an untraced one.  Spans are kept
in memory as (id, name, start, end, parent) and written out with the run id
when the unit ends.  Counters are taken by hooks after a span closes; the
hook's own time is recorded as a ``trace.hook`` span so that it is charged
to tracing, not to the layer that called the function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import uuid

import numpy as np
from tfchirp.signal import round_half_away  # bound before install, so hooks leave no spans

LAYERS = (
    "signal", "transform", "reassign", "ridge", "reconstruct",
    "metrics", "pipeline", "tensorio", "cli",
)


class Tracer:
    def __init__(self, run_id: str | None = None):
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.spans = []  # (id, name, start, end, parent)
        self.counters = {}
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    def add_span(self, name, start, end, parent=None):
        self.spans.append((len(self.spans), name, start, end, parent))

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent)
            if hook is not None:
                hid = len(spans)
                spans.append(None)
                stack.append(hid)
                h0 = time.perf_counter()
                try:
                    hook(self, signature.bind(*args, **kwargs).arguments, result)
                finally:
                    stack.pop()
                    spans[hid] = (hid, "trace.hook", h0, time.perf_counter(), parent)
            return result

        return traced

    def install(self):
        """Wrap the layers' public functions wherever tfchirp code looks them up."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tfchirp.{layer}")
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tfchirp" or mod_name.startswith("tfchirp.")):
                continue
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((namespace, attr, obj))
                    namespace[attr] = wrappers[obj]

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    def records(self):
        """Spans as dicts carrying the run id, plus the counters."""
        spans = [
            {"run": self.run_id, "id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
            for s in self.spans
        ]
        return {"spans": spans, "counters": self.counters}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.records(), fh)


# ---------------------------------------------------------------------------
# Counter hooks: (tracer, bound arguments, result)


def _bank(tr, args, banks):
    tensors = [t.values for t in (banks.h, banks.h_prime, banks.h_second, banks.th, banks.th_prime, banks.t2h)]
    entries = tensors[0].size
    tr.peak("transform.tensors", len(tensors))
    tr.add("transform.gflop", 8.0 * entries * banks.bank.length * len(tensors) / 1e9)
    tr.peak("transform.out_mb", sum(t.nbytes for t in tensors) / 1e6)


def _field(tr, args, field):
    tr.add("reassign.entries", field.defined.size)
    tr.add("reassign.defined", int(np.count_nonzero(field.defined)))
    tr.peak("reassign.field_mb", (field.omega.nbytes + field.mu.nbytes + field.defined.nbytes) / 1e6)


def _squeeze(tr, args, squeezed):
    field, grid = args["field"], squeezed.grid
    sel = field.defined
    m = round_half_away(field.omega[sel] / grid.freq_step_hz)
    l = round_half_away(field.mu[sel] / grid.chirp_step_hzps) + (grid.M - 1)
    in_grid = (l >= 0) & (l < grid.n_chirp) & (m >= 0) & (m < grid.n_freq)
    tr.add("reassign.squeezed", int(np.count_nonzero(in_grid)))
    tr.add("reassign.squeeze_sources", int(in_grid.size))


def _select(tr, args, cloud):
    key = "ridge.aug_points" if args.get("min_per_frame", 0) > 0 else "ridge.cloud_points"
    tr.peak(key, len(cloud))


def _ridges(tr, args, ridges):
    tr.add("ridge.observed", int(np.count_nonzero(ridges.observed)))
    tr.add("ridge.observed_of", int(ridges.observed.size))


def _modes(tr, args, modes):
    full = modes.valid.all(axis=0)
    tr.add("reconstruct.frames_solved", int(np.count_nonzero(full & ~modes.degraded)))
    tr.add("reconstruct.frames_degraded", int(np.count_nonzero(modes.degraded)))


def _written(tr, args, result):
    tr.add("tensorio.bytes_written", os.path.getsize(args["path"]))


def _read(tr, args, result):
    tr.add("tensorio.bytes_read", os.path.getsize(args["path"]))


HOOKS = {
    "transform.chirplet_bank_transform": _bank,
    "reassign.reassignment_field": _field,
    "reassign.synchrosqueeze": _squeeze,
    "ridge.select_high_energy": _select,
    "ridge.extract_ridges": _ridges,
    "reconstruct.reconstruct_modes": _modes,
    "tensorio.write_tensor": _written,
    "tensorio.write_signal_csv": _written,
    "tensorio.write_csv_table": _written,
    "tensorio.read_tensor": _read,
    "tensorio.read_signal_csv": _read,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans and counters of one traced unit

# metric -> span names; a span inside another span of the same metric is not counted again
TIMED = {
    "signal.bank_s": ("signal.make_window_bank",),
    "transform.bank_s": ("transform.chirplet_bank_transform",),
    "reassign.field_s": ("reassign.reassignment_field",),
    "reassign.squeeze_s": ("reassign.synchrosqueeze",),
    "reassign.conservation_s": ("reassign.squeeze_conservation",),
    "reassign.sst2_s": ("reassign.sst2",),
    "ridge.select_s": ("ridge.select_high_energy",),
    "ridge.embed_s": ("ridge.spectral_embed",),
    "ridge.cluster_s": ("ridge.kmeans_cluster",),
    "ridge.aggregate_s": ("ridge.ridges_from_sources", "ridge.ridges_from_clusters"),
    "reconstruct.modes_s": ("reconstruct.reconstruct_modes",),
    "reconstruct.sst_band_s": ("reconstruct.sst_band_reconstruct",),
    "metrics.score_s": ("metrics.rel_error", "metrics.ot_if_metric"),
    "tensorio.write_s": ("tensorio.write_tensor",),
    "tensorio.read_s": ("tensorio.read_tensor",),
    "tensorio.csv_s": ("tensorio.read_signal_csv", "tensorio.write_signal_csv", "tensorio.write_csv_table"),
    "cli.import_s": ("cli.import",),
    "cli.sct_s": ("cli.cmd_sct",),
    "cli.ridge_s": ("cli.cmd_ridge",),
    "cli.reconstruct_s": ("cli.cmd_reconstruct",),
}


# counters that keep their largest value over calls and processes; the rest add up
PEAK_COUNTERS = {"transform.tensors", "transform.out_mb", "reassign.field_mb", "ridge.cloud_points", "ridge.aug_points"}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(records, analysis_s):
    """Per-layer metric values of one traced unit.

    ``records`` are `Tracer.records` of every process the unit ran;
    ``analysis_s`` is the traced unit's wall time.
    """
    spans = {}
    counters = {}
    for rec in records:
        for s in rec["spans"]:
            spans[(s["run"], s["id"])] = s
        for key, value in rec["counters"].items():
            if key in PEAK_COUNTERS:
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value

    def ancestors(s):
        while s["parent"] is not None:
            s = spans[(s["run"], s["parent"])]
            yield s["name"]

    child_time = {}
    for s in spans.values():
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]

    out = {name: 0.0 for name in TIMED}
    for metric, names in TIMED.items():
        for s in spans.values():
            if s["name"] in names and not any(a in names for a in ancestors(s)):
                out[metric] += s["end"] - s["start"]
    out["ridge.sct_s"] = out["ridge.ct_s"] = 0.0
    for s in spans.values():
        if s["name"] == "ridge.extract_ridges":
            path = "ridge.ct_s" if "pipeline.ct_ridges" in ancestors(s) else "ridge.sct_s"
            out[path] += s["end"] - s["start"]

    self_time = {layer: 0.0 for layer in LAYERS + ("trace",)}
    for key, s in spans.items():
        layer = s["name"].split(".", 1)[0]
        self_time[layer] += s["end"] - s["start"] - child_time.get(key, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]

    out["transform.tensors"] = counters.get("transform.tensors", 0)
    out["transform.gflop"] = counters.get("transform.gflop", 0.0)
    out["transform.gflop_per_s"] = _ratio(out["transform.gflop"], out["transform.bank_s"])
    out["transform.out_mb"] = counters.get("transform.out_mb", 0.0)
    out["reassign.field_mb"] = counters.get("reassign.field_mb", 0.0)
    out["reassign.defined_share"] = _ratio(counters.get("reassign.defined", 0), counters.get("reassign.entries", 0))
    out["reassign.squeezed_share"] = _ratio(
        counters.get("reassign.squeezed", 0), counters.get("reassign.squeeze_sources", 0)
    )
    out["ridge.cloud_points"] = counters.get("ridge.cloud_points", 0)
    out["ridge.aug_points"] = counters.get("ridge.aug_points", 0)
    out["ridge.observed_share"] = _ratio(counters.get("ridge.observed", 0), counters.get("ridge.observed_of", 0))
    for key in ("reconstruct.frames_solved", "reconstruct.frames_degraded",
                "tensorio.bytes_written", "tensorio.bytes_read"):
        out[key] = counters.get(key, 0)
    covered = sum(self_time.values())
    out["trace.analysis_s"] = analysis_s
    out["trace.hook_s"] = self_time["trace"]
    out["trace.covered_share"] = _ratio(covered, analysis_s)
    out["trace.spans"] = len(spans)
    return out

