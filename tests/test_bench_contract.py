"""The benchmark's contract with the library, read from ``perfbench/tracing.py``.

The tracer wraps public ``tfchirp`` functions by their ``layer.name`` and its
counter hooks read some of their arguments by name.  A rename in the library
breaks neither: the span or the hook just never fires, and a per-layer
metric reads 0.  These tests name every such break.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# a span the traced CLI records itself, and a stale name whose metrics are known to read 0
EXEMPT = {"cli.import", "transform.chirplet_bank_transform"}
# counters the hooks take on one study unit; the transform.* counters hang on the
# stale name above, and ridge.cloud_points is keyed on a selection the study never makes
COUNTED = (
    "reassign.defined_share", "reassign.squeezed_share", "reassign.field_mb",
    "ridge.aug_points", "ridge.observed_share", "reconstruct.frames_solved",
)


def _load(path, name):
    """A ``perfbench`` file as a module, leaving no bytecode cache beside it."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    cache, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = cache
    return module


tracing = _load(TRACING, "perfbench_tracing")
TRACED = sorted((set(tracing.HOOKS) | {name for names in tracing.TIMED.values() for name in names}) - EXEMPT)
HOOKED = sorted(set(tracing.HOOKS) - EXEMPT)


def _function(name):
    """The public function a traced name wraps, or None."""
    layer, _, attr = name.partition(".")
    if layer not in tracing.LAYERS or attr.startswith("_"):
        return None
    module = importlib.import_module(f"tfchirp.{layer}")
    fn = getattr(module, attr, None)
    return fn if inspect.isfunction(fn) and fn.__module__ == module.__name__ else None


def _arguments_read(hook):
    return set(re.findall(r"""args(?:\[|\.get\()["'](\w+)["']""", inspect.getsource(hook)))


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_is_a_public_function(name):
    assert _function(name) is not None, f"{name} names no public tfchirp function"


@pytest.mark.parametrize("name", HOOKED)
def test_hook_reads_parameters_of_its_function(name):
    params = inspect.signature(_function(name)).parameters
    missing = _arguments_read(tracing.HOOKS[name]) - set(params)
    assert not missing, f"the {name} hook reads {sorted(missing)}, which are not its parameters"


def test_hook_arguments_are_found():
    # the check above is only as good as the pattern that finds the arguments
    assert set().union(*(_arguments_read(tracing.HOOKS[name]) for name in HOOKED)) == {"field", "min_per_frame", "path"}


def test_hooks_count_a_traced_study_unit(tmp_path):
    # the hooks read the arguments and results of the functions they wrap; a
    # change to those leaves the span in place but the counter at 0
    workloads = _load(TRACING.parent / "workloads.py", "perfbench_workloads")
    inputs = workloads.study_inputs(0, workloads.TINY, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = workloads.study_unit(inputs, True)
    finally:
        tracer.uninstall()
    assert not workloads.study_check(inputs, out)
    metrics = tracing.layer_metrics([tracer.records()], 1.0)
    assert not [name for name in COUNTED if not metrics[name] > 0]


def test_cli_crossing_session_passes_its_check(tmp_path, monkeypatch):
    # the cli_crossing workload's session (sct, ridge, reconstruct) at the tiny size: a change to the
    # commands, options or outputs it runs fails here, not only in the benchmark
    workloads = _load(TRACING.parent / "workloads.py", "perfbench_workloads")
    src = str(TRACING.parent.parent / "src")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    inputs = workloads.cli_inputs(0, workloads.TINY, str(tmp_path))
    out = workloads.cli_unit(inputs, False)
    workloads.cli_collect(inputs, out)
    assert workloads.cli_check(inputs, out) == []


@pytest.mark.parametrize("seed", [0, 7])
def test_study_seed_inputs_are_random_studys(tmp_path, monkeypatch, seed):
    # study_seed is described as one crossing_study call at random_study's
    # configuration; the workload rebuilds that configuration by hand
    from tfchirp import pipeline

    workloads = _load(TRACING.parent / "workloads.py", "perfbench_workloads")
    signature = inspect.signature(pipeline.crossing_study)
    captured = {}

    class Captured(Exception):
        pass

    def capture(*args, **kwargs):
        captured.update(signature.bind(*args, **kwargs).arguments)
        raise Captured

    monkeypatch.setattr(pipeline, "crossing_study", capture)
    with pytest.raises(Captured):
        pipeline.random_study([seed])
    expected = workloads.study_inputs(seed, workloads.FULL, str(tmp_path))
    assert sorted(captured) == sorted(expected)
    for name, want in expected.items():
        got = captured[name]
        if name == "scene":
            for field in dataclasses.fields(want):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), f"scene.{field.name}"
        elif isinstance(want, np.ndarray):
            assert np.array_equal(got, want), name
        else:
            assert got == want, name
