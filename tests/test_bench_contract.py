"""The benchmark's contract with the library, read from ``perfbench/tracing.py``.

The tracer wraps public ``tfchirp`` functions by their ``layer.name`` and its
counter hooks read some of their arguments by name.  A rename in the library
breaks neither: the span or the hook just never fires, and a per-layer
metric reads 0.  These tests name every such break.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# a span the traced CLI records itself, and a stale name whose metrics are known to read 0
EXEMPT = {"cli.import", "transform.chirplet_bank_transform"}


def _load_tracing():
    """``perfbench/tracing.py`` as a module, leaving no bytecode cache beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    cache, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = cache
    return module


tracing = _load_tracing()
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
