import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from tfchirp.errors import ParameterError
from tfchirp.pipeline import run_sct
from tfchirp.reassign import synchrosqueeze
from tfchirp.signal import Signal, WindowFamily, grid_from_resolution
from tfchirp.synth import crossing_chirp_pair

FS = 100.0

# every property test is repeatable: a test's @settings sets max_examples only
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def crossing_scene():
    return crossing_chirp_pair()


@pytest.fixture(scope="session")
def crossing_grid(crossing_scene):
    return grid_from_resolution(0.01, len(crossing_scene.times_s), FS)


@pytest.fixture(scope="session")
def crossing_sct_g2(crossing_scene, crossing_grid):
    """The reassignment field of the crossing scene with the x^2-Gaussian window."""
    return run_sct(crossing_scene.signal(), WindowFamily(2, 1.0), crossing_grid)


@pytest.fixture(scope="session")
def crossing_sct_g0(crossing_scene, crossing_grid):
    return run_sct(crossing_scene.signal(), WindowFamily(0, 1.0), crossing_grid)


@pytest.fixture(scope="session")
def crossing_s_g2(crossing_sct_g2):
    """S of ``crossing_sct_g2``."""
    return synchrosqueeze(crossing_sct_g2)


@pytest.fixture(scope="session")
def crossing_s_g0(crossing_sct_g0):
    return synchrosqueeze(crossing_sct_g0)


@pytest.fixture(scope="session")
def chirp_f1_sct():
    """The signal, grid and reassignment field of the single chirp (phase 4x^2) with the Gaussian window."""
    x = 1.0 + np.arange(401) / FS
    signal = Signal(np.exp(2j * np.pi * 4 * x**2), FS, 1.0)
    grid = grid_from_resolution(0.01, len(signal), FS)
    return signal, grid, run_sct(signal, WindowFamily(0, 1.0), grid)


def sinusoidal_fm_pair(duration_s: float):
    """Two unit FM modes at ``FS`` whose IFs 25 +- 12*sin(2*pi*t/20) Hz cross every 10 s, in
    Student-t noise (4 dof, scale 0.1 on the real and the imaginary parts, ``default_rng(0)``):
    the noisy signal and the [2, n] true IFs."""
    t = np.arange(int(round(duration_s * FS)) + 1) / FS
    swing = 12 * np.sin(2 * np.pi * t / 20)
    wobble = 240 * np.cos(2 * np.pi * t / 20)  # 2*pi times the integral of -swing
    modes = [np.exp(1j * (2 * np.pi * 25 * t - sign * wobble)) for sign in (1, -1)]
    rng = np.random.default_rng(0)
    noise = 0.1 * (rng.standard_t(4, t.size) + 1j * rng.standard_t(4, t.size))
    return Signal(modes[0] + modes[1] + noise, FS), np.stack((25 + swing, 25 - swing))


def top_quantile_mask(values: np.ndarray, q: float) -> np.ndarray:
    return values > np.quantile(values, q)


def interior_mask(n_time: int, sample_rate_hz: float, margin_s: float) -> np.ndarray:
    mask = np.zeros(n_time, dtype=bool)
    k = int(round(margin_s * sample_rate_hz))
    mask[k : n_time - k] = True
    return mask


def traced_volumes(fn, volume_bytes: int):
    """``fn()``, with its ``tracemalloc`` peak and retained memory in volumes.

    Returns ``(result, peak, retained)``; both counts are relative to the
    traced memory when the call starts, divided by ``volume_bytes``.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - base) / volume_bytes, (current - base) / volume_bytes


def write_wav(path: str, samples: np.ndarray, sample_rate_hz: float):
    """Minimal mono PCM16 writer, for the WAV input path's test files.

    A WAV header holds an integral rate: any other rate raises
    ``ParameterError`` before the file is opened.
    """
    if not (sample_rate_hz > 0 and float(sample_rate_hz).is_integer()):
        raise ParameterError(f"WAV sample rate must be a positive integer, got {sample_rate_hz}")
    rate = int(sample_rate_hz)
    pcm = np.clip(np.round(np.asarray(samples, dtype=float) * 32768.0), -32768, 32767).astype("<i2")
    payload = pcm.tobytes()
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16))
        fh.write(b"data" + struct.pack("<I", len(payload)) + payload)
