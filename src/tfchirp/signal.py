"""Core data types: signals, analytic window banks, and the TFC grid.

All arrays are 0-based.  Frequency bin ``m`` of a grid covers
``m / (2M) * fs`` Hz for ``m = 0..M``, and chirp-rate slot ``l`` covers
``(l - (M - 1)) * fs**2 / (4 M**2)`` Hz/s for ``l = 0..2M-1``, so the slot
``l = M - 1`` is the zero-chirp slice.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ResourceError

# Half-window policy: ceil(4.3 / sqrt(alpha_w) / dt) samples puts the Gaussian
# factor at the window edge far below 1e-8 of its peak, so truncation is
# invisible at float32 scale.
HALF_LEN_FACTOR = 4.3
MAX_TAPS = np.iinfo(np.intp).max // 16  # numpy refuses a longer complex window with a ValueError, not a MemoryError


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled complex (or real) time series."""

    samples: np.ndarray
    sample_rate_hz: float
    t0_s: float = 0.0

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1 or samples.size < 2:
            raise ParameterError("signal must be a 1-d series of length >= 2")
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise ParameterError("signal samples must be finite")
        if not (0 < self.sample_rate_hz < np.inf):
            raise ParameterError("sample_rate_hz must be positive and finite")
        object.__setattr__(self, "samples", samples)
        samples.flags.writeable = False

    def __len__(self):
        return self.samples.size

    @property
    def dt_s(self) -> float:
        return 1.0 / self.sample_rate_hz

    @property
    def times_s(self) -> np.ndarray:
        return self.t0_s + np.arange(self.samples.size) / self.sample_rate_hz


@dataclass(frozen=True)
class WindowFamily:
    """Window ``g(x) = x**n * exp(-pi * alpha_w * x**2)``."""

    n: int = 0
    alpha_w: float = 1.0

    def __post_init__(self):
        if not (self.alpha_w > 0):
            raise ParameterError("alpha_w must be positive")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 0):
            raise ParameterError("n must be a nonnegative integer")

    def g(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x**self.n * np.exp(-np.pi * self.alpha_w * x * x)

    def default_half_len(self, dt_s: float) -> int:
        half_len = HALF_LEN_FACTOR / math.sqrt(self.alpha_w) / dt_s
        if not 2 * half_len + 1 <= MAX_TAPS:
            raise ResourceError(f"the window of alpha_w {self.alpha_w} at dt_s {dt_s} has over {MAX_TAPS} taps")
        return int(math.ceil(half_len))


@dataclass(frozen=True)
class WindowBank:
    """A window and the windows its companions are formed from, on a symmetric grid.

    ``h``, ``th``, ``t2h`` hold exact samples of ``g``, ``x*g``, ``x**2*g``
    and ``basis`` of ``x**(n-1)*e`` (n >= 1) and ``x**(n-2)*e`` (n >= 2),
    with ``e`` the Gaussian factor of ``g``, at ``x = j*dt_s`` for
    ``j = -half_len..half_len``.
    """

    family: WindowFamily
    half_len: int
    dt_s: float
    h: np.ndarray = field(repr=False, default=None)
    th: np.ndarray = field(repr=False, default=None)
    t2h: np.ndarray = field(repr=False, default=None)
    basis: tuple = field(repr=False, default=())

    @property
    def length(self) -> int:
        return 2 * self.half_len + 1

    @property
    def offsets_s(self) -> np.ndarray:
        return np.arange(-self.half_len, self.half_len + 1) * self.dt_s

    def check_rate(self, signal: Signal):
        """Raise ``ParameterError`` unless the bank is sampled at ``signal``'s rate."""
        if abs(self.dt_s * signal.sample_rate_hz - 1.0) > 1e-9:
            raise ParameterError("window bank dt_s does not match the signal sample rate")


def make_window_bank(family: WindowFamily, half_len: int, dt_s: float) -> WindowBank:
    """Sample a window family's bank analytically.

    ``half_len`` is the number of samples on each side of the center; pass
    ``family.default_half_len(dt_s)`` for the library's truncation policy.
    """
    if half_len < 1:
        raise ParameterError("half_len must be >= 1")
    if 2 * half_len + 1 > MAX_TAPS:
        raise ResourceError(f"a window of {2 * half_len + 1} taps is longer than any array ({MAX_TAPS} taps)")
    if not (dt_s > 0):
        raise ParameterError("dt_s must be positive")
    x = np.arange(-half_len, half_len + 1) * dt_s
    with np.errstate(over="ignore", invalid="ignore"):  # samples past the float range are refused below
        g = family.g(x)
        e, n = np.exp(-np.pi * family.alpha_w * x * x), family.n
        bank = WindowBank(
            family=family,
            half_len=half_len,
            dt_s=dt_s,
            h=g,
            th=x * g,
            t2h=x * x * g,
            basis=tuple(x ** (n - d) * e for d in (1, 2) if n >= d),
        )
    for seq in (bank.h, bank.th, bank.t2h, *bank.basis):
        if not np.isfinite(seq).all():
            raise ParameterError(f"the {bank.length}-tap window at dt_s {dt_s} has samples outside the float range")
        seq.flags.writeable = False
    return bank


@dataclass(frozen=True)
class TfcGrid:
    """Discrete time-frequency-chirp-rate grid.

    ``M = floor(0.5 / alpha_sq)`` sets ``M + 1`` frequency bins covering
    ``[0, fs/2]`` and ``2M`` chirp-rate bins covering chirp indices
    ``-(M-1)..M`` in steps of ``fs**2 / (4 M**2)`` Hz/s.
    """

    alpha_sq: float
    M: int
    n_time: int
    sample_rate_hz: float

    @property
    def n_freq(self) -> int:
        return self.M + 1

    @property
    def n_chirp(self) -> int:
        return 2 * self.M

    def _check_domain(self):
        """Raise ``ParameterError`` unless both steps, and with them the sample rate, are positive finite floats."""
        with suppress(OverflowError):  # Python float arithmetic past the float range raises where numpy's gives inf
            if 0 < self.freq_step_hz < np.inf and 0 < self.chirp_step_hzps < np.inf:
                return
        raise ParameterError(f"sample_rate_hz {self.sample_rate_hz} puts the grid's steps outside the float range")

    @property
    def freq_step_hz(self) -> float:
        return self.sample_rate_hz / (2 * self.M)

    @property
    def chirp_step_hzps(self) -> float:
        return self.sample_rate_hz**2 / (4 * self.M**2)

    @property
    def chirp_indices(self) -> np.ndarray:
        """Signed chirp index for each chirp slot (zero chirp at slot M-1)."""
        return np.arange(-(self.M - 1), self.M + 1)

    @property
    def freqs_hz(self) -> np.ndarray:
        return np.arange(self.n_freq) * self.freq_step_hz

    @property
    def chirps_hzps(self) -> np.ndarray:
        return self.chirp_indices * self.chirp_step_hzps


def grid_from_resolution(alpha_sq: float, n_time: int, sample_rate_hz: float) -> TfcGrid:
    """Build the TFC grid for a squeezing resolution ``alpha_sq``; ``TfcGrid._check_domain`` checks its rate."""
    if not (0 < alpha_sq <= 0.5):
        raise ParameterError("alpha_sq must lie in (0, 0.5]")
    if n_time < 1:
        raise ParameterError("n_time must be >= 1")
    # 0.5 / alpha_sq is inf below alpha_sq 2.8e-309: M is then taken exactly, for a grid that no array holds
    p, q = alpha_sq.as_integer_ratio()
    M = math.floor(0.5 / alpha_sq) if 0.5 / alpha_sq < math.inf else q // (2 * p)
    return TfcGrid(alpha_sq=alpha_sq, M=M, n_time=n_time, sample_rate_hz=sample_rate_hz)


def _frame_range(frames: slice, n_time: int) -> tuple:
    """(start, stop) of the slice ``frames`` of a record of ``n_time`` frames, a ``None`` bound meaning that
    end of the record: the one rule of the tile readers, which refuse a non-unit step or a range that is
    empty or runs outside the record."""
    start, stop = frames.start or 0, n_time if frames.stop is None else frames.stop
    if frames.step not in (None, 1) or not 0 <= start < stop <= n_time:
        raise ParameterError(f"frames must be a unit-step range within the {n_time} frames, got {frames}")
    return start, stop


def round_half_away(x):
    """Deterministic round-half-away-from-zero (scalar or array)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)
