"""Discrete chirplet transform, STFT baseline, and the window transform ``g_check``.

The discrete transform of a length-N signal against a window of 2K+1 samples
is, for chirp index l, frequency bin m and frame n,

    T[l, m, n] = sum_k f[n + k - K] * h[k] *
                 exp(-2j*pi * p(k) * m / (2M)) * exp(-1j*pi * l * p(k)**2 / (4M**2))

with f zero outside its support, k = 0..2K and phases referenced at the
window center, ``p(k) = k - K``: the transform samples the continuous
transform on the (frequency x chirp-rate) product grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, ShapeError, UnsupportedWindowError
from .signal import Signal, TfcGrid, WindowBank, WindowFamily, _frame_range

PHASE_BLOCK = 1 << 17  # phase entries (rows x taps) per block of a full volume
ALIAS_TOL = 1e-3  # window mass share beyond Nyquist above which a slot's atom counts as undersampled


@dataclass(frozen=True)
class TfcTensor:
    """Complex TFC volume of shape [n_chirp, n_freq, n_time]."""

    values: np.ndarray
    grid: TfcGrid

    def __post_init__(self):
        expected = (self.grid.n_chirp, self.grid.n_freq, self.grid.n_time)
        if self.values.shape != expected:
            raise ShapeError(f"tensor shape {self.values.shape} != grid shape {expected}")


@dataclass(frozen=True)
class TfMatrix:
    """Time-frequency matrix of shape [n_freq, n_time]."""

    values: np.ndarray
    grid: TfcGrid

    def __post_init__(self):
        expected = (self.grid.n_freq, self.grid.n_time)
        if self.values.shape != expected:
            raise ShapeError(f"matrix shape {self.values.shape} != grid shape {expected}")


@dataclass(frozen=True)
class StreamedBank:
    """T^h of a signal on ``rows``, the ascending flat rows ``resolvable_slots`` keeps, [rows.size, n_time],
    and ``peak``, max |T^h| over them; the companion transforms are formed per row block, never on an aliased row."""

    values: np.ndarray
    rows: np.ndarray
    peak: float
    grid: TfcGrid
    signal: Signal
    bank: WindowBank

    def companion_blocks(self, rows: np.ndarray, cols=slice(None)):
        """``(part, companions_of)``, one per product of ``_windowed_sums`` over the flat (chirp, frequency)
        rows ``rows`` and the frames of the slice ``cols``: ``companions_of(sub, T)`` is the tuple
        (T1, T2, U, U1, V) of the rows ``rows[part][sub]``, given T^h there, ``T``."""
        bank = self.bank
        for part, sums in _windowed_sums(self.signal, [bank.th, bank.t2h, *bank.basis], self.grid, rows, cols):
            yield part, lambda sub, T, sums=sums: _companions(bank.family, T, sums[sub])

    def magnitude_tile(self, frames):
        """|T^h| over the frames of the unit-step slice ``frames``, frame-major, [width, n_chirp * n_freq]:
        the resolvable rows' magnitudes, and 0 on every aliased row, which the field leaves undefined."""
        start, stop = _frame_range(frames, self.grid.n_time)
        out = np.zeros((stop - start, self.grid.n_chirp * self.grid.n_freq))
        out[:, self.rows] = np.abs(self.values[:, start:stop]).T
        return out


def _companions(family: WindowFamily, T, sums) -> tuple:
    """The companion transforms (T1, T2, U, U1, V) against g', g'', x*g, x*g', x**2*g.

    ``T`` is the transform against ``h`` and ``sums[:, i]`` those against
    ``th``, ``t2h`` and the bank's basis, in that order.  For
    ``g = x**n * e`` with ``e = exp(-pi*a*x**2)`` the companions are exact
    linear combinations of these:

        th'  = n*h - 2*pi*a*t2h
        h'   = n*x**(n-1)*e - 2*pi*a*th
        h''  = n*(n-1)*x**(n-2)*e - 2*pi*a*(2n+1)*h + 4*pi**2*a**2*t2h
    """
    n, a = family.n, family.alpha_w
    c1, c2 = -2 * np.pi * a, 4 * np.pi**2 * a**2
    U, V = sums[:, 0], sums[:, 1]
    T1 = c1 * U
    T2 = (c1 * (2 * n + 1)) * T + c2 * V
    if n >= 1:
        T1 += n * sums[:, 2]
    if n >= 2:
        T2 += (n * (n - 1)) * sums[:, 3]
    return T1, T2, U, n * T + c1 * V, V


def _check_window(window: np.ndarray) -> np.ndarray:
    window = np.asarray(window, dtype=float)
    if window.ndim != 1 or window.size % 2 != 1:
        raise ParameterError("window must be a 1-d sequence of odd length")
    return window


def _phase_factors(grid: TfcGrid, half_len: int) -> tuple:
    """The chirp and frequency phase factors whose product is a row's phases."""
    M = grid.M
    p = np.arange(2 * half_len + 1) - half_len
    m = np.arange(grid.n_freq)
    l = grid.chirp_indices
    freq_phase = np.exp(-2j * np.pi * np.outer(m, p) / (2 * M))  # [n_freq, 2K+1]
    chirp_phase = np.exp(-1j * np.pi * np.outer(l, p**2) / (4 * M**2))  # [n_chirp, 2K+1]
    return chirp_phase, freq_phase


def _padded_segments(signal: Signal, half_len: int) -> np.ndarray:
    """Matrix S[k, n] = f[n + k - K] with zero padding, shape [2K+1, N]."""
    n = len(signal)
    fp = np.zeros(n + 2 * half_len, dtype=np.complex128)
    fp[half_len : half_len + n] = signal.samples
    return sliding_window_view(fp, n)  # row k is fp[k : k + n]


def _windowed_sums(signal: Signal, windows, grid: TfcGrid, rows: np.ndarray, cols=slice(None)):
    """The module docstring's sum against several windows of one length, on the flat (chirp, frequency)
    rows ``rows`` (flat row ``l_slot * n_freq + m``) over the frames of the slice ``cols``.

    Yields ``(part, sums)`` for consecutive exact slices ``part`` of ``rows``: ``sums``, [part size,
    len(windows), width], holds the rows ``rows[part]`` against each window, in one matrix product of
    those rows' phases (never the whole grid's) with the windowed segments ``hstack(w * S)`` of those
    frames, stacked once, here.  A product takes at most ``PHASE_BLOCK // taps`` rows, which bounds its
    phases as T^h's.  A row's sums depend neither on the other rows nor on the range.  A full volume
    passes one window: stacking windows changes how BLAS blocks the product and with it the last bits.
    """
    if grid.n_time != len(signal):
        raise ShapeError(f"grid.n_time={grid.n_time} != signal length {len(signal)}")
    grid._check_domain()
    half_len = (windows[0].size - 1) // 2
    chirp_phase, freq_phase = _phase_factors(grid, half_len)
    S = _padded_segments(signal, half_len)[:, cols]
    # [2K+1, len(windows), width] viewed as [2K+1, len(windows) * width]
    stacked = np.multiply(np.stack(windows, axis=1)[:, :, None], S[:, None]).reshape(S.shape[0], -1)
    step = max(1, PHASE_BLOCK // windows[0].size)
    for lo in range(0, rows.size, step):
        block = rows[lo : lo + step]
        # one row would run as a matrix-vector product, whose bits differ from
        # the same row's in a larger product: sum it twice and keep one; the
        # phases die with the product, so none is held across the yield
        fetched = np.repeat(block, 2) if block.size == 1 else block
        sums = (chirp_phase[fetched // grid.n_freq] * freq_phase[fetched % grid.n_freq]) @ stacked
        yield slice(lo, lo + block.size), sums[: block.size].reshape(block.size, len(windows), S.shape[1])


def chirplet_transform(signal: Signal, window: np.ndarray, grid: TfcGrid) -> TfcTensor:
    """Chirplet transform of a signal against one window sequence.

    Direct summation over the window support (matrix products over blocks
    of rows); no FFT factorization.  Output entries are plain sums, i.e.
    carry a 1/dt scale relative to the continuous-integral transform.
    """
    values = np.empty((grid.n_chirp * grid.n_freq, grid.n_time), dtype=np.complex128)
    for part, sums in _windowed_sums(signal, [_check_window(window)], grid, np.arange(values.shape[0])):
        values[part] = sums[:, 0]
    return TfcTensor(values.reshape(grid.n_chirp, grid.n_freq, grid.n_time), grid)


def streamed_bank_transform(signal: Signal, bank: WindowBank, grid: TfcGrid) -> StreamedBank:
    """T^h on the resolvable rows alone, as ``chirplet_transform(signal, bank.h, ...)``, and its peak there."""
    bank.check_rate(signal)
    rows = np.flatnonzero(resolvable_slots(grid, bank))
    values, peaks = np.empty((rows.size, grid.n_time), np.complex128), []
    for part, sums in _windowed_sums(signal, [bank.h], grid, rows):
        values[part] = sums[:, 0]
        peaks.append(np.abs(sums).max())
    return StreamedBank(values, rows, float(np.max(peaks, initial=0.0)), grid, signal, bank)


def resolvable_slots(grid: TfcGrid, bank: WindowBank) -> np.ndarray:
    """Boolean [n_chirp, n_freq] map of slots whose atom the window resolves.

    A slot is resolvable when the window mass carried by samples where the
    atom's instantaneous frequency lies outside [-1/2, 1/2] cycles/sample is
    at most ``ALIAS_TOL`` of the total window mass.
    """
    j = np.arange(-bank.half_len, bank.half_len + 1)
    w = np.abs(bank.h)
    total = w.sum()
    freq_term = (np.arange(grid.n_freq) / (2 * grid.M))[:, None]
    ok = np.empty((grid.n_chirp, grid.n_freq), dtype=bool)
    # one chirp slice at a time: a [n_chirp, n_freq, 2K+1] map would rival the volume itself
    for i, l in enumerate(grid.chirp_indices):
        rate = l / (4 * grid.M**2)
        ok[i] = (np.abs(rate * j[None, :] + freq_term) > 0.5) @ w <= ALIAS_TOL * total
    return ok


def _zero_chirp_rows(grid: TfcGrid) -> np.ndarray:
    """Flat rows of the zero-chirp slice (chirp slot M-1), in frequency order."""
    return (grid.M - 1) * grid.n_freq + np.arange(grid.n_freq)


def stft(signal: Signal, window: np.ndarray, grid: TfcGrid) -> TfMatrix:
    """Short-time Fourier transform: the zero-chirp slice of the sum."""
    sums = _windowed_sums(signal, [_check_window(window)], grid, _zero_chirp_rows(grid))
    return TfMatrix(values=np.concatenate([block[:, 0] for _, block in sums]), grid=grid)


def project_tfc_to_tf(tensor: TfcTensor) -> TfMatrix:
    """Project |T| onto the TF plane: Riemann sum over the chirp-rate axis."""
    values = np.abs(tensor.values).sum(axis=0) * tensor.grid.chirp_step_hzps
    return TfMatrix(values=values, grid=tensor.grid)


# ---------------------------------------------------------------------------
# Closed form


def g_check(family: WindowFamily, xi, lam):
    """Joint frequency-chirp transform of x**n * exp(-pi*alpha*x**2), n<=2.

    g_check(xi, lam) = integral g(x) exp(-2i*pi*xi*x) exp(-i*pi*lam*x^2) dx.
    """
    if family.n not in (0, 1, 2):
        raise UnsupportedWindowError("closed form implemented for n in {0, 1, 2}")
    xi = np.asarray(xi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    z = family.alpha_w + 1j * lam
    base = np.exp(-np.pi * xi**2 / z) / np.sqrt(z)
    if family.n == 0:
        return base
    if family.n == 1:
        return -1j * xi / z * base
    return (1.0 / (2 * np.pi * z) - xi**2 / z**2) * base
