"""Mode reconstruction from ridge estimates.

At each frame the K transform samples taken at the ridge coordinates are a
mixing of the K component values through the window's joint
frequency-chirp transform evaluated at ridge differences; solving the K x K
systems of all frames in one stacked solve recovers the components.  A
band-integration baseline around a single frequency ridge of a squeezed STFT
is also provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ReconstructionError, UnsupportedWindowError
from .ridge import RidgeSet
from .signal import Signal, WindowBank, WindowFamily
from .transform import PHASE_BLOCK, TfMatrix, _padded_segments, g_check

COND_LIMIT = 1e6


@dataclass(frozen=True)
class ReconstructedModes:
    """Per-component complex series aligned with the input signal."""

    modes: np.ndarray  # [K, n_time]
    valid: np.ndarray  # [K, n_time] bool; False where a frame was skipped
    degraded: np.ndarray  # [n_time] bool; True where the solve was ill-conditioned


def _ridge_samples(signal: Signal, bank: WindowBank, frames, om, mu) -> np.ndarray:
    """Chirplet transform at exact off-grid (freq, chirp) points, [frames, K].

    Evaluates the windowed sum directly at each frame's ridge coordinates
    ``om``, ``mu`` [frames, K] (center-referenced phases, integral scaling),
    so reconstruction carries no grid-quantization bias.  The coordinates
    change from frame to frame, so this is a per-point sum and not one
    product over the grid.
    """
    u = bank.offsets_s
    segments = _padded_segments(signal, bank.half_len).T  # row n is f[n - K : n + K + 1]
    block = max(1, PHASE_BLOCK // (om.shape[1] * bank.length))
    out = np.empty(om.shape, dtype=np.complex128)
    for lo in range(0, frames.size, block):
        sl = slice(lo, lo + block)
        phase = np.exp(-2j * np.pi * om[sl, :, None] * u - 1j * np.pi * mu[sl, :, None] * u**2)
        out[sl] = (phase * (bank.h * segments[frames[sl]])[:, None, :]).sum(axis=-1) * signal.dt_s
    return out


def check_window_condition(family: WindowFamily) -> None:
    """Raise ``UnsupportedWindowError`` unless ``family`` can reconstruct modes.

    The mixing systems come from ``g_check``, whose closed form covers
    n <= 2, and recover the components only where the window condition
    ``g_check(0, 0) != 0`` holds; every odd window vanishes there.
    """
    if family.n > 2 or g_check(family, 0.0, 0.0) == 0:
        raise UnsupportedWindowError(
            f"window order n={family.n} fails the reconstruction window condition "
            "g_check(0, 0) != 0 (n = 0 or 2 are admissible)"
        )


def reconstruct_modes(signal: Signal, ridges: RidgeSet, bank: WindowBank) -> ReconstructedModes:
    """Solve the per-frame mixing systems along the ridge curves.

    At frame n, ``A[i, j] = g_check(omega_i - omega_j, mu_i - mu_j)`` couples
    the K chirplet-transform samples at the ridge points to the K component
    values.  Frames where any ridge value is invalid are skipped (zeros,
    valid False).  The systems of all other frames are solved in one stacked
    solve; frames whose condition exceeds 1e6 fall back to the least-squares
    pseudo-solution and are flagged degraded.  A bank whose window family
    fails ``check_window_condition`` is rejected before any work.
    """
    check_window_condition(bank.family)
    bank.check_rate(signal)
    K = ridges.n_components
    n = ridges.n_time
    if n != len(signal):
        raise ParameterError("ridge set does not span the signal")
    frames = np.flatnonzero(ridges.valid.all(axis=0))
    if frames.size == 0:
        raise ReconstructionError("no frame had a full set of valid ridges")
    om, mu = (np.asarray(c, dtype=float)[:, frames].T for c in (ridges.omega_hz, ridges.mu_hzps))
    if not (np.all(np.isfinite(om)) and np.all(np.isfinite(mu))):
        raise ParameterError("ridge coordinates must be finite")
    A = g_check(bank.family, om[:, :, None] - om[:, None, :], mu[:, :, None] - mu[:, None, :])
    x_hat = _ridge_samples(signal, bank, frames, om, mu)
    cond = np.linalg.cond(A)
    bad = (cond > COND_LIMIT) | ~np.isfinite(cond)
    if bad.all():
        raise ReconstructionError("every frame was degraded")
    sol = np.empty_like(x_hat)
    sol[~bad] = np.linalg.solve(A[~bad], x_hat[~bad][:, :, None])[:, :, 0]
    for i in np.flatnonzero(bad):
        sol[i] = np.linalg.lstsq(A[i], x_hat[i], rcond=None)[0]
    modes = np.zeros((K, n), dtype=np.complex128)
    valid = np.zeros((K, n), dtype=bool)
    degraded = np.zeros(n, dtype=bool)
    modes[:, frames] = sol.T
    valid[:, frames] = True
    degraded[frames] = bad
    return ReconstructedModes(modes=modes, valid=valid, degraded=degraded)


def sst_band_reconstruct(
    squeezed: TfMatrix,
    ridge_hz: np.ndarray,
    delta_hz: float,
    family: WindowFamily,
) -> np.ndarray:
    """Band integral of a squeezed STFT around one frequency ridge.

    Sums the squeezed coefficients within ``delta_hz`` of the ridge per
    frame and divides by the window's center value (with the discrete
    normalization folded in), recovering the analytic component the band
    captures.  The frequency comb of the discrete sum sees the window
    periodized with period 2M samples, so the center value is the
    periodization sum g(0) + 2*g(2M*dt) + ... rather than g(0) alone; the
    terms beyond g(0) only matter for windows longer than 2M samples.
    """
    g0 = float(family.g(np.zeros(1))[0])
    if g0 == 0.0:
        raise UnsupportedWindowError("window vanishes at the origin; band reconstruction undefined")
    grid = squeezed.grid
    period_s = 2 * grid.M / grid.sample_rate_hz
    g_center = g0
    for k in range(1, 1000):
        tail = float(family.g(np.array([k * period_s]))[0])
        g_center += 2 * tail
        if abs(tail) < 1e-15 * abs(g0):
            break
    ridge_hz = np.asarray(ridge_hz, dtype=float)
    if ridge_hz.shape != (grid.n_time,):
        raise ParameterError("ridge curve must give one frequency per frame")
    in_band = np.abs(grid.freqs_hz[:, None] - ridge_hz[None, :]) <= delta_hz
    return (squeezed.values * in_band).sum(axis=0) / (2 * grid.M * g_center)
