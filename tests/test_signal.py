from dataclasses import fields

import numpy as np
import pytest

from tfchirp.errors import ParameterError, ResourceError
from tfchirp.signal import (
    MAX_TAPS,
    Signal,
    WindowBank,
    WindowFamily,
    grid_from_resolution,
    make_window_bank,
    round_half_away,
)

from reference import _poly_term, bank_windows, g_prime, g_second


def test_signal_validation():
    with pytest.raises(ParameterError):
        Signal(np.array([1.0]), 100.0)
    with pytest.raises(ParameterError):
        Signal(np.array([1.0, np.nan]), 100.0)
    with pytest.raises(ParameterError):
        Signal(np.ones(4), -1.0)
    with pytest.raises(ParameterError, match="sample_rate_hz"):
        Signal(np.ones(4), np.inf)  # dt_s would be 0, and every window length divides by it
    sig = Signal(np.ones(4), 8.0, t0_s=2.0)
    assert sig.dt_s == 0.125
    assert np.allclose(sig.times_s, 2.0 + np.arange(4) / 8.0)


@pytest.mark.parametrize("entry", ["streamed_bank_transform", "sst1", "sst2", "reconstruct_modes"])
def test_bank_at_another_rate_is_rejected(entry):
    from tfchirp.reassign import sst1, sst2
    from tfchirp.reconstruct import reconstruct_modes
    from tfchirp.ridge import RidgeSet
    from tfchirp.transform import streamed_bank_transform

    signal = Signal(np.random.default_rng(0).standard_normal(64), 100.0)
    grid = grid_from_resolution(0.1, len(signal), signal.sample_rate_hz)
    bank = make_window_bank(WindowFamily(0, 1.0), half_len=8, dt_s=0.02)  # made for 50 Hz
    curve = np.full((1, len(signal)), 10.0)
    ridges = RidgeSet(curve, 0 * curve, curve > 0, curve > 0)
    calls = {
        "streamed_bank_transform": lambda: streamed_bank_transform(signal, bank, grid),
        "sst1": lambda: sst1(signal, bank, grid),
        "sst2": lambda: sst2(signal, bank, grid),
        "reconstruct_modes": lambda: reconstruct_modes(signal, ridges, bank),
    }
    with pytest.raises(ParameterError, match="does not match the signal sample rate"):
        calls[entry]()


def test_window_family_validation():
    with pytest.raises(ParameterError):
        WindowFamily(0, 0.0)
    with pytest.raises(ParameterError):
        WindowFamily(-1, 1.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: WindowFamily(1, 1.0).default_half_len(1e-308),  # the half length overflows a float
        lambda: WindowFamily(0, 1e-300).default_half_len(0.01),  # finite, but no array holds it
        lambda: make_window_bank(WindowFamily(), 10**20, 0.01),
        lambda: make_window_bank(WindowFamily(), MAX_TAPS // 2 + 1, 0.01),
    ],
)
def test_a_window_no_array_can_hold_is_a_resource_error(build):
    # one line, before numpy is asked for the samples
    with pytest.raises(ResourceError, match=f"{MAX_TAPS} taps") as caught:
        build()
    assert "\n" not in str(caught.value)


def test_run_sct_at_an_extreme_rate_is_a_resource_error():
    from tfchirp.pipeline import run_sct

    signal = Signal(np.ones(4), 1e308)
    with pytest.raises(ResourceError, match="taps"):
        run_sct(signal, WindowFamily(0, 1.0), grid_from_resolution(0.5, 4, 1e308))


def test_gaussian_samples_tiny_bank():
    bank = make_window_bank(WindowFamily(0, 1.0), half_len=1, dt_s=1.0)
    assert np.allclose(bank.h, [np.exp(-np.pi), 1.0, np.exp(-np.pi)])


def test_power_window_vanishes_at_center():
    bank = make_window_bank(WindowFamily(2, 1.0), half_len=5, dt_s=0.3)
    assert bank.h[bank.half_len] == 0.0


def test_bank_stores_no_derivative_windows():
    # the companions are formed from h, th, t2h and the basis; the closed-form
    # derivatives live in the tests' reference only
    assert [f.name for f in fields(WindowBank)] == ["family", "half_len", "dt_s", "h", "th", "t2h", "basis"]
    assert not hasattr(WindowBank, "sequences")
    assert not hasattr(WindowFamily, "g_prime") and not hasattr(WindowFamily, "g_second")


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_bank_samples_the_window_and_its_basis(n):
    fam = WindowFamily(n, 1.7)
    bank = make_window_bank(fam, half_len=9, dt_s=0.15)
    x = bank.offsets_s
    e = np.exp(-np.pi * 1.7 * x * x)
    assert np.array_equal(bank.h, _poly_term(x, n) * e)
    assert len(bank.basis) == min(n, 2)
    for d, window in enumerate(bank.basis, 1):
        assert np.array_equal(window, x ** (n - d) * e)
        assert not window.flags.writeable


@pytest.mark.parametrize("n,alpha", [(0, 1.0), (1, 2.0), (2, 0.7), (3, 1.5)])
def test_derivatives_match_finite_differences(n, alpha):
    fam = WindowFamily(n, alpha)
    bank = make_window_bank(fam, half_len=4, dt_s=0.5)
    x = bank.offsets_s
    step = 1e-6
    fd1 = (fam.g(x + step) - fam.g(x - step)) / (2 * step)
    scale = np.max(np.abs(fd1))
    assert np.max(np.abs(g_prime(fam, x) - fd1)) < 1e-6 * scale
    fd2 = (fam.g(x + step) - 2 * fam.g(x) + fam.g(x - step)) / step**2
    scale2 = max(np.max(np.abs(fd2)), 1.0)
    assert np.max(np.abs(g_second(fam, x) - fd2)) < 1e-3 * scale2


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_window_parity(n):
    bank = make_window_bank(WindowFamily(n, 1.3), half_len=6, dt_s=0.25)
    sign = 1.0 if n % 2 == 0 else -1.0
    assert np.allclose(bank.h, sign * bank.h[::-1])
    # x*g flips parity
    assert np.allclose(bank.th, -sign * bank.th[::-1])


def test_companion_sequences_consistent():
    bank = make_window_bank(WindowFamily(1, 0.8), half_len=8, dt_s=0.2)
    x = bank.offsets_s
    assert np.allclose(bank.th, x * bank.h)
    assert np.allclose(bank.t2h, x * x * bank.h)
    windows = bank_windows(bank)
    assert np.allclose(windows["th_prime"], x * windows["h_prime"])


def test_grid_floor_arithmetic():
    grid = grid_from_resolution(0.5, 16, 1.0)
    assert (grid.M, grid.n_freq, grid.n_chirp) == (1, 2, 2)


def test_grid_bin_mappings():
    grid = grid_from_resolution(0.01, 100, 100.0)
    assert grid.M == 50
    # bin index 24 sits at 24 Hz
    assert grid.freqs_hz[24] == pytest.approx(24.0)
    # signed chirp index 8 sits at 8 Hz/s
    assert grid.chirps_hzps[8 + grid.M - 1] == pytest.approx(8.0)


def test_grid_mappings_monotone():
    grid = grid_from_resolution(0.02, 10, 64.0)
    assert np.all(np.diff(grid.freqs_hz) > 0)
    assert np.all(np.diff(grid.chirps_hzps) > 0)
    assert grid.freqs_hz[-1] == pytest.approx(grid.sample_rate_hz / 2)


def test_grid_validation():
    with pytest.raises(ParameterError):
        grid_from_resolution(0.6, 10, 1.0)
    with pytest.raises(ParameterError):
        grid_from_resolution(0.0, 10, 1.0)


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(2.4) == 2
    assert np.array_equal(round_half_away(np.array([1.5, -1.5, 0.49])), [2, -2, 0])
