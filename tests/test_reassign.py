import inspect
from dataclasses import fields

import numpy as np
import pytest

from tfchirp import reassign
from tfchirp.errors import ParameterError
from tfchirp.reassign import (
    ReassignmentField,
    default_threshold,
    reassignment_field,
    sst1,
    sst2,
    squeeze_conservation,
    synchrosqueeze,
)
from tfchirp.signal import Signal, WindowFamily, grid_from_resolution, make_window_bank, round_half_away
from tfchirp.synth import add_student_t_noise
from tfchirp.transform import TfcTensor, stft

from conftest import interior_mask
from reference import BankTensors, bank_windows, chirplet_bank_transform, whole_codes


def small_pipeline(samples, fs, n_win=0, alpha=1.0, alpha_sq=0.02, nu=None, half_len=None):
    signal = Signal(samples, fs)
    grid = grid_from_resolution(alpha_sq, len(samples), fs)
    fam = WindowFamily(n_win, alpha)
    bank = make_window_bank(fam, half_len or fam.default_half_len(1 / fs), 1 / fs)
    banks = chirplet_bank_transform(signal, bank, grid)
    field = reassignment_field(banks, nu=nu)
    return signal, grid, banks, field


def test_constant_signal_reassigns_to_origin():
    fs, n = 20.0, 160
    _, grid, banks, field = small_pipeline(np.ones(n), fs)
    mags = np.abs(banks.h.values)
    energetic = (mags > 0.5 * mags.max()) & field.defined & interior_mask(n, fs, 2.0)[None, None, :]
    assert energetic.any()
    assert np.nanmax(np.abs(field.omega[energetic])) < 0.5 * grid.freq_step_hz
    assert np.nanmax(np.abs(field.mu[energetic])) < 0.5 * grid.chirp_step_hzps


def test_linear_chirp_estimates_exact_to_bins():
    fs, n = 50.0, 300
    x = np.arange(n) / fs
    xi0, lam0 = 4.0, 1.5
    _, grid, banks, field = small_pipeline(np.exp(2j * np.pi * xi0 * x + 1j * np.pi * lam0 * x**2), fs)
    mags = np.abs(banks.h.values)
    sel = (mags > np.quantile(mags, 0.99)) & field.defined & interior_mask(n, fs, 1.4)[None, None, :]
    true_if = np.broadcast_to(xi0 + lam0 * x, mags.shape)
    assert np.nanmax(np.abs(field.mu[sel] - lam0)) <= 2 * grid.chirp_step_hzps
    assert np.nanmax(np.abs(field.omega[sel] - true_if[sel])) <= grid.freq_step_hz


@pytest.mark.parametrize("n_win", [0, 2])
def test_crossing_bias_bounded_by_window_order(n_win):
    # two chirps meeting at t0: the chirp-rate estimate near one rate is
    # pulled by the other with a bias shrinking like the window-order power
    fs, n = 50.0, 400
    x = np.arange(n) / fs
    t0 = 4.0
    lam1, lam2 = 3.0, -2.0
    xi_bar = 10.0
    xi1 = xi_bar - lam1 * t0
    xi2 = xi_bar - lam2 * t0
    f = np.exp(2j * np.pi * xi1 * x + 1j * np.pi * lam1 * x**2) + np.exp(
        2j * np.pi * xi2 * x + 1j * np.pi * lam2 * x**2
    )
    alpha = 1.0
    _, grid, banks, field = small_pipeline(f, fs, n_win=n_win, alpha=alpha)
    frame = int(t0 * fs)
    m_bar = int(round(xi_bar / grid.freq_step_hz))
    lam_axis = grid.chirps_hzps
    # probe lambda values closer to lam1, away from the midpoint
    probe = [l for l in (1.8, 2.2, 2.6, 3.4, 3.8, 4.2) if field.defined[int(round(l / grid.chirp_step_hzps)) + grid.M - 1, m_bar, frame]]
    assert len(probe) >= 4
    ratio = lambda lam: ((alpha**2 + (lam - lam1) ** 2) / (alpha**2 + (lam - lam2) ** 2)) ** ((n_win + 1) / 4)
    errs, bounds = [], []
    for lam in probe:
        li = int(round(lam / grid.chirp_step_hzps)) + grid.M - 1
        errs.append(abs(field.mu[li, m_bar, frame] - lam1))
        bounds.append(ratio(grid.chirps_hzps[li]))
    errs, bounds = np.array(errs), np.array(bounds)
    # calibrate the constant at the largest-ratio probe and check the rest
    c = (errs / bounds).max()
    assert np.all(errs <= 1.05 * c * bounds)


def test_zero_signal_squeezes_to_zero():
    fs, n = 20.0, 64
    _, grid, banks, field = small_pipeline(np.zeros(n), fs)
    assert not field.defined.any()
    squeezed = synchrosqueeze(field)
    assert not squeezed.values.any()


def test_conservation_on_random_signals():
    rng = np.random.default_rng(123)
    fs, n = 25.0, 96
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    _, grid, banks, field = small_pipeline(samples, fs, half_len=30)
    squeezed = synchrosqueeze(field)
    assert squeeze_conservation(field, squeezed).max() < 1e-10


def test_scaling_equivariance():
    rng = np.random.default_rng(5)
    fs, n = 25.0, 80
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = 3.7
    _, grid, banks, field = small_pipeline(samples, fs, half_len=25)
    nu = default_threshold(banks.h.values)
    _, _, banks_c, field_c = small_pipeline(c * samples, fs, half_len=25, nu=c * nu)
    assert np.array_equal(field.defined, field_c.defined)
    sel = field.defined
    assert np.allclose(field.omega[sel], field_c.omega[sel], atol=1e-8)
    assert np.allclose(field.mu[sel], field_c.mu[sel], atol=1e-6)
    s = synchrosqueeze(field)
    s_c = synchrosqueeze(field_c)
    assert np.allclose(c * s.values, s_c.values, rtol=1e-10, atol=1e-9)


def test_impulse_entries_blocked_by_denominator_guard():
    # a lone impulse makes M2 vanish identically: entries stay undefined even
    # where |T| is large
    fs, n = 20.0, 64
    samples = np.zeros(n)
    samples[n // 2] = 1.0
    _, grid, banks, field = small_pipeline(samples, fs, half_len=20)
    mags = np.abs(banks.h.values)
    strong = mags > 0.5 * mags.max()
    assert strong.any()
    assert not field.defined[strong].any()
    # where the slot is resolvable, the guard is the cause
    assert set(np.unique(whole_codes(field)[strong]).tolist()) == {reassign.ALIASED, reassign.DEGENERATE}


def test_nu_must_be_positive():
    fs, n = 20.0, 64
    signal = Signal(np.ones(n), fs)
    grid = grid_from_resolution(0.02, n, fs)
    fam = WindowFamily(0, 1.0)
    bank = make_window_bank(fam, 20, 1 / fs)
    banks = chirplet_bank_transform(signal, bank, grid)
    with pytest.raises(ParameterError):
        reassignment_field(banks, nu=-1.0)


# ---------------------------------------------------------------------------
# SST baselines


def test_sst1_tone_concentrates_on_bin():
    fs, n = 40.0, 240
    x = np.arange(n) / fs
    tone_bin = 50
    grid = grid_from_resolution(0.005, n, fs)  # M=100, step 0.2 Hz
    xi0 = grid.freqs_hz[tone_bin]
    signal = Signal(np.exp(2j * np.pi * xi0 * x), fs)
    fam = WindowFamily(0, 4.0)
    bank = make_window_bank(fam, fam.default_half_len(1 / fs), 1 / fs)
    mat = sst1(signal, bank, grid)
    inner = interior_mask(n, fs, 1.2)
    mags = np.abs(mat.values[:, inner])
    assert np.all(mags.argmax(axis=0) == tone_bin)
    off = mags.sum(axis=0) - mags[tone_bin]
    assert np.all(off <= 1e-6 * mags[tone_bin])


def test_sst_zero_signal():
    fs, n = 20.0, 64
    signal = Signal(np.zeros(n), fs)
    grid = grid_from_resolution(0.05, n, fs)
    bank = make_window_bank(WindowFamily(0, 1.0), 20, 1 / fs)
    assert not sst1(signal, bank, grid).values.any()
    assert not sst2(signal, bank, grid).values.any()


def test_sst2_equals_sst1_on_tone():
    fs, n = 40.0, 200
    x = np.arange(n) / fs
    signal = Signal(np.exp(2j * np.pi * 10.0 * x), fs)
    grid = grid_from_resolution(0.025, n, fs)
    fam = WindowFamily(0, 2.0)
    bank = make_window_bank(fam, fam.default_half_len(1 / fs), 1 / fs)
    a = sst1(signal, bank, grid).values
    b = sst2(signal, bank, grid).values
    inner = interior_mask(n, fs, 1.0)
    # the chirp correction is ~zero, so the dominant structure is identical;
    # only coefficients at the definedness threshold may step across a bin
    tone_bin = int(round(10.0 / grid.freq_step_hz))
    assert np.allclose(a[tone_bin, inner], b[tone_bin, inner], rtol=1e-2)
    assert np.abs(a[:, inner] - b[:, inner]).max() <= 1e-2 * np.abs(a).max()
    assert np.array_equal(np.abs(a[:, inner]).argmax(axis=0), np.abs(b[:, inner]).argmax(axis=0))


def band_energy_fraction(mat, center_bins, width=1):
    mags = np.abs(mat)
    total = mags.sum(axis=0)
    grabbed = np.zeros_like(total)
    for off in range(-width, width + 1):
        idx = np.clip(center_bins + off, 0, mags.shape[0] - 1)
        grabbed += mags[idx, np.arange(mags.shape[1])]
    return grabbed / np.maximum(total, 1e-300)


def test_sst2_beats_sst1_on_linear_chirp():
    fs, n = 50.0, 400
    x = np.arange(n) / fs
    xi0, lam0 = 5.0, 2.0
    signal = Signal(np.exp(2j * np.pi * xi0 * x + 1j * np.pi * lam0 * x**2), fs)
    grid = grid_from_resolution(0.01, n, fs)
    fam = WindowFamily(0, 1.0)
    bank = make_window_bank(fam, fam.default_half_len(1 / fs), 1 / fs)
    s1 = sst1(signal, bank, grid).values
    s2 = sst2(signal, bank, grid).values
    inner = interior_mask(n, fs, 1.5)
    ridge_bins = np.round((xi0 + lam0 * x) / grid.freq_step_hz).astype(int)
    frac1 = band_energy_fraction(s1[:, inner], ridge_bins[inner])
    frac2 = band_energy_fraction(s2[:, inner], ridge_bins[inner])
    assert frac1.mean() < frac2.mean()
    # the second-order rule is chirp-exact: its ridge stays within one bin
    peaks = np.abs(s2[:, inner]).argmax(axis=0)
    assert np.max(np.abs(peaks - ridge_bins[inner])) <= 1


def test_sst2_degrades_at_crossing(crossing_scene, crossing_grid):
    # band reconstruction around the true ridge collapses where the two
    # components cross but stays accurate away from the crossing
    from tfchirp.reconstruct import sst_band_reconstruct
    from tfchirp.metrics import rel_error

    signal = crossing_scene.signal()
    fam = WindowFamily(0, 74.0)
    bank = make_window_bank(fam, fam.default_half_len(signal.dt_s), signal.dt_s)
    s2 = sst2(signal, bank, crossing_grid)
    est = sst_band_reconstruct(s2, crossing_scene.ifs_hz[0], 3.0, fam)
    x = crossing_scene.times_s
    at_cross = rel_error(est.real, crossing_scene.components[0].real, np.abs(x - 3.0) <= 0.5)
    away = rel_error(est.real, crossing_scene.components[0].real, np.abs(x - 2.0) <= 0.5)
    assert at_cross > 2 * away


def _field_oracle(banks, nu):
    """The 17-product reassignment rule over the whole volume."""
    from tfchirp.reassign import M2_GUARD
    from tfchirp.transform import ALIAS_TOL

    grid = banks.h.grid
    K = banks.bank.half_len
    T, T1, T2, U, U1, V = (
        t.values.astype(complex)
        for t in (banks.h, banks.h_prime, banks.h_second, banks.th, banks.th_prime, banks.t2h)
    )
    lam = grid.chirps_hzps[:, None, None]
    a = 2j * np.pi * lam
    m1 = T * T2 - 2 * a * T * U1 - a * T * T + a * a * T * V - T1 * T1 - a * a * U * U + 2 * a * T1 * U
    m2 = 2j * np.pi * (-T * U1 + a * T * V + U * T1 - a * U * U)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = m1 / m2
        mu = ratio.real
        omega = grid.freqs_hz[None, :, None] + (-T1 / (2 * np.pi * T) + 1j * (lam - ratio) * U / T).imag
    rate = grid.chirp_indices[:, None, None] / (4 * grid.M**2)
    center = (np.arange(grid.n_freq) / (2 * grid.M))[None, :, None]
    w = np.abs(banks.bank.h)
    resolvable = (np.abs(center + rate * np.arange(-K, K + 1)) > 0.5) @ w <= ALIAS_TOL * w.sum()
    defined = (np.abs(T) > nu) & (np.abs(m2) >= M2_GUARD * np.abs(m1))
    defined &= np.isfinite(mu) & np.isfinite(omega) & resolvable[:, :, None]
    return mu, omega, defined


def test_field_matches_full_product_formula():
    rng = np.random.default_rng(11)
    fs, n = 20.0, 90
    grid = grid_from_resolution(0.05, n, fs)
    fam = WindowFamily(2, 1.0)
    bank = make_window_bank(fam, 30, 1 / fs)
    shape = (grid.n_chirp, grid.n_freq, n)
    tensors = [
        TfcTensor(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), grid) for _ in range(6)
    ]
    banks = BankTensors(*tensors, bank=bank)
    nu = 0.3  # leaves some entries below threshold
    field = reassignment_field(banks, nu=nu)
    mu, omega, defined = _field_oracle(banks, nu)
    assert 0 < defined.sum() < defined.size
    assert np.array_equal(field.defined, defined)
    assert np.isnan(field.mu[~defined]).all() and np.isnan(field.omega[~defined]).all()
    assert np.max(np.abs(field.mu[defined] - mu[defined])) <= 1e-6 * grid.chirp_step_hzps
    assert np.max(np.abs(field.omega[defined] - omega[defined])) <= 1e-6 * grid.freq_step_hz


def test_squeeze_takes_no_parameter_object():
    import inspect

    import tfchirp

    assert not hasattr(tfchirp, "SqueezeParams")
    assert list(inspect.signature(synchrosqueeze).parameters) == ["field", "frames"]


def test_field_stores_no_mask(crossing_sct_g2):
    # validity is the NaN pattern of the estimates; ``defined`` is read off it
    assert "defined" not in {f.name for f in fields(ReassignmentField)}
    field = crossing_sct_g2
    defined = field.defined
    assert 0 < defined.sum() < defined.size
    assert np.array_equal(defined, ~np.isnan(field.omega))
    assert np.array_equal(defined, ~np.isnan(field.mu))


def _mask_sst(signal, bank, grid, order):
    """``sst1`` (order 1) or ``sst2`` (order 2) squeezed through an explicit validity mask."""
    freqs = grid.freqs_hz[:, None]
    if order == 1:
        W, W1 = reassign._stft_transforms(signal, bank, grid)[:2]
        with np.errstate(divide="ignore", invalid="ignore"):
            omega = freqs + (-W1 / (2 * np.pi * W)).imag
        defined = (np.abs(W) > default_threshold(W)) & np.isfinite(omega)
    else:
        W, W1, W2, U, U1, V = reassign._stft_transforms(signal, bank, grid)
        a, lam = 2j * np.pi * 0.0, 0.0
        P = U * W1 - W * U1
        R = P + a * (W * V - U * U)
        m1 = W * W2 - W1 * W1 - a * (W * W) + a * (P + R)
        m2 = 2j * np.pi * R
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = m1 / m2
            omega = freqs + (-W1 / (2 * np.pi * W) + 1j * (lam - ratio) * U / W).imag
        defined = (np.abs(W) > default_threshold(W)) & (np.abs(m2) >= reassign.M2_GUARD * np.abs(m1))
        defined &= np.isfinite(ratio.real) & np.isfinite(omega)
    m_dest = round_half_away(omega[defined] / grid.freq_step_hz)
    frames = np.broadcast_to(np.arange(grid.n_time), defined.shape)[defined]
    ok = (m_dest >= 0) & (m_dest < grid.n_freq)
    out = np.zeros(grid.n_freq * grid.n_time, dtype=np.complex128)
    np.add.at(out, m_dest[ok].astype(np.intp) * grid.n_time + frames[ok], W[defined][ok])
    return out.reshape(grid.n_freq, grid.n_time)


def test_sst_squeeze_reads_the_nans(crossing_scene, crossing_grid):
    assert "defined" not in inspect.signature(reassign._squeeze_matrix).parameters
    noisy, _ = add_student_t_noise(crossing_scene.components.sum(axis=0), 4.0, 0.1, seed=51)
    signal = Signal(noisy, crossing_grid.sample_rate_hz)
    family = WindowFamily(2, 1.0)
    bank = make_window_bank(family, family.default_half_len(signal.dt_s), signal.dt_s)
    for order, sst in ((1, sst1), (2, sst2)):
        want = _mask_sst(signal, bank, crossing_grid, order)
        assert want.any()
        assert np.array_equal(sst(signal, bank, crossing_grid).values, want)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.3, 1.0, 74.0])
def test_sst_companions_match_closed_form_windows(n, alpha):
    rng = np.random.default_rng(3)
    fs, n_time = 50.0, 120
    signal = Signal(rng.standard_normal(n_time) + 1j * rng.standard_normal(n_time), fs)
    grid = grid_from_resolution(0.05, n_time, fs)
    fam = WindowFamily(n, alpha)
    bank = make_window_bank(fam, fam.default_half_len(signal.dt_s), signal.dt_s)
    windows = bank_windows(bank)
    got = reassign._stft_transforms(signal, bank, grid)
    for name, value in zip(("h", "h_prime", "h_second", "th", "th_prime", "t2h"), got):
        want = stft(signal, windows[name], grid).values
        assert np.abs(value - want).max() <= 1e-13 * np.abs(want).max(), name
