import numpy as np
import pytest

from tfchirp.errors import ParameterError, ReconstructionError, UnsupportedWindowError
from tfchirp.metrics import rel_error
from tfchirp.reassign import sst2
from tfchirp.reconstruct import COND_LIMIT, check_window_condition, reconstruct_modes, sst_band_reconstruct
from tfchirp.ridge import RidgeSet
from tfchirp.signal import Signal, WindowFamily, grid_from_resolution, make_window_bank
from tfchirp.transform import PHASE_BLOCK, g_check

from conftest import interior_mask


def truth_ridges(ifs, chirps):
    k, n = ifs.shape
    ones = np.ones((k, n), dtype=bool)
    return RidgeSet(omega_hz=np.asarray(ifs, float), mu_hzps=np.asarray(chirps, float), valid=ones, observed=ones)


# ---------------------------------------------------------------------------
# The per-frame reconstruction loop, kept as the reference of the stacked solve


class CtRidgeEvaluator:
    """Chirplet transform of one signal at exact (freq, chirp) coordinates."""

    def __init__(self, signal, bank):
        self._half_len = bank.half_len
        self._offsets = bank.offsets_s
        self._window = bank.h
        self._dt = signal.dt_s
        n = len(signal)
        self._padded = np.zeros(n + 2 * bank.half_len, dtype=np.complex128)
        self._padded[bank.half_len : bank.half_len + n] = signal.samples

    def __call__(self, frame, freq_hz, chirp_hzps):
        freq_hz = np.atleast_1d(np.asarray(freq_hz, dtype=float))
        chirp_hzps = np.atleast_1d(np.asarray(chirp_hzps, dtype=float))
        seg = self._padded[frame : frame + 2 * self._half_len + 1]
        u = self._offsets
        phase = np.exp(
            -2j * np.pi * freq_hz[:, None] * u[None, :]
            - 1j * np.pi * chirp_hzps[:, None] * u[None, :] ** 2
        )
        return (phase * (self._window * seg)[None, :]).sum(axis=1) * self._dt


def build_mixing_system(omega_hz, mu_hzps, ct_at, frame, family):
    """(A, x_hat, condition) of one frame."""
    dxi = omega_hz[:, None] - omega_hz[None, :]
    dlam = mu_hzps[:, None] - mu_hzps[None, :]
    A = g_check(family, dxi, dlam)
    return A, ct_at(frame, omega_hz, mu_hzps), float(np.linalg.cond(A))


def reconstruct_modes_loop(signal, ridges, family, bank):
    ct_at = CtRidgeEvaluator(signal, bank)
    K, n = ridges.n_components, ridges.n_time
    modes = np.zeros((K, n), dtype=np.complex128)
    valid = np.zeros((K, n), dtype=bool)
    degraded = np.zeros(n, dtype=bool)
    for frame in range(n):
        if not ridges.valid[:, frame].all():
            continue
        A, x_hat, condition = build_mixing_system(
            ridges.omega_hz[:, frame], ridges.mu_hzps[:, frame], ct_at, frame, family
        )
        if condition > COND_LIMIT or not np.isfinite(condition):
            sol = np.linalg.lstsq(A, x_hat, rcond=None)[0]
            degraded[frame] = True
        else:
            sol = np.linalg.solve(A, x_hat)
        modes[:, frame] = sol
        valid[:, frame] = True
    return modes, valid, degraded


@pytest.mark.parametrize("n_win", [0, 1, 2])
def test_stacked_solve_matches_per_frame_loop(n_win):
    fs = 50.0
    fam = WindowFamily(n_win, 1.3)
    bank = make_window_bank(fam, fam.default_half_len(1 / fs), 1 / fs)
    K = 3
    n = 3 * (PHASE_BLOCK // (K * bank.length)) + 17  # several frame blocks
    x = np.arange(n) / fs
    rng = np.random.default_rng(n_win)
    signal = Signal(
        sum(np.exp(2j * np.pi * (f * x + 0.5 * c * x**2)) for f, c in ((4, 1.2), (12, -0.8), (19, 0.3)))
        + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
        fs,
    )
    # ridges 0.6 Hz apart keep the systems well conditioned for every order
    om = np.array([[8.0], [8.6], [9.2]]) + 0.5 * np.sin(x) + rng.normal(0, 0.2, (K, n))
    mu = np.array([[1.2], [-0.8], [0.3]]) + rng.normal(0, 0.1, (K, n))
    coincide = rng.random(n) < 0.05  # ridges 0 and 1 meet: singular, solved by lstsq
    om[1, coincide], mu[1, coincide] = om[0, coincide], mu[0, coincide]
    valid = rng.random((K, n)) > 0.03  # frames with a missing ridge are skipped
    ridges = RidgeSet(om, mu, valid, valid)
    if n_win % 2:
        # the odd window's g_check vanishes on the diagonal: no solve is made
        with pytest.raises(UnsupportedWindowError, match="window condition"):
            reconstruct_modes(signal, ridges, bank)
        return
    got = reconstruct_modes(signal, ridges, bank)
    modes, ok, degraded = reconstruct_modes_loop(signal, ridges, fam, bank)
    assert degraded.any() and (ok.all(axis=0) & ~degraded).any() and not ok.all()
    np.testing.assert_array_equal(got.modes, modes)
    np.testing.assert_array_equal(got.valid, ok)
    np.testing.assert_array_equal(got.degraded, degraded)


@pytest.mark.parametrize("n_win", [1, 3])
def test_windows_failing_the_window_condition_are_rejected_first(n_win):
    # n=1: g_check(0, 0) = 0, and the solve would divide by the cross terms;
    # n=3: no closed form.  Either is refused before the bank is even checked.
    fs, n = 50.0, 100
    signal = Signal(np.exp(2j * np.pi * 5 * np.arange(n) / fs), fs)
    fam = WindowFamily(n_win, 1.0)
    mismatched_bank = make_window_bank(fam, 20, 2 / fs)
    ridges = truth_ridges(np.vstack((np.full(n, 5.0), np.full(n, 9.0))), np.zeros((2, n)))
    with pytest.raises(UnsupportedWindowError, match="window condition"):
        reconstruct_modes(signal, ridges, mismatched_bank)
    check_window_condition(WindowFamily(0, 1.0))
    check_window_condition(WindowFamily(2, 1.0))


def test_mixing_system_k1_diagonal():
    fs, n = 50.0, 100
    x = np.arange(n) / fs
    signal = Signal(np.exp(2j * np.pi * 5 * x), fs)
    fam = WindowFamily(0, 2.0)
    bank = make_window_bank(fam, fam.default_half_len(1 / fs), 1 / fs)
    assert g_check(fam, 0.0, 0.0) == pytest.approx(2.0**-0.5)
    # with one ridge the system is the diagonal alone: mode = sample / g_check(0, 0)
    modes = reconstruct_modes(signal, truth_ridges(np.full((1, n), 5.0), np.zeros((1, n))), bank)
    x_hat = CtRidgeEvaluator(signal, bank)(n // 2, 5.0, 0.0)[0]
    assert modes.modes[0, n // 2] == pytest.approx(x_hat / g_check(fam, 0.0, 0.0), rel=1e-12)


def test_mixing_system_identical_ridges_singular():
    fs, n = 50.0, 100
    signal = Signal(np.ones(n), fs)
    fam = WindowFamily(0, 1.0)
    bank = make_window_bank(fam, 60, 1 / fs)
    om = np.vstack((np.full(n, 5.0), np.full(n, 9.0)))
    mu = np.ones((2, n))
    om[1, 40:60] = 5.0  # the ridges coincide on these frames
    modes = reconstruct_modes(signal, truth_ridges(om, mu), bank)
    assert modes.degraded[40:60].all()
    assert not modes.degraded[:40].any() and not modes.degraded[60:].any()
    assert modes.valid.all()
    om[1] = 5.0
    with pytest.raises(ReconstructionError, match="every frame was degraded"):
        reconstruct_modes(signal, truth_ridges(om, mu), bank)


def test_mixing_entry_matches_quadrature():
    from scipy.integrate import quad

    fam = WindowFamily(0, 1.0)
    dxi, dlam = 1.7, -3.1

    def integrand(x, part):
        atom = np.exp(-np.pi * x**2) * np.exp(-2j * np.pi * dxi * x - 1j * np.pi * dlam * x**2)
        return atom.real if part == 0 else atom.imag

    want = complex(
        quad(integrand, -8, 8, args=(0,), limit=400, epsabs=1e-13)[0],
        quad(integrand, -8, 8, args=(1,), limit=400, epsabs=1e-13)[0],
    )
    got = complex(g_check(fam, dxi, dlam))
    assert abs(got - want) <= 1e-6 * abs(want)


def test_gcheck_conjugate_symmetry():
    rng = np.random.default_rng(3)
    for n_win in (0, 1, 2):
        fam = WindowFamily(n_win, 1.4)
        for _ in range(10):
            xi, lam = rng.uniform(-4, 4, size=2)
            assert g_check(fam, -xi, -lam) == pytest.approx(np.conj(g_check(fam, xi, lam)))


def test_single_chirp_truth_ridge_reconstruction():
    fs, n = 50.0, 400
    x = np.arange(n) / fs
    xi0, lam0 = 6.0, 1.5
    comp = np.exp(2j * np.pi * xi0 * x + 1j * np.pi * lam0 * x**2)
    signal = Signal(comp, fs)
    fam = WindowFamily(0, 1.0)
    bank = make_window_bank(fam, fam.default_half_len(1 / fs), 1 / fs)
    ridges = truth_ridges((xi0 + lam0 * x)[None, :], np.full((1, n), lam0))
    modes = reconstruct_modes(signal, ridges, bank)
    inner = interior_mask(n, fs, 1.4)
    assert rel_error(modes.modes[0][inner], comp[inner]) <= 1e-2


def test_two_chirp_truth_ridge_reconstruction():
    fs, n = 50.0, 500
    x = np.arange(n) / fs
    p1 = (3.0, 2.0)
    p2 = (15.0, -1.0)
    comps = [np.exp(2j * np.pi * xi * x + 1j * np.pi * lam * x**2) for xi, lam in (p1, p2)]
    signal = Signal(comps[0] + comps[1], fs)
    fam = WindowFamily(0, 1.0)
    bank = make_window_bank(fam, fam.default_half_len(1 / fs), 1 / fs)
    ridges = truth_ridges(
        np.vstack((p1[0] + p1[1] * x, p2[0] + p2[1] * x)),
        np.vstack((np.full(n, p1[1]), np.full(n, p2[1]))),
    )
    modes = reconstruct_modes(signal, ridges, bank)
    inner = interior_mask(n, fs, 1.4)
    for k in range(2):
        assert rel_error(modes.modes[k][inner], comps[k][inner]) <= 2e-2
    assert not modes.degraded[inner].any()


def test_zero_signal_zero_modes():
    fs, n = 50.0, 120
    signal = Signal(np.zeros(n), fs)
    fam = WindowFamily(0, 1.0)
    bank = make_window_bank(fam, 40, 1 / fs)
    x = np.arange(n) / fs
    ridges = truth_ridges(np.vstack((5 + 0 * x, 10 + 0 * x)), np.zeros((2, n)))
    modes = reconstruct_modes(signal, ridges, bank)
    assert not modes.modes.any()


def test_ridge_permutation_permutes_modes():
    fs, n = 50.0, 300
    x = np.arange(n) / fs
    comps = [
        np.exp(2j * np.pi * (4 * x + 0.8 * x**2 / 2 * 2)),
        np.exp(2j * np.pi * (14 * x - 0.5 * x**2)),
    ]
    signal = Signal(comps[0] + comps[1], fs)
    fam = WindowFamily(0, 1.0)
    bank = make_window_bank(fam, fam.default_half_len(1 / fs), 1 / fs)
    om = np.vstack((4 + 1.6 * x, 14 - 1.0 * x))
    mu = np.vstack((np.full(n, 1.6), np.full(n, -1.0)))
    a = reconstruct_modes(signal, truth_ridges(om, mu), bank)
    b = reconstruct_modes(signal, truth_ridges(om[::-1], mu[::-1]), bank)
    assert np.allclose(a.modes, b.modes[::-1], atol=1e-10)


def test_degraded_frames_flagged_and_all_degraded_raises():
    fs, n = 50.0, 120
    x = np.arange(n) / fs
    signal = Signal(np.exp(2j * np.pi * 8 * x), fs)
    fam = WindowFamily(0, 1.0)
    bank = make_window_bank(fam, 40, 1 / fs)
    om = np.vstack((8 + 0 * x, 8 + 0 * x))  # identical ridges: singular system
    mu = np.zeros((2, n))
    with pytest.raises(ReconstructionError):
        reconstruct_modes(signal, truth_ridges(om, mu), bank)


def test_invalid_frames_skipped():
    fs, n = 50.0, 150
    x = np.arange(n) / fs
    signal = Signal(np.exp(2j * np.pi * 8 * x), fs)
    fam = WindowFamily(0, 1.0)
    bank = make_window_bank(fam, 40, 1 / fs)
    ridges = truth_ridges((8 + 0 * x)[None, :], np.zeros((1, n)))
    hole = np.ones((1, n), dtype=bool)
    hole[0, 60:70] = False
    ridges = RidgeSet(ridges.omega_hz, ridges.mu_hzps, hole, hole)
    modes = reconstruct_modes(signal, ridges, bank)
    assert not modes.valid[0, 60:70].any()
    assert not modes.modes[0, 60:70].any()
    assert modes.valid[0, :60].all()


# ---------------------------------------------------------------------------
# SST band reconstruction


def test_band_reconstruct_tone():
    fs, n = 50.0, 300
    x = np.arange(n) / fs
    grid = grid_from_resolution(0.02, n, fs)
    xi0 = grid.freqs_hz[12]
    tone = np.exp(2j * np.pi * xi0 * x)
    signal = Signal(tone, fs)
    fam = WindowFamily(0, 1.0)
    bank = make_window_bank(fam, fam.default_half_len(1 / fs), 1 / fs)
    s2 = sst2(signal, bank, grid)
    est = sst_band_reconstruct(s2, np.full(n, xi0), grid.freq_step_hz, fam)
    inner = interior_mask(n, fs, 1.4)
    assert rel_error(est[inner], tone[inner]) <= 1e-2


def test_band_reconstruct_zero_matrix():
    fs, n = 50.0, 60
    grid = grid_from_resolution(0.05, n, fs)
    from tfchirp.transform import TfMatrix

    z = TfMatrix(np.zeros((grid.n_freq, n), dtype=complex), grid)
    est = sst_band_reconstruct(z, np.full(n, 5.0), 2.0, WindowFamily(0, 1.0))
    assert not est.any()


def test_band_reconstruct_rejects_vanishing_window():
    fs, n = 50.0, 60
    grid = grid_from_resolution(0.05, n, fs)
    from tfchirp.transform import TfMatrix

    z = TfMatrix(np.zeros((grid.n_freq, n), dtype=complex), grid)
    with pytest.raises(UnsupportedWindowError):
        sst_band_reconstruct(z, np.full(n, 5.0), 2.0, WindowFamily(1, 1.0))


def test_band_reconstruct_validates_ridge_shape():
    fs, n = 50.0, 60
    grid = grid_from_resolution(0.05, n, fs)
    from tfchirp.transform import TfMatrix

    z = TfMatrix(np.zeros((grid.n_freq, n), dtype=complex), grid)
    with pytest.raises(ParameterError):
        sst_band_reconstruct(z, np.full(n - 1, 5.0), 2.0, WindowFamily(0, 1.0))
