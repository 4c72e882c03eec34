import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfchirp import transform
from tfchirp.errors import UnsupportedWindowError
from tfchirp.reassign import sst1, sst2
from tfchirp.signal import Signal, WindowFamily, grid_from_resolution, make_window_bank
from tfchirp.transform import (
    chirplet_transform,
    g_check,
    _windowed_sums,
    project_tfc_to_tf,
    stft,
    streamed_bank_transform,
)

from conftest import FS, interior_mask, traced_volumes
from reference import (
    analytic_ct_linear_chirp,
    analytic_ct_linear_chirp_mag,
    bank_windows,
    chirp_transform_1d,
    ct_quadrature,
    fresnel_segment,
)


def naive_transform(samples, window, grid):
    """Three-nested-loop reference, 1-based indices as written."""
    K = (len(window) - 1) // 2
    M = grid.M
    N = len(samples)
    out = np.zeros((grid.n_chirp, grid.n_freq, N), dtype=complex)

    def f(n):
        return samples[n - 1] if 1 <= n <= N else 0.0

    for li, l in enumerate(range(-(M - 1), M + 1)):
        for m in range(1, M + 2):
            for n in range(1, N + 1):
                acc = 0.0
                for k in range(1, 2 * K + 2):
                    p = k - K - 1
                    acc += (
                        f(n + k - K - 1)
                        * window[k - 1]
                        * np.exp(-2j * np.pi * p * (m - 1) / (2 * M))
                        * np.exp(-1j * np.pi * l * p**2 / (4 * M**2))
                    )
                out[li, m - 1, n - 1] = acc
    return out


def test_matches_naive_triple_loop():
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    signal = Signal(samples, 1.0)
    grid = grid_from_resolution(0.5 / 4, 16, 1.0)
    bank = make_window_bank(WindowFamily(0, 1.0), 3, 1.0)
    got = chirplet_transform(signal, bank.h, grid).values
    want = naive_transform(samples, bank.h, grid)
    assert np.max(np.abs(got - want)) < 1e-12


def test_zero_signal_zero_tensor():
    signal = Signal(np.zeros(32), 10.0)
    grid = grid_from_resolution(0.1, 32, 10.0)
    bank = make_window_bank(WindowFamily(0, 1.0), 5, 0.1)
    assert not chirplet_transform(signal, bank.h, grid).values.any()


def test_linearity():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    b = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    grid = grid_from_resolution(0.1, 24, 8.0)
    bank = make_window_bank(WindowFamily(0, 1.0), 4, 0.125)
    t = lambda s: chirplet_transform(Signal(s, 8.0), bank.h, grid).values
    combo = t(2.0 * a + (1 - 2j) * b)
    assert np.allclose(combo, 2.0 * t(a) + (1 - 2j) * t(b), atol=1e-10)


def test_analytic_magnitude_match_linear_chirp():
    fs, n = 50.0, 351
    x = np.arange(n) / fs
    xi0, lam0 = 5.0, 2.0
    signal = Signal(np.exp(2j * np.pi * xi0 * x + 1j * np.pi * lam0 * x**2), fs)
    grid = grid_from_resolution(0.02, n, fs)
    fam = WindowFamily(0, 1.0)
    bank = make_window_bank(fam, fam.default_half_len(1 / fs), 1 / fs)
    mags = np.abs(chirplet_transform(signal, bank.h, grid).values) / fs
    ana = analytic_ct_linear_chirp_mag(
        xi0, lam0, 1.0,
        x[None, None, :],
        grid.freqs_hz[None, :, None],
        grid.chirps_hzps[:, None, None],
    )
    inner = interior_mask(n, fs, 1.4)
    err = np.abs(mags[:, :, inner] - ana[:, :, inner]).max() / ana[:, :, inner].max()
    assert err < 1e-2


def test_stft_is_zero_chirp_slice():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    signal = Signal(samples, 20.0)
    grid = grid_from_resolution(0.05, 40, 20.0)
    bank = make_window_bank(WindowFamily(0, 1.0), 6, 0.05)
    tensor = chirplet_transform(signal, bank.h, grid)
    mat = stft(signal, bank.h, grid)
    assert np.allclose(tensor.values[grid.M - 1], mat.values, atol=1e-12)


def test_stft_tone_peaks_at_nearest_bin():
    fs, n = 40.0, 200
    x = np.arange(n) / fs
    tone_hz = 7.3
    signal = Signal(np.exp(2j * np.pi * tone_hz * x), fs)
    grid = grid_from_resolution(0.05, n, fs)
    fam = WindowFamily(0, 2.0)
    bank = make_window_bank(fam, fam.default_half_len(1 / fs), 1 / fs)
    mat = stft(signal, bank.h, grid)
    inner = interior_mask(n, fs, 1.0)
    expected = int(np.argmin(np.abs(grid.freqs_hz - tone_hz)))
    assert np.all(np.abs(mat.values[:, inner]).argmax(axis=0) == expected)


def test_modulation_covariance():
    rng = np.random.default_rng(11)
    fs, n = 16.0, 48
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    grid = grid_from_resolution(0.0625, n, fs)  # M=8
    bank = make_window_bank(WindowFamily(0, 1.0), 8, 1 / fs)
    shift_bins = 3
    xi1 = shift_bins * grid.freq_step_hz
    x = np.arange(n) / fs
    base = chirplet_transform(Signal(samples, fs), bank.h, grid).values
    shifted = chirplet_transform(Signal(samples * np.exp(2j * np.pi * xi1 * x), fs), bank.h, grid).values
    lhs = np.abs(shifted[:, shift_bins:, :])
    rhs = np.abs(base[:, : grid.n_freq - shift_bins, :])
    assert np.max(np.abs(lhs - rhs)) <= 1e-6 * np.max(rhs)


def test_chirp_covariance():
    rng = np.random.default_rng(12)
    fs, n = 16.0, 64
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    grid = grid_from_resolution(0.0625, n, fs)  # M=8, 2M=16
    bank = make_window_bank(WindowFamily(0, 1.0), 8, 1 / fs)
    c = 2  # chirp shift in bins
    lam1 = c * grid.chirp_step_hzps
    x = np.arange(n) / fs
    base = chirplet_transform(Signal(samples, fs), bank.h, grid).values
    mult = chirplet_transform(
        Signal(samples * np.exp(1j * np.pi * lam1 * x**2), fs), bank.h, grid
    ).values
    # frames where lam1 * t lands on an integer frequency bin
    frames = [nn for nn in range(n) if (c * nn) % (2 * grid.M) == 0]
    assert len(frames) >= 3
    for nn in frames:
        fshift = (c * nn) // (2 * grid.M)
        lhs = np.abs(mult[c:, fshift:, nn])
        rhs = np.abs(base[: grid.n_chirp - c, : grid.n_freq - fshift, nn])
        assert np.max(np.abs(lhs - rhs)) <= 1e-6 * max(np.max(rhs), 1e-30)


@st.composite
def covariance_cases(draw):
    """A random signal, small grid and window of order 0-2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = draw(st.sampled_from([1.0, 16.0, 32.0]))
    half_len = draw(st.integers(1, 12))
    n_time = draw(st.integers(half_len + 1, 48))
    grid = grid_from_resolution(0.5 / draw(st.integers(2, 10)), n_time, fs)
    family = WindowFamily(draw(st.integers(0, 2)), draw(st.floats(0.5, 2.0)))
    window = make_window_bank(family, half_len, 1 / fs).h
    samples = rng.standard_normal(n_time) + 1j * rng.standard_normal(n_time)
    return Signal(samples, fs), grid, window


@settings(max_examples=40)
@given(covariance_cases(), st.data())
def test_modulation_covariance_property(case, data):
    """Modulation by kf frequency bins shifts |T| by kf bins.

    The modulated transform is T[l, m - kf, n] times a unit phase
    exp(2j*pi*kf*n/(2M)).
    """
    signal, grid, window = case
    kf = data.draw(st.integers(1, grid.M))
    x = np.arange(len(signal)) / signal.sample_rate_hz
    modulated = Signal(signal.samples * np.exp(2j * np.pi * kf * grid.freq_step_hz * x), signal.sample_rate_hz)
    base = np.abs(chirplet_transform(signal, window, grid).values)
    shifted = np.abs(chirplet_transform(modulated, window, grid).values)
    err = np.abs(shifted[:, kf:, :] - base[:, : grid.n_freq - kf, :]).max()
    assert err <= 1e-9 * base.max()


@settings(max_examples=40)
@given(covariance_cases(), st.data())
def test_chirp_covariance_property(case, data):
    """Chirp multiplication by kc chirp bins shifts |T| by kc chirp bins.

    In frame n the frequency shifts by kc*n/(2M) bins, so the identity holds
    on the grid in the frames where that is an integer (negative shifts
    included).
    """
    signal, grid, window = case
    kc = data.draw(st.integers(1, grid.n_chirp - 1)) * data.draw(st.sampled_from([1, -1]))
    x = np.arange(len(signal)) / signal.sample_rate_hz
    lam1 = kc * grid.chirp_step_hzps
    multiplied = Signal(signal.samples * np.exp(1j * np.pi * lam1 * x**2), signal.sample_rate_hz)
    base = np.abs(chirplet_transform(signal, window, grid).values)
    mult = np.abs(chirplet_transform(multiplied, window, grid).values)
    chirps = slice(max(kc, 0), grid.n_chirp + min(kc, 0))
    chirps_base = slice(max(-kc, 0), grid.n_chirp + min(-kc, 0))
    compared = 0
    for n in range(len(signal)):
        if kc * n % (2 * grid.M):
            continue
        fshift = kc * n // (2 * grid.M)
        if abs(fshift) >= grid.n_freq:
            continue
        freqs = slice(max(fshift, 0), grid.n_freq + min(fshift, 0))
        freqs_base = slice(max(-fshift, 0), grid.n_freq + min(-fshift, 0))
        err = np.abs(mult[chirps, freqs, n] - base[chirps_base, freqs_base, n]).max()
        assert err <= 1e-9 * base.max()
        compared += 1
    assert compared >= 1


@settings(max_examples=40)
@given(covariance_cases(), st.data())
def test_windowed_sums_match_the_docstring_sum(case, data):
    """Any rows of the kernel, in any order and against several windows,
    equal the module docstring's sum evaluated by a plain loop."""
    signal, grid, window = case
    K = window.size // 2
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    windows = [window] + [rng.standard_normal(window.size) for _ in range(data.draw(st.integers(0, 2)))]
    rows = np.array(
        data.draw(st.lists(st.integers(0, grid.n_chirp * grid.n_freq - 1), min_size=1, max_size=12, unique=True))
    )
    got = np.concatenate([sums for _, sums in _windowed_sums(signal, windows, grid, rows)])

    f = np.concatenate((np.zeros(K), signal.samples, np.zeros(K)))
    p = np.arange(2 * K + 1) - K
    want = np.zeros((rows.size, len(windows), grid.n_time), dtype=complex)
    for i, row in enumerate(rows):
        l, m = grid.chirp_indices[row // grid.n_freq], row % grid.n_freq
        phase = np.exp(-2j * np.pi * p * m / (2 * grid.M)) * np.exp(-1j * np.pi * l * p**2 / (4 * grid.M**2))
        for j, w in enumerate(windows):
            for n in range(grid.n_time):
                want[i, j, n] = np.sum(f[n : n + 2 * K + 1] * w * phase)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [0, 2])
def test_a_fetch_keeps_the_bits_of_a_larger_fetch(crossing_scene, crossing_grid, n):
    # a one-row product would run as a matrix-vector product, with other bits
    family = WindowFamily(n, 1.0)
    bank = make_window_bank(family, family.default_half_len(1 / FS), 1 / FS)
    for windows in ([bank.h], [bank.th, bank.t2h, *bank.basis]):
        rows = np.arange(2000, 2005)
        ((_, full),) = _windowed_sums(crossing_scene.signal(), windows, crossing_grid, rows)
        for k in (1, 2, 3):
            ((part, sums),) = _windowed_sums(crossing_scene.signal(), windows, crossing_grid, rows[:k])
            assert part == slice(0, k) and np.array_equal(sums, full[:k])


@pytest.mark.parametrize("n", [0, 2])
def test_blocks_of_rows_keep_the_bits_of_one_product(crossing_scene, crossing_grid, n, monkeypatch):
    # the parts tile the rows in order, at most PHASE_BLOCK // taps rows each (one when taps exceed it);
    # the STFT and both SSTs split their 51 zero-chirp rows into ten products of 5 rows and one of a single row
    signal, grid, family = crossing_scene.signal(), crossing_grid, WindowFamily(n, 1.0)
    bank = make_window_bank(family, family.default_half_len(1 / FS), 1 / FS)
    baselines = (lambda: stft(signal, bank.h, grid), lambda: sst1(signal, bank, grid), lambda: sst2(signal, bank, grid))
    want = [baseline().values for baseline in baselines]
    rows = np.arange(grid.n_chirp * grid.n_freq)[::-7]
    for cap, block in ((0, 1), (5, 5)):
        monkeypatch.setattr(transform, "PHASE_BLOCK", cap * bank.h.size)
        parts = [part for part, _ in _windowed_sums(signal, [bank.h], grid, rows)]
        assert parts == [slice(lo, min(lo + block, rows.size)) for lo in range(0, rows.size, block)]
    assert grid.n_freq % 5 == 1
    for baseline, values in zip(baselines, want):
        assert np.array_equal(baseline().values, values)


@pytest.mark.parametrize("n", [0, 2])
def test_chirplet_transform_memory_budget(crossing_scene, crossing_grid, n):
    """The phases of one block of rows at a time: never the whole grid's."""
    signal, grid = crossing_scene.signal(), crossing_grid
    assert (grid.n_chirp, grid.n_freq, grid.n_time) == (100, 51, 401)
    family = WindowFamily(n, 1.0)
    window = make_window_bank(family, family.default_half_len(1 / FS), 1 / FS).h
    volume = grid.n_chirp * grid.n_freq * grid.n_time * 16
    tensor, peak, _ = traced_volumes(lambda: chirplet_transform(signal, window, grid), volume)
    assert tensor.values.shape == (100, 51, 401)
    assert peak <= 1.5


def test_bank_transform_matches_single_calls():
    rng = np.random.default_rng(5)
    samples = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    signal = Signal(samples, 10.0)
    grid = grid_from_resolution(0.1, 30, 10.0)
    bank = make_window_bank(WindowFamily(1, 1.0), 5, 0.1)
    banks = streamed_bank_transform(signal, bank, grid)
    h = chirplet_transform(signal, bank.h, grid).values
    rows = np.arange(grid.n_chirp * grid.n_freq)
    assert 0 < banks.rows.size < rows.size
    assert np.array_equal(banks.values, h.reshape(rows.size, -1)[banks.rows])
    ((part, companions_of),) = banks.companion_blocks(rows)  # one product: the grid is smaller than a block
    assert part == slice(0, rows.size)
    companions = companions_of(slice(None), h.reshape(rows.size, -1))
    windows = bank_windows(bank)
    for name, got in zip(("h_prime", "h_second", "th", "th_prime", "t2h"), companions):
        direct = chirplet_transform(signal, windows[name], grid).values
        assert np.allclose(got.reshape(direct.shape), direct, atol=1e-10)


# ---------------------------------------------------------------------------
# closed forms


def test_analytic_peak_value():
    val = analytic_ct_linear_chirp(3.0, 2.0, 1.0, t=0.7, xi=3.0 + 2.0 * 0.7, lam=2.0)
    assert abs(abs(val) - 1.0) < 1e-12


def test_analytic_lemma_bracket():
    # magnitude at the ridge frequency, bracketed between the decay bounds
    xi0, lam0, alpha = 4.0, 1.5, 0.8
    t = 1.1
    lam = lam0 + np.concatenate((np.linspace(0.2, 30, 40), -np.linspace(0.2, 30, 40)))
    mags = np.abs(analytic_ct_linear_chirp(xi0, lam0, alpha, t, xi0 + lam0 * t, lam))
    peak = alpha**-0.5
    dl = np.abs(lam - lam0)
    lower = np.sqrt(alpha) / (dl**2 + alpha**2) ** 0.25 * peak
    upper = np.exp(0.25) * np.sqrt(alpha) / np.sqrt(dl) * peak
    assert np.all(mags >= lower - 1e-12)
    assert np.all(mags <= upper + 1e-12)


def test_analytic_matches_quadrature():
    rng = np.random.default_rng(42)
    for _ in range(10):
        xi0 = rng.uniform(-3, 3)
        lam0 = rng.uniform(-4, 4)
        alpha = rng.uniform(0.5, 2.0)
        t = rng.uniform(-1, 1)
        xi = xi0 + lam0 * t + rng.uniform(-2, 2)
        lam = lam0 + rng.uniform(-5, 5)
        want = analytic_ct_linear_chirp(xi0, lam0, alpha, t, xi, lam)
        got = ct_quadrature(
            lambda x: np.exp(2j * np.pi * xi0 * x + 1j * np.pi * lam0 * x**2),
            lambda u: np.exp(-np.pi * alpha * u**2),
            t, xi, lam, half_width=9.0 / np.sqrt(alpha),
        )
        assert abs(got - want) < 1e-6 * abs(want)


def test_g_check_center_values():
    assert g_check(WindowFamily(0, 1.0), 0.0, 0.0) == pytest.approx(1.0)
    assert g_check(WindowFamily(1, 1.0), 0.0, 0.0) == pytest.approx(0.0)
    alpha = 2.0
    assert g_check(WindowFamily(2, alpha), 0.0, 0.0) == pytest.approx(
        1.0 / (2 * np.pi * alpha) / np.sqrt(alpha)
    )
    with pytest.raises(UnsupportedWindowError):
        g_check(WindowFamily(3, 1.0), 0.0, 0.0)


@pytest.mark.parametrize("n,bound", [(0, 1.2), (1, 0.5), (2, 0.3)])
def test_g_check_window_condition(n, bound):
    xi = np.linspace(-20, 20, 200)
    lam = np.linspace(-20, 20, 200)
    X, L = np.meshgrid(xi, lam)
    prod = np.abs(g_check(WindowFamily(n, 1.0), X, L)) * np.sqrt(np.abs(X) + np.abs(L))
    assert prod.max() <= bound


def test_g_check_matches_quadrature_n1():
    from scipy.integrate import quad

    fam = WindowFamily(1, 1.0)
    rng = np.random.default_rng(8)
    for _ in range(10):
        xi = rng.uniform(-2, 2)
        lam = rng.uniform(-4, 4)

        def integrand(x, part):
            atom = x * np.exp(-np.pi * x**2) * np.exp(-2j * np.pi * xi * x - 1j * np.pi * lam * x**2)
            return atom.real if part == 0 else atom.imag

        want = complex(
            quad(integrand, -8, 8, args=(0,), limit=400, epsabs=1e-13)[0],
            quad(integrand, -8, 8, args=(1,), limit=400, epsabs=1e-13)[0],
        )
        got = complex(g_check(fam, xi, lam))
        assert abs(got - want) < 1e-6 * max(abs(want), 1e-3)


def test_projection_basics():
    grid = grid_from_resolution(0.1, 6, 10.0)
    values = np.zeros((grid.n_chirp, grid.n_freq, 6), dtype=complex)
    from tfchirp.transform import TfcTensor

    assert not project_tfc_to_tf(TfcTensor(values, grid)).values.any()
    values[3, 2, 4] = 3.0 - 4.0j
    proj = project_tfc_to_tf(TfcTensor(values, grid)).values
    assert proj[2, 4] == pytest.approx(5.0 * grid.chirp_step_hzps)
    assert proj.sum() == pytest.approx(5.0 * grid.chirp_step_hzps)


def test_projection_monotone_under_modulus_increase():
    rng = np.random.default_rng(9)
    grid = grid_from_resolution(0.1, 5, 10.0)
    from tfchirp.transform import TfcTensor

    a = rng.standard_normal((grid.n_chirp, grid.n_freq, 5)) * (1 + 1j)
    b = a * rng.uniform(1.0, 3.0, size=a.shape)
    pa = project_tfc_to_tf(TfcTensor(a, grid)).values
    pb = project_tfc_to_tf(TfcTensor(b, grid)).values
    assert np.all(pb >= pa - 1e-12)


# ---------------------------------------------------------------------------
# chirp transform decay


def test_chirp_transform_zero():
    assert chirp_transform_1d(lambda x: np.zeros_like(np.asarray(x, float)), 7.0, (-1, 1)) == 0


def test_chirp_transform_gaussian_family_closed_form():
    alpha, p = 1.3, 2
    f = lambda x: alpha ** (1 / p) * np.exp(-np.pi * alpha**2 * x**2 / p)
    for lam in (0.7, 6.0, 80.0):
        got = abs(chirp_transform_1d(f, lam, (-12, 12)))
        want = alpha ** (1 / p) / (alpha**4 / p**2 + lam**2) ** 0.25
        assert abs(got - want) < 1e-4 * want


def test_chirp_transform_bump_decay_bound():
    from scipy.integrate import quad

    def bump(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        m = np.abs(x) < 1
        out[m] = np.exp(-1.0 / (1 - x[m] ** 2))
        return out

    def dbump(x):
        return float(bump(x)) * (-2 * x / (1 - x**2) ** 2) if abs(x) < 1 else 0.0

    norm1 = quad(lambda x: abs(dbump(x)), -1, 1, limit=200)[0]
    c = 2 * np.sqrt(6) / np.sqrt(np.pi)
    for lam in (10.0, 100.0, 1000.0):
        assert abs(chirp_transform_1d(bump, lam, (-1, 1))) <= c * norm1 * lam**-0.5


def test_fresnel_bound_random_segments():
    rng = np.random.default_rng(17)
    c = 2 * np.sqrt(6) / np.sqrt(np.pi)
    for _ in range(40):
        a = rng.uniform(-5, 4)
        b = a + rng.uniform(0.1, 6)
        lam = 10 ** rng.uniform(0, 4)
        assert abs(fresnel_segment(a, b, lam)) <= c * lam**-0.5 + 1e-12


def test_fresnel_matches_quadrature():
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    for (a, b, lam) in ((-0.7, 1.3, 37.0), (0.2, 2.0, 12.0), (-2.0, -0.3, 5.0)):
        got = fresnel_segment(a, b, lam)
        want = chirp_transform_1d(one, lam, (a, b))
        assert abs(got - want) < 1e-8


def test_vanishing_order_weight_decay_slope():
    # weight x^2 * gaussian: fitted log-log slope must beat -(2n+1)/3 + 0.15 for n=1
    weight = lambda x: x * x * np.exp(-np.pi * x * x)
    lams = np.logspace(2, 5, 7)
    mags = np.array([abs(chirp_transform_1d(weight, l, (-6, 6))) for l in lams])
    slope = np.polyfit(np.log(lams), np.log(mags), 1)[0]
    assert slope <= -1.0 + 0.15
