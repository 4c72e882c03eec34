"""End-to-end acceptance suite.

Each test exercises one numbered acceptance criterion at its stated
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to see
the lines live).
"""

import time

import numpy as np

from tfchirp.metrics import rel_error, wasserstein1_1d
from tfchirp.pipeline import random_study, run_sct
from tfchirp.reassign import sst2, squeeze_conservation, synchrosqueeze, reassignment_field
from tfchirp.reconstruct import reconstruct_modes, sst_band_reconstruct
from tfchirp.ridge import RidgeParams, extract_ridges
from tfchirp.signal import Signal, WindowFamily, grid_from_resolution, make_window_bank
from tfchirp.transform import chirplet_transform, g_check, streamed_bank_transform

from conftest import interior_mask
from reference import analytic_ct_linear_chirp_mag, chirp_transform_1d, fresnel_segment
from test_metrics import lp_transport

FS = 100.0


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_closed_form_ct_match():
    n = 401
    x = 1.0 + np.arange(n) / FS
    signal = Signal(np.exp(2j * np.pi * 4 * x**2), FS, 1.0)
    grid = grid_from_resolution(0.01, n, FS)
    fam = WindowFamily(0, 1.0)
    bank = make_window_bank(fam, fam.default_half_len(signal.dt_s), signal.dt_s)
    start = time.monotonic()
    tensor = chirplet_transform(signal, bank.h, grid)
    elapsed = time.monotonic() - start
    mags = np.abs(tensor.values) / FS
    ana = analytic_ct_linear_chirp_mag(
        0.0, 8.0, 1.0,
        x[None, None, :], grid.freqs_hz[None, :, None], grid.chirps_hzps[:, None, None],
    )
    inner = interior_mask(n, FS, 1.25)
    err = np.abs(mags[:, :, inner] - ana[:, :, inner]).max() / ana[:, :, inner].max()
    ok = err <= 1e-2 and elapsed < 30.0
    _report(1, "closed-form CT match", ok, f"rel-Linf {err:.2e} (<=1e-2), runtime {elapsed:.1f}s (<30s)")


def _top_two_separated(values, min_gap=3):
    order = np.argsort(values)[::-1]
    picks = []
    for idx in order:
        if all(abs(int(idx) - p) > min_gap for p in picks):
            picks.append(int(idx))
        if len(picks) == 2:
            break
    return sorted(picks)


def test_criterion_02_crossing_slice_peaks(crossing_s_g2, crossing_s_g0, crossing_grid):
    grid = crossing_grid
    frame = 200  # t0 = 3 s
    m0 = 24  # 24 Hz
    slice_g2 = np.abs(crossing_s_g2.values[:, m0, frame])
    peaks = grid.chirps_hzps[_top_two_separated(slice_g2)]
    step = grid.chirp_step_hzps
    ok_peaks = abs(peaks[0] - (-2 * np.pi)) <= step and abs(peaks[1] - 8.0) <= step
    slice_g0 = np.abs(crossing_s_g0.values[:, m0, frame])
    ratio = slice_g0[grid.M - 1] / slice_g0.max()
    ok_ratio = ratio < 0.1
    _report(
        2, "crossing slice peaks", ok_peaks and ok_ratio,
        f"g2 peaks at {peaks[0]:+.2f}/{peaks[1]:+.2f} Hz/s (true -6.28/8.00, +-{step:.0f}); "
        f"g0 zero-chirp ratio {ratio:.3f} (<0.1)",
    )


def test_criterion_03_reassignment_exactness(chirp_f1_sct):
    signal, grid, field = chirp_f1_sct
    mags = np.abs(chirplet_transform(signal, field.banks.bank.h, grid).values)
    inner = interior_mask(grid.n_time, FS, 1.25)
    top = (mags > np.quantile(mags, 0.99)) & inner[None, None, :]
    sel = top & field.defined
    x = signal.times_s
    true_if = np.broadcast_to(8 * x, mags.shape)
    mu_err = np.nanmax(np.abs(field.mu[sel] - 8.0)) / grid.chirp_step_hzps
    om_err = np.nanmax(np.abs(field.omega[sel] - true_if[sel])) / grid.freq_step_hz
    share = sel.sum() / top.sum()
    ok = mu_err <= 2.0 and om_err <= 1.0 and share > 0.95
    _report(
        3, "reassignment exactness", ok,
        f"|mu-8| max {mu_err:.3f} chirp bins (<=2), |omega-8t| max {om_err:.3f} freq bins (<=1), "
        f"defined share {share:.3f}",
    )


def test_criterion_04_reconstruction_ordering(crossing_scene, crossing_grid, crossing_sct_g2):
    signal = crossing_scene.signal()
    ridges = extract_ridges(crossing_sct_g2, 2, RidgeParams(seed=0))
    fam0 = WindowFamily(0, 1.0)
    bank0 = make_window_bank(fam0, fam0.default_half_len(signal.dt_s), signal.dt_s)
    modes = reconstruct_modes(signal, ridges, bank0)
    x = crossing_scene.times_s
    i1 = (x >= 2.5) & (x <= 3.5)
    i2 = ((x >= 1.0) & (x < 2.5)) | ((x > 3.5) & (x <= 5.0))
    # curves are ordered by ascending chirp rate: curve 0 ~ f2, curve 1 ~ f1
    sct_i1 = [
        rel_error(modes.modes[1].real, crossing_scene.components[0].real, i1),
        rel_error(modes.modes[0].real, crossing_scene.components[1].real, i1),
    ]
    sct_i2 = [
        rel_error(modes.modes[1].real, crossing_scene.components[0].real, i2),
        rel_error(modes.modes[0].real, crossing_scene.components[1].real, i2),
    ]
    # SST2 baseline: a Gaussian window sized to the 2M-sample comb of the grid
    alpha_sst = (4.3 / (crossing_grid.M * signal.dt_s)) ** 2
    fam_sst = WindowFamily(0, alpha_sst)
    bank_sst = make_window_bank(fam_sst, fam_sst.default_half_len(signal.dt_s), signal.dt_s)
    s2 = sst2(signal, bank_sst, crossing_grid)
    sst_i1, sst_i2 = [], []
    for k in range(2):
        est = sst_band_reconstruct(s2, crossing_scene.ifs_hz[k], 3.0, fam_sst)
        sst_i1.append(rel_error(est.real, crossing_scene.components[k].real, i1))
        sst_i2.append(rel_error(est.real, crossing_scene.components[k].real, i2))
    ok = (
        max(sct_i1) <= 0.15
        and max(sct_i1) < min(sst_i1)
        and max(sst_i2) < min(sct_i2)
    )
    _report(
        4, "reconstruction ordering", ok,
        f"SCT I1 {sct_i1[0]:.3f}/{sct_i1[1]:.3f} (<=0.15, < SST2 I1 {sst_i1[0]:.3f}/{sst_i1[1]:.3f}); "
        f"SST2 I2 {sst_i2[0]:.3f}/{sst_i2[1]:.3f} < SCT I2 {sct_i2[0]:.3f}/{sct_i2[1]:.3f}",
    )


def test_criterion_05_decay_slopes():
    # Fresnel envelope over a fixed segment straddling the stationary point
    lams = np.logspace(1, 4, 160)
    vals = np.array([abs(fresnel_segment(-0.7, 1.3, l)) for l in lams])
    bins = np.array_split(np.arange(lams.size), 16)
    env_x = np.array([lams[b][np.argmax(vals[b])] for b in bins])
    env_y = np.array([vals[b].max() for b in bins])
    slope = np.polyfit(np.log(env_x), np.log(env_y), 1)[0]
    ok_slope = abs(slope - (-0.5)) <= 0.1
    # pointwise bound with the stated constant
    rng = np.random.default_rng(2)
    c = 2 * np.sqrt(6) / np.sqrt(np.pi)
    ok_bound = True
    for _ in range(60):
        a = rng.uniform(-4, 3)
        b = a + rng.uniform(0.2, 5)
        lam = 10 ** rng.uniform(0, 4)
        ok_bound &= abs(fresnel_segment(a, b, lam)) <= c * lam**-0.5 + 1e-12
    # vanishing-order-2 weight
    weight = lambda u: u * u * np.exp(-np.pi * u * u)
    lams2 = np.logspace(2, 5, 7)
    mags2 = np.array([abs(chirp_transform_1d(weight, l, (-6, 6))) for l in lams2])
    slope2 = np.polyfit(np.log(lams2), np.log(mags2), 1)[0]
    ok2 = slope2 <= -1.0 + 0.15
    _report(
        5, "decay slopes", ok_slope and ok_bound and ok2,
        f"fresnel envelope slope {slope:.3f} (-0.5+-0.1), pointwise bound {'held' if ok_bound else 'violated'}; "
        f"x^2-weight slope {slope2:.3f} (<=-0.85)",
    )


def test_criterion_06_mass_conservation():
    rng = np.random.default_rng(99)
    worst = 0.0
    for seed in range(3):
        samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        signal = Signal(samples, FS)
        grid = grid_from_resolution(0.01, 256, FS)
        bank = make_window_bank(WindowFamily(0, 1.0), 180, signal.dt_s)
        banks = streamed_bank_transform(signal, bank, grid)
        field = reassignment_field(banks)
        squeezed = synchrosqueeze(field)
        worst = max(worst, squeeze_conservation(field, squeezed).max())
    ok = worst < 1e-10
    _report(6, "mass conservation", ok, f"max per-frame relative residual {worst:.2e} (<1e-10)")


def test_criterion_07_covariance_invariants():
    rng = np.random.default_rng(5)
    fs, n = 32.0, 96
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    grid = grid_from_resolution(0.5 / 16, n, fs)  # M=16
    bank = make_window_bank(WindowFamily(0, 1.0), 16, 1 / fs)
    x = np.arange(n) / fs
    base = chirplet_transform(Signal(samples, fs), bank.h, grid).values
    scale = np.abs(base).max()
    # modulation by an integer number of frequency bins
    kf = 4
    xi1 = kf * grid.freq_step_hz
    shifted = chirplet_transform(Signal(samples * np.exp(2j * np.pi * xi1 * x), fs), bank.h, grid).values
    err_mod = np.abs(np.abs(shifted[:, kf:, :]) - np.abs(base[:, :-kf, :])).max() / scale
    # chirp multiplication by an integer number of chirp bins
    kc = 2
    lam1 = kc * grid.chirp_step_hzps
    mult = chirplet_transform(Signal(samples * np.exp(1j * np.pi * lam1 * x**2), fs), bank.h, grid).values
    frames = [nn for nn in range(n) if (kc * nn) % (2 * grid.M) == 0]
    err_chirp = 0.0
    for nn in frames:
        fshift = (kc * nn) // (2 * grid.M)
        lhs = np.abs(mult[kc:, fshift:, nn])
        rhs = np.abs(base[: grid.n_chirp - kc, : grid.n_freq - fshift, nn])
        err_chirp = max(err_chirp, np.abs(lhs - rhs).max() / scale)
    ok = err_mod <= 1e-6 and err_chirp <= 1e-6
    _report(
        7, "covariance invariants", ok,
        f"modulation rel-Linf {err_mod:.2e}, chirp rel-Linf {err_chirp:.2e} on {len(frames)} frames (<=1e-6)",
    )


def test_criterion_08_ot_oracle_equivalence():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(200):
        na, nb = rng.integers(1, 7, size=2)
        xa, xb = rng.normal(scale=3.0, size=na), rng.normal(scale=3.0, size=nb)
        wa, wb = rng.uniform(0.05, 1.0, size=na), rng.uniform(0.05, 1.0, size=nb)
        ours = wasserstein1_1d(xa, wa, xb, wb)
        lp = lp_transport(xa, wa, xb, wb)
        worst = max(worst, abs(ours - lp))
    ok = worst <= 1e-9
    _report(8, "OT oracle equivalence", ok, f"max |W1 - LP| over 200 instances {worst:.2e} (<=1e-9)")


def test_criterion_09_monte_carlo_study():
    start = time.monotonic()
    rows, summary = random_study(range(10))
    elapsed = time.monotonic() - start
    rels = np.concatenate([r.rel_errors for r in rows if r.method == "sct"])
    wins = 0
    for seed in range(10):
        ot_sct = np.mean([r.ot_errors for r in rows if r.method == "sct" and r.seed == seed])
        ot_ct = np.mean([r.ot_errors for r in rows if r.method == "ct" and r.seed == seed])
        wins += ot_sct < ot_ct
    ok = rels.mean() <= 0.30 and wins >= 7 and elapsed < 600
    _report(
        9, "Monte-Carlo study", ok,
        f"mean rel err {rels.mean():.3f} (<=0.30), OT wins {wins}/10 (>=7), runtime {elapsed:.0f}s (<600s)",
    )


def test_criterion_10_separated_scene_and_window_condition():
    fs, n = FS, 401
    x = np.arange(n) / fs
    comps = [
        np.exp(2j * np.pi * (8 * x + 1.0 * x**2)),
        np.exp(2j * np.pi * (36 * x - 0.75 * x**2)),
    ]
    ifs = np.vstack((8 + 2 * x, 36 - 1.5 * x))
    chirps = np.vstack((np.full(n, 2.0), np.full(n, -1.5)))
    signal = Signal(comps[0] + comps[1], fs)
    grid = grid_from_resolution(0.01, n, fs)
    field = run_sct(signal, WindowFamily(0, 1.0), grid)
    mags = np.abs(chirplet_transform(signal, field.banks.bank.h, grid).values)
    inner = interior_mask(n, fs, 1.25)
    sel = (mags > np.quantile(mags, 0.99)) & field.defined & inner[None, None, :]
    l_idx, m_idx, n_idx = np.nonzero(sel)
    om = field.omega[sel]
    mu = field.mu[sel]
    # score each entry against the component it sits nearest in frequency
    d0 = np.abs(grid.freqs_hz[m_idx] - ifs[0][n_idx])
    comp = (np.abs(grid.freqs_hz[m_idx] - ifs[1][n_idx]) < d0).astype(int)
    om_err = np.abs(om - ifs[comp, n_idx]) / grid.freq_step_hz
    mu_err = np.abs(mu - chirps[comp, n_idx]) / grid.chirp_step_hzps
    ok_scene = om_err.max() <= 2.0 and mu_err.max() <= 2.0
    xi = np.linspace(-20, 20, 200)
    lam = np.linspace(-20, 20, 200)
    X, L = np.meshgrid(xi, lam)
    bounds = {0: 1.2, 1: 0.5, 2: 0.3}
    sups = {}
    ok_window = True
    for nw, bound in bounds.items():
        prod = np.abs(g_check(WindowFamily(nw, 1.0), X, L)) * np.sqrt(np.abs(X) + np.abs(L))
        sups[nw] = prod.max()
        ok_window &= sups[nw] <= bound
    _report(
        10, "separated-scene estimates + window condition", ok_scene and ok_window,
        f"omega err max {om_err.max():.3f} bins, mu err max {mu_err.max():.3f} bins (<=2); "
        f"window sups n0={sups[0]:.2f} n1={sups[1]:.2f} n2={sups[2]:.2f} (bounded)",
    )
