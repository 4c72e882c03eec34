import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfchirp import reassign, ridge
from tfchirp.errors import DegenerateCloudError, EmptyCloudError, ParameterError
from tfchirp.pipeline import run_sct
from tfchirp.ridge import (
    RidgeParams,
    TfcPointCloud,
    extract_ridges,
    kmeans_cluster,
    ridges_from_clusters,
    select_high_energy,
    spectral_embed,
)
from tfchirp.reassign import synchrosqueeze
from tfchirp.signal import Signal, WindowFamily, grid_from_resolution
from tfchirp.transform import TfcTensor

import reference
from conftest import interior_mask, traced_volumes
from reference import admit_frame_peaks_loop, squeeze_destinations


def tensor_from(values, fs=10.0):
    grid = grid_from_resolution(0.5 / (values.shape[0] // 2), values.shape[2], fs)
    assert grid.n_chirp == values.shape[0] and grid.n_freq == values.shape[1]
    return TfcTensor(values.astype(complex), grid)


def test_select_q_zero_takes_all_nonzero():
    values = np.zeros((4, 3, 5))
    values[1, 2, 0] = 1.0
    values[3, 0, 2] = 2.0
    values[0, 1, 4] = 0.5
    cloud = select_high_energy(tensor_from(values), 0.0)
    assert len(cloud) == 3


def test_select_threshold_matches_sort_oracle():
    rng = np.random.default_rng(0)
    values = rng.standard_normal((6, 4, 7)) + 1j * rng.standard_normal((6, 4, 7))
    q = 0.8
    cloud = select_high_energy(tensor_from(values), q)
    flat = np.sort(np.abs(values).ravel())
    thr = np.quantile(np.abs(values), q)
    want = (np.abs(values) > thr).sum()
    assert len(cloud) == want


def test_select_empty_cloud_raises():
    values = np.ones((2, 2, 3))
    with pytest.raises(EmptyCloudError):
        select_high_energy(tensor_from(values), 0.5)


def test_select_per_frame_floor():
    values = np.zeros((4, 3, 6))
    values[2, 1, :] = 1.0  # a weak but persistent line
    values[0, 0, 0] = 100.0  # one loud spike that hogs the quantile
    cloud = select_high_energy(tensor_from(values), 0.99, min_per_frame=1)
    assert set(cloud.frames) == set(range(6))


def blob_cloud(seed=0, n=40, separation=8.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.3, size=(n, 3))
    b = rng.normal(0.0, 0.3, size=(n, 3))
    b[:, 0] += separation
    pts = np.vstack((a, b))
    from tfchirp.ridge import TfcPointCloud

    scale = pts.max(axis=0) - pts.min(axis=0)
    return TfcPointCloud(
        points=(pts - pts.min(axis=0)) / scale,
        physical=pts,
        weights=np.ones(2 * n),
        frames=np.zeros(2 * n, dtype=int),
    )


def test_spectral_embed_separates_blobs():
    cloud = blob_cloud()
    emb = spectral_embed(cloud, 2)
    side = emb[:, 0] > np.median(emb[:, 0])
    assert np.all(side[:40] == side[0]) and np.all(side[40:] != side[0])


def test_spectral_operator_properties():
    from scipy.spatial.distance import pdist, squareform

    cloud = blob_cloud(seed=3, n=15)
    d = pdist(cloud.points)
    sigma = np.percentile(d, 15.0)
    W = np.exp(-squareform(d) ** 2 / (2 * sigma**2))
    P = W / W.sum(axis=1, keepdims=True)
    assert np.allclose(P.sum(axis=1), 1.0)
    vals = np.linalg.eigvals(P)
    assert np.all(np.abs(vals) <= 1 + 1e-10)
    assert np.isclose(np.max(vals.real), 1.0)
    # leading eigenvector of the row-stochastic operator is constant
    w, v = np.linalg.eig(P)
    lead = v[:, np.argmax(w.real)]
    assert np.allclose(lead / lead[0], 1.0)


def test_spectral_embed_degenerate_cloud():
    from tfchirp.ridge import TfcPointCloud

    pts = np.zeros((8, 3))
    cloud = TfcPointCloud(
        points=pts, physical=pts, weights=np.ones(8), frames=np.zeros(8, dtype=int),
    )
    with pytest.raises(DegenerateCloudError):
        spectral_embed(cloud, 2)


def test_kmeans_single_cluster_and_blobs():
    assert np.array_equal(kmeans_cluster(np.random.default_rng(0).normal(size=(7, 2)), 1), np.zeros(7))
    cloud = blob_cloud(seed=5)
    labels = kmeans_cluster(cloud.points, 2, seed=1)
    assert len(np.unique(labels[:40])) == 1 and len(np.unique(labels[40:])) == 1
    assert labels[0] != labels[-1]
    with pytest.raises(ParameterError):
        kmeans_cluster(np.zeros((2, 2)), 3)


def test_kmeans_beats_random_labelings():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(50, 2))
    labels = kmeans_cluster(pts, 3, seed=0)

    def inertia(lab):
        total = 0.0
        for c in range(3):
            sel = lab == c
            if sel.any():
                total += ((pts[sel] - pts[sel].mean(axis=0)) ** 2).sum()
        return total

    ours = inertia(labels)
    for _ in range(1000):
        assert ours <= inertia(rng.integers(0, 3, size=50)) + 1e-9


def test_kmeans_deterministic():
    pts = np.random.default_rng(2).normal(size=(30, 3))
    a = kmeans_cluster(pts, 2, seed=42)
    b = kmeans_cluster(pts, 2, seed=42)
    assert np.array_equal(a, b)


def test_ridge_through_single_points_per_frame():
    grid = grid_from_resolution(0.1, 4, 10.0)
    values = np.zeros((grid.n_chirp, grid.n_freq, 4), dtype=complex)
    bins = [(2, 1), (3, 2), (4, 3), (5, 3)]
    for n, (l, m) in enumerate(bins):
        values[l, m, n] = 1.0
    tensor = TfcTensor(values, grid)
    cloud = select_high_energy(tensor, 0.0)
    ridges = ridges_from_clusters(cloud, np.zeros(len(cloud), dtype=int), grid)
    for n, (l, m) in enumerate(bins):
        assert ridges.omega_hz[0, n] == pytest.approx(grid.freqs_hz[m])
        assert ridges.mu_hzps[0, n] == pytest.approx(grid.chirps_hzps[l])
    assert ridges.observed.all()


def test_ridge_gap_interpolation():
    grid = grid_from_resolution(0.1, 5, 10.0)
    values = np.zeros((grid.n_chirp, grid.n_freq, 5), dtype=complex)
    values[4, 1, 0] = 1.0
    values[4, 3, 4] = 1.0  # nothing at frames 1..3
    tensor = TfcTensor(values, grid)
    cloud = select_high_energy(tensor, 0.0)
    ridges = ridges_from_clusters(cloud, np.zeros(len(cloud), dtype=int), grid)
    assert not ridges.observed[0, 1:4].any()
    assert np.allclose(ridges.omega_hz[0], np.linspace(grid.freqs_hz[1], grid.freqs_hz[3], 5))
    assert ridges.valid.all()


def test_label_permutation_invariance():
    cloud = blob_cloud(seed=9)
    grid = grid_from_resolution(0.1, 1, 10.0)
    # two clusters at one frame, weighted centroids must not depend on ids
    labels = np.array([0] * 40 + [1] * 40)
    from tfchirp.ridge import TfcPointCloud

    phys = np.column_stack((np.zeros(80), np.abs(cloud.physical[:, 1]), cloud.physical[:, 2] * 0.1))
    c2 = TfcPointCloud(cloud.points, phys, cloud.weights, cloud.frames)
    a = ridges_from_clusters(c2, labels, grid)
    b = ridges_from_clusters(c2, 1 - labels, grid)
    assert np.allclose(a.omega_hz, b.omega_hz)
    assert np.allclose(a.mu_hzps, b.mu_hzps)


def test_single_chirp_k1_extraction(chirp_f1_sct):
    signal, grid, field = chirp_f1_sct
    ridges = extract_ridges(synchrosqueeze(field), 1, RidgeParams())
    x = signal.t0_s + np.arange(len(signal)) / grid.sample_rate_hz
    inner = interior_mask(len(signal), grid.sample_rate_hz, 1.3)
    assert np.max(np.abs(ridges.omega_hz[0][inner] - 8 * x[inner])) <= grid.freq_step_hz
    assert np.max(np.abs(ridges.mu_hzps[0][inner] - 8.0)) <= grid.chirp_step_hzps


def test_crossing_pair_extraction(crossing_sct_g2, crossing_scene, crossing_grid):
    ridges = extract_ridges(crossing_sct_g2, 2, RidgeParams(seed=0))
    step = crossing_grid.chirp_step_hzps
    assert abs(ridges.mu_hzps[0].mean() - (-2 * np.pi)) <= step
    assert abs(ridges.mu_hzps[1].mean() - 8.0) <= step


def test_crossing_cloud_geometry(crossing_s_g2, crossing_scene):
    cloud = select_high_energy(crossing_s_g2, 0.9995)
    t = cloud.physical[:, 0]
    frames = np.clip((t * 100).astype(int), 0, len(crossing_scene.times_s) - 1)
    d1 = np.abs(cloud.physical[:, 1] - crossing_scene.ifs_hz[0][frames]) + np.abs(
        cloud.physical[:, 2] - 8.0
    )
    d2 = np.abs(cloud.physical[:, 1] - crossing_scene.ifs_hz[1][frames]) + np.abs(
        cloud.physical[:, 2] + 2 * np.pi
    )
    near = np.minimum(d1, d2) < 5.0
    share = cloud.weights[near].sum() / cloud.weights.sum()
    assert share > 0.85


def test_selection_scale_invariance(crossing_s_g2):
    tensor = crossing_s_g2
    scaled = TfcTensor(3.5 * tensor.values, tensor.grid)
    a = select_high_energy(tensor, 0.999)
    b = select_high_energy(scaled, 0.999)
    assert np.array_equal(a.frames, b.frames)
    assert np.allclose(a.points, b.points)
    la = kmeans_cluster(spectral_embed(a, 2), 2, seed=0)
    lb = kmeans_cluster(spectral_embed(b, 2), 2, seed=0)
    assert np.array_equal(la, lb)


def test_extraction_deterministic(crossing_sct_g2):
    p = RidgeParams(seed=7)
    a = extract_ridges(crossing_sct_g2, 2, p)
    b = extract_ridges(crossing_sct_g2, 2, p)
    assert np.array_equal(a.omega_hz, b.omega_hz)
    assert np.array_equal(a.mu_hzps, b.mu_hzps)


def _dense_embedding(cloud, n_components, sigma_pct):
    """Oracle: the Ng-Jordan-Weiss embedding through a dense eigendecomposition."""
    from scipy.linalg import eigh
    from scipy.spatial.distance import pdist, squareform

    d = pdist(cloud.points)
    sigma = np.percentile(d, sigma_pct)
    W = np.exp(-squareform(d) ** 2 / (2 * sigma**2))
    d_isqrt = 1.0 / np.sqrt(W.sum(axis=1))
    n, n_dim = len(cloud), 2 * (n_components - 1)
    _, vecs = eigh(W * d_isqrt[:, None] * d_isqrt[None, :], subset_by_index=(n - n_dim - 1, n - 1))
    emb = d_isqrt[:, None] * vecs[:, ::-1][:, 1:]
    return emb / np.linalg.norm(emb, axis=1, keepdims=True)


@pytest.mark.parametrize("n_components", [2, 3])
def test_spectral_embed_matches_dense_eigh(crossing_s_g2, n_components):
    cloud = select_high_energy(crossing_s_g2, 0.9995)
    emb = spectral_embed(cloud, n_components, 15.0)
    want = _dense_embedding(cloud, n_components, 15.0)
    signs = np.sign((emb * want).sum(axis=0))
    assert np.max(np.abs(emb * signs - want)) <= 1e-10
    again = spectral_embed(cloud, n_components, 15.0)
    assert np.array_equal(emb, again)  # fixed start vector: repeatable to the bit


def test_spectral_embed_needs_one_point_beyond_the_embedding():
    cloud = blob_cloud(n=2)  # 4 points: k = n_dim + 1 = 3 eigenpairs need n >= 4
    assert spectral_embed(cloud, 2).shape == (4, 2)
    from tfchirp.ridge import TfcPointCloud

    three = TfcPointCloud(
        cloud.points[:3], cloud.physical[:3], cloud.weights[:3], cloud.frames[:3]
    )
    with pytest.raises(ParameterError):
        spectral_embed(three, 2)


@pytest.mark.parametrize("count", [1, 3, 6])
def test_admit_frame_peaks_matches_per_frame_loop(count):
    from tfchirp.ridge import FRAME_CHUNK

    rng = np.random.default_rng(count)
    # more than two chunks of frames, the last one partial
    mags = np.abs(rng.standard_normal((9, 7, 2 * FRAME_CHUNK + 21)))
    mags[:, :, 3] = 0.0  # silent frame
    mags[:, :, 5] = 0.0
    mags[0, 0, 5] = 2.0  # one peak in the corner, then silence
    mags[:, :, 7] = 1.0  # flat frame: ties resolve to the first index
    mags[:, :, FRAME_CHUNK - 1] = 0.0  # silent last frame of a chunk
    mags[8, 6, FRAME_CHUNK] = 3.0  # a corner peak opening the next chunk
    mags[rng.random(mags.shape) < 0.3] = 0.0
    # q this close to 1 picks only the volume's largest entry, itself a peak
    # of its frame: the tile walk's picks are the peaks
    q = 1 - 2**-53
    want = np.zeros(mags.shape, dtype=bool)
    admit_frame_peaks_loop(mags, want, count)
    assert not (mags > np.quantile(mags, q))[~want].any()
    threshold, got, weights = ridge._tile_walk(mags.astype(complex), q, count)  # |x + 0j| is x: the ties stay ties
    assert np.float64(threshold).tobytes() == np.float64(np.quantile(mags, q)).tobytes()
    assert np.array_equal(got, np.flatnonzero(want))
    assert np.array_equal(weights, mags.ravel()[got])


@pytest.mark.parametrize("min_per_frame", [0, 3])
@pytest.mark.parametrize("q", [0.5, 0.9995])
@pytest.mark.parametrize("volume", ["sct", "ct", "field"])
def test_blocked_selection_equals_the_whole_volume_selection(
    crossing_sct_g2, crossing_s_g2, monkeypatch, volume, q, min_per_frame
):
    # a field's S is squeezed tile by tile inside the selection; a bank's |T^h|
    # is its resolvable rows', with every aliased row 0
    banks = crossing_sct_g2.banks
    source = {"sct": crossing_s_g2, "ct": banks, "field": crossing_sct_g2}[volume]
    whole = TfcTensor(reference.resolvable_h(banks), banks.grid) if volume == "ct" else crossing_s_g2
    want = reference.select_high_energy(whole, q, min_per_frame)
    assert (want.core is None) == (min_per_frame == 0)
    # 997 entries: block edges fall inside the rows of every frame
    for block in (reassign.ENTRY_BLOCK, 997):
        monkeypatch.setattr(reassign, "ENTRY_BLOCK", block)
        got = select_high_energy(source, q, min_per_frame)
        for name in ("points", "physical", "weights", "frames"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (block, name)
        assert (got.core is None) == (want.core is None)
        assert want.core is None or np.array_equal(got.core, want.core), block


def test_select_rejects_a_negative_min_per_frame(crossing_s_g2):
    with pytest.raises(ParameterError, match="min_per_frame"):
        select_high_energy(crossing_s_g2, 0.9995, min_per_frame=-1)


def test_core_cloud_equals_selection_without_peaks(crossing_s_g2):
    tensor = crossing_s_g2
    aug = select_high_energy(tensor, 0.9995, min_per_frame=3)
    core = select_high_energy(tensor, 0.9995)
    assert len(aug) > len(core) and aug.core.sum() == len(core)
    sub = aug.core_cloud()
    for name in ("points", "physical", "weights", "frames"):
        assert np.array_equal(getattr(sub, name), getattr(core, name)), name


def test_emptied_cluster_raises_extraction_error(crossing_sct_g2, crossing_s_g2, monkeypatch):
    from tfchirp import ridge
    from tfchirp.errors import ExtractionError

    monkeypatch.setattr(ridge, "kmeans_cluster", lambda emb, k, **kw: np.zeros(len(emb), dtype=int))
    with pytest.raises(ExtractionError):
        extract_ridges(crossing_sct_g2, 2, RidgeParams(seed=0))
    with pytest.raises(ExtractionError):
        extract_ridges(crossing_s_g2, 2, RidgeParams(seed=0, min_per_frame=2))


def _local_linear_curve_loop(t_pts, y_pts, w_pts, t_eval, half_width, iters, clip):
    """Oracle: the bisquare IRLS as first written (sums, np.median, a reweight after every fit)."""
    order = np.argsort(t_pts, kind="stable")
    t_pts, y_pts, w_pts = t_pts[order], y_pts[order], w_pts[order]
    out = np.full(t_eval.shape, np.nan)
    lo = np.searchsorted(t_pts, t_eval - half_width)
    hi = np.searchsorted(t_pts, t_eval + half_width)
    for i, tc in enumerate(t_eval):
        sl = slice(lo[i], hi[i])
        ts = t_pts[sl] - tc
        ys = y_pts[sl]
        base = w_pts[sl] * (1 - (ts / half_width) ** 2)
        if ts.size == 0 or base.sum() <= 0:
            continue
        ws = base
        a = None
        for _ in range(iters + 1):
            w0, w1, w2 = ws.sum(), (ws * ts).sum(), (ws * ts * ts).sum()
            y0, y1 = (ws * ys).sum(), (ws * ts * ys).sum()
            den = w0 * w2 - w1 * w1
            if den > 0:
                a = (w2 * y0 - w1 * y1) / den
                b = (w0 * y1 - w1 * y0) / den
            else:
                a, b = y0 / w0, 0.0
            resid = ys - (a + b * ts)
            scale = np.median(np.abs(resid)) + 1e-12
            ws = base * np.clip(1 - (resid / (clip * scale)) ** 2, 0, 1) ** 2
            if ws.sum() <= 0:
                ws = base
        out[i] = a
    return out


def _curve_fit_cases():
    """(t, y, w, t_eval, clip) series that between them take every branch of the fit.

    The random windows are centered inside the record: a window reaching
    past its end extrapolates from a few points to one side, an
    ill-conditioned fit whose rounding either loop magnifies alike.
    """
    cases = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        n = 300
        t = rng.uniform(0.0, 4.0, n)
        y = 10.0 + 2.0 * t + 0.3 * rng.standard_normal(n)
        y[rng.random(n) < 0.1] += 20.0  # outliers the bisquare rejects
        w = rng.uniform(0.2, 2.0, n)
        # empty windows beyond both ends of the record
        cases.append((t, y, w, np.r_[-2.0, -1.0, np.linspace(0.5, 3.5, 61), 5.0, 6.0], 4.0))
    rng = np.random.default_rng(7)
    # zero base weight
    cases.append((rng.uniform(0.0, 1.0, 9), rng.normal(3.0, 1.0, 9), np.zeros(9), np.array([0.5]), 4.0))
    # den <= 0: every point of the window sits exactly at its center
    cases.append((np.full(5, 8.0), rng.normal(3.0, 1.0, 5), rng.uniform(0.5, 1.0, 5), np.array([7.0, 8.0, 9.0]), 4.0))
    # residuals of equal size, all clipped to zero weight: the fit falls back to the base weights
    t = np.array([7.875, 7.875, 8.125, 8.125])
    cases.append((t, np.array([4.0, 2.0, 4.0, 2.0]), np.ones(4), np.array([8.0]), 0.5))
    return cases


def test_local_linear_curve_matches_the_first_loop():
    from tfchirp.ridge import _local_linear_curve

    sizes = []
    for t, y, w, t_eval, clip in _curve_fit_cases():
        want = _local_linear_curve_loop(t, y, w, t_eval, 0.5, 4, clip)
        got = _local_linear_curve(t, y, w, t_eval, 0.5, 4, clip)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        ts = np.sort(t)
        sizes.extend(np.searchsorted(ts, t_eval + 0.5) - np.searchsorted(ts, t_eval - 0.5))
    sizes = np.array(sizes)
    assert (sizes == 0).any() and (sizes % 2 == 1).any() and (sizes[sizes > 0] % 2 == 0).any()


@st.composite
def energy_volumes(draw):
    """|S|-like magnitudes: ties, mostly zeros as in a squeezed volume, NaN, sizes from 1 upward."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.one_of(st.integers(1, 64), st.integers(65, 5000), st.integers(1 << 17, 300_000)))
    levels = draw(st.sampled_from([0, 1, 3, 50]))  # 0: continuous values; else ties among a few levels
    values = rng.exponential(1.0, size) if levels == 0 else rng.integers(1, levels + 1, size).astype(float)
    values[rng.random(size) < draw(st.sampled_from([0.0, 0.5, 0.9, 0.999, 1.0]))] = 0.0
    if draw(st.integers(0, 4)) == 0:
        values[rng.integers(size)] = np.nan
    q = draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 0.5, 0.9995, 1 - 2**-53])))
    return values, q


def _misleading_volume():
    """Every 4th entry is raised by 10: a strided sample sees only the largest quarter."""
    values = np.random.default_rng(0).random(1 << 18)
    values[::4] += 10.0
    return values


# the layouts of the walk's tiles: one row of 64-entry tiles, or one frame whose one tile is split into blocks
ONE_ROW, ONE_FRAME = (1, 1, -1), (-1, 1, 1)


@settings(max_examples=80)
@given(energy_volumes(), st.sampled_from([reassign.ENTRY_BLOCK, 997]), st.sampled_from([ONE_ROW, ONE_FRAME]))
@example((_misleading_volume(), 0.5), reassign.ENTRY_BLOCK, ONE_FRAME)
@example((_misleading_volume(), 0.5), reassign.ENTRY_BLOCK, ONE_ROW)
def test_above_quantile_is_numpys_quantile_and_the_entries_above_it(volume, block, layout):
    values, q = volume
    default, reassign.ENTRY_BLOCK = reassign.ENTRY_BLOCK, block
    try:
        threshold, picked, weights = ridge._tile_walk(values.reshape(layout), q, 0)
    finally:
        reassign.ENTRY_BLOCK = default
    want = np.quantile(values, q)
    assert np.float64(threshold).tobytes() == np.float64(want).tobytes()
    assert np.array_equal(picked, np.flatnonzero(values > want))
    assert np.array_equal(weights, values[picked])


def test_select_high_energy_memory_budget(crossing_s_g2):
    tensor = crossing_s_g2
    assert tensor.values.shape == (100, 51, 401)
    volume = tensor.values.size * 8  # one float64 volume
    cloud, peak, _ = traced_volumes(lambda: select_high_energy(tensor, 0.9995, min_per_frame=3), volume)
    assert cloud.core is not None and cloud.core.any()
    assert peak <= 0.25  # one tile's magnitudes and its peeling (measured 0.19; 0.32 when two tiles were held)


def test_select_high_energy_memory_budget_on_a_sparse_volume(crossing_grid):
    # the zeros equal the floor: they are counted, never held
    shape = (crossing_grid.n_chirp, crossing_grid.n_freq, crossing_grid.n_time)
    values = np.zeros(shape, dtype=complex)
    rng = np.random.default_rng(0)
    values.flat[rng.choice(values.size, values.size * 3 // 10_000, replace=False)] = rng.exponential(1.0, 613)
    tensor = TfcTensor(values, crossing_grid)
    cloud, peak, _ = traced_volumes(lambda: select_high_energy(tensor, 0.9995, min_per_frame=3), values.size * 8)
    assert cloud.core is not None and cloud.core.sum() == 613
    assert peak <= 0.25  # measured 0.17; 0.32 when two tiles were held


def test_select_from_a_field_holds_no_s():
    # a long record on a short grid: S is squeezed a 64-frame tile at a time,
    # 1% of the record here (measured 0.038 volumes; a whole S is 1)
    fs = 20.0
    x = np.arange(6401) / fs
    signal = Signal(np.exp(2j * np.pi * (2 * x + 0.01 * x**2)) + np.exp(2j * np.pi * (8 * x - 0.01 * x**2)), fs)
    field = run_sct(signal, WindowFamily(0, 1.0), grid_from_resolution(0.05, len(signal), fs), half_len=20)
    grid = field.grid
    assert (grid.n_chirp, grid.n_freq, grid.n_time) == (20, 11, 6401)
    volume = grid.n_chirp * grid.n_freq * grid.n_time * 16
    cloud, peak, _ = traced_volumes(lambda: select_high_energy(field, 0.9995, 0), volume)
    assert len(cloud) > 0 and cloud.core is None
    assert peak <= 0.25


def test_select_high_energy_copies_no_selection(crossing_s_g2):
    # no |S| volume and no selection mask: magnitudes exist one 64-frame tile
    # at a time, and the core is read off the weights
    tensor = crossing_s_g2
    cloud, peak, _ = traced_volumes(lambda: select_high_energy(tensor, 0.9995, min_per_frame=3), tensor.values.size * 8)
    assert cloud.core is not None and 0 < cloud.core.sum() < len(cloud)
    assert peak <= 0.34


def test_spectral_embed_memory_budget():
    # the condensed distances, their partitioned copy and the affinity share
    # one n x n buffer of doubles
    n = 1023
    pts = np.random.default_rng(0).random((n, 3))
    cloud = TfcPointCloud(pts, pts, np.ones(n), np.zeros(n, dtype=int))
    spectral_embed(blob_cloud(), 2)  # its scipy imports stay out of the trace
    embedding, peak, _ = traced_volumes(lambda: spectral_embed(cloud, 2), n * n * 8)
    assert embedding.shape == (n, 2)
    assert peak <= 1.1


@pytest.mark.parametrize("n, sigma_pct", [(4, 1e-9), (5, 100.0), (57, 50.0), (1023, 15.0), (1500, 30.0)])
def test_affinity_in_one_buffer_equals_squareform(n, sigma_pct, monkeypatch):
    # sigma and the matrix to the bit, and with them the embedding
    pts = np.random.default_rng(n).random((n, 3))
    sym, sigma = ridge._gaussian_affinity(pts, sigma_pct)
    want, want_sigma = reference.gaussian_affinity_squareform(pts, sigma_pct)
    assert float(sigma).hex() == float(want_sigma).hex()
    assert np.array_equal(sym, want)
    cloud = TfcPointCloud(pts, pts, np.ones(n), np.zeros(n, dtype=int))
    embedding = spectral_embed(cloud, 2, sigma_pct)
    monkeypatch.setattr(ridge, "_gaussian_affinity", reference.gaussian_affinity_squareform)
    assert np.array_equal(embedding, spectral_embed(cloud, 2, sigma_pct))
    # zero distances: half the points at one place, and every point twice; a zero sigma raises in both
    coincident = pts.copy()
    coincident[: (n + 1) // 2] = pts[0]
    for cloud_pts in (coincident, np.repeat(pts[: (n + 1) // 2], 2, axis=0)[:n]):
        try:
            want, want_sigma = reference.gaussian_affinity_squareform(cloud_pts, sigma_pct)
        except DegenerateCloudError:
            with pytest.raises(DegenerateCloudError):
                ridge._gaussian_affinity(cloud_pts, sigma_pct)
            continue
        sym, sigma = ridge._gaussian_affinity(cloud_pts, sigma_pct)
        assert float(sigma).hex() == float(want_sigma).hex()
        assert np.array_equal(sym, want)


def test_landed_sources_match_squeeze_destinations(crossing_sct_g2):
    # random bins in shuffled order, a tile with none and a bin that no
    # source reaches: the one-pass pairs, tile by tile in (row, frame) order
    field = crossing_sct_g2
    n_time = field.grid.n_time
    src, dest = squeeze_destinations(field)
    rng = np.random.default_rng(3)
    reached = np.unique(dest)
    bins = rng.choice(reached, 3000, replace=False)
    bins = bins[bins % n_time // ridge.FRAME_CHUNK != 2]
    unreached = np.setdiff1d(np.arange(field.defined.size), reached)[-1:]
    bins = rng.permutation(np.concatenate((bins, unreached)))
    got_src, which, _, _, _ = field.sources(bins)
    hit = np.isin(dest, bins)
    want_src, want_dest = src[hit], dest[hit]
    order = np.lexsort((want_src % n_time, want_src // n_time, want_src % n_time // ridge.FRAME_CHUNK))
    assert want_src.size > 1000 and unreached.size == 1
    assert np.array_equal(got_src, want_src[order]) and np.array_equal(bins[which], want_dest[order])
    assert 2 not in got_src % n_time // ridge.FRAME_CHUNK
    # the order the curve fits see after their stable sort by time: rows ascend within each frame
    frame, row = got_src % n_time, got_src // n_time
    by_time = np.argsort(frame, kind="stable")
    assert np.all(np.diff(row[by_time])[np.diff(frame[by_time]) == 0] > 0)


def test_source_tracing_takes_more_than_127_clusters(crossing_sct_g2, crossing_s_g2):
    cloud = select_high_energy(crossing_s_g2, 0.9995, min_per_frame=3)
    ridges = ridge.ridges_from_sources(cloud, np.arange(len(cloud)) % 130, crossing_sct_g2)
    assert ridges.n_components == 130 and ridges.valid.all()
