"""The streamed SCT core: T^h as the only bank volume, companions summed per row block."""

import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfchirp import reassign, ridge, transform
from tfchirp.errors import ParameterError
from tfchirp.pipeline import ct_ridges, run_sct
from tfchirp.reassign import (
    ALIASED,
    BELOW,
    DEGENERATE,
    FRAME_CHUNK,
    OFF_GRID,
    reassignment_field,
    squeeze_conservation,
    synchrosqueeze,
)
from tfchirp.ridge import RidgeParams, extract_ridges
from tfchirp.signal import Signal, WindowFamily, grid_from_resolution, make_window_bank
from tfchirp.synth import add_student_t_noise
from tfchirp.transform import PHASE_BLOCK, TfcTensor, resolvable_slots, streamed_bank_transform

from conftest import traced_volumes
import reference
from reference import (
    BankTensors,
    chirplet_bank_transform,
    conservation_full_volume,
    squeeze_destinations,
    whole_codes,
    whole_h,
)

FS = 20.0


@st.composite
def small_analyses(draw):
    """A random signal, grid, window bank and threshold."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_time = draw(st.integers(8, 60))
    samples = rng.standard_normal(n_time) + 1j * rng.standard_normal(n_time)
    grid = grid_from_resolution(draw(st.sampled_from([0.05, 0.1, 0.125, 0.25])), n_time, FS)
    family = WindowFamily(draw(st.integers(0, 2)), draw(st.floats(0.3, 4.0)))
    bank = make_window_bank(family, draw(st.integers(2, 25)), 1 / FS)
    nu_rel = 10 ** draw(st.floats(-6.0, -0.3))
    return Signal(samples, FS), grid, bank, nu_rel


@settings(max_examples=40)
@given(small_analyses())
def test_streamed_field_matches_stored_bank(analysis):
    signal, grid, bank, nu_rel = analysis
    stored = chirplet_bank_transform(signal, bank, grid)
    streamed = streamed_bank_transform(signal, bank, grid)
    assert np.array_equal(streamed.rows, np.flatnonzero(resolvable_slots(grid, bank)))
    assert np.array_equal(streamed.values, stored.h.values.reshape(-1, grid.n_time)[streamed.rows])
    assert streamed.peak == np.abs(stored.h.values).max()  # over every row, the aliased ones too
    nu = nu_rel * np.abs(stored.h.values).max()
    ref = reassignment_field(stored, nu=nu)
    field = reassignment_field(streamed, nu=nu)
    assert np.array_equal(field.defined, ref.defined)
    d = ref.defined
    assert np.all(np.abs(field.omega[d] - ref.omega[d]) <= 1e-6 * grid.freq_step_hz)
    assert np.all(np.abs(field.mu[d] - ref.mu[d]) <= 1e-6 * grid.chirp_step_hzps)
    assert np.isnan(field.omega[~d]).all() and np.isnan(field.mu[~d]).all()


@settings(max_examples=40)
@given(small_analyses())
def test_run_sct_keeps_bank_h_and_conserves_mass(analysis):
    # criterion 06 over random grids, windows and thresholds
    signal, grid, bank, nu_rel = analysis
    field = run_sct(signal, bank.family, grid, bank.half_len, nu_rel=nu_rel)
    h = chirplet_bank_transform(signal, bank, grid).h.values
    assert np.array_equal(field.banks.values, h.reshape(-1, grid.n_time)[field.banks.rows])
    assert field.nu == nu_rel * np.abs(h).max() or not np.abs(h).max()
    assert squeeze_conservation(field, synchrosqueeze(field)).max() <= 1e-10


@pytest.mark.parametrize("n", [0, 2])
def test_streamed_field_on_the_crossing_grid(crossing_scene, crossing_grid, n):
    # several row fetches and field blocks per call, unlike the small grids
    # above; noisy, as the CLI sees it (on the noise-free scene, far off-ridge
    # entries are so ill-conditioned that the stored bank's own estimates
    # there are off by 0.1 bin)
    noisy, _ = add_student_t_noise(crossing_scene.components.sum(axis=0), 4.0, 0.1, seed=51)
    signal, grid = Signal(noisy, crossing_grid.sample_rate_hz), crossing_grid
    family = WindowFamily(n, 1.0)
    bank = make_window_bank(family, family.default_half_len(0.01), 0.01)
    ref = reassignment_field(chirplet_bank_transform(signal, bank, grid))
    field = reassignment_field(streamed_bank_transform(signal, bank, grid))
    d = ref.defined
    assert np.array_equal(field.defined, d) and d.any()
    assert np.max(np.abs(field.omega[d] - ref.omega[d])) <= 1e-6 * grid.freq_step_hz
    assert np.max(np.abs(field.mu[d] - ref.mu[d])) <= 1e-6 * grid.chirp_step_hzps


def test_blocked_squeeze_equals_one_pass(chirp_f1_sct, monkeypatch):
    # S to the bit against one np.add.at over every (source, destination) pair
    _, _, field = chirp_f1_sct
    src, dest = squeeze_destinations(field)
    one_pass = np.zeros(field.defined.size, dtype=np.complex128)
    np.add.at(one_pass, dest, whole_h(field.banks).ravel()[src])
    assert src.size > 10 * 997
    conservation = squeeze_conservation(field, synchrosqueeze(field))
    # at 100 each block is one row of 401 frames, wider than the block
    for block in (reassign.ENTRY_BLOCK, 997, 100):
        monkeypatch.setattr(reassign, "ENTRY_BLOCK", block)
        squeezed = synchrosqueeze(field)
        assert np.array_equal(squeezed.values.ravel(), one_pass)
        assert np.array_equal(squeeze_conservation(field, squeezed), conservation)


@pytest.mark.parametrize("block", [reassign.ENTRY_BLOCK, 997])
@pytest.mark.parametrize("fixture", ["crossing_sct_g0", "crossing_sct_g2"])
def test_squeezed_frame_range_is_the_slice_of_s(request, fixture, block, monkeypatch):
    # every 64-frame tile (the last one 17 frames), an unaligned range and a
    # single frame, each against the whole-record S, to the bit
    field = request.getfixturevalue(fixture)
    n_time = field.grid.n_time
    whole = synchrosqueeze(field).values
    monkeypatch.setattr(reassign, "ENTRY_BLOCK", block)
    tiles = [slice(t0, min(t0 + FRAME_CHUNK, n_time)) for t0 in range(0, n_time, FRAME_CHUNK)]
    assert tiles[-1].stop - tiles[-1].start == 17
    for frames in (*tiles, slice(37, 250), slice(200, 201), slice(None, 5), slice(390, None)):
        part = synchrosqueeze(field, frames)
        start, stop = frames.indices(n_time)[:2]
        assert part.grid == replace(field.grid, n_time=stop - start)
        assert np.array_equal(part.values, whole[:, :, frames]), frames


@pytest.mark.parametrize(
    "frames", [slice(0, 64, 2), slice(None, None, -1), slice(-1, None), slice(0, 402), slice(5, 5), slice(9, 3)]
)
def test_squeeze_rejects_a_frame_range_outside_the_record_or_strided(crossing_sct_g2, frames):
    assert crossing_sct_g2.grid.n_time == 401
    with pytest.raises(ParameterError, match="frames"):
        synchrosqueeze(crossing_sct_g2, frames)


def _random_bank_field():
    """A field of six unrelated random bank tensors, with entries below the threshold."""
    rng = np.random.default_rng(5)
    grid = grid_from_resolution(0.05, 70, FS)
    bank = make_window_bank(WindowFamily(1, 1.0), 20, 1 / FS)
    shape = (grid.n_chirp, grid.n_freq, grid.n_time)
    tensors = [TfcTensor(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), grid) for _ in range(6)]
    return reassignment_field(BankTensors(*tensors, bank=bank), nu=0.3)


@pytest.fixture(params=["crossing_sct_g0", "crossing_sct_g2", "bank_tensors"])
def coded_field(request):
    if request.param == "bank_tensors":
        return _random_bank_field()
    return request.getfixturevalue(request.param)


def test_codes_name_the_squeeze_destinations(coded_field):
    field = coded_field
    src, dest = squeeze_destinations(field)
    codes = whole_codes(field).reshape(-1)
    moved = np.flatnonzero(codes >= 0)
    assert field.grid.n_chirp * field.grid.n_freq <= 32767  # every code fits int16
    assert field.codes.dtype == np.int16 and src.size > 0
    assert np.array_equal(moved, src)
    assert np.array_equal(codes[moved].astype(np.intp) * field.grid.n_time + moved % field.grid.n_time, dest)


def test_codes_of_a_grid_above_32767_rows_are_int32():
    # 33,024 rows: destinations past int16's range, a few frames and a short window
    rng = np.random.default_rng(11)
    grid = grid_from_resolution(0.0039, 12, FS)
    assert grid.n_chirp * grid.n_freq == 33024
    signal = Signal(rng.standard_normal(12) + 1j * rng.standard_normal(12), FS)
    field = reassignment_field(streamed_bank_transform(signal, make_window_bank(WindowFamily(0, 1.0), 5, 1 / FS), grid))
    src, dest = squeeze_destinations(field)
    codes = whole_codes(field).reshape(-1)
    assert field.codes.dtype == np.int32 and codes.max() > np.iinfo(np.int16).max
    assert np.array_equal(np.flatnonzero(codes >= 0), src)
    assert np.array_equal(codes[src].astype(np.intp) * grid.n_time + src % grid.n_time, dest)


def test_codes_hold_each_cause(coded_field):
    field = coded_field
    codes = whole_codes(field)
    resolvable = np.broadcast_to(resolvable_slots(field.grid, field.banks.bank)[:, :, None], codes.shape)
    above = np.abs(whole_h(field.banks)) > field.nu
    defined = ~np.isnan(field.omega)
    moved = np.zeros(codes.size, dtype=bool)
    moved[squeeze_destinations(field)[0]] = True
    causes = {
        ALIASED: ~resolvable,
        BELOW: resolvable & ~above,
        DEGENERATE: resolvable & above & ~defined,
        OFF_GRID: defined & ~moved.reshape(codes.shape),
    }
    for cause, where in causes.items():
        assert np.count_nonzero(codes == cause) == np.count_nonzero(where)
        assert np.array_equal(codes == cause, where)
    assert np.count_nonzero(codes >= 0) + sum(map(np.count_nonzero, causes.values())) == codes.size
    assert np.array_equal(field.defined, defined)
    assert np.array_equal(field.defined, ~np.isnan(field.mu))


def _recomputed(field, flat):
    """(omega, mu) at the ascending flat entries ``flat`` of resolvable rows, through source tracing's
    per-tile recompute."""
    n_time = field.grid.n_time
    tile = flat % n_time // FRAME_CHUNK
    rows = np.searchsorted(field.banks.rows, flat // n_time)  # among the resolvable rows
    assert np.array_equal(field.banks.rows[rows], flat // n_time)
    omega, mu = np.empty(flat.size), np.empty(flat.size)
    for t in np.unique(tile):
        sel, t0 = tile == t, t * FRAME_CHUNK
        omega[sel], mu[sel], _ = field._recompute_tile(rows[sel], flat[sel] % n_time - t0, t0)
    return omega, mu


def test_estimates_equal_the_volumes_bit_for_bit(coded_field):
    # tile by tile, in products of at most ``cap`` rows: the squeezed entries
    # (every tile, the short last one too), whole rows of the last tile in
    # products of 1, 2 and 3 rows, alone and after a product of ``cap`` rows,
    # and a lone entry; and the sources of random bins
    field = coded_field
    n_time = field.grid.n_time
    cap = max(1, PHASE_BLOCK // field.banks.bank.h.size)
    src, dest = squeeze_destinations(field)
    assert np.array_equal(np.unique(src % n_time // FRAME_CHUNK), np.arange(-(-n_time // FRAME_CHUNK)))
    assert n_time % FRAME_CHUNK
    rows = np.unique(src // n_time)
    assert rows.size > cap + 3 or isinstance(field.banks, BankTensors)  # a streamed bank's tile crosses the cap
    last_tile = np.arange(n_time - n_time % FRAME_CHUNK, n_time)
    sets = [src, src[-1:]]
    for k in (1, 2, 3):
        sets += [(some[:, None] * n_time + last_tile).ravel() for some in (rows[:k], rows[: cap + k])]
    for flat in sets:
        omega, mu = _recomputed(field, flat)
        assert np.array_equal(omega, field.omega.ravel()[flat], equal_nan=True)
        assert np.array_equal(mu, field.mu.ravel()[flat], equal_nan=True)
    bins = np.random.default_rng(2).choice(np.unique(dest), 300, replace=False)
    landed, _, omega, mu, magnitude = field.sources(bins)
    assert landed.size >= bins.size
    assert np.array_equal(omega, field.omega.ravel()[landed]) and np.array_equal(mu, field.mu.ravel()[landed])
    assert np.array_equal(magnitude, np.abs(whole_h(field.banks).ravel()[landed]))


@pytest.mark.parametrize("fixture", ["crossing_sct_g0", "crossing_sct_g2"])
def test_estimates_hold_one_tile_of_sums(request, fixture, monkeypatch):
    # source tracing for the bins of the cloud ``extract_ridges(field, …)`` selects, recomputed tile by
    # tile: no owner volume, no whole-row fetch and no whole-record windowed segments
    field = request.getfixturevalue(fixture)
    grid = field.grid
    traced = []
    sources = reassign.ReassignmentField.sources
    monkeypatch.setattr(
        reassign.ReassignmentField, "sources", lambda field, bins: traced.append(bins) or sources(field, bins)
    )
    extract_ridges(field, 2, RidgeParams(seed=0))
    volume = grid.n_chirp * grid.n_freq * grid.n_time * 16
    (src, _, omega, _, _), peak, _ = traced_volumes(lambda: sources(field, traced[0]), volume)
    assert omega.size == src.size > 10_000
    assert peak <= 0.5


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("fixture", ["crossing_sct_g0", "crossing_sct_g2"])
def test_codes_do_not_depend_on_block_sizes(crossing_scene, crossing_grid, request, fixture, rows, monkeypatch):
    # the rule is pointwise: products of 1 row (summed twice, as one row of a
    # larger product) and of 7 rows, each split into elementwise blocks of
    # 997 entries, give the default codes and recomputed estimates to the bit
    want = request.getfixturevalue(fixture)
    bank = want.banks.bank
    bins = np.random.default_rng(4).choice(squeeze_destinations(want)[1], 100, replace=False)
    wanted = want.sources(bins)
    monkeypatch.setattr(transform, "PHASE_BLOCK", rows * bank.h.size)
    monkeypatch.setattr(reassign, "ENTRY_BLOCK", 997)
    field = run_sct(crossing_scene.signal(), bank.family, crossing_grid)
    assert np.array_equal(field.banks.values, want.banks.values) and field.banks.peak == want.banks.peak
    assert np.array_equal(field.codes, want.codes)
    for got, expected in zip(field.sources(bins), wanted):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("alpha_sq, half_len", [(0.01, 430), (0.05, 40)])
def test_resolvable_slots_match_the_whole_volume_formula(alpha_sq, half_len):
    grid = grid_from_resolution(alpha_sq, 100, 100.0)
    bank = make_window_bank(WindowFamily(2, 1.0), half_len, 0.01)
    j = np.arange(-half_len, half_len + 1)
    w = np.abs(bank.h)
    nu_atom = (
        grid.chirp_indices[:, None, None] / (4 * grid.M**2) * j[None, None, :]
        + (np.arange(grid.n_freq) / (2 * grid.M))[None, :, None]
    )
    expected = (np.abs(nu_atom) > 0.5) @ w <= 1e-3 * w.sum()
    assert np.array_equal(resolvable_slots(grid, bank), expected)


def test_companion_dtype_is_gone():
    assert "companion_dtype" not in inspect.signature(run_sct).parameters


def test_conservation_matches_full_volume_formula():
    field = _random_bank_field()
    squeezed = synchrosqueeze(field)
    new = squeeze_conservation(field, squeezed)
    old = conservation_full_volume(field, squeezed)
    assert 0 < field.defined.sum() < field.defined.size
    assert np.max(np.abs(new - old)) <= 1e-12


@pytest.mark.parametrize("fixture", ["crossing_sct_g0", "crossing_sct_g2"])
def test_the_resolvable_rows_give_the_whole_grid_outputs(request, fixture):
    # T^h and the codes on the resolvable rows alone, against the squeeze
    # (whole record and each tile), source tracing, the conservation residual
    # and the CT baseline over every row of the grid, to the bit
    field = request.getfixturevalue(fixture)
    grid, rows = field.grid, field.banks.rows
    h, codes = whole_h(field.banks), whole_codes(field)
    assert 0.5 < 1 - rows.size / (grid.n_chirp * grid.n_freq) < 0.7  # the aliased share of the grid
    assert np.array_equal(field.banks.values, h.reshape(-1, grid.n_time)[rows])
    squeezed = synchrosqueeze(field)
    assert np.array_equal(squeezed.values, reference.squeeze_whole(h, codes))
    for t0 in range(0, grid.n_time, FRAME_CHUNK):
        frames = slice(t0, min(t0 + FRAME_CHUNK, grid.n_time))
        assert np.array_equal(synchrosqueeze(field, frames).values, reference.squeeze_whole(h, codes, frames))
    residual = squeeze_conservation(field, squeezed)
    assert np.array_equal(residual, reference.conservation_whole(h, codes, squeezed.values))
    mags = np.abs(squeezed.values).ravel()
    bins = np.random.default_rng(6).permutation(np.flatnonzero(mags > np.quantile(mags, 0.99)))
    got, want = field.sources(bins), reference.sources_whole(field, h, codes, bins)
    assert got[0].size > 1000
    for part, expected in zip(got, want):
        assert np.array_equal(part, expected)
    for min_per_frame in (0, 3):
        params = RidgeParams(seed=0, min_per_frame=min_per_frame)
        ridges = ct_ridges(field, 2, params)
        expected = extract_ridges(TfcTensor(h, grid), 2, params)
        for name in ("omega_hz", "mu_hzps", "valid", "observed"):
            assert np.array_equal(getattr(ridges, name), getattr(expected, name)), (min_per_frame, name)


@pytest.mark.parametrize("n", [0, 2])
def test_run_sct_memory_budget(crossing_scene, crossing_grid, n):
    # both peak in the field pass: T^h and the codes on the resolvable rows
    # (1.125 volumes times 0.405 at n = 0 and 0.325 at n = 2) and the windowed
    # segments of the companion windows over all frames (0.34 volumes at n = 0,
    # 0.68 at n = 2, which has two more windows), beside one product's sums and
    # estimates (measured 1.266 and 1.575 volumes; 1.967 and 2.364 when T^h and
    # the codes covered every row)
    budget = {0: 1.35, 2: 1.66}[n]
    signal = crossing_scene.signal()
    grid = crossing_grid
    assert (grid.n_chirp, grid.n_freq, grid.n_time) == (100, 51, 401)
    volume = grid.n_chirp * grid.n_freq * grid.n_time * 16
    field, peak, retained = traced_volumes(lambda: run_sct(signal, WindowFamily(n, 1.0), grid), volume)
    assert field.codes.shape == field.banks.values.shape == (field.banks.rows.size, 401)
    assert peak <= budget
    assert retained <= 1.2


@pytest.mark.parametrize("n", [0, 2])
def test_run_sct_retains_no_mask(crossing_scene, crossing_grid, n):
    # T^h and the field's int16 codes on the resolvable rows alone: 1.125 volumes
    # times the resolvable share (0.405 at n = 0, 0.325 at n = 2), and no S,
    # mask or estimate beside them
    signal = crossing_scene.signal()
    grid = crossing_grid
    volume = grid.n_chirp * grid.n_freq * grid.n_time * 16
    field, _, retained = traced_volumes(lambda: run_sct(signal, WindowFamily(n, 1.0), grid), volume)
    share = field.banks.rows.size / (grid.n_chirp * grid.n_freq)
    assert share < 0.41
    assert retained <= 1.125 * share + 0.01


def test_the_analysis_builds_no_estimate_volume(crossing_scene, crossing_grid):
    # source tracing recomputes the estimates of the landed entries alone
    field = run_sct(crossing_scene.signal(), WindowFamily(2, 1.0), crossing_grid)
    extract_ridges(field, 2, RidgeParams(seed=0))
    ct_ridges(field, 2, RidgeParams(seed=0))
    assert not {"omega", "mu"} & field.__dict__.keys()


def test_extract_ridges_embed_without_s(crossing_scene, crossing_grid, monkeypatch):
    # at the embedding, the analysis holds T^h, the int16 codes and the cloud:
    # the selection squeezed S a tile at a time (2.25 volumes with S alive)
    signal, grid = crossing_scene.signal(), crossing_grid
    volume = grid.n_chirp * grid.n_freq * grid.n_time * 16
    params = RidgeParams(seed=0)
    at_embed = []
    embed = ridge.spectral_embed

    def traced_embed(*args, **kwargs):
        at_embed.append(tracemalloc.get_traced_memory()[0])
        return embed(*args, **kwargs)

    monkeypatch.setattr(ridge, "spectral_embed", traced_embed)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        extract_ridges(run_sct(signal, WindowFamily(2, 1.0), grid), 2, params)
    finally:
        tracemalloc.stop()
    assert len(at_embed) == 1 and (at_embed[0] - base) / volume <= 1.2


@pytest.mark.parametrize("min_per_frame", [0, 3])
def test_extract_ridges_memory_budget(crossing_sct_g2, min_per_frame):
    # the selection squeezes one 64-frame tile of S at a time: no S is held
    # beside T^h and the codes (a whole S alone is 1 volume; measured 0.43 and 0.44)
    import scipy.spatial
    import scipy.sparse.linalg  # noqa: F401  (the embedding's imports stay out of the trace)

    field = crossing_sct_g2
    volume = field.defined.size * 16
    params = RidgeParams(seed=0, min_per_frame=min_per_frame)
    ridges, peak, _ = traced_volumes(lambda: extract_ridges(field, 2, params), volume)
    assert ridges.n_components == 2
    assert peak < 0.75


@pytest.mark.parametrize("min_per_frame", [0, 3])
@pytest.mark.parametrize("fixture", ["crossing_sct_g0", "crossing_sct_g2"])
def test_ct_ridges_memory_budget(request, fixture, min_per_frame):
    # the CT baseline reads |T^h| on every row: the aliased rows are summed
    # again into float64 magnitudes (0.30 volumes at n = 0, 0.34 at n = 2),
    # beside the window's segments over all frames (0.17 volumes at 861 taps)
    # and one product's phases and sums; no complex volume (measured 0.66 and
    # 0.70 volumes, at min_per_frame 0 and 3 alike), and nothing is kept
    import scipy.spatial
    import scipy.sparse.linalg  # noqa: F401  (the embedding's imports stay out of the trace)

    field = request.getfixturevalue(fixture)
    volume = field.defined.size * 16
    params = RidgeParams(seed=0, min_per_frame=min_per_frame)
    ridges, peak, retained = traced_volumes(lambda: ct_ridges(field, 2, params), volume)
    assert ridges.n_components == 2
    assert peak < 0.75
    assert retained < 0.01


def test_squeeze_conservation_copies_no_volume(crossing_sct_g2, crossing_s_g2):
    # the contributing entries are summed in place, not through a masked copy
    # of T^h: the one temporary is the boolean map of the contributing codes
    grid = crossing_sct_g2.grid
    volume = grid.n_chirp * grid.n_freq * grid.n_time * 16
    residual, peak, _ = traced_volumes(lambda: squeeze_conservation(crossing_sct_g2, crossing_s_g2), volume)
    assert residual.max() <= 1e-10
    assert peak <= 0.1
