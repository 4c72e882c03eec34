import numpy as np
import pytest

from tfchirp import transform
from tfchirp.metrics import ot_if_metric
from tfchirp.pipeline import _match_components, crossing_study, ct_ridges, run_sct
from tfchirp.ridge import RidgeParams, extract_ridges
from tfchirp.signal import WindowFamily, grid_from_resolution, make_window_bank
from tfchirp.synth import SyntheticScene
from tfchirp.transform import resolvable_slots

from conftest import FS, interior_mask, sinusoidal_fm_pair


def small_crossing_scene(fs=50.0, duration=6.0):
    n = int(duration * fs) + 1
    x = np.arange(n) / fs
    p1 = (2.0, 2.5)   # IF 2 + 2.5 x
    p2 = (16.0, -2.0)  # IF 16 - 2 x, crossing near x = 3.1
    comps = np.stack(
        [np.exp(2j * np.pi * (xi * x + lam * x**2 / 2)) for xi, lam in (p1, p2)]
    )
    ifs = np.stack([xi + lam * x for xi, lam in (p1, p2)])
    chirps = np.stack([np.full(n, lam) for _, lam in (p1, p2)])
    return SyntheticScene(
        times_s=x, components=comps, amplitudes=np.ones((2, n)),
        ifs_hz=ifs, chirps_hzps=chirps, sample_rate_hz=fs,
    )


def test_crossing_study_rows_and_sanity():
    scene = small_crossing_scene()
    x = scene.times_s
    score = (x >= 1.0) & (x <= 5.0)
    rows, snr = crossing_study(
        scene, score, WindowFamily(2, 1.0), WindowFamily(0, 1.0),
        alpha_sq=0.02, seed=0, ridge_params=RidgeParams(seed=0),
    )
    assert snr == np.inf
    by = {r.method: r for r in rows}
    assert set(by) == {"sct", "ct", "sst2"}
    assert len(by["sct"].rel_errors) == 2 and len(by["sct"].ot_errors) == 2
    assert len(by["ct"].ot_errors) == 2 and by["ct"].rel_errors == ()
    assert len(by["sst2"].rel_errors) == 2
    # noiseless scene: the SCT path should track and reconstruct decently
    assert max(by["sct"].ot_errors) < 0.5
    assert max(by["sct"].rel_errors) < 0.5


def _h_sums(monkeypatch, scene, family):
    """The grid and bank of ``small_crossing_scene`` at ``alpha_sq`` 0.02 and the default window, and the list
    that gathers the rows of each ``_windowed_sums`` call against that bank's ``h`` alone from here on."""
    dt = 1 / scene.sample_rate_hz
    grid = grid_from_resolution(0.02, scene.times_s.size, scene.sample_rate_hz)
    bank = make_window_bank(family, family.default_half_len(dt), dt)
    summed, windowed_sums = [], transform._windowed_sums

    def spy(signal, windows, grid, rows, cols=slice(None)):
        if len(windows) == 1 and np.array_equal(windows[0], bank.h):
            summed.append(rows)
        return windowed_sums(signal, windows, grid, rows, cols)

    monkeypatch.setattr(transform, "_windowed_sums", spy)
    return grid, bank, summed


@pytest.mark.parametrize("analysis", ["crossing_study", "run_sct"])
def test_no_analysis_sums_an_aliased_row_against_h(monkeypatch, analysis):
    # T^h's pass sums each resolvable row against the analysis window once, and no other pass sums a row
    # against it: the field and the CT baseline read those sums, and the aliased rows are never summed
    scene, family = small_crossing_scene(), WindowFamily(2, 1.0)
    x = scene.times_s
    grid, bank, summed = _h_sums(monkeypatch, scene, family)
    if analysis == "crossing_study":
        crossing_study(scene, (x >= 1.0) & (x <= 5.0), family, WindowFamily(0, 1.0), alpha_sq=0.02,
                       ridge_params=RidgeParams(seed=0))
    else:
        field = run_sct(scene.signal(), family, grid)
        assert np.array_equal(field.banks.rows, np.flatnonzero(resolvable_slots(grid, bank)))
    assert (~resolvable_slots(grid, bank)).any()
    assert np.array_equal(np.concatenate(summed), np.flatnonzero(resolvable_slots(grid, bank)))


def test_ct_ridges_baseline_tracks():
    scene = small_crossing_scene()
    from tfchirp.signal import grid_from_resolution

    signal = scene.signal()
    grid = grid_from_resolution(0.02, len(signal), scene.sample_rate_hz)
    field = run_sct(signal, WindowFamily(2, 1.0), grid)
    ridges = ct_ridges(field.banks, 2, RidgeParams(seed=0))
    x = scene.times_s
    inner = (x >= 1.0) & (x <= 5.0)
    err01 = np.abs(ridges.omega_hz[0] - scene.ifs_hz[1])[inner].mean()
    err10 = np.abs(ridges.omega_hz[1] - scene.ifs_hz[0])[inner].mean()
    # curve 0 has the smaller mean chirp: matches the falling component
    assert err01 < 1.0 and err10 < 1.0


@pytest.mark.parametrize(
    "duration_s",
    [
        10,
        pytest.param(30, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 2: one global spectral cut follows the IF branches past one crossing",
        )),
    ],
)
def test_cli_defaults_track_a_long_fm_pair(duration_s):
    # CLI defaults on the sinusoidal-FM pair, W1 per mode matched by IF over the record less 1 s at each end
    signal, ifs = sinusoidal_fm_pair(duration_s)
    grid = grid_from_resolution(0.01, len(signal), FS)
    ridges = extract_ridges(run_sct(signal, WindowFamily(), grid), 2, RidgeParams())
    window = interior_mask(grid.n_time, FS, 1.0)
    assign = _match_components(ridges.omega_hz, ifs, window)
    w1 = [ot_if_metric(ridges.omega_hz[i], ifs[j], window) for i, j in enumerate(assign)]
    assert max(w1) < 0.2, w1
