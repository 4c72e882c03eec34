"""High-level analysis pipelines shared by the CLI and the studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import ot_if_metric, rel_error
from .reassign import (
    DEFAULT_NU_REL,
    ReassignmentField,
    default_threshold,
    reassignment_field,
    sst2,
)
from .reconstruct import reconstruct_modes, sst_band_reconstruct
from .ridge import RidgeParams, RidgeSet, extract_ridges
from .signal import Signal, TfcGrid, WindowFamily, grid_from_resolution, make_window_bank
from .synth import SyntheticScene, add_student_t_noise, random_ict_scene
from .transform import StreamedBank, streamed_bank_transform

SST_DELTA_HZ = 3.0


def run_sct(
    signal: Signal,
    family: WindowFamily,
    grid: TfcGrid,
    half_len: int | None = None,
    nu_rel: float = DEFAULT_NU_REL,
) -> ReassignmentField:
    """The SCT of a signal: T^h and its reassignment field in one go.

    T^h is the only bank volume kept, on the resolvable rows alone, as the
    field's ``banks``; the field sums the companions block by block over those
    rows and keeps only each entry's int16 (int32 on grids taller than 32767
    rows) squeeze code.  Entries at or below ``nu_rel`` times the peak of
    |T^h| over those rows are undefined.  S is ``synchrosqueeze(field)``.
    """
    banks = _streamed_bank(signal, family, grid, half_len)
    return reassignment_field(banks, nu=default_threshold(banks.peak, nu_rel))


def _streamed_bank(signal: Signal, family: WindowFamily, grid: TfcGrid, half_len: int | None) -> StreamedBank:
    bank = make_window_bank(family, half_len or family.default_half_len(signal.dt_s), signal.dt_s)
    return streamed_bank_transform(signal, bank, grid)


def ct_ridges(banks: StreamedBank, n_components: int, params: RidgeParams | None = None) -> RidgeSet:
    """Baseline: the same extraction on |T^h| over the resolvable rows, 0 on the aliased rows as in the field."""
    return extract_ridges(banks, n_components, params)


@dataclass(frozen=True)
class StudyRow:
    method: str
    seed: int
    rel_errors: tuple  # per mode, on the scoring window
    ot_errors: tuple  # per mode IF tracking score


def _match_components(est_if: np.ndarray, true_if: np.ndarray, window: np.ndarray) -> list:
    """Assign estimated curves to true components by IF proximity."""
    from scipy.optimize import linear_sum_assignment

    k = true_if.shape[0]
    cost = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            cost[i, j] = np.abs(est_if[i] - true_if[j])[window].mean()
    return [int(j) for j in linear_sum_assignment(cost)[1]]  # a square cost's rows are 0..k-1


def crossing_study(
    scene: SyntheticScene,
    score_mask: np.ndarray,
    analysis_family: WindowFamily,
    recon_family: WindowFamily,
    alpha_sq: float = 0.01,
    noise_scale: float = 0.0,
    seed: int = 0,
    ridge_params: RidgeParams | None = None,
    half_len: int | None = None,
):
    """One realization of the SCT / CT / SST2 comparison on a scene.

    Returns per-method rows with relative reconstruction errors of each
    component's real part over ``score_mask`` and the mean per-frame W1
    between estimated and true IF curves.  The SST2 baseline integrates a
    band of ``SST_DELTA_HZ`` around each true IF.
    """
    mixed = scene.mixed
    snr_db = np.inf
    if noise_scale > 0:
        mixed, snr_db = add_student_t_noise(mixed, dof=4.0, scale=noise_scale, seed=seed)
    signal = Signal(mixed, scene.sample_rate_hz, float(scene.times_s[0]))
    grid = grid_from_resolution(alpha_sq, len(signal), scene.sample_rate_hz)
    params = ridge_params or RidgeParams(seed=seed)
    k = scene.components.shape[0]

    # the CT baseline runs first: a seed's peak RSS moves with the order of its 10-30 MB allocations
    banks = _streamed_bank(signal, analysis_family, grid, half_len)
    ridges_ct = ct_ridges(banks, k, params)
    ridges_sct = extract_ridges(reassignment_field(banks), k, params)

    recon_bank = make_window_bank(
        recon_family, recon_family.default_half_len(signal.dt_s), signal.dt_s
    )
    modes = reconstruct_modes(signal, ridges_sct, recon_bank)
    s2 = sst2(signal, recon_bank, grid)

    def matched(ridges):
        """Per true component: the index of the curve matched to it, and that curve's IF score."""
        assign = _match_components(ridges.omega_hz, scene.ifs_hz, score_mask)
        est = [assign.index(comp) for comp in range(k)]
        ot = [ot_if_metric(ridges.omega_hz[i], scene.ifs_hz[comp], score_mask) for comp, i in enumerate(est)]
        return est, tuple(ot)

    est_sct, ot_sct = matched(ridges_sct)
    rel_sct = tuple(
        rel_error(modes.modes[i].real, scene.components[comp].real, score_mask) for comp, i in enumerate(est_sct)
    )
    rows = [StudyRow("sct", seed, rel_sct, ot_sct), StudyRow("ct", seed, (), matched(ridges_ct)[1])]

    rel_sst = []
    for comp in range(k):
        est = sst_band_reconstruct(s2, scene.ifs_hz[comp], SST_DELTA_HZ, recon_family)
        rel_sst.append(rel_error(est.real, scene.components[comp].real, score_mask))
    rows.append(StudyRow("sst2", seed, tuple(rel_sst), ()))
    return rows, snr_db


# Parameters of the randomized two-component study.  The chirp-rate axis
# needs bins finer than the components' chirp separation, hence the finer
# squeezing resolution; the window is truncated where its tail is far below
# the working precision of the study.
STUDY_ALPHA_SQ = 0.005
STUDY_HALF_LEN = 250
STUDY_CLOUD_SIZE = 3000
STUDY_SIGMA_PCT = 30.0
STUDY_MIN_PER_FRAME = 3
STUDY_NOISE_SCALE = 1.0
STUDY_ANALYSIS_FAMILY = WindowFamily(2, 1.0)
STUDY_RECON_FAMILY = WindowFamily(0, 1.0)


def random_study(seeds):
    """The multi-seed noisy-scene comparison at the study configuration.

    Returns (rows, summary) where rows hold one StudyRow per method and
    seed, and summary maps method -> dict of mean/sd arrays per mode.
    """
    all_rows = []
    for seed in seeds:
        scene = random_ict_scene(seed)
        x = scene.times_s
        score = (x >= 1.0) & (x <= x[-1] - 1.0)
        n = len(x)
        grid = grid_from_resolution(STUDY_ALPHA_SQ, n, scene.sample_rate_hz)
        q = 1.0 - STUDY_CLOUD_SIZE / (grid.n_chirp * grid.n_freq * n)
        params = RidgeParams(
            seed=seed, q=q, sigma_pct=STUDY_SIGMA_PCT, min_per_frame=STUDY_MIN_PER_FRAME
        )
        rows, _ = crossing_study(
            scene,
            score,
            STUDY_ANALYSIS_FAMILY,
            STUDY_RECON_FAMILY,
            alpha_sq=STUDY_ALPHA_SQ,
            noise_scale=STUDY_NOISE_SCALE,
            seed=seed,
            ridge_params=params,
            half_len=STUDY_HALF_LEN,
        )
        all_rows.extend(rows)
    summary = {}
    for method in ("sct", "ct", "sst2"):
        rels = np.array([r.rel_errors for r in all_rows if r.method == method and r.rel_errors])
        ots = np.array([r.ot_errors for r in all_rows if r.method == method and r.ot_errors])
        summary[method] = {
            "rel_mean": rels.mean(axis=0) if rels.size else None,
            "rel_sd": rels.std(axis=0) if rels.size else None,
            "ot_mean": ots.mean(axis=0) if ots.size else None,
            "ot_sd": ots.std(axis=0) if ots.size else None,
        }
    return all_rows, summary
