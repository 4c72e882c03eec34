"""Chirplet transform and synchrosqueezing in the time-frequency-chirp-rate volume."""

from .errors import (
    DegenerateCloudError,
    EmptyCloudError,
    ExtractionError,
    FormatError,
    MetricError,
    ParameterError,
    ReconstructionError,
    ResourceError,
    ShapeError,
    TfchirpError,
    UnsupportedWindowError,
)
from .metrics import ot_if_metric, rel_error, snr_db, wasserstein1_1d
from .pipeline import crossing_study, ct_ridges, random_study, run_sct
from .reassign import (
    ReassignmentField,
    reassignment_field,
    sst1,
    sst2,
    squeeze_conservation,
    synchrosqueeze,
)
from .reconstruct import ReconstructedModes, reconstruct_modes, sst_band_reconstruct
from .ridge import (
    RidgeParams,
    RidgeSet,
    TfcPointCloud,
    extract_ridges,
    kmeans_cluster,
    ridges_from_clusters,
    select_high_energy,
    spectral_embed,
)
from .signal import (
    Signal,
    TfcGrid,
    WindowBank,
    WindowFamily,
    grid_from_resolution,
    make_window_bank,
)
from .synth import (
    RandomProcessSpec,
    SyntheticScene,
    add_student_t_noise,
    crossing_chirp_pair,
    random_ict_scene,
    random_process,
    smoothed_brownian,
)
from .transform import (
    StreamedBank,
    TfcTensor,
    TfMatrix,
    chirplet_transform,
    g_check,
    project_tfc_to_tf,
    stft,
    streamed_bank_transform,
)

__version__ = "0.1.0"
