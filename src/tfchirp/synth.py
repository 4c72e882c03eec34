"""Synthetic test signals: crossing linear chirps and random ICT components.

Random amplitude and phase trajectories are built from smoothed Brownian
paths.  A path realization is rescaled affinely to [0, 1] over the analysis
span before entering the process, so e.g. an amplitude spec with base 2 and
swing 1 varies exactly between 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .metrics import snr_db
from .signal import Signal


@dataclass(frozen=True)
class RandomProcessSpec:
    """zeta = (base, slope, quad, swing, swing_bw, wobble, wobble_bw)."""

    zeta: tuple
    duration_s: float
    dt_s: float
    seed: object = 0  # int or np.random.SeedSequence

    def __post_init__(self):
        if len(self.zeta) != 7:
            raise ParameterError("zeta must have 7 entries")
        z = self.zeta
        if z[3] != 0 and not z[4] > 0:
            raise ParameterError("swing bandwidth must be positive when swing is nonzero")
        if z[5] != 0 and not z[6] > 0:
            raise ParameterError("wobble bandwidth must be positive when wobble is nonzero")
        if not (self.duration_s > 0 and self.dt_s > 0):
            raise ParameterError("duration_s and dt_s must be positive")


@dataclass(frozen=True)
class RandomProcessRealization:
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


@dataclass(frozen=True)
class SyntheticScene:
    """Clean components with ground truth, plus their mixture."""

    times_s: np.ndarray
    components: np.ndarray  # [K, N] complex
    amplitudes: np.ndarray  # [K, N]
    ifs_hz: np.ndarray  # [K, N]
    chirps_hzps: np.ndarray  # [K, N]
    sample_rate_hz: float

    @property
    def mixed(self) -> np.ndarray:
        return self.components.sum(axis=0)

    def signal(self) -> Signal:
        return Signal(self.mixed, self.sample_rate_hz, float(self.times_s[0]))


def smoothed_brownian(bandwidth_s: float, duration_s: float, dt_s: float, rng) -> np.ndarray:
    """Brownian path convolved with a Gaussian of std ``bandwidth_s``.

    The path is simulated on a grid extended by six bandwidths on both sides
    before smoothing, then cropped to [0, duration_s], avoiding edge bias.
    """
    from scipy.signal import fftconvolve

    if not (bandwidth_s > 0 and duration_s > 0 and dt_s > 0):
        raise ParameterError("bandwidth_s, duration_s, dt_s must be positive")
    rng = np.random.default_rng(rng)
    pad = int(np.ceil(6 * bandwidth_s / dt_s))
    n = int(round(duration_s / dt_s)) + 1
    total = n + 2 * pad
    steps = rng.standard_normal(total - 1) * np.sqrt(dt_s)
    path = np.concatenate(([0.0], np.cumsum(steps)))
    half = int(np.ceil(6 * bandwidth_s / dt_s))
    x = np.arange(-half, half + 1) * dt_s
    kernel = np.exp(-0.5 * (x / bandwidth_s) ** 2)
    kernel /= kernel.sum()
    smooth = fftconvolve(path, kernel, mode="same")
    return smooth[pad : pad + n]


def _cumtrapz(y: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum((y[1:] + y[:-1]) * (0.5 * dt), out=out[1:])
    return out


def random_process(spec: RandomProcessSpec) -> RandomProcessRealization:
    """One realization of the random trajectory family, with derivatives.

    values = z1 + z2*x + z3*x^2 + z4*B5(x) + z6 * double integral of B7,
    where B5, B7 are independent smoothed Brownian paths rescaled to [0, 1].
    First and second derivatives of the polynomial and integral terms are
    exact; the swing term's derivatives use centered differences (the swing
    is meant for amplitudes, whose derivatives are never consumed).
    """
    z1, z2, z3, z4, z5, z6, z7 = spec.zeta
    n = int(round(spec.duration_s / spec.dt_s)) + 1
    x = np.arange(n) * spec.dt_s
    seed = spec.seed if isinstance(spec.seed, np.random.SeedSequence) else np.random.SeedSequence(spec.seed)
    streams = seed.spawn(2)
    values = z1 + z2 * x + z3 * x**2
    d1 = z2 + 2 * z3 * x
    d2 = np.full(n, 2 * z3)
    if z4 != 0:
        swing = _rescaled_path(z5, spec, streams[0])
        values = values + z4 * swing
        d1 = d1 + z4 * np.gradient(swing, spec.dt_s)
        d2 = d2 + z4 * np.gradient(np.gradient(swing, spec.dt_s), spec.dt_s)
    if z6 != 0:
        wobble = _rescaled_path(z7, spec, streams[1])
        j1 = _cumtrapz(wobble, spec.dt_s)
        values = values + z6 * _cumtrapz(j1, spec.dt_s)
        d1 = d1 + z6 * j1
        d2 = d2 + z6 * wobble
    return RandomProcessRealization(values=values, d1=d1, d2=d2)


def _rescaled_path(bandwidth, spec, seed_seq):
    """A smoothed Brownian path of the spec's span, rescaled to [0, 1]."""
    path = smoothed_brownian(bandwidth, spec.duration_s, spec.dt_s, seed_seq.spawn(1)[0])
    lo, hi = path.min(), path.max()
    if hi - lo <= 0:  # a one-sample span: any substream's path is as flat
        raise ParameterError("smoothed path degenerate: the span holds one sample")
    return (path - lo) / (hi - lo)


CROSSING_F2_RATE = -2 * np.pi  # second component's chirp rate
CROSSING_F2_BASE = 24 + 6 * np.pi  # its frequency intercept


def crossing_chirp_pair(sample_rate_hz: float = 100.0, span=(1.0, 5.0)) -> SyntheticScene:
    """Two unimodular linear chirps whose IFs cross at (3 s, 24 Hz).

    Component 1 has phase 4x^2 (IF 8x, chirp rate 8); component 2 has phase
    -pi*x^2 + (24+6*pi)*x (IF -2*pi*x + 24+6*pi, chirp rate -2*pi).
    """
    lo, hi = span
    n = int(round((hi - lo) * sample_rate_hz)) + 1
    x = lo + np.arange(n) / sample_rate_hz
    f1 = np.exp(2j * np.pi * 4 * x**2)
    f2 = np.exp(2j * np.pi * (-np.pi * x**2 + CROSSING_F2_BASE * x))
    scene = SyntheticScene(
        times_s=x,
        components=np.stack((f1, f2)),
        amplitudes=np.ones((2, n)),
        ifs_hz=np.stack((8 * x, CROSSING_F2_RATE * x + CROSSING_F2_BASE)),
        chirps_hzps=np.stack((np.full(n, 8.0), np.full(n, CROSSING_F2_RATE))),
        sample_rate_hz=sample_rate_hz,
    )
    return scene


# Amplitude and phase trajectory parameters of the two-component random
# scene.  The quadratic phase coefficients give IFs that rise from 1 Hz and
# fall from 20 Hz, crossing near 3.8 s, with chirp rates separated by about
# 5 Hz/s so the components stay resolvable on the default chirp-rate grid;
# both IFs remain positive and below Nyquist over a 10 s span at 100 Hz.
AMPLITUDE_ZETA = (2.0, 0.0, 0.0, 1.0, 200.0, 0.0, 0.0)
PHASE1_ZETA = (0.0, 1.0, 1.6, 0.0, 0.0, 0.2, 400.0)
PHASE2_ZETA = (0.0, 20.0, -0.9, 0.0, 0.0, 0.25, 300.0)


def random_ict_scene(seed: int, sample_rate_hz: float = 100.0, duration_s: float = 10.0) -> SyntheticScene:
    """Two-component scene with smoothly varying AM, IF and chirp rate."""
    dt = 1.0 / sample_rate_hz
    phase_zetas = (PHASE1_ZETA, PHASE2_ZETA)
    children = np.random.SeedSequence(seed).spawn(2 * len(phase_zetas))
    comps, amps, ifs, chirps = [], [], [], []
    for i, pz in enumerate(phase_zetas):
        amp_spec = RandomProcessSpec(AMPLITUDE_ZETA, duration_s, dt, seed=children[2 * i])
        phase_spec = RandomProcessSpec(pz, duration_s, dt, seed=children[2 * i + 1])
        amp = random_process(amp_spec).values
        phase = random_process(phase_spec)
        comps.append(amp * np.exp(2j * np.pi * phase.values))
        amps.append(amp)
        ifs.append(phase.d1)
        chirps.append(phase.d2)
    n = comps[0].size
    return SyntheticScene(
        times_s=np.arange(n) * dt,
        components=np.stack(comps),
        amplitudes=np.stack(amps),
        ifs_hz=np.stack(ifs),
        chirps_hzps=np.stack(chirps),
        sample_rate_hz=sample_rate_hz,
    )


def add_student_t_noise(samples: np.ndarray, dof: float = 4.0, scale: float = 1.0, seed=0):
    """Add real i.i.d. Student-t noise; returns (noisy, snr_db).

    The SNR is ``metrics.snr_db`` of the realized series; a zero noise scale
    yields +inf.
    """
    if not dof > 2:
        raise ParameterError("dof must exceed 2 for finite noise variance")
    samples = np.asarray(samples)
    if scale == 0:
        return samples.copy(), np.inf
    rng = np.random.default_rng(seed)
    noise = scale * rng.standard_t(dof, samples.shape)
    with np.errstate(divide="ignore"):  # a silent clean signal is -inf dB
        return samples + noise, snr_db(samples, noise)
