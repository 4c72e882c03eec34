"""Reassignment operators, the squeezing step, and the SST baselines.

The frequency and chirp-rate estimates are computed from ratios of bank
transforms only (no numerical differentiation).  With T = T^h, T1 = T^{h'},
T2 = T^{h''}, U = T^{th}, U1 = T^{th'}, V = T^{t2h} and a = 2j*pi*lam at the
chirp rate ``lam`` of the evaluated slot:

    M1 = T*T2 - 2a*T*U1 - a*T^2 + a^2*T*V - T1^2 - a^2*U^2 + 2a*T1*U
    M2 = 2j*pi * (-T*U1 + a*T*V + U*T1 - a*U^2)

which ``_mu_omega`` evaluates in the exactly equivalent reduced form

    P = U*T1 - T*U1,  Q = T*V - U^2,  R = P + a*Q
    M1 = T*T2 - T1^2 - a*T^2 + a*(P + R),  M2 = 2j*pi * R

    mu    = Re(M1 / M2)                                  [Hz/s]
    omega = freq(m) + Im(-T1/(2*pi*T) + 1j*(lam - M1/M2) * U/T)   [Hz]

On an exact linear chirp both estimates are exact wherever defined.  Entries
are undefined (NaN in both omega and mu) in three cases: |T| at or below the
threshold; |M2| < 1e-12*|M1| (the degenerate denominator the accuracy
guarantee excludes); and slots whose chirped atom is undersampled, i.e. the
atom's instantaneous frequency m/(2M) + lam*j leaves the Nyquist band over a
non-negligible part of the window support, where the quadratic phase aliases
and the ratio estimates turn into noise.  Those aliased rows are never kept:
the field keeps one code per entry of T^h's resolvable rows, its squeeze
destination or the cause it has none; int16 while every code fits (a grid
height of at most 32767), int32 above.  Source tracing (``sources``) reads the
codes a time tile at a time and recomputes the estimates of the landed entries
alone: a row's sums depend neither on the other rows nor on the tile.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ParameterError, ShapeError
from .signal import Signal, TfcGrid, WindowBank, _frame_range, round_half_away
from .transform import StreamedBank, TfcTensor, TfMatrix, _companions, _windowed_sums, _zero_chirp_rows

M2_GUARD = 1e-12
DEFAULT_NU_REL = 1e-4
FRAME_CHUNK = 64  # frames per time tile: of source tracing, and of ridge selection's squeeze, quantile and peaks
ENTRY_BLOCK = 1 << 16  # entries per elementwise block: bounds the temporaries of a pass over a volume


# Squeeze codes of the entries that move nowhere, by cause; a code >= 0 is the
# in-frame destination bin ``l * n_freq + m``
ALIASED = -1  # the slot's chirped atom is undersampled: its row holds no code at all
BELOW = -2  # |T| at or below the threshold
DEGENERATE = -3  # |M2| < M2_GUARD * |M1|, or a non-finite estimate
OFF_GRID = -4  # defined, but the rounded (omega, mu) falls outside the grid


@dataclass(frozen=True)
class ReassignmentField:
    """Where the squeeze moves each entry of T^h on the bank's resolvable rows: int16 codes (int32 on a
    grid taller than 32767 rows), [banks.rows.size, n_time], row for row with T^h.

    ``codes`` holds the in-frame destination bin ``l * n_freq + m`` of every entry that moves, and a
    negative cause (``BELOW``, ``DEGENERATE``, ``OFF_GRID``) for every other.  The estimates are not
    stored: ``sources`` recomputes them for the entries that land on given bins from the bank source
    ``banks`` and threshold ``nu`` the codes were built from; whole-grid ``omega``/``mu`` are built on use.
    """

    codes: np.ndarray  # int16 or int32 [banks.rows.size, n_time]
    banks: StreamedBank  # or any holder of ``values``, ``rows``, ``grid``, ``bank``, ``peak``, ``companion_blocks()``
    nu: float

    def __post_init__(self):
        if self.codes.shape != (self.banks.rows.size, self.grid.n_time):
            raise ShapeError("codes shape does not match the bank's resolvable rows")

    @property
    def grid(self) -> TfcGrid:
        return self.banks.grid

    @property
    def defined(self) -> np.ndarray:
        """Boolean validity of every entry of the grid, computed on each access: a new volume."""
        defined = np.zeros((self.grid.n_chirp * self.grid.n_freq, self.grid.n_time), dtype=bool)
        defined[self.banks.rows] = (self.codes >= 0) | (self.codes == OFF_GRID)
        return defined.reshape(self.grid.n_chirp, self.grid.n_freq, -1)

    @cached_property
    def omega(self) -> np.ndarray:
        """Frequency estimates [Hz] on the whole grid, NaN where undefined: built with ``mu`` on first use."""
        return self._volumes("omega")

    @cached_property
    def mu(self) -> np.ndarray:
        """Chirp-rate estimates [Hz/s] on the whole grid, NaN where undefined: built with ``omega`` on first use."""
        return self._volumes("mu")

    def _volumes(self, name: str) -> np.ndarray:
        grid, rows = self.grid, self.banks.rows
        omega = np.full((grid.n_chirp * grid.n_freq, grid.n_time), np.nan)
        mu = np.full(omega.shape, np.nan)
        for part, inputs in _field_blocks(self.banks):
            mu[rows[part]], omega[rows[part]], _ = _mu_omega(*inputs, self.nu)
        shape = (grid.n_chirp, grid.n_freq, grid.n_time)
        self.__dict__.update(omega=omega.reshape(shape), mu=mu.reshape(shape))
        return self.__dict__[name]

    def magnitude_tile(self, frames):
        """|S| over the frames ``frames``, frame-major, squeezed from those frames alone."""
        return np.abs(synchrosqueeze(self, frames).values.transpose(2, 0, 1), order="C")

    def sources(self, bins: np.ndarray) -> tuple:
        """(src, which, omega, mu, magnitude): the flat entries of the grid that the squeeze moves onto the
        flat S bins ``bins``, tile by tile in (row, frame) order, the index in ``bins`` of the bin each lands
        on, their estimates, ``omega.ravel()[src]`` and ``mu.ravel()[src]`` to the bit, and |T^h| there.  One
        loop over the time tiles of ``FRAME_CHUNK`` frames that hold a bin.
        """
        grid, n_time = self.grid, self.grid.n_time
        bins = np.asarray(bins, dtype=np.intp)
        bin_tile = bins % n_time // FRAME_CHUNK
        # row (code + 4) of the table holds the owners of one destination row
        # over the tile's frames; the four negative causes fall on rows that own nothing
        owner = np.full((grid.n_chirp * grid.n_freq + 4) * FRAME_CHUNK, -1, dtype=np.int32)
        found = [(np.empty(0, np.intp), np.empty(0, np.int32), np.empty(0), np.empty(0), np.empty(0))]
        for tile in np.unique(bin_tile):
            t0 = tile * FRAME_CHUNK
            mine = np.flatnonzero(bin_tile == tile)
            marks = (bins[mine] // n_time + 4) * FRAME_CHUNK + bins[mine] % n_time - t0
            owner[marks] = mine
            keys = self.codes[:, t0 : t0 + FRAME_CHUNK].astype(np.intp)  # in intp: no grid overflows it
            keys += 4
            keys *= FRAME_CHUNK
            keys += np.arange(keys.shape[1])
            which = owner.take(keys)
            del keys  # with which's gather below, the recompute holds no tile-sized array
            owner[marks] = -1
            landed = np.flatnonzero(which >= 0)
            rows, cols = np.divmod(landed, which.shape[1])
            which = which.reshape(-1)[landed]
            src = self.banks.rows[rows] * n_time + t0 + cols
            found.append((src, which, *self._recompute_tile(rows, cols, t0)))
        return tuple(np.concatenate(part) for part in zip(*found))

    def _recompute_tile(self, rows: np.ndarray, cols: np.ndarray, t0: int) -> tuple:
        """(omega, mu, |T^h|) at the entries (``rows`` of the bank's, ``t0 + cols``) of the tile from frame
        ``t0``, in (row, frame) order: the companions of the rows are summed over the tile's frames alone,
        and the estimates are formed at the entries alone.
        """
        rows, inverse = np.unique(rows, return_inverse=True)
        omega, mu, magnitude = np.empty(inverse.size), np.empty(inverse.size), np.empty(inverse.size)
        for part, inputs in _field_blocks(self.banks, rows, slice(t0, t0 + FRAME_CHUNK)):
            span = slice(*np.searchsorted(inverse, (part.start, part.stop)))  # the entries of rows[part]
            at = (inverse[span] - part.start, cols[span])
            T, *entries = (np.broadcast_to(x, inputs[0].shape)[at] for x in inputs)
            mu[span], omega[span], _ = _mu_omega(T, *entries, self.nu)
            magnitude[span] = np.abs(T)
        return omega, mu, magnitude


def default_threshold(values: np.ndarray, rel: float = DEFAULT_NU_REL) -> float:
    """Scale-free threshold: the fraction ``rel`` of the peak magnitude of ``values``.

    An all-zero array has no workable scale; the threshold degenerates to
    +inf so that every entry is undefined and the squeeze of silence is
    silence.
    """
    peak = float(np.abs(values).max())
    return rel * peak if peak > 0 else np.inf


def _entry_blocks(size: int):
    """Ascending slices of at most ``ENTRY_BLOCK`` entries that cover ``range(size)``."""
    step = ENTRY_BLOCK
    return (slice(lo, lo + step) for lo in range(0, size, step))


def _mu_omega(T, T1, T2, U, U1, V, lam, freqs, nu):
    """Reassignment estimates (mu, omega) for one block, NaN where undefined, and
    the entries above the threshold; lam/freqs broadcast over the block."""
    T, T1, T2, U, U1, V = (np.asarray(x, dtype=np.complex128) for x in (T, T1, T2, U, U1, V))
    a = 2j * np.pi * lam
    P = U * T1 - T * U1
    R = P + a * (T * V - U * U)
    m1 = T * T2 - T1 * T1 - a * (T * T) + a * (P + R)
    m2 = 2j * np.pi * R
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = m1 / m2
        mu = ratio.real
        corr = -T1 / (2 * np.pi * T) + 1j * (lam - ratio) * U / T
        omega = freqs + corr.imag
    above = np.abs(T) > nu
    defined = above & (np.abs(m2) >= M2_GUARD * np.abs(m1))
    defined &= np.isfinite(mu) & np.isfinite(omega)
    return np.where(defined, mu, np.nan), np.where(defined, omega, np.nan), above


def _field_blocks(banks, rows=None, cols=slice(None)):
    """The inputs of ``_mu_omega``, a block of rows at a time: ``(part, (T, T1, T2, U, U1, V, lam, freqs))``
    for consecutive slices ``part`` of ``rows``, ascending indices of the bank's resolvable rows
    ``banks.rows`` (all of them by default): T^h and its companions on those rows over the frames of the
    slice ``cols`` (all by default), and their chirp rate and frequency, [rows, 1].  Each product of
    ``banks.companion_blocks`` is split into blocks of about ``ENTRY_BLOCK`` entries; T^h is read once per
    block from ``banks.values``, as a view when ``rows`` is all.
    """
    grid, every = banks.grid, rows is None
    rows = np.arange(banks.rows.size) if every else rows
    block = max(1, ENTRY_BLOCK // len(range(grid.n_time)[cols]))  # rows per elementwise block
    for at, companions_of in banks.companion_blocks(banks.rows[rows], cols):
        for lo in range(at.start, at.stop, block):
            part = slice(lo, min(lo + block, at.stop))
            r = banks.rows[rows[part]]
            T = banks.values[part if every else rows[part], cols]
            companions = companions_of(slice(lo - at.start, part.stop - at.start), T)
            yield part, (T, *companions, grid.chirps_hzps[r // grid.n_freq, None], grid.freqs_hz[r % grid.n_freq, None])


def _codes(grid: TfcGrid, mu: np.ndarray, omega: np.ndarray, above: np.ndarray) -> np.ndarray:
    """The squeeze codes (``ReassignmentField.codes``) of one block of ``_mu_omega``'s results,
    as integral floats that the codes' own dtype takes on assignment."""
    m = round_half_away(omega / grid.freq_step_hz)
    l = round_half_away(mu / grid.chirp_step_hzps) + (grid.M - 1)
    # NaN compares false: only defined entries can be in the grid
    in_grid = (l >= 0) & (l < grid.n_chirp) & (m >= 0) & (m < grid.n_freq)
    cause = np.where(np.isnan(omega), np.where(above, DEGENERATE, BELOW), OFF_GRID)
    return np.where(in_grid, l * grid.n_freq + m, cause)


def reassignment_field(banks: StreamedBank, nu: float | None = None) -> ReassignmentField:
    """The squeeze codes of every entry of a bank's resolvable rows (``ReassignmentField``).

    ``banks`` holds T^h on those rows and supplies the companions through
    ``companion_blocks()``.  ``nu`` is the hard modulus threshold below which
    entries are undefined; ``None`` applies ``default_threshold`` to
    ``banks.peak``, the peak of |T^h| over those same rows.  The estimates are
    computed a block of rows at a time and only their codes are kept: the
    aliased rows are never evaluated.
    """
    grid = banks.grid
    if nu is None:
        nu = default_threshold(banks.peak)
    if not (nu > 0):
        raise ParameterError("nu must be positive")
    # int16 holds every code while the destinations (below the grid height) do; the causes go down to -4
    dtype = np.int16 if grid.n_chirp * grid.n_freq <= np.iinfo(np.int16).max else np.int32
    codes = np.empty((banks.rows.size, grid.n_time), dtype=dtype)
    for part, inputs in _field_blocks(banks):
        estimates = _mu_omega(*inputs, nu)
        codes[part] = _codes(grid, *estimates)
    return ReassignmentField(codes=codes, banks=banks, nu=nu)


def synchrosqueeze(field: ReassignmentField, frames: slice = slice(None)) -> TfcTensor:
    """Scatter the field's T^h onto the bins its codes name: S over the unit-step frame range
    ``frames`` (all by default), from those frames alone.

    Every entry with a destination code contributes its complex value to
    exactly one output bin of the same frame, so per-frame complex mass is
    conserved over the contributing set.
    """
    grid = field.grid
    start, stop = _frame_range(frames, grid.n_time)
    width = stop - start
    out = np.zeros(grid.n_chirp * grid.n_freq * width, dtype=np.complex128)
    # blocks of at most ENTRY_BLOCK entries (one row, if wider), rows ascending:
    # each bin receives its sources (of its own frame) in ascending row order, as in one pass
    rows_per = max(1, ENTRY_BLOCK // width)
    for lo in range(0, field.codes.shape[0], rows_per):
        _scatter(out, field.codes[lo : lo + rows_per, start:stop], field.banks.values[lo : lo + rows_per, start:stop])
    return TfcTensor(out.reshape(grid.n_chirp, grid.n_freq, width), replace(grid, n_time=width))


def _scatter(out: np.ndarray, codes: np.ndarray, values: np.ndarray):
    """Add, in row-major order, each entry of ``values`` whose code moves it (>= 0) to its bin and column of ``out``."""
    moves, width = codes >= 0, codes.shape[1]
    np.add.at(out, codes[moves].astype(np.intp) * width + np.flatnonzero(moves) % width, values[moves])


def squeeze_conservation(field: ReassignmentField, squeezed: TfcTensor) -> np.ndarray:
    """Per-frame |sum S - sum of contributing T| / max(|sum of contributing T|, eps).

    The contributing entries are those with a destination code (``codes >= 0``).
    """
    lhs = squeezed.values.sum(axis=(0, 1))
    rhs = np.sum(field.banks.values, axis=0, where=field.codes >= 0)  # no masked copy of T^h
    scale = np.maximum(np.abs(rhs), 1e-300)
    return np.abs(lhs - rhs) / scale


# ---------------------------------------------------------------------------
# STFT-based SST baselines


def _stft_transforms(signal: Signal, bank: WindowBank, grid: TfcGrid) -> tuple:
    """The STFT and its companions (W, W1, W2, U, U1, V): the bank's zero-chirp rows."""
    bank.check_rate(signal)
    windows = [bank.h, bank.th, bank.t2h, *bank.basis]
    sums = np.concatenate([block for _, block in _windowed_sums(signal, windows, grid, _zero_chirp_rows(grid))])
    return (sums[:, 0], *_companions(bank.family, sums[:, 0], sums[:, 1:]))


def _squeeze_matrix(W: np.ndarray, omega: np.ndarray, grid: TfcGrid) -> np.ndarray:
    """The STFT ``W`` squeezed onto the bins of ``omega`` (NaN: none) by ``_codes`` on the zero-chirp row."""
    out = np.zeros(grid.n_freq * grid.n_time, dtype=np.complex128)
    _scatter(out, _codes(grid, 0.0, omega, False) - (grid.M - 1) * grid.n_freq, W)  # the causes stay negative
    return out.reshape(grid.n_freq, grid.n_time)


def sst1(signal: Signal, bank: WindowBank, grid: TfcGrid) -> TfMatrix:
    """First-order synchrosqueezed STFT (frequency-axis squeeze only).

    Entries at or below ``default_threshold`` of the STFT are undefined.
    """
    W, W1 = _stft_transforms(signal, bank, grid)[:2]
    nu = default_threshold(W)
    freqs = grid.freqs_hz[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = freqs + (-W1 / (2 * np.pi * W)).imag
    omega[~((np.abs(W) > nu) & np.isfinite(omega))] = np.nan
    return TfMatrix(_squeeze_matrix(W, omega, grid), grid)


def sst2(signal: Signal, bank: WindowBank, grid: TfcGrid) -> TfMatrix:
    """Second-order SST: the chirp-rate estimate corrects the squeeze target.

    Identical to the zero-chirp slice of the TFC reassignment rule, so on an
    exact linear chirp the reassigned frequency is exact.  Entries at or
    below ``default_threshold`` of the STFT are undefined.
    """
    W, W1, W2, U, U1, V = _stft_transforms(signal, bank, grid)
    freqs = grid.freqs_hz[:, None]
    _, omega, _ = _mu_omega(W, W1, W2, U, U1, V, 0.0, freqs, default_threshold(W))
    return TfMatrix(_squeeze_matrix(W, omega, grid), grid)
