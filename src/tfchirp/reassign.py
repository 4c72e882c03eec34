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
and the ratio estimates turn into noise.  The field keeps one code per entry:
its squeeze destination, or the cause it has none; int16 while every code
fits (a grid height ``n_chirp * n_freq`` of at most 32767), int32 above.
Source tracing (``ReassignmentField.sources``) reads the codes a time tile
at a time and recomputes the estimates of the landed entries alone: a row's
sums depend neither on the other rows nor on the tile.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ParameterError, ShapeError
from .signal import Signal, TfcGrid, WindowBank, round_half_away
from .transform import PHASE_BLOCK, StreamedBank, TfcTensor, TfMatrix, _companions, _windowed_sums, _zero_chirp_rows

M2_GUARD = 1e-12
DEFAULT_NU_REL = 1e-4
ALIAS_TOL = 1e-3
FRAME_CHUNK = 64  # frames per time tile: of source tracing, and of ridge selection's squeeze, quantile and peaks
ENTRY_BLOCK = 1 << 16  # entries per elementwise block: bounds the temporaries of a pass over a volume


# Squeeze codes of the entries that move nowhere, by cause; a code >= 0 is the
# in-frame destination bin ``l * n_freq + m``
ALIASED = -1  # the slot's chirped atom is undersampled
BELOW = -2  # |T| at or below the threshold
DEGENERATE = -3  # |M2| < M2_GUARD * |M1|, or a non-finite estimate
OFF_GRID = -4  # defined, but the rounded (omega, mu) falls outside the grid


@dataclass(frozen=True)
class ReassignmentField:
    """Where the squeeze moves each entry of T^h ``h``: one int16 code per entry (int32 on a
    grid taller than 32767 rows).

    ``codes`` holds the in-frame destination bin ``l * n_freq + m`` of every
    entry that moves, and a negative cause (``ALIASED``, ``BELOW``,
    ``DEGENERATE``, ``OFF_GRID``) for every other.  The estimates are not
    stored: ``sources`` recomputes them for the entries that land on given
    bins from the bank source ``banks`` and threshold ``nu`` the codes were
    built from; the ``omega``/``mu`` volumes are built on first access.
    """

    codes: np.ndarray  # int16 or int32 [n_chirp, n_freq, n_time]
    banks: StreamedBank  # or any other holder of T^h ``h`` and ``companion_rows()``
    nu: float

    def __post_init__(self):
        if self.codes.shape != self.h.values.shape:
            raise ShapeError("codes shape does not match T^h")

    @property
    def h(self) -> TfcTensor:
        return self.banks.h

    @property
    def grid(self) -> TfcGrid:
        return self.h.grid

    @property
    def defined(self) -> np.ndarray:
        """Boolean validity of every entry, computed on each access: a new volume."""
        return (self.codes >= 0) | (self.codes == OFF_GRID)

    @cached_property
    def omega(self) -> np.ndarray:
        """Frequency estimates [Hz], NaN where undefined: built with ``mu`` on first access."""
        return self._volumes("omega")

    @cached_property
    def mu(self) -> np.ndarray:
        """Chirp-rate estimates [Hz/s], NaN where undefined: built with ``omega`` on first access."""
        return self._volumes("mu")

    def _volumes(self, name: str) -> np.ndarray:
        grid = self.grid
        rows = np.flatnonzero(self.codes.reshape(-1, grid.n_time)[:, 0] != ALIASED)
        omega = np.full((grid.n_chirp * grid.n_freq, grid.n_time), np.nan)
        mu = np.full(omega.shape, np.nan)
        for part, inputs in _field_blocks(self.banks)(rows):
            mu[rows[part]], omega[rows[part]], _ = _mu_omega(*inputs, self.nu)
        self.__dict__.update(omega=omega.reshape(self.codes.shape), mu=mu.reshape(self.codes.shape))
        return self.__dict__[name]

    def sources(self, bins: np.ndarray) -> tuple:
        """(src, which, omega, mu, magnitude): the flat entries of ``h`` that the squeeze moves onto the flat
        S bins ``bins``, tile by tile in (row, frame) order, the index in ``bins`` of the bin each lands on,
        their estimates, ``omega.ravel()[src]`` and ``mu.ravel()[src]`` to the bit, and |T^h| there.  One
        loop over the time tiles of ``FRAME_CHUNK`` frames that hold a bin.
        """
        n_time = self.grid.n_time
        codes = self.codes.reshape(-1, n_time)
        bins = np.asarray(bins, dtype=np.intp)
        bin_tile = bins % n_time // FRAME_CHUNK
        # row (code + 4) of the table holds the owners of one destination row
        # over the tile's frames; the four negative causes fall on rows that own nothing
        owner = np.full((codes.shape[0] + 4) * FRAME_CHUNK, -1, dtype=np.int32)
        blocks = _field_blocks(self.banks)
        found = [(np.empty(0, np.intp), np.empty(0, np.int32), np.empty(0), np.empty(0), np.empty(0))]
        for tile in np.unique(bin_tile):
            t0 = tile * FRAME_CHUNK
            mine = np.flatnonzero(bin_tile == tile)
            marks = (bins[mine] // n_time + 4) * FRAME_CHUNK + bins[mine] % n_time - t0
            owner[marks] = mine
            keys = codes[:, t0 : t0 + FRAME_CHUNK].astype(np.intp)  # in intp: no grid overflows it
            keys += 4
            keys *= FRAME_CHUNK
            keys += np.arange(keys.shape[1])
            which = owner.take(keys)
            del keys  # with which's gather below, the recompute holds no tile-sized array
            owner[marks] = -1
            landed = np.flatnonzero(which >= 0)
            rows, cols = np.divmod(landed, which.shape[1])
            which = which.reshape(-1)[landed]
            found.append((rows * n_time + t0 + cols, which, *self._recompute_tile(blocks, rows, cols, t0)))
        return tuple(np.concatenate(part) for part in zip(*found))

    def _recompute_tile(self, blocks, rows: np.ndarray, cols: np.ndarray, t0: int) -> tuple:
        """(omega, mu, |T^h|) at the entries (``rows``, ``t0 + cols``) of the tile from frame
        ``t0``, in (row, frame) order: ``blocks`` (of ``_field_blocks``) sum the companions of
        their rows over the tile's frames alone, and the estimates are formed at the entries alone.
        """
        rows, inverse = np.unique(rows, return_inverse=True)
        omega, mu, magnitude = np.empty(inverse.size), np.empty(inverse.size), np.empty(inverse.size)
        for part, inputs in blocks(rows, slice(t0, t0 + FRAME_CHUNK)):
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
    flat = np.ravel(values)
    peak = float(np.max([np.abs(flat[b]).max() for b in _entry_blocks(flat.size)]))
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


def resolvable_slots(grid: TfcGrid, bank: WindowBank) -> np.ndarray:
    """Boolean [n_chirp, n_freq] map of slots whose atom the window resolves.

    A slot is resolvable when the window mass carried by samples where the
    atom's instantaneous frequency lies outside [-1/2, 1/2] cycles/sample is
    at most ``ALIAS_TOL`` of the total window mass.
    """
    j = np.arange(-bank.half_len, bank.half_len + 1)
    w = np.abs(bank.h)
    total = w.sum()
    freq_term = (np.arange(grid.n_freq) / (2 * grid.M))[:, None]
    ok = np.empty((grid.n_chirp, grid.n_freq), dtype=bool)
    # one chirp slice at a time: a [n_chirp, n_freq, 2K+1] map would rival
    # the volume itself
    for i, l in enumerate(grid.chirp_indices):
        rate = l / (4 * grid.M**2)
        ok[i] = (np.abs(rate * j[None, :] + freq_term) > 0.5) @ w <= ALIAS_TOL * total
    return ok


def _field_blocks(banks):
    """The inputs of ``_mu_omega``, a block of rows at a time: ``blocks(rows, cols)`` yields
    ``(part, (T, T1, T2, U, U1, V, lam, freqs))`` for consecutive slices ``part`` of the flat
    (chirp, frequency) ``rows``: T^h and its companions on ``rows[part]`` over the frames of the
    slice ``cols`` (all by default), and their chirp rate and frequency, [rows, 1].  ``banks``
    holds T^h, gathered here once per block, and forms the companions from that T through one
    ``companion_rows()``.  A row's sums depend neither on which rows share its block nor on the
    column range.
    """
    grid = banks.h.grid
    companions = banks.companion_rows()
    T_rows = banks.h.values.reshape(-1, grid.n_time)
    step = max(1, PHASE_BLOCK // banks.bank.h.size)  # rows per product: its phases are bounded as T^h's

    def blocks(rows, cols=slice(None)):
        block = max(1, ENTRY_BLOCK // len(range(grid.n_time)[cols]))  # rows per elementwise block
        for lo in range(0, rows.size, step):
            fetched = rows[lo : lo + step]
            companions_of = companions(fetched, cols)
            for sub in range(0, fetched.size, block):
                part = slice(sub, min(sub + block, fetched.size))
                r = fetched[part]
                lam = grid.chirps_hzps[r // grid.n_freq, None]
                freqs = grid.freqs_hz[r % grid.n_freq, None]
                T = T_rows[r, cols]
                yield slice(lo + part.start, lo + part.stop), (T, *companions_of(part, T), lam, freqs)

    return blocks


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
    """The squeeze codes of every entry of a TFC volume (``ReassignmentField``).

    ``banks`` holds T^h and supplies the companion rows through
    ``companion_rows()``.  ``nu`` is the hard modulus threshold below which
    entries are undefined; ``None`` applies ``default_threshold`` to T^h.
    The estimates are computed a block of rows at a time and only their
    codes are kept.
    """
    grid = banks.h.grid
    if nu is None:
        nu = default_threshold(banks.h.values)
    if not (nu > 0):
        raise ParameterError("nu must be positive")
    # aliased slots are undefined whatever the bank values: evaluate the
    # resolvable (chirp, frequency) rows of the volume only
    rows_ok = np.flatnonzero(resolvable_slots(grid, banks.bank))
    # int16 holds every code while the destinations (below the grid height) do; the causes go down to -4
    dtype = np.int16 if grid.n_chirp * grid.n_freq <= np.iinfo(np.int16).max else np.int32
    codes = np.full((grid.n_chirp * grid.n_freq, grid.n_time), ALIASED, dtype=dtype)
    for part, inputs in _field_blocks(banks)(rows_ok):
        estimates = _mu_omega(*inputs, nu)
        del inputs  # the block's sums are not kept alive beside the codes' temporaries
        codes[rows_ok[part]] = _codes(grid, *estimates)
    return ReassignmentField(codes=codes.reshape(banks.h.values.shape), banks=banks, nu=nu)


def synchrosqueeze(field: ReassignmentField, frames: slice = slice(None)) -> TfcTensor:
    """Scatter the field's T^h onto the bins its codes name: S over the unit-step frame range
    ``frames`` (all by default), from those frames alone.

    Every entry with a destination code contributes its complex value to
    exactly one output bin of the same frame, so per-frame complex mass is
    conserved over the contributing set.
    """
    grid = field.grid
    start, stop = frames.start or 0, grid.n_time if frames.stop is None else frames.stop
    if frames.step not in (None, 1) or not 0 <= start < stop <= grid.n_time:
        raise ParameterError(f"frames must be a unit-step range within the {grid.n_time} frames, got {frames}")
    width = stop - start
    values, codes = field.h.values.reshape(-1), field.codes.reshape(-1)
    in_range = codes.reshape(-1, grid.n_time)[:, start:stop]
    out = np.zeros(in_range.size, dtype=np.complex128)
    # blocks of at most ENTRY_BLOCK entries, rows ascending: each bin receives
    # its sources (of its own frame) in ascending row order, as in one pass
    rows_per = max(1, ENTRY_BLOCK // width)
    for lo in range(0, in_range.shape[0], rows_per):
        for c0 in range(0, width, ENTRY_BLOCK):
            moves = in_range[lo : lo + rows_per, c0 : c0 + ENTRY_BLOCK] >= 0
            rows, cols = np.divmod(np.flatnonzero(moves), moves.shape[1])  # faster than a 2-D nonzero
            cols += c0
            src = (rows + lo) * grid.n_time + (cols + start)
            np.add.at(out, codes[src].astype(np.intp) * width + cols, values[src])
    return TfcTensor(out.reshape(grid.n_chirp, grid.n_freq, width), replace(grid, n_time=width))


def squeeze_conservation(field: ReassignmentField, squeezed: TfcTensor) -> np.ndarray:
    """Per-frame |sum S - sum of contributing T| / max(|sum of contributing T|, eps).

    The contributing entries are those with a destination code (``codes >= 0``).
    """
    lhs = squeezed.values.sum(axis=(0, 1))
    rhs = np.sum(field.h.values, axis=(0, 1), where=field.codes >= 0)  # no masked copy of the volume
    scale = np.maximum(np.abs(rhs), 1e-300)
    return np.abs(lhs - rhs) / scale


# ---------------------------------------------------------------------------
# STFT-based SST baselines


def _stft_transforms(signal: Signal, bank: WindowBank, grid: TfcGrid) -> tuple:
    """The STFT and its companions (W, W1, W2, U, U1, V): the bank's zero-chirp rows."""
    bank.check_rate(signal)
    windows = [bank.h, bank.th, bank.t2h, *bank.basis]
    sums = _windowed_sums(signal, windows, grid)(_zero_chirp_rows(grid))
    return (sums[:, 0], *_companions(bank.family, sums[:, 0], sums[:, 1:]))


def _squeeze_matrix(W: np.ndarray, omega: np.ndarray, grid: TfcGrid) -> np.ndarray:
    defined = ~np.isnan(omega)
    m_dest = round_half_away(omega[defined] / grid.freq_step_hz)
    frames = np.broadcast_to(np.arange(grid.n_time), defined.shape)[defined]
    vals = W[defined]
    ok = (m_dest >= 0) & (m_dest < grid.n_freq)
    flat = m_dest[ok].astype(np.intp) * grid.n_time + frames[ok]
    out = np.zeros(grid.n_freq * grid.n_time, dtype=np.complex128)
    np.add.at(out, flat, vals[ok])
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
