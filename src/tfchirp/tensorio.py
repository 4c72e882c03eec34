"""On-disk formats: TFC1 tensor files, signal ingestion, CSV output.

TFC1 layout (little-endian): magic ``TFC1``, version u16, dtype code u16
(0 = complex64, 1 = complex128), dims as three u32 (n_chirp, n_freq,
n_time), then alpha_sq, sample_rate_hz and t0_s as f64.  The payload is the
C-ordered [n_chirp, n_freq, n_time] volume with interleaved (re, im).
"""

from __future__ import annotations

import csv
import errno
import os
import struct
import wave
from contextlib import contextmanager

import numpy as np

from .errors import FormatError, ParameterError
from .signal import Signal, _frame_range, grid_from_resolution
from .transform import TfcTensor

TFC1_MAGIC = b"TFC1"
TFC1_VERSION = 1
_HEADER = struct.Struct("<4sHH3Iddd")
_DTYPES = {0: np.complex64, 1: np.complex128}
_CODES = {np.dtype(np.complex64): 0, np.dtype(np.complex128): 1}
_BLOCK = 1 << 17  # floats per finiteness check: no volume-sized temporary


@contextmanager
def _temp_beside(path: str):
    """A new temp file beside ``path``, removed unless renamed away; an OS error names
    ``path``.  Its mode is 0o666 less the umask, as ``open(path, "wb")`` would give."""
    tmp = None
    try:
        name = os.path.join(os.path.dirname(os.path.abspath(path)), f".tfchirp-{os.urandom(8).hex()}")
        os.close(os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        tmp = name  # ours to remove only once created
        yield tmp
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _atomic_write(path: str, write_fn):
    """Write via a temp file in the target directory, then rename."""
    with _temp_beside(path) as tmp:
        with open(tmp, "wb") as fh:
            write_fn(fh)
        os.replace(tmp, path)


def _check_writable(*paths, inputs=()):
    """Fail as ``_atomic_write`` would on the first of ``paths`` it could not write: a temp file beside each
    is made and removed, and a directory is refused.  A path that names the same file as an earlier path or
    one of the command's ``inputs`` is refused too: ``os.path.samefile`` where both exist, else the real paths."""

    def same(a, b):
        try:
            return os.path.samefile(a, b)
        except OSError:
            return os.path.realpath(a) == os.path.realpath(b)

    for i, path in enumerate(paths):
        if any(same(path, other) for other in paths[:i]):
            raise ParameterError(f"{path} is named by two outputs: one would overwrite the other")
        if any(same(path, other) for other in inputs):
            raise ParameterError(f"{path} is an input of the command: the output would overwrite it")
        with _temp_beside(path):
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))


def write_tensor(path: str, tensor: TfcTensor, t0_s: float = 0.0):
    """Serialize a TFC volume; byte-identical for identical inputs."""
    values = np.ascontiguousarray(tensor.values)
    code = _CODES.get(values.dtype)
    if code is None:
        raise ParameterError(f"unsupported tensor dtype {values.dtype}")
    grid = tensor.grid
    # what ``read_tensor`` refuses is refused before any file is made
    grid._check_domain()
    if not np.isfinite(t0_s):
        raise ParameterError(f"t0_s must be finite, got {t0_s}")
    if not _all_finite(values):
        raise ParameterError("tensor contains non-finite entries")
    header = _HEADER.pack(
        TFC1_MAGIC,
        TFC1_VERSION,
        code,
        grid.n_chirp,
        grid.n_freq,
        grid.n_time,
        grid.alpha_sq,
        grid.sample_rate_hz,
        t0_s,
    )

    def emit(fh):
        fh.write(header)
        # the contiguous little-endian buffer itself, not a bytes copy of it
        fh.write(values.astype(values.dtype.newbyteorder("<"), copy=False).reshape(-1).view(np.uint8))

    _atomic_write(path, emit)


def _read_header(fh):
    """Read and check a TFC1 header, leaving ``fh`` at the payload; returns (grid, dtype, t0_s)."""
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise FormatError("file too short for a TFC1 header")
    magic, version, code, n_chirp, n_freq, n_time, alpha_sq, fs, t0 = _HEADER.unpack(raw)
    if magic != TFC1_MAGIC:
        raise FormatError("not a TFC1 file")
    if version != TFC1_VERSION:
        raise FormatError(f"unsupported TFC1 version {version}")
    if code not in _DTYPES:
        raise FormatError(f"unknown dtype code {code}")
    dtype = np.dtype(_DTYPES[code])
    size = n_chirp * n_freq * n_time * dtype.itemsize
    # checked before the payload is read: an oversized header must not turn into a huge allocation
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise FormatError(
            f"TFC1 payload truncated: the header claims {n_chirp}x{n_freq}x{n_time} entries "
            f"({size} bytes), the file holds {left}"
        )
    try:
        grid = grid_from_resolution(alpha_sq, n_time, fs)
        grid._check_domain()
    except ParameterError as exc:
        raise FormatError(f"TFC1 header outside the grid's domain: {exc}") from None
    if not np.isfinite(t0):
        raise FormatError(f"TFC1 header: t0_s must be finite, got {t0}")
    if grid.n_chirp != n_chirp or grid.n_freq != n_freq:
        raise FormatError("TFC1 dims inconsistent with alpha_sq")
    return grid, dtype, t0


def _all_finite(values: np.ndarray) -> bool:
    """Whether every real and imaginary part of the contiguous complex array ``values`` is finite,
    checked ``_BLOCK`` floats at a time."""
    floats = values.reshape(-1).view(values.real.dtype)
    return all(np.isfinite(floats[lo : lo + _BLOCK]).all() for lo in range(0, floats.size, _BLOCK))


def _read_into(fh, view: memoryview, offset: int):
    """Fill the byte view ``view`` from byte ``offset`` of the unbuffered file ``fh``; a short read raises
    ``FormatError``."""
    fh.seek(offset)
    while view:
        got = fh.readinto(view)
        if not got:
            raise FormatError("TFC1 payload truncated")
        view = view[got:]


class TensorFile:
    """A TFC1 file, read from the file one range of frames at a time: ridge selection
    (``extract_ridges``) takes it in place of a ``TfcTensor`` and never holds the payload.

    Opening reads and checks the header alone (``_read_header``); each ``read`` refuses a non-finite
    entry among those it returns, so a walk over every frame checks every entry and reads each once.
    """

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb", buffering=0) as fh:
            self.grid, self.dtype, self.t0_s = _read_header(fh)

    def read(self, frames: slice) -> np.ndarray:
        """The payload over the frames of the unit-step slice ``frames`` (``_frame_range``), [n_chirp * n_freq,
        width], in the file's byte order, one read per row; a non-finite entry among them raises ``FormatError``."""
        grid, itemsize = self.grid, self.dtype.itemsize
        start, stop = _frame_range(frames, grid.n_time)
        out = np.empty((grid.n_chirp * grid.n_freq, stop - start), self.dtype.newbyteorder("<"))
        view, span = memoryview(out.reshape(-1).view(np.uint8)), out[0].nbytes
        with open(self.path, "rb", buffering=0) as fh:
            for row in range(out.shape[0]):
                offset = _HEADER.size + (row * grid.n_time + start) * itemsize
                _read_into(fh, view[row * span : (row + 1) * span], offset)
        if not _all_finite(out):
            raise FormatError("TFC1 payload contains non-finite entries")
        return out

    def magnitude_tile(self, frames):
        """|S| over the frames of the unit-step slice ``frames``, frame-major, [width, n_chirp * n_freq],
        in the file's precision (float32 for complex64)."""
        return np.abs(self.read(frames).T, order="C")


def read_tensor(path: str):
    """Read a TFC1 file; returns (TfcTensor, t0_s): a ``TensorFile``'s whole record, checked as it is read."""
    source = TensorFile(path)
    grid = source.grid
    values = source.read(slice(None)).astype(source.dtype, copy=False)
    return TfcTensor(values=values.reshape(grid.n_chirp, grid.n_freq, grid.n_time), grid=grid), source.t0_s


# ---------------------------------------------------------------------------
# Signal ingestion


def read_wav(path: str, downsample: int = 1) -> Signal:
    """Mono 16-bit PCM WAV reader (the standard library's ``wave``); samples scaled to [-1, 1).

    ``downsample`` keeps every k-th sample (plain decimation, no filtering).
    """
    if downsample < 1:
        raise ParameterError("downsample must be >= 1")
    try:
        with wave.open(path, "rb") as wav:
            if wav.getsampwidth() != 2:
                raise FormatError("only 16-bit PCM WAV is supported")
            if wav.getnchannels() != 1:
                raise FormatError("only mono WAV is supported")
            rate, count = wav.getframerate(), wav.getnframes()
            data = wav.readframes(count)
    except (wave.Error, EOFError) as exc:
        raise FormatError(f"not a PCM WAV file: {str(exc) or 'it ends inside a chunk header'}") from None
    if len(data) < 2 * count:
        raise FormatError("truncated data chunk")
    samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    return Signal(samples[::downsample], rate / downsample, 0.0)


def read_signal_csv(path: str, sample_rate_hz: float) -> Signal:
    """CSV with columns ``re[,im]`` (header optional)."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row[:2]])
            except ValueError:
                if rows:
                    raise FormatError(f"non-numeric row in {path}")
                continue  # header
    if not rows:
        raise FormatError(f"no samples in {path}")
    re = np.array([r[0] for r in rows])
    im = np.array([r[1] if len(r) > 1 else 0.0 for r in rows])
    return Signal(re + 1j * im, sample_rate_hz, 0.0)


def write_signal_csv(path: str, signal: Signal):
    _write_rows(path, ("re", "im"), zip(signal.samples.real, signal.samples.imag))


def read_signal_raw(path: str, sample_rate_hz: float, interleaved_complex: bool = False) -> Signal:
    """Raw little-endian float64 samples, or interleaved (re, im) float64 pairs: a whole number of them."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0:
        raise FormatError(f"no samples in {path}")
    if raw.size % 8:
        raise FormatError(f"{raw.size} bytes is not a whole number of float64 values")
    if interleaved_complex and raw.size % 16:
        raise FormatError("odd number of floats for complex data")
    return Signal(raw.view("<c16" if interleaved_complex else "<f8"), sample_rate_hz, 0.0)


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv_table(path: str, header, rows):
    """UTF-8 CSV with a single header line; floats keep full precision."""
    _write_rows(path, header, rows)


def _write_rows(path: str, header, rows):
    def emit(fh):
        out = [",".join(header) + "\n"]
        for row in rows:
            out.append(",".join(_cell(v) for v in row) + "\n")
        fh.write("".join(out).encode())

    _atomic_write(path, emit)
