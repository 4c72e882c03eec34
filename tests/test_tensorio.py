import os
import stat

import numpy as np
import pytest

from tfchirp import tensorio
from tfchirp.errors import FormatError, ParameterError
from tfchirp.signal import Signal, grid_from_resolution
from tfchirp.tensorio import (
    read_signal_csv,
    read_signal_raw,
    read_tensor,
    read_wav,
    write_signal_csv,
    write_tensor,
)
from tfchirp.transform import TfcTensor

from conftest import traced_volumes, write_wav


def random_tensor(seed=0, dtype=np.complex128):
    rng = np.random.default_rng(seed)
    grid = grid_from_resolution(0.1, 6, 20.0)
    values = (rng.standard_normal((grid.n_chirp, grid.n_freq, 6)) + 1j * rng.standard_normal((grid.n_chirp, grid.n_freq, 6))).astype(dtype)
    return TfcTensor(values, grid)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_tensor_round_trip(tmp_path, dtype):
    tensor = random_tensor(dtype=dtype)
    path = tmp_path / "a.tfc1"
    write_tensor(str(path), tensor, t0_s=1.5)
    back, t0 = read_tensor(str(path))
    assert t0 == 1.5
    assert back.values.dtype == np.dtype(dtype)
    assert np.array_equal(back.values, tensor.values)
    assert back.grid.alpha_sq == tensor.grid.alpha_sq
    # byte-identical rewrite
    write_tensor(str(tmp_path / "b.tfc1"), tensor, t0_s=1.5)
    assert (tmp_path / "a.tfc1").read_bytes() == (tmp_path / "b.tfc1").read_bytes()


def test_tensor_io_memory_budget(tmp_path):
    """Writing copies nothing; reading holds the payload once."""
    grid = grid_from_resolution(0.01, 401, 100.0)
    shape = (grid.n_chirp, grid.n_freq, grid.n_time)
    values = np.exp(1j * np.arange(np.prod(shape)).reshape(shape))
    tensor = TfcTensor(values, grid)
    path = str(tmp_path / "big.tfc1")
    _, peak, _ = traced_volumes(lambda: write_tensor(path, tensor, t0_s=2.0), values.nbytes)
    assert peak <= 0.1
    with open(path, "rb") as fh:
        assert fh.read()[44:] == values.tobytes()  # the payload bytes are unchanged
    (back, t0), peak, _ = traced_volumes(lambda: read_tensor(path), values.nbytes)
    assert peak <= 1.2
    assert t0 == 2.0 and np.array_equal(back.values, values)


def test_tensor_file_length(tmp_path):
    tensor = random_tensor()
    path = tmp_path / "t.tfc1"
    write_tensor(str(path), tensor)
    expected = 44 + tensor.values.size * 16
    assert path.stat().st_size == expected


def test_tensor_header_errors(tmp_path):
    path = tmp_path / "bad.tfc1"
    path.write_bytes(b"TFC1")
    with pytest.raises(FormatError):
        read_tensor(str(path))
    path.write_bytes(b"NOPE" + b"\0" * 60)
    with pytest.raises(FormatError):
        read_tensor(str(path))
    tensor = random_tensor()
    good = tmp_path / "good.tfc1"
    write_tensor(str(good), tensor)
    truncated = good.read_bytes()[:-8]
    bad = tmp_path / "short.tfc1"
    bad.write_bytes(truncated)
    with pytest.raises(FormatError):
        read_tensor(str(bad))


def test_wav_round_trip(tmp_path):
    fs = 8000
    x = np.arange(4000) / fs
    samples = 0.4 * np.sin(2 * np.pi * 440 * x)
    path = tmp_path / "tone.wav"
    write_wav(str(path), samples, fs)
    sig = read_wav(str(path))
    assert sig.sample_rate_hz == fs
    assert len(sig) == 4000
    assert np.max(np.abs(sig.samples.real - samples)) <= 1.0 / 32768
    assert not sig.samples.imag.any()


def test_wav_downsample(tmp_path):
    fs = 8000
    samples = np.zeros(1001)
    path = tmp_path / "z.wav"
    write_wav(str(path), samples, fs)
    sig = read_wav(str(path), downsample=8)
    assert len(sig) == int(np.ceil(1001 / 8))
    assert sig.sample_rate_hz == fs / 8


def test_wav_format_errors(tmp_path):
    import struct

    def riff(fmt=(1, 1, 8000, 16000, 2, 16), data=b"", claimed=None, data_first=False):
        fmt = b"fmt " + struct.pack("<IHHIIHH", 16, *fmt)
        data = b"" if data is None else b"data" + struct.pack("<I", len(data) if claimed is None else claimed) + data
        chunks = data + fmt if data_first else fmt + data
        return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks

    cases = {
        "short.wav": (b"RIFF", "ends inside a chunk header"),
        "stereo.wav": (riff(fmt=(1, 2, 8000, 32000, 4, 16)), "mono"),
        "truncated.wav": (riff(data=b"\0" * 8, claimed=16), "truncated data chunk"),
        "8bit.wav": (riff(fmt=(1, 1, 8000, 8000, 1, 8), data=b"\0" * 8), "16-bit"),
        "float.wav": (riff(fmt=(3, 1, 8000, 32000, 4, 32), data=b"\0" * 8), "unknown format: 3"),
        "no-data.wav": (riff(data=None), "data chunk missing"),
        "data-first.wav": (riff(data=b"\0" * 8, data_first=True), "data chunk before fmt chunk"),
    }
    for name, (payload, message) in cases.items():
        (tmp_path / name).write_bytes(payload)
        with pytest.raises(FormatError, match=message):
            read_wav(str(tmp_path / name))
    (tmp_path / "ok.wav").write_bytes(riff(data=b"\0\x40" * 4))
    assert np.array_equal(read_wav(str(tmp_path / "ok.wav")).samples, np.full(4, 0.5))


def test_signal_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    sig = Signal(rng.standard_normal(20) + 1j * rng.standard_normal(20), 25.0, t0_s=0.5)
    path = tmp_path / "sig.csv"
    write_signal_csv(str(path), sig)
    back = read_signal_csv(str(path), 25.0)
    assert np.array_equal(back.samples, sig.samples) and back.t0_s == 0.0


def test_signal_raw(tmp_path):
    rng = np.random.default_rng(5)
    data = rng.standard_normal(16)
    path = tmp_path / "sig.f64"
    data.astype("<f8").tofile(path)
    sig = read_signal_raw(str(path), 10.0)
    assert np.array_equal(sig.samples.real, data)
    inter = np.empty(32)
    inter[0::2] = data
    inter[1::2] = -data
    path2 = tmp_path / "sigc.f64"
    inter.astype("<f8").tofile(path2)
    sig2 = read_signal_raw(str(path2), 10.0, interleaved_complex=True)
    assert np.array_equal(sig2.samples, data - 1j * data)


def test_tensor_rejects_nonfinite_payload(tmp_path):
    path = tmp_path / "nan.tfc1"
    write_tensor(str(path), random_tensor())
    raw = bytearray(path.read_bytes())
    raw[44:52] = np.array(np.nan, "<f8").tobytes()  # the real part of the first entry
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_tensor(str(path))


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_write_refuses_what_read_refuses(tmp_path, monkeypatch, dtype):
    # a grid outside its domain, a non-finite t0 and a non-finite entry, in any
    # block of the payload's check: refused before any file is made
    monkeypatch.setattr(tensorio, "_BLOCK", 7)
    tensor = random_tensor(dtype=dtype)
    far = grid_from_resolution(0.25, 4, 1e308)
    cases = [(TfcTensor(np.zeros((far.n_chirp, far.n_freq, 4), dtype), far), 0.0), (tensor, float("nan"))]
    for at in (0, 100, tensor.values.size - 1):
        values = tensor.values.copy()
        values.reshape(-1)[at] = complex(0.0, np.nan) if at else complex(np.inf, 0.0)
        cases.append((TfcTensor(values, tensor.grid), 0.0))
    for bad, t0 in cases:
        with pytest.raises(ParameterError):
            write_tensor(str(tmp_path / "t.tfc1"), bad, t0)
    assert not list(tmp_path.iterdir())


def test_wav_rejects_non_integer_rate(tmp_path):
    path = tmp_path / "tone.wav"
    for rate in (8000.5, 0, -8000, float("nan")):
        with pytest.raises(ParameterError):
            write_wav(str(path), np.zeros(16), rate)
    assert not path.exists()
    write_wav(str(path), np.zeros(16), 8000.0)  # an integral float is a valid rate
    assert read_wav(str(path)).sample_rate_hz == 8000


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_follow_the_umask(tmp_path, umask, mode):
    # as a file made by open(path, "w") would, not mkstemp's 0o600
    tensor = random_tensor()
    previous = os.umask(umask)
    try:
        write_tensor(str(tmp_path / "t.tfc1"), tensor)
        write_signal_csv(str(tmp_path / "s.csv"), Signal(np.ones(4), 1.0))
    finally:
        os.umask(previous)
    for name in ("t.tfc1", "s.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode, name
