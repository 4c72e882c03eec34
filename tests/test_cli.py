import csv
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tfchirp.cli import MAX_TAPS, main
from tfchirp.errors import ResourceError
from tfchirp.ridge import RidgeParams, extract_ridges, select_high_energy
from tfchirp.signal import Signal, WindowFamily, grid_from_resolution
from tfchirp.synth import crossing_chirp_pair
from tfchirp.tensorio import read_tensor, write_signal_csv, write_tensor
from tfchirp.transform import TfcTensor

from conftest import write_wav


@pytest.fixture(scope="module")
def crossing_csv(tmp_path_factory):
    scene = crossing_chirp_pair()
    path = tmp_path_factory.mktemp("scene") / "crossing.csv"
    write_signal_csv(str(path), scene.signal())
    return str(path)


def write_config(tmp_path, **kv):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def test_transform_round_trip_and_determinism(tmp_path):
    x = np.arange(64) / 16.0
    sig = Signal(np.exp(2j * np.pi * 2.0 * x), 16.0)
    src = tmp_path / "sig.csv"
    write_signal_csv(str(src), sig)
    cfg = write_config(tmp_path, alpha_sq=0.1, half_len=8)
    out1, out2 = tmp_path / "a.tfc1", tmp_path / "b.tfc1"
    for out in (out1, out2):
        code = main(["--config", cfg, "transform", "--input", str(src), "--rate", "16",
                     "--output", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    tensor, t0 = read_tensor(str(out1))
    assert tensor.grid.n_time == 64 and t0 == 0.0


def test_transform_small_file_length(tmp_path):
    sig = Signal(np.array([1.0, 0.5]), 4.0)
    src = tmp_path / "two.csv"
    write_signal_csv(str(src), sig)
    cfg = write_config(tmp_path, alpha_sq=0.25, half_len=2)
    out = tmp_path / "two.tfc1"
    assert main(["--config", cfg, "transform", "--input", str(src), "--rate", "4", "--output", str(out)]) == 0
    tensor, _ = read_tensor(str(out))
    assert out.stat().st_size == 44 + tensor.values.size * 16


def test_transform_slice_peaks(crossing_csv, tmp_path):
    cfg = write_config(tmp_path, window_n=2, alpha_w=1.0, half_len=250, alpha_sq=0.01)
    out = tmp_path / "ct.tfc1"
    slice_csv = tmp_path / "slice.csv"
    code = main(["--config", cfg, "transform", "--input", crossing_csv, "--rate", "100",
                 "--t0", "1.0", "--output", str(out), "--slice", "3.0", "--slice-csv", str(slice_csv)])
    assert code == 0
    header, rows = read_rows(str(slice_csv))
    assert header == ["chirp_hzps", "freq_hz", "magnitude"]
    at24 = [(float(r[0]), float(r[2])) for r in rows if abs(float(r[1]) - 24.0) < 1e-9]
    lams = np.array([v[0] for v in at24])
    mags = np.array([v[1] for v in at24])
    order = np.argsort(mags)[::-1]
    peaks = []
    for idx in order:
        if all(abs(lams[idx] - p) > 3 for p in peaks):
            peaks.append(lams[idx])
        if len(peaks) == 2:
            break
    peaks = sorted(peaks)
    assert abs(peaks[0] - (-2 * np.pi)) <= 1.5
    assert abs(peaks[1] - 8.0) <= 1.5


def test_sct_summary_conservation(crossing_csv, tmp_path):
    cfg = write_config(tmp_path, window_n=2, alpha_w=1.0, half_len=250, alpha_sq=0.01)
    out = tmp_path / "sct.tfc1"
    summary = tmp_path / "summary.csv"
    code = main(["--config", cfg, "sct", "--input", crossing_csv, "--rate", "100",
                 "--t0", "1.0", "--output", str(out), "--summary", str(summary)])
    assert code == 0
    _, rows = read_rows(str(summary))
    assert max(float(r[1]) for r in rows) < 1e-10


def test_sct_zero_signal(tmp_path):
    sig = Signal(np.zeros(32), 8.0)
    src = tmp_path / "zero.csv"
    write_signal_csv(str(src), sig)
    cfg = write_config(tmp_path, alpha_sq=0.125, half_len=6)
    out = tmp_path / "zero.tfc1"
    assert main(["--config", cfg, "sct", "--input", str(src), "--rate", "8", "--output", str(out)]) == 0
    tensor, _ = read_tensor(str(out))
    assert not tensor.values.any()


def test_ridge_command_single_chirp(tmp_path):
    fs = 50.0
    x = np.arange(300) / fs
    sig = Signal(np.exp(2j * np.pi * (4 * x + 0.75 * x**2)), fs)
    src = tmp_path / "chirp.csv"
    write_signal_csv(str(src), sig)
    cfg = write_config(tmp_path, alpha_sq=0.02, n_components=1)
    sct_path = tmp_path / "chirp.tfc1"
    assert main(["--config", cfg, "sct", "--input", str(src), "--rate", "50", "--output", str(sct_path)]) == 0
    ridge_csv = tmp_path / "ridges.csv"
    assert main(["--config", cfg, "ridge", "--tensor", str(sct_path), "--output", str(ridge_csv)]) == 0
    header, rows = read_rows(str(ridge_csv))
    assert header == ["t_s", "omega0_hz", "mu0_hzps"]
    interior = [r for r in rows if 1.5 <= float(r[0]) <= 4.5]
    for r in interior:
        t = float(r[0])
        assert abs(float(r[1]) - (4 + 1.5 * t)) <= 1.0
        assert abs(float(r[2]) - 1.5) <= 1.0


def test_ridge_missing_tensor_exits_2(tmp_path):
    code = main(["ridge", "--tensor", str(tmp_path / "nope.tfc1"), "--output", str(tmp_path / "r.csv")])
    assert code == 2
    assert not (tmp_path / "r.csv").exists()


def test_reconstruct_with_truth_report(tmp_path):
    scene = crossing_chirp_pair()
    sig = scene.signal()
    src = tmp_path / "scene.csv"
    write_signal_csv(str(src), sig)
    truths = []
    for k in range(2):
        p = tmp_path / f"truth{k}.csv"
        write_signal_csv(str(p), Signal(scene.components[k], 100.0, 1.0))
        truths.append(str(p))
    cfg = write_config(tmp_path, window_n=2, alpha_w=1.0, alpha_sq=0.01, n_components=2)
    ridge_csv = tmp_path / "ridges.csv"
    report = tmp_path / "report.csv"
    code = main([
        "--config", cfg, "reconstruct", "--input", str(src), "--rate", "100", "--t0", "1.0",
        "--ridge-csv", str(ridge_csv), "--mode-prefix", str(tmp_path / "mode"),
        # curves come out ordered by ascending chirp rate: f2 first
        "--truth", truths[1], truths[0], "--report", str(report),
    ])
    assert code == 0
    assert (tmp_path / "mode0.csv").exists() and (tmp_path / "mode1.csv").exists()
    _, rows = read_rows(str(report))
    errs = [float(r[1]) for r in rows]
    assert len(errs) == 2
    assert max(errs) < 0.35  # boundary-dominated; interior splits tested elsewhere


def test_synth_deterministic(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["synth", "--scene", "crossing", "--output", str(out1)]) == 0
    assert main(["--seed", "9", "synth", "--scene", "crossing", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_synth_random_with_truth(tmp_path):
    out = tmp_path / "rand.csv"
    code = main(["--seed", "3", "synth", "--scene", "random", "--output", str(out),
                 "--truth-prefix", str(tmp_path / "truth_")])
    assert code == 0
    assert (tmp_path / "truth_component0.csv").exists()
    assert (tmp_path / "truth_curves1.csv").exists()


def test_info_command(tmp_path, capsys):
    sig = Signal(np.ones(16), 4.0)
    src = tmp_path / "sig.csv"
    write_signal_csv(str(src), sig)
    cfg = write_config(tmp_path, alpha_sq=0.25, half_len=3)
    out = tmp_path / "x.tfc1"
    main(["--config", cfg, "transform", "--input", str(src), "--rate", "4", "--output", str(out)])
    assert main(["info", "--tensor", str(out)]) == 0
    text = capsys.readouterr().out
    assert "alpha_sq: 0.25" in text
    assert "dims: 4 x 3 x 16" in text


def test_info_reads_only_the_header(tmp_path, capsys):
    grid = grid_from_resolution(0.01, 401, 100.0)
    path = str(tmp_path / "big.tfc1")
    write_tensor(path, TfcTensor(np.zeros((grid.n_chirp, grid.n_freq, grid.n_time), np.complex64), grid))
    assert os.path.getsize(path) >= 8 * 2**20
    tracemalloc.start()
    try:
        assert main(["info", "--tensor", path]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "dims: 100 x 51 x 401" in capsys.readouterr().out
    assert peak < 2**20, peak


def test_usage_errors(tmp_path):
    assert main(["transform", "--input", "x.csv", "--output", "y"]) == 1  # missing --rate
    assert main(["nonsense"]) == 1
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("nonsense_key = 3\n")
    sig = tmp_path / "s.csv"
    write_signal_csv(str(sig), Signal(np.ones(8), 4.0))
    assert main(["--config", str(bad_cfg), "transform", "--input", str(sig), "--rate", "4", "--output", str(tmp_path / "o")]) == 1


def test_compare_single_seed_zero_sd(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["compare", "--seeds", "1", "--output", str(out)]) == 0
    header, rows = read_rows(str(out))
    assert header == ["method", "mode", "metric", "mean", "sd"]
    methods = {r[0] for r in rows}
    assert {"sct", "ct", "sst2"} <= methods
    assert all(float(r[4]) == 0.0 for r in rows)


def test_transform_raw_complex_with_t0(tmp_path):
    rng = np.random.default_rng(8)
    data = rng.standard_normal(64)
    inter = np.empty(128)
    inter[0::2] = data
    inter[1::2] = 0.5 * data
    raw = tmp_path / "sig.f64"
    inter.astype("<f8").tofile(raw)
    wav = tmp_path / "sig.wav"
    write_wav(str(wav), 0.25 * data, 16)
    cfg = write_config(tmp_path, alpha_sq=0.1, half_len=8)
    # --t0 holds for every format; a WAV file carries its own rate
    for src, flags in ((raw, ["--format", "raw-complex", "--rate", "16"]), (wav, ["--format", "wav"])):
        out = tmp_path / f"{src.suffix[1:]}.tfc1"
        code = main(["--config", cfg, "transform", "--input", str(src), *flags, "--t0", "2.5", "--output", str(out)])
        assert code == 0
        _, t0 = read_tensor(str(out))
        assert t0 == 2.5


def test_reconstruct_honours_nu_rel(crossing_csv, tmp_path):
    csvs = {}
    for nu_rel in (1e-4, 0.2):
        cfg = write_config(tmp_path, nu_rel=nu_rel)
        out = tmp_path / f"ridges-{nu_rel}.csv"
        code = main(["--config", cfg, "reconstruct", "--input", crossing_csv, "--rate", "100",
                     "--ridge-csv", str(out), "--mode-prefix", str(tmp_path / f"mode-{nu_rel}-")])
        assert code == 0
        csvs[nu_rel] = out.read_bytes()
    assert csvs[1e-4] != csvs[0.2]


@pytest.mark.parametrize("recon_n", [1, 3])
def test_reconstruct_rejects_inadmissible_window_before_the_sct(crossing_csv, tmp_path, monkeypatch, capsys,
                                                                 recon_n):
    from tfchirp import cli

    def no_sct(*args, **kwargs):
        raise AssertionError("the SCT ran")

    monkeypatch.setattr(cli, "run_sct", no_sct)
    ridges = tmp_path / "r.csv"
    code = main(["reconstruct", "--input", crossing_csv, "--rate", "100", "--ridge-csv", str(ridges),
                 "--mode-prefix", str(tmp_path / "mode"), "--recon-n", str(recon_n)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --recon-n") and "window condition" in err
    assert not ridges.exists()


def test_ridge_emptied_cluster_exits_3(crossing_csv, tmp_path, monkeypatch):
    from tfchirp import ridge

    tensor = tmp_path / "sct.tfc1"
    assert main(["sct", "--input", crossing_csv, "--rate", "100", "--output", str(tensor)]) == 0
    monkeypatch.setattr(ridge, "kmeans_cluster", lambda emb, k, **kw: np.zeros(len(emb), dtype=int))
    out = tmp_path / "r.csv"
    assert main(["ridge", "--tensor", str(tensor), "--output", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("command", ["sct", "reconstruct"])
def test_memory_error_exits_3_with_grid_and_knob(crossing_csv, tmp_path, monkeypatch, capsys, command):
    from tfchirp import cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_sct", out_of_memory)
    outputs = {
        "sct": ["--output", str(tmp_path / "sct.tfc1")],
        "reconstruct": ["--ridge-csv", str(tmp_path / "r.csv"), "--mode-prefix", str(tmp_path / "mode")],
    }
    code = main([command, "--input", crossing_csv, "--rate", "100", *outputs[command]])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "100x51x401" in err and str(100 * 51 * 401 * 16) in err and "alpha_sq" in err
    # only a command that clusters a ridge cloud names q
    assert ("raise q (now 0.9995) for a smaller cloud" in err) == (command == "reconstruct")


def test_clustering_out_of_memory_exits_3_naming_the_cloud(crossing_csv, crossing_sct_g0, tmp_path, monkeypatch,
                                                           capsys):
    # the core cloud's affinity is the clustering's one large array: its failure names the cloud and q
    from tfchirp import ridge

    def out_of_memory(points, sigma_pct):
        raise MemoryError

    monkeypatch.setattr(ridge, "_gaussian_affinity", out_of_memory)
    with pytest.raises(ResourceError) as caught:
        extract_ridges(crossing_sct_g0, 2)
    params = RidgeParams()
    n = len(select_high_energy(crossing_sct_g0, params.q, params.min_per_frame).core_cloud())
    assert str(caught.value) == (f"out of memory clustering the {n}-point ridge cloud ({8 * n * n} bytes of "
                                 "affinity); raise q (now 0.9995) for a smaller cloud")
    code = main(["reconstruct", "--input", crossing_csv, "--rate", "100", "--ridge-csv", str(tmp_path / "r.csv"),
                 "--mode-prefix", str(tmp_path / "mode")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {caught.value}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command, config, flags, names",
    [
        ("transform", {"half_len": 10000000000}, [], ["the 20000000001-tap window", "lower half_len (now 10000000000)"]),
        ("transform", {"alpha_w": 1e-14}, [], ["the 8600000001-tap window", "raise alpha_w (now 1e-14)"]),
        ("sct", {"half_len": 10000000000}, [], ["the 20000000001-tap window", "lower half_len (now 10000000000)"]),
        ("reconstruct", {"half_len": 10000000000}, [], ["the 20000000001-tap window", "lower half_len"]),
        ("reconstruct", {}, ["--recon-alpha", "1e-14"],
         ["the 8600000001-tap reconstruction window", "raise --recon-alpha (now 1e-14)"]),
        # windows no array can hold: their half length overflows a float, or numpy cannot size them
        ("transform", {}, ["--rate", "1e308"], [f"the >{MAX_TAPS}-tap window", "raise alpha_w (now 1.0)"]),
        ("sct", {}, ["--rate", "1e300"], [f"the >{MAX_TAPS}-tap window", "raise alpha_w (now 1.0)"]),
        ("transform", {"alpha_w": 1e-300}, [], [f"the >{MAX_TAPS}-tap window", "raise alpha_w (now 1e-300)"]),
        ("sct", {"half_len": 10**20}, [], [f"the >{MAX_TAPS}-tap window", f"lower half_len (now {10**20})"]),
        ("reconstruct", {}, ["--recon-alpha", "1e-300"],
         [f"the >{MAX_TAPS}-tap reconstruction window", "raise --recon-alpha (now 1e-300)"]),
    ],
)
def test_memory_error_names_the_window(crossing_csv, tmp_path, monkeypatch, capsys, command, config, flags, names):
    # every bank is built under the guard, the reconstruction bank before the SCT;
    # a window no array can hold is refused before any bank is built
    from tfchirp import cli

    built = []

    def out_of_memory(*args, **kwargs):
        built.append(args[0])
        raise MemoryError

    monkeypatch.setattr(cli, "make_window_bank", out_of_memory)
    monkeypatch.setattr(cli, "run_sct", out_of_memory)
    outputs = {
        "reconstruct": ["--ridge-csv", str(tmp_path / "r.csv"), "--mode-prefix", str(tmp_path / "mode")],
    }.get(command, ["--output", str(tmp_path / "out.tfc1")])
    code = main(["--config", write_config(tmp_path, **config), command, "--input", crossing_csv, "--rate", "100",
                 *outputs, *flags])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "100x51x401" in err and "alpha_sq" in err
    assert all(name in err for name in names), err
    if any(">" in name for name in names):
        assert built == []
    elif command == "reconstruct":
        assert built == [WindowFamily(0, float(flags[-1]) if flags else 1.0)]  # the SCT never ran
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.tfc1"))


@pytest.mark.parametrize("dims", [(2**31, 2**31, 2**31), (1000, 1000, 100000)])
@pytest.mark.parametrize("command", ["info", "ridge"])
def test_oversized_tfc1_header_exits_2(tmp_path, capsys, dims, command):
    import struct

    path = tmp_path / "huge.tfc1"
    path.write_bytes(struct.pack("<4sHH3Iddd", b"TFC1", 1, 1, *dims, 0.01, 100.0, 0.0) + b"\0" * 64)
    args = {"info": [], "ridge": ["--output", str(tmp_path / "r.csv")]}[command]
    assert main([command, "--tensor", str(path), *args]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "truncated" in err


@pytest.mark.parametrize("command", ["info", "ridge"])
@pytest.mark.parametrize(
    "dims, alpha_sq, rate, t0",
    [
        ((3, 3, 4), 0.0, 4.0, 0.0),
        ((3, 3, 4), 0.25, float("nan"), 0.0),
        ((3, 3, 0), 0.25, 4.0, 0.0),
        ((3, 3, 4), 0.25, 4.0, float("nan")),
    ],
    ids=["alpha_sq-0", "rate-nan", "n_time-0", "t0-nan"],
)
def test_tfc1_header_outside_its_domain_exits_2(tmp_path, capsys, dims, alpha_sq, rate, t0, command):
    import struct

    path = tmp_path / "bad.tfc1"
    payload = b"\0" * (16 * dims[0] * dims[1] * dims[2])
    path.write_bytes(struct.pack("<4sHH3Iddd", b"TFC1", 1, 1, *dims, alpha_sq, rate, t0) + payload)
    args = {"info": [], "ridge": ["--output", str(tmp_path / "r.csv")]}[command]
    assert main([command, "--tensor", str(path), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --tensor {path}: TFC1 header") and err.count("\n") == 1, err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "command, key, value, rate, code",
    [
        # grids whose complex volume no array can size, on a 64-sample record: refused on entry, naming alpha_sq
        *[("transform", "alpha_sq", a, "64", 3) for a in (1e-10, 1e-12, 1e-300, 1e-320)],
        *[(c, "alpha_sq", a, "64", 3) for c in ("sct", "reconstruct") for a in (1e-300, 1e-320)],
        # a TFC1 header rate that puts the grid's steps outside the float range
        *[("ridge", "seed", 0, r, 2) for r in ("inf", "1e308", "1e-320")],
        # a --rate that puts the grid's steps, or the window's samples, outside the float range
        *[(c, "half_len", 10, r, 1) for c in ("transform", "sct") for r in ("1e160", "1e-200")],
        ("reconstruct", "half_len", 10, "1e-200", 1),
    ],
)
def test_grid_outside_the_float_range_ends_in_one_line(tmp_path, capsys, command, key, value, rate, code):
    import struct
    import warnings

    x = np.arange(64) / 64
    write_signal_csv(str(tmp_path / "s.csv"), Signal(np.exp(2j * np.pi * (8 * x + 4 * x * x)), 64.0))
    (tmp_path / "t.tfc1").write_bytes(struct.pack("<4sHH3Iddd", b"TFC1", 1, 1, 4, 3, 4, 0.25, float(rate), 0.0)
                                      + b"\0" * (16 * 4 * 3 * 4))
    args = {
        "ridge": ["--tensor", str(tmp_path / "t.tfc1"), "--output", str(tmp_path / "r.csv")],
        "reconstruct": ["--input", str(tmp_path / "s.csv"), "--rate", rate, "--ridge-csv", str(tmp_path / "r.csv"),
                        "--mode-prefix", str(tmp_path / "mode")],
    }.get(command, ["--input", str(tmp_path / "s.csv"), "--rate", rate, "--output", str(tmp_path / "o.tfc1")])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", write_config(tmp_path, **{key: value}), command, *args]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300, err
    assert not caught and "Traceback" not in err and "Warning" not in err
    assert ("alpha_sq" in err) == (code == 3)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.cfg", "s.csv", "t.tfc1"]


@pytest.mark.parametrize("command", ["info", "ridge"])
@pytest.mark.parametrize("kind", ["text", "truncated"])
def test_tensor_errors_name_the_flag_and_the_file(tmp_path, capsys, kind, command):
    path = tmp_path / "t.tfc1"
    if kind == "text":
        path.write_text("re,im\n" + "1.0,0.0\n" * 20)
    else:
        grid = grid_from_resolution(0.25, 16, 4.0)
        write_tensor(str(path), TfcTensor(np.ones((grid.n_chirp, grid.n_freq, 16), dtype=complex), grid))
        path.write_bytes(path.read_bytes()[:-16])
    args = {"info": [], "ridge": ["--output", str(tmp_path / "r.csv")]}[command]
    assert main([command, "--tensor", str(path), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --tensor {path}: ") and err.count("\n") == 1, err


def test_ridge_memory_error_exits_3_with_grid(tmp_path, monkeypatch, capsys):
    from tfchirp import cli
    from tfchirp.signal import grid_from_resolution
    from tfchirp.tensorio import write_tensor
    from tfchirp.transform import TfcTensor

    grid = grid_from_resolution(0.1, 20, 10.0)
    tensor = tmp_path / "t.tfc1"
    write_tensor(str(tensor), TfcTensor(np.ones((grid.n_chirp, grid.n_freq, 20), dtype=complex), grid))

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "extract_ridges", out_of_memory)
    out = tmp_path / "r.csv"
    assert main(["ridge", "--tensor", str(tensor), "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "10x6x20" in err and "alpha_sq" in err
    assert "raise q (now 0.9995) for a smaller cloud" in err
    assert not out.exists()


def test_ridge_at_q_zero_names_q_under_an_address_space_limit(crossing_csv, tmp_path):
    # q = 0 makes every nonzero bin of the crossing SCT a cloud point (396,929),
    # whose affinity would take 1.26 TB; the child's own RLIMIT_AS makes the
    # allocation fail whatever the machine's overcommit policy
    tensor, out = tmp_path / "sct.tfc1", tmp_path / "r.csv"
    assert main(["sct", "--input", crossing_csv, "--rate", "100", "--t0", "1.0", "--output", str(tensor)]) == 0
    child = (
        "import resource, sys\n"
        "from tfchirp.cli import main\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    argv = ["--config", write_config(tmp_path, q=0), "ridge", "--tensor", str(tensor), "--output", str(out)]
    proc = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.count("\n") == 1 and "raise q (now 0.0) for a smaller cloud" in proc.stderr, proc.stderr
    # what failed is the cloud's affinity, not the grid
    assert "396929-point" in proc.stderr and f"{8 * 396929**2} bytes" in proc.stderr, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("key", ["window_n", "half_len", "min_per_frame", "seed"])
def test_negative_config_values_are_rejected(crossing_csv, tmp_path, capsys, key):
    from tfchirp.cli import load_config
    from tfchirp.errors import ParameterError

    cfg = write_config(tmp_path, **{key: -3})
    with pytest.raises(ParameterError, match=key):
        load_config(cfg)
    code = main(["--config", cfg, "sct", "--input", crossing_csv, "--rate", "100",
                 "--output", str(tmp_path / "s.tfc1")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err
    assert load_config(write_config(tmp_path, **{key: 0})) is not None


def test_bad_seed_and_sigma_pct_exit_1_naming_them(tmp_path, capsys):
    fs = 50.0
    x = np.arange(300) / fs
    src = tmp_path / "chirps.csv"
    write_signal_csv(str(src), Signal(np.exp(2j * np.pi * 4 * x) + np.exp(2j * np.pi * (12 * x - 0.5 * x**2)), fs))
    sct_path = str(tmp_path / "s.tfc1")
    assert main(["--config", write_config(tmp_path, alpha_sq=0.02), "sct", "--input", str(src), "--rate", "50",
                 "--output", sct_path]) == 0
    ridge = ["ridge", "--tensor", sct_path, "--output", str(tmp_path / "r.csv")]
    cases = [
        (["--seed", "-1", *ridge], "--seed"),
        (["--seed", "-1", "synth", "--scene", "random", "--output", str(tmp_path / "x.csv")], "--seed"),
        (["--config", write_config(tmp_path, alpha_sq=0.02, sigma_pct=150), *ridge], "sigma_pct"),
    ]
    for argv, name in cases:
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and name in err
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "x.csv").exists()


def _no_analysis(monkeypatch):
    from tfchirp import cli

    def no_analysis(*args, **kwargs):
        raise AssertionError("the analysis ran")

    monkeypatch.setattr(cli, "run_sct", no_analysis)
    monkeypatch.setattr(cli, "chirplet_transform", no_analysis)


@pytest.mark.parametrize("at", ["nan", "inf", "-inf", "0.5", "5.5", "1e308"])
@pytest.mark.parametrize("command", ["transform", "sct"])
def test_bad_slice_exits_1_before_the_analysis(crossing_csv, tmp_path, monkeypatch, capsys, command, at):
    _no_analysis(monkeypatch)
    out, slice_csv = tmp_path / "out.tfc1", tmp_path / "slice.csv"
    code = main([command, "--input", crossing_csv, "--rate", "100", "--t0", "1.0", "--output", str(out),
                 f"--slice={at}", "--slice-csv", str(slice_csv)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --slice") and err.count("\n") == 1
    assert not out.exists() and not slice_csv.exists()


def test_reconstruct_rejects_more_truth_files_than_modes_before_the_sct(crossing_csv, tmp_path, monkeypatch, capsys):
    _no_analysis(monkeypatch)
    ridges = tmp_path / "r.csv"
    code = main(["reconstruct", "--input", crossing_csv, "--rate", "100", "--ridge-csv", str(ridges),
                 "--mode-prefix", str(tmp_path / "mode"), "--truth", crossing_csv, crossing_csv, crossing_csv])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --truth") and err.count("\n") == 1
    assert not ridges.exists()


@pytest.mark.parametrize(
    "samples, code",
    [(["1.0,0.0"] * 100, 1), (["1.0,0.0"] * 400 + ["nan,0.0"], 1), (None, 2), (["re,im", "1.0,0.0", "x,y"], 2)],
)
def test_reconstruct_reads_truth_files_before_the_sct(crossing_csv, tmp_path, monkeypatch, capsys, samples, code):
    # a truth file of the wrong length or with a non-finite sample is a usage
    # error, a missing or unparsable one an I/O error
    _no_analysis(monkeypatch)
    truth = tmp_path / "truth.csv"
    if samples is not None:
        truth.write_text("\n".join(samples) + "\n")
    ridges, report = tmp_path / "r.csv", tmp_path / "report.csv"
    got = main(["reconstruct", "--input", crossing_csv, "--rate", "100", "--ridge-csv", str(ridges),
                "--mode-prefix", str(tmp_path / "mode"), "--truth", str(truth), "--report", str(report)])
    assert got == code
    err = capsys.readouterr().err
    assert err.startswith("error: --truth") and str(truth) in err and err.count("\n") == 1
    assert not ridges.exists() and not report.exists() and not list(tmp_path.glob("mode*"))


@pytest.mark.parametrize(
    "config, flags, name",
    [
        ({}, ["--recon-n", "-1"], "--recon-n"),
        ({}, ["--recon-alpha", "0"], "--recon-alpha"),
        ({}, ["--recon-alpha", "nan"], "--recon-alpha"),
        ({"window_n": -1}, [], "window_n"),
        ({"alpha_w": 0}, [], "alpha_w"),
        ({"alpha_w": "nan"}, [], "alpha_w"),
        ({"nu_rel": 0}, [], "nu_rel"),
        ({"nu_rel": -1e-4}, [], "nu_rel"),
        ({"nu_rel": "nan"}, [], "nu_rel"),
        ({}, ["--recon-alpha", "inf"], "--recon-alpha"),
        ({"alpha_w": "inf"}, [], "alpha_w"),
        ({"alpha_sq": 0}, [], "alpha_sq"),
        ({"alpha_sq": 0.6}, [], "alpha_sq"),
        ({"alpha_sq": "nan"}, [], "alpha_sq"),
        ({"q": 1.5}, [], "q must"),
        ({"q": 1}, [], "q must"),
        ({"q": -0.1}, [], "q must"),
        ({"q": "nan"}, [], "q must"),
        ({"sigma_pct": 0}, [], "sigma_pct"),
        ({"sigma_pct": 101}, [], "sigma_pct"),
        ({"sigma_pct": "nan"}, [], "sigma_pct"),
        ({"n_components": 0}, [], "n_components"),
    ],
)
def test_window_and_threshold_errors_name_their_flag_or_key(tmp_path, capsys, config, flags, name):
    # the input does not exist: each error must come before the signal is read
    argv = ["--config", write_config(tmp_path, **config)] if config else []
    code = main([*argv, "reconstruct", "--input", str(tmp_path / "missing.csv"), "--rate", "100",
                 "--ridge-csv", str(tmp_path / "r.csv"), "--mode-prefix", str(tmp_path / "mode"), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and name in err


@pytest.mark.parametrize(
    "flags",
    [
        "--rate=inf", "--rate=0", "--rate=-5", "--rate=nan", "--rate=100 --t0=nan", "--rate=100 --t0=-inf",
        "--format=wav --downsample=0",
    ],
)
@pytest.mark.parametrize("command", ["transform", "sct", "reconstruct"])
def test_bad_rate_or_t0_exits_1_before_the_input_is_read(tmp_path, capsys, command, flags):
    # the input does not exist: each error must come before the signal is read
    outputs = {"reconstruct": ["--ridge-csv", str(tmp_path / "r.csv"), "--mode-prefix", str(tmp_path / "mode")]}
    code = main([command, "--input", str(tmp_path / "missing.csv"), *flags.split(),
                 *outputs.get(command, ["--output", str(tmp_path / "out.tfc1")])])
    assert code == 1
    err = capsys.readouterr().err
    bad_flag = flags.split()[-1].partition("=")[0]
    assert err.startswith(f"error: {bad_flag} ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["transform", "sct", "reconstruct"])
def test_input_errors_name_the_flag_and_the_file(tmp_path, capsys, command):
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("re,im\n1.0,0.0\nnan,0.0\n2.0,0.0\n")
    outputs = {"reconstruct": ["--ridge-csv", str(tmp_path / "r.csv"), "--mode-prefix", str(tmp_path / "mode")]}
    for flags, code in ((["--rate", "100"], 1), (["--format", "wav"], 2)):
        got = main([command, "--input", str(nan_csv), *flags, *outputs.get(command, ["--output", str(tmp_path / "o")])])
        err = capsys.readouterr().err
        assert got == code
        assert err.startswith(f"error: --input {nan_csv}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("value", ["left", "centered"])
def test_convention_key_is_unknown(tmp_path, capsys, value):
    # phases have one reference, the window center: no key chooses it
    cfg = write_config(tmp_path, alpha_sq=0.1, convention=value)
    code = main(["--config", cfg, "transform", "--input", str(tmp_path / "missing.csv"), "--rate", "16",
                 "--output", str(tmp_path / "out.tfc1")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:2: unknown key 'convention'\n"


@pytest.mark.parametrize(
    "args",
    [
        "sct --output {bad}",
        "sct --output {tmp}/s.tfc1 --summary {bad}",
        "transform --output {tmp}/t.tfc1 --tf-csv {bad}",
        "ridge --output {bad}",
        "reconstruct --ridge-csv {tmp}/r.csv --mode-prefix {bad}",
    ],
    ids=["sct-output", "sct-summary", "transform-tf-csv", "ridge-output", "reconstruct-mode-prefix"],
)
def test_write_errors_name_the_given_path(crossing_csv, tmp_path, capsys, args):
    # an output goes through a temp file beside it, which the message never names
    bad = str(tmp_path / "nodir" / "out")
    argv = args.format(tmp=tmp_path, bad=bad).split()
    if argv[0] == "ridge":
        sct = str(tmp_path / "s.tfc1")
        assert main(["sct", "--input", crossing_csv, "--rate", "100", "--output", sct]) == 0
        argv += ["--tensor", sct]
    else:
        argv += ["--input", crossing_csv, "--rate", "100"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and bad in err and ".tfchirp-" not in err and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "args, named",
    [
        ("reconstruct --ridge-csv {out}/r.csv --mode-prefix {bad}/m", "{bad}/m0.csv"),
        ("reconstruct --ridge-csv {out}/r.csv --mode-prefix {out}/m --truth {truth} --report {bad}/rep.csv",
         "{bad}/rep.csv"),
        ("sct --output {out}/o.tfc1 --summary {bad}/c.csv", "{bad}/c.csv"),
        ("sct --output {out}/o.tfc1 --slice 3 --slice-csv {bad}/s.csv", "{bad}/s.csv"),
        ("sct --output {out}/o.tfc1 --summary {out}/adir", "{out}/adir"),
        ("transform --output {out}/t.tfc1 --tf-csv {bad}/x.csv", "{bad}/x.csv"),
        ("synth --scene crossing --output {out}/s.csv --truth-prefix {bad}/t_", "{bad}/t_component0.csv"),
    ],
    ids=["reconstruct-mode", "reconstruct-report", "sct-summary", "sct-slice", "sct-directory", "transform-tf-csv",
         "synth-truth"],
)
def test_unwritable_output_leaves_no_other_output(crossing_csv, tmp_path, monkeypatch, capsys, args, named):
    # every output is checked before the input is read, so nothing is analysed or written
    _no_analysis(monkeypatch)
    out, bad = tmp_path / "out", tmp_path / "nodir"
    (out / "adir").mkdir(parents=True)
    truth = tmp_path / "truth.csv"
    write_signal_csv(str(truth), Signal(crossing_chirp_pair().components[0], 100.0))
    argv = args.format(out=out, bad=bad, truth=truth).split()
    if argv[0] != "synth":
        argv += ["--input", crossing_csv, "--rate", "100"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: cannot write {named.format(out=out, bad=bad)}: "), err
    assert err.count("\n") == 1
    assert sorted(os.listdir(out)) == ["adir"]


def test_cli_import_leaves_the_heavy_scipy_modules_unloaded():
    # a command imports what it runs: each of these loads inside the one function that uses it
    heavy = ("scipy.signal", "scipy.stats", "scipy.sparse.linalg", "scipy.spatial")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "import sys, tfchirp.cli; print(*sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    loaded = [m for m in proc.stdout.split() if any(m == h or m.startswith(h + ".") for h in heavy)]
    assert not loaded
