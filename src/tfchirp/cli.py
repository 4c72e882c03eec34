"""Command-line front end.

Subcommands: transform | sct | ridge | reconstruct | synth | compare | info.
Exit codes: 0 success, 1 usage error, 2 I/O or format error, 3 numerical
failure.  All commands are deterministic given the config and seed.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensorio
from .errors import FormatError, ParameterError, ResourceError, TfchirpError, UnsupportedWindowError
from .metrics import rel_error
from .pipeline import random_study, run_sct
from .reassign import DEFAULT_NU_REL, squeeze_conservation, synchrosqueeze
from .reconstruct import check_window_condition, reconstruct_modes
from .ridge import RidgeParams, extract_ridges
from .signal import MAX_TAPS, Signal, WindowFamily, grid_from_resolution, make_window_bank
from .synth import crossing_chirp_pair, random_ict_scene
from .transform import chirplet_transform, project_tfc_to_tf

USAGE_ERROR, IO_ERROR, NUMERICAL_ERROR = 1, 2, 3
_FAMILY, _RIDGE = WindowFamily(), RidgeParams()  # the library defaults the config starts from


@dataclass(frozen=True)
class RunConfig:
    window_n: int = _FAMILY.n
    alpha_w: float = _FAMILY.alpha_w
    half_len: int = 0  # 0 = automatic truncation policy
    alpha_sq: float = 0.01
    nu_rel: float = DEFAULT_NU_REL
    q: float = _RIDGE.q
    sigma_pct: float = _RIDGE.sigma_pct
    min_per_frame: int = _RIDGE.min_per_frame
    n_components: int = 2
    seed: int = _RIDGE.seed

    def family(self) -> WindowFamily:
        return WindowFamily(self.window_n, self.alpha_w)

    def ridge_params(self) -> RidgeParams:
        return RidgeParams(
            q=self.q,
            sigma_pct=self.sigma_pct,
            seed=self.seed,
            min_per_frame=self.min_per_frame,
        )


_CONFIG_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}
# every key's domain, as a test and its words; NaN fails every test.  0 means
# "automatic" / "none" for half_len and min_per_frame.
_CONFIG_DOMAINS = {
    "window_n": (lambda v: v >= 0, "must be >= 0"),
    "alpha_w": (lambda v: 0 < v < np.inf, "must be positive and finite"),
    "half_len": (lambda v: v >= 0, "must be >= 0"),
    "alpha_sq": (lambda v: 0 < v <= 0.5, "must lie in (0, 0.5]"),
    "nu_rel": (lambda v: v > 0, "must be positive"),
    "q": (lambda v: 0 <= v < 1, "must lie in [0, 1)"),
    "sigma_pct": (lambda v: 0 < v <= 100, "must lie in (0, 100]"),
    "min_per_frame": (lambda v: v >= 0, "must be >= 0"),
    "n_components": (lambda v: v >= 1, "must be >= 1"),
    "seed": (lambda v: v >= 0, "must be >= 0"),
}


def load_config(path: str | None) -> RunConfig:
    config = RunConfig()
    if path is None:
        return config
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParameterError(f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_TYPES:
                    raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _CONFIG_TYPES[key](val.strip())
                except ValueError as exc:
                    raise ParameterError(f"{path}:{lineno}: {exc}") from exc
                admits, domain = _CONFIG_DOMAINS[key]
                if not admits(values[key]):
                    raise ParameterError(f"{path}:{lineno}: {key} {domain}, got {values[key]}")
    except OSError as exc:
        raise FormatError(f"cannot read config: {exc}") from exc
    return replace(config, **values)


def _config(args) -> RunConfig:
    """The ``--config`` file's values, with ``--seed`` applied."""
    config = load_config(args.config)
    return config if args.seed is None else replace(config, seed=args.seed)


@contextmanager
def _naming(flag: str, path: str):
    """Turn an error in reading ``path`` into one line naming ``flag`` and the file:
    exit 2 for a file that cannot be read or parsed, 1 for a bad signal in it."""
    try:
        yield
    except (OSError, FormatError) as exc:
        raise FormatError(f"{flag} {path}: {exc}") from None
    except ParameterError as exc:
        raise ParameterError(f"{flag} {path}: {exc}") from None


def _read_signal(args, *outputs) -> Signal:
    """The ``--input`` signal, read once its flags are checked and its non-empty ``outputs`` writable."""
    fmt = args.format
    if args.rate is not None and not 0 < args.rate < np.inf:
        raise ParameterError(f"--rate must be positive and finite, got {args.rate}")
    if not np.isfinite(args.t0):
        raise ParameterError(f"--t0 must be finite, got {args.t0}")
    if fmt == "wav" and args.downsample < 1:
        raise ParameterError(f"--downsample must be >= 1, got {args.downsample}")
    if fmt != "wav" and args.rate is None:
        raise ParameterError(f"--rate is required for format {fmt!r}")
    tensorio._check_writable(*filter(None, outputs))
    with _naming("--input", args.input):
        if fmt == "wav":
            sig = tensorio.read_wav(args.input, downsample=args.downsample)
        elif fmt == "csv":
            sig = tensorio.read_signal_csv(args.input, args.rate)
        else:
            sig = tensorio.read_signal_raw(args.input, args.rate, interleaved_complex=fmt == "raw-complex")
    return Signal(sig.samples, sig.sample_rate_hz, args.t0)


def _analysis_window(config: RunConfig, signal: Signal) -> tuple:
    """The analysis window as ``_memory_guard`` names it."""
    if config.half_len > 0:
        return "window", config.half_len, f"lower half_len (now {config.half_len})"
    return "window", _default_half_len(config.family(), signal), f"raise alpha_w (now {config.alpha_w})"


def _default_half_len(family: WindowFamily, signal: Signal):
    """``family.default_half_len`` at the signal's rate, or inf where no array could hold the window."""
    try:
        return family.default_half_len(signal.dt_s)
    except ResourceError:
        return np.inf


@contextmanager
def _memory_guard(grid, *windows, q=None):
    """Turn a ``MemoryError`` into a one-line error naming the grid, ``q`` of a ridge cloud clustered under the
    guard, and each window built under it, given as (label, half length, the knob that shortens it); a window of
    more than ``MAX_TAPS`` taps, or a grid whose complex volume no array can size, fails so on entry: such a grid
    names ``alpha_sq`` alone, as no other knob shrinks it."""
    taps = [(label, 2 * half_len + 1) for label, half_len, _ in windows]
    volume = grid.n_chirp * grid.n_freq * grid.n_time * np.dtype(np.complex128).itemsize
    unsizable = volume > np.iinfo(np.intp).max
    try:
        if unsizable or any(n > MAX_TAPS for _, n in taps):
            raise MemoryError
        yield
    except MemoryError:
        if unsizable:
            taps, windows, q = [], (), None
        names = " and ".join(f"the {n if n <= MAX_TAPS else f'>{MAX_TAPS}'}-tap {label}" for label, n in taps)
        knobs = ", or ".join(
            [f"raise alpha_sq (now {grid.alpha_sq}) for a coarser grid"]
            + ([f"raise q (now {q}) for a smaller cloud"] if q is not None else [])
            + [f"{knob} for a shorter {label}" for label, _, knob in windows]
        )
        dims = "x".join(map(_size, (grid.n_chirp, grid.n_freq, grid.n_time)))
        raise ResourceError(
            f"out of memory on the {dims} grid ({_size(volume)} bytes per complex volume)"
            f"{f' with {names}' if windows else ''}; {knobs}"
        ) from None


def _size(n: int) -> str:
    """``n``, or ``>`` intp max for a size no array can have: such a grid's sizes run to hundreds of digits."""
    return str(n) if n <= np.iinfo(np.intp).max else f">{np.iinfo(np.intp).max}"


def _run_sct(config: RunConfig, signal: Signal, grid):
    return run_sct(signal, config.family(), grid, half_len=config.half_len or None, nu_rel=config.nu_rel)


def _slice_frame(args, signal: Signal) -> int | None:
    """The frame of ``--slice``, checked against the record before any analysis."""
    if args.slice is None:
        return None
    position = (args.slice - signal.t0_s) * signal.sample_rate_hz
    frame = int(round(position)) if np.isfinite(position) else -1
    if not (0 <= frame < len(signal)):
        end_s = signal.t0_s + (len(signal) - 1) / signal.sample_rate_hz
        raise ParameterError(f"--slice {args.slice}: not a time inside the record [{signal.t0_s}, {end_s}] s")
    return frame


def _write_slice_csv(path: str, tensor, frame: int):
    grid = tensor.grid
    columns = (
        np.repeat(grid.chirps_hzps, grid.n_freq),
        np.tile(grid.freqs_hz, grid.n_chirp),
        np.abs(tensor.values[:, :, frame]).ravel(),
    )
    tensorio.write_csv_table(path, ("chirp_hzps", "freq_hz", "magnitude"), zip(*columns))


def cmd_transform(args) -> int:
    config = _config(args)
    signal = _read_signal(args, args.output, args.tf_csv, args.slice is not None and args.slice_csv)
    frame = _slice_frame(args, signal)
    grid = grid_from_resolution(config.alpha_sq, len(signal), signal.sample_rate_hz)
    window = _analysis_window(config, signal)
    with _memory_guard(grid, window):
        bank = make_window_bank(config.family(), window[1], signal.dt_s)
        tensor = chirplet_transform(signal, bank.h, grid)
        tensorio.write_tensor(args.output, tensor, signal.t0_s)
        if args.tf_csv:
            columns = (
                np.tile(signal.times_s, grid.n_freq),
                np.repeat(grid.freqs_hz, grid.n_time),
                project_tfc_to_tf(tensor).values.ravel(),
            )
            tensorio.write_csv_table(args.tf_csv, ("t_s", "freq_hz", "projection"), zip(*columns))
        if frame is not None:
            _write_slice_csv(args.slice_csv, tensor, frame)
    return 0


def cmd_sct(args) -> int:
    config = _config(args)
    signal = _read_signal(args, args.output, args.summary, args.slice is not None and args.slice_csv)
    frame = _slice_frame(args, signal)
    grid = grid_from_resolution(config.alpha_sq, len(signal), signal.sample_rate_hz)
    with _memory_guard(grid, _analysis_window(config, signal)):
        field = _run_sct(config, signal, grid)
        squeezed = synchrosqueeze(field)
        tensorio.write_tensor(args.output, squeezed, signal.t0_s)
        if args.summary:
            residual = squeeze_conservation(field, squeezed)
            tensorio.write_csv_table(args.summary, ("t_s", "conservation_residual"), zip(signal.times_s, residual))
        if frame is not None:
            _write_slice_csv(args.slice_csv, squeezed, frame)
    return 0


def _write_ridges(path: str, ridges, times_s: np.ndarray):
    header, columns = ["t_s"], [times_s]
    for k in range(ridges.n_components):
        header += [f"omega{k}_hz", f"mu{k}_hzps"]
        columns += [ridges.omega_hz[k], ridges.mu_hzps[k]]
    tensorio.write_csv_table(path, header, zip(*columns))


def cmd_ridge(args) -> int:
    config = _config(args)
    tensorio._check_writable(args.output)
    with _naming("--tensor", args.tensor):
        tensor, t0 = tensorio.read_tensor(args.tensor)
    with _memory_guard(tensor.grid, q=config.q):
        ridges = extract_ridges(tensor, config.n_components, config.ridge_params())
    _write_ridges(args.output, ridges, t0 + np.arange(tensor.grid.n_time) / tensor.grid.sample_rate_hz)
    return 0


def _read_truths(paths, signal: Signal) -> list:
    """The ``--truth`` signals, each checked against the record's length."""
    truths = []
    for path in paths:
        with _naming("--truth", path):
            truth = tensorio.read_signal_csv(path, signal.sample_rate_hz)
        if len(truth) != len(signal):
            raise ParameterError(f"--truth {path}: {len(truth)} samples, the record has {len(signal)}")
        truths.append(truth)
    return truths


def cmd_reconstruct(args) -> int:
    config = _config(args)
    if args.recon_n < 0:
        raise ParameterError(f"--recon-n must be >= 0, got {args.recon_n}")
    if not 0 < args.recon_alpha < np.inf:
        raise ParameterError(f"--recon-alpha must be positive and finite, got {args.recon_alpha}")
    recon_family = WindowFamily(args.recon_n, args.recon_alpha)
    try:
        check_window_condition(recon_family)
    except UnsupportedWindowError as exc:
        raise ParameterError(f"--recon-n {args.recon_n}: {exc}") from None
    if args.truth and len(args.truth) > config.n_components:
        raise ParameterError(
            f"--truth: {len(args.truth)} files for {config.n_components} modes (n_components)"
        )
    modes_csv = [f"{args.mode_prefix}{k}.csv" for k in range(config.n_components)]
    signal = _read_signal(args, args.ridge_csv, *modes_csv, args.truth and args.report)
    truths = _read_truths(args.truth or (), signal)
    grid = grid_from_resolution(config.alpha_sq, len(signal), signal.sample_rate_hz)
    recon_half_len = _default_half_len(recon_family, signal)
    recon_window = ("reconstruction window", recon_half_len, f"raise --recon-alpha (now {args.recon_alpha})")
    with _memory_guard(grid, _analysis_window(config, signal), recon_window, q=config.q):
        recon_bank = make_window_bank(recon_family, recon_half_len, signal.dt_s)
        ridges = extract_ridges(_run_sct(config, signal, grid), config.n_components, config.ridge_params())
        modes = reconstruct_modes(signal, ridges, recon_bank)
    _write_ridges(args.ridge_csv, ridges, signal.times_s)
    for path, mode in zip(modes_csv, modes.modes):
        tensorio.write_signal_csv(path, Signal(mode, signal.sample_rate_hz, signal.t0_s))
    if truths:
        lines = [(k, rel_error(modes.modes[k].real, truth.samples.real)) for k, truth in enumerate(truths)]
        tensorio.write_csv_table(args.report, ("mode", "rel_error_real"), lines)
    return 0


def cmd_synth(args) -> int:
    if args.scene == "crossing":
        scene = crossing_chirp_pair()
    elif args.scene == "random":
        scene = random_ict_scene(args.seed if args.seed is not None else 0)
    else:
        raise ParameterError(f"unknown scene {args.scene!r}")
    prefix, truths = args.truth_prefix, range(scene.components.shape[0] if args.truth_prefix else 0)
    tensorio._check_writable(
        args.output, *(f"{prefix}{kind}{k}.csv" for k in truths for kind in ("component", "curves"))
    )
    tensorio.write_signal_csv(args.output, scene.signal())
    for k in truths:
        tensorio.write_signal_csv(
            f"{prefix}component{k}.csv", Signal(scene.components[k], scene.sample_rate_hz, float(scene.times_s[0]))
        )
        rows = zip(scene.times_s, scene.ifs_hz[k], scene.chirps_hzps[k])
        tensorio.write_csv_table(f"{prefix}curves{k}.csv", ("t_s", "if_hz", "chirp_hzps"), rows)
    return 0


def cmd_compare(args) -> int:
    seeds = list(range(args.seeds))
    if not seeds:
        raise ParameterError("--seeds must be >= 1")
    tensorio._check_writable(args.output)
    _, summary = random_study(seeds)
    rows = []
    for method, stats in summary.items():
        if stats["rel_mean"] is not None:
            for k, (m, s) in enumerate(zip(stats["rel_mean"], stats["rel_sd"])):
                rows.append((method, k, "rel_error", float(m), float(s)))
        if stats["ot_mean"] is not None:
            for k, (m, s) in enumerate(zip(stats["ot_mean"], stats["ot_sd"])):
                rows.append((method, k, "ot_if", float(m), float(s)))
    tensorio.write_csv_table(args.output, ("method", "mode", "metric", "mean", "sd"), rows)
    return 0


def cmd_info(args) -> int:
    with _naming("--tensor", args.tensor), open(args.tensor, "rb") as fh:
        grid, dtype, t0 = tensorio._read_header(fh)
    print(f"dims: {grid.n_chirp} x {grid.n_freq} x {grid.n_time}")
    print(f"alpha_sq: {grid.alpha_sq}")
    print(f"sample_rate_hz: {grid.sample_rate_hz}")
    print(f"t0_s: {t0}")
    print(f"dtype: {dtype}")
    return 0


def _add_signal_args(parser):
    parser.add_argument("--input", required=True, help="input signal path")
    parser.add_argument("--format", default="csv", choices=("wav", "csv", "raw", "raw-complex"))
    parser.add_argument("--rate", type=float, default=None, help="sample rate (csv/raw)")
    parser.add_argument("--t0", type=float, default=0.0, help="start time of the record")
    parser.add_argument("--downsample", type=int, default=1, help="decimation factor (wav)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tfchirp")
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="chirplet transform to a TFC1 file")
    _add_signal_args(p)
    p.add_argument("--output", required=True)
    p.add_argument("--tf-csv", default=None, help="also write the TF projection")
    p.add_argument("--slice", type=float, default=None, help="time (s) of a freq-chirp slice CSV")
    p.add_argument("--slice-csv", default="slice.csv")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("sct", help="synchrosqueezed transform to a TFC1 file")
    _add_signal_args(p)
    p.add_argument("--output", required=True)
    p.add_argument("--summary", default=None, help="per-frame conservation CSV")
    p.add_argument("--slice", type=float, default=None)
    p.add_argument("--slice-csv", default="slice.csv")
    p.set_defaults(fn=cmd_sct)

    p = sub.add_parser("ridge", help="extract ridge curves from a TFC1 file")
    p.add_argument("--tensor", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_ridge)

    p = sub.add_parser("reconstruct", help="full ridge extraction + mode reconstruction")
    _add_signal_args(p)
    p.add_argument("--ridge-csv", required=True)
    p.add_argument("--mode-prefix", required=True, help="mode CSVs are written as <prefix><k>.csv")
    p.add_argument("--recon-n", type=int, default=0, help="reconstruction window power")
    p.add_argument("--recon-alpha", type=float, default=1.0)
    p.add_argument("--truth", nargs="*", default=None, help="clean component CSVs")
    p.add_argument("--report", default="report.csv")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("synth", help="generate a test scene")
    p.add_argument("--scene", required=True, choices=("crossing", "random"))
    p.add_argument("--output", required=True)
    p.add_argument("--truth-prefix", default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("compare", help="multi-seed method comparison table")
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("info", help="print a TFC1 header")
    p.add_argument("--tensor", required=True)
    p.set_defaults(fn=cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if args.seed is not None and args.seed < 0:
            raise ParameterError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except TfchirpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
