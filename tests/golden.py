"""Golden outputs: the README's CLI session, SST1/SST2 and one study seed, hashed.

The session runs on the noisy crossing scene (Student-t noise of scale 0.1,
noise seed 51, t0 1.0 s) and covers:

- ``transform``: TFC1, ``--tf-csv`` and ``--slice``;
- ``sct``: TFC1, ``--summary`` and ``--slice``;
- ``ridge`` on the ``sct`` file;
- ``reconstruct``: ridge, mode and report CSVs, at the defaults and with
  ``window_n = 2, min_per_frame = 3``;
- ``sst1``/``sst2`` at window orders 0 and 2, as raw complex128 bytes;
- the rows of ``random_study([0])``, in float hex.

Every output is one file; its digest is the SHA-256 of the file's bytes.
The bits depend on the numpy build, the BLAS and the CPU it dispatches to,
and the BLAS thread count, so the digests are stored under a key naming all
four (``environment_key``) and the session always runs at ``THREADS``.

Run as a script to check or regenerate the stored digests::

    python tests/golden.py                   # this tree against the stored digests
    python tests/golden.py --reference REV   # relative change against git revision REV
    python tests/golden.py --write           # store this tree's digests under this key

For each output the script prints the largest change of any value,
relative to the largest magnitude in the reference output: 0 when the
digests are equal.  Outputs that differ are compared with a run of the
reference revision's ``src/`` (by default the last commit that wrote the
digest file).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

THREADS = 2
ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().with_name("golden_digests.json")
TFC1_HEADER_BYTES = 44
NOISE_SCALE, NOISE_SEED, T0_S, SLICE_S = 0.1, 51, 1.0, 3.0


def environment_key() -> dict:
    """The numpy version, BLAS build and CPU model the digests hold for, and the thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "cpu": cpu, "threads": THREADS}


def stored_entries() -> list:
    """The stored (key, digests) pairs."""
    if not DIGESTS.exists():
        return []
    return [(e["key"], e["digests"]) for e in json.loads(DIGESTS.read_text())["entries"]]


def stored_digests(key: dict):
    """The stored digests for ``key`` (None if there are none) and every stored key."""
    entries = stored_entries()
    return next((d for k, d in entries if k == key), None), [k for k, _ in entries]


def run_session(src: Path, outdir: Path) -> dict:
    """Run the session in a fresh process importing ``tfchirp`` from ``src``; its digests."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONPATH"] = str(src)
    argv = [sys.executable, str(Path(__file__).resolve()), "--session", str(outdir)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"golden session exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _session(outdir: Path) -> dict:
    from tfchirp import tensorio
    from tfchirp.cli import main
    from tfchirp.pipeline import random_study
    from tfchirp.reassign import sst1, sst2
    from tfchirp.signal import Signal, WindowFamily, grid_from_resolution, make_window_bank
    from tfchirp.synth import add_student_t_noise, crossing_chirp_pair

    os.chdir(outdir)
    scene = crossing_chirp_pair()
    noisy, _ = add_student_t_noise(scene.mixed, 4.0, NOISE_SCALE, NOISE_SEED)
    signal = Signal(noisy, scene.sample_rate_hz, T0_S)
    tensorio.write_signal_csv("scene.csv", signal)
    for k in range(scene.components.shape[0]):
        tensorio.write_signal_csv(f"truth_component{k}.csv", Signal(scene.components[k], scene.sample_rate_hz, T0_S))
    with open("n2.cfg", "w") as fh:
        fh.write("window_n = 2\nmin_per_frame = 3\n")
    inputs = set(os.listdir("."))

    sig = ["--input", "scene.csv", "--rate", str(scene.sample_rate_hz), "--t0", str(T0_S)]
    slice_args = ["--slice", str(SLICE_S), "--slice-csv"]
    commands = [
        ["transform", *sig, "--output", "transform.tfc1", "--tf-csv", "transform_tf.csv", *slice_args, "transform_slice.csv"],
        ["sct", *sig, "--output", "sct.tfc1", "--summary", "sct_summary.csv", *slice_args, "sct_slice.csv"],
        ["ridge", "--tensor", "sct.tfc1", "--output", "ridge.csv"],
    ]
    for name, config in (("default", []), ("n2", ["--config", "n2.cfg"])):
        commands.append([
            *config, "reconstruct", *sig, "--ridge-csv", f"reconstruct_{name}_ridges.csv",
            "--mode-prefix", f"reconstruct_{name}_mode", "--truth", "truth_component1.csv", "truth_component0.csv",
            "--report", f"reconstruct_{name}_report.csv",
        ])
    for argv in commands:
        code = main(argv)
        if code != 0:
            raise SystemExit(f"tfchirp {' '.join(argv)} exited {code}")

    grid = grid_from_resolution(0.01, len(signal), signal.sample_rate_hz)
    for n in (0, 2):
        family = WindowFamily(n, 1.0)
        bank = make_window_bank(family, family.default_half_len(signal.dt_s), signal.dt_s)
        for sst in (sst1, sst2):
            np.ascontiguousarray(sst(signal, bank, grid).values).tofile(f"{sst.__name__}_n{n}.c128")

    rows, _ = random_study([0])
    with open("study_rows.txt", "w") as fh:
        for row in rows:
            cells = [row.method, str(row.seed), "rel", *map(float.hex, row.rel_errors), "ot", *map(float.hex, row.ot_errors)]
            fh.write(" ".join(cells) + "\n")

    return {
        name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
        for name in sorted(set(os.listdir(".")) - inputs)
    }


def _values(path: Path) -> np.ndarray:
    """Every number an output holds, flattened."""
    if path.suffix == ".tfc1":
        return np.frombuffer(path.read_bytes()[TFC1_HEADER_BYTES:], dtype="<c16")
    if path.suffix == ".c128":
        return np.fromfile(path, dtype="<c16")
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()[1:]
        return np.array([float(cell) for line in lines for cell in line.split(",")])
    cells = [cell for line in path.read_text().splitlines() for cell in line.split()[2:]]
    return np.array([float.fromhex(cell) for cell in cells if cell not in ("rel", "ot")])


def relative_change(new: Path, old: Path) -> float:
    """max |new - old| over the output, relative to max |old|; inf if the layout changed."""
    a, b = _values(new), _values(old)
    if a.shape != b.shape:
        return np.inf
    diff, scale = np.abs(a - b).max(initial=0.0), np.abs(b).max(initial=0.0)
    return float(diff / scale) if scale > 0 else (np.inf if diff else 0.0)


def _reference_src(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--session", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--reference", metavar="REV", default=None, help="git revision to compare against")
    parser.add_argument("--write", action="store_true", help="store this tree's digests under this environment's key")
    args = parser.parse_args(argv)
    if args.session:
        print(json.dumps(_session(Path(args.session))))
        return 0

    key = environment_key()
    stored, keys = stored_digests(key)
    with tempfile.TemporaryDirectory() as tmp:
        new_dir, old_dir = Path(tmp, "new"), Path(tmp, "old")
        new_dir.mkdir()
        digests = run_session(ROOT / "src", new_dir)
        if args.reference or (stored is not None and digests != stored):
            rev = args.reference or subprocess.run(
                ["git", "-C", str(ROOT), "log", "-1", "--format=%H", "--", str(DIGESTS)],
                capture_output=True, text=True, check=True,
            ).stdout.strip() or "HEAD"
            old_dir.mkdir()
            old_digests = run_session(_reference_src(rev, Path(tmp)), old_dir)
            print(f"reference: {rev}{' (its digests differ from the stored ones)' if stored and old_digests != stored else ''}")
        for name, digest in digests.items():
            if (old_dir / name).exists():
                change = f"{relative_change(new_dir / name, old_dir / name):.3e}"
            else:  # no reference output: 0 when the digest is the stored one, unknown otherwise
                change = f"{0.0:.3e}" if stored and stored.get(name) == digest else "-"
            state = "new" if stored is None else "equal" if stored.get(name) == digest else "CHANGED"
            print(f"{name:36s} {change:>9s}  digest {state}")
    print(f"key: {json.dumps(key)}")
    if args.write:
        entries = [{"key": k, "digests": d} for k, d in stored_entries() if k != key]
        entries.append({"key": key, "digests": digests})
        DIGESTS.write_text(json.dumps({"entries": entries}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {DIGESTS.name}")
    elif stored is None:
        print(f"no digests stored for this key; stored keys: {json.dumps(keys)}")
    return 0 if stored == digests or args.write else 1


if __name__ == "__main__":
    sys.exit(main())
