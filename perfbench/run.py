#!/usr/bin/env python3
"""Benchmark of the wavecnn package: one workload per process.

    python3 perfbench/run.py --workload train-m3 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The package is imported from `src/` of
that checkout, never from an installed copy. With `--trace 0` the last line
of standard output holds the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it holds the per-layer metrics. Preceding lines carry the run
header and details (per-phase rates, the per-conv FLOP table). Scratch
files go to `.perfbench_work/` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--channel-scale", type=float, default=1.0,
                   help="model width factor; 1 is the published width (the self-test uses 1/16)")
    return p.parse_args(argv)


def pin_threads() -> dict:
    """Cap BLAS threads at the CPUs this process may use, before numpy loads.

    WAVECNN_THREADS, when set to a positive count, is honoured up to that cap.
    """
    nproc = len(os.sched_getaffinity(0))
    asked = int(os.environ.get("WAVECNN_THREADS") or 0)
    threads = min(asked, nproc) if asked > 0 else nproc
    os.environ["WAVECNN_THREADS"] = str(threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return {"nproc": nproc, "WAVECNN_THREADS": threads}


def import_program():
    """Import wavecnn from this checkout's src/; ImportError if it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wavecnn

    if src.resolve() not in Path(wavecnn.__file__).resolve().parents:
        raise ImportError(f"wavecnn was imported from {wavecnn.__file__}, not from {src}")
    return wavecnn


def git_revision() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_header(args, threads: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "channel_scale": args.channel_scale,
        "loop": "closed, 1 caller",
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    threads = pin_threads()
    t0 = time.perf_counter()
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the wavecnn package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    import workloads

    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"header": run_header(args, threads)}), flush=True)

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        e2e, traced = workloads.RUNNERS[args.workload]
        result = traced(args, work) if args.trace else e2e(args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()  # only if no other run is using it
        except OSError:
            pass

    names = [m["name"] for m in declared]
    if sorted(result.metrics) != sorted(names):
        raise RuntimeError(f"metrics {sorted(result.metrics)} do not match BENCHMARK.json {names}")
    print(json.dumps({"info": result.info}), flush=True)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": float(result.metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
