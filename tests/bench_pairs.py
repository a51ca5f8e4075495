"""Pairs of benchmark runs, a parent revision against a change, in one file.

    python tests/bench_pairs.py --parent <rev> [--change <rev>] \\
        [--workload W ...] --pairs N --seconds S --out BENCH.json

Both sides are built the same way, as `git archive` extracts at paths of
equal length (`<workdir>/parent` and `<workdir>/change`), because the
checkout path alone moves `peak_rss_mb`. Without --change the change side
is the work tree: its tracked files and its untracked files that git does
not ignore. Each side then runs once per workload, untimed, so that both
have compiled their bytecode before any pair. Pair i runs seed
`--seed + i` on both sides, the parent first in even pairs and the change
first in odd ones. Every run is the unchanged `perfbench/run.py` of its
side with `--trace 0`.

The output file holds a header (both revisions, Python, numpy, BLAS,
`nproc`, `WAVECNN_THREADS`, the run length and pair count) and, for each
workload, its seeds, orders and failed checks per side, and for each
end-to-end metric of BENCHMARK.json each side's median and quartiles, the
median per-pair ratio change / parent, the pairs the change won, and a
flag when the parent's IQR exceeds a third of the metric's bound (too
wide to judge a move of the bound's size). The raw value of every run is
kept beside them.

pytest does not collect this file (its name does not start with test_);
tests/test_bench_pairs.py checks `summarize` on canned run output.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_run(stdout: str) -> tuple:
    """(header, result) of one run.py output: its first and last lines."""
    lines = [json.loads(line) for line in stdout.strip().splitlines()]
    return lines[0]["header"], lines[-1]


def pair_order(i: int) -> tuple:
    """The sides of pair i in the order they run."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(spec: dict, pairs: dict) -> dict:
    """Per workload and end-to-end metric of spec (BENCHMARK.json), the
    statistics of pairs[workload]: a list of {"seed", "order", "parent",
    "change"}, each side being a parsed run.py result line."""
    out = {}
    for workload, runs in pairs.items():
        failed = {side: sum(r[side]["failed"] for r in runs) for side in SIDES}
        metrics = {}
        for m in spec["end_to_end"]:
            values = {side: [r[side]["metrics"][m["name"]]["value"] for r in runs]
                      for side in SIDES}
            parent, change = (np.array(values[side]) for side in SIDES)
            won = change > parent if m["better"] == "higher" else change < parent
            stats = {side: _quartiles(values[side]) for side in SIDES}
            p, c = stats["parent"], stats["change"]
            iqr = p["q3"] - p["q1"]
            metrics[m["name"]] = {
                **stats,
                "median_ratio": float(np.median(change / parent)),
                "pairs_won": int(won.sum()),
                "pairs": len(runs),
                "parent_iqr_over_third_of_bound": bool(iqr > abs(p["median"]) * m["bound"] / 3),
                "medians_apart_beyond_parent_iqr": bool(abs(c["median"] - p["median"]) > iqr),
                "values": values,
            }
        out[workload] = {"failed_checks": failed,
                         "seeds": [r["seed"] for r in runs],
                         "orders": [list(r["order"]) for r in runs],
                         "metrics": metrics}
    return out


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=zip", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as z:
        z.extractall(dest)


def _copy_work_tree(dest: Path) -> None:
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _run(root: Path, workload: str, seed: int, seconds: float) -> tuple:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return parse_run(out.stdout)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="revision of the parent side")
    ap.add_argument("--change", help="revision of the change side (default: the work tree)")
    ap.add_argument("--workload", action="append", choices=names,
                    help="a workload to run; repeat for more (default: all)")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="run.py --seconds of each run")
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    ap.add_argument("--out", required=True, help="the file to write")
    ap.add_argument("--workdir", help="where to extract both sides (default: a temporary dir)")
    args = ap.parse_args(argv)

    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench-pairs-"))
    roots = {side: work / side for side in SIDES}  # names of equal length
    revisions = {"parent": _git("rev-parse", args.parent)}
    for root in roots.values():
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
    _extract(revisions["parent"], roots["parent"])
    if args.change:
        revisions["change"] = _git("rev-parse", args.change)
        _extract(revisions["change"], roots["change"])
    else:
        dirty = bool(_git("status", "--porcelain"))
        revisions["change"] = _git("rev-parse", "HEAD") + (" + work tree" if dirty else "")
        _copy_work_tree(roots["change"])

    header = None
    pairs = {}
    for workload in args.workload or names:
        for side in SIDES:  # untimed, so both sides run from compiled bytecode
            header, _ = _run(roots[side], workload, args.seed, 1.0)
        runs = pairs[workload] = []
        for i in range(args.pairs):
            seed, order = args.seed + i, pair_order(i)
            run = {"seed": seed, "order": order}
            for side in order:
                run[side] = _run(roots[side], workload, seed, args.seconds)[1]
            runs.append(run)
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}", file=sys.stderr, flush=True)

    keys = ("python", "numpy", "blas", "nproc", "WAVECNN_THREADS")
    doc = {"header": {"revisions": revisions, **{k: header[k] for k in keys},
                      "seconds": args.seconds, "pairs": args.pairs},
           "workloads": summarize(spec, pairs)}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if not args.workdir:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
