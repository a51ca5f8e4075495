"""The step digest script (tests/step_digest.py) covers every architecture,
hashes the same within one process, and with --cases names each case's
hash before the same total; --parent compares two packages."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_pairs
import step_digest
from wavecnn.models import valid_architectures

SMALL = dict(archs=("m3", "m34-res"), lengths=(400,))


def _total(**cases):
    return dict(step_digest.case_digests(**cases))["total"]


def test_cases_cover_every_architecture():
    assert sorted(step_digest.ARCHITECTURES) == valid_architectures()


def test_digest_repeats_within_one_process():
    first = _total(**SMALL)
    assert len(first) == 64
    assert _total(**SMALL) == first
    assert _total(archs=("m3",), lengths=(400,)) != first


def test_cases_option_prints_each_case_then_the_default_total(capsys):
    step_digest.main([], **SMALL)
    default = capsys.readouterr().out.splitlines()
    step_digest.main(["--cases"], **SMALL)
    lines = capsys.readouterr().out.splitlines()
    assert len(default) == 1 and lines[-1] == default[0]
    cases = dict(reversed(line.split()) for line in lines[:-1])
    assert list(cases) == [f"{a}/{d}/400" for a in SMALL["archs"] for d in ("float32", "float64")]
    # A case's hash does not depend on the cases run before it.
    alone = dict(step_digest.case_digests(archs=("m34-res",), lengths=(400,)))
    assert cases["m34-res/float64/400"] == alone["m34-res/float64/400"]


def _extract_work_tree_package(eps):
    """A stand-in for bench_pairs._extract: copies the work tree's package,
    with batch norm's epsilon written as eps."""
    def extract(rev, dest):
        shutil.copytree(bench_pairs.ROOT / "src", dest / "src")
        ops = dest / "src" / "wavecnn" / "ops.py"
        ops.write_text(ops.read_text().replace("_BN_EPS = 1e-5", f"_BN_EPS = {eps}"))
    return extract


@pytest.mark.parametrize("eps,differ", [("1e-5", False), ("1e-3", True)])
def test_parent_option_compares_two_packages(eps, differ, monkeypatch, capsys):
    """--parent digests the extracted package and the work tree's, each in
    a process of its own, prints both totals and returns 1 when they
    differ. The extract here is the work tree's package, with batch norm's
    epsilon kept or changed."""
    monkeypatch.setattr(bench_pairs, "_extract", _extract_work_tree_package(eps))
    cases = dict(archs=("m3",), lengths=(400,))
    assert step_digest.main(["--parent", "REV"], **cases) == int(differ)
    (parent, rev), (work, tree) = (line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert (rev, tree) == ("REV", "work tree")
    assert work == _total(**cases)
    assert (parent != work) == differ


def test_import_applies_wavecnn_threads():
    """The script imports wavecnn before numpy, so WAVECNN_THREADS sets
    the BLAS thread count and no RuntimeWarning says it is ignored."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(WAVECNN_THREADS="1", PYTHONPATH=str(bench_pairs.ROOT / "src"))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", "import step_digest"],
                         cwd=Path(__file__).parent, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
