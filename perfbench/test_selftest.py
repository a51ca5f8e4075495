"""Self-test of the benchmark at 1/16 of the published width.

Checks that every metric BENCHMARK.json declares is emitted with its unit,
that the output checks run and pass, that each workload reaches the layers
it exists for, and that the benchmark refuses to run without the program.
Timings are not checked.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layers each workload must reach (self time > 0) and layers it must bypass.
REACHES = {
    "train-m3": (["models.conv1.bwd_s", "models.maxpool.fwd_s", "training.adam_step_s"],
                 ["models.resblock.fwd_s", "audio.decode_wav_s"]),
    "train-m34res": (["models.resblock.bwd_s", "training.adam_step_s"],
                     ["audio.resample_s", "training.evaluate_s"]),
    "ingest-eval": (["audio.decode_wav_s", "audio.resample_s", "audio.cache_read_s",
                     "models.conv1.fwd_s"],
                    ["models.conv1.bwd_s", "training.adam_step_s"]),
}


def run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--channel-scale", "0.0625"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_declared_metrics_and_passes_checks(workload, trace):
    out = run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
    header, result = lines[0]["header"], lines[-1]
    assert header["workload"] == workload and header["seed"] == 3
    assert 1 <= header["WAVECNN_THREADS"] <= header["nproc"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        reached, bypassed = REACHES[workload]
        assert all(values[k] > 0 for k in reached), {k: values[k] for k in reached}
        assert all(values[k] == 0 for k in bypassed), {k: values[k] for k in bypassed}
    else:
        assert all(v > 0 for v in values.values()), values


def test_fails_without_the_program():
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, WORKLOADS[0], 0)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare)
        try:
            scratch.rmdir()
        except OSError:
            pass
