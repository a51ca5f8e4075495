"""A process killed while it writes a checkpoint or a cache blob leaves
nothing that a later run would read: the previous file still loads, and
the stale `<path>.tmp` does not stop the next write.

Each case runs a child process that blocks right after its first write
into the temporary file, says so on stdout, and is then sent SIGKILL."""

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import wavecnn
from wavecnn.audio import DatasetIndex, preprocess
from wavecnn.training import load_checkpoint, train

from test_audio import write_corpus
from test_train import mini_config, mini_dataset

# Patches the file that atomic_write opens: its first write goes through,
# then the child reports it and waits on stdin, which never comes.
_STALL = """
import sys
from wavecnn import tensor

class Stall:
    def __init__(self, f):
        self.f = f
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return self.f.__exit__(*exc)
    def write(self, data):
        self.f.write(data)
        self.f.flush()
        print("written", flush=True)
        sys.stdin.readline()

tensor.open = lambda *a, **k: Stall(open(*a, **k))
"""

_SAVE = _STALL + """
from wavecnn.training import load_checkpoint, save_checkpoint
ckpt = load_checkpoint(sys.argv[1])
ckpt.epoch += 1
save_checkpoint(ckpt, sys.argv[1])
"""

_CACHE = _STALL + """
from wavecnn.audio import DatasetIndex
index = DatasetIndex.from_metadata_csv(sys.argv[1], sys.argv[2], cache_dir=sys.argv[3])
index.load(index.entries[1])
"""


def _kill_after_first_write(code: str, *args) -> None:
    """Run `python -c code *args` with this checkout's wavecnn, wait for
    its first write, and SIGKILL it."""
    env = dict(os.environ)
    src = str(Path(wavecnn.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.Popen([sys.executable, "-c", code, *map(str, args)], env=env,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(120, child.kill)
    watchdog.start()
    try:
        line = child.stdout.readline()
        os.kill(child.pid, signal.SIGKILL)
        _, err = child.communicate()
    finally:
        watchdog.cancel()
        child.kill()
    assert line == "written\n", err
    assert child.returncode == -signal.SIGKILL


def test_kill_during_save_checkpoint(tmp_path):
    path = tmp_path / "run.ckpt"
    train(mini_config(epochs=1, checkpoint_path=str(path)), mini_dataset())
    before = path.read_bytes()

    _kill_after_first_write(_SAVE, path)
    tmp = tmp_path / "run.ckpt.tmp"
    assert sorted(tmp_path.iterdir()) == [path, tmp]
    assert path.read_bytes() == before

    # The previous checkpoint resumes, and the save through the stale
    # temporary file equals the uninterrupted run's.
    resumed = train(mini_config(epochs=2, checkpoint_path=str(path)), mini_dataset(),
                    resume_from=load_checkpoint(path))
    full = train(mini_config(epochs=2), mini_dataset())
    assert sorted(tmp_path.iterdir()) == [path]
    saved = load_checkpoint(path)
    assert saved.epoch == 2 and resumed.history[-1].epoch == 2
    for name, arr in full.graph.params.items():
        np.testing.assert_array_equal(saved.params[name], arr, err_msg=name)


def test_kill_during_cache_blob_write(tmp_path):
    meta = write_corpus(tmp_path)
    cache = tmp_path / "cache"
    index = DatasetIndex.from_metadata_csv(meta, tmp_path, cache_dir=cache)
    first = index.load(index.entries[0]).copy()
    (blob,) = cache.iterdir()

    _kill_after_first_write(_CACHE, meta, tmp_path, cache)
    (stale,) = cache.glob("*.tmp")
    assert sorted(cache.iterdir()) == [blob, stale]

    # The blob written before still serves, the killed one is recomputed
    # and written through the stale temporary file.
    fresh = DatasetIndex.from_metadata_csv(meta, tmp_path, cache_dir=cache)
    np.testing.assert_array_equal(fresh.load(fresh.entries[0]), first)
    second = fresh.load(fresh.entries[1])
    np.testing.assert_array_equal(second, preprocess(fresh.entries[1].path.read_bytes()))
    done = cache / stale.name[: -len(".tmp")]
    assert sorted(cache.iterdir()) == sorted([blob, done])
    assert done.read_bytes() == second.astype("<f4").tobytes()
