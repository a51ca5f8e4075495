"""Helpers that the test modules and the scripts under tests/ share."""

import os
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def python_env(src=SRC, drop=(), **env_vars) -> dict:
    """The environment of a child Python that imports wavecnn from src
    (this checkout's by default): os.environ without the variables named
    in drop, with src ahead of PYTHONPATH and env_vars set."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.update(env_vars)
    return env
