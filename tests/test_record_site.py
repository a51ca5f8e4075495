"""models.py puts backward steps on the op tape in one place, `_record`.
Whatever has to see every tape record (an observer, a fused epilogue)
then attaches there and nowhere else."""

import ast
from pathlib import Path

from wavecnn import models


def _record_calls_outside(tree: ast.Module, owner: str) -> list:
    """Line numbers of `<expr>.record(...)` calls outside function `owner`."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == owner:
            inside |= {id(n) for n in ast.walk(node)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "record" and id(node) not in inside
    )


def test_models_records_only_through_record_helper():
    path = Path(models.__file__)
    sites = _record_calls_outside(ast.parse(path.read_text(), filename=str(path)), "_record")
    assert not sites, f"models.py records on the tape outside _record at lines {sites}"
