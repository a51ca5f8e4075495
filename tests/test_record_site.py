"""models.py puts backward steps on the op tape in one place, `_record`.
Whatever has to see every tape record (an observer, say) then attaches
there and nowhere else. The same goes for the ReLU: one op, placed by
models.py."""

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


def _functions(tree: ast.Module) -> dict:
    return {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def test_one_relu():
    """A ReLU is one op, ops.relu_forward, which models.py places: the
    only in-place np.maximum in the package is there, and no ops function
    takes a relu flag."""
    root = Path(models.__file__).parent
    sites = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {id(n): name for name, fn in _functions(tree).items() for n in ast.walk(fn)}
        sites += [
            (path.name, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "maximum" and any(k.arg == "out" for k in node.keywords)
        ]
    assert sites == [("ops.py", "relu_forward")]
    ops_tree = ast.parse((root / "ops.py").read_text())
    flagged = [name for name, fn in _functions(ops_tree).items()
               if "relu" in [a.arg for a in fn.args.args + fn.args.kwonlyargs]]
    assert not flagged, f"ops functions with a relu parameter: {flagged}"
