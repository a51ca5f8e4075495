"""Every public function, class and module-level constant of ops.py and
tensor.py is used by another module of the package. A name that only its own tests call is dead
code: delete it, or fold it into what the package uses."""

import ast
import inspect
import io
import tokenize
from pathlib import Path

import pytest

from wavecnn import ops, tensor


def _code_names(path: Path) -> set:
    """Identifiers in a module's code; comments and strings do not count."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return {t.string for t in tokens if t.type == tokenize.NAME}


def _constants(path: Path) -> list:
    """Names a module assigns at its top level."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


@pytest.mark.parametrize("module", [ops, tensor], ids=lambda m: m.__name__)
def test_public_names_are_used_elsewhere_in_the_package(module):
    own = Path(module.__file__)
    used = set()
    for path in own.parent.glob("*.py"):
        if path != own:
            used |= _code_names(path)
    public = [
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    public += [name for name in _constants(own) if not name.startswith("_")]
    assert public
    unused = sorted(set(public) - used)
    assert not unused, f"{module.__name__}: no other module of the package uses {unused}"
