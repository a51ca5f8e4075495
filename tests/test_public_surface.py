"""Every public function, class, class method and module-level constant of
ops.py and tensor.py is used by another module of the package. A name that
only its own tests call is dead code: delete it, or fold it into what the
package uses."""

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


def _used_elsewhere(module) -> set:
    """Identifiers in the code of the package's other modules."""
    own = Path(module.__file__)
    return set().union(*(_code_names(p) for p in own.parent.glob("*.py") if p != own))


def _public_own(namespace: dict, module) -> list:
    return [
        name for name, obj in namespace.items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]


@pytest.mark.parametrize("module", [ops, tensor], ids=lambda m: m.__name__)
def test_public_names_are_used_elsewhere_in_the_package(module):
    public = _public_own(vars(module), module)
    public += [name for name in _constants(Path(module.__file__)) if not name.startswith("_")]
    assert public
    unused = sorted(set(public) - _used_elsewhere(module))
    assert not unused, f"{module.__name__}: no other module of the package uses {unused}"


@pytest.mark.parametrize("module", [ops, tensor], ids=lambda m: m.__name__)
def test_public_methods_are_used_elsewhere_in_the_package(module):
    """Same token rule, one level down: a public method counts as used when
    its name appears in another module's code."""
    used = _used_elsewhere(module)
    methods = [
        (cls, name)
        for cls in _public_own(vars(module), module)
        for name in _public_own(vars(getattr(module, cls)), module)
    ]
    assert methods
    unused = sorted(f"{cls}.{name}" for cls, name in methods if name not in used)
    assert not unused, f"{module.__name__}: no other module of the package calls {unused}"
