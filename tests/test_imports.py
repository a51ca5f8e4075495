"""Every name a package module imports is used in that module. A stale
import hides dead code and false dependencies between modules."""

import ast
from pathlib import Path

import pytest

import wavecnn

_MODULES = sorted(
    p for p in Path(wavecnn.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    # ast, not tokenize: on Python 3.11 tokenize does not split f-strings,
    # so a name used only inside one would look unused.
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name} imports names it never uses: {unused}"
