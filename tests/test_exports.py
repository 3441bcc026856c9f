"""Every module's ``__all__`` resolves, the package imports only listed names, and its
version is the one in ``pyproject.toml``."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qtypical

PACKAGE_DIR = Path(qtypical.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE_DIR)])
                 if m.name != "__main__")


def _package_imports() -> dict:
    """{module name: names} of every ``from .module import ...`` in ``__init__``."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    return {node.module: [alias.name for alias in node.names]
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"qtypical.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_package_imports_only_exported_names():
    imports = _package_imports()
    assert imports, "__init__ imports nothing from its modules"
    for name, names in imports.items():
        exported = getattr(importlib.import_module(f"qtypical.{name}"), "__all__", None)
        assert exported is not None, f"__init__ imports from {name}, which has no __all__"
        unlisted = sorted(set(names) - set(exported))
        assert not unlisted, f"__init__ imports {unlisted} from {name}, not in its __all__"


def test_version_matches_pyproject():
    # a release bumps both; the [project] table is read as text, since tomllib
    # is not in the standard library before Python 3.11
    text = (PACKAGE_DIR.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    version = re.search(r'^version = "([^"]+)"$', project, re.MULTILINE)
    assert version is not None, "pyproject.toml's [project] table has no version"
    assert qtypical.__version__ == version.group(1)
