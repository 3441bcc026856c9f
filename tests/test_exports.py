"""Every module's ``__all__`` resolves, the package imports only listed names, its
version is the one in ``pyproject.toml``, and no name of the README's Migration table
is back."""

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
README = PACKAGE_DIR.parents[1] / "README.md"


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


def _migration_names() -> list:
    """The old names of the README's Migration table that name a package member:
    ``qtypical.``, an optional module, then attributes. Scripts, command forms, call
    forms and environment variables are left out."""
    section = README.read_text(encoding="utf-8").split("\n## Migration\n", 1)[1]
    rows = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("| `")]
    old = [re.split(r"(?<!\\)\|", row)[1].strip() for row in rows]
    return [cell.strip("`") for cell in old if re.fullmatch(r"`qtypical(\.\w+)+`", cell)]


def _exists(name: str) -> bool:
    """Whether ``name`` resolves; a module-level name also exists while the package or
    any module's ``__all__`` holds it."""
    parts = name.split(".")[1:]
    if len(parts) == 2 and parts[0] in MODULES:
        exported = [getattr(importlib.import_module(f"qtypical.{m}"), "__all__", [])
                    for m in MODULES]
        if hasattr(qtypical, parts[1]) or any(parts[1] in names for names in exported):
            return True
    member = qtypical
    for part in parts:
        if member is qtypical and part in MODULES:
            member = importlib.import_module(f"qtypical.{part}")
        elif not hasattr(member, part):
            return False
        else:
            member = getattr(member, part)
    return True


def test_no_name_of_the_migration_table_exists():
    # the resolver sees members that exist, so an empty result is not vacuous
    assert _exists("qtypical.restriction.ExcitationSubspace")
    assert _exists("qtypical.channels.QuantumChannel.apply_matrix")
    names = _migration_names()
    assert "qtypical.channels.replace_channel" in names, "the Migration table was not read"
    back = [name for name in names if _exists(name)]
    assert not back, f"README.md's Migration table lists names that exist: {back}"
