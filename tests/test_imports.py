"""No venncal module imports a private name of another venncal module, and only data imports hashlib.

A private name is one that starts with "_" and is not a dunder such as
``__version__``.  A module that needs another's private helper should get
a public rule instead, so each rule keeps one home.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "venncal"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(path: Path) -> list[str]:
    """'<line>: <module>.<name>' for each private venncal name that path imports."""
    package = path.relative_to(PACKAGE.parent).parent.parts  # a relative import's level 1
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            source = ".".join((*base, node.module) if node.module else base)
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            source, names = "", [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            dotted = f"{source}.{name}" if source else name
            if dotted.split(".")[0] == "venncal" and any(map(_private, dotted.split("."))):
                found.append(f"{node.lineno}: {dotted}")
    return found


def test_the_package_has_modules():
    assert PACKAGE / "data.py" in MODULES and len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_no_module_imports_another_modules_private_name(path):
    assert _private_imports(path) == []


def test_hashlib_is_imported_by_data_alone():
    """data.sha256_hex takes every digest venncal records, so it is the one place OpenSSL is loaded from."""
    importers = [
        path.relative_to(PACKAGE).as_posix()
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (isinstance(node, ast.Import) and any(alias.name == "hashlib" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "hashlib")
    ]
    assert importers == ["data.py"]
