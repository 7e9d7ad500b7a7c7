"""The public surface: the package is its modules, and every exported name resolves.

Tools that walk ``__all__`` (such as a per-layer tracer) skip names that do
not resolve, so a stale entry left behind by a deletion would go unnoticed
without these checks; a name the scripts import but ``__all__`` leaves out
would go untraced.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import qkdnet

MODULES = sorted(info.name for info in pkgutil.iter_modules(qkdnet.__path__))
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qkdnet.{name}")
    assert module.__all__, f"qkdnet.{name} declares no __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_only_its_version():
    """Each module is reached by name: the package re-exports none of their names (a submodule, once imported, is
    an attribute of the package)."""
    exported = [attr for attr, value in vars(qkdnet).items()
                if not attr.startswith("_") and not inspect.ismodule(value)]
    assert exported == []
    assert isinstance(qkdnet.__version__, str)


def test_script_imports_are_public_in_their_module():
    """Every name a script imports from a qkdnet module is listed in that module's ``__all__``."""
    imported = [
        (node.module, alias.name)
        for path in SCRIPTS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qkdnet.")
        for alias in node.names
    ]
    assert imported
    stray = [f"{module}.{attr}" for module, attr in imported
             if attr not in importlib.import_module(module).__all__]
    assert stray == []
