"""The public surface: every exported name resolves.

Tools that walk ``__all__`` (such as a per-layer tracer) skip names that do
not resolve, so a stale entry left behind by a deletion would go unnoticed
without these checks.
"""

import importlib
import inspect
import pkgutil

import pytest

import qkdnet

MODULES = sorted(info.name for info in pkgutil.iter_modules(qkdnet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qkdnet.{name}")
    assert module.__all__, f"qkdnet.{name} declares no __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_public_in_their_module():
    """Each name the package re-exports is listed in its defining module's __all__."""
    stray = []
    for attr, value in vars(qkdnet).items():
        if attr.startswith("_") or inspect.ismodule(value):
            continue
        module = importlib.import_module(value.__module__)
        if attr not in module.__all__:
            stray.append(f"{value.__module__}.{attr}")
    assert stray == []
