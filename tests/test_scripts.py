"""Every script under scripts/ imports cleanly, and the two end-to-end
scripts run at small sizes.

Importing a script runs its module-level imports without calling ``main``,
so a package name that a script still uses cannot disappear unnoticed.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_imports(path):
    assert callable(load(path).main)


@pytest.mark.parametrize("name, argv, expect", [
    ("run_network_demo.py", ["--slots", "1000000"], ["link AB:", "link AC:", "link BC:", "relay key:"]),
    ("multisig_gain.py", ["--pulses", "5e7"], ["multi-block signatures:", "improvement ratio:"]),
], ids=("run_network_demo", "multisig_gain"))
def test_script_main_runs(name, argv, expect, monkeypatch, capsys):
    (path,) = [p for p in SCRIPTS if p.name == name]
    monkeypatch.setattr("sys.argv", [name, *argv])
    load(path).main()
    out = capsys.readouterr().out
    for text in expect:
        assert text in out
