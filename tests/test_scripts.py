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
    ("run_network_demo.py", ["--slots", "1000000"],
     ["link AB:", "link AC:", "link BC:", "relay key:", "no positive QDS rate"]),
    ("multisig_gain.py", ["--pulses", "5e7"], ["multi-block signatures:", "improvement ratio:"]),
], ids=("run_network_demo", "multisig_gain"))
def test_script_main_runs(name, argv, expect, monkeypatch, capsys):
    (path,) = [p for p in SCRIPTS if p.name == name]
    monkeypatch.setattr("sys.argv", [name, *argv])
    load(path).main()
    out = capsys.readouterr().out
    for text in expect:
        assert text in out


def test_multisig_gain_refuses_a_fractional_budget(monkeypatch, capsys):
    (path,) = [p for p in SCRIPTS if p.name == "multisig_gain.py"]
    monkeypatch.setattr("sys.argv", ["multisig_gain.py", "--pulses", "250000000.5"])
    with pytest.raises(SystemExit) as exit_info:
        load(path).main()
    assert exit_info.value.code == 2
    assert "n_pulses_total: expected an integer >= 1, got 250000000.5" in capsys.readouterr().err


@pytest.mark.parametrize("slots, message", [
    ("-5", "slots: expected an integer >= 0, got -5"),
    ("0", "table has no (intensity, basis) entry (('u', 'u'), 'X')"),
    ("100", "table has no (intensity, basis) entry (('u', 'v'), 'X')"),
], ids=("negative", "zero", "too-few-for-every-entry"))
def test_run_network_demo_refuses_too_few_slots(slots, message, monkeypatch, capsys):
    (path,) = [p for p in SCRIPTS if p.name == "run_network_demo.py"]
    monkeypatch.setattr("sys.argv", ["run_network_demo.py", "--slots", slots])
    with pytest.raises(SystemExit) as exit_info:
        load(path).main()
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: {message}\n") and captured.out == ""
