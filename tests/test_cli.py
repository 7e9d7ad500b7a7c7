import dataclasses
import functools
import hashlib
import inspect
import json
import math
import typing
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from qkdnet import channel, keyrate, mathkit
from qkdnet.channel import ChannelParams, IntensitySet, mdi_yield_model, qkd_yield_model
from qkdnet.cli import load_preset, main
from qkdnet.decoy import InconsistentCountsError
from qkdnet.keyrate import SecurityParams, synthesize_table
from qkdnet.mathkit import ConfigError
from qkdnet.qds import QdsParams

SIM_CONFIG = {
    "slots": 50_000,
    "weights": [500, 1, 1],
    "z_prob": 0.8,
    "seed": 42,
    "intensities": {"s": 0.5, "u": 0.1, "v": 0.02, "w": 0.0},
    "links": {
        "AB": {"side_a": {"distance_km": 2}, "side_b": {"distance_km": 2}},
        "AC": {"channel": {"distance_km": 2}},
        "BC": {"channel": {"distance_km": 2}},
    },
}

PRESETS = Path(str(resources.files("qkdnet") / "presets"))


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """The output directory of ``simulate`` on the desk preset."""
    out = tmp_path_factory.mktemp("desk")
    assert main(["simulate", "--config", str(PRESETS / "desk.json"), "--out", str(out)]) == 0
    return out


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_writes_tables_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        for link in ("AB", "AC", "BC"):
            assert (out / f"counts_{link}.json").exists()
            assert (out / f"counts_{link}.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["seed"] == 42
        assert set(manifest["z_pools"]) == {"AB", "AC", "BC"}

    def test_zero_slots_gives_valid_manifest(self, tmp_path):
        cfg = dict(SIM_CONFIG, slots=0)
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["z_pools"]["AB"]["size"] == 0
        table = json.loads((out / "counts_AB.json").read_text())
        assert table["entries"] == []

    def test_fixed_seed_reproduces_outputs_byte_identically(self, tmp_path):
        cfg = write_config(tmp_path, SIM_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("counts_AB.json", "counts_AC.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_link_config_fails_with_diagnostic(self, tmp_path, capsys):
        cfg = dict(SIM_CONFIG, links={"AB": SIM_CONFIG["links"]["AB"]})
        rc = main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        # the plan schedules AC and BC: run_plan refuses the first link without a model
        assert capsys.readouterr().err.startswith("error: simulate.links.AC: ")

    def test_invalid_channel_value_names_key_path(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SIM_CONFIG))
        cfg["links"]["AC"]["channel"]["distance_km"] = -5
        rc = main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "links.AC.channel" in capsys.readouterr().err

    def test_z_prob_disagreeing_with_intensities_is_config_error(self, tmp_path, capsys):
        cfg = dict(SIM_CONFIG, z_prob=0.7)
        rc = main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "z_prob" in capsys.readouterr().err

    def test_class_beyond_tail_limit_is_config_error(self, tmp_path, capsys):
        cfg = dict(SIM_CONFIG, intensities=dict(SIM_CONFIG["intensities"], s=8.0))
        out = tmp_path / "o"
        rc = main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 2
        assert "intensities" in capsys.readouterr().err
        assert not list(tmp_path.glob("o/counts_*"))

    def test_z_prob_comes_from_intensities(self, tmp_path):
        biased = dict(SIM_CONFIG["intensities"], z_basis_prob=0.65)
        implicit = {k: v for k, v in SIM_CONFIG.items() if k != "z_prob"}
        implicit["intensities"] = biased
        explicit = dict(implicit, z_prob=0.65)
        out1, out2 = tmp_path / "implicit", tmp_path / "explicit"
        assert main(["simulate", "--config", write_config(tmp_path, implicit, "a.json"),
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--config", write_config(tmp_path, explicit, "b.json"),
                     "--out", str(out2)]) == 0
        for name in ("counts_AB.json", "counts_AC.json", "counts_BC.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize(
        "link, key, path",
        [
            ("CA", None, "simulate.links.CA"),
            ("AB", "bell_sucess", "simulate.links.AB.bell_sucess"),
            ("AC", "chanel", "simulate.links.AC.chanel"),
        ],
        ids=("unknown-link", "unknown-relay-key", "unknown-point-to-point-key"),
    )
    def test_unknown_link_or_key_is_config_error(self, tmp_path, capsys, link, key, path):
        # a misspelt key used to run on the default it meant to override
        cfg = json.loads(json.dumps(SIM_CONFIG))
        if key is None:
            cfg["links"][link] = {"channel": {"distance_km": 2}}
        else:
            cfg["links"][link][key] = 1.0
        out = tmp_path / "o"
        rc = main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: unknown")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, message",
        [("slot", "simulate.slot: unknown key"), (None, "simulate.slots: missing field")],
        ids=("misspelt-slots", "no-slots"),
    )
    def test_unknown_or_missing_key_is_config_error(self, tmp_path, capsys, key, message):
        # "slot" used to be dropped without a word, and a plan of 0 slots simulated
        cfg = {k: v for k, v in SIM_CONFIG.items() if k != "slots"}
        if key:
            cfg[key] = SIM_CONFIG["slots"]
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, path",
        [
            ({"links": {"AC": 5}}, "simulate.links.AC"),
            ({"links": []}, "simulate.links"),
            ({"weights": 5}, "simulate.weights"),
            ({"slots": "many"}, "simulate.slots"),
            ({"seed": 1.5}, "simulate.seed"),
            ({"links": {**SIM_CONFIG["links"], "AB": {**SIM_CONFIG["links"]["AB"], "bell_success": "0.5"}}},
             "simulate.links.AB.bell_success"),
            ({"seed": -1}, "simulate.seed"),
            ({"weights": [1e308, 1e308, 1]}, "simulate.weights"),
            ({"z_prob": 2}, "simulate.z_prob"),
        ],
        ids=("link-not-an-object", "links-not-an-object", "weights-not-a-list", "slots-not-a-number",
             "seed-not-an-integer", "bell_success-not-a-number", "seed-negative", "weights-sum-overflows", "z_prob-out-of-range"),
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, change, path):
        out = tmp_path / "o"
        rc = main(["simulate", "--config", write_config(tmp_path, dict(SIM_CONFIG, **change)), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "qds"])
    @pytest.mark.parametrize("doc, where", [([1, 2], "the config root"), ({"simulate": 5, "sweep": [], "qds": 0}, None)],
                             ids=("root-is-a-list", "section-not-an-object"))
    def test_config_that_is_not_an_object_is_config_error(self, tmp_path, capsys, command, doc, where):
        # every command reads its config through one loader
        cfg = write_config(tmp_path, doc)
        out = ["--out", str(tmp_path / "o")] if command == "simulate" else []
        assert main([command, "--config", cfg, *out]) == 2
        assert f"{cfg}: {where or command} must be a JSON object" in capsys.readouterr().err

    @staticmethod
    def desk_config(key=None, value=None):
        """The desk preset at 1,000 slots, its ``simulate`` value at dotted ``key`` set to ``value`` when given."""
        doc = load_preset("desk")
        doc["simulate"]["slots"] = 1000
        if key:
            *parents, leaf = key.split(".")
            functools.reduce(dict.__getitem__, parents, doc["simulate"])[leaf] = value
        return doc

    @pytest.mark.parametrize(
        "key, value, refused",
        [
            ("links.AB.bell_success", True, "links.AB.bell_success"),
            ("links.AB.bell_success", "0.5", "links.AB.bell_success"),
            ("links.AC.channel.detector_efficiency", 2, "links.AC.channel.detector_efficiency"),
            ("links.AC.channel.misalignment", "x", "links.AC.channel.misalignment"),
            ("intensities.x_weights", 5, "intensities.x_weights"),
            ("intensities.x_weights", [1, 2], "intensities.x_weights"),
            ("intensities.s", "0.8", "intensities.s"),
            ("intensities.s", 8.0, "intensities.s"),
            ("intensities.w", False, "intensities.w"),
            ("intensities.u", 0.9, "intensities.s"),  # above the signal class: s fails its bound
        ],
        ids=("bell_success-bool", "bell_success-string", "detector_efficiency-above-one", "misalignment-string",
             "x_weights-not-a-list", "x_weights-two-entries", "s-string", "s-beyond-tail", "w-bool", "u-above-s"),
    )
    def test_builder_refusal_names_the_key(self, tmp_path, capsys, key, value, refused):
        # every builder refuses its own key with a ConfigError; cli only adds the section path
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, self.desk_config(key, value)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: simulate.{refused}: ")
        assert not out.exists()

    def test_fault_inside_a_builder_is_a_pipeline_error(self, tmp_path, capsys, monkeypatch):
        # a yield model that is not a probability is the program's fault, not malformed input
        monkeypatch.setattr(channel, "_eta_n", lambda eta, n: np.full(np.shape(n), 2.0))
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, self.desk_config()),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: yields entries must be probabilities\n"
        assert not out.exists()

    def test_desk_preset_reproduces_the_hand_built_network(self, desk_run):
        # digests of the tables the desk network gave when each caller built it by hand,
        # and of the manifest, which carries the pool sizes and the diagnostics
        digests = {
            "counts_AB.json": "ca828ffdfb14877f51fc53c24a80f76ba31fc24f4fb50b4dbd79847328de9ec6",
            "counts_AC.json": "81dbca5daaa843330e742ae9bac6e69dbf2820de784a7d0968fd4fa81c44e807",
            "counts_BC.json": "b5d3d7db54eb720ba031d31d09e0593b68915220e686224eba8558e066677111",
            "manifest.json": "5deddf044a744f17f63e3f9d6fd6aef5602f68c1f70afe787d8b226375042e27",
        }
        for name, digest in digests.items():
            assert hashlib.sha256((desk_run / name).read_bytes()).hexdigest() == digest, name


#: sha256 of each preset command's stdout: CSV and a table, both at 6 significant digits
PRESET_STDOUT_DIGESTS = {
    ("sweep", "hw-qkd-sweep"): "d1f8cc322d85c9dbd41f0c696a65d1f02af63d4a6b2960285cb4463eca363b64",
    ("sweep", "hw-mdi-sweep"): "b8f549ece083634d35ccd106077e2226baf353f77bb2fe01c836877de10984b0",
    ("qds", "paper-mdi"): "80f978ca2c9711eb327935a1c88fdc8726201ace1f4421d7aa15eb68c134636c",
    ("qds", "paper-qkd"): "3c962975db1bd903ecee4b782390063af689c14c63433bb5dbe33441e249fa80",
}


@pytest.mark.parametrize("command, preset", list(PRESET_STDOUT_DIGESTS), ids=lambda x: x)
def test_preset_stdout_is_pinned(command, preset, capsys):
    assert main([command, "--preset", preset]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == PRESET_STDOUT_DIGESTS[command, preset]


@pytest.mark.parametrize("path", sorted(PRESETS.glob("*.json")), ids=lambda p: p.stem)
def test_preset_is_labelled_and_has_one_section(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["label"] == path.stem
    assert len({"simulate", "sweep", "qds"} & set(doc)) == 1


class TestKeyrate:
    def make_counts(self, tmp_path):
        """``keyrate`` arguments naming an AC table and the config that simulated it."""
        cfg = write_config(tmp_path, dict(SIM_CONFIG, slots=2_000_000, weights=[0, 1, 0]), "sim.json")
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--out", str(out)])
        return ["--counts", str(out / "counts_AC.json"), "--config", cfg]

    def test_reports_key_length_csv(self, tmp_path, capsys):
        counts = self.make_counts(tmp_path)
        capsys.readouterr()  # drop the simulate helper's output
        rc = main(["keyrate", *counts, "--eps-sec", "1e-4",
                   "--eps-cor", "1e-6", "--elapsed-s", "0.002"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("link,mode,s1_lower")
        fields = out[1].split(",")
        assert fields[0] == "AC" and fields[1] == "QKD"

    def test_json_format(self, tmp_path, capsys):
        counts = self.make_counts(tmp_path)
        capsys.readouterr()
        rc = main(["keyrate", *counts, "--format", "json",
                   "--eps-sec", "1e-4", "--eps-cor", "1e-6"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["link"] == "AC"
        assert doc["mode"] == "QKD"
        assert "secure_bits" in doc

    def test_malformed_counts_named_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "link,intensity,basis,sent,detected,errors\nAC,s,Z,100,10,0\nAC,u,X,50,oops,0\n"
        )
        rc = main(["keyrate", "--counts", str(bad), "--config", write_config(tmp_path, SIM_CONFIG)])
        assert rc == 2
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("AC,s,Z,100,10,0\nAC,u,X,50,5,0\nAC,u,X,50,7,1\n", "row 4: duplicate"),
            ("AC,s,Z,100,10,0\nAC,u:v,X,50,5,0\n", "row 3: link AC has no (intensity, basis) entry (('u', 'v'), 'X')"),
        ],
    )
    def test_duplicate_or_wrong_arity_row_is_format_error(self, tmp_path, capsys, rows, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("link,intensity,basis,sent,detected,errors\n" + rows)
        rc = main(["keyrate", "--counts", str(bad), "--config", write_config(tmp_path, SIM_CONFIG)])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--f-ec", "0.5", "f_ec"),
            ("--elapsed-s", "nan", "error: elapsed_s: got nan"),
            ("--elapsed-s", "-5", "error: elapsed_s: got -5.0"),
            ("--eps-sec", "nan", "error: eps_sec: got nan"),
            ("--f-ec", "nan", "error: f_ec: got nan"),
            ("--eps-cor", "inf", "error: eps_cor: got inf"),
        ],
    )
    def test_invalid_parameter_is_config_error(self, tmp_path, capsys, flag, value, message):
        counts = self.make_counts(tmp_path)
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main(["keyrate", *counts, flag, value, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "s, message",
        [
            (8.0, "Poisson tail"),  # a signal class beyond the photon-number cutoff
            (0.05, "s must be in (0.1, inf)"),  # below u, against s > u > v > w
        ],
        ids=("8.0-Poisson tail", "0.05-s > u > v > w"),
    )
    def test_invalid_config_intensity_is_config_error(self, tmp_path, capsys, s, message):
        # refused before the counts are read: the counts file does not exist
        cfg = dict(SIM_CONFIG, intensities=dict(SIM_CONFIG["intensities"], s=s))
        out = tmp_path / "out"
        rc = main(["keyrate", "--counts", str(tmp_path / "absent.json"), "--config", write_config(tmp_path, cfg),
                   "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: simulate.intensities.s: ") and message in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("link, mode", [("AB", "MDI"), ("AC", "QKD")])
    def test_mode_follows_the_link(self, tmp_path, capsys, link, mode):
        # the link fixes the mode (AB is MDI, AC and BC are QKD); there is no flag to contradict it
        side = ChannelParams(distance_km=2)
        model = mdi_yield_model(side, side) if link == "AB" else qkd_yield_model(side)
        table = synthesize_table(model, IntensitySet(), 10**12, mode, link, 1)
        counts = tmp_path / f"counts_{link}.json"
        counts.write_text(table.to_json(), encoding="utf-8")
        args = ["keyrate", "--counts", str(counts), "--config", write_config(tmp_path, SIM_CONFIG)]
        with pytest.raises(SystemExit) as exited:
            main([*args, "--mode", "QKD"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --mode QKD" in capsys.readouterr().err
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[:2] == [link, mode]
        assert main([*args, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == mode

    def test_intensities_come_from_the_config_not_flags(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["keyrate", "--counts", "counts_AC.json", "--config", "sim.json", "--s", "0.5"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --s 0.5" in capsys.readouterr().err

    def test_readme_flow_reads_the_intensities_that_made_the_counts(self, desk_run, capsys):
        # the line the desk intensities gave as flags (--s 0.8 --u 0.5 --v 0.15 --w 0); the
        # default intensities found these counts inconsistent with any photon-number model
        capsys.readouterr()
        rc = main(["keyrate", "--config", str(PRESETS / "desk.json"), "--counts", str(desk_run / "counts_AB.json")])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1] == "AB,MDI,358422,0.13658,100286,51690,277,0,0"

    @pytest.mark.parametrize("name, entry", [("counts_AC.json", "(('w',), 'X')"), ("counts_AB.csv", "(('u', 'v'), 'X')")])
    def test_table_without_one_of_its_link_entries_is_format_error(self, desk_run, tmp_path, capsys, monkeypatch,
                                                                   name, entry):
        # the desk counts with the last JSON entry, or the AB,u:v,X CSV row, deleted
        text = (desk_run / name).read_text()
        if name.endswith(".json"):
            doc = json.loads(text)
            del doc["entries"][-1]
            text = json.dumps(doc)
        else:
            text = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("AB,u:v,X,"))
        (tmp_path / name).write_text(text)

        def refuse(*args, **kwargs):
            raise AssertionError("an LP was solved for an incomplete table")

        monkeypatch.setattr(mathkit, "linprog", refuse)
        capsys.readouterr()
        assert main(["keyrate", "--config", str(PRESETS / "desk.json"), "--counts", str(tmp_path / name)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: table has no (intensity, basis) entry {entry}\n" and captured.out == ""

    @pytest.mark.parametrize("cut", [True, False], ids=["field-missing", "field-extra"])
    def test_row_of_another_width_is_format_error(self, desk_run, tmp_path, capsys, monkeypatch, cut):
        # the desk AC counts with the AC,u,X row cut to its link field, or with a seventh field appended: the
        # first raised AttributeError out of main (exit 1, a traceback), the second was read and keyed (exit 0)
        lines = (desk_run / "counts_AC.csv").read_text().splitlines(keepends=True)
        assert lines[2].startswith("AC,u,X,")
        lines[2] = "AC\n" if cut else lines[2].rstrip("\n") + ",999\n"
        counts = tmp_path / "counts_AC.csv"
        counts.write_text("".join(lines))
        monkeypatch.setattr(mathkit, "linprog", lambda *args, **kwargs: pytest.fail("an LP was solved"))
        capsys.readouterr()
        assert main(["keyrate", "--config", str(PRESETS / "desk.json"), "--counts", str(counts)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: bad count-table CSV at row 3: row width differs from the header's 6 fields\n"
        assert captured.out == ""

    def test_missing_counts_file_is_config_error(self, tmp_path, capsys):
        # as a missing --config is; it exited 1, as a pipeline error
        missing = tmp_path / "no" / "such.csv"
        capsys.readouterr()
        assert main(["keyrate", "--config", str(PRESETS / "desk.json"), "--counts", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: counts file not found: {missing}\n" and captured.out == ""

    def test_malformed_elapsed_s_is_refused_before_the_bounds(self, desk_run, tmp_path, capsys):
        args = ["keyrate", "--config", write_config(tmp_path, SIM_CONFIG), "--counts", str(desk_run / "counts_AB.json")]
        capsys.readouterr()
        # the desk's relay counts fit no photon-number model under SIM_CONFIG's intensities
        assert main(args) == 1
        assert "counts inconsistent" in capsys.readouterr().err
        assert main([*args, "--elapsed-s", "nan"]) == 2
        assert capsys.readouterr().err.startswith("error: elapsed_s: got nan")


class TestSweep:
    def test_config_sweep_csv(self, tmp_path, capsys):
        cfg = {
            "sweep": {
                "mode": "QKD",
                "distances": [0, 10],
                "channel": {"distance_km": 0},
                "intensities": {"s": 0.5, "u": 0.1, "v": 0.02, "w": 0.0},
                "security": {"eps_sec": 1e-10, "eps_cor": 1e-15},
                "n_pulses": 10**10,
                "seed": 5,
            }
        }
        out = tmp_path / "out"
        rc = main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        text = (out / "sweep_qkd.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "distance_km,mode,secure_bits,elapsed_s,rate_bps,note"
        assert len(lines) == 3
        rates = [float(l.split(",")[4]) for l in lines[1:]]
        assert rates[0] >= rates[1]

    def test_inconsistent_counts_note_in_csv_and_json(self, tmp_path, capsys, monkeypatch):
        def inconsistent(*args, **kwargs):
            raise InconsistentCountsError("counts inconsistent with any photon-number model")

        monkeypatch.setattr(keyrate, "estimate_bounds", inconsistent)
        cfg = write_config(tmp_path, {"mode": "QKD", "distances": [5], "channel": {"distance_km": 0}})
        assert main(["sweep", "--config", cfg]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert row.split(",")[2] == "0"
        assert row.endswith(",counts inconsistent with any photon-number model")
        assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
        (point,) = json.loads(capsys.readouterr().out)
        assert point["secure_bits"] == 0
        assert point["note"] == "counts inconsistent with any photon-number model"

    def test_pipeline_error_exits_nonzero(self, tmp_path, capsys):
        cfg = {"mode": "MDI", "distances": [5], "channel": {"distance_km": 0}, "n_pulses": 10}
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1
        assert "zero sent pulses" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, path",
        [
            ({"distances": 5}, "sweep.distances"),
            ({"distances": [5, "ten"]}, "sweep.distances"),
            ({"distances": []}, "sweep.distances"),
            ({"n_pulses": "many"}, "sweep.n_pulses"),
            ({"n_pulses": 1.5e9 + 0.5}, "sweep.n_pulses"),
            ({"seed": "x"}, "sweep.seed"),
            ({"mode": "mdi"}, "sweep.mode"),
            ({"duty": 0}, "sweep.duty"),
            ({"mdi_model": [0.9]}, "sweep.mdi_model"),
            ({"mdi_model": {"visibility": 0.9}}, "sweep.mdi_model"),
            ({"seed": -2}, "sweep.seed"),
            ({"n_pulses": -1}, "sweep.n_pulses"),
            ({"mode": "MDI", "mdi_model": {"bell_success": 2}}, "sweep.mdi_model.bell_success"),
            ({"distances": [math.nan]}, "sweep.distances"),
            ({"channel": {"distance_km": 0, "attenuation_db_per_km": math.nan}},
             "sweep.channel.attenuation_db_per_km"),
            ({"intensities": {"x_weights": [math.nan, 1, 1]}}, "sweep.intensities.x_weights"),
        ],
        ids=("distances-not-a-list", "distance-not-a-number", "distances-empty", "n_pulses-not-a-number",
             "n_pulses-not-an-integer", "seed-not-a-number", "mode-unknown", "duty-out-of-range",
             "mdi_model-not-an-object", "mdi_model-unknown-key", "seed-negative", "n_pulses-negative",
             "mdi_model-value-out-of-range", "distance-nan", "attenuation-nan", "x_weights-nan"),
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, change, path):
        cfg = {"mode": "QKD", "distances": [5], "channel": {"distance_km": 0}, **change}
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize(
        "key, message",
        [("n_pulse", "sweep.n_pulse: unknown key"), ("mode", "sweep.mode: missing field")],
        ids=("misspelt-n_pulses", "no-mode"),
    )
    def test_unknown_or_missing_key_is_config_error(self, tmp_path, capsys, key, message):
        # "n_pulse" used to run on the default pulse budget, and no mode on QKD
        cfg = {"mode": "QKD", "distances": [5], "channel": {"distance_km": 0}}
        if key in cfg:
            del cfg[key]
        else:
            cfg[key] = 10**9
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_integral_float_counts_as_an_integer(self, tmp_path, capsys):
        cfg = {"mode": "QKD", "distances": [5], "channel": {"distance_km": 0}, "seed": 5}
        assert main(["sweep", "--config", write_config(tmp_path, dict(cfg, n_pulses=10**9))]) == 0
        as_int = capsys.readouterr().out
        assert main(["sweep", "--config", write_config(tmp_path, dict(cfg, n_pulses=1e9, seed=5.0))]) == 0
        assert capsys.readouterr().out == as_int

    def test_unknown_preset_fails(self, capsys):
        assert main(["sweep", "--preset", "nope"]) == 2
        assert "unknown preset" in capsys.readouterr().err


class TestQds:
    def test_reference_relay_preset(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["qds", "--preset", "paper-mdi", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "reference" in stdout
        report = json.loads((out / "qds_report.json").read_text())
        assert report["p_e"] == pytest.approx(0.0286, abs=5e-4)
        assert report["e_sig_upper"] == pytest.approx(0.0085, abs=1e-4)
        assert report["s_auth"] == pytest.approx(0.0152, abs=1e-4)
        assert report["s_ver"] == pytest.approx(0.0219, abs=1e-4)
        assert report["n_signatures"] == 1974
        assert report["avg_time_per_signature_s"] == pytest.approx(45.0, rel=0.02)
        assert report["secure"] is True

    def test_reference_point_to_point_preset(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["qds", "--preset", "paper-qkd", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "qds_report.json").read_text())
        assert report["p_e"] == pytest.approx(0.105, abs=1e-3)
        assert report["e_sig_upper"] == pytest.approx(0.0108, abs=1e-4)
        assert report["n_signatures"] == 2506
        assert report["avg_time_per_signature_s"] == pytest.approx(0.072, rel=0.02)

    def test_insecure_input_is_structured_outcome_not_error(self, tmp_path, capsys):
        cfg = {
            "qds": {
                "s1_sig_lower": 10,
                "eph_sig_upper": 0.49,
                "e_test": 0.3,
                "c_sig": 10_000,
                "c_test": 10_000,
                "pool_size": 100_000,
                "total_time_s": 10.0,
                "duty_fraction": 0.5,
            }
        }
        rc = main(["qds", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "no positive QDS rate"

    def test_subnormal_repudiation_budget_is_not_a_crash(self, tmp_path, capsys):
        cfg = {"qds": {**load_preset("paper-mdi")["qds"], "p_rep_budget": 5e-324}}
        rc = main(["qds", "--config", write_config(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert rc == 0 or (rc == 2 and "error:" in err)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "change, path",
        [
            ({"s1_sig_lower": 666345.9}, "qds.s1_sig_lower"),
            ({"pool_size": 4936714426.5}, "qds.pool_size"),
            ({"total_time_s": "nan"}, "qds.total_time_s"),
            ({"total_time_s": float("inf")}, "qds.total_time_s"),
            ({"epsilon_inherited": "nan"}, "qds.epsilon_inherited"),
            ({"s1_sig_lower": "x"}, "qds.s1_sig_lower"),
            ({"duty_fraction": 0}, "qds.duty_fraction"),
            ({"e_test": "inf"}, "qds.e_test"),
            ({"c_sig": 2500000.5}, "qds.c_sig"),
            ({"s1_sig_lower": 3_000_000}, "qds.s1_sig_lower"),
            ({"pool_size": 10}, "qds.pool_size"),
            ({"c_sig": 10**12}, "qds.pool_size"),
        ],
        ids=("s1-not-an-integer", "pool-not-an-integer", "time-is-a-string", "time-infinite",
             "epsilon-is-a-string", "s1-is-a-string", "duty-zero", "e_test-is-a-string", "c_sig-not-an-integer",
             "s1-above-c_sig", "pool-below-one-block", "c_sig-above-pool"),
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, change, path):
        cfg = {"qds": {**load_preset("paper-mdi")["qds"], **change}}
        out = tmp_path / "o"
        assert main(["qds", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ") and captured.out == ""
        assert not out.exists()

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        # a misspelt budget used to be dropped, and the report ran on the default eps_h
        cfg = {"qds": {**load_preset("paper-mdi")["qds"], "eps_hh": 1e-12}}
        assert main(["qds", "--config", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: qds.eps_hh: unknown key") and captured.out == ""

    def test_missing_field_is_config_error(self, tmp_path, capsys):
        cfg = {"qds": {"c_sig": 100, "c_test": 100}}
        rc = main(["qds", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert "missing field" in capsys.readouterr().err


#: a valid value of each required argument of the builders cli feeds
BUILDER_REQUIRED = {
    ChannelParams: {"distance_km": 0.0},
    QdsParams: {"c_sig": 10, "c_test": 10},
    mdi_yield_model: {"side_a": ChannelParams(0.0), "side_b": ChannelParams(0.0)},
}


def builder_keys():
    """Every config key the builders cli feeds check themselves; one typed as a dataclass is a nested section."""
    for call in (ChannelParams, IntensitySet, QdsParams, SecurityParams, mdi_yield_model):
        hints = typing.get_type_hints(call)
        names = ([f.name for f in dataclasses.fields(call)] if dataclasses.is_dataclass(call)
                 else inspect.signature(call).parameters)
        for name in names:
            if not dataclasses.is_dataclass(hints.get(name)):
                yield pytest.param(call, name, id=f"{call.__name__}.{name}")


@pytest.mark.parametrize("value", ["0.5", True], ids=("string", "bool"))
@pytest.mark.parametrize("call, name", builder_keys())
def test_builder_refuses_a_malformed_value_with_its_name(call, name, value):
    with pytest.raises(ConfigError) as refused:
        call(**{**BUILDER_REQUIRED.get(call, {}), name: value})
    assert str(refused.value).startswith(f"{name}: ")
