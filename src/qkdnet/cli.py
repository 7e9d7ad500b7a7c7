"""Command-line entry point: simulate, keyrate, sweep, qds.

Every run resolves its configuration fully, writes it into a manifest next
to the outputs, and derives all randomness from the configured seed, so a
manifest plus its inputs reproduces the outputs byte-for-byte.  Analytical
"no positive rate" outcomes are reported as structured results with exit
status 0; only genuine errors exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path

from .channel import LABELS, MDI_MODEL_KEYS, ChannelParams, IntensitySet, mdi_yield_model, qkd_yield_model
from .decoy import CountTable, TableFormatError, estimate_bounds
from .keyrate import SecurityParams, rate_sweep, secure_key_length, sweep_to_csv
from .mathkit import ConfigError
from .netsim import run_plan, schedule
from .qds import InsecureChannelError, QdsParams, distill_report

__all__ = ["load_network", "main"]


def _load_config(path: str, name: str) -> dict:
    """Section ``name`` of config file ``path``, or the whole file when it has none."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    section = doc.get(name, doc) if isinstance(doc, dict) else doc
    if not isinstance(section, dict):
        where = name if section is not doc else "the config root"
        raise ConfigError(f"{path}: {where} must be a JSON object, got {type(section).__name__}")
    return section


def load_preset(name: str) -> dict:
    ref = resources.files("qkdnet") / "presets" / f"{name}.json"
    if not ref.is_file():
        available = sorted(
            p.name.removesuffix(".json")
            for p in (resources.files("qkdnet") / "presets").iterdir()
        )
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(available)}")
    return json.loads(ref.read_text(encoding="utf-8"))


def _build(cls, doc: dict, path: str):
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _manifest(out_dir: Path, command: str, config: dict, extra: dict):
    doc = {"command": command, "config": config, **extra}
    _write(out_dir / "manifest.json", json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _save(out: str | None, command: str, config: dict, name: str, text: str):
    """Write one output and its manifest into directory ``out``, when one is given."""
    if out:
        _write(Path(out) / name, text)
        _manifest(Path(out), command, config, {"outputs": [name]})


# ---------------------------------------------------------------------------


#: the channel keys and the yield-model keys each link of a ``simulate`` config may carry
LINK_KEYS = {"AB": (("side_a", "side_b"), MDI_MODEL_KEYS), "AC": (("channel",), ()), "BC": (("channel",), ())}


def load_network(config: dict) -> tuple[IntensitySet, dict]:
    """The intensity set and per-link yield models of a ``simulate`` config.

    Refuses any link or link key it does not know, naming its key path, so
    a misspelt key cannot silently fall back to its default.
    """
    intensities = _build(IntensitySet, config.get("intensities", {}), "intensities")
    links = config.get("links", {})
    if not isinstance(links, dict):
        raise ConfigError(f"links: expected an object of link settings, got {type(links).__name__}")
    models = {}
    for link, doc in links.items():
        if link not in LINK_KEYS:
            raise ConfigError(f"links.{link}: unknown link; expected one of {', '.join(LINK_KEYS)}")
        if not isinstance(doc, dict):
            raise ConfigError(f"links.{link}: expected an object of link keys, got {type(doc).__name__}")
        channels, shape = LINK_KEYS[link]
        unknown = sorted(set(doc) - {*channels, *shape})
        if unknown:
            raise ConfigError(f"links.{link}.{unknown[0]}: unknown key; "
                              f"expected one of {', '.join(channels + shape)}")
        sides = [_build(ChannelParams, doc.get(k, {}), f"links.{link}.{k}") for k in channels]
        build = mdi_yield_model if link == "AB" else qkd_yield_model
        try:
            models[link] = build(*sides, **{k: doc[k] for k in shape if k in doc})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"links.{link}: {exc}") from None
    return intensities, models


def cmd_simulate(args) -> int:
    config = _load_config(args.config, "simulate")
    if args.seed is not None:
        config["seed"] = args.seed
    out_dir = Path(args.out)

    intensities, models = load_network(config)
    plan = schedule(config.get("slots", 0), intensities=intensities,
                    **{k: config[k] for k in ("weights", "z_prob", "seed") if k in config})
    missing = sorted(plan.active_links() - set(models))
    if missing:
        raise ConfigError(f"links: plan schedules {missing} but no channel was configured")
    result = run_plan(plan, models, seed=plan.seed)

    outputs = []
    for link, table in sorted(result.tables.items()):
        _write(out_dir / f"counts_{link}.json", table.to_json() + "\n")
        _write(out_dir / f"counts_{link}.csv", table.to_csv())
        outputs += [f"counts_{link}.json", f"counts_{link}.csv"]
    pools = {
        link: {"size": int(len(pool)), "errors": int(pool.error_flags.sum())}
        for link, pool in result.z_pools.items()
    }
    extra = {"outputs": outputs, "z_pools": pools, "diagnostics": result.diagnostics}
    _manifest(out_dir, "simulate", config, extra)
    print(f"simulated {plan.slots} slots -> {out_dir}")
    return 0


#: SecurityParams fields that ``keyrate`` takes as flags
SECURITY_FLAGS = ("eps_sec", "eps_cor", "f_ec")


def _read_table(path: str) -> CountTable:
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".csv"):
        return CountTable.from_csv(text)
    return CountTable.from_json(text)


def cmd_keyrate(args) -> int:
    intensities = _build(IntensitySet, {l: getattr(args, l) for l in LABELS}, "keyrate intensities")
    security = _build(SecurityParams, {k: getattr(args, k) for k in SECURITY_FLAGS}, "keyrate security")
    table = _read_table(args.counts)
    mode = "MDI" if table.is_pair else "QKD"
    bounds = estimate_bounds(table, intensities, security.eps_sec / 2.0, mode)
    z_rec = table.z_entry()
    qber_z = z_rec.errors / z_rec.detected if z_rec.detected else 0.0
    result = secure_key_length(bounds, z_rec.detected, qber_z, security, args.elapsed_s)
    record = {
        "link": table.link,
        "mode": mode,
        "s1_lower": bounds.s1_lower,
        "eph_upper": bounds.eph_upper,
        "secure_bits": result.secure_bits,
        "leak_ec_bits": result.leak_ec_bits,
        "delta_bits": result.delta_bits,
        "elapsed_s": result.elapsed_s,
        "rate_bps": result.rate_bps,
    }
    if args.format == "json":
        text = json.dumps(record, sort_keys=True, indent=2) + "\n"
        name = "keyrate.json"
    else:
        lines = [
            ",".join(record),
            f"{table.link},{mode},{bounds.s1_lower},{bounds.eph_upper:.6g},"
            f"{result.secure_bits},{result.leak_ec_bits},{result.delta_bits},"
            f"{result.elapsed_s:.6g},{result.rate_bps:.6g}",
        ]
        text = "\n".join(lines) + "\n"
        name = "keyrate.csv"
    _save(args.out, "keyrate", {"counts": args.counts, "mode": mode}, name, text)
    sys.stdout.write(text)
    return 0


def cmd_sweep(args) -> int:
    if args.preset:
        config = load_preset(args.preset)["sweep"]
    else:
        config = _load_config(args.config, "sweep")
    if args.seed is not None:
        config["seed"] = args.seed

    channel = _build(ChannelParams, config.get("channel", {}), "sweep.channel")
    intensities = _build(IntensitySet, config.get("intensities", {}), "sweep.intensities")
    security = _build(SecurityParams, config.get("security", {}), "sweep.security")
    mode = config.get("mode", "QKD")
    points = rate_sweep(channel, intensities, config.get("distances", []), mode, security,
                        **{k: config[k] for k in ("duty", "seed", "n_pulses", "mdi_model") if k in config})
    if args.format == "json":
        rows = [dataclasses.asdict(p) for p in points]
        text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
        name = f"sweep_{mode.lower()}.json"
    else:
        text = sweep_to_csv(points)
        name = f"sweep_{mode.lower()}.csv"
    _save(args.out, "sweep", config, name, text)
    sys.stdout.write(text)
    return 0


def cmd_qds(args) -> int:
    reference = {}
    if args.preset:
        preset = load_preset(args.preset)
        config = preset["qds"]
        reference = preset.get("reference", {})
    else:
        config = _load_config(args.config, "qds")

    fields = ("c_sig", "c_test", "eps_h", "p_rep_budget", "p_fail_total")
    params = _build(QdsParams, {k: config[k] for k in fields if k in config}, "qds")
    required = ("s1_sig_lower", "eph_sig_upper", "e_test", "pool_size", "total_time_s", "duty_fraction")
    missing = [k for k in required if k not in config]
    if missing:
        raise ConfigError(f"qds: missing field {missing[0]!r}")
    inputs = {k: config[k] for k in (*required, "epsilon_inherited") if k in config}
    try:
        report = distill_report(params=params, **inputs)
    except InsecureChannelError as exc:
        outcome = json.dumps({"outcome": "no positive QDS rate", "detail": str(exc)}, sort_keys=True)
        print(outcome)
        _save(args.out, "qds", config, "qds_report.json", outcome + "\n")
        return 0

    rows = ("p_e", "e_sig_upper", "s_auth", "s_ver", "l_sig", "p_rep", "p_hab", "p_for",
            "n_signatures", "avg_time_per_signature_s")
    header = f"{'quantity':<26}{'computed':>14}"
    if reference:
        header += f"{'reference':>14}"
    print(header)
    for name in rows:
        line = f"{name:<26}{getattr(report, name):>14.6g}"
        if reference:
            ref = reference.get(name)
            line += f"{ref:>14.6g}" if ref is not None else f"{'-':>14}"
        print(line)
    print(f"secure: {report.secure}")

    _save(args.out, "qds", config, "qds_report.json", report.to_json() + "\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdnet",
        description="Three-node MDI/QKD network simulation and signature analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a session plan and write count tables")
    p_sim.add_argument("--config", required=True, help="simulation config JSON")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_key = sub.add_parser("keyrate", help="decoy bounds and key length from a counts file")
    p_key.add_argument("--counts", required=True, help="count table (.json or .csv)")
    for label in LABELS:
        p_key.add_argument(f"--{label}", type=float, default=getattr(IntensitySet, label))
    for name in SECURITY_FLAGS:
        flag = "--" + name.replace("_", "-")
        p_key.add_argument(flag, type=float, default=getattr(SecurityParams, name))
    p_key.add_argument("--elapsed-s", type=float, default=0.0)
    p_key.add_argument("--format", choices=("csv", "json"), default="csv")
    p_key.add_argument("--out", default=None, help="output directory (also prints to stdout)")
    p_key.set_defaults(func=cmd_keyrate)

    p_sweep = sub.add_parser("sweep", help="key rate versus distance (plot-ready CSV)")
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="named preset, e.g. hw-mdi-sweep")
    group.add_argument("--config", help="sweep config JSON")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_qds = sub.add_parser("qds", help="signature-security report")
    group = p_qds.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="named preset, e.g. paper-mdi")
    group.add_argument("--config", help="qds input JSON")
    p_qds.add_argument("--out", default=None)
    p_qds.set_defaults(func=cmd_qds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TableFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
