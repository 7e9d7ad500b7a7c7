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
import functools
import inspect
import json
import sys
import typing
from importlib import resources
from pathlib import Path

from .channel import IntensitySet, mdi_yield_model, qkd_yield_model
from .decoy import CountTable, TableFormatError, estimate_bounds
from .keyrate import SecurityParams, rate_sweep, secure_key_length, sweep_to_csv
from .mathkit import ConfigError, check_real
from .netsim import run_plan, schedule
from .qds import InsecureChannelError, QdsParams, distill_report

__all__ = ["load_network", "load_preset", "main"]


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
    presets = resources.files("qkdnet") / "presets"
    ref = presets / f"{name}.json"
    if not ref.is_file():
        available = sorted(p.name.removesuffix(".json") for p in presets.iterdir())
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(available)}")
    return json.loads(ref.read_text(encoding="utf-8"))


@functools.cache
def _schema(call) -> tuple:
    """``call``'s parameters, and the class of each typed as a parameter dataclass (or None)."""
    params = inspect.signature(call).parameters
    hints = typing.get_type_hints(call)
    return params, {k: cls for k in params for cls in (hints.get(k), *typing.get_args(hints.get(k)))
                    if dataclasses.is_dataclass(cls)}


def _arguments(call, doc, path: str, own=(), **given) -> dict:
    """``call``'s keyword arguments from config section ``doc``, plus ``given``.

    ``call``'s signature is the schema: a key outside it and ``own`` (keys
    another call reads), or a required key missing, is a ConfigError naming
    its key path.  A parameter typed as a parameter dataclass is a nested
    section, built by :func:`_build`; left out, it takes the defaults.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {type(doc).__name__}")
    schema, typed = _schema(call)
    params = {k: p for k, p in schema.items() if k not in given}
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in params and key not in own:
            expected = ", ".join([*params, *own])
            raise ConfigError(f"{prefix}{key}: unknown key; expected one of {expected}")
    sections = {k: cls for k, cls in typed.items() if k in params}
    for key, param in params.items():
        if param.default is param.empty and key not in doc and key not in sections:
            raise ConfigError(f"{prefix}{key}: missing field")
    args = {k: v for k, v in doc.items() if k in params}
    return {**args, **{k: _build(cls, doc.get(k, {}), prefix + k) for k, cls in sections.items()}, **given}


def _build(call, doc, path: str, own=()):
    """``call`` on section ``doc``: a parameter dataclass or yield-model builder."""
    return _call(path, call, _arguments(call, doc, path, own))


def _call(path: str, call, kwargs: dict):
    """``call(**kwargs)``, a ConfigError re-raised with key path ``path`` before the argument name it starts with."""
    try:
        return call(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}") from None


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


#: the yield-model builder of each link
LINK_MODELS = {"AB": mdi_yield_model, "AC": qkd_yield_model, "BC": qkd_yield_model}


def load_network(config: dict) -> tuple[IntensitySet, dict]:
    """Intensities and per-link yield models of a ``simulate`` config: ``schedule``'s arguments and ``links``."""
    intensities = _arguments(schedule, config, "simulate", ("links",))["intensities"]
    links = config.get("links", {})
    if not isinstance(links, dict):
        raise ConfigError(f"simulate.links: expected an object of link settings, got {type(links).__name__}")
    models = {}
    for link, doc in links.items():
        if link not in LINK_MODELS:
            raise ConfigError(f"simulate.links.{link}: unknown link; expected one of {', '.join(LINK_MODELS)}")
        models[link] = _build(LINK_MODELS[link], doc, f"simulate.links.{link}")
    return intensities, models


def cmd_simulate(args) -> int:
    config = _load_config(args.config, "simulate")
    if args.seed is not None:
        config["seed"] = args.seed
    out_dir = Path(args.out)

    _, models = load_network(config)
    plan = _call("simulate", schedule, _arguments(schedule, config, "simulate", ("links",)))
    missing = sorted(plan.active_links() - set(models))
    if missing:
        raise ConfigError(f"simulate.links: plan schedules {missing} but no channel was configured")
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


def _read_table(path: str) -> CountTable:
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".csv"):
        return CountTable.from_csv(text)
    return CountTable.from_json(text)


def cmd_keyrate(args) -> int:
    intensities, _ = load_network(_load_config(args.config, "simulate"))
    flags = {k: v for k, v in vars(args).items() if k in _schema(SecurityParams)[0] and v is not None}
    security = SecurityParams(**flags)  # a flag is named by its key, as elapsed_s is
    elapsed = {} if args.elapsed_s is None else {"elapsed_s": check_real(args.elapsed_s, "elapsed_s", 0.0)}
    table = _read_table(args.counts)
    mode = "MDI" if table.is_pair else "QKD"
    bounds = estimate_bounds(table, intensities, security.eps_sec / 2.0, mode)
    z_rec = table.z_entry()
    qber_z = z_rec.errors / z_rec.detected if z_rec.detected else 0.0
    result = secure_key_length(bounds, z_rec.detected, qber_z, security, **elapsed)
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
    else:
        row = (f"{v:.6g}" if isinstance(v, float) else str(v) for v in record.values())
        text = ",".join(record) + "\n" + ",".join(row) + "\n"
    manifest = {"config": args.config, "counts": args.counts, "mode": mode}
    _save(args.out, "keyrate", manifest, f"keyrate.{args.format}", text)
    sys.stdout.write(text)
    return 0


def cmd_sweep(args) -> int:
    if args.preset:
        config = load_preset(args.preset)["sweep"]
    else:
        config = _load_config(args.config, "sweep")
    if args.seed is not None:
        config["seed"] = args.seed

    points = _call("sweep", rate_sweep, _arguments(rate_sweep, config, "sweep"))
    if args.format == "json":
        text = json.dumps([dataclasses.asdict(p) for p in points], sort_keys=True, indent=2) + "\n"
    else:
        text = sweep_to_csv(points)
    _save(args.out, "sweep", config, f"sweep_{config['mode'].lower()}.{args.format}", text)
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

    # one flat section feeds QdsParams and distill_report
    report_keys = [k for k in _schema(distill_report)[0] if k != "params"]
    params = _build(QdsParams, config, "qds", report_keys)
    inputs = _arguments(distill_report, config, "qds", _schema(QdsParams)[0], params=params)
    try:
        report = _call("qds", distill_report, inputs)
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
    p_key.add_argument("--config", required=True, help="the simulate config that produced the counts")
    for name in (*_schema(SecurityParams)[0], "elapsed_s"):
        p_key.add_argument("--" + name.replace("_", "-"), type=float, default=None)
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
    except (ValueError, KeyError, OSError) as exc:  # malformed input exits 2, a pipeline error 1
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, TableFormatError)) else 1


if __name__ == "__main__":
    sys.exit(main())
