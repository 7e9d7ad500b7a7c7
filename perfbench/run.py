#!/usr/bin/env python3
"""qkdnet benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload network --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each was chosen):

* ``network``  -- the desk-scale three-party acquisition at 10^7 slots and
  the relay-link key/signature chain;
* ``analysis`` -- the two hardware sweep presets through the CLI and a batch
  of sampled tables through synthesis -> decoy bounds -> key length;
* ``multisig`` -- the multi-signature comparison and the two published QDS
  presets through the CLI (deterministic; the seed is not used).

With ``--trace 0`` the end-to-end metrics are timed without tracing.  With
``--trace 1`` the same untraced loop runs first, then two traced
iterations give the per-layer metrics, and their exact counters must agree.

Every workload runs in its own process (``worker.py``) with the BLAS/OpenMP
thread variables set to 1 in that process only.  Set-up time is the median
over that process and eight set-up-only processes, four run before it and
four after it.  The last line of
standard output is the JSON result; the line before it records provenance,
the output digest and every measured value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOAD_NAMES = ("network", "analysis", "multisig")
SETUP_PROBES = 8
#: a run must end within 180 s; leave room for start-up and reporting
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the time limit: {' '.join(cmd)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def provenance(versions: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def workload_metrics(raw: dict) -> dict:
    """Workload-specific figures from the untraced loop; 0 where not applicable."""
    timings = raw["timings"]
    tables = timings.get("table", [])
    slots = raw["facts"].get("netsim.slots", 0)
    return {
        "slots_per_s": (slots / min(timings["slots"]) if slots else 0.0, "slots/s"),
        "tables_per_s": (len(tables) / sum(tables) if tables else 0.0, "tables/s"),
        "table_p50_ms": (statistics.median(tables) * 1e3 if tables else 0.0, "ms"),
        # p95 needs 10 samples beyond it: the batch holds at least 200 tables
        "table_p95_ms": (statistics.quantiles(tables, n=20)[18] * 1e3 if len(tables) >= 200 else 0.0, "ms"),
        "table_samples": (len(tables), "count"),
        "comparison_s": (min(timings["comparison"]) if "comparison" in timings else 0.0, "s"),
    }


def layer_metrics(trace: dict) -> dict:
    """Per-layer figures from the faster of the two traced iterations."""
    layers, facts = trace["layers"], trace["facts"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    lp_calls = get("mathkit.solve_bounded_lp", "calls")
    linprog_calls = get("mathkit.linprog", "calls")
    slots = facts.get("netsim.slots", 0)
    return {
        "trace.overhead_s": (trace["overhead_s"], "s"),
        "mathkit.solve_bounded_lp.calls": (lp_calls, "count"),
        "mathkit.solve_bounded_lp.self_ms": (get("mathkit.solve_bounded_lp", "self_ms"), "ms"),
        "mathkit.linprog.calls": (linprog_calls, "count"),
        "mathkit.linprog.ms": (get("mathkit.linprog", "ms"), "ms"),
        "mathkit.lp.useful_ratio": (lp_calls / linprog_calls if linprog_calls else 0.0, "1"),
        "decoy.estimate_bounds.qkd.calls": (get("decoy.estimate_bounds.qkd", "calls"), "count"),
        "decoy.estimate_bounds.qkd.ms_p50": (get("decoy.estimate_bounds.qkd", "ms_p50"), "ms"),
        "decoy.estimate_bounds.mdi.calls": (get("decoy.estimate_bounds.mdi", "calls"), "count"),
        "decoy.estimate_bounds.mdi.ms_p50": (get("decoy.estimate_bounds.mdi", "ms_p50"), "ms"),
        "decoy.estimate_bounds.self_ms": (get("decoy.estimate_bounds", "self_ms"), "ms"),
        "channel.sample_counts.calls": (get("channel.sample_counts", "calls"), "count"),
        "channel.sample_counts.ms": (get("channel.sample_counts", "ms"), "ms"),
        "keyrate.synthesize_table.calls": (get("keyrate.synthesize_table", "calls"), "count"),
        "keyrate.synthesize_table.ms": (get("keyrate.synthesize_table", "ms"), "ms"),
        "channel.yield_model.ms": (
            get("channel.qkd_yield_model", "ms") + get("channel.mdi_yield_model", "ms"), "ms"
        ),
        "channel.expected_gain_and_qber.calls": (get("channel.expected_gain_and_qber", "calls"), "count"),
        "channel.expected_gain_and_qber.ms": (get("channel.expected_gain_and_qber", "ms"), "ms"),
        "experiments.expected_table.calls": (get("experiments.expected_table", "calls"), "count"),
        "experiments.expected_table.ms": (get("experiments.expected_table", "ms"), "ms"),
        "experiments.multisig_comparison.ms": (get("experiments.multisig_comparison", "ms"), "ms"),
        "qds.distill_report.calls": (get("qds.distill_report", "calls"), "count"),
        "qds.distill_report.ms": (get("qds.distill_report", "ms"), "ms"),
        "qds.extract_blocks.ms": (get("qds.extract_blocks", "ms"), "ms"),
        "qds.run_signing_session.ms": (get("qds.run_signing_session", "ms"), "ms"),
        "netsim.schedule.ms": (get("netsim.schedule", "ms"), "ms"),
        "netsim.schedule.bytes_per_slot": (
            facts.get("netsim.schedule.bytes", 0) / slots if slots else 0.0, "B/slot"
        ),
        "netsim.run_plan.ns_per_slot": (get("netsim.run_plan", "ms") * 1e6 / slots if slots else 0.0, "ns/slot"),
        "netsim.run_plan.peak_traced_mb": (get("netsim.run_plan", "peak_mb"), "MB"),
        "netsim.pool_bits.AB": (facts.get("netsim.pool_bits.AB", 0), "count"),
        "cli.main.ms": (get("cli.main", "ms"), "ms"),
        "cli.self_ms": (get("cli.main", "self_ms"), "ms"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "qkdnet" / "__init__.py").is_file():
        print(f"error: no qkdnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        # Set-up probes run one after another, never beside the measured run,
        # half before it and half after, so that they sample the host's load
        # over the whole run.
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup_samples = [run_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(probes)]
        raw = run_worker(args, deadline)
        setup_samples += [run_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(probes)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = raw["trace"]["checks"] if args.trace else {}
    trace_failures = [f"traced run: {name}: {detail}" for name, detail in checks.items() if detail]
    attempted = raw["attempted"] + len(checks)
    failed = raw["failed"] + len(trace_failures)
    errors = raw["errors"] + trace_failures
    metrics = workload_metrics(raw)
    metrics["failure_ratio"] = (failed / attempted, "1")
    if args.trace:
        metrics.update(layer_metrics(raw["trace"]))
        reported = metrics
    else:
        setup_samples.append(raw["setup_s"])
        reported = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (min(raw["wall_s"]), "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(raw["versions"]),
        "output_sha256": raw["digest"],
        "iterations": len(raw["wall_s"]),
        "iteration_wall_s": raw["wall_s"],
        "setup_samples_s": setup_samples,
        "exact_counters": raw["facts"],
        "errors": errors,
        "metrics": {name: value for name, (value, _) in {**metrics, **reported}.items()},
    }
    if args.trace:
        record["traced_wall_s"] = raw["trace"]["wall_s"]
        record["traced_digest_repeats"] = raw["trace"]["digests_repeat"]
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
