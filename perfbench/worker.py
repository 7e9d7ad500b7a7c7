"""Run one workload in this process and print its raw measurements as JSON.

Started by ``run.py``, one process per workload run, with ``src`` on the
import path and the BLAS/OpenMP thread variables set to 1.  Prints one JSON
object as the last line of standard output.

Modes:

* ``--setup-only``: time the set-up (importing ``qkdnet`` and building the
  workload's models and presets) and stop;
* ``--trace 0``: set up, then repeat iterations for ``--seconds`` seconds;
* ``--trace 1``: the same untraced loop, then two traced iterations on the
  inputs of iteration 0, whose exact counters must agree.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before anything of qkdnet, numpy or scipy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (standard library only)

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def set_up(name: str):
    """Import the package and the workload, build its inputs; returns (iterate, inputs)."""
    sys.path.insert(0, str(SRC))
    import qkdnet  # noqa: F401  (timed as part of set-up)

    if not Path(qkdnet.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported qkdnet from {qkdnet.__file__}, not from {SRC}")
    import workloads

    setup, iterate = workloads.WORKLOADS[name]
    return iterate, setup()


def loop(iterate, inputs, seed: int, seconds: float):
    """Untraced iterations until ``seconds`` have passed (at least one).

    Returns the iteration wall times, the iterations, and the peak resident
    set in MB after the first iteration.
    """
    walls, its = [], []
    start = time.perf_counter()
    while not its or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        its.append(iterate(inputs, seed, len(its)))
        walls.append(time.perf_counter() - t0)
        if len(its) == 1:
            # the peak of set-up plus one iteration: later iterations only
            # add allocator fragmentation, which varies from run to run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return walls, its, peak_rss_mb


def traced_pass(iterate, inputs, seed: int):
    tracer = tracing.Tracer()
    with tracer:
        t0 = time.perf_counter()
        it = iterate(inputs, seed, 0)
        wall = time.perf_counter() - t0
    return wall, it, tracing.summarize(tracer.spans)


def exact_counters(stats: dict, it) -> dict:
    counters = {f"{name}.calls": entry.calls for name, entry in sorted(stats.items())}
    counters.update(it.facts)
    return counters


def main(argv=None) -> int:
    args = parse_args(argv)
    iterate, inputs = set_up(args.workload)
    setup_s = time.perf_counter() - _T0
    import numpy
    import scipy

    out = {
        "setup_s": setup_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    walls, its, peak_rss_mb = loop(iterate, inputs, args.seed, args.seconds)
    timings = {}
    for it in its:
        for name, values in it.timings.items():
            timings.setdefault(name, []).extend(values)
    out.update(
        wall_s=walls,
        timings=timings,
        facts=its[0].facts,
        digest=its[0].digest.hexdigest(),
        peak_rss_mb=peak_rss_mb,
    )
    all_its = list(its)

    if args.trace:
        passes = [traced_pass(iterate, inputs, args.seed) for _ in range(2)]
        all_its += [it for _, it, _ in passes]
        first, second = (exact_counters(stats, it) for _, it, stats in passes)
        mismatched = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        # per-layer figures come from the faster traced pass, as wall_s does
        wall, it, stats = min(passes, key=lambda p: p[0])
        lp_calls = first.get("mathkit.solve_bounded_lp.calls", 0)
        bounds_calls = first.get("decoy.estimate_bounds.calls", 0)
        out["trace"] = {
            "wall_s": [w for w, _, _ in passes],
            "overhead_s": wall - min(walls),
            "layers": {
                name: {
                    "calls": entry.calls,
                    "ms": entry.ms,
                    "self_ms": entry.self_ms,
                    "ms_p50": entry.ms_p50,
                    "peak_mb": entry.peak_bytes / 2**20,
                }
                for name, entry in stats.items()
            },
            "facts": it.facts,
            "digests_repeat": passes[0][1].digest.hexdigest() == passes[1][1].digest.hexdigest(),
            # the traced run's own checks: name -> failure detail, or "" when passed
            "checks": {
                "exact counters repeat": f"differ: {mismatched}" if mismatched else "",
                "two LP solves per estimate_bounds": (
                    "" if lp_calls == 2 * bounds_calls
                    else f"{lp_calls} solves for {bounds_calls} calls"
                ),
            },
        }

    out["attempted"] = sum(it.attempted for it in all_its)
    out["failed"] = sum(it.failed for it in all_its)
    out["errors"] = [err for it in all_its for err in it.errors]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
