"""The benchmark's workloads: inputs, one iteration, and output checks.

Each workload has a set-up step, which builds models and parameters, and an
iteration, which does a fixed amount of work from a seed and checks its
outputs.  A run repeats iterations; iteration ``i`` draws its inputs from
``SeedSequence([seed, i])``, so the same seed gives the same inputs.

The checks use only properties the code guarantees at every seed (and, for
the deterministic ``multisig`` workload, the pinned acceptance numbers),
never values that one seed happens to produce.

Functions are called through their modules (``netsim.schedule``), so that
the tracer's rebinding of module attributes sees the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from qkdnet import channel, cli, decoy, experiments, keyrate, netsim, qds

# ---------------------------------------------------------------------------
# shared plumbing


@dataclass
class Iteration:
    """What one iteration did: operations, timings, exact counters, outputs."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)  # name -> list of seconds
    facts: dict = field(default_factory=dict)  # exact counters
    digest: object = field(default_factory=hashlib.sha256)  # sha256 of the outputs

    def add_time(self, name: str, seconds: float):
        self.timings.setdefault(name, []).append(seconds)

    def record(self, text: str):
        self.digest.update(text.encode())
        self.digest.update(b"\n")

    def operation(self, name: str, func):
        """Run one checked operation; an exception or a failed check fails it.

        ``func`` returns the names of the checks that failed.  The handler is
        broad on purpose: the benchmark keeps running and counts the failure
        against ``failed``, printing the traceback.
        """
        self.attempted += 1
        try:
            failures = func()
        except Exception:  # noqa: BLE001 - counted and reported, see docstring
            traceback.print_exc(file=sys.stderr)
            failures = ["raised"]
        if failures:
            self.failed += 1
            self.errors.append(f"{name}: {', '.join(failures)}")


def iteration_seeds(seed: int, index: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, index]).generate_state(count)]


def run_cli(argv) -> tuple[int, str]:
    """``qkdnet.cli.main`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# network: the desk-scale three-party acquisition and the relay-link chain

NETWORK_SLOTS = 10**7
NETWORK_WEIGHTS = (500, 1, 1)
NETWORK_Z_PROB = 0.65
NETWORK_EPS = 1e-4


@dataclass
class NetworkInputs:
    intensities: channel.IntensitySet
    models: dict


def network_setup() -> NetworkInputs:
    side = channel.ChannelParams(
        distance_km=0.0, detector_efficiency=0.95, dark_count_prob=1e-7, misalignment=0.002
    )
    return NetworkInputs(
        intensities=channel.IntensitySet(
            s=0.8, u=0.5, v=0.15, w=0.0, z_basis_prob=NETWORK_Z_PROB, x_weights=(0.6, 0.25, 0.15)
        ),
        models={
            "AB": channel.mdi_yield_model(side, side, bell_success=1.0, x_multiphoton_floor=0.02),
            "AC": channel.qkd_yield_model(side),
            "BC": channel.qkd_yield_model(side),
        },
    )


def network_iteration(inputs: NetworkInputs, seed: int, index: int) -> Iteration:
    it = Iteration()
    (run_seed,) = iteration_seeds(seed, index, 1)

    def acquisition():
        t0 = time.perf_counter()
        plan = netsim.schedule(
            NETWORK_SLOTS, NETWORK_WEIGHTS, NETWORK_Z_PROB, inputs.intensities, run_seed
        )
        result = netsim.run_plan(plan, inputs.models, seed=run_seed)
        it.add_time("slots", time.perf_counter() - t0)
        plan_arrays = (plan.session, plan.basis_a, plan.basis_b, plan.intensity_a, plan.intensity_b)
        it.facts["netsim.schedule.bytes"] = sum(a.nbytes for a in plan_arrays)
        it.facts["netsim.slots"] = plan.slots
        diag = result.diagnostics
        for name, count in diag["slots_per_session"].items():
            it.facts[f"netsim.slots.{name}"] = count
        for link, pool in sorted(result.z_pools.items()):
            it.facts[f"netsim.pool_bits.{link}"] = len(pool)
            it.record(f"{result.tables[link].to_json()} pool={len(pool)}/{int(pool.error_flags.sum())}")

        failures = []
        if not all(result.tables[link].entries for link in ("AB", "AC", "BC")):
            failures.append("a link has no counts")
        ab_sent = sum(rec.sent for rec in result.tables["AB"].entries.values())
        if ab_sent + diag["basis_mismatch_slots"] != diag["slots_per_session"]["MDI_AB"]:
            failures.append("AB sent + basis mismatches != MDI_AB slots")

        # relay-link chain, as in scripts/run_network_demo.py
        model = inputs.models["AB"]
        table, pool = result.tables["AB"], result.z_pools["AB"]
        bounds = decoy.estimate_bounds(table, inputs.intensities, NETWORK_EPS, "MDI")
        if not (bounds.y1_lower <= model.yields[1, 1] and bounds.eph_upper >= model.error_rates[1, 1]):
            failures.append("decoy bounds do not bracket the model's Y11/e11")
        z_rec = table.z_entry()
        key = keyrate.secure_key_length(
            bounds, z_rec.detected, z_rec.errors / z_rec.detected,
            keyrate.SecurityParams(eps_sec=NETWORK_EPS, eps_cor=1e-6),
            elapsed_s=NETWORK_SLOTS / 1e9,
        )
        n_z = len(pool)
        c_sig = int(n_z * 0.55)
        c_test = n_z - c_sig - 10
        block_bounds = decoy.restrict_to_block(bounds, c_sig, z_rec.detected, NETWORK_EPS)
        (test_idx, _), blocks = qds.extract_blocks(
            np.asarray(pool.bits), c_test, c_sig, seed=run_seed
        )
        e_test = float(pool.error_flags[test_idx].mean())
        duty = NETWORK_WEIGHTS[0] / sum(NETWORK_WEIGHTS)
        report = qds.distill_report(
            block_bounds.s1_lower, block_bounds.eph_upper, e_test, pool_size=n_z,
            params=qds.QdsParams(c_sig=c_sig, c_test=c_test, eps_h=NETWORK_EPS,
                                 p_rep_budget=0.01, p_fail_total=0.1),
            total_time_s=NETWORK_SLOTS / 1e9 / duty, duty_fraction=duty,
            epsilon_inherited=bounds.epsilon_spent + 2 * NETWORK_EPS,
        )
        if not report.secure:
            failures.append("signature report is not secure")
        block = blocks[0]
        bob_bits = np.bitwise_xor(
            block.bit_values.astype(np.int8),
            pool.error_flags[block.origin_indices].astype(np.int8),
        )
        positions = np.arange(len(block))
        holdings = {
            "direct": [qds.Holding("AB", positions, bob_bits)],
            "forwarded": [qds.Holding("AB", positions, bob_bits)],
        }
        verdicts = qds.run_signing_session(
            netsim.MessageBus(), "alice", "bob", "charlie", 0, {"AB": block.bit_values},
            holdings, report.s_auth, report.s_ver, report.l_sig,
        )
        if not (verdicts["direct"].accepted and verdicts["forwarded"].accepted):
            failures.append("an honest recipient rejected")
        it.record(f"key={key.secure_bits} report={report.to_json()}")
        it.record(" ".join(f"{role}={v.mismatches}/{v.checked}" for role, v in sorted(verdicts.items())))
        return failures

    it.operation("network acquisition", acquisition)
    return it


# ---------------------------------------------------------------------------
# analysis: sampled tables through the whole decoy -> key chain

SWEEP_PRESETS = ("hw-qkd-sweep", "hw-mdi-sweep")
#: half of eps_sec funds the decoy estimation, as in keyrate.rate_sweep
ANALYSIS_SECURITY = keyrate.SecurityParams()
#: tables per iteration; every third one is MDI, so the QKD tables set the
#: median latency and the slower MDI tables the 95th percentile
ANALYSIS_BATCH = 210
#: (distance in km, pulse budget) grids, as in acceptance criterion 7
QKD_GRID = [(d, n) for d in (5.0, 15.0, 30.0) for n in (10**9, 10**10)]
MDI_GRID = [(d, n) for d in (2.0, 10.0, 25.0) for n in (10**12, 10**13)]


@dataclass
class AnalysisInputs:
    cases: list  # (mode, link, model, intensities, n_pulses, truth_y1, truth_e1)


def analysis_setup() -> AnalysisInputs:
    qkd_ints = channel.IntensitySet()
    mdi_ints = channel.IntensitySet(s=0.5, u=0.3, v=0.1, w=0.0)
    qkd_cases, mdi_cases = [], []
    for dist, n in QKD_GRID:
        model = channel.qkd_yield_model(channel.ChannelParams(distance_km=dist))
        qkd_cases.append(("QKD", "AC", model, qkd_ints, n, model.yields[1], model.error_rates[1]))
    for dist, n in MDI_GRID:
        side = channel.ChannelParams(distance_km=dist)
        model = channel.mdi_yield_model(side, side)
        mdi_cases.append(
            ("MDI", "AB", model, mdi_ints, n, model.yields[1, 1], model.error_rates[1, 1])
        )
    cases = []
    for k in range(ANALYSIS_BATCH):
        if k % 3 == 2:
            cases.append(mdi_cases[(k // 3) % len(mdi_cases)])
        else:
            cases.append(qkd_cases[(k - k // 3) % len(qkd_cases)])
    return AnalysisInputs(cases=cases)


def analysis_iteration(inputs: AnalysisInputs, seed: int, index: int) -> Iteration:
    it = Iteration()
    seeds = iteration_seeds(seed, index, ANALYSIS_BATCH + 1)

    for preset in SWEEP_PRESETS:

        def sweep(preset=preset):
            rc, text = run_cli(
                ["sweep", "--preset", preset, "--seed", str(seeds[-1]), "--format", "json"]
            )
            if rc != 0:
                return [f"exit status {rc}"]
            it.record(text)
            rows = sorted(json.loads(text), key=lambda row: row["distance_km"])
            failures = []
            if not rows:
                failures.append("no rows")
            if any(row["note"] for row in rows):
                failures.append("a row carries a note")
            rates = [row["rate_bps"] for row in rows]
            if any(b > a for a, b in zip(rates, rates[1:])):
                failures.append("rate increases with distance")
            return failures

        it.operation(f"sweep {preset}", sweep)

    for k, (mode, link, model, ints, n_pulses, y1, e1) in enumerate(inputs.cases):

        def table_chain():
            t0 = time.perf_counter()
            table = keyrate.synthesize_table(model, ints, n_pulses, mode, link, seed=seeds[k])
            bounds = decoy.estimate_bounds(table, ints, ANALYSIS_SECURITY.eps_sec / 2, mode)
            z_rec = table.z_entry()
            key = keyrate.secure_key_length(
                bounds, z_rec.detected, z_rec.errors / z_rec.detected, ANALYSIS_SECURITY
            )
            it.add_time("table", time.perf_counter() - t0)
            it.record(f"{table.to_json()} {bounds!r} {key.secure_bits}")
            if not (bounds.y1_lower <= y1 + 1e-12 and bounds.eph_upper >= e1 - 1e-12):
                return ["bounds do not bracket the model truth"]
            return []

        it.operation(f"{mode} table {k}", table_chain)
    return it


# ---------------------------------------------------------------------------
# multisig: the multi-signature comparison and the published QDS presets

MULTISIG_PULSES = 5 * 10**8
#: pinned acceptance numbers: (multi-block, baseline) signatures, ratio 6.00
MULTISIG_EXPECTED = (108, 18)
QDS_EXPECTED = {"paper-mdi": 1974, "paper-qkd": 2506}


@dataclass
class MultisigInputs:
    model: channel.YieldModel
    intensities: channel.IntensitySet


def multisig_setup() -> MultisigInputs:
    """The operating point of scripts/multisig_gain.py."""
    side = channel.ChannelParams(
        distance_km=0.0, detector_efficiency=0.95, dark_count_prob=1e-7, misalignment=0.002
    )
    return MultisigInputs(
        model=channel.mdi_yield_model(side, side, bell_success=1.0, x_multiphoton_floor=0.02),
        intensities=channel.IntensitySet(
            s=0.8, u=0.5, v=0.15, w=0.0, z_basis_prob=0.65, x_weights=(0.6, 0.25, 0.15)
        ),
    )


def _qds_field(text: str, name: str) -> str:
    for line in text.splitlines():
        if line.startswith(name):
            return line[len(name):].strip().split()[0]
    return ""


def multisig_iteration(inputs: MultisigInputs, seed: int, index: int) -> Iteration:
    """Deterministic: the inputs do not depend on the seed."""
    it = Iteration()

    def comparison():
        t0 = time.perf_counter()
        result = experiments.multisig_comparison(
            inputs.model, inputs.intensities, "MDI", MULTISIG_PULSES, eps_decoy=1e-11
        )
        it.add_time("comparison", time.perf_counter() - t0)
        it.record(repr(result))
        failures = []
        if (result.n_multi, result.n_baseline) != MULTISIG_EXPECTED:
            failures.append(f"{result.n_multi} vs {result.n_baseline} signatures")
        if f"{result.ratio:.2f}" != "6.00":
            failures.append(f"ratio {result.ratio:.2f}")
        return failures

    it.operation("multisig comparison", comparison)

    for preset, expected in QDS_EXPECTED.items():

        def qds_preset(preset=preset, expected=expected):
            rc, text = run_cli(["qds", "--preset", preset])
            it.record(text)
            failures = []
            if rc != 0:
                failures.append(f"exit status {rc}")
            if _qds_field(text, "n_signatures") != str(expected):
                failures.append(f"n_signatures is not {expected}")
            if _qds_field(text, "secure:") != "True":
                failures.append("not secure")
            return failures

        it.operation(f"qds {preset}", qds_preset)
    return it


# ---------------------------------------------------------------------------

WORKLOADS = {
    "network": (network_setup, network_iteration),
    "analysis": (analysis_setup, analysis_iteration),
    "multisig": (multisig_setup, multisig_iteration),
}
