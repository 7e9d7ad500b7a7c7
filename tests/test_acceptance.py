"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else; desk-scale scenarios
use idealised channels and relaxed budgets where noted, never altered
gates.
"""

import numpy as np
import pytest

from qkdnet.channel import (
    ChannelParams,
    IntensitySet,
    mdi_yield_model,
    qkd_yield_model,
    sample_counts,
)
from qkdnet.cli import load_network, load_preset
from qkdnet.decoy import CountTable, estimate_bounds
from qkdnet.experiments import multisig_comparison, relay_chain
from qkdnet.keyrate import SecurityParams, rate_sweep
from qkdnet.netsim import run_plan, schedule
from qkdnet.qds import (
    abort_and_forge,
    eve_error_floor,
    extract_blocks,
    n_blocks,
    qber_upper,
    signature_length,
    thresholds,
    timing_report,
)

EPS_H = 2e-11
P_REP = 0.5e-10


def ok(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_attacker_error_floor():
    mdi = eve_error_floor(666_345, 2_500_000, 0.053)
    qkd = eve_error_floor(86_563, 150_000, 0.0237)
    assert mdi == pytest.approx(0.0286, abs=5e-4)
    assert qkd == pytest.approx(0.105, abs=1e-3)
    ok(1, f"p_E relay {mdi:.4f} (0.0286±5e-4), point-to-point {qkd:.4f} (0.105±1e-3)")


def test_criterion_02_qber_upper_bounds():
    mdi = qber_upper(0.005, 1_714_426, 2_500_000, EPS_H)
    qkd = qber_upper(0.0017, 46_979_354, 150_000, EPS_H)
    assert mdi == pytest.approx(0.0085, abs=1e-4)
    assert qkd == pytest.approx(0.0108, abs=1e-4)
    ok(2, f"QBER bounds {mdi:.5f} (0.0085±1e-4) and {qkd:.5f} (0.0108±1e-4)")


def test_criterion_03_thresholds():
    sa_m, sv_m = thresholds(0.0085, 0.0286)
    sa_q, sv_q = thresholds(0.0108, 0.105)
    assert sa_m == pytest.approx(0.0152, abs=1e-4)
    assert sv_m == pytest.approx(0.0219, abs=1e-4)
    assert sa_q == pytest.approx(0.0422, abs=3e-4)
    assert sv_q == pytest.approx(0.0736, abs=3e-4)
    ok(3, f"thirds rule gives ({sa_m:.4f}, {sv_m:.4f}) and ({sa_q:.4f}, {sv_q:.4f})")


def test_criterion_04_signature_lengths():
    l_mdi = signature_length(0.0152, 0.0219, P_REP)
    assert l_mdi == pytest.approx(2.11e6, rel=0.02)
    l_qkd = signature_length(0.0422, 0.0736, P_REP)
    assert l_qkd == pytest.approx(96_200, rel=0.01)
    # documented discrepancy: the published 103,336 is ~7% above the
    # inversion from the published thresholds; gate at 10%
    assert abs(l_qkd - 103_336) / 103_336 < 0.10
    ok(4, f"L_sig relay {l_mdi} (2.11e6±2%), point-to-point {l_qkd} vs published 103,336 (<10%)")


def test_criterion_05_signature_count_and_timing():
    blocks_mdi = n_blocks(4_936_714_426, 1_714_426, 2_500_000)
    blocks_qkd = n_blocks(422_879_354, 46_979_354, 150_000)
    assert blocks_mdi == 1974
    assert blocks_qkd == 2506
    # the same arithmetic drives the materialised splitter at desk scale
    pool = np.zeros(10_000, dtype=np.int8)
    _, blocks = extract_blocks(pool, 1_000, 2_500, seed=1)
    assert len(blocks) == n_blocks(10_000, 1_000, 2_500)
    t_mdi = timing_report(90_000, 500 / 502, blocks_mdi)
    t_qkd = timing_report(90_000, 1 / 502, blocks_qkd)
    assert t_mdi == pytest.approx(45.0, rel=0.02)
    assert t_qkd == pytest.approx(0.072, rel=0.02)
    ok(5, f"{blocks_mdi} and {blocks_qkd} blocks; {t_mdi:.1f} s and {t_qkd * 1000:.1f} ms per signature")


def test_criterion_06_abort_and_forge_margins():
    p_e = eve_error_floor(666_345, 2_500_000, 0.053)
    e_sig = qber_upper(0.005, 1_714_426, 2_500_000, EPS_H)
    s_auth, s_ver = thresholds(e_sig, p_e)
    p_hab, p_for = abort_and_forge(e_sig, s_auth, s_ver, p_e, 2_500_000)
    # below the 1e-10 threshold by at least 50 orders of magnitude
    assert p_hab < 1e-60
    assert p_for < 1e-60
    ok(6, f"P_hab={p_hab:.2e}, P_for={p_for:.2e}, both < 1e-60")


def _bracket_table_qkd(model, intensities, n_pulses, seed):
    table = CountTable(link="AC")
    seeds = np.random.SeedSequence(seed).generate_state(4)
    for i, label in enumerate(("u", "v", "w")):
        rec = sample_counts(
            model, intensities.mu(label), None,
            n_pulses=round(n_pulses * 0.2 / 3), seed=int(seeds[i]), basis="X",
        )
        table.add(label, "X", rec)
    rec = sample_counts(model, intensities.s, None, n_pulses=round(n_pulses * 0.8),
                        seed=int(seeds[3]), basis="Z")
    table.add("s", "Z", rec)
    return table


def _bracket_table_mdi(model, intensities, n_pulses, seed):
    table = CountTable(link="AB")
    labels = [(a, b) for a in ("u", "v", "w") for b in ("u", "v", "w")]
    seeds = np.random.SeedSequence(seed).generate_state(10)
    for i, (la, lb) in enumerate(labels):
        rec = sample_counts(
            model, intensities.mu(la), intensities.mu(lb),
            n_pulses=round(n_pulses * 0.04 / 9), seed=int(seeds[i]), basis="X",
        )
        table.add((la, lb), "X", rec)
    rec = sample_counts(model, intensities.s, intensities.s,
                        n_pulses=round(n_pulses * 0.64), seed=int(seeds[9]), basis="Z")
    table.add(("s", "s"), "Z", rec)
    return table


def test_criterion_07_decoy_bracketing_oracle():
    eps = 1e-6
    violations = 0
    trials = 0

    qkd_grid = [
        (dist, dark, mis, n)
        for dist in (5.0, 15.0, 30.0)
        for dark in (1e-7, 1e-6, 1e-5)
        for mis in (0.002, 0.01, 0.03)
        for n in (10**9, 10**10)
    ]
    intensities = IntensitySet()
    for i, (dist, dark, mis, n) in enumerate(qkd_grid):
        model = qkd_yield_model(
            ChannelParams(distance_km=dist, dark_count_prob=dark, misalignment=mis)
        )
        for seed in range(13):
            table = _bracket_table_qkd(model, intensities, n, seed=i * 1000 + seed)
            bounds = estimate_bounds(table, intensities, eps, "QKD")
            trials += 1
            if bounds.y1_lower > model.yields[1] + 1e-12:
                violations += 1
            if bounds.eph_upper < model.error_rates[1] - 1e-12:
                violations += 1

    mdi_ints = IntensitySet(s=0.5, u=0.3, v=0.1, w=0.0)
    mdi_grid = [
        (dist, mis, n)
        for dist in (2.0, 10.0, 25.0)
        for mis in (0.0025, 0.01)
        for n in (10**12, 10**13)
    ]
    for i, (dist, mis, n) in enumerate(mdi_grid):
        side = ChannelParams(distance_km=dist, misalignment=mis)
        model = mdi_yield_model(side, side)
        for seed in range(25):
            table = _bracket_table_mdi(model, mdi_ints, n, seed=777_000 + i * 1000 + seed)
            bounds = estimate_bounds(table, mdi_ints, eps, "MDI")
            trials += 1
            if bounds.y1_lower > model.yields[1, 1] + 1e-12:
                violations += 1
            if bounds.eph_upper < model.error_rates[1, 1] - 1e-12:
                violations += 1

    assert trials >= 1000
    # expected violations = trials * eps ~ 1e-3; the 3-sigma gate is zero
    assert violations == 0
    ok(7, f"{trials} seeded tables, 0 bracket violations (budget allows {trials * eps:.1e})")


def test_criterion_08_rate_distance_shape():
    qkd_cfg = load_preset("hw-qkd-sweep")["sweep"]
    mdi_cfg = load_preset("hw-mdi-sweep")["sweep"]

    def run(cfg):
        points = rate_sweep(
            ChannelParams(**cfg["channel"]),
            IntensitySet(**{**cfg["intensities"],
                            **({"x_weights": tuple(cfg["intensities"]["x_weights"])}
                               if "x_weights" in cfg["intensities"] else {})}),
            cfg["distances"],
            cfg["mode"],
            SecurityParams(**cfg["security"]),
            duty=cfg.get("duty", 1.0),
            seed=cfg["seed"],
            n_pulses=int(cfg["n_pulses"]),
            mdi_model=cfg.get("mdi_model"),
        )
        return {p.distance_km: p.rate_bps for p in points}

    qkd = run(qkd_cfg)
    mdi = run(mdi_cfg)

    qkd_rates = [qkd[d] for d in sorted(qkd)]
    mdi_rates = [mdi[d] for d in sorted(mdi)]
    assert all(a >= b for a, b in zip(qkd_rates, qkd_rates[1:]))
    assert all(a >= b for a, b in zip(mdi_rates, mdi_rates[1:]))

    # positive windows
    assert mdi[50] > 0 and mdi[52] > 0
    assert qkd[25] > 0 and qkd[45] > 0

    # point-to-point beats the relay at equal one-way distance
    for d in (5, 10, 15, 20, 25):
        assert qkd[d] > mdi[2 * d]

    # endpoint magnitudes within one order of the published values
    assert 134e3 / 10 <= mdi[0] <= 134e3 * 10
    assert 606 / 10 <= mdi[52] <= 606 * 10
    assert 5e6 / 10 <= qkd[0] <= 5e6 * 10
    assert 0.5e6 / 10 <= qkd[45] <= 0.5e6 * 10
    ok(8, (f"monotone sweeps; relay {mdi[0]:.3g}->{mdi[52]:.3g} bps (134k/606 ref), "
           f"point-to-point {qkd[0]:.3g}->{qkd[45]:.3g} bps (5M/0.5M ref)"))


# Desk-scale end-to-end scenario: idealised short channel so that a 1e7-slot
# session supports the whole pipeline; the chain's budgets are relaxed
# accordingly (experiments.RELAY_*) and recorded in the report itself.
DESK_SEED = 505


DESK = load_preset("desk")["simulate"]


def test_criterion_09_end_to_end_protocol_run():
    intensities, models = load_network(DESK)
    plan = schedule(DESK["slots"], DESK["weights"], intensities=intensities, seed=DESK_SEED)
    result = run_plan(plan, models, seed=DESK_SEED)

    for link in ("AB", "AC", "BC"):
        assert result.tables[link].entries, f"link {link} produced no counts"

    chain = relay_chain(result, intensities, DESK["weights"], DESK_SEED)
    key, report, verdicts = chain.key, chain.report, chain.verdicts
    assert key.secure_bits > 0
    assert report is not None, chain.insecure
    assert report.secure
    assert (report.e_test <= report.e_sig_upper < report.s_auth
            < report.s_ver < report.p_e)
    assert report.l_sig <= report.params["c_sig"]

    # honest signing session over the classical channel: Alice declares the
    # block's pool bits; Bob holds the flip-rule outcomes (errors flagged in the pool)
    assert verdicts["direct"].accepted
    assert verdicts["forwarded"].accepted

    # 1,000 desk-scale trials: forger constrained to the error floor p_E is
    # rejected by the verifier; mismatch counts are exact Bernoulli sums
    rng = np.random.default_rng(DESK_SEED)
    l = report.l_sig
    forger_mismatches = rng.binomial(l, report.p_e, size=1000)
    rejected = (forger_mismatches >= report.s_ver * l).mean()
    assert rejected >= 0.999
    honest_mismatches = rng.binomial(l, chain.e_test, size=1000)
    accepted = (honest_mismatches < report.s_auth * l).mean()
    assert accepted >= 0.999
    ok(9, (f"key {key.secure_bits} bits; secure report (p_e={report.p_e:.4f}, "
           f"E={report.e_sig_upper:.4f}, l_sig={report.l_sig}); honest accept, "
           f"forger rejected in {rejected:.1%} of 1000 trials"))


def test_criterion_10_multisignature_improvement():
    intensities, models = load_network(DESK)
    comparison = multisig_comparison(models["AB"], intensities, "MDI", n_pulses_total=5 * 10**8)
    assert comparison.n_baseline > 0
    assert comparison.ratio >= 2.0
    # the expected-value chain is deterministic, so its outcome is pinned exactly
    assert comparison.n_multi == 108
    assert comparison.n_baseline == 18
    assert comparison.c_sig_multi == 498_783
    assert comparison.min_acquisition_pulses == 26_701_985
    ok(10, (f"{comparison.n_multi} multi-block vs {comparison.n_baseline} baseline "
            f"signatures: ratio {comparison.ratio:.1f}x (gate 2x)"))
