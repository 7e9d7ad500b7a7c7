"""Experiment harnesses built on the analysis stack.

The centrepiece compares the multi-signature-per-block protocol against the
classical one-signature-per-acquisition baseline on the same synthetic pool
and equal per-signature failure budgets: the baseline pays the full
statistical fluctuation (decoy widening plus QBER sampling) once per
signature, the multi-block protocol pays it once per acquisition and only a
Serfling sampling penalty per block.  :func:`relay_chain` signs on a simulated run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CountRecord, IntensitySet, check_link, outcome_law, parse_mode
from .decoy import CountTable, DecoyBounds, estimate_bounds, restrict_to_block
from .keyrate import KeyRateResult, SecurityParams, entry_budgets, table_key
from .mathkit import ConfigError, check_count, check_real, reuse_bases
from .netsim import MessageBus
from .qds import (Holding, InsecureChannelError, QdsParams, QdsReport, distill_report, extract_blocks,
                  n_blocks, run_signing_session)

__all__ = ["MultisigComparison", "RelayChain", "expected_table", "min_feasible_acquisition",
           "multisig_comparison", "relay_chain"]


def expected_table(model, intensities: IntensitySet, n_pulses: int, link: str) -> CountTable:
    """Deterministic count table of ``link`` at the expected values (no sampling noise).

    Splits the pulse budget for the link's sender count and reads the outcome
    law exactly as :func:`keyrate.synthesize_table` does, refusing a ``model`` of another sender count.
    Entries are rounded to integers, so the table is not monotone in the pulse budget.
    """
    table = CountTable(link=link)
    for (key, basis), sent in entry_budgets(n_pulses, intensities, check_link(link, model)).items():
        mus = [intensities.mu(label) for label in key]
        err, correct, _, _ = outcome_law(model, *mus, basis=basis)
        detected = round(sent * (err + correct))
        errors = round(detected * err / (err + correct)) if detected else 0
        table.add(key, basis, CountRecord(sent, detected, errors))
    return table


def min_feasible_acquisition(feasible, lo: int, hi: int) -> int | None:
    """A size in [lo, hi] accepted by ``feasible`` whose predecessor is not, by bisection.

    None when ``hi`` fails, ``lo`` when it passes, ValueError when ``lo > hi``.
    ``feasible`` need not be monotone; the transition returned is the one the
    probes reach, not necessarily the smallest feasible size.  Backs the
    one-signature-per-acquisition baseline of :func:`multisig_comparison`.
    """
    if lo > hi:
        raise ValueError(f"empty size range: lo {lo} > hi {hi}")
    if not feasible(hi):
        return None
    if feasible(lo):
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


#: share of each pool spent on the test sample, by both protocols
TEST_FRACTION = 0.1

# The relay chain's budgets, relaxed so that a desk-scale run signs and echoed in each report's params.
# RELAY_EPS funds the decoy bounds, each block-sampling step and the hashing bound; the key's eps_sec is 2 * RELAY_EPS.
RELAY_EPS, RELAY_EPS_COR, RELAY_P_REP, RELAY_P_FAIL = 1e-4, 1e-6, 0.01, 0.1
#: share of the relay pool signed as one block; the test sample takes all but RELAY_SPARE of the rest
RELAY_SIG_FRACTION, RELAY_SPARE = 0.55, 10


def _block_report(bounds, n_z, e_test, params, total_time_s=1.0, duty_fraction=1.0) -> QdsReport:
    """The report of a ``params.c_sig``-bit block of an n_z-bit pool; InsecureChannelError without a gap."""
    block = restrict_to_block(bounds, params.c_sig, n_z, params.eps_h)
    return distill_report(block.s1_lower, block.eph_upper, e_test, n_z, params, total_time_s,
                          duty_fraction, epsilon_inherited=block.epsilon_spent)


@dataclass(frozen=True)
class RelayChain:
    """With no positive signature rate, ``report`` is None, ``verdicts`` empty and ``insecure`` the reason;
    ``e_test`` is None when the pool is too small for a test sample and a block."""

    bounds: DecoyBounds
    key: KeyRateResult
    e_test: float | None
    report: QdsReport | None
    verdicts: dict
    insecure: str = ""


def relay_chain(result, intensities: IntensitySet, weights, seed: int) -> RelayChain:
    """The relay link's key and signature chain on one ``netsim.RunResult`` of 1 GHz slots.

    Keys the AB table, splits the AB pool by ``seed`` into a test sample and blocks, and signs the
    first block in one honest session: both recipients hold Bob's flip-rule bits, which differ from
    Alice's at the pool's error flags.  ``weights[0]`` is the relay session's share.
    """
    slots = sum(result.diagnostics["slots_per_session"].values())
    duty = weights[0] / sum(weights)
    table, pool = result.tables["AB"], result.z_pools["AB"]  # the pool is the Z entry's detections
    bounds, key = table_key(table, intensities, SecurityParams(2 * RELAY_EPS, RELAY_EPS_COR), slots / 1e9)
    n_z = len(pool)
    c_sig = int(n_z * RELAY_SIG_FRACTION)
    c_test = n_z - c_sig - RELAY_SPARE
    if min(c_sig, c_test) < 1:
        return RelayChain(bounds, key, None, None, {}, f"pool of {n_z} bits is too small for a test sample and a block")
    (test_idx, _), blocks = extract_blocks(pool.bits, c_test, c_sig, seed=seed)
    e_test = float(pool.error_flags[test_idx].mean())
    params = QdsParams(c_sig=c_sig, c_test=c_test, eps_h=RELAY_EPS,
                       p_rep_budget=RELAY_P_REP, p_fail_total=RELAY_P_FAIL)
    try:
        report = _block_report(bounds, n_z, e_test, params, slots / 1e9 / duty, duty)
    except InsecureChannelError as exc:
        return RelayChain(bounds, key, e_test, None, {}, str(exc))
    block = blocks[0]
    held = [Holding("AB", np.arange(len(block)), block.bit_values ^ pool.error_flags[block.origin_indices])]
    verdicts = run_signing_session(MessageBus(), "alice", "bob", "charlie", 0, {"AB": block.bit_values},
                                   {"direct": held, "forwarded": held}, report.s_auth, report.s_ver, report.l_sig)
    return RelayChain(bounds, key, e_test, report, verdicts)


@dataclass(frozen=True)
class MultisigComparison:
    n_multi: int
    n_baseline: int
    c_sig_multi: int
    min_acquisition_pulses: int | None
    ratio: float


def _block_signable(bounds, n_z, e_test, c_sig, c_test) -> bool:
    """Whether a c_sig-bit block drawn from an n_z-bit pool signs securely.

    Runs the per-block chain on pool-level decoy bounds and test QBER; a
    channel with no threshold gap is the one analytic "not signable"
    outcome, and every other error propagates.
    """
    if c_sig < 1 or c_test < 1 or c_sig + c_test > n_z:
        return False
    try:
        return _block_report(bounds, n_z, e_test, QdsParams(c_sig=c_sig, c_test=c_test)).secure
    except InsecureChannelError:
        return False


def multisig_comparison(
    model,
    intensities: IntensitySet,
    mode: str,
    n_pulses_total: int,
    eps_decoy: float = 1e-11,
) -> MultisigComparison:
    """Signatures from one acquisition: multi-block protocol vs baseline.

    Both protocols get the ``QdsParams`` default budgets per signature; the
    multi-block side conservatively charges its shared decoy and test
    estimates in full against every signature.  The baseline's acquisition
    size is the transition to a signable single block that bisection reaches:
    expected-value tables are rounded to integers, so signability is not
    monotone and a smaller signable size may exist.  The probes' LPs run in one
    ``reuse_bases`` block: each decoy LP is loaded into HiGHS once and re-solved in place
    with every later probe's right-hand sides, so a bound may differ from a cold solve's
    in its last bits.  The baseline's bisection starts at the larger of 1,000 pulses and the
    smallest budget that sends pulses in every X-basis entry; ConfigError when
    ``n_pulses_total`` does not, or when ``mode`` is not "QKD" or "MDI".
    """
    senders = parse_mode(mode)
    n_pulses_total = check_count(n_pulses_total, "n_pulses_total", 1)
    eps_decoy = check_real(eps_decoy, "eps_decoy", 0, 1, low_open=True, high_open=True)

    def fills_x(n_pulses: int) -> bool:  # monotone: each entry is a rounded multiple of n_pulses
        return all(sent for (_, basis), sent in entry_budgets(n_pulses, intensities, senders).items() if basis == "X")

    b_fill = min_feasible_acquisition(fills_x, 1, n_pulses_total)  # the smallest such budget
    if b_fill is None:
        raise ConfigError(f"n_pulses_total: {n_pulses_total} pulses leave an X-basis entry with none sent")
    link = "AB" if senders == 2 else "AC"

    def pool_stats(n_pulses: int):
        """Decoy bounds, Z pool size and test QBER of one acquisition."""
        table = expected_table(model, intensities, n_pulses, link)
        z_rec = table.z_entry()
        e_test = z_rec.errors / z_rec.detected if z_rec.detected else 0.0
        return estimate_bounds(table, intensities, eps_decoy, mode), z_rec.detected, e_test

    def block_signable(c_sig: int) -> bool:
        return _block_signable(bounds, n_z, e_test, c_sig, c_test)

    def acquisition_signable(n_pulses: int) -> bool:
        # the baseline spends its whole pool, less the test sample, on one block;
        # its first probe is the full acquisition, whose pool is already known
        sub_bounds, sub_z, sub_e_test = full if n_pulses == n_pulses_total else pool_stats(n_pulses)
        sub_test = int(sub_z * TEST_FRACTION)
        return _block_signable(sub_bounds, sub_z, sub_e_test, sub_z - sub_test, sub_test)

    with reuse_bases():
        bounds, n_z, e_test = full = pool_stats(n_pulses_total)
        c_test = int(n_z * TEST_FRACTION)
        c_sig_min = min_feasible_acquisition(block_signable, 1, n_z - c_test)
        if c_sig_min is None:
            return MultisigComparison(0, 0, 0, None, 0.0)
        b_min = min_feasible_acquisition(acquisition_signable, max(1000, b_fill), n_pulses_total)
    n_multi = n_blocks(n_z, c_test, c_sig_min)
    n_baseline = n_pulses_total // b_min if b_min else 0
    return MultisigComparison(n_multi, n_baseline, c_sig_min, b_min, n_multi / n_baseline if n_baseline else math.inf)
