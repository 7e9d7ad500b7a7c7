"""Experiment harnesses built on the analysis stack.

The centrepiece compares the multi-signature-per-block protocol against the
classical one-signature-per-acquisition baseline on the same synthetic pool
and equal per-signature failure budgets: the baseline pays the full
statistical fluctuation (decoy widening plus QBER sampling) once per
signature, the multi-block protocol pays it once per acquisition and only a
Serfling sampling penalty per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import CountRecord, IntensitySet, outcome_law, sift_keep
from .decoy import CountTable, estimate_bounds, restrict_to_block
from .keyrate import entry_budgets
from .qds import InsecureChannelError, QdsParams, distill_report, n_blocks

__all__ = ["MultisigComparison", "expected_table", "min_feasible_acquisition", "multisig_comparison"]


def expected_table(model, intensities: IntensitySet, n_pulses: int, mode: str, link: str) -> CountTable:
    """Deterministic count table at the expected values (no sampling noise).

    Splits the pulse budget and reads the outcome law exactly as
    :func:`keyrate.synthesize_table` does.  Entries are rounded to integers,
    so the table is not monotone in the pulse budget.
    """
    table = CountTable(link=link)
    for (key, basis), sent in entry_budgets(n_pulses, intensities, mode).items():
        mus = [intensities.mu(label) for label in key]
        err, correct, _, _ = outcome_law(model, *mus, basis=basis, keep=sift_keep(mode, basis))
        detected = round(sent * (err + correct))
        errors = round(detected * err / (err + correct)) if detected else 0
        table.add(key, basis, CountRecord(sent, detected, errors))
    return table


def min_feasible_acquisition(feasible, lo: int, hi: int) -> int | None:
    """A size in [lo, hi] accepted by ``feasible`` whose predecessor is not, by bisection.

    None when ``hi`` fails, ``lo`` when it passes.  ``feasible`` need not be
    monotone; the transition returned is the one the probes reach, not
    necessarily the smallest feasible size.  Backs the baseline of one
    signature per acquisition that multi-signature is compared against.
    """
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
    params = QdsParams(c_sig=c_sig, c_test=c_test)
    block = restrict_to_block(bounds, c_sig, n_z, params.eps_h)
    try:
        report = distill_report(
            block.s1_lower,
            block.eph_upper,
            e_test,
            pool_size=n_z,
            params=params,
            total_time_s=1.0,
            duty_fraction=1.0,
            epsilon_inherited=block.epsilon_spent,
        )
    except InsecureChannelError:
        return False
    return report.secure


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
    monotone and a smaller signable size may exist.
    """
    link = "AB" if mode == "MDI" else "AC"

    def pool_stats(n_pulses: int):
        """Decoy bounds, Z pool size and test QBER of one acquisition."""
        table = expected_table(model, intensities, n_pulses, mode, link)
        z_rec = table.z_entry()
        e_test = z_rec.errors / z_rec.detected if z_rec.detected else 0.0
        return estimate_bounds(table, intensities, eps_decoy, mode), z_rec.detected, e_test

    bounds, n_z, e_test = full = pool_stats(n_pulses_total)
    c_test = int(n_z * TEST_FRACTION)

    def block_signable(c_sig: int) -> bool:
        return _block_signable(bounds, n_z, e_test, c_sig, c_test)

    c_sig_min = min_feasible_acquisition(block_signable, 1, n_z - c_test)
    if c_sig_min is None:
        return MultisigComparison(0, 0, 0, None, 0.0)
    n_multi = n_blocks(n_z, c_test, c_sig_min)

    def acquisition_signable(n_pulses: int) -> bool:
        # the baseline spends its whole pool, less the test sample, on one block;
        # its first probe is the full acquisition, whose pool is already known
        sub_bounds, sub_z, sub_e_test = full if n_pulses == n_pulses_total else pool_stats(n_pulses)
        sub_test = int(sub_z * TEST_FRACTION)
        return _block_signable(sub_bounds, sub_z, sub_e_test, sub_z - sub_test, sub_test)

    b_min = min_feasible_acquisition(acquisition_signable, 1000, n_pulses_total)
    n_baseline = n_pulses_total // b_min if b_min else 0
    ratio = n_multi / n_baseline if n_baseline else math.inf
    return MultisigComparison(
        n_multi=n_multi,
        n_baseline=n_baseline,
        c_sig_multi=c_sig_min,
        min_acquisition_pulses=b_min,
        ratio=ratio,
    )
