"""Plain forms of what ``qkdnet`` computes in packed or vectorised form, kept as the tests' references."""

import math

import numpy as np

from qkdnet import mathkit
from qkdnet.channel import X_LABELS, CountRecord, YieldModel, outcome_law, sift_keep
from qkdnet.decoy import CountTable
from qkdnet.keyrate import entry_budgets


def widen_counts(record: CountRecord, eps: float, numerator: str = "detected") -> tuple[float, float]:
    """Two-sided Hoeffding interval for a per-pulse rate, one record at a time.

    Returns ``observed/sent -/+ sqrt(ln(2/eps) / (2 sent))`` clamped to
    [0, 1].  ``numerator`` selects the detection or the error tally.
    ``eps`` up to 2 is accepted; eps = 2 degenerates to a zero-width
    interval.  ``decoy._widen_rates`` is this, for a whole table at once.
    """
    if record.sent < 1:
        raise ValueError("cannot widen a record with zero sent pulses")
    if not 0.0 < eps <= 2.0:
        raise ValueError(f"eps must be in (0, 2], got {eps!r}")
    if numerator not in ("detected", "errors"):
        raise ValueError(f"numerator must be 'detected' or 'errors', got {numerator!r}")
    count = getattr(record, numerator)
    p_hat = count / record.sent
    delta = math.sqrt(math.log(2.0 / eps) / (2.0 * record.sent))
    return max(0.0, p_hat - delta), min(1.0, p_hat + delta)


def colwise(rows) -> tuple:
    """An ``LpRows``' column-wise matrix, the CSC arrays HiGHS loads, as ``(start, index, value)`` tuples."""
    return tuple(tuple(array.tolist()) for array in rows.csc)


def sample_counts(
    model: YieldModel,
    mu: float,
    nu: float | None = None,
    n_pulses: int = 0,
    seed: int = 0,
    basis: str = "X",
    gain_factor: float = 1.0,
) -> CountRecord:
    """Draw a finitely-sampled :class:`CountRecord` for one configuration.

    One multinomial draw of ``n_pulses`` over :func:`outcome_law` with
    ``keep=gain_factor`` (the sifting acceptance, :func:`sift_keep`), from a
    generator seeded with ``seed``: same seed, same record.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be >= 0")
    law = outcome_law(model, mu, nu, basis, keep=gain_factor)
    if n_pulses == 0:
        return CountRecord(0, 0, 0)
    errors, correct, _, _ = np.random.default_rng(seed).multinomial(n_pulses, law).tolist()
    return CountRecord(sent=int(n_pulses), detected=errors + correct, errors=errors)


def entry_budgets_per_mode(n_pulses: int, intensities, mode: str) -> dict:
    """``keyrate.entry_budgets`` written out for each mode: the Z-basis signal entry, then the X entries."""
    z = intensities.z_basis_prob
    xp = intensities.x_probs().tolist()
    budgets = {}
    if mode == "QKD":
        budgets[(("s",), "Z")] = round(n_pulses * z)
        for label, p in zip(X_LABELS, xp):
            budgets[((label,), "X")] = round(n_pulses * (1.0 - z) * p)
    else:
        budgets[(("s", "s"), "Z")] = round(n_pulses * z * z)
        for la, pa in zip(X_LABELS, xp):
            for lb, pb in zip(X_LABELS, xp):
                budgets[((la, lb), "X")] = round(n_pulses * (1.0 - z) ** 2 * pa * pb)
    return budgets


def synthesize_per_entry(model, intensities, n_pulses: int, mode: str, link: str, seed: int) -> CountTable:
    """The count table ``keyrate.synthesize_table`` draws, from the same law, drawn entry by entry:
    one :func:`sample_counts` generator per entry, seeded from ``SeedSequence(seed).generate_state``."""
    table = CountTable(link=link)
    budgets = entry_budgets(n_pulses, intensities, mode)
    seeds = np.random.SeedSequence(seed).generate_state(len(budgets) + 1)
    for i, ((key, basis), sent) in enumerate(sorted(budgets.items())):
        mus = [intensities.mu(label) for label in key]
        rec = sample_counts(
            model, *mus, n_pulses=sent, seed=int(seeds[i]), basis=basis,
            gain_factor=sift_keep(mode, basis),
        )
        table.add(key, basis, rec)
    return table


def list_built_linprog(c, rows, b) -> tuple:
    """``(status, value, simplex iterations)`` of ``mathkit.linprog``'s cold solve of ``rows`` (an ``LpRows``),
    its model built as a ``HighsLp`` from Python lists on a fresh solver, with the rows' start if they have one."""
    n, m = len(c), len(b)
    matrix = mathkit._highs.HighsSparseMatrix()
    matrix.format_, matrix.num_row_, matrix.num_col_ = mathkit._highs.MatrixFormat.kColwise, m, n
    matrix.start_, matrix.index_, matrix.value_ = colwise(rows)
    lp = mathkit._highs.HighsLp()
    lp.num_col_, lp.num_row_, lp.a_matrix_ = n, m, matrix
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = list(c), [0.0] * n, [1.0] * n
    lp.row_lower_, lp.row_upper_ = [-math.inf] * m, list(b)
    highs = mathkit._highs._Highs()
    highs.passOptions(mathkit._OPTIONS)
    highs.passModel(lp)
    if rows.basis is not None:
        highs.setBasis(rows.basis)
    highs.run()
    return highs.getModelStatus(), highs.getObjectiveValue(), highs.getInfo().simplex_iteration_count
