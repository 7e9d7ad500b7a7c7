"""Plain forms of what ``qkdnet`` computes in packed or vectorised form, kept as the tests' references."""

import math

from qkdnet.channel import CountRecord


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
    """An ``LpRows``' HiGHS matrix as ``(start, index, value)`` tuples."""
    return tuple(rows.matrix.start_), tuple(rows.matrix.index_), tuple(rows.matrix.value_)
