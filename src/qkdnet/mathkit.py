"""Numerical kernels shared by the analysis stack.

Binary entropy and its inverse, the Serfling and Hoeffding concentration terms, Poisson
photon-number statistics, and a small linear-program wrapper over the unit box that drives
scipy's bundled HiGHS binding directly.  Everything here is a pure function of its inputs,
save the last bits of an LP value re-solved inside a ``reuse_bases`` block or started from
an ``LpRows`` start, not from ``scipy.optimize.linprog``'s all-slack basis.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import threading
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

# scipy's HiGHS binding (shipped from 1.15 on), loaded from its file: the usual
# import runs the whole scipy.optimize package init, most of qkdnet's start-up.
# It is registered under its full name, so `import scipy.optimize` reuses it.
_HIGHS = "scipy.optimize._highspy._core"
if _HIGHS not in sys.modules:
    _spec = PathFinder.find_spec(_HIGHS, [os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")])
    if _spec is not None:
        sys.modules[_HIGHS] = module_from_spec(_spec)
        _spec.loader.exec_module(sys.modules[_HIGHS])
_highs = sys.modules.get(_HIGHS)
if _highs is None:
    raise ImportError(f"qkdnet needs scipy >= 1.15 for its HiGHS binding, found {scipy.__version__}")

__all__ = [
    "binary_entropy",
    "inv_binary_entropy",
    "serfling_deviation",
    "hoeffding_exponent_bound",
    "hoeffding_exponent_log",
    "probability_from_log",
    "poisson_pmf",
    "poisson_weights",
    "LpInfeasibleError",
    "LpRows",
    "solve_bounded_lp",
    "reuse_bases",
    "ConfigError",
    "check_probability",
    "check_count",
    "check_real",
    "check_weights",
]

#: absolute tolerance of the inverse-entropy bisection
INV_ENTROPY_TOL = 1e-9


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` lies in [0, 1] and return it."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


class ConfigError(ValueError):
    """An input from outside the program is malformed; the message starts with the argument's name."""


def check_count(value, name: str, low: int = 0) -> int:
    """``value`` as an integer >= ``low``; an integral float such as 1e7 counts as one."""
    try:
        if value == int(value) >= low and not isinstance(value, (bool, np.bool_)):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name}: expected an integer >= {low}, got {value!r}")


def check_real(value, name: str, low=-math.inf, high=math.inf, low_open=False, high_open=False) -> float:
    """``value`` as a float: finite, not a bool, in [low, high], an end open when its ``*_open`` flag is set."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not (math.isfinite(x) and (low < x if low_open else low <= x) and (x < high if high_open else x <= high)):
        opening = "(" if low_open or low == -math.inf else "["
        closing = ")" if high_open or high == math.inf else "]"
        raise ConfigError(f"{name}: got {value!r}; {name} must be in {opening}{low:g}, {high:g}{closing}")
    return x


def check_weights(value, name: str) -> tuple:
    """``value``, a list, tuple or 1-D array of three non-negative numbers with a finite positive sum, as floats."""
    items = value.tolist() if isinstance(value, np.ndarray) else value
    if isinstance(items, (list, tuple)) and len(items) == 3:
        weights = tuple(check_real(x, name, 0.0) for x in items)
        if 0.0 < sum(weights) < math.inf:
            return weights
    raise ConfigError(f"{name}: expected three non-negative numbers with a positive sum, got {value!r}")


def _entropy(p: float) -> float:
    """Binary entropy of a ``p`` already known to lie in [0, 1]."""
    if p == 0.0 or p == 1.0:
        return 0.0
    # log1p keeps the (1-p) branch accurate for p close to 0
    return -(p * math.log2(p) + (1.0 - p) * math.log1p(-p) / math.log(2.0))


def binary_entropy(p: float) -> float:
    """Binary entropy h(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0."""
    return _entropy(check_probability(p, "p"))


def inv_binary_entropy(y: float) -> float:
    """Inverse of :func:`binary_entropy` on [0, 1/2], erring low.

    Bisection returning its bracket's lower end p, so binary_entropy(p) <= y;
    unless float resolution runs out, p lies within ``INV_ENTROPY_TOL`` of
    the inverse and binary_entropy(p) within 1e-10 of y.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"entropy value must be in [0, 1], got {y!r}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi, h_lo = 0.0, 0.5, 0.0
    # Invariant h(lo) < y <= h(hi).  Converge in both coordinates: tiny
    # entropy values need p resolved far below the nominal tolerance (the
    # slope diverges at p = 0).
    for _ in range(1100):
        if hi - lo <= INV_ENTROPY_TOL and y - h_lo <= 1e-10:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # float resolution exhausted
            break
        h_mid = _entropy(mid)
        if h_mid < y:
            lo, h_lo = mid, h_mid
        else:
            hi = mid
    return lo


def serfling_deviation(c_sig: int, c_test: int, eps: float) -> float:
    """Random-sampling-without-replacement deviation term.

    Returns ``sqrt((c_sig+1)(c_sig+c_test) ln(1/eps) / (2 c_test c_sig^2))``,
    the additive penalty when a rate measured on ``c_test`` samples is
    transferred to a disjoint block of ``c_sig`` samples drawn from the same
    finite population.
    """
    if c_sig < 1 or c_test < 1:
        raise ValueError("c_sig and c_test must be >= 1")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps!r}")
    # -ln(eps) only where 1/eps overflows (subnormal eps): other values keep their bits
    log_inv_eps = math.log(1.0 / eps) if 1.0 / eps < math.inf else -math.log(eps)
    num = (c_sig + 1.0) * (c_sig + c_test) * log_inv_eps
    den = 2.0 * c_test * float(c_sig) ** 2
    return math.sqrt(num / den)


def hoeffding_exponent_log(delta: float, n: int) -> float:
    """Natural log of the Hoeffding tail bound, ``-2 delta^2 n`` (exact)."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    return -2.0 * delta * delta * n


def hoeffding_exponent_bound(delta: float, n: int) -> float:
    """Hoeffding tail bound exp(-2 delta^2 n), clamped to [0, 1].

    For exponents below the float underflow threshold the returned value is
    0.0; use :func:`hoeffding_exponent_log` for the exact log-space value.
    """
    return probability_from_log(hoeffding_exponent_log(delta, n))


def probability_from_log(log_p: float) -> float:
    """exp(log_p) clamped to [0, 1]; 0.0 below the float underflow threshold."""
    if log_p < -745.0:  # exp underflows to 0.0 below this
        return 0.0
    return min(1.0, math.exp(log_p))


def poisson_pmf(mu: float, n: int) -> float:
    """Poisson pmf e^-mu mu^n / n!, evaluated in log space for stability."""
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n!r}")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))


def poisson_weights(mu: float, n_cut: int) -> tuple[np.ndarray, float]:
    """Poisson pmf over photon numbers 0..n_cut and the mass beyond the cutoff."""
    pmf = np.array([poisson_pmf(mu, k) for k in range(n_cut + 1)])
    return pmf, max(0.0, 1.0 - pmf.sum())


# exactly what scipy.optimize.linprog(method="highs") passes for these settings
_OPTIONS = _highs.HighsOptions()
_OPTIONS.presolve = "off"
_OPTIONS.primal_feasibility_tolerance = 1e-10
_OPTIONS.dual_feasibility_tolerance = 1e-10
_OPTIONS.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
_STATUS = _highs.HighsModelStatus
_COLWISE, _MINIMIZE = int(_highs.MatrixFormat.kColwise), int(_highs.ObjSense.kMinimize)


class _ThreadState(threading.local):  # one solver per thread: another could take its model between passModel and run
    highs = bases = None  # bases, in a reuse_bases block: {(LpRows, objective bytes): (own solver at an optimum, b_ub)}


_THREAD = _ThreadState()


class LpRows:
    """Constraint rows built once for many solves: a read-only copy of ``a``, whether it is finite,
    and the read-only arrays HiGHS loads it from: ``csc`` = (start, index, value), its column-wise
    matrix with nonzeros in scipy's CSC order, and ``bounds`` = (column lower, column upper, row
    lower, integrality), the unit box, rows free below and every column continuous.
    Array-like, so it goes wherever ``a_ub`` does.  A column mask ``upper`` fixes every cold solve's
    start: masked columns nonbasic at 1, the others at 0, every row basic; dual feasible for an
    objective that is 0 on the masked columns and >= 0 on the others.  Without one, HiGHS starts
    all-slack."""

    def __init__(self, a, upper=None):
        self.a = np.array(a, dtype=float)
        self.a.flags.writeable = False
        self.finite = bool(np.isfinite(self.a).all())
        m, n = self.a.shape
        nonzero = self.a.T != 0.0
        start = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(nonzero.sum(axis=1), out=start[1:])
        self.csc = start, np.nonzero(nonzero)[1].astype(np.int32), self.a.T[nonzero]
        # integrality takes n zeros: an empty array makes passModel fail
        self.bounds = np.zeros(n), np.ones(n), np.full(m, -math.inf), np.zeros(n, dtype=np.int32)
        for array in (*self.csc, *self.bounds):
            array.flags.writeable = False
        self.basis = None
        if upper is not None:
            status = _highs.HighsBasisStatus
            self.basis = basis = _highs.HighsBasis()
            basis.col_status = [status.kUpper if up else status.kLower for up in upper]
            basis.row_status, basis.valid = [status.kBasic] * m, True

    def __array__(self, dtype=None, copy=None):
        return np.array(self.a, dtype=dtype, copy=copy)


def linprog(c, a_ub, b_ub):
    """``(model status, objective)`` of min ``c @ x`` s.t. ``a_ub @ x <= b_ub`` over the unit box.

    The objective means something only at ``kOptimal``.  One presolve-off solve on the
    thread's solver, whose ``passModel`` drops the last model and basis, so outside a
    :func:`reuse_bases` block no value depends on call order.  A cold solve loads the model
    from the rows' arrays (HiGHS's array ``passModel``), bit for bit the model a ``HighsLp``
    built from lists gives.  An :class:`LpRows` ``a_ub`` spares rebuilding those arrays and
    checks, sets its start, if any, on a cold solve, and inside a block is re-solved in place.
    """
    c, a, b = (np.asarray(v, dtype=float) for v in (c, a_ub, b_ub))
    a = a.reshape(0, c.size) if a.size == 0 else a
    if c.ndim != 1 or a.ndim != 2 or a.shape[1] != c.size or b.shape != (a.shape[0],):
        raise ValueError(f"LP shapes do not match: c {c.shape}, a_ub {a.shape}, b_ub {b.shape}")
    rows = a_ub if isinstance(a_ub, LpRows) else LpRows(a)
    if not (rows.finite and np.isfinite(c).all() and np.isfinite(b).all()):
        raise ValueError("LP data must be finite")
    bases = _THREAD.bases
    key = (a_ub, c.tobytes()) if bases is not None and rows is a_ub else None
    if key is not None and key in bases:
        highs, last = bases.pop(key)
        for row in np.flatnonzero(b != last).tolist():
            highs.changeRowBounds(row, -math.inf, b[row])
        highs.run()  # from the kept basis and factorization
        status = highs.getModelStatus()
        if status == _STATUS.kOptimal:
            bases[key] = highs, b.copy()
        if status in (_STATUS.kOptimal, _STATUS.kInfeasible):
            return status, highs.getObjectiveValue()
        key = None  # solved cold once below, and kept by no key
    highs = _THREAD.highs
    if highs is None:
        highs = _THREAD.highs = _highs._Highs()
        highs.passOptions(_OPTIONS)
    (start, index, value), (col_lower, col_upper, row_lower, integrality) = rows.csc, rows.bounds
    if highs.passModel(c.size, b.size, value.size, _COLWISE, _MINIMIZE, 0.0, c, col_lower, col_upper,
                       row_lower, b, start, index, value, integrality) == _highs.HighsStatus.kError:
        return _STATUS.kModelError, math.nan
    if rows.basis is not None:
        highs.setBasis(rows.basis)
    highs.run()
    if key is not None and highs.getModelStatus() == _STATUS.kOptimal:
        bases[key], _THREAD.highs = (highs, b.copy()), None  # the key keeps the loaded solver
    return highs.getModelStatus(), highs.getObjectiveValue()  # getInfo() would copy all of info


@contextlib.contextmanager
def reuse_bases():
    """A thread's block in which :func:`linprog` keeps each :class:`LpRows` LP solved to optimality loaded
    on a HiGHS solver of its own, keyed by rows and objective.  A later solve of the key changes only the
    moved ``b_ub`` entries and runs from the kept basis and factorization; that basis is dual feasible for
    any ``b_ub``, so the re-solve ends at a certified optimum, within HiGHS's tolerances of a cold solve.  A
    re-solve not ending optimal drops its solver; one neither optimal nor infeasible is solved cold once.
    Leaving the block frees its solvers; a nested block starts empty."""
    outer, _THREAD.bases = _THREAD.bases, {}
    try:
        yield
    finally:
        _THREAD.bases = outer


class LpInfeasibleError(ValueError):
    """The constraint set admits no feasible point."""


def solve_bounded_lp(objective, a_ub, b_ub, sense: str = "min") -> float:
    """Optimum of ``objective @ x`` subject to ``a_ub @ x <= b_ub`` over the unit box.

    Every variable lies in [0, 1], so the optimum is always finite.  Raises
    :class:`LpInfeasibleError` when no point of the box meets the rows and
    ``RuntimeError`` on any other solver failure; never silently returns
    garbage.
    """
    c = np.asarray(objective, dtype=float)
    if not 1 <= c.size <= 200:
        raise ValueError(f"expected 1..200 variables, got {c.size}")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    sign = 1.0 if sense == "min" else -1.0
    status, value = linprog(sign * c, a_ub, b_ub)
    if status == _STATUS.kInfeasible:
        raise LpInfeasibleError("constraints admit no feasible point")
    if status != _STATUS.kOptimal:
        raise RuntimeError(f"LP solver failed: HiGHS model status {status.name}")
    return float(sign * value)
