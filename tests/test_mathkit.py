import collections
import contextlib
import itertools
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog
from scipy.optimize._highspy._core import HighsModelStatus
from scipy.stats import entropy as scipy_entropy
from scipy.stats import poisson as scipy_poisson

from qkdnet import decoy, mathkit
from qkdnet.channel import ChannelParams, IntensitySet, mdi_yield_model, qkd_yield_model
from qkdnet.cli import load_network, load_preset
from qkdnet.decoy import estimate_bounds
from qkdnet.experiments import expected_table, multisig_comparison
from qkdnet.keyrate import synthesize_table
from qkdnet.mathkit import (
    ConfigError,
    LpInfeasibleError,
    binary_entropy,
    check_count,
    check_real,
    hoeffding_exponent_bound,
    hoeffding_exponent_log,
    inv_binary_entropy,
    poisson_pmf,
    poisson_weights,
    probability_from_log,
    reuse_bases,
    serfling_deviation,
    solve_bounded_lp,
)


def _exact_entropy(p: float):
    """h(p) at 50 digits; log1p keeps the (1 - p) term, which ``1 - q``
    would round away for p below 1e-50."""
    with mpmath.workdps(50):
        if p in (0.0, 1.0):
            return mpmath.mpf(0)
        q = mpmath.mpf(p)
        return -(q * mpmath.log(q) + (1 - q) * mpmath.log1p(-q)) / mpmath.log(2)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_paper_chain_value(self):
        # scipy's Shannon entropy is the independent oracle
        oracle = scipy_entropy([0.053, 0.947], base=2)
        assert oracle == pytest.approx(0.2990, abs=1e-4)
        assert binary_entropy(0.053) == pytest.approx(oracle, abs=1e-12)

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.3, 0.49):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    @settings(max_examples=300)
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_matches_closed_form_at_50_digits(self, p):
        # a few ulps relative; subnormal p may lose up to a few subnormal ulps
        exact = _exact_entropy(p)
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(binary_entropy(p)) - exact) <= 1e-15 * exact + 1e-322


class TestInvBinaryEntropy:
    def test_trivials(self):
        assert inv_binary_entropy(1.0) == 0.5
        assert inv_binary_entropy(0.0) == 0.0

    def test_paper_chain_value(self):
        # input is the attacker-floor equation's right-hand side built from
        # the published block values; the published root is 0.0286
        assert inv_binary_entropy(0.18685) == pytest.approx(0.0286, abs=5e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            inv_binary_entropy(-0.01)
        with pytest.raises(ValueError):
            inv_binary_entropy(1.01)

    @settings(max_examples=200)
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_round_trip(self, y):
        p = inv_binary_entropy(y)
        assert 0.0 <= p <= 0.5
        assert binary_entropy(p) == pytest.approx(y, abs=1e-8)

    @settings(max_examples=300)
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_errs_low_in_exact_arithmetic(self, y):
        # the attacker floor inverts the entropy, so the result must never
        # overshoot: h(p) <= y holds for the exact entropy of the returned p
        p = inv_binary_entropy(y)
        assert _exact_entropy(p) <= mpmath.mpf(y)


class TestProbabilityFromLog:
    def test_clamps(self):
        assert probability_from_log(-745.0001) == 0.0
        assert probability_from_log(-700.0) == math.exp(-700.0)
        assert probability_from_log(-0.5) == math.exp(-0.5)
        assert probability_from_log(0.5) == 1.0

    def test_hoeffding_bound_reads_it(self):
        for delta, n in ((0.01, 10**4), (0.1, 10**6), (0.0, 5)):
            assert hoeffding_exponent_bound(delta, n) == probability_from_log(-2.0 * delta * delta * n)


class TestSerflingDeviation:
    def test_paper_mdi_inputs(self):
        # frozen from the closed form; adds to the published 0.0085 with the
        # 0.005 test rate
        value = serfling_deviation(2_500_000, 1_714_426, 2e-11)
        assert value == pytest.approx(0.0034801964375415417, rel=1e-12)
        assert value == pytest.approx(0.00348, abs=5e-5)

    def test_paper_qkd_inputs(self):
        value = serfling_deviation(150_000, 46_979_354, 2e-11)
        assert value == pytest.approx(0.00907636333502557, rel=1e-12)
        assert value == pytest.approx(0.00908, abs=5e-5)

    def test_trivial_eps_one(self):
        assert serfling_deviation(123, 456, 1.0) == 0.0

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            serfling_deviation(0, 10, 0.5)
        with pytest.raises(ValueError):
            serfling_deviation(10, 0, 0.5)

    @settings(max_examples=100)
    @given(
        st.integers(min_value=1, max_value=10**7),
        st.integers(min_value=1, max_value=10**7),
        st.floats(min_value=1e-12, max_value=0.99),
    )
    def test_monotone_in_test_size_and_eps(self, c_sig, c_test, eps):
        base = serfling_deviation(c_sig, c_test, eps)
        assert serfling_deviation(c_sig, c_test * 2, eps) <= base
        assert serfling_deviation(c_sig, c_test, min(0.999, eps * 2)) <= base

    @settings(max_examples=300)
    @given(
        st.integers(min_value=1, max_value=10**15),
        st.integers(min_value=1, max_value=10**15),
        st.floats(min_value=5e-324, max_value=1.0),
    )
    def test_matches_closed_form_at_50_digits(self, c_sig, c_test, eps):
        value = serfling_deviation(c_sig, c_test, eps)
        with mpmath.workdps(50):
            exact = mpmath.sqrt(
                (c_sig + 1)
                * mpmath.mpf(c_sig + c_test)
                * mpmath.log(1 / mpmath.mpf(eps))
                / (2 * c_test * mpmath.mpf(c_sig) ** 2)
            )
            log_term = mpmath.log(1 / mpmath.mpf(eps))
            if log_term == 0:
                assert value == 0.0
                return
            # 1/eps is rounded before its log, which costs relative accuracy
            # as eps -> 1; elsewhere the error is a few ulps
            assert abs(mpmath.mpf(value) - exact) <= 1e-15 * (1 + 1 / log_term) * exact

    def test_finite_for_subnormal_eps(self):
        # 1/eps overflows to inf below 2**-1024; the logarithm does not
        assert serfling_deviation(1, 1, 5e-324) == pytest.approx(38.586009690595924, rel=1e-15)


class TestHoeffdingBound:
    def test_trivials(self):
        assert hoeffding_exponent_bound(0.0, 1000) == 1.0
        assert hoeffding_exponent_bound(0.1, 0) == 1.0

    def test_abort_forge_scale(self):
        # the published threshold gap over one signature block; confirms the
        # "far below any set threshold" margin
        value = hoeffding_exponent_bound(0.0067, 2_500_000)
        assert value == pytest.approx(math.exp(-224.445), rel=1e-9)
        assert value < 1e-90

    def test_log_form_exact_below_underflow(self):
        assert hoeffding_exponent_bound(0.5, 10**9) == 0.0
        assert hoeffding_exponent_log(0.5, 10**9) == -2 * 0.25 * 10**9

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            hoeffding_exponent_bound(-0.1, 10)


class TestCheckCount:
    def test_integral_float_counts_as_an_integer(self):
        assert check_count(1e7, "slots") == 10_000_000
        assert type(check_count(1e7, "slots")) is int
        assert check_count(np.int64(5), "seed") == 5
        assert check_count(0, "slots") == 0

    @pytest.mark.parametrize("value", [True, np.True_, math.nan, math.inf, "1", None, [1], 1.5, -1])
    def test_refuses_what_is_not_a_count(self, value):
        with pytest.raises(ConfigError, match=r"^seed: expected an integer >= 0, got "):
            check_count(value, "seed")

    def test_lower_bound(self):
        assert check_count(1, "c_sig", low=1) == 1
        with pytest.raises(ConfigError, match=r"^c_sig: expected an integer >= 1, got 0$"):
            check_count(0, "c_sig", low=1)


class TestCheckReal:
    def test_returns_a_float(self):
        value = check_real(90000, "total_time_s", 0.0)
        assert value == 90000.0 and type(value) is float
        assert check_real(np.float32(0.5), "e_test", 0.0, 1.0) == 0.5

    @pytest.mark.parametrize("value", [True, "1", "nan", None, [0.5]])
    def test_refuses_what_is_not_a_number(self, value):
        with pytest.raises(ConfigError, match=r"^e_test: expected a number, got "):
            check_real(value, "e_test", 0.0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_refuses_what_is_not_finite(self, value):
        with pytest.raises(ConfigError, match=r"^total_time_s: got .*; total_time_s must be in \[0, inf\)$"):
            check_real(value, "total_time_s", 0.0)

    def test_closed_and_open_ends(self):
        assert check_real(0, "eph", 0.0, 0.5) == 0.0
        assert check_real(0.5, "eph", 0.0, 0.5) == 0.5
        assert check_real(1, "duty", 0.0, 1.0, low_open=True) == 1.0
        with pytest.raises(ConfigError, match=r"^duty: got 0; duty must be in \(0, 1\]$"):
            check_real(0, "duty", 0.0, 1.0, low_open=True)
        with pytest.raises(ConfigError, match=r"^eps_h: got 1.0; eps_h must be in \(0, 1\)$"):
            check_real(1.0, "eps_h", 0.0, 1.0, low_open=True, high_open=True)
        with pytest.raises(ConfigError, match=r"^eph: got -1e-300; eph must be in \[0, 0.5\]$"):
            check_real(-1e-300, "eph", 0.0, 0.5)

    def test_config_error_is_a_value_error(self):
        # library callers that catch ValueError keep catching a malformed argument
        assert issubclass(ConfigError, ValueError)


class TestPoissonPmf:
    def test_vacuum(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 1) == 0.0

    def test_closed_form(self):
        assert poisson_pmf(0.5, 1) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)
        assert poisson_pmf(0.5, 1) == pytest.approx(0.3033, abs=1e-4)

    def test_matches_scipy(self):
        for mu in (0.02, 0.1, 0.5, 1.0, 4.0):
            for n in range(20):
                assert poisson_pmf(mu, n) == pytest.approx(
                    scipy_poisson.pmf(n, mu), rel=1e-10, abs=1e-300
                )

    @settings(max_examples=50)
    @given(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    def test_normalisation(self, mu):
        n_max = int(mu + 20 * math.sqrt(mu) + 20)
        total = sum(poisson_pmf(mu, n) for n in range(n_max + 1))
        assert 1.0 - total < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1.0, 0)


class TestPoissonWeights:
    @pytest.mark.parametrize("mu", [0.0, 0.02, 0.1, 0.5, 0.8, 2.0])
    @pytest.mark.parametrize("n_cut", [0, 1, 12])
    def test_matches_pmf_term_by_term(self, mu, n_cut):
        pmf, _ = poisson_weights(mu, n_cut)
        assert pmf.shape == (n_cut + 1,)
        for n in range(n_cut + 1):
            assert pmf[n] == poisson_pmf(mu, n)

    @pytest.mark.parametrize("mu", [0.0, 0.02, 0.1, 0.5, 0.8, 2.0])
    @pytest.mark.parametrize("n_cut", [0, 1, 12])
    def test_tail_completes_the_mass(self, mu, n_cut):
        pmf, tail = poisson_weights(mu, n_cut)
        assert tail >= 0.0
        assert pmf.sum() + tail == pytest.approx(1.0, rel=0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            poisson_weights(-1.0, 0)


def _brute_force_optimum(objective, a_ub, b_ub, sense):
    """Vertex enumeration oracle for tiny LPs over the unit box: intersect
    every choice of n active constraints (rows of ``a_ub`` and box faces),
    keep feasible points, and scan the objective."""
    c = np.asarray(objective, dtype=float)
    n = c.size
    rows = np.vstack([a_ub, -np.eye(n), np.eye(n)])
    rhs = np.concatenate([b_ub, np.zeros(n), np.ones(n)])
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        a = rows[list(combo)]
        b = rhs[list(combo)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if np.all(rows @ x <= rhs + 1e-9):
            val = c @ x
            if best is None:
                best = val
            else:
                best = min(best, val) if sense == "min" else max(best, val)
    return best


class TestSolveBoundedLp:
    def test_single_variable_max(self):
        assert solve_bounded_lp([1.0], [[1.0]], [0.3], "max") == pytest.approx(0.3, rel=1e-8)

    def test_two_variable_min(self):
        # x + 2y >= 2 on the unit box: the cheapest point is (0, 1)
        assert solve_bounded_lp([1.0, 1.0], [[-1.0, -2.0]], [-2.0], "min") == pytest.approx(
            1.0, rel=1e-8
        )

    def test_infeasible(self):
        # x >= 2 leaves the unit box
        with pytest.raises(LpInfeasibleError):
            solve_bounded_lp([1.0], [[-1.0]], [-2.0], "min")

    def test_degenerate_optimum(self):
        # every point on x + y = 1 is optimal; the optimum value is still unique
        assert solve_bounded_lp([1.0, 1.0], [[-1.0, -1.0]], [-1.0], "min") == pytest.approx(
            1.0, rel=1e-8
        )

    def test_determinism(self):
        args = ([0.3, -1.2, 0.5], [[1.0, 1.0, 1.0]], [2.0], "min")
        assert solve_bounded_lp(*args) == solve_bounded_lp(*args)

    def test_rejects_bad_sense_and_size(self):
        with pytest.raises(ValueError, match="sense"):
            solve_bounded_lp([1.0], [[1.0]], [1.0], "maximise")
        with pytest.raises(ValueError, match="variables"):
            solve_bounded_lp(np.ones(201), np.ones((1, 201)), [1.0], "min")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_vertex_enumeration(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        c = rng.uniform(-1, 1, n)
        m = data.draw(st.integers(0, 4))
        a_ub = rng.uniform(-1, 1, (m, n))
        b_ub = rng.uniform(0.1, 2.0, m)
        sense = data.draw(st.sampled_from(["min", "max"]))
        oracle = _brute_force_optimum(c, a_ub, b_ub, sense)
        if oracle is None:
            return
        assert solve_bounded_lp(c, a_ub, b_ub, sense) == pytest.approx(oracle, rel=1e-6, abs=1e-8)


def _scipy_bounded_lp(c, a_ub, b_ub, sense):
    """``solve_bounded_lp`` spelt with the public ``scipy.optimize.linprog``:
    the same HiGHS options, presolve off."""
    sign = 1.0 if sense == "min" else -1.0
    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10, "presolve": False}
    res = scipy_linprog(sign * c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs", options=options)
    if not res.success:
        raise RuntimeError(res.message)
    return float(sign * res.fun)


def _recorded_lps(tables, intensities, eps, mode):
    """``(c, a_ub, b_ub, sense)`` of each LP ``estimate_bounds`` solves on ``tables``."""
    lps = []

    def recorded(c, a_ub, b_ub, sense):
        lps.append((np.array(c), a_ub, np.array(b_ub), sense))
        return solve_bounded_lp(c, a_ub, b_ub, sense)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decoy, "solve_bounded_lp", recorded)
        for table in tables:
            estimate_bounds(table, intensities, eps, mode)
    return lps


def _decoy_lps(mode, kms):
    """``(c, a_ub, b_ub, sense)`` of each LP ``estimate_bounds`` solves on one
    10^12-pulse table per distance."""
    intensities = IntensitySet(s=0.5, u=0.2, v=0.05, w=0.0)
    tables = []
    for km in kms:
        side = ChannelParams(distance_km=km)
        model = qkd_yield_model(side) if mode == "QKD" else mdi_yield_model(side, side)
        tables.append(synthesize_table(model, intensities, 10**12, mode, "AC" if mode == "QKD" else "AB", km))
    return _recorded_lps(tables, intensities, 1e-6, mode)


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (ValueError, RuntimeError):
        return "raises"


class TestHighsShim:
    """``mathkit.linprog`` drives HiGHS directly and must give exactly what
    ``scipy.optimize.linprog(method="highs")`` gives."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_public_linprog(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        c = rng.uniform(-1, 1, n)
        m = data.draw(st.integers(0, 6))
        # sparse rows exercise the column-wise nonzero packing
        a_ub = rng.uniform(-1, 1, (m, n)) * (rng.random((m, n)) < 0.7)
        # right-hand sides below zero make some rows infeasible on the box
        b_ub = rng.uniform(-0.5, 2.0, m)
        width = data.draw(st.sampled_from([None, 0.0, 1e-13, 1e-10, 1e-7]))
        if width is not None:
            # a thin window lo <= w @ x <= lo + width around a point of the box
            w = rng.uniform(-1, 1, n)
            lo = float(w @ rng.random(n)) - width / 2
            a_ub = np.vstack([a_ub, w, -w])
            b_ub = np.concatenate([b_ub, [lo + width, -lo]])
        sense = data.draw(st.sampled_from(["min", "max"]))
        assert _outcome(solve_bounded_lp, c, a_ub, b_ub, sense) == _outcome(
            _scipy_bounded_lp, c, a_ub, b_ub, sense
        )

    @pytest.mark.parametrize("mode, km", [("QKD", 15), ("MDI", 10), ("MDI", 25)])
    def test_decoy_lps_equal_public_linprog(self, monkeypatch, mode, km):
        # the LPs estimate_bounds really solves: 13 (QKD) or 91 (MDI) columns
        solved = []

        def compared(c, a_ub, b_ub, sense):
            solved.append((solve_bounded_lp(c, a_ub, b_ub, sense), _scipy_bounded_lp(c, a_ub, b_ub, sense)))
            return solved[-1][0]

        monkeypatch.setattr(decoy, "solve_bounded_lp", compared)
        side = ChannelParams(distance_km=km)
        model = qkd_yield_model(side) if mode == "QKD" else mdi_yield_model(side, side)
        intensities = IntensitySet(s=0.5, u=0.2, v=0.05, w=0.0)
        for seed in range(3):
            table = synthesize_table(model, intensities, 10**13, mode, "AC" if mode == "QKD" else "AB", seed)
            estimate_bounds(table, intensities, 1e-6, mode)
        assert len(solved) == 6
        assert all(value == oracle for value, oracle in solved)

    @pytest.mark.parametrize("mode, kms", [("QKD", (5, 15, 30)), ("MDI", (2, 10, 25))])
    def test_cached_decoy_lps_equal_fresh_build(self, monkeypatch, mode, kms):
        # estimate_bounds reuses one build per intensity set; each LP it solves
        # must be the one a fresh, uncached build gives, and solve to the oracle
        solved = {}

        def recorded(c, a_ub, b_ub, sense):
            value = solve_bounded_lp(c, a_ub, b_ub, sense)
            assert value == _scipy_bounded_lp(c, a_ub, b_ub, sense)
            solved[build].append((np.array(c), np.array(a_ub), np.array(b_ub), sense, value))
            return value

        monkeypatch.setattr(decoy, "solve_bounded_lp", recorded)
        intensities = IntensitySet(s=0.5, u=0.2, v=0.05, w=0.0)
        link = "AC" if mode == "QKD" else "AB"
        tables = []
        for km in kms:
            side = ChannelParams(distance_km=km)
            model = qkd_yield_model(side) if mode == "QKD" else mdi_yield_model(side, side)
            tables.append(synthesize_table(model, intensities, 10**12, mode, link, km))
        for build in ("cached", "fresh"):
            solved[build] = []
            if build == "fresh":
                monkeypatch.setattr(decoy, "_decoy_lp", decoy._decoy_lp.__wrapped__)
            for table in tables:
                estimate_bounds(table, intensities, 1e-6, mode)
        assert len(solved["cached"]) == len(solved["fresh"]) == 2 * len(kms)
        for cached, fresh in zip(solved["cached"], solved["fresh"]):
            assert all(np.array_equal(x, y) for x, y in zip(cached[:3], fresh[:3]))
            assert cached[3:] == fresh[3:]

    def test_lp_rows_are_a_read_only_copy(self):
        a = np.array([[1.0, 0.0], [0.0, -2.0], [3.0, 4.0]])
        rows = mathkit.LpRows(a)
        a[0, 0] = 9.0
        assert np.array_equal(np.asarray(rows), [[1.0, 0.0], [0.0, -2.0], [3.0, 4.0]])
        assert rows.colwise == ((0, 2, 4), (0, 2, 1, 2), (1.0, 3.0, -2.0, 4.0))
        with pytest.raises(ValueError, match="read-only"):
            np.asarray(rows)[0, 0] = 9.0
        value = solve_bounded_lp([1.0, 1.0], rows, [0.5, 1.0, 4.0], "max")
        assert value == solve_bounded_lp([1.0, 1.0], rows.a.copy(), [0.5, 1.0, 4.0], "max")
        assert value == pytest.approx(1.125, rel=1e-9)

    def test_feasibility_tolerance_is_1e_10(self):
        # x + 0.3 y <= 0.5 against x + 0.3 y >= 0.5 + gap: a gap of 1e-9 is
        # infeasible at the 1e-10 tolerance (HiGHS's default 1e-7 accepts it)
        rows = [[1.0, 0.3], [-1.0, -0.3]]
        with pytest.raises(LpInfeasibleError):
            solve_bounded_lp([1.0, 1.0], rows, [0.5, -(0.5 + 1e-9)], "min")
        assert solve_bounded_lp([1.0, 1.0], rows, [0.5, -(0.5 + 1e-11)], "min") == pytest.approx(0.5, abs=1e-10)

    def test_value_does_not_depend_on_call_order(self):
        rng = np.random.default_rng(7)
        lp_a = (rng.uniform(-1, 1, 30), rng.uniform(-1, 1, (20, 30)), rng.uniform(0.0, 2.0, 20), "min")
        lp_b = (rng.uniform(-1, 1, 12), rng.uniform(-1, 1, (8, 12)), rng.uniform(0.0, 2.0, 8), "max")
        first = solve_bounded_lp(*lp_a)
        solve_bounded_lp(*lp_b)
        assert solve_bounded_lp(*lp_a) == first
        # the decoy LPs, solved one after another on the same solver
        lps = [lp_a, lp_b, *_decoy_lps("QKD", (5, 15, 30)), *_decoy_lps("MDI", (2, 10, 25))]
        values = [solve_bounded_lp(*lp) for lp in lps]
        for i in rng.permutation(len(lps)):
            assert solve_bounded_lp(*lps[i]) == values[i]

    def test_objective_is_the_info_objective(self):
        # linprog reads getObjectiveValue(), which returns the field getInfo() copies out whole
        lps = [*_decoy_lps("QKD", (5, 15, 30)), *_decoy_lps("MDI", (2, 10, 25))]
        assert len(lps) == 12
        for c, a_ub, b_ub, sense in lps:
            status, value = mathkit.linprog(c if sense == "min" else -c, a_ub, b_ub)
            assert status == HighsModelStatus.kOptimal
            assert value == mathkit._THREAD.highs.getInfo().objective_function_value

    def test_one_solver_per_thread(self, monkeypatch):
        built = []
        real = mathkit._highs._Highs

        def counting():
            built.append(threading.get_ident())
            return real()

        monkeypatch.setattr(mathkit._highs, "_Highs", counting)
        values = []
        thread = threading.Thread(
            target=lambda: values.extend(solve_bounded_lp([1.0, -1.0], [[1.0, 1.0]], [1.5], "max") for _ in range(200))
        )
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert values == [1.0] * 200
        assert built == [thread.ident]

    def test_infeasible_solve_leaves_no_state(self):
        c, a_ub, b_ub, sense = _decoy_lps("MDI", (10,))[0]
        with pytest.raises(LpInfeasibleError):
            solve_bounded_lp([1.0], [[-1.0]], [-2.0], "min")
        assert solve_bounded_lp(c, a_ub, b_ub, sense) == _scipy_bounded_lp(c, a_ub, b_ub, sense)

    def test_threads_do_not_share_a_solver(self):
        lps = [_decoy_lps("QKD", (15,))[0], _decoy_lps("MDI", (10,))[0]]
        expected = [solve_bounded_lp(*lp) for lp in lps]
        results = [[], []]

        def solve(i):
            for _ in range(100):
                try:
                    results[i].append(solve_bounded_lp(*lps[i]))
                except (ValueError, RuntimeError) as exc:
                    results[i].append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[expected[0]] * 100, [expected[1]] * 100]

    @pytest.mark.parametrize(
        "status, error, calls",
        [("kInfeasible", LpInfeasibleError, [[1.0]]), ("kModelError", RuntimeError, [[1.0]])],
    )
    def test_failures_raise(self, monkeypatch, status, error, calls):
        # one linprog call for either status: no retry
        seen = []

        def failing(c, a_ub, b_ub):
            seen.append(c.tolist())
            return getattr(HighsModelStatus, status), math.nan

        monkeypatch.setattr(mathkit, "linprog", failing)
        with pytest.raises(error):
            solve_bounded_lp([1.0], [[1.0]], [0.3], "min")
        assert seen == calls

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["c", "a_ub", "b_ub"])
    def test_rejects_non_finite_data(self, bad, where):
        lp = {"c": np.array([1.0, 1.0]), "a_ub": np.array([[1.0, 0.5]]), "b_ub": np.array([0.8])}
        lp[where].flat[0] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_bounded_lp(lp["c"], lp["a_ub"], lp["b_ub"], "min")

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shapes"):
            solve_bounded_lp([1.0, 1.0], np.ones((2, 2)), [1.0, 1.0, 1.0], "min")
        with pytest.raises(ValueError, match="shapes"):
            solve_bounded_lp([1.0, 1.0], np.ones((2, 3)), [1.0, 1.0], "min")

    def test_no_rows(self):
        assert solve_bounded_lp([1.0, -2.0], np.empty((0, 2)), [], "min") == -2.0
        assert solve_bounded_lp([1.0, -2.0], [], [], "max") == 1.0

    def test_missing_binding_names_scipy_version(self):
        # block the binding before scipy loads it; mathkit must fail loudly
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys; sys.modules['scipy.optimize._highspy._core'] = None\n"
            "try:\n    import qkdnet.mathkit\nexcept ImportError as exc:\n    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert f"scipy >= 1.15 for its HiGHS binding, found {scipy.__version__}" in out.stdout


def _probe_lps(sizes):
    """``(c, a_ub, b_ub, sense)`` of each LP ``estimate_bounds`` solves on the desk relay link's
    expected-value table at each pulse count, as the multi-signature bisection probes it."""
    intensities, models = load_network(load_preset("desk")["simulate"])
    tables = [expected_table(models["AB"], intensities, n, "MDI", "AB") for n in sizes]
    return _recorded_lps(tables, intensities, 1e-11, "MDI")


def _solve(lp):
    """``(status, value, simplex iterations)`` of one ``(c, a_ub, b_ub, sense)`` LP through ``linprog``, the
    iterations read from the solver that ran it: inside a ``reuse_bases`` block the one its key holds after
    the solve, or held before a re-solve that ended infeasible and was dropped; else the thread's."""
    c, a_ub, b_ub, sense = lp
    c = c if sense == "min" else -c
    bases, key = mathkit._THREAD.bases, (a_ub, c.tobytes())
    bases = {} if bases is None else bases  # a block's dict, empty or not
    held = bases.get(key)
    status, value = mathkit.linprog(c, a_ub, b_ub)
    if key in bases:
        highs = bases[key][0]
    elif held is not None and held[0].getModelStatus() == HighsModelStatus.kInfeasible:
        highs = held[0]
    else:
        highs = mathkit._THREAD.highs
    return status, value, highs.getInfo().simplex_iteration_count


def _close(warm, cold):
    """Same status, and at kOptimal a value within 1e-12 relative of the cold solve's."""
    if warm[0] != cold[0]:
        return False
    return cold[0] != HighsModelStatus.kOptimal or abs(warm[1] - cold[1]) <= 1e-12 * abs(cold[1])


@pytest.fixture
def counted(monkeypatch):
    """Counts of the HiGHS solvers built on this thread, the models they load and their runs,
    starting from no thread solver."""
    counts = collections.Counter()

    class Counting(mathkit._highs._Highs):
        def __init__(self):
            super().__init__()
            counts["built"] += 1

        def passModel(self, lp):
            counts["loads"] += 1
            return super().passModel(lp)

        def run(self):
            counts["runs"] += 1
            return super().run()

    monkeypatch.setattr(mathkit._highs, "_Highs", Counting)
    monkeypatch.setattr(mathkit._THREAD, "highs", None)
    return counts


class TestReuseBases:
    """Inside a ``reuse_bases`` block, ``linprog`` keeps each ``LpRows`` LP it solves to optimality on a
    solver of its own and re-solves it in place; outside one, every solve is cold."""

    def test_warm_sequence_equals_cold(self):
        lps = [*_decoy_lps("QKD", (5, 15, 30)), *_decoy_lps("MDI", (2, 10, 25))]
        # each family's right-hand sides moved between solves, looser and tighter
        moved = [(c, a_ub, b_ub * f, sense) for c, a_ub, b_ub, sense in lps for f in (1.0, 1.002, 0.998)]
        cold = [_solve(lp) for lp in moved]
        with reuse_bases():
            warm = [_solve(lp) for lp in moved]
            assert len(mathkit._THREAD.bases) == 4  # yield and error rows of each mode
        assert all(_close(w, c) for w, c in zip(warm, cold))
        assert sum(w[2] for w in warm) < sum(c[2] for c in cold) / 2

    def test_consecutive_probe_sizes_equal_cold(self):
        # 200 consecutive acquisition sizes around criterion 10's baseline, probed in one block
        lps = _probe_lps(range(26_701_885, 26_702_085))
        assert len(lps) == 400
        cold = [_solve(lp) for lp in lps]
        with reuse_bases():
            hot = [_solve(lp) for lp in lps]
            assert len(mathkit._THREAD.bases) == 2
        assert all(_close(h, c) for h, c in zip(hot, cold))

    def test_criterion_10_loads_each_lp_family_once(self, counted):
        # the comparison's 62 LPs: the yield and the error LP are each loaded once, the other 60 re-solved in place
        intensities, models = load_network(load_preset("desk")["simulate"])
        comparison = multisig_comparison(models["AB"], intensities, "MDI", 5 * 10**8)
        assert (comparison.n_multi, comparison.n_baseline) == (108, 18)
        assert counted == {"built": 2, "loads": 2, "runs": 62}

    def test_infeasible_raises_and_stores_nothing(self):
        c, a_ub, b_ub, sense = _probe_lps((26_701_985,))[0]
        bad = b_ub.copy()
        bad[0] = -(b_ub[1] + 0.1)  # the first key's detections above their own upper bound
        with pytest.raises(LpInfeasibleError):
            solve_bounded_lp(c, a_ub, bad, sense)
        cold = solve_bounded_lp(c, a_ub, b_ub, sense)
        with reuse_bases():
            with pytest.raises(LpInfeasibleError):  # solved cold: no solver kept
                solve_bounded_lp(c, a_ub, bad, sense)
            assert mathkit._THREAD.bases == {}
            assert solve_bounded_lp(c, a_ub, b_ub, sense) == cold
            ((loaded, _),) = mathkit._THREAD.bases.values()
            with pytest.raises(LpInfeasibleError):  # re-solved in place: its solver dropped
                solve_bounded_lp(c, a_ub, bad, sense)
            assert loaded.getModelStatus() == HighsModelStatus.kInfeasible
            assert mathkit._THREAD.bases == {}
            assert solve_bounded_lp(c, a_ub, b_ub, sense) == cold  # cold again
            ((reloaded, _),) = mathkit._THREAD.bases.values()
            assert reloaded is not loaded

    def test_leaving_a_block_restores_the_enclosing_state(self):
        lp = _decoy_lps("QKD", (15,))[0]
        assert mathkit._THREAD.bases is None
        with reuse_bases():
            solve_bounded_lp(*lp)
            outer = mathkit._THREAD.bases
            with pytest.raises(RuntimeError, match="inner"):
                with reuse_bases():
                    assert mathkit._THREAD.bases == {}
                    solve_bounded_lp(*lp)
                    raise RuntimeError("inner")
            assert mathkit._THREAD.bases is outer
            assert len(outer) == 1
        assert mathkit._THREAD.bases is None
        with pytest.raises(RuntimeError, match="outer"):
            with reuse_bases():
                solve_bounded_lp(*lp)
                raise RuntimeError("outer")
        assert mathkit._THREAD.bases is None

    def test_a_block_warms_only_its_own_thread(self):
        first, _, second, _ = _probe_lps((26_701_985, 26_960_000))  # two probes' yield LPs
        cold = _solve(second)
        seen = []

        def solve_second():
            seen.append((mathkit._THREAD.bases, _solve(second)))

        def warm_in_a_block():
            with reuse_bases():
                _solve(first)
                seen.append(_solve(second))

        with reuse_bases():
            _solve(first)
            ((key, held),) = mathkit._THREAD.bases.items()
            thread = threading.Thread(target=solve_second)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert list(mathkit._THREAD.bases) == [key] and mathkit._THREAD.bases[key] is held  # left alone
            assert _solve(second)[2] < cold[2]
            assert list(mathkit._THREAD.bases) == [key] and mathkit._THREAD.bases[key][0] is held[0]  # in place
        thread = threading.Thread(target=warm_in_a_block)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert seen[0] == (None, cold)
        assert seen[1][2] < cold[2]
        assert _solve(second) == cold

    def test_blocks_on_many_threads_stay_apart(self):
        # more threads than cores, switching often: each sees only its own block's solvers
        lps = _probe_lps((26_701_985, 26_702_280, 26_960_000, 27_400_000))
        cold = [_solve(lp) for lp in lps]
        results, leaked, held = [[] for _ in range(4)], [], [[] for _ in range(4)]

        def solve(i):
            for _ in range(5):
                with reuse_bases() if i % 2 else contextlib.nullcontext():
                    results[i].append([_solve(lp) for lp in lps])
                    held[i].append(len(mathkit._THREAD.bases or {}))
                leaked.append(mathkit._THREAD.bases)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert leaked == [None] * 20
        assert held == [[0] * 5, [2] * 5, [0] * 5, [2] * 5]  # a yield and an error solver per block
        for i, runs in enumerate(results):
            assert len(runs) == 5
            for run in runs:
                assert run == cold if i % 2 == 0 else all(_close(w, c) for w, c in zip(run, cold))

    def test_warm_neighbouring_probe_takes_half_the_iterations(self):
        # two consecutive probes of criterion 10's baseline bisection
        lps = _probe_lps((26_701_985, 26_702_280))
        for before, after in zip(lps[:2], lps[2:]):  # the yield LPs, then the error LPs
            cold = _solve(after)
            with reuse_bases():
                _solve(before)
                ((loaded, _),) = mathkit._THREAD.bases.values()
                warm = _solve(after)
                ((again, _),) = mathkit._THREAD.bases.values()
                assert again is loaded  # re-solved in place
            assert _close(warm, cold)
            assert warm[2] <= cold[2] / 2

    def test_a_stalling_re_solve_solves_cold(self):
        # from the probe's optimum, its yield LP at half the right-hand sides takes 60 iterations;
        # the key's solver, limited to none, stalls at kIterationLimit
        c, a_ub, b_ub, sense = first = _probe_lps((26_701_985,))[0]
        second = (c, a_ub, 0.5 * b_ub, sense)
        cold = _solve(second)
        assert cold[2] > 0
        with reuse_bases():
            _solve(first)
            ((stalling, _),) = mathkit._THREAD.bases.values()
            stalling.setOptionValue("simplex_iteration_limit", 0)
            assert _solve(second) == cold
            assert stalling.getModelStatus() == HighsModelStatus.kIterationLimit
            assert mathkit._THREAD.bases == {}
            assert _solve(second) == cold  # the next solve of the key is cold, and loads a new solver
            ((loaded, _),) = mathkit._THREAD.bases.values()
            assert loaded is not stalling

    def test_a_warm_end_short_of_optimal_solves_cold(self, counted):
        first, _, second, _ = _probe_lps((26_701_985, 26_960_000))
        cold = _solve(second)
        ends = [HighsModelStatus.kIterationLimit, HighsModelStatus.kTimeLimit, HighsModelStatus.kSolveError,
                HighsModelStatus.kUnknown]
        for end in ends:
            with reuse_bases():
                _solve(first)
                ((key, (real, last)),) = mathkit._THREAD.bases.items()

                class Stalling:
                    """The key's solver, except that its re-solve ends at ``end``."""

                    def __getattr__(self, name):
                        return getattr(real, name)

                    def getModelStatus(self):
                        return end

                mathkit._THREAD.bases[key] = Stalling(), last
                counted.clear()
                assert _solve(second) == cold
                assert counted == {"runs": 2, "built": 1, "loads": 1}  # the re-solve, then one cold solve
                assert mathkit._THREAD.bases == {}

    def test_plain_arrays_are_never_warm(self):
        c, a_ub, b_ub, sense = _decoy_lps("QKD", (15,))[0]
        with reuse_bases():
            value = solve_bounded_lp(c, np.asarray(a_ub), b_ub, sense)
            assert solve_bounded_lp(c, np.asarray(a_ub), b_ub, sense) == value
            assert mathkit._THREAD.bases == {}


def _python(code, *paths):
    """Stdout of ``code`` run in a fresh interpreter with ``paths`` and ``src`` on its path."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [*map(str, paths), str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


class TestBindingLoad:
    """``mathkit`` loads the HiGHS binding from its file, without ``scipy.optimize``."""

    def test_scipy_optimize_is_never_imported(self):
        # import, one LP and the LP-free qds entry point: the binding is all of scipy used
        code = (
            "import sys\n"
            "from qkdnet import cli, mathkit\n"
            "mathkit.solve_bounded_lp([1.0, -1.0], [[1.0, 1.0]], [1.5], 'min')\n"
            "assert cli.main(['qds', '--preset', 'paper-mdi']) == 0\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        assert _python(code).splitlines()[-1] == "False"

    @pytest.mark.parametrize("first, second", [("scipy.optimize", "qkdnet"), ("qkdnet", "scipy.optimize")])
    def test_binding_loads_once_in_either_import_order(self, first, second):
        code = (
            f"import {first}\nimport {second}\n"
            "import sys\n"
            "import numpy as np\n"
            "from qkdnet import mathkit\n"
            "from test_mathkit import _scipy_bounded_lp\n"
            "rng = np.random.default_rng(3)\n"
            "lp = (rng.uniform(-1, 1, 8), rng.uniform(-1, 1, (6, 8)), rng.uniform(0.5, 2.0, 6), 'max')\n"
            "print(mathkit._highs is sys.modules['scipy.optimize._highspy._core'])\n"
            "print(mathkit.solve_bounded_lp(*lp) == _scipy_bounded_lp(*lp))\n"
        )
        assert _python(code, Path(__file__).parent).split() == ["True", "True"]

    def test_scipy_without_binding_names_its_version(self, tmp_path):
        # a scipy older than 1.15 has no optimize/_highspy to load from
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "1.14.0"\n')
        code = "try:\n    import qkdnet.mathkit\nexcept ImportError as exc:\n    print(exc)\n"
        assert _python(code, tmp_path).splitlines() == ["qkdnet needs scipy >= 1.15 for its HiGHS binding, found 1.14.0"]
