import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import entropy as scipy_entropy
from scipy.stats import poisson as scipy_poisson

from qkdnet.mathkit import (
    LpInfeasibleError,
    binary_entropy,
    hoeffding_exponent_bound,
    hoeffding_exponent_log,
    inv_binary_entropy,
    poisson_pmf,
    poisson_weights,
    probability_from_log,
    serfling_deviation,
    solve_bounded_lp,
)


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
        with mpmath.workdps(50):
            q = mpmath.mpf(p)
            h = 0 if p == 0.0 else -(q * mpmath.log(q, 2) + (1 - q) * mpmath.log(1 - q, 2))
            assert h <= mpmath.mpf(y)


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
