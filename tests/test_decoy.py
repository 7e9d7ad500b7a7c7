import hashlib
import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet import decoy, mathkit
from qkdnet.channel import (
    N_CUT,
    ChannelParams,
    CountRecord,
    IntensitySet,
    expected_gain_and_qber,
    mdi_yield_model,
    qkd_yield_model,
)
from qkdnet.decoy import (
    CountTable,
    DecoyBounds,
    TableFormatError,
    estimate_bounds,
    restrict_to_block,
)
from qkdnet.keyrate import synthesize_table
from qkdnet.mathkit import poisson_weights, reuse_bases, solve_bounded_lp
from references import colwise, synthesize_per_entry, widen_counts

X_SINGLE = ("u", "v", "w")


def exact_table_qkd(model, intensities, sent=10**16):
    """Entries built from exact expected gains: vanishing widening widths."""
    table = CountTable(link="AC")
    for label in X_SINGLE:
        gain, qber = expected_gain_and_qber(model, intensities.mu(label))
        detected = round(sent * gain)
        table.add(label, "X", CountRecord(sent, detected, round(detected * qber)))
    gain, qber = expected_gain_and_qber(model, intensities.s, basis="Z")
    detected = round(sent * gain)
    table.add("s", "Z", CountRecord(sent, detected, round(detected * qber)))
    return table


def exact_table_mdi(model, intensities, sent=10**16):
    table = CountTable(link="AB")
    for la in X_SINGLE:
        for lb in X_SINGLE:
            gain, qber = expected_gain_and_qber(model, intensities.mu(la), intensities.mu(lb))
            detected = round(sent * gain)
            table.add((la, lb), "X", CountRecord(sent, detected, round(detected * qber)))
    gain, qber = expected_gain_and_qber(model, intensities.s, intensities.s, basis="Z")
    detected = round(sent * gain)
    table.add(("s", "s"), "Z", CountRecord(sent, detected, round(detected * qber)))
    return table


class TestWidenCounts:
    def test_closed_form(self):
        lo, hi = widen_counts(CountRecord(10**6, 10**4, 0), 1e-10)
        delta = math.sqrt(math.log(2 / 1e-10) / (2 * 10**6))
        assert delta == pytest.approx(0.00344376234012311, rel=1e-12)
        assert lo == pytest.approx(0.01 - delta, rel=1e-12)
        assert hi == pytest.approx(0.01 + delta, rel=1e-12)

    def test_degenerate_eps_two(self):
        lo, hi = widen_counts(CountRecord(1000, 17, 0), 2.0)
        assert lo == hi == pytest.approx(0.017, rel=1e-12)

    def test_zero_detected_clamps_at_zero(self):
        lo, hi = widen_counts(CountRecord(1000, 0, 0), 1e-6)
        assert lo == 0.0
        assert hi > 0.0

    def test_errors_numerator(self):
        lo, hi = widen_counts(CountRecord(10**6, 10**5, 10**4), 0.5, numerator="errors")
        assert (lo + hi) / 2 == pytest.approx(0.01, rel=1e-9)

    def test_zero_sent_rejected(self):
        with pytest.raises(ValueError):
            widen_counts(CountRecord(0, 0, 0), 0.5)

    @pytest.mark.parametrize("numerator", ["sent", "DETECTED", "error"])
    def test_other_numerators_rejected(self, numerator):
        with pytest.raises(ValueError, match="numerator"):
            widen_counts(CountRecord(10**6, 10**5, 10**4), 0.5, numerator=numerator)

    @pytest.mark.parametrize("eps", [1e-12, 0.3, 2.0])
    def test_table_pass_equals_the_scalar_form(self, eps):
        rng = np.random.default_rng(17)
        sent = np.concatenate([[1, 2, 10**15], rng.integers(1, 10**15, 300, endpoint=True)])
        detected = rng.integers(0, sent, endpoint=True)
        errors = rng.integers(0, detected, endpoint=True)
        records = [CountRecord(*map(int, r)) for r in zip(sent, detected, errors)]
        lo, hi = decoy._widen_rates(records, eps)
        for row, numerator in enumerate(("detected", "errors")):
            for i, record in enumerate(records):
                widened = widen_counts(record, eps, numerator)
                assert (lo[row, i].hex(), hi[row, i].hex()) == tuple(x.hex() for x in widened)

    def test_table_with_a_zero_sent_entry_rejected(self):
        side = ChannelParams(distance_km=10)
        table = exact_table_qkd(qkd_yield_model(side), IntensitySet())
        table.entries[(("v",), "X")] = CountRecord(0, 0, 0)
        with pytest.raises(ValueError, match="zero sent"):
            estimate_bounds(table, IntensitySet(), 1e-6, "QKD")


class TestCountTable:
    def test_z_basis_accepts_signal_only(self):
        table = CountTable(link="AC")
        with pytest.raises(ValueError):
            table.add("u", "Z", CountRecord(10, 1, 0))
        with pytest.raises(ValueError):
            table.add("s", "X", CountRecord(10, 1, 0))

    def test_json_round_trip(self):
        table = CountTable(link="AB")
        table.add(("u", "v"), "X", CountRecord(100, 10, 1))
        table.add(("s", "s"), "Z", CountRecord(200, 20, 2))
        clone = CountTable.from_json(table.to_json())
        assert clone.link == "AB"
        assert clone.entries[(("u", "v"), "X")] == CountRecord(100, 10, 1)
        assert clone.to_json() == table.to_json()

    def test_csv_round_trip(self):
        table = CountTable(link="AC")
        table.add("s", "Z", CountRecord(500, 50, 1))
        table.add("u", "X", CountRecord(100, 10, 1))
        clone = CountTable.from_csv(table.to_csv())
        assert clone.to_json() == table.to_json()

    def test_csv_error_names_offending_row(self):
        text = "link,intensity,basis,sent,detected,errors\nAC,s,Z,100,10,0\nAC,u,X,50,oops,0\n"
        with pytest.raises(TableFormatError, match="row 3"):
            CountTable.from_csv(text)

    def test_duplicate_entry_rejected(self):
        table = CountTable(link="AC")
        table.add("u", "X", CountRecord(100, 10, 1))
        with pytest.raises(ValueError, match="duplicate"):
            table.add("u", "X", CountRecord(100, 20, 2))
        assert table.entries[(("u",), "X")] == CountRecord(100, 10, 1)

    @pytest.mark.parametrize(
        "link, label, basis",
        [("AC", ("u", "v"), "X"), ("BC", ("s", "s"), "Z"), ("AB", "u", "X"), ("AB", ("s",), "Z")],
    )
    def test_label_arity_must_fit_link(self, link, label, basis):
        table = CountTable(link=link)
        with pytest.raises(ValueError, match=rf"^link {link} has no \(intensity, basis\) entry"):
            table.add(label, basis, CountRecord(100, 10, 1))
        assert table.entries == {}
        assert table.senders == (2 if link == "AB" else 1)

    def test_csv_duplicate_row_is_format_error(self):
        text = (
            "link,intensity,basis,sent,detected,errors\n"
            "AC,s,Z,100,10,0\nAC,u,X,50,5,0\nAC,u,X,50,7,1\n"
        )
        with pytest.raises(TableFormatError, match="row 4.*duplicate"):
            CountTable.from_csv(text)

    def test_json_pair_label_on_point_to_point_link_is_format_error(self):
        doc = {"link": "AC", "entries": [
            {"intensity": ["u", "v"], "basis": "X", "sent": 100, "detected": 10, "errors": 1},
        ]}
        with pytest.raises(TableFormatError, match=r"link AC has no \(intensity, basis\) entry \(\('u', 'v'\), 'X'\)"):
            CountTable.from_json(json.dumps(doc))

    @pytest.mark.parametrize("tally, value", [("sent", 1000.7), ("detected", True), ("errors", "0")])
    def test_json_tallies_are_integers(self, tally, value):
        # int() used to read these as 1000, 1 and 0
        row = {"intensity": "s", "basis": "Z", "sent": 1000, "detected": 10, "errors": 0}
        with pytest.raises(TableFormatError, match=f"{tally}: expected an integer"):
            CountTable.from_json(json.dumps({"link": "AC", "entries": [dict(row, **{tally: value})]}))

    @pytest.mark.parametrize("tally, accepted", [("1e3", True), ("1_000", False)])
    @pytest.mark.parametrize("form", ["json", "csv"])
    def test_formats_agree_on_a_tally(self, form, tally, accepted):
        if form == "json":
            read = CountTable.from_json
            text = '{"link": "AC", "entries": [{"intensity": "s", "basis": "Z", "sent": %s, "detected": 10, "errors": 0}]}'
        else:
            read = CountTable.from_csv
            text = "link,intensity,basis,sent,detected,errors\nAC,s,Z,%s,10,0\n"
        if accepted:
            assert read(text % tally).z_entry() == CountRecord(1000, 10, 0)
        else:
            # a CSV field that is no JSON number reaches check_count as text; in a
            # JSON document the same token stops the parser, whose column the message quotes
            match = "sent: expected an integer >= 0, got '1_000'" if form == "csv" else "line 1 column 70.*'1_000'"
            with pytest.raises(TableFormatError, match=match):
                read(text % tally)

    def test_json_integral_float_tally_counts(self):
        row = {"intensity": "s", "basis": "Z", "sent": 1e7, "detected": 10, "errors": 0}
        assert CountTable.from_json(json.dumps({"link": "AC", "entries": [row]})).z_entry() == CountRecord(10**7, 10, 0)

    def test_json_bytes_unchanged(self):
        # serialised by the asdict-based writer this one replaced; the tables are the entry-by-entry draw's,
        # so these bytes pin the serializer, not the sampler
        side = ChannelParams(distance_km=15)
        table = synthesize_per_entry(qkd_yield_model(side), IntensitySet(), 10**10, "QKD", "AC", seed=3)
        assert table.to_json() == (
            '{"entries": [{"basis": "Z", "detected": 204122824, "errors": 1025542, "intensity": "s", '
            '"sent": 8000000000}, {"basis": "X", "detected": 3473249, "errors": 17816, "intensity": "u", '
            '"sent": 666666667}, {"basis": "X", "detected": 697808, "errors": 3782, "intensity": "v", '
            '"sent": 666666667}, {"basis": "X", "detected": 705, "errors": 370, "intensity": "w", '
            '"sent": 666666667}], "link": "AC"}'
        )
        relay = synthesize_per_entry(mdi_yield_model(side, side), IntensitySet(), 10**12, "MDI", "AB", seed=3)
        digest = hashlib.sha256(relay.to_json().encode()).hexdigest()
        assert digest == "fa2c16e4733a1ad22d772a47d7839abeb09bf1c77f7ec3056665be7b298b4fee"

    def test_record_ordering_enforced(self):
        with pytest.raises(ValueError):
            CountRecord(10, 20, 0)
        with pytest.raises(ValueError):
            CountRecord(10, 5, 6)


class TestEstimateBoundsQkd:
    def test_noiseless_bracket_with_small_slack(self):
        params = ChannelParams(distance_km=25)
        model = qkd_yield_model(params)
        intensities = IntensitySet()
        table = exact_table_qkd(model, intensities)
        # 7 shares at the degenerate per-share budget of 2: zero-width intervals
        bounds = estimate_bounds(table, intensities, 14.0, "QKD")
        true_y1 = model.yields[1]
        assert true_y1 == pytest.approx(0.0662, abs=1e-3)
        assert bounds.y1_lower <= true_y1 + 1e-12
        assert bounds.y1_lower >= true_y1 * 0.98  # slack under 2%
        assert bounds.eph_upper >= model.error_rates[1]
        assert bounds.mode == "QKD"
        assert bounds.epsilon_spent == pytest.approx(14.0)

    def test_zero_decoy_detections_give_zero_bound(self):
        intensities = IntensitySet()
        table = CountTable(link="AC")
        for label in X_SINGLE:
            table.add(label, "X", CountRecord(10**9, 0, 0))
        table.add("s", "Z", CountRecord(10**9, 0, 0))
        bounds = estimate_bounds(table, intensities, 1e-10, "QKD")
        assert bounds.y1_lower == pytest.approx(0.0, abs=1e-9)
        assert bounds.s1_lower == 0
        assert bounds.eph_upper == 0.5

    def test_missing_entry_rejected(self):
        intensities = IntensitySet()
        table = CountTable(link="AC")
        table.add("u", "X", CountRecord(100, 10, 1))
        with pytest.raises(TableFormatError, match=r"^table has no \(intensity, basis\) entry"):
            estimate_bounds(table, intensities, 1e-10, "QKD")

    def test_sampled_tables_bracket_truth(self):
        params = ChannelParams(distance_km=25)
        model = qkd_yield_model(params)
        intensities = IntensitySet()
        for seed in range(25):
            table = synthesize_table(model, intensities, 10**11, "QKD", "AC", seed)
            bounds = estimate_bounds(table, intensities, 1e-6, "QKD")
            # synthesis applies the passive-analyzer factor, so the truth the
            # bounds must bracket is the effective (halved) yield
            assert bounds.y1_lower <= 0.5 * model.yields[1] + 1e-12
            assert bounds.eph_upper >= model.error_rates[1] - 1e-12

    def test_monotone_under_tighter_sampling(self):
        params = ChannelParams(distance_km=25)
        model = qkd_yield_model(params)
        intensities = IntensitySet()
        base = synthesize_table(model, intensities, 10**10, "QKD", "AC", seed=4)
        scaled = CountTable(link="AC")
        for (key, basis), rec in base.entries.items():
            scaled.add(key, basis, CountRecord(rec.sent * 16, rec.detected * 16, rec.errors * 16))
        b1 = estimate_bounds(base, intensities, 1e-8, "QKD")
        b2 = estimate_bounds(scaled, intensities, 1e-8, "QKD")
        assert b2.y1_lower >= b1.y1_lower - 1e-9
        assert b2.eph_upper <= b1.eph_upper + 1e-9

    def test_deterministic(self):
        params = ChannelParams(distance_km=25)
        model = qkd_yield_model(params)
        intensities = IntensitySet()
        table = synthesize_table(model, intensities, 10**10, "QKD", "AC", seed=9)
        b1 = estimate_bounds(table, intensities, 1e-8, "QKD")
        b2 = estimate_bounds(table, intensities, 1e-8, "QKD")
        assert b1 == b2


class TestEstimateBoundsMdi:
    def test_noiseless_bracket_with_small_slack(self):
        side = ChannelParams(distance_km=25)
        model = mdi_yield_model(side, side)
        intensities = IntensitySet()
        table = exact_table_mdi(model, intensities)
        # 19 shares at the degenerate per-share budget of 2: zero-width intervals
        bounds = estimate_bounds(table, intensities, 38.0, "MDI")
        true_y11 = model.yields[1, 1]
        assert bounds.y1_lower <= true_y11 + 1e-12
        assert bounds.y1_lower >= true_y11 * 0.98
        assert bounds.eph_upper >= model.error_rates[1, 1]
        assert bounds.mode == "MDI"

    def test_sampled_tables_bracket_truth(self):
        # criterion 7's intensities at 10 km keep the yield bound off zero,
        # so the bracket tests the LP rather than its clamp
        side = ChannelParams(distance_km=10)
        model = mdi_yield_model(side, side)
        intensities = IntensitySet(s=0.5, u=0.3, v=0.1, w=0.0)
        for seed in range(10):
            table = synthesize_table(model, intensities, 10**13, "MDI", "AB", seed)
            bounds = estimate_bounds(table, intensities, 1e-6, "MDI")
            assert 0.0 < bounds.y1_lower <= model.yields[1, 1] + 1e-12
            assert bounds.eph_upper >= model.error_rates[1, 1] - 1e-12


class TestLpContract:
    """Each estimate_bounds call makes exactly two LP solves (yield, error),
    each a single linprog call, through decoy's solve_bounded_lp global."""

    @pytest.mark.parametrize("mode, link", [("QKD", "AC"), ("MDI", "AB")])
    def test_two_solves_per_table(self, monkeypatch, mode, link):
        calls = {"solve": 0, "linprog": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(decoy, "solve_bounded_lp", counted("solve", decoy.solve_bounded_lp))
        monkeypatch.setattr(mathkit, "linprog", counted("linprog", mathkit.linprog))
        side = ChannelParams(distance_km=20)
        model = qkd_yield_model(side) if mode == "QKD" else mdi_yield_model(side, side)
        intensities = IntensitySet(s=0.5, u=0.2, v=0.05, w=0.0)
        table = synthesize_table(model, intensities, 10**13, mode, link, seed=1)
        estimate_bounds(table, intensities, 1e-6, mode)
        assert calls == {"solve": 2, "linprog": 2}


class TestLpCache:
    """The intensity-fixed parts of the decoy LPs are built once per intensity
    set and shared, so none of them may be written through or go stale."""

    def test_cached_arrays_are_read_only(self):
        for senders in (1, 2):
            tails, p1_x, objective, rate_rows, yield_rows, _ = decoy._decoy_lp(senders, (0.2, 0.05, 0.0))
            arrays = [tails, objective]
            for rows in (rate_rows, yield_rows):
                arrays += [rows.a, np.asarray(rows), *rows.csc, *rows.bounds]
                assert colwise(rows) == colwise(mathkit.LpRows(rows.a))  # the matrix is its read-only rows'
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 5.0
            with pytest.raises(TypeError):
                p1_x[0] = 5.0

    @pytest.mark.parametrize("mode, link", [("QKD", "AC"), ("MDI", "AB")])
    def test_rows_follow_every_x_intensity(self, monkeypatch, mode, link):
        seen = []

        def recorded(c, a_ub, b_ub, sense):
            seen.append(np.array(a_ub))
            return solve_bounded_lp(c, a_ub, b_ub, sense)

        monkeypatch.setattr(decoy, "solve_bounded_lp", recorded)
        side = ChannelParams(distance_km=10)
        model = qkd_yield_model(side) if mode == "QKD" else mdi_yield_model(side, side)
        for u in (0.2, 0.3, 0.2):  # the last set repeats the first, from the cache
            intensities = IntensitySet(s=0.5, u=u, v=0.05, w=0.0)
            table = synthesize_table(model, intensities, 10**12, mode, link, seed=2)
            estimate_bounds(table, intensities, 1e-6, mode)
        assert len(seen) == 6
        first, second, again = seen[0:2], seen[2:4], seen[4:6]
        assert not any(np.array_equal(a, b) for a, b in zip(first, second))
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    @pytest.mark.parametrize("mode", ["QKD", "MDI"])
    def test_bounds_equal_on_warm_and_fresh_models(self, mode):
        # the grids of acceptance criterion 7; a warm model answers from its memoised laws
        if mode == "QKD":
            link, intensities, kms, budgets = "AC", IntensitySet(), (5.0, 15.0, 30.0), (10**9, 10**10)
        else:
            link, intensities, kms, budgets = "AB", IntensitySet(s=0.5, u=0.3, v=0.1, w=0.0), (2.0, 10.0, 25.0), (10**12, 10**13)

        def build(km):
            side = ChannelParams(distance_km=km)
            return qkd_yield_model(side) if mode == "QKD" else mdi_yield_model(side, side)

        for km in kms:
            warm = build(km)
            synthesize_table(warm, intensities, 10**9, mode, link, seed=0)
            for seed, n in enumerate(budgets, start=1):
                tables = [synthesize_table(model, intensities, n, mode, link, seed) for model in (warm, build(km))]
                assert tables[0].to_json() == tables[1].to_json()
                warm_bounds, fresh_bounds = (estimate_bounds(table, intensities, 5e-11, mode) for table in tables)
                assert warm_bounds == fresh_bounds


def _ma_bounds(table, intensities, eps_total):
    """``(y1, z1)`` bounds of Ma, Qi, Zhao & Lo, PRA 72, 012326 (2005), on the rows that
    ``estimate_bounds`` widens for a QKD table: u is the signal, v the weak decoy and w = 0
    the vacuum; the tail beyond N_CUT comes off v's lower detection row, as in the LP.

    Each is a non-negative combination of a few LP rows with the box, so the LP's minimum
    yield is at least ``y1`` and its maximum error gain at most ``z1``."""
    eps_each = eps_total / 7  # a gain and an error share per X entry, and the Z transfer
    u, v = intensities.u, intensities.v
    det = {label: widen_counts(table.entries[((label,), "X")], eps_each) for label in X_SINGLE}
    err = {label: widen_counts(table.entries[((label,), "X")], eps_each, "errors") for label in X_SINGLE}
    lo_v = max(0.0, det["v"][0] - poisson_weights(v, N_CUT)[1])
    r = (v / u) ** 2
    y1 = (math.exp(v) * lo_v - r * math.exp(u) * det["u"][1] - (1 - r) * det["w"][1]) / (v - v * v / u)
    z1 = (err["v"][1] - err["w"][0] * math.exp(-v)) * math.exp(v) / v
    return y1, z1


class TestAnalyticOracleQkd:
    """The QKD decoy LPs against the analytic vacuum + weak-decoy bounds on their own rows,
    cold and warm: the LP may be tighter, never looser, beyond HiGHS's 1e-10 tolerance."""

    @staticmethod
    def check(table, intensities, eps):
        """The LP's ``y1_lower`` and the analytic one, after checking both LPs against the oracle."""
        solved = []

        def recorded(c, a_ub, b_ub, sense):
            solved.append(solve_bounded_lp(c, a_ub, b_ub, sense))
            return solved[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decoy, "solve_bounded_lp", recorded)
            bounds = estimate_bounds(table, intensities, eps, "QKD")
        y1_analytic, z1_analytic = _ma_bounds(table, intensities, eps)
        assert bounds.y1_lower >= y1_analytic - 1e-10
        assert solved[1] <= z1_analytic + 1e-10
        return bounds.y1_lower, y1_analytic

    def test_reference_point_is_positive_and_close(self):
        # criterion 7's intensities at 10 km: both bounds well off zero, the LP the tighter
        intensities = IntensitySet()
        table = synthesize_table(qkd_yield_model(ChannelParams(distance_km=10)), intensities, 10**10, "QKD", "AC", 3)
        y1, y1_analytic = self.check(table, intensities, 1e-10)
        assert 0.0 < y1_analytic <= y1 <= 1.02 * y1_analytic

    @settings(max_examples=60, deadline=None)
    @given(
        km=st.floats(0.0, 80.0),
        dark=st.sampled_from([1e-7, 1e-6, 1e-5]),
        misalignment=st.floats(0.0, 0.05),
        s=st.floats(0.3, 0.8),
        u_share=st.floats(0.1, 0.9),
        v_share=st.floats(0.05, 0.8),
        exponent=st.floats(9.0, 12.0),
        eps=st.sampled_from([1e-10, 1e-6]),
        seed=st.integers(0, 2**31),
    )
    def test_lp_is_within_the_analytic_bounds(self, km, dark, misalignment, s, u_share, v_share, exponent, eps, seed):
        intensities = IntensitySet(s=s, u=s * u_share, v=s * u_share * v_share, w=0.0)
        model = qkd_yield_model(ChannelParams(distance_km=km, dark_count_prob=dark, misalignment=misalignment))
        n = int(10**exponent)
        tables = [synthesize_table(model, intensities, round(n * f), "QKD", "AC", seed + i)
                  for i, f in enumerate((1.0, 1.01, 0.97, 1.3))]
        for table in tables:  # cold
            self.check(table, intensities, eps)
        with reuse_bases():  # warm, each from the last table's bases
            for table in tables:
                self.check(table, intensities, eps)


def _recorded_bounds(table, intensities, eps_total, mode):
    """``estimate_bounds``' result and the values of its two LPs, yield then error gain."""
    solved = []

    def recorded(c, a_ub, b_ub, sense):
        solved.append(solve_bounded_lp(c, a_ub, b_ub, sense))
        return solved[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decoy, "solve_bounded_lp", recorded)
        bounds = estimate_bounds(table, intensities, eps_total, mode)
    return bounds, solved


def _exact_tail(table, intensities, eps_total, mode, y1, z1):
    """``estimate_bounds``' tail after its LPs, in 50-digit arithmetic: ``(s1_lower, eph_upper)``
    from the LP values ``y1`` and ``z1``, each floor taken exactly and the Serfling term recomputed."""
    senders = 2 if mode == "MDI" else 1
    x_keys = list(itertools.product(X_SINGLE, repeat=senders))
    with mpmath.workdps(50):
        def p1(key):  # single-photon probability of a key's senders
            return mpmath.fprod(mpmath.mpf(intensities.mu(l)) * mpmath.exp(-mpmath.mpf(intensities.mu(l))) for l in key)

        y1, z1 = (min(mpmath.mpf(1), max(mpmath.mpf(0), mpmath.mpf(v))) for v in (y1, z1))
        z_record = table.entries[(("s",) * senders, "Z")]
        s1 = min(int(mpmath.floor(z_record.sent * p1(("s",) * senders) * y1)), z_record.detected)
        n_x1 = int(mpmath.floor(mpmath.fsum(table.entries[(key, "X")].sent * p1(key) for key in x_keys) * y1))
        if y1 <= 0 or s1 < 1 or n_x1 < 1:
            return s1, mpmath.mpf(0.5)
        eps_serf = min(mpmath.mpf(1), mpmath.mpf(eps_total) / (2 * len(x_keys) + 1))
        serfling = mpmath.sqrt((s1 + 1) * mpmath.mpf(s1 + n_x1) * -mpmath.log(eps_serf) / (2 * n_x1 * mpmath.mpf(s1) ** 2))
        return s1, min(mpmath.mpf(0.5), min(mpmath.mpf(0.5), z1 / y1) + serfling)


#: tables whose phase-error bound stays below 0.5, so its Serfling term shows:
#: (mode, link, distance in km, intensities, pulses, total failure budget)
TAIL_TABLES = [
    ("QKD", "AC", 15.0, IntensitySet(), 10**10, 1e-10),
    ("QKD", "AC", 25.0, IntensitySet(), 10**10, 1e-10),
    ("MDI", "AB", 0.0, IntensitySet(s=0.5, u=0.3, v=0.1, w=0.0), 10**12, 1e-3),
]


def _tail_table(mode, link, km, intensities, pulses):
    side = ChannelParams(distance_km=km)
    model = qkd_yield_model(side) if mode == "QKD" else mdi_yield_model(side, side)
    return synthesize_table(model, intensities, pulses, mode, link, 3)


class TestBoundsTail:
    """The conversion after the LPs may round only towards the conservative side: no more
    single-photon counts, and no smaller phase-error bound, than exact arithmetic gives."""

    @pytest.mark.parametrize("mode, link, km, intensities, pulses, eps_total", TAIL_TABLES)
    def test_tail_is_no_looser_than_exact_arithmetic(self, mode, link, km, intensities, pulses, eps_total):
        table = _tail_table(mode, link, km, intensities, pulses)
        bounds, (y1, z1) = _recorded_bounds(table, intensities, eps_total, mode)
        s1, eph = _exact_tail(table, intensities, eps_total, mode, y1, z1)
        assert 0 < s1 and eph < 0.5  # the Serfling term is in play
        assert bounds.s1_lower <= s1
        assert bounds.eph_upper >= eph - 1e-14  # float rounding; a count of 1 more in n_x1 moves it by >= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(detected_share=st.floats(0.0, 1.0), error_share=st.floats(0.0, 1.0))
    def test_single_photon_counts_never_exceed_the_detections(self, detected_share, error_share):
        # the X entries fix s1_lower's uncapped value (84,618,887 here); the Z entry's own
        # detections cap it, wherever they lie in [0, sent]
        mode, link, km, intensities, pulses, eps_total = TAIL_TABLES[0]
        base = _tail_table(mode, link, km, intensities, pulses)
        table = CountTable(link=link)
        for (key, basis), rec in base.entries.items():
            if basis == "Z":
                detected = math.floor(detected_share * rec.sent)
                rec = CountRecord(rec.sent, detected, math.floor(error_share * detected))
            table.add(key, basis, rec)
        assert estimate_bounds(table, intensities, eps_total, mode).s1_lower <= table.z_entry().detected


class TestRestrictToBlock:
    def base_bounds(self):
        return DecoyBounds(
            s1_lower=666_345_000,
            eph_upper=0.053,
            y1_lower=0.03,
            epsilon_spent=1e-11,
            mode="MDI",
        )

    def test_block_equals_pool_unchanged(self):
        bounds = self.base_bounds()
        out = restrict_to_block(bounds, 2_500_000_000, 2_500_000_000, 1e-11)
        assert out == bounds

    def test_eps_one_is_pure_proportional_scaling(self):
        # pool tuned to the published single-photon ratio 666345 / 2.5e6
        out = restrict_to_block(self.base_bounds(), 2_500_000, 2_500_000_000, 1.0)
        assert out.s1_lower == 666_345
        assert out.eph_upper == pytest.approx(0.053, rel=1e-12)

    def test_serfling_penalty_at_paper_budget(self):
        out = restrict_to_block(self.base_bounds(), 2_500_000, 2_500_000_000, 1e-11)
        assert out.s1_lower == 660_715  # frozen: 666345 minus the sampling deviation
        assert out.eph_upper == pytest.approx(0.053 + 0.002251834805409277, rel=1e-9)
        assert out.epsilon_spent == pytest.approx(1e-11 + 2e-11)

    def test_oversized_block_rejected(self):
        with pytest.raises(ValueError):
            restrict_to_block(self.base_bounds(), 10, 9, 1e-11)
