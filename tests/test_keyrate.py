import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qkdnet import cli, keyrate, mathkit
from qkdnet.channel import (ENTRY_KEYS, ChannelParams, IntensitySet, mdi_yield_model, outcome_law, qkd_yield_model,
                            sift_keep)
from qkdnet.cli import load_network, load_preset
from qkdnet.decoy import DecoyBounds, estimate_bounds
from qkdnet.experiments import expected_table
from qkdnet.keyrate import (
    SecurityParams,
    finite_size_delta,
    leak_ec,
    rate_sweep,
    secure_key_length,
    sweep_to_csv,
    synthesize_table,
)
from references import entry_budgets_per_mode, synthesize_per_entry

NO_OVERHEAD = SecurityParams(eps_sec=21.0, eps_cor=2.0, f_ec=1.16)


def bounds_of(s1, eph, mode="MDI"):
    return DecoyBounds(s1_lower=s1, eph_upper=eph, y1_lower=0.1, epsilon_spent=1e-11, mode=mode)


class TestLeakEc:
    def test_zero_errors(self):
        assert leak_ec(10**6, 0.0, SecurityParams()) == 0

    def test_closed_form(self):
        # frozen from ceil(1.16 * h(0.005) * 1e6); h(0.005) = 0.0454147
        assert leak_ec(10**6, 0.005, SecurityParams()) == 52_682

    def test_full_entropy(self):
        params = SecurityParams(f_ec=1.0)
        assert leak_ec(10**6, 0.5, params) == 10**6


class TestFiniteSizeDelta:
    def test_default_budgets(self):
        # frozen: ceil(6*log2(21/1e-10) + log2(2/1e-15)) = ceil(276.4985) = 277
        assert finite_size_delta(SecurityParams()) == 277

    def test_degenerate_budgets(self):
        assert finite_size_delta(NO_OVERHEAD) == 0

    def test_halving_eps_sec_adds_six_bits(self):
        raw = lambda eps: 6 * math.log2(21 / eps) + math.log2(2 / 1e-15)
        assert raw(0.5e-10) - raw(1e-10) == pytest.approx(6.0, abs=1e-9)
        d1 = finite_size_delta(SecurityParams(eps_sec=1e-10))
        d2 = finite_size_delta(SecurityParams(eps_sec=0.5e-10))
        assert d2 - d1 in (5, 6, 7)


class TestSecureKeyLength:
    def test_half_phase_error_clamps_to_zero(self):
        result = secure_key_length(bounds_of(10**6, 0.5), 10**7, 0.01, SecurityParams())
        assert result.secure_bits == 0
        assert result.rate_bps == 0.0

    def test_extraction_term_on_published_block(self):
        # leak and delta zeroed: pure extraction term on the published
        # single-photon bound and phase-error rate
        result = secure_key_length(bounds_of(666_345, 0.053), 2_500_000, 0.0, NO_OVERHEAD)
        assert result.secure_bits == 467_103  # frozen from the closed form
        assert abs(result.secure_bits - 467_107) <= 50

    def test_end_to_end_mid_range_positive(self):
        params = ChannelParams(distance_km=25)
        model = qkd_yield_model(params)
        intensities = IntensitySet()
        security = SecurityParams()
        table = synthesize_table(model, intensities, 10**11, "QKD", "AC", seed=11)
        bounds = estimate_bounds(table, intensities, security.eps_sec / 2, "QKD")
        z = table.z_entry()
        result = secure_key_length(bounds, z.detected, z.errors / z.detected, security, 100.0)
        assert result.secure_bits > 0
        assert result.rate_bps == pytest.approx(result.secure_bits / 100.0)

    def test_monotone_in_inputs(self):
        params = SecurityParams()
        base = secure_key_length(bounds_of(500_000, 0.05), 10**6, 0.01, params).secure_bits
        worse_eph = secure_key_length(bounds_of(500_000, 0.10), 10**6, 0.01, params).secure_bits
        worse_qber = secure_key_length(bounds_of(500_000, 0.05), 10**6, 0.02, params).secure_bits
        more_singles = secure_key_length(bounds_of(600_000, 0.05), 10**6, 0.01, params).secure_bits
        assert worse_eph <= base
        assert worse_qber <= base
        assert more_singles >= base

    def test_precondition(self):
        with pytest.raises(ValueError):
            secure_key_length(bounds_of(100, 0.05), 99, 0.01, SecurityParams())


class TestRateSweep:
    def test_dead_channel_rates_zero(self):
        params = ChannelParams(distance_km=0, detector_efficiency=0.0, dark_count_prob=0.0)
        points = rate_sweep(
            params, IntensitySet(), [0.0, 10.0], "QKD", SecurityParams(), n_pulses=10**9
        )
        assert [p.rate_bps for p in points] == [0.0, 0.0]

    def test_rates_non_increasing_with_distance(self):
        params = ChannelParams(distance_km=0)
        points = rate_sweep(
            params,
            IntensitySet(),
            [0.0, 10.0, 20.0, 30.0],
            "QKD",
            SecurityParams(),
            seed=3,
            n_pulses=10**11,
        )
        rates = [p.rate_bps for p in points]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[0] > 0

    def test_elapsed_uses_duty(self):
        params = ChannelParams(distance_km=0, detector_efficiency=0.0, dark_count_prob=0.0)
        points = rate_sweep(
            params, IntensitySet(), [5.0], "QKD", SecurityParams(), duty=0.5, n_pulses=10**9
        )
        assert points[0].elapsed_s == pytest.approx(10**9 / 1e9 / 0.5)

    def test_csv_layout(self):
        params = ChannelParams(distance_km=0, detector_efficiency=0.0, dark_count_prob=0.0)
        points = rate_sweep(params, IntensitySet(), [1.0], "QKD", SecurityParams(), n_pulses=10**8)
        text = sweep_to_csv(points)
        lines = text.strip().splitlines()
        assert lines[0] == "distance_km,mode,secure_bits,elapsed_s,rate_bps,note"
        assert lines[1].startswith("1.0,QKD,")

    def test_pipeline_error_raises(self):
        # ten pulses leave most table entries empty: a bug in the inputs, not
        # a zero-rate point
        with pytest.raises(ValueError, match="zero sent pulses"):
            rate_sweep(
                ChannelParams(distance_km=0), IntensitySet(), [5.0], "MDI", SecurityParams(), n_pulses=10
            )

    @pytest.mark.parametrize("preset", ["hw-qkd-sweep", "hw-mdi-sweep"])
    def test_block_bounds_equal_cold_per_distance_solves(self, preset):
        # the sweep runs its distances in one reuse_bases block: every point's bounds within 1e-9
        # relative of a cold solve of the same table, every secure_bits equal
        kwargs = cli._arguments(rate_sweep, load_preset(preset)["sweep"], "sweep")
        solved = []

        def recorded(table, *args):
            assert mathkit._THREAD.bases is not None  # inside the sweep's block
            solved.append((table, args, estimate_bounds(table, *args)))
            return solved[-1][2]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(keyrate, "estimate_bounds", recorded)
            points = rate_sweep(**kwargs)
        assert mathkit._THREAD.bases is None
        assert len(solved) == len(points) == len(kwargs["distances"])
        cold_points = []
        for (table, args, warm), point in zip(solved, points):
            cold = estimate_bounds(table, *args)
            assert (warm.s1_lower, warm.mode, warm.epsilon_spent) == (cold.s1_lower, cold.mode, cold.epsilon_spent)
            assert warm.y1_lower == pytest.approx(cold.y1_lower, rel=1e-9, abs=0)
            assert warm.eph_upper == pytest.approx(cold.eph_upper, rel=1e-9, abs=0)
            z_rec = table.z_entry()
            key = secure_key_length(cold, z_rec.detected, z_rec.errors / z_rec.detected, kwargs["security"])
            cold_points.append(key.secure_bits)
        assert [point.secure_bits for point in points] == cold_points

    def test_empty_distances_rejected(self):
        with pytest.raises(ValueError):
            rate_sweep(ChannelParams(distance_km=0), IntensitySet(), [], "QKD", SecurityParams())


#: a link's budget split: a pulse count up to 10^14.5, the Z-basis probability and any X-class weights
BUDGET_SPLITS = dict(
    n_pulses=st.integers(1, int(10**14.5)),
    z=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    x_weights=st.tuples(*[st.floats(0.0, 1e300)] * 3).filter(lambda w: 0.0 < sum(w) < math.inf),
    mode=st.sampled_from(["QKD", "MDI"]),
)


class TestEntryBudgets:
    @settings(max_examples=400, deadline=None)
    @given(**BUDGET_SPLITS)
    def test_equals_the_split_written_out_per_mode(self, n_pulses, z, x_weights, mode):
        intensities = IntensitySet(z_basis_prob=z, x_weights=x_weights)
        budgets = keyrate.entry_budgets(n_pulses, intensities, mode)
        assert list(budgets.items()) == list(entry_budgets_per_mode(n_pulses, intensities, mode).items())

    @settings(max_examples=400, deadline=None)
    @given(**BUDGET_SPLITS)
    def test_entries_share_the_budget_by_basis(self, n_pulses, z, x_weights, mode):
        # each of s senders picks Z with probability z: the entries send n (z^s + (1 - z)^s), as each
        # rounds its share of it to the nearest pulse
        senders = 1 if mode == "QKD" else 2
        budgets = keyrate.entry_budgets(n_pulses, IntensitySet(z_basis_prob=z, x_weights=x_weights), mode)
        assert list(budgets) == list(ENTRY_KEYS[senders])
        share = Fraction(z) ** senders + (1 - Fraction(z)) ** senders
        assert abs(sum(budgets.values()) - n_pulses * share) <= len(budgets)

    @pytest.mark.parametrize("mode", ["QKD", "MDI"])
    @pytest.mark.parametrize("n_pulses", [1000, 123_457, 26_701_985, 10**12])
    def test_expected_and_sampled_tables_split_alike(self, mode, n_pulses):
        side = ChannelParams(distance_km=5.0)
        model = qkd_yield_model(side) if mode == "QKD" else mdi_yield_model(side, side)
        intensities, _ = load_network(load_preset("desk")["simulate"])
        link = "AC" if mode == "QKD" else "AB"
        sampled = synthesize_table(model, intensities, n_pulses, mode, link, seed=3)
        expected = expected_table(model, intensities, n_pulses, mode, link)
        assert set(sampled.entries) == set(expected.entries)
        for key, rec in sampled.entries.items():
            assert expected.entries[key].sent == rec.sent, key


#: (mode, link, km, pulses) of the synthesis law tests
SYNTHESIS_CASES = [("QKD", "AC", 15, 10**10), ("MDI", "AB", 10, 10**12)]


class TestSynthesizeTable:
    """One generator and one multinomial per table draw the law of independent per-entry multinomials."""

    @staticmethod
    def _tallies(mode, link, km, n_pulses, synthesize, seeds):
        """(entry keys, per-entry sent and law, tallies): tallies[seed, entry] is (errors, correct)."""
        side = ChannelParams(distance_km=km)
        model = qkd_yield_model(side) if mode == "QKD" else mdi_yield_model(side, side)
        intensities = IntensitySet()
        budgets = keyrate.entry_budgets(n_pulses, intensities, mode)
        keys = sorted(budgets)
        tallies = []
        for seed in seeds:
            entries = synthesize(model, intensities, n_pulses, mode, link, seed).entries
            tallies.append([(entries[k].errors, entries[k].detected - entries[k].errors) for k in keys])
        sent = np.array([budgets[k] for k in keys], dtype=float)
        laws = np.array([outcome_law(model, *(intensities.mu(label) for label in key), basis=basis,
                                     keep=sift_keep(mode, basis))[:2] for key, basis in keys])
        return keys, sent, laws, np.array(tallies, dtype=float)

    @pytest.mark.parametrize("mode, link, km, n_pulses", SYNTHESIS_CASES, ids=lambda x: str(x))
    def test_tallies_follow_each_entrys_law(self, mode, link, km, n_pulses):
        seeds = range(200)
        keys, sent, laws, tallies = self._tallies(mode, link, km, n_pulses, synthesize_table, seeds)
        _, _, _, reference = self._tallies(mode, link, km, n_pulses, synthesize_per_entry, seeds)
        assert len(keys) == (4 if mode == "QKD" else 10)
        trials = np.broadcast_to(sent[:, None], laws.shape)

        def within_5_sigma(counts, n):
            # a tally of n trials is Binomial(n, p): neither tail beyond it is rarer than a normal's 5-sigma tail.
            # Exact, as the relay link's vacuum entries expect 0.004 counts a table, where no normal fits
            tail = np.minimum(stats.binom.cdf(counts, n, laws), stats.binom.sf(counts - 1, n, laws))
            return (tail >= stats.norm.sf(5.0)).all()

        assert (laws > 0).all()
        # every draw within 5 sigma of sent x its entry's law, and so is the seeds' sum, Binomial(200 sent, p)
        assert all(within_5_sigma(draw, trials) for draw in tallies)
        assert within_5_sigma(tallies.sum(axis=0), len(seeds) * trials)
        # each tally's 200 draws and the entry-by-entry draw's 200 come from one distribution
        for entry in range(len(keys)):
            for tally in range(2):
                result = stats.ks_2samp(tallies[:, entry, tally], reference[:, entry, tally], method="asymp")
                assert result.pvalue > 1e-4, (keys[entry], tally, result)

    @pytest.mark.parametrize("mode, link, km, n_pulses", SYNTHESIS_CASES, ids=lambda x: str(x))
    def test_same_seed_same_table(self, mode, link, km, n_pulses):
        side = ChannelParams(distance_km=km)
        model = qkd_yield_model(side) if mode == "QKD" else mdi_yield_model(side, side)
        texts = [synthesize_table(model, IntensitySet(), n_pulses, mode, link, seed).to_json() for seed in (5, 5, 6)]
        assert texts[0] == texts[1] != texts[2]
