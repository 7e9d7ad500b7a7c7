import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet import channel
from qkdnet.channel import (
    LABELS,
    X_LABELS,
    ChannelParams,
    CountRecord,
    IntensitySet,
    TailBoundError,
    YieldModel,
    expected_gain_and_qber,
    mdi_yield_model,
    outcome_law,
    qkd_yield_model,
    sample_counts,
    sift_keep,
)
from qkdnet.experiments import expected_table
from qkdnet.keyrate import synthesize_table
from qkdnet.mathkit import poisson_pmf
from qkdnet.netsim import CONFIG_OF, _outcome_table


def single_entry_model(y1=0.1):
    yields = np.zeros(13)
    yields[1] = y1
    return YieldModel(kind="QKD", yields=yields, error_rates=np.zeros(13))


class TestChannelParams:
    def test_transmittance_at_25km(self):
        p = ChannelParams(distance_km=25)
        assert p.transmittance == pytest.approx(10 ** (-0.5) * 0.209, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(distance_km=-1)
        with pytest.raises(ValueError):
            ChannelParams(distance_km=0, detector_efficiency=1.5)


class TestIntensitySet:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            IntensitySet(s=0.1, u=0.2, v=0.02, w=0.0)

    def test_labels_and_lookup(self):
        ints = IntensitySet()
        assert [ints.mu(l) for l in LABELS] == [0.5, 0.1, 0.02, 0.0]
        assert X_LABELS == LABELS[1:]


class TestQkdYieldModel:
    def test_dead_channel_all_zero(self):
        p = ChannelParams(distance_km=0, detector_efficiency=0.0, dark_count_prob=0.0)
        model = qkd_yield_model(p)
        assert np.all(model.yields == 0.0)

    def test_vacuum_term_is_dark_floor(self):
        p = ChannelParams(distance_km=10, dark_count_prob=1e-5)
        model = qkd_yield_model(p)
        assert model.yields[0] == pytest.approx(2e-5, rel=1e-12)
        assert model.error_rates[0] == pytest.approx(0.5, rel=1e-12)

    def test_single_photon_yield_at_25km(self):
        p = ChannelParams(
            distance_km=25,
            attenuation_db_per_km=0.2,
            detector_efficiency=0.209,
            dark_count_prob=1e-6,
            misalignment=0.005,
        )
        model = qkd_yield_model(p)
        # closed form: Y0 + eta - Y0*eta with eta = 10^-0.5 * 0.209
        eta = 10 ** (-0.5) * 0.209
        assert model.yields[1] == pytest.approx(2e-6 + eta - 2e-6 * eta, rel=1e-12)
        assert model.yields[1] == pytest.approx(0.0662, abs=1e-3)

    def test_z_and_x_errors_coincide(self):
        model = qkd_yield_model(ChannelParams(distance_km=25))
        assert np.array_equal(model.error_rates, model.z_error_rates)


class TestMdiYieldModel:
    def test_dead_channels_all_zero(self):
        p = ChannelParams(distance_km=0, detector_efficiency=0.0, dark_count_prob=0.0)
        model = mdi_yield_model(p, p)
        assert np.all(model.yields == 0.0)

    def test_dark_coincidence_floor(self):
        p = ChannelParams(distance_km=10, dark_count_prob=1e-4)
        model = mdi_yield_model(p, p)
        assert model.yields[0, 0] == pytest.approx(2.0 * 1e-4 * 1e-4, rel=1e-12)
        assert model.error_rates[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_symmetric_single_photon_pair(self):
        p = ChannelParams(distance_km=25, dark_count_prob=0.0)
        model = mdi_yield_model(p, p, bell_success=0.5)
        eta = p.transmittance
        assert model.yields[1, 1] == pytest.approx(0.5 * eta * eta, rel=1e-12)

    def test_x_multiphoton_floor_only_in_x(self):
        p = ChannelParams(distance_km=25, dark_count_prob=0.0, misalignment=0.005)
        model = mdi_yield_model(p, p, x_multiphoton_floor=0.25)
        mis_eff = 1 - (1 - 0.005) ** 2
        assert model.error_rates[2, 1] == pytest.approx(0.25, rel=1e-9)
        assert model.z_error_rates[2, 1] == pytest.approx(mis_eff, rel=1e-9)
        assert model.error_rates[1, 1] == pytest.approx(mis_eff, rel=1e-9)


class TestExpectedGainAndQber:
    def test_vacuum_gain_is_dark_floor(self):
        model = qkd_yield_model(ChannelParams(distance_km=10, dark_count_prob=1e-5))
        gain, _ = expected_gain_and_qber(model, 0.0)
        assert gain == pytest.approx(model.yields[0], rel=1e-12)

    def test_single_entry_model(self):
        gain, qber = expected_gain_and_qber(single_entry_model(0.1), 0.5)
        assert gain == pytest.approx(poisson_pmf(0.5, 1) * 0.1, rel=1e-9)
        assert gain == pytest.approx(0.03033, abs=1e-4)
        assert qber == 0.0

    def test_all_dark_model_is_random(self):
        p = ChannelParams(distance_km=0, detector_efficiency=0.0, dark_count_prob=1e-6)
        model = qkd_yield_model(p)
        _, qber = expected_gain_and_qber(model, 0.5)
        assert qber == pytest.approx(0.5, rel=1e-9)

    def test_tail_violation_raises(self):
        model = qkd_yield_model(ChannelParams(distance_km=10))
        with pytest.raises(TailBoundError):
            expected_gain_and_qber(model, 5.0)

    def test_tail_error_names_the_second_sender(self):
        p = ChannelParams(distance_km=10)
        with pytest.raises(TailBoundError, match=r"^nu: "):
            expected_gain_and_qber(mdi_yield_model(p, p), 0.1, 5.0)

    def test_mdi_needs_two_intensities(self):
        model = qkd_yield_model(ChannelParams(distance_km=10))
        with pytest.raises(ValueError):
            expected_gain_and_qber(model, 0.5, 0.5)

    def test_mdi_mixture_matches_direct_sum(self):
        p = ChannelParams(distance_km=20)
        model = mdi_yield_model(p, p)
        gain, qber = expected_gain_and_qber(model, 0.2, 0.1)
        pa = np.array([poisson_pmf(0.2, n) for n in range(13)])
        pb = np.array([poisson_pmf(0.1, n) for n in range(13)])
        w = np.outer(pa, pb)
        expect_gain = (w * model.yields).sum()
        expect_err = (w * model.error_rates * model.yields).sum()
        assert gain == pytest.approx(expect_gain, rel=1e-12)
        assert qber == pytest.approx(expect_err / expect_gain, rel=1e-12)

    @settings(max_examples=40)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_intensity(self, mu1, mu2):
        model = qkd_yield_model(ChannelParams(distance_km=15))
        lo, hi = sorted((mu1, mu2))
        g_lo, _ = expected_gain_and_qber(model, lo)
        g_hi, _ = expected_gain_and_qber(model, hi)
        assert g_hi >= g_lo - 1e-15

    @settings(max_examples=40)
    @given(
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=0.0, max_value=1e-4),
        st.floats(min_value=0.0, max_value=0.1),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_outputs_are_probabilities(self, dist, dark, mis, mu):
        p = ChannelParams(distance_km=dist, dark_count_prob=dark, misalignment=mis)
        gain, qber = expected_gain_and_qber(qkd_yield_model(p), mu)
        assert 0.0 <= gain <= 1.0
        assert 0.0 <= qber <= 1.0
        # honest defaults keep the error rate at or below random guessing
        assert qber <= 0.5 + 1e-12


class TestPhotonLaw:
    """``_photon_law`` is cached per intensity: its arrays are shared, so they
    are read-only, and a refused intensity is refused on every call."""

    def test_cached_law_is_read_only(self):
        law = channel._photon_law(0.5)
        assert channel._photon_law(0.5) is law
        with pytest.raises(ValueError, match="read-only"):
            law[1] = 5.0
        assert law[1] == poisson_pmf(0.5, 1)

    def test_tail_beyond_limit_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(TailBoundError, match="mu=8.0"):
                channel._photon_law(8.0)
        model = qkd_yield_model(ChannelParams(distance_km=10))
        for _ in range(2):
            with pytest.raises(TailBoundError):
                expected_gain_and_qber(model, 8.0)


class TestOutcomeLaw:
    @settings(max_examples=60)
    @given(
        st.sampled_from(["QKD", "MDI"]),
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(["Z", "X"]),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_rows_are_distributions(self, kind, dist, mu, nu, basis, keep):
        p = ChannelParams(distance_km=dist)
        if kind == "QKD":
            law = outcome_law(qkd_yield_model(p), mu, None, basis, keep)
        else:
            law = outcome_law(mdi_yield_model(p, p), mu, nu, basis, keep)
        assert law.shape == (4,)
        assert law.min() >= 0.0
        assert law.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_recorded_entries_carry_gain_and_qber(self, basis):
        model = mdi_yield_model(ChannelParams(distance_km=10), ChannelParams(distance_km=10))
        gain, qber = expected_gain_and_qber(model, 0.5, 0.1, basis)
        err, correct, discarded, none = outcome_law(model, 0.5, 0.1, basis, keep=0.25)
        assert err + correct == pytest.approx(0.25 * gain, rel=1e-12)
        assert err == pytest.approx(0.25 * gain * qber, rel=1e-12)
        assert discarded == pytest.approx(0.75 * gain, rel=1e-12)
        assert none == pytest.approx(1.0 - gain, rel=1e-12)

    def test_either_bright_class_raises(self):
        p = ChannelParams(distance_km=10)
        with pytest.raises(TailBoundError):
            outcome_law(mdi_yield_model(p, p), 0.1, 5.0)

    def test_sift_keep(self):
        assert sift_keep("MDI", "Z") == sift_keep("MDI", "X", "X") == 1.0
        assert sift_keep("MDI", "Z", "X") == 0.0
        assert sift_keep("QKD", "X") == channel.PASSIVE_BASIS_FACTOR
        assert sift_keep("QKD", "Z") == 1.0 - channel.PASSIVE_BASIS_FACTOR
        with pytest.raises(ValueError):
            sift_keep("QKD", "Y")

    def test_passive_factor_reaches_every_count_table(self, monkeypatch):
        # an asymmetric passive analyzer: Z and X acceptance must agree across
        # the expected table, the sampled table and the simulator's law
        monkeypatch.setattr(channel, "PASSIVE_BASIS_FACTOR", 0.3)
        model = qkd_yield_model(ChannelParams(distance_km=5.0))
        intensities = IntensitySet()
        n_pulses = 10**9
        expected = expected_table(model, intensities, n_pulses, "QKD", "AC")
        sampled = synthesize_table(model, intensities, n_pulses, "QKD", "AC", seed=3)
        law = _outcome_table({"AC": model}, intensities)
        for (key, basis), rec in expected.entries.items():
            (label,) = key
            gain, _ = expected_gain_and_qber(model, intensities.mu(label), basis=basis)
            accept = (0.7 if basis == "Z" else 0.3) * gain
            assert rec.detected == round(rec.sent * accept), (key, basis)
            drawn = sampled.entries[(key, basis)]
            sigma = math.sqrt(drawn.sent * accept * (1 - accept))
            assert abs(drawn.detected - drawn.sent * accept) < 5 * sigma, (key, basis)
            # session AC and sender A's intensity class, which fixes its basis
            slot = 1 << 4 | LABELS.index(label) << 2
            assert law[CONFIG_OF[slot], :2].sum() == pytest.approx(accept, rel=1e-12)


def _law_keys(mode):
    """Every (intensities, basis, keep) a table or a network plan reads from a model of ``mode``."""
    if mode == "QKD":
        return [((mu,), basis, keep) for mu in (0.5, 0.1, 0.02, 0.0)
                for basis in ("Z", "X") for keep in (sift_keep("QKD", basis), 1.0)]
    return [((mu, nu), basis, keep) for mu in (0.5, 0.1, 0.0) for nu in (0.5, 0.02)
            for basis in ("Z", "X") for keep in (0.0, 1.0)]


class TestLawMemo:
    @staticmethod
    def build(mode):
        side = ChannelParams(distance_km=10)
        return qkd_yield_model(side) if mode == "QKD" else mdi_yield_model(side, side)

    def test_arrays_are_read_only_copies(self):
        yields = np.zeros(13)
        model = YieldModel(kind="QKD", yields=yields, error_rates=np.zeros(13))
        yields[1] = 0.5
        assert model.yields[1] == 0.0
        for name in ("yields", "error_rates", "z_error_rates"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(model, name)[0] = 0.5

    @pytest.mark.parametrize("mode", ["QKD", "MDI"])
    def test_repeated_law_equals_a_fresh_models(self, mode):
        warm = self.build(mode)
        for mus, basis, keep in _law_keys(mode):
            first = outcome_law(warm, *mus, basis=basis, keep=keep)
            again = outcome_law(warm, *mus, basis=basis, keep=keep)
            assert again is first
            assert again.tobytes() == outcome_law(self.build(mode), *mus, basis=basis, keep=keep).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                again[0] = 0.5
        assert len(warm._laws) == len(_law_keys(mode))

    def test_checks_run_on_every_call(self):
        p = ChannelParams(distance_km=10)
        model = mdi_yield_model(p, p)
        outcome_law(model, 0.1, 0.1, keep=0.5)
        with pytest.raises(ValueError, match="keep"):
            outcome_law(model, 0.1, 0.1, keep=1.5)
        for _ in range(2):
            with pytest.raises(TailBoundError, match=r"^nu: "):
                outcome_law(model, 0.1, 5.0)
        assert list(model._laws) == [(0.1, 0.1, "X", 0.5)]

    def test_memo_is_not_part_of_the_value(self):
        model, other = self.build("QKD"), self.build("QKD")
        outcome_law(model, 0.5)
        assert repr(model) == repr(other)
        assert "_laws" not in repr(model)

    def test_model_equals_and_hashes_as_itself(self):
        model, other = self.build("QKD"), self.build("QKD")
        assert model == model and model != other
        assert hash(model) == hash(model) and len({model, other}) == 2


class TestSampleCounts:
    def test_one_multinomial_over_the_law(self):
        model = qkd_yield_model(ChannelParams(distance_km=10))
        law = outcome_law(model, 0.5, basis="Z", keep=0.5)
        err, correct, _, _ = np.random.default_rng(11).multinomial(10**7, law)
        rec = sample_counts(model, 0.5, n_pulses=10**7, seed=11, basis="Z", gain_factor=0.5)
        assert rec == CountRecord(10**7, int(err + correct), int(err))

    def test_zero_pulses(self):
        model = qkd_yield_model(ChannelParams(distance_km=10))
        assert sample_counts(model, 0.5, n_pulses=0, seed=1) == CountRecord(0, 0, 0)

    def test_deterministic_under_seed(self):
        model = qkd_yield_model(ChannelParams(distance_km=10))
        a = sample_counts(model, 0.5, n_pulses=10**6, seed=7)
        b = sample_counts(model, 0.5, n_pulses=10**6, seed=7)
        assert a == b

    def test_mean_within_five_sigma(self):
        model = single_entry_model(0.01 / poisson_pmf(0.5, 1))
        rec = sample_counts(model, 0.5, n_pulses=10**8, seed=3)
        gain, _ = expected_gain_and_qber(model, 0.5)
        assert gain == pytest.approx(0.01, rel=1e-9)
        sigma = math.sqrt(10**8 * gain * (1 - gain))
        assert abs(rec.detected - 10**8 * gain) < 5 * sigma

    def test_convergence_over_many_seeds(self):
        model = qkd_yield_model(ChannelParams(distance_km=25))
        gain, _ = expected_gain_and_qber(model, 0.5)
        n = 10**6
        bad = 0
        for seed in range(1000):
            rec = sample_counts(model, 0.5, n_pulses=n, seed=seed)
            if abs(rec.detected / n - gain) >= 5 * math.sqrt(gain / n):
                bad += 1
        assert bad == 0

    def test_gain_factor_scales_acceptance(self):
        model = qkd_yield_model(ChannelParams(distance_km=10))
        gain, _ = expected_gain_and_qber(model, 0.5)
        rec = sample_counts(model, 0.5, n_pulses=10**7, seed=5, gain_factor=0.5)
        sigma = math.sqrt(10**7 * 0.5 * gain)
        assert abs(rec.detected - 10**7 * 0.5 * gain) < 5 * sigma


class TestYieldModelSerialization:
    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            YieldModel(kind="QKD", yields=np.zeros(5), error_rates=np.zeros(5))
        with pytest.raises(ValueError):
            YieldModel(kind="QKD", yields=np.full(13, 1.5), error_rates=np.zeros(13))
        with pytest.raises(ValueError, match="probabilities"):
            YieldModel(kind="QKD", yields=np.full(13, np.nan), error_rates=np.zeros(13))
