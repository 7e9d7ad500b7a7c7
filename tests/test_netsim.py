import math

import numpy as np
import pytest

from qkdnet.channel import (
    ChannelParams,
    IntensitySet,
    expected_gain_and_qber,
    mdi_yield_model,
    qkd_yield_model,
)
from qkdnet.netsim import MessageBus, UnknownPartyError, run_plan, schedule


def default_models(distance=10.0):
    side = ChannelParams(distance_km=distance)
    return {
        "AB": mdi_yield_model(side, side),
        "AC": qkd_yield_model(side),
        "BC": qkd_yield_model(side),
    }


class TestSchedule:
    def test_single_session_type(self):
        plan = schedule(1000, weights=(1, 0, 0), seed=1)
        assert np.all(plan.session == 0)
        assert plan.active_links() == {"AB"}

    def test_weighted_fractions_within_five_sigma(self):
        n = 10**6
        plan = schedule(n, weights=(500, 1, 1), seed=2)
        p = 500 / 502
        mdi = int((plan.session == 0).sum())
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(mdi - n * p) < 5 * sigma

    def test_deterministic(self):
        a = schedule(10_000, seed=3)
        b = schedule(10_000, seed=3)
        for field in ("session", "basis_a", "basis_b", "intensity_a", "intensity_b"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_basis_intensity_coupling(self):
        plan = schedule(50_000, weights=(1, 0, 0), seed=4)
        # Z slots carry the signal class only; X slots carry decoys only
        assert np.all(plan.intensity_a[plan.basis_a == 0] == 0)
        assert np.all(plan.intensity_a[plan.basis_a == 1] >= 1)

    def test_vacuum_switch_pins_inactive_party(self):
        plan = schedule(10_000, weights=(0, 1, 0), seed=5)
        assert np.all(plan.intensity_b == 3)

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            schedule(100, weights=(0, 0, 0), seed=1)

    def test_z_prob_comes_from_intensities(self):
        intensities = IntensitySet(z_basis_prob=0.65)
        implicit = schedule(10_000, intensities=intensities, seed=15)
        explicit = schedule(10_000, (500, 1, 1), 0.65, intensities, 15)
        assert implicit.z_prob == 0.65
        assert np.array_equal(implicit.basis_a, explicit.basis_a)

    @pytest.mark.parametrize("z_prob", [-0.1, 1.5, float("nan")])
    def test_z_prob_outside_unit_interval_rejected(self, z_prob):
        with pytest.raises(ValueError, match=r"z_prob must be in \[0, 1\]"):
            schedule(100, z_prob=z_prob, seed=1)

    def test_z_prob_disagreeing_with_intensities_rejected(self):
        with pytest.raises(ValueError, match="differs from intensities.z_basis_prob"):
            schedule(100, z_prob=0.7, intensities=IntensitySet(z_basis_prob=0.8), seed=1)


class TestRunPlan:
    def test_pure_ac_plan_leaves_other_links_empty(self):
        plan = schedule(20_000, weights=(0, 1, 0), seed=6)
        result = run_plan(plan, default_models(), seed=6)
        assert result.tables["AB"].entries == {}
        assert result.tables["BC"].entries == {}
        assert result.tables["AC"].entries != {}
        assert len(result.z_pools["AC"]) > 0

    def test_missing_model_rejected(self):
        plan = schedule(100, weights=(1, 1, 1), seed=7)
        with pytest.raises(KeyError):
            run_plan(plan, {"AB": default_models()["AB"]}, seed=7)

    def test_wrong_model_kind_rejected(self):
        plan = schedule(100, weights=(1, 0, 0), seed=8)
        with pytest.raises(ValueError):
            run_plan(plan, {"AB": default_models()["AC"]}, seed=8)

    def test_deterministic(self):
        plan = schedule(50_000, seed=9)
        models = default_models()
        r1 = run_plan(plan, models, seed=9)
        r2 = run_plan(plan, models, seed=9)
        assert r1.tables["AB"].to_json() == r2.tables["AB"].to_json()
        assert np.array_equal(r1.z_pools["AB"].bits, r2.z_pools["AB"].bits)

    def test_conservation_and_labels(self):
        plan = schedule(200_000, weights=(2, 1, 1), seed=10)
        result = run_plan(plan, default_models(), seed=10)
        diag = result.diagnostics
        ab_sent = sum(rec.sent for rec in result.tables["AB"].entries.values())
        assert ab_sent + diag["basis_mismatch_slots"] == diag["slots_per_session"]["MDI_AB"]
        for link, name in (("AC", "QKD_AC"), ("BC", "QKD_BC")):
            sent = sum(rec.sent for rec in result.tables[link].entries.values())
            assert sent == diag["slots_per_session"][name]
        for (key, basis) in result.tables["AB"].entries:
            if basis == "Z":
                assert key == ("s", "s")
            else:
                assert set(key) <= {"u", "v", "w"}

    def test_entry_rates_match_model_predictions(self):
        intensities = IntensitySet()
        models = default_models(distance=5.0)
        plan = schedule(2_000_000, weights=(3, 1, 0), z_prob=0.8, intensities=intensities, seed=11)
        result = run_plan(plan, models, seed=11)

        for (key, basis), rec in result.tables["AB"].entries.items():
            if rec.sent < 2000:
                continue
            gain, _ = expected_gain_and_qber(
                models["AB"], intensities.mu(key[0]), intensities.mu(key[1]), basis=basis
            )
            sigma = math.sqrt(rec.sent * gain * (1 - gain))
            assert abs(rec.detected - rec.sent * gain) < 5 * sigma + 1

        for (key, basis), rec in result.tables["AC"].entries.items():
            if rec.sent < 2000:
                continue
            gain, _ = expected_gain_and_qber(models["AC"], intensities.mu(key[0]), basis=basis)
            # passive analyzer keeps half the detections
            mean = rec.sent * gain * 0.5
            sigma = math.sqrt(rec.sent * gain * 0.5)
            assert abs(rec.detected - mean) < 5 * sigma + 1

    def test_z_pool_error_rate_matches_model(self):
        intensities = IntensitySet()
        models = default_models(distance=5.0)
        plan = schedule(3_000_000, weights=(1, 0, 0), intensities=intensities, seed=12)
        result = run_plan(plan, models, seed=12)
        pool = result.z_pools["AB"]
        _, qber = expected_gain_and_qber(
            models["AB"], intensities.s, intensities.s, basis="Z"
        )
        rate = pool.error_flags.mean()
        sigma = math.sqrt(qber * (1 - qber) / len(pool))
        assert abs(rate - qber) < 5 * sigma

    def test_reconfigurability_statistics(self):
        # point-to-point statistics inside a mixed plan match a dedicated
        # single-session plan: sessions do not leak into each other
        intensities = IntensitySet()
        models = default_models(distance=5.0)
        mixed = run_plan(
            schedule(2_000_000, weights=(1, 1, 0), intensities=intensities, seed=13),
            models,
            seed=13,
        )
        pure = run_plan(
            schedule(1_000_000, weights=(0, 1, 0), intensities=intensities, seed=14),
            models,
            seed=14,
        )
        for (key, basis), rec in pure.tables["AC"].entries.items():
            other = mixed.tables["AC"].entries.get((key, basis))
            if other is None or rec.detected < 100:
                continue
            p1 = rec.detected / rec.sent
            p2 = other.detected / other.sent
            sigma = math.sqrt(p1 * (1 - p1) / rec.sent + p2 * (1 - p2) / other.sent)
            assert abs(p1 - p2) < 5 * sigma + 1e-9


class TestMessageBus:
    def test_send_receive_identity(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        bus.send("a", "b", {"x": 1})
        assert bus.receive("b", "a") == {"x": 1}

    def test_fifo_order(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        bus.send("a", "b", "first")
        bus.send("a", "b", "second")
        assert bus.receive("b", "a") == "first"
        assert bus.receive("b", "a") == "second"

    def test_unknown_party(self):
        bus = MessageBus()
        bus.register("a")
        with pytest.raises(UnknownPartyError):
            bus.send("a", "ghost", "hello")

    def test_replay_reproduces_final_states(self):
        def run_session(bus):
            states = {"a": 0, "b": 0}
            bus.register("a")
            bus.register("b")
            bus.send("a", "b", 3)
            states["b"] += bus.receive("b", "a")
            bus.send("b", "a", states["b"] * 2)
            states["a"] += bus.receive("a", "b")
            return states

        live_bus = MessageBus()
        live_states = run_session(live_bus)

        # re-execute the logged deliveries through the same handler logic
        replay_states = {"a": 0, "b": 0}
        for _, sender, receiver, payload in live_bus.replay_log():
            replay_states[receiver] += payload
        assert replay_states == live_states
