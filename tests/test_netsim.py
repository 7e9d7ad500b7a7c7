import dataclasses
import hashlib
import itertools
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from qkdnet.channel import (
    ENTRY_KEYS,
    LABELS,
    LINK_SENDERS,
    N_CUT,
    ChannelParams,
    CountRecord,
    IntensitySet,
    TailBoundError,
    expected_gain_and_qber,
    mdi_yield_model,
    qkd_yield_model,
)
from qkdnet.cli import load_network, load_preset
from qkdnet import netsim
from qkdnet.decoy import CountTable
from qkdnet.mathkit import ConfigError, poisson_pmf
from qkdnet.netsim import (
    CODES,
    CONFIGS,
    DEFAULT_CHUNK,
    N_CODES,
    RECORDED,
    MessageBus,
    _outcome_table,
    run_plan,
    schedule,
)
from references import recorded_share


def _within_five_sigma(count, n, p):
    return abs(count - n * p) < 5 * math.sqrt(n * p * (1 - p)) + 1


def assert_entries_match_model(result, models, intensities, min_sent=2000):
    """Each entry's detections and errors against its exact expected rates."""
    for link, table in result.tables.items():
        for (key, basis), rec in table.entries.items():
            if rec.sent < min_sent:
                continue
            keep = recorded_share(models[link].senders, basis)
            mus = [intensities.mu(label) for label in key]
            gain, qber = expected_gain_and_qber(models[link], *mus, basis=basis)
            assert _within_five_sigma(rec.detected, rec.sent, keep * gain), (link, key, basis)
            assert _within_five_sigma(rec.errors, rec.sent, keep * gain * qber), (link, key, basis)


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

    def test_basis_follows_the_class_on_every_slot(self):
        # pinned slots included: the inactive sender of a point-to-point slot sends vacuum, in X
        plan = schedule(100_000, weights=(1, 1, 1), seed=28)
        assert np.count_nonzero(plan.session == 1) and np.count_nonzero(plan.session == 2)
        for basis, cls in ((plan.basis_a, plan.intensity_a), (plan.basis_b, plan.intensity_b)):
            assert basis.dtype == np.int8
            assert np.array_equal(basis, cls > 0)

    def test_vacuum_switch_pins_inactive_party(self):
        plan = schedule(10_000, weights=(0, 1, 0), seed=5)
        assert np.all(plan.intensity_b == 3)

    @pytest.mark.parametrize(
        "x_weights", [(0.6, 0.25, 0.15), (0.0, 1.0, 1.0), (1.0, 0.0, 0.0), (0.5, 0.0, 0.5)]
    )
    def test_intensity_class_fractions_within_five_sigma(self, x_weights):
        n = 10**6
        intensities = IntensitySet(s=0.8, u=0.5, v=0.15, z_basis_prob=0.65, x_weights=x_weights)
        plan = schedule(n, weights=(1, 0, 0), intensities=intensities, seed=16)
        probs = [0.65, *(0.35 * intensities.x_probs())]
        for column in (plan.intensity_a, plan.intensity_b):
            counts = np.bincount(column, minlength=4)
            for count, p in zip(counts, probs):
                assert _within_five_sigma(count, n, p)

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            schedule(100, weights=(0, 0, 0), seed=1)

    def test_z_prob_comes_from_intensities(self):
        intensities = IntensitySet(z_basis_prob=0.65)
        implicit = schedule(10_000, intensities=intensities, seed=15)
        explicit = schedule(10_000, (500, 1, 1), 0.65, intensities, 15)
        assert implicit.intensities.z_basis_prob == 0.65
        assert np.array_equal(implicit.basis_a, explicit.basis_a)

    @pytest.mark.parametrize("z_prob", [-0.1, 1.5, float("nan")])
    def test_z_prob_outside_unit_interval_rejected(self, z_prob):
        with pytest.raises(ValueError, match=r"z_prob must be in \[0, 1\]"):
            schedule(100, z_prob=z_prob, seed=1)

    def test_z_prob_disagreeing_with_intensities_rejected(self):
        with pytest.raises(ValueError, match="differs from intensities.z_basis_prob"):
            schedule(100, z_prob=0.7, intensities=IntensitySet(z_basis_prob=0.8), seed=1)


NETWORK_INTENSITIES, _ = load_network(load_preset("desk")["simulate"])


def session_edges(weights):
    w = np.asarray(weights, dtype=float)
    return np.cumsum(w / w.sum())[:2]


def sender_edges(intensities):
    z = intensities.z_basis_prob
    return z + (1.0 - z) * np.cumsum([0.0, *intensities.x_probs()[:2]])


def class_probs(edges):
    return np.diff([0.0, *np.clip(edges, 0.0, 1.0), 1.0])


def joint_law(weights, intensities):
    """Each slot configuration's code, session << 4 | class a << 2 | class b, in increasing
    order, with its exact probability: p_session * p_class_a * p_class_b, the inactive
    sender of a point-to-point session sending vacuum (class 3) with probability 1."""
    w = [Fraction(x) for x in weights]
    z = Fraction(intensities.z_basis_prob)
    xw = [Fraction(x) for x in intensities.x_weights]
    p_class = [z] + [(1 - z) * x / sum(xw) for x in xw]
    law = {}
    for s, a, b in itertools.product(range(3), range(4), range(4)):
        if s == 0:
            law[s << 4 | a << 2 | b] = w[0] / sum(w) * p_class[a] * p_class[b]
        elif (s == 1 and b == 3) or (s == 2 and a == 3):
            law[s << 4 | a << 2 | b] = w[s] / sum(w) * p_class[a if s == 1 else b]
    return law


def config_edges(weights, intensities):
    """The 23 joint edges ``schedule`` draws against: its cumulative configuration law, less the final 1.0."""
    return netsim._config_law(tuple(map(float, weights)), intensities)[:-1].tolist()


def scripted_schedule(monkeypatch, h, ties, weights, intensities):
    """``schedule`` over one block with the draws of both its streams scripted.

    ``h`` holds each slot's 16-bit word; ``ties`` the uniforms handed out,
    in order, whenever ``schedule`` asks for them.  Returns each slot's
    configuration code, session << 4 | class a << 2 | class b.
    """
    h = np.asarray(h, dtype="<u2")
    n = h.size
    words = np.zeros(-(-n // 4) * 4, dtype="<u2")
    words[:n] = h
    ties = iter(ties)
    rng = SimpleNamespace(
        bit_generator=SimpleNamespace(random_raw=lambda size: words.view("<u8")[:size].copy()),
        random=lambda shape: np.array([next(ties) for _ in range(math.prod(shape))]).reshape(shape),
    )
    monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
    plan = schedule(n, weights=weights, intensities=intensities, seed=0)
    assert next(ties, None) is None, "schedule left scripted tie uniforms unread"
    return (plan.session.astype(int) << 4 | plan.intensity_a.astype(int) << 2 | plan.intensity_b).tolist()


def tie_cases(edges):
    """(h, r) pairs around each edge's top 16 bits; r is None off a tie.

    At a tie r takes 0, the floats just below, at and just above the
    edge's fraction edge * 2^16 - top, and the largest float below 1.
    """
    edges = [e for e in edges if e < 1.0]
    tops = {math.floor(e * 65536) for e in edges}
    cases = []
    for e in edges:
        top = math.floor(e * 65536)
        frac = e * 65536 - top  # exact: the scaling is a power of two
        for r in (0.0, np.nextafter(frac, 0.0), frac, np.nextafter(frac, 1.0), np.nextafter(1.0, 0.0)):
            cases.append((top, float(r)))
        cases += [(h, None) for h in (top - 1, top + 1) if 0 <= h < 65536 and h not in tops]
    return cases


def exact_code(h, r, edges, codes):
    """Code of the configuration holding u = (h + r) / 2^16, in exact arithmetic:
    ``codes[k]``, where ``k`` is the number of ``edges`` at or below u."""
    u = (Fraction(h) + Fraction(r or 0.0)) / 65536
    return codes[sum(u >= Fraction(e) for e in edges)]


#: session weights and sender class weights with zero entries
SESSION_WEIGHTS = [(500, 1, 1), (0, 0, 1), (1, 1, 0), (3, 0, 1)]
X_WEIGHTS = [(0.6, 0.25, 0.15), (0.0, 1.0, 1.0), (1.0, 0.0, 0.0), (1, 1, 1)]
#: bound on a joint edge's distance from the exact cumulative law, to first order: a
#: configuration's float probability carries at most 14 roundings of relative size 2^-53,
#: so a partial sum and the total, each rounded once more, are within 15 of them, and
#: the edge, their rounded quotient, within 31
EDGE_TOLERANCE = Fraction(31, 2**53)


def draw_cases():
    """(weights, intensities) pairs: every session weighting against every class weighting, at two basis biases."""
    return [
        pytest.param(w, IntensitySet(s=0.8, u=0.5, v=0.15, z_basis_prob=z, x_weights=x), id=f"{w}-{x}-{z:.2f}")
        for w, x, z in itertools.product(SESSION_WEIGHTS, X_WEIGHTS, (0.65, 1 / 3))
    ]


class TestScheduleDraw:
    @staticmethod
    def check_ties(monkeypatch, weights, intensities):
        edges, codes = config_edges(weights, intensities), list(joint_law(weights, intensities))
        cases = tie_cases(edges)
        ties = [r for _, r in cases if r is not None]
        drawn = scripted_schedule(monkeypatch, [h for h, _ in cases], ties, weights, intensities)
        assert drawn == [exact_code(h, r, edges, codes) for h, r in cases]

    @pytest.mark.parametrize("weights", SESSION_WEIGHTS)
    def test_session_ties_resolve_exactly(self, monkeypatch, weights):
        self.check_ties(monkeypatch, weights, NETWORK_INTENSITIES)

    @pytest.mark.parametrize("x_weights", X_WEIGHTS)
    @pytest.mark.parametrize("z_prob", [0.65, 1 / 3])
    def test_sender_ties_resolve_exactly(self, monkeypatch, x_weights, z_prob):
        intensities = IntensitySet(s=0.8, u=0.5, v=0.15, z_basis_prob=z_prob, x_weights=x_weights)
        self.check_ties(monkeypatch, (500, 1, 1), intensities)

    @pytest.mark.parametrize("weights, intensities", draw_cases())
    def test_every_word_draws_its_configuration(self, monkeypatch, weights, intensities):
        # r = 0 in every edge cell: u = h / 2^16 exactly, so a slot's configuration is
        # the number of edges <= h / 2^16, by exact float comparison
        law, edges = joint_law(weights, intensities), config_edges(weights, intensities)
        edge_cells = {math.floor(e * 65536) for e in edges if e < 1.0}
        h = np.arange(65536)
        drawn = scripted_schedule(monkeypatch, h, [0.0] * len(edge_cells), weights, intensities)
        assert drawn == np.array(list(law))[np.searchsorted(edges, h / 65536, side="right")].tolist()
        assert all(law[code] > 0 for code in set(drawn))

    @pytest.mark.parametrize("weights, intensities", draw_cases())
    def test_joint_edges_follow_the_exact_law(self, weights, intensities):
        # Each edge counts with its exact probability on the 2^-69 grid of u = (h + r) / 2^16
        # (the tie tests above), so a configuration is drawn with the difference of its two
        # edges' grid points: close to the product law, and 0 where the law is 0.
        law, edges = joint_law(weights, intensities), config_edges(weights, intensities)
        for e, exact in zip(edges, itertools.accumulate(law.values())):
            assert abs(Fraction(e) - exact) <= EDGE_TOLERANCE
        grid = [0, *(Fraction(math.ceil(Fraction(e) * 2**69), 2**69) for e in edges), 1]
        for lo, hi, p in zip(grid, grid[1:], law.values()):
            assert abs((hi - lo) - p) <= 2 * EDGE_TOLERANCE + Fraction(2, 2**69)
            assert hi == lo or p > 0, "a configuration of probability 0 is drawn"

    def test_boundary_edges(self):
        # an edge at 0.0 always counts and one at 1.0 never does; zero-weight
        # intensity classes are in test_intensity_class_fractions_within_five_sigma
        assert np.all(schedule(100_000, weights=(0, 0, 1), seed=23).session == 2)
        certain_z = IntensitySet(s=0.8, u=0.5, v=0.15)
        object.__setattr__(certain_z, "z_basis_prob", 1.0)  # schedule accepts what IntensitySet refuses
        plan = schedule(100_000, weights=(1, 0, 0), intensities=certain_z, seed=23)
        assert np.all(plan.intensity_a == 0) and np.all(plan.intensity_b == 0)

    def test_joint_law_within_five_sigma(self):
        # the (session, class a, class b) cells, vacuum pin included
        n, weights = 10**6, (2, 1, 1)
        plan = schedule(n, weights=weights, intensities=NETWORK_INTENSITIES, seed=25)
        p_session = class_probs(session_edges(weights))
        p_class = class_probs(sender_edges(NETWORK_INTENSITIES))
        pinned = np.eye(4)[3]
        law = np.stack([
            np.outer(p_class, p_class),
            np.outer(p_class, pinned),
            np.outer(pinned, p_class),
        ]) * p_session[:, None, None]
        cells = np.bincount(
            (plan.session * 16 + plan.intensity_a * 4 + plan.intensity_b).astype(int), minlength=48
        )
        for count, p in zip(cells, law.ravel()):
            assert _within_five_sigma(count, n, p)

    @pytest.mark.parametrize("tail", [1, 2, 3, 100_003])
    def test_plan_beyond_whole_chunks(self, tail):
        weights = (2, 1, 1)
        plan = schedule(DEFAULT_CHUNK + tail, weights=weights, intensities=NETWORK_INTENSITIES, seed=26)
        head = schedule(DEFAULT_CHUNK, weights=weights, intensities=NETWORK_INTENSITIES, seed=26)
        fields = ("session", "basis_a", "basis_b", "intensity_a", "intensity_b")
        for field in fields:
            column = getattr(plan, field)
            assert column.shape == (DEFAULT_CHUNK + tail,)
            assert np.array_equal(column[:DEFAULT_CHUNK], getattr(head, field))
        rest = plan.session[DEFAULT_CHUNK:]
        assert set(rest.tolist()) <= {0, 1, 2}
        assert set(plan.intensity_a[DEFAULT_CHUNK:].tolist()) <= {0, 1, 2, 3}
        for k, p in enumerate(class_probs(session_edges(weights))):
            assert _within_five_sigma(np.count_nonzero(rest == k), tail, p)


FIELDS = ("session", "intensity_a", "intensity_b")
#: sha256 of the three plan arrays, in FIELDS order, for seeds 1-3 on the desk intensities
PLAN_DIGESTS = {
    (7, (500, 1, 1)): (
        "1b7fcba9c916b618044bc2997ded6c9cf96fbed7154e5515110ec1a63a4e1ec7",
        "61373ea40e542836e64d1c666f6ea44b5aeb9e7a5cc2f33fcb4a7a61068200ce",
        "76de1f204c267f470b5a6ccdf2a5d3ed9ba8962d93cc5a716d73910f7eb719a4",
    ),
    (7, (1, 1, 1)): (
        "57640c55a3bce0ed135da5fccd0c2e97e1711ddba05e5f1633ba2fc5ffbd2fc2",
        "691740ca4ed2efc49c98c2a961e35c4733b715109d4ad628e14a4a1c21e81889",
        "511f2a77f2652844a852547658f8c182a90c7d9a114e9f2136ec7ce85977bae1",
    ),
    (65_537, (500, 1, 1)): (
        "2ddeadfbebd690f889a0fc6b22c03bd7020ee61d009f19320bea82f7f827b7b8",
        "dd7de6e5e277e02ceacc93a741645ebfd5131430296f4f9d98d55c5775be6f22",
        "af96a744960d5a841086c27fc60429fe2cdb2ba03e7a503bc7a72158933299d7",
    ),
    (65_537, (1, 1, 1)): (
        "f13f2b970403c1e2f6503c02bb96beefe3659bea16eb512ec18b275027523d81",
        "144f331c35af146c768de2a1ca7505ca0cc11d6894f088451f401d1985bf8b95",
        "1feea3336be46b74204a83dff8c0536b8cb9bce6e5ff0170812f69eaecbe737a",
    ),
    (DEFAULT_CHUNK + 12_345, (500, 1, 1)): (
        "ac346fbdf0ff30ba3428ef27c16effb8429a9e1cd561e7dbf4a46764db01b977",
        "b451117dee90ae189a23601a70e7251f8e6fc7e85e96899afdeb4b46ed19cf63",
        "c2a4059b0d77190257a43913eb0a2a4355f0b3274712dbc754dad005ed3f73dd",
    ),
    (DEFAULT_CHUNK + 12_345, (1, 1, 1)): (
        "7e861c7d6b8e3d7459b741ec3f53ab61f8652847ab0f0fbaab9acfe9cd0f0e2c",
        "9ccf509ad7280590a6d35a97eaf5a3b8c6cbe59c2dbcd0525b937d189212c54d",
        "327b692f0c8873b22568377fc01a7298be098ff93a98f999f09de56dc4a79236",
    ),
}
#: sha256 of run_plan's tables, pools and diagnostics on the seed-3 plan of DEFAULT_CHUNK + 12,345 slots
RUN_DIGESTS = {
    (1, 1, 1): "28a2636f34042bb643b4213b44ca47fe208021e0211110cc127c70e5e7bfae57",
    (500, 1, 1): "0b47f0ffb9b570c05b3185817d198550f1c63d04491e4caf6fba5988aa2c20e1",
}


class TestPlanDigests:
    @pytest.mark.parametrize("slots, weights", list(PLAN_DIGESTS))
    def test_plan_arrays_are_pinned(self, slots, weights):
        for seed, digest in enumerate(PLAN_DIGESTS[slots, weights], start=1):
            plan = schedule(slots, weights, intensities=NETWORK_INTENSITIES, seed=seed)
            sha = hashlib.sha256(b"".join(getattr(plan, field).tobytes() for field in FIELDS))
            assert sha.hexdigest() == digest, (slots, weights, seed)

    @pytest.mark.parametrize("weights", list(RUN_DIGESTS))
    def test_run_outputs_are_pinned(self, weights):
        plan = schedule(DEFAULT_CHUNK + 12_345, weights, intensities=NETWORK_INTENSITIES, seed=3)
        result = run_plan(plan, default_models(), seed=3)
        sha = hashlib.sha256()
        for link in sorted(result.tables):
            pool = result.z_pools[link]
            sha.update(result.tables[link].to_json().encode() + pool.bits.tobytes() + pool.error_flags.tobytes())
        sha.update(json.dumps(result.diagnostics, sort_keys=True).encode())
        assert sha.hexdigest() == RUN_DIGESTS[weights]

    @pytest.mark.parametrize("block", [1000, 4099])
    def test_plan_does_not_depend_on_the_block_size(self, monkeypatch, block):
        slots, weights = DEFAULT_CHUNK + 12_345, (1, 1, 1)
        want = schedule(slots, weights, intensities=NETWORK_INTENSITIES, seed=3)
        monkeypatch.setattr(netsim, "_BLOCK", block)
        plan = schedule(slots, weights, intensities=NETWORK_INTENSITIES, seed=3)
        for field in FIELDS:
            assert np.array_equal(getattr(plan, field), getattr(want, field)), field


def naive_sent(plan):
    """Slots per code, each slot's code built on its own in int64."""
    code = sum(getattr(plan, field).astype(np.int64) << shift for field, shift in zip(FIELDS, (4, 2, 0)))
    return np.bincount(code, minlength=48)


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
        with pytest.raises(ConfigError, match="^AC: .*no model"):
            run_plan(plan, {"AB": default_models()["AB"]}, seed=7)

    @pytest.mark.parametrize("weights, link, model", [((1, 0, 0), "AB", "AC"), ((0, 1, 0), "AC", "AB"),
                                                      ((0, 0, 1), "BC", "AB")])
    def test_wrong_model_kind_rejected(self, weights, link, model):
        # a one-sender model on the relay link, or a two-sender one on a point-to-point link
        plan = schedule(100, weights=weights, seed=8)
        with pytest.raises(ConfigError, match=f"^{link}: .*sender"):
            run_plan(plan, {link: default_models()[model]}, seed=8)

    @pytest.mark.parametrize("field, code", [("session", 4), ("intensity_a", 4), ("intensity_b", 7)])
    def test_out_of_range_plan_codes_rejected(self, field, code):
        plan = schedule(1000, weights=(1, 0, 0), seed=19)
        getattr(plan, field)[500] = code
        with pytest.raises(ValueError, match="plan codes outside"):
            run_plan(plan, default_models(), seed=19)

    @pytest.mark.parametrize("slots", [7, 8 * 1_250 + 5, DEFAULT_CHUNK + 3])
    def test_sent_counts_every_slot_once(self, slots):
        # keys are packed eight slots to a word and counted in pairs: plans
        # whose length is no multiple of 8 leave a bytewise tail and an odd byte
        plan = schedule(slots, weights=(1, 1, 1), intensities=NETWORK_INTENSITIES, seed=27)
        result = run_plan(plan, default_models(), seed=27)
        sent = naive_sent(plan)
        entries = {code: result.tables[link].entries.get((label, basis))
                   for code, (link, label, basis) in RECORDED.items()}
        assert {code: rec.sent for code, rec in entries.items() if rec} == {code: sent[code] for code in RECORDED
                                                                            if sent[code]}
        per_session = [sent[:16].sum(), sent[16:32].sum(), sent[32:].sum()]
        assert list(result.diagnostics["slots_per_session"].values()) == per_session
        assert sum(per_session) == slots

    def test_every_configuration_row_is_reachable(self):
        plan = schedule(100_000, weights=(1, 1, 1), intensities=NETWORK_INTENSITIES, seed=29)
        sent = naive_sent(plan)
        assert np.all(sent[CODES] > 0) and sent.sum() == sent[CODES].sum() == plan.slots

    @pytest.mark.parametrize("field, code", [("session", 3), ("intensity_a", 4)])
    @pytest.mark.parametrize("slot", [8 * 3 + 2, 8 * 1_250 + 3, DEFAULT_CHUNK + 1],
                             ids=("mid-word", "tail", "next-chunk-tail"))
    def test_out_of_range_code_rejected_in_word_or_tail(self, field, code, slot):
        plan = schedule(8 * 1_250 + 5 if slot < DEFAULT_CHUNK else DEFAULT_CHUNK + 3, weights=(1, 0, 0), seed=19)
        getattr(plan, field)[slot] = code
        with pytest.raises(ValueError, match="plan codes outside"):
            run_plan(plan, default_models(), seed=19)

    @pytest.mark.parametrize("weights, field, code", [((0, 1, 0), "intensity_b", 0), ((0, 0, 1), "intensity_a", 1)])
    def test_idle_sender_off_vacuum_rejected(self, monkeypatch, weights, field, code):
        # a point-to-point slot whose idle sender is not at vacuum is no configuration: refused before any draw
        plan = schedule(1000, weights=weights, seed=19)
        getattr(plan, field)[500] = code

        def refuse(*args, **kwargs):
            raise AssertionError("run_plan drew before refusing the plan")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(ValueError, match="plan codes outside CODES"):
            run_plan(plan, default_models(), seed=19)

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
        for link, pool in result.z_pools.items():
            z_rec = result.tables[link].z_entry()
            assert (len(pool), int(pool.error_flags.sum())) == (z_rec.detected, z_rec.errors)
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
        assert_entries_match_model(result, models, intensities)

    def test_plan_and_run_streams_independent_under_one_seed(self):
        # Every caller passes one seed to both schedule and run_plan; the run
        # must not replay the uniforms that placed the sessions.
        intensities = IntensitySet()
        models = default_models(distance=5.0)
        plan = schedule(1_000_000, weights=(1, 1, 0), intensities=intensities, seed=17)
        result = run_plan(plan, models, seed=17)
        assert result.tables["AB"].entries and result.tables["AC"].entries
        assert_entries_match_model(result, models, intensities)

    def test_discard_tallies_match_model_predictions(self):
        intensities = IntensitySet(s=0.8, u=0.5, v=0.15)
        models = default_models(distance=0.0)
        plan = schedule(2_000_000, weights=(3, 1, 1), intensities=intensities, seed=18)
        diag = run_plan(plan, models, seed=18).diagnostics
        mu = [intensities.mu(label) for label in LABELS]

        relay_mismatch = (plan.session == 0) & (plan.basis_a != plan.basis_b)
        mean = var = 0.0
        for ia in range(4):
            for ib in range(4):
                n = np.count_nonzero(relay_mismatch & (plan.intensity_a == ia) & (plan.intensity_b == ib))
                gain, _ = expected_gain_and_qber(models["AB"], mu[ia], mu[ib])
                mean, var = mean + n * gain, var + n * gain * (1 - gain)
        assert abs(diag["cross_branch_discarded"] - mean) < 5 * math.sqrt(var) + 1

        mean = var = 0.0
        for code, link, basis, intensity in ((1, "AC", plan.basis_a, plan.intensity_a),
                                             (2, "BC", plan.basis_b, plan.intensity_b)):
            for b in (0, 1):
                # a Z slot is discarded on the X branch, an X slot on the Z branch
                discard = 1 - recorded_share(1, "ZX"[b])
                for i in range(4):
                    n = np.count_nonzero((plan.session == code) & (basis == b) & (intensity == i))
                    p = discard * expected_gain_and_qber(models[link], mu[i])[0]
                    mean, var = mean + n * p, var + n * p * (1 - p)
        assert abs(diag["branch_mismatch_discarded"] - mean) < 5 * math.sqrt(var) + 1

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

    def test_z_pool_error_flags_placed_uniformly(self):
        # the mean index of E flags drawn without replacement from P positions
        # is (P - 1) / 2 with variance (P^2 - 1) / 12 / E * (P - E) / (P - 1)
        side = ChannelParams(distance_km=0.0, detector_efficiency=0.95, misalignment=0.1)
        plan = schedule(1_000_000, weights=(1, 0, 0), seed=21)
        flags = run_plan(plan, {"AB": mdi_yield_model(side, side)}, seed=21).z_pools["AB"].error_flags
        size, errors = len(flags), int(flags.sum())
        assert errors > 1000
        var = (size**2 - 1) / 12 / errors * (size - errors) / (size - 1)
        assert abs(np.flatnonzero(flags).mean() - (size - 1) / 2) < 5 * math.sqrt(var)

    def test_result_depends_only_on_slots_per_configuration(self):
        # no per-slot draws: reordering the slots leaves the result unchanged
        plan = schedule(100_000, weights=(2, 1, 1), seed=22)
        models = default_models()
        order = np.random.default_rng(0).permutation(plan.slots)
        shuffled = dataclasses.replace(plan, **{field: getattr(plan, field)[order] for field in FIELDS})
        r1, r2 = run_plan(plan, models, seed=22), run_plan(shuffled, models, seed=22)
        assert r1.diagnostics == r2.diagnostics
        for link in r1.tables:
            assert r1.tables[link].to_json() == r2.tables[link].to_json()
            assert np.array_equal(r1.z_pools[link].bits, r2.z_pools[link].bits)
            assert np.array_equal(r1.z_pools[link].error_flags, r2.z_pools[link].error_flags)

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


class TestOutcomeTable:
    @pytest.mark.parametrize("distance", [0.0, 10.0, 50.0])
    def test_rows_equal_exact_outcome_law(self, distance):
        intensities = IntensitySet()
        models = default_models(distance)
        law = _outcome_table(models, intensities)
        assert law.shape == (N_CODES, 4) == (48, 4)
        mu = [intensities.mu(label) for label in LABELS]
        for key in range(48):
            session, ia, ib = key >> 4, key >> 2 & 3, key & 3
            ba, bb = int(ia > 0), int(ib > 0)  # the basis follows the class
            row = law[key]
            if session and (ia, ib)[2 - session] != 3:  # the idle sender off vacuum: no slot carries the code
                assert not row.any(), key
                continue
            if session == 0:
                gain, qber = expected_gain_and_qber(models["AB"], mu[ia], mu[ib], basis="ZX"[ba])
                want = (gain * qber, gain * (1 - qber), 0.0) if ba == bb else (0.0, 0.0, gain)
            else:
                link, basis, i = ("AC", ba, ia) if session == 1 else ("BC", bb, ib)
                gain, qber = expected_gain_and_qber(models[link], mu[i], basis="ZX"[basis])
                keep = recorded_share(1, "ZX"[basis])
                want = (keep * gain * qber, keep * gain * (1 - qber), (1 - keep) * gain)
            want = (*want, 1.0 - gain)
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-12, err_msg=str(key))

    def test_photon_tail_folds_into_cutoff(self):
        # photon numbers follow min(Poisson(mu), N_CUT): the whole Poisson tail
        # (about 6e-11 at mu = 1, inside TAIL_LIMIT) sits on N_CUT
        model = default_models()["AC"]
        pmf = [poisson_pmf(1.0, n) for n in range(N_CUT)]
        law = np.append(pmf, 1.0 - sum(pmf))
        truncated = np.append(pmf, poisson_pmf(1.0, N_CUT)) @ model.yields
        row = _outcome_table({"AC": model}, IntensitySet(s=1.0))[1 << 4 | 3]
        # session AC, sender A with the signal class and B idle at vacuum, in Z: all detections
        assert row[:3].sum() == pytest.approx(law @ model.yields, abs=1e-13)
        assert law @ model.yields - truncated > 1e-11

    def test_run_plan_rejects_class_beyond_tail_limit(self):
        # the intensity set refuses the class where it enters, so no plan
        # handed to run_plan can carry it
        with pytest.raises(TailBoundError):
            IntensitySet(s=8.0)


class TestEntryKeys:
    """channel.ENTRY_KEYS is the one rule of what a link records, in a count table and in the simulator."""

    @pytest.mark.parametrize("link", list(LINK_SENDERS))
    def test_count_table_admits_exactly_its_link_entries(self, link):
        record = CountRecord(100, 10, 1)
        for label, basis in itertools.product([*LABELS, *itertools.product(LABELS, repeat=2)], "ZX"):
            entry, table = ((label,) if isinstance(label, str) else label, basis), CountTable(link=link)
            if entry in ENTRY_KEYS[LINK_SENDERS[link]]:
                table.add(label, basis, record)
                with pytest.raises(ValueError, match="duplicate"):
                    table.add(label, basis, record)
                assert table.entries == {entry: record}
            else:
                with pytest.raises(ValueError, match=rf"^link {link} has no \(intensity, basis\) entry"):
                    table.add(label, basis, record)
                assert table.entries == {}, entry

    @pytest.mark.parametrize("link", list(LINK_SENDERS))
    def test_simulator_records_exactly_its_link_entries(self, link):
        recorded = [(labels, basis) for name, labels, basis in RECORDED.values() if name == link]
        assert sorted(recorded) == sorted(ENTRY_KEYS[LINK_SENDERS[link]])
        assert len(set(recorded)) == len(recorded)

    def test_codes_are_the_configurations_and_only_mismatched_relay_pairs_go_unrecorded(self):
        occurring = []
        for code in range(48):
            session, a, b = code >> 4, code >> 2 & 3, code & 3
            if session == 0:
                occurring.append((code, ("AB", (LABELS[a], LABELS[b]), "ZX"[a > 0])))
            elif (a, b)[2 - session] == 3:  # a point-to-point session's idle sender at vacuum
                active = (a, b)[session - 1]
                occurring.append((code, (("AC", "BC")[session - 1], (LABELS[active],), "ZX"[active > 0])))
        assert list(CONFIGS.items()) == occurring and CODES.tolist() == list(CONFIGS)
        for code in set(CONFIGS) - set(RECORDED):
            assert code >> 4 == 0 and (code >> 2 & 3 > 0) != (code & 3 > 0), code
        assert len(CONFIGS) - len(RECORDED) == 6


class TestMessageBus:
    def test_send_receive_identity(self):
        bus = MessageBus()
        bus.send("a", "b", {"x": 1})
        assert bus.receive("b", "a") == {"x": 1}

    def test_fifo_order(self):
        # each (sender, receiver) pair is its own queue
        bus = MessageBus()
        bus.send("a", "b", "first")
        bus.send("b", "a", "reply")
        bus.send("a", "b", "second")
        assert bus.receive("b", "a") == "first"
        assert bus.receive("b", "a") == "second"
        with pytest.raises(LookupError, match="no pending message 'a' -> 'b'"):
            bus.receive("b", "a")
        assert bus.receive("a", "b") == "reply"
