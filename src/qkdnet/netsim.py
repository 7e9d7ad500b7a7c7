"""Three-party protocol simulator.

A schedule assigns each pulse slot a session type (relay or one of the two
point-to-point links, weighted 500:1:1 by default), a basis per sender and
an intensity class.  Running a plan against per-link ground-truth yield
models produces the per-link count tables and the undisclosed Z-bit pools
consumed by the analysis stack, plus diagnostics tallies for conservation
checks.

The vacuum class doubles as the reconfiguration switch: a point-to-point
session simply pins the inactive sender to vacuum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LABELS, N_CUT, PASSIVE_BASIS_FACTOR, CountRecord, IntensitySet
from .decoy import CountTable

__all__ = [
    "SESSION_NAMES",
    "SessionPlan",
    "ZPool",
    "RunResult",
    "MessageBus",
    "schedule",
    "run_plan",
]

SESSION_NAMES = ("MDI_AB", "QKD_AC", "QKD_BC")
SESSION_LINK = {0: "AB", 1: "AC", 2: "BC"}

#: slots simulated per vectorised step of run_plan
DEFAULT_CHUNK = 1 << 20


@dataclass
class SessionPlan:
    """Per-slot session, basis and intensity assignments."""

    slots: int
    weights: tuple
    z_prob: float
    intensities: IntensitySet
    seed: int
    session: np.ndarray  # 0 = MDI_AB, 1 = QKD_AC, 2 = QKD_BC
    basis_a: np.ndarray  # 0 = Z, 1 = X
    basis_b: np.ndarray
    intensity_a: np.ndarray  # index into LABELS
    intensity_b: np.ndarray

    def active_links(self) -> set:
        return {SESSION_LINK[int(s)] for s in np.unique(self.session)}


@dataclass
class ZPool:
    """Undisclosed Z-basis signal bits with their ground-truth error flags."""

    bits: np.ndarray
    error_flags: np.ndarray

    def __len__(self):
        return len(self.bits)


@dataclass
class RunResult:
    tables: dict
    z_pools: dict
    diagnostics: dict


def schedule(
    slots: int,
    weights=(500, 1, 1),
    z_prob: float | None = None,
    intensities: IntensitySet | None = None,
    seed: int = 0,
) -> SessionPlan:
    """Draw an i.i.d. per-slot session plan, deterministic under ``seed``.

    Z-basis slots carry the signal intensity only; X-basis slots draw one
    of u/v/w with the intensity set's weights.  Point-to-point sessions pin
    the inactive sender to the vacuum class.  The Z-basis probability is
    the intensity set's ``z_basis_prob``; a ``z_prob`` given as well must
    equal it.
    """
    if slots < 0:
        raise ValueError("slots must be >= 0")
    intensities = intensities or IntensitySet()
    if z_prob is None:
        z_prob = intensities.z_basis_prob
    if not 0.0 <= z_prob <= 1.0:
        raise ValueError(f"z_prob must be in [0, 1], got {z_prob!r}")
    if z_prob != intensities.z_basis_prob:
        raise ValueError(
            f"z_prob {z_prob!r} differs from intensities.z_basis_prob {intensities.z_basis_prob!r}"
        )
    w = np.asarray(weights, dtype=float)
    if w.shape != (3,) or w.min() < 0 or w.sum() <= 0:
        raise ValueError("weights must be three non-negative values with a positive sum")
    rng = np.random.default_rng(seed)
    session = rng.choice(3, size=slots, p=w / w.sum()).astype(np.int8)

    def draw_party():
        basis = (rng.random(slots) >= z_prob).astype(np.int8)  # 1 = X
        x_pick = rng.choice(3, size=slots, p=intensities.x_probs()).astype(np.int8)
        intensity = np.where(basis == 0, 0, 1 + x_pick).astype(np.int8)
        return basis, intensity

    basis_a, intensity_a = draw_party()
    basis_b, intensity_b = draw_party()
    # Vacuum switch: the party not sending in a point-to-point session.
    intensity_b = np.where(session == 1, 3, intensity_b).astype(np.int8)
    intensity_a = np.where(session == 2, 3, intensity_a).astype(np.int8)
    return SessionPlan(
        slots=slots,
        weights=tuple(float(x) for x in w),
        z_prob=z_prob,
        intensities=intensities,
        seed=seed,
        session=session,
        basis_a=basis_a,
        basis_b=basis_b,
        intensity_a=intensity_a,
        intensity_b=intensity_b,
    )


def _clip_photons(rng, mu_arr: np.ndarray) -> np.ndarray:
    # Tail mass beyond the cutoff is below 1e-10 for the admissible
    # intensities, so clipping does not disturb the statistics.
    return np.minimum(rng.poisson(mu_arr), N_CUT)


def run_plan(
    plan: SessionPlan,
    models: dict,
    seed: int = 0,
) -> RunResult:
    """Simulate a session plan against per-link ground-truth models.

    Relay slots record an accepted coincidence under the (intensity pair,
    basis) entry only when the two senders' bases match; mismatched-basis
    coincidences land in the diagnostics tally.  Point-to-point slots record
    a detection when the passive analyzer branch matches the sender's basis.
    Z-basis signal detections append (bit, error-flag) pairs to the link's
    undisclosed pool.  Deterministic under ``seed``.
    """
    for link in sorted(plan.active_links()):
        if link not in models:
            raise KeyError(f"plan schedules link {link} but no model was given")
        want = "MDI" if link == "AB" else "QKD"
        if models[link].kind != want:
            raise ValueError(f"link {link} needs a {want} model, got {models[link].kind}")

    mu_of = np.array([plan.intensities.mu(l) for l in LABELS])
    rng = np.random.default_rng(seed)
    # counts[link][basis * 16 + config] = (sent, detected, errors), basis 0 = Z
    # and 1 = X; config is 4 * ia + ib on the relay link, else the sender's
    # intensity index.
    counts = {link: np.zeros((32, 3), dtype=np.int64) for link in ("AB", "AC", "BC")}
    pools = {link: ([], []) for link in ("AB", "AC", "BC")}
    diag = {
        "basis_mismatch_slots": 0,
        "cross_branch_discarded": 0,
        "branch_mismatch_discarded": 0,
        "slots_per_session": {name: 0 for name in SESSION_NAMES},
    }

    def tally(link, index, sent, detected, errors):
        for column, sel in enumerate((sent, detected, errors)):
            counts[link][:, column] += np.bincount(index[sel], minlength=32)

    for start in range(0, plan.slots, DEFAULT_CHUNK):
        sl = slice(start, min(plan.slots, start + DEFAULT_CHUNK))
        session = plan.session[sl]
        ba, bb = plan.basis_a[sl], plan.basis_b[sl]
        ia, ib = plan.intensity_a[sl], plan.intensity_b[sl]
        for code, name in enumerate(SESSION_NAMES):
            diag["slots_per_session"][name] += int((session == code).sum())

        # ---- relay slots -------------------------------------------------
        m = session == 0
        if m.any():
            model = models["AB"]
            n_a = _clip_photons(rng, mu_of[ia[m]])
            n_b = _clip_photons(rng, mu_of[ib[m]])
            accept = rng.random(m.sum()) < model.yields[n_a, n_b]
            match = ba[m] == bb[m]
            diag["basis_mismatch_slots"] += int((~match).sum())
            diag["cross_branch_discarded"] += int((accept & ~match).sum())
            is_z = ba[m] == 0
            err_prob = np.where(is_z, model.z_error_rates[n_a, n_b], model.error_rates[n_a, n_b])
            err = rng.random(m.sum()) < err_prob
            # Prepared bits: the first sender's bit is uniform; the second
            # sender's preparation realises the drawn error flag through the
            # flip rule (anti-correlated in Z, correlated in X).
            bit_a = rng.integers(0, 2, size=m.sum(), dtype=np.int8)
            ok = accept & match
            tally("AB", ba[m] * 16 + ia[m] * 4 + ib[m], match, ok, ok & err)
            z_sel = ok & is_z
            if z_sel.any():
                pools["AB"][0].append(bit_a[z_sel].copy())
                pools["AB"][1].append(err[z_sel].copy())

        # ---- point-to-point slots ---------------------------------------
        for code, link, active_basis, active_int in ((1, "AC", ba, ia), (2, "BC", bb, ib)):
            m = session == code
            if not m.any():
                continue
            model = models[link]
            n = _clip_photons(rng, mu_of[active_int[m]])
            detect = rng.random(m.sum()) < model.yields[n]
            branch_x = rng.random(m.sum()) < PASSIVE_BASIS_FACTOR  # passive analyzer branch
            basis_x = active_basis[m] == 1
            recorded = detect & (branch_x == basis_x)
            diag["branch_mismatch_discarded"] += int((detect & ~recorded).sum())
            err_prob = np.where(basis_x, model.error_rates[n], model.z_error_rates[n])
            err = rng.random(m.sum()) < err_prob
            bit_a = rng.integers(0, 2, size=m.sum(), dtype=np.int8)
            tally(link, active_basis[m] * 16 + active_int[m], slice(None), recorded, recorded & err)
            z_sel = recorded & ~basis_x
            if z_sel.any():
                pools[link][0].append(bit_a[z_sel].copy())
                pools[link][1].append(err[z_sel].copy())

    tables = {}
    z_pools = {}
    for link in ("AB", "AC", "BC"):
        table = CountTable(link=link)
        for row in np.nonzero(counts[link][:, 0])[0]:
            basis, config = divmod(int(row), 16)
            key = (LABELS[config // 4], LABELS[config % 4]) if link == "AB" else (LABELS[config],)
            table.add(key, "ZX"[basis], CountRecord(*counts[link][row].tolist()))
        tables[link] = table
        bits, errs = pools[link]
        z_pools[link] = ZPool(
            bits=np.concatenate(bits) if bits else np.zeros(0, dtype=np.int8),
            error_flags=np.concatenate(errs) if errs else np.zeros(0, dtype=bool),
        )
    return RunResult(tables=tables, z_pools=z_pools, diagnostics=diag)


class UnknownPartyError(KeyError):
    """A message names a party that was never registered."""


class MessageBus:
    """Ordered, reliable, authenticated-by-assumption classical channel.

    Delivery is FIFO per (sender, receiver) pair and every message is
    logged, so a session can be replayed message-for-message.
    """

    def __init__(self):
        self._parties = set()
        self._queues = {}
        self.log = []

    def register(self, party: str):
        self._parties.add(party)

    def send(self, sender: str, receiver: str, payload):
        if sender not in self._parties:
            raise UnknownPartyError(f"unknown sender {sender!r}")
        if receiver not in self._parties:
            raise UnknownPartyError(f"unknown receiver {receiver!r}")
        self._queues.setdefault((sender, receiver), []).append(payload)
        self.log.append((len(self.log), sender, receiver, payload))

    def receive(self, receiver: str, sender: str):
        queue = self._queues.get((sender, receiver), [])
        if not queue:
            raise LookupError(f"no pending message {sender!r} -> {receiver!r}")
        return queue.pop(0)

    def replay_log(self):
        """The full delivery history as (seq, sender, receiver, payload)."""
        return list(self.log)
