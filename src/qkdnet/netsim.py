"""Three-party protocol simulator.

A schedule assigns each pulse slot a session type (relay or one of the two
point-to-point links, weighted 500:1:1 by default) and an intensity class
per sender; the class fixes the sender's basis.  Running a plan against
per-link ground-truth yield models produces the per-link count tables and
the undisclosed Z-bit pools consumed by the analysis stack, plus
diagnostics tallies for conservation checks.

The vacuum class doubles as the reconfiguration switch: a point-to-point
session simply pins the inactive sender to vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LABELS, CountRecord, IntensitySet, outcome_law, sift_keep
from .decoy import CountTable
from .mathkit import ConfigError, check_count, check_real, check_weights

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
LINKS = ("AB", "AC", "BC")  # the link each session code runs

#: slots handled per vectorised step of run_plan
DEFAULT_CHUNK = 1 << 20
_BLOCK = 1 << 16  # slots per cache-sized pass of schedule's table reads; no draw depends on it

BASIS = "ZXXX"  # each intensity class's basis: the signal class is sent in Z, the decoys in X

# Slot configurations: rows 0-15 are the relay link's (class a, class b)
# pairs, ordered by (basis a, basis b, class a, class b); rows 16-19 and
# 20-23 the AC and BC links' sender class.  A slot's code packs its
# (session, class a, class b) into 6 bits as session << 4 | class a << 2 |
# class b; CONFIG_OF maps a code to its row, and CODES lists the 24 codes.
N_CONFIGS = 24
RELAY_CLASSES = sorted(np.ndindex(4, 4), key=lambda c: (c[0] > 0, c[1] > 0, c))  # Z before X
_relay_row = {c: row for row, c in enumerate(RELAY_CLASSES)}
CONFIG_OF = np.array([_relay_row[a, b] if s == 0 else 16 + a if s == 1 else 20 + b
                      for s, a, b in np.ndindex(3, 4, 4)], dtype=np.int16)
#: recorded rows of each link's count table: row -> (link, intensity label(s), basis)
TABLE_ROWS = {
    **{row: ("AB", (LABELS[a], LABELS[b]), BASIS[a])
       for row, (a, b) in enumerate(RELAY_CLASSES) if BASIS[a] == BASIS[b]},
    **{16 + 4 * k + i: (link, (LABELS[i],), BASIS[i]) for k, link in enumerate(("AC", "BC")) for i in range(4)},
}
CODES = np.array([s << 4 | a << 2 | b for s, a, b in np.ndindex(3, 4, 4)
                  if s == 0 or (s == 1 and b == 3) or (s == 2 and a == 3)], dtype=np.int8)
EDGE = -1  # schedule's table value for a cell an edge falls in; no code is negative


@dataclass
class SessionPlan:
    """Per-slot session and intensity classes; each sender's basis follows its class."""

    slots: int
    intensities: IntensitySet
    seed: int
    session: np.ndarray  # 0 = MDI_AB, 1 = QKD_AC, 2 = QKD_BC
    intensity_a: np.ndarray  # index into LABELS
    intensity_b: np.ndarray

    # each sender's basis per slot, 0 = Z and 1 = X, derived from its class
    basis_a = property(lambda self: (self.intensity_a > 0).view(np.int8))
    basis_b = property(lambda self: (self.intensity_b > 0).view(np.int8))

    def active_links(self) -> set:
        return {link for k, link in enumerate(LINKS) if np.count_nonzero(self.session == k)}


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


def _config_law(weights: tuple, intensities: IntensitySet) -> np.ndarray:
    """Cumulative law of :data:`CODES`, p_session · p_class_a · p_class_b with a point-to-point
    session's inactive sender at vacuum.  Each partial sum is rounded once and divided by the
    total, so the law ends at 1.0 and a configuration of probability 0 spans no interval."""
    z, p_session = intensities.z_basis_prob, np.divide(weights, math.fsum(weights))
    p_class = np.array([z, *(1.0 - z) * intensities.x_probs()])
    law = [*p_session[0] * np.outer(p_class, p_class).ravel(), *p_session[1] * p_class, *p_session[2] * p_class]
    return np.array([math.fsum(law[: k + 1]) for k in range(N_CONFIGS)]) / math.fsum(law)


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

    A slot's code is the k-th of :data:`CODES`, k the number of joint edges
    (:func:`_config_law`) at or below u = (h + r) / 2^16.  One 16-bit word h
    of raw output per slot picks a cell of a 65,536-cell table; only in the
    at most 23 cells an edge falls in is r = ``random()`` drawn, from a
    stream of its own so that no draw depends on the block size.  Each edge
    counts with its exact probability on the 2^-69 grid (an edge at 1.0
    never counts; one at 0.0 always does).
    """
    slots = check_count(slots, "slots")
    seed = check_count(seed, "seed")
    intensities = intensities or IntensitySet()
    z_prob = intensities.z_basis_prob if z_prob is None else z_prob
    if check_real(z_prob, "z_prob", 0.0, 1.0) != intensities.z_basis_prob:
        raise ConfigError(f"z_prob: {z_prob!r} differs from intensities.z_basis_prob "
                          f"{intensities.z_basis_prob!r}; set only intensities.z_basis_prob")
    edges = _config_law(check_weights(weights, "weights"), intensities)[:-1]
    top, frac = np.divmod(edges * 65536.0, 1.0)  # exact: the scaling is a power of two
    # configuration k fills cells top[k-1] + 1 .. top[k]; a cell an edge falls in is marked
    table = np.repeat(CODES, np.diff(np.minimum(top, 65535), prepend=-1, append=65535).astype(int))
    table[top[top < 65536].astype(int)] = EDGE
    rng = np.random.default_rng(seed)
    edge_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])  # run_plan's is child 0
    # One block for the three code arrays: as three separate arrays, a loop of
    # 10^7-slot plans whose basis views were read took about 4,500 page faults
    # a plan, as glibc returned the freed heap top and faulted it back in.
    session, intensity_a, intensity_b = np.empty((3, slots), np.int8)
    block = _BLOCK - _BLOCK % 4  # whole 64-bit words, read little-endian: four slots' words each on any host
    for start in range(0, slots, block):
        sl = slice(start, min(slots, start + block))
        h = rng.bit_generator.random_raw(-(-(sl.stop - start) // 4)).astype("<u8", copy=False).view("<u2")
        code = np.take(table, h[: sl.stop - start])
        edge = np.flatnonzero(code == EDGE)
        he, r = h[edge, None], edge_rng.random((edge.size, 1))
        code[edge] = CODES[((top < he) | (top == he) & (r >= frac)).sum(axis=1)]
        np.right_shift(code, 4, out=session[sl])
        np.bitwise_and(np.right_shift(code, 2, out=intensity_a[sl]), 3, out=intensity_a[sl])
        np.bitwise_and(code, 3, out=intensity_b[sl])
    return SessionPlan(slots, intensities, seed, session, intensity_a, intensity_b)


def _outcome_table(models: dict, intensities: IntensitySet) -> np.ndarray:
    """Outcome law of each configuration row, shape (N_CONFIGS, 4).

    Row r is configuration r's :func:`channel.outcome_law`, kept by the
    link's sifting (:func:`channel.sift_keep`).  Rows of links without a
    model stay zero.
    """
    mu = [intensities.mu(label) for label in LABELS]
    law = np.zeros((N_CONFIGS, 4))
    if "AB" in models:
        for row, (a, b) in enumerate(RELAY_CLASSES):
            law[row] = outcome_law(models["AB"], mu[a], mu[b], BASIS[a], sift_keep("MDI", BASIS[a], BASIS[b]))
    for start, link in ((16, "AC"), (20, "BC")):
        if link in models:
            for row, i in enumerate(range(4), start):
                law[row] = outcome_law(models[link], mu[i], None, BASIS[i], sift_keep("QKD", BASIS[i]))
    return law


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
    Z-basis signal detections form the link's undisclosed pool of (bit,
    error-flag) pairs.

    The plan enters only through how many slots fall in each configuration
    row (:data:`CONFIG_OF`).  Slots of one row are i.i.d. draws of its
    outcome law (:func:`_outcome_table`, photon numbers marginalised
    exactly), so one multinomial per row gives every outcome tally; an
    intensity class beyond the law's tail limit raises
    :class:`channel.TailBoundError`.  A pool's bits are uniform and its
    error flags sit at uniformly random positions, which is the law of
    per-slot draws given the row's tallies.  The draws come from a child
    stream of ``seed``'s sequence, independent of the streams
    :func:`schedule` drew the plan from under the same seed.  Deterministic
    under ``seed``.
    """
    pairs = np.zeros(1 << 16, dtype=np.int64)
    columns = (plan.session, plan.intensity_a, plan.intensity_b)
    for start in range(0, plan.slots, DEFAULT_CHUNK):
        sl = slice(start, min(plan.slots, start + DEFAULT_CHUNK))
        n = sl.stop - sl.start
        m = n - n % 8  # slots keyed eight to a uint64 word; the tail one byte at a time
        key = np.zeros(n + n % 2, dtype=np.uint8)
        key[n:] = 255  # an odd chunk's pad byte, the key of no configuration
        for column, shift, limit in zip(columns, (4, 2, 0), (3, 4, 4)):
            code = np.ascontiguousarray(column[sl]).view(np.uint8)
            if code.max() >= limit:
                raise ValueError(f"plan codes outside [0, {limit}) in slots {start}..{sl.stop - 1}")
            # every code is below its limit, so code << shift stays inside its own byte
            words = key[:m].view(np.uint64)
            words |= code[:m].view(np.uint64) << shift
            key[m:n] |= code[m:] << shift
        pairs += np.bincount(key.view(np.uint16), minlength=1 << 16)
    by_byte = pairs.reshape(256, 256)  # each key byte counts once, on either byte order
    slots_per_key = (by_byte.sum(0) + by_byte.sum(1))[: CONFIG_OF.size]
    sent = np.zeros(N_CONFIGS, dtype=np.int64)
    np.add.at(sent, CONFIG_OF, slots_per_key)
    per_session = np.add.reduceat(sent, [0, 16, 20]).tolist()
    links = [link for link, count in zip(LINKS, per_session) if count]
    for link in links:
        if link not in models:
            raise KeyError(f"plan schedules link {link} but no model was given")
        want = "MDI" if link == "AB" else "QKD"
        if models[link].kind != want:
            raise ValueError(f"link {link} needs a {want} model, got {models[link].kind}")

    law = _outcome_table({link: models[link] for link in links}, plan.intensities)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    hist = rng.multinomial(sent, law)
    records = np.c_[sent, hist[:, 0] + hist[:, 1], hist[:, 0]]
    diag = {
        "basis_mismatch_slots": int(hist[1:7].sum()),  # relay rows with one sender in Z, one in X
        "cross_branch_discarded": int(hist[:16, 2].sum()),
        "branch_mismatch_discarded": int(hist[16:, 2].sum()),
        "slots_per_session": dict(zip(SESSION_NAMES, per_session)),
    }
    tables = {link: CountTable(link=link) for link in LINKS}
    for row, (link, label, basis) in TABLE_ROWS.items():
        if sent[row]:
            tables[link].add(label, basis, CountRecord(*records[row].tolist()))
    # A link's pool is its Z-basis signal row's recorded detections.  The
    # first sender's bit is uniform; the second sender's preparation
    # realises the error flag through the flip rule.
    z_pools = {}
    for link, row in zip(LINKS, (0, 16, 20)):
        errors, correct = hist[row, :2].tolist()
        size = errors + correct
        bits = rng.integers(0, 2, size=size, dtype=np.int8)
        flags = np.zeros(size, bool)
        flags[rng.choice(size, errors, replace=False, shuffle=False)] = True
        z_pools[link] = ZPool(bits, flags)
    return RunResult(tables=tables, z_pools=z_pools, diagnostics=diag)


class MessageBus:
    """Ordered, reliable, authenticated-by-assumption classical channel: each
    (sender, receiver) pair's messages are received in the order sent."""

    def __init__(self):
        self._queues = {}

    def send(self, sender: str, receiver: str, payload):
        self._queues.setdefault((sender, receiver), []).append(payload)

    def receive(self, receiver: str, sender: str):
        queue = self._queues.get((sender, receiver), [])
        if not queue:
            raise LookupError(f"no pending message {sender!r} -> {receiver!r}")
        return queue.pop(0)
