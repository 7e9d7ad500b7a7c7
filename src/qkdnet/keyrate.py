"""Secure key length and rate-versus-distance sweeps.

The extractable key length is the single-photon contribution times the
phase-error entropy margin, minus the error-correction leakage and a fixed
composable finite-size correction, clamped at zero.  The same formula serves
the point-to-point and the relay link; the decoy bounds carry the mode.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    ENTRY_KEYS,
    LABELS,
    MDI_MODEL_KEYS,
    ChannelParams,
    CountRecord,
    IntensitySet,
    mdi_yield_model,
    outcome_law,
    qkd_yield_model,
    sift_keep,
)
from .decoy import CountTable, DecoyBounds, InconsistentCountsError, estimate_bounds
from .mathkit import ConfigError, binary_entropy, check_count, check_real, reuse_bases

__all__ = [
    "SecurityParams",
    "KeyRateResult",
    "SweepPoint",
    "leak_ec",
    "finite_size_delta",
    "secure_key_length",
    "entry_budgets",
    "synthesize_table",
    "rate_sweep",
    "sweep_to_csv",
]


@dataclass(frozen=True)
class SecurityParams:
    """Composable-security budgets and reconciliation efficiency.

    Paper-comparable runs keep ``eps_sec`` at 1e-9 or below; larger values
    are accepted for degenerate/desk-scale arithmetic.
    """

    eps_sec: float = 1e-10
    eps_cor: float = 1e-15
    f_ec: float = 1.16

    def __post_init__(self):
        check_real(self.eps_sec, "eps_sec", 0.0, low_open=True)
        check_real(self.eps_cor, "eps_cor", 0.0, low_open=True)
        check_real(self.f_ec, "f_ec", 1.0)


@dataclass(frozen=True)
class KeyRateResult:
    secure_bits: int
    rate_bps: float
    leak_ec_bits: int
    delta_bits: int
    elapsed_s: float


@dataclass(frozen=True)
class SweepPoint:
    distance_km: float
    mode: str
    secure_bits: int
    elapsed_s: float
    rate_bps: float
    note: str = ""


def leak_ec(n_z: int, qber_z: float, params: SecurityParams) -> int:
    """Bits disclosed for error correction: ceil(f_ec * h(qber) * n_z)."""
    if n_z < 0:
        raise ValueError("n_z must be >= 0")
    return int(math.ceil(params.f_ec * binary_entropy(qber_z) * n_z))


def finite_size_delta(params: SecurityParams) -> int:
    """Absolute key-length correction, ceil(6 log2(21/eps_sec) + log2(2/eps_cor)).

    Clamped at zero for degenerate budgets.
    """
    bits = 6.0 * math.log2(21.0 / params.eps_sec) + math.log2(2.0 / params.eps_cor)
    return max(0, int(math.ceil(bits)))


def secure_key_length(
    bounds: DecoyBounds,
    n_z: int,
    qber_z: float,
    params: SecurityParams,
    elapsed_s: float = 0.0,
) -> KeyRateResult:
    """Extractable key length from decoy bounds and Z-basis statistics.

    secure = max(0, floor(s1 * (1 - h(e_ph)) - leak_EC - delta)); a
    phase-error bound at (or clamped to) one half zeroes the extraction
    term rather than erroring.
    """
    elapsed_s = check_real(elapsed_s, "elapsed_s", 0.0)
    if bounds.s1_lower > n_z:
        raise ValueError("single-photon bound exceeds the Z-basis sample")
    h_ph = 1.0 if bounds.eph_upper >= 0.5 else binary_entropy(bounds.eph_upper)
    leak = leak_ec(n_z, qber_z, params)
    delta = finite_size_delta(params)
    secure = max(0, int(math.floor(bounds.s1_lower * (1.0 - h_ph) - leak - delta)))
    rate = secure / elapsed_s if elapsed_s > 0 else 0.0
    return KeyRateResult(
        secure_bits=secure,
        rate_bps=rate,
        leak_ec_bits=leak,
        delta_bits=delta,
        elapsed_s=elapsed_s,
    )


def entry_budgets(n_pulses: int, intensities: IntensitySet, mode: str) -> dict:
    """Per-entry sent counts when a pulse budget is split by basis bias.

    Keys are :data:`channel.ENTRY_KEYS` in order, for one sender in "QKD" mode and two otherwise.  With s
    senders, z = ``z_basis_prob`` and p = ``x_probs``, the Z entry gets round(n z^s) and an X entry
    round(n (1 - z)^s p_a [p_b]), each product taken left to right.
    """
    senders = 1 if mode == "QKD" else 2
    z = intensities.z_basis_prob
    share = dict(zip(LABELS, (z, *intensities.x_probs().tolist())))
    start = {"Z": n_pulses * 1.0, "X": n_pulses * (1.0 - z) ** senders}
    budgets = {}
    for key, basis in ENTRY_KEYS[senders]:
        sent = start[basis]
        for label in key:
            sent *= share[label]
        budgets[key, basis] = round(sent)
    return budgets


def synthesize_table(
    model,
    intensities: IntensitySet,
    n_pulses: int,
    mode: str,
    link: str,
    seed: int,
) -> CountTable:
    """Sample a full count table for one link from a ground-truth model.

    The pulse budget is split across configurations by the basis bias and
    X-intensity weights; slots where the two senders' bases differ on the
    relay link are lost, and each entry keeps its detections with the
    link's sifting acceptance (:func:`channel.sift_keep`).  One generator
    seeded with ``seed`` draws every entry's tallies in one multinomial over
    the entries' stacked :func:`channel.outcome_law` rows: same seed, same
    table.
    """
    budgets = sorted(entry_budgets(n_pulses, intensities, mode).items())
    laws = [outcome_law(model, *map(intensities.mu, key), basis=basis, keep=sift_keep(mode, basis))
            for (key, basis), _ in budgets]
    tallies = np.random.default_rng(seed).multinomial([sent for _, sent in budgets], laws).tolist()
    table = CountTable(link=link)
    for ((key, basis), sent), (errors, correct, _, _) in zip(budgets, tallies):
        table.add(key, basis, CountRecord(sent, errors + correct, errors))
    return table


def rate_sweep(
    channel: ChannelParams,
    intensities: IntensitySet,
    distances,
    mode: str,
    security: SecurityParams,
    duty: float = 1.0,
    seed: int = 0,
    n_pulses: int = 10**12,
    mdi_model: dict | None = None,
) -> list[SweepPoint]:
    """Secure key rate versus distance for one mode.

    For each distance the channel model is rebuilt (the relay link splits
    the distance symmetrically between the two senders), a count table is
    sampled for the pulse budget, the decoy bounds and key length are
    computed, and the key is divided by the wall-clock-equivalent time
    ``n_pulses / clock_rate / duty``.  Counts that admit no photon-number
    model yield a zero-rate point whose note says so; every other error
    propagates.

    Half of ``security.eps_sec`` funds the decoy estimation; the remainder
    is carried by the finite-size correction's composition.  ``mdi_model``
    holds keyword arguments of :func:`channel.mdi_yield_model`.  The distances'
    LPs run in one ``reuse_bases`` block: each decoy LP is re-solved in place with
    later distances' right-hand sides, so a bound may differ from a cold solve's in its last bits.
    """
    if not isinstance(distances, Iterable) or not (distances := list(distances)):
        raise ConfigError(f"distances: expected a non-empty list of numbers, got {distances!r}")
    for dist in distances:
        check_real(dist, "distances", 0.0)
    if mode not in ("QKD", "MDI"):
        raise ConfigError(f"mode: expected 'QKD' or 'MDI', got {mode!r}")
    duty = check_real(duty, "duty", 0.0, 1.0, low_open=True)
    seed = check_count(seed, "seed")
    n_pulses = check_count(n_pulses, "n_pulses")
    mdi_model = {} if mdi_model is None else mdi_model
    if not (isinstance(mdi_model, dict) and set(mdi_model) <= set(MDI_MODEL_KEYS)):
        raise ConfigError(f"mdi_model: expected an object with keys among {MDI_MODEL_KEYS}, got {mdi_model!r}")
    for key, value in mdi_model.items():
        check_real(value, f"mdi_model.{key}", 0.0, 1.0)
    points = []
    point_seeds = np.random.SeedSequence(seed).generate_state(len(distances))
    elapsed = n_pulses / channel.clock_rate_hz / duty
    with reuse_bases():
        for i, dist in enumerate(distances):
            try:
                if mode == "QKD":
                    model = qkd_yield_model(replace(channel, distance_km=dist))
                else:
                    side = replace(channel, distance_km=dist / 2.0)
                    model = mdi_yield_model(side, side, **mdi_model)
                table = synthesize_table(model, intensities, n_pulses, mode, "AB" if mode == "MDI" else "AC",
                                         int(point_seeds[i]))
                bounds = estimate_bounds(table, intensities, security.eps_sec / 2.0, mode)
                z_rec = table.z_entry()
                qber_z = z_rec.errors / z_rec.detected if z_rec.detected else 0.0
                result = secure_key_length(bounds, z_rec.detected, qber_z, security, elapsed)
                points.append(SweepPoint(dist, mode, result.secure_bits, elapsed, result.rate_bps))
            except InconsistentCountsError as exc:
                points.append(SweepPoint(dist, mode, 0, elapsed, 0.0, note=str(exc)))
    return points


def sweep_to_csv(points) -> str:
    """Plot-ready CSV: distance_km, mode, secure_bits, elapsed_s, rate_bps, note."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["distance_km", "mode", "secure_bits", "elapsed_s", "rate_bps", "note"])
    for p in points:
        writer.writerow(
            [p.distance_km, p.mode, p.secure_bits, f"{p.elapsed_s:.6g}", f"{p.rate_bps:.6g}", p.note]
        )
    return buf.getvalue()
