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
    MODES,
    ChannelParams,
    CountRecord,
    IntensitySet,
    check_link,
    check_senders,
    mdi_yield_model,
    outcome_law,
    parse_mode,
    qkd_yield_model,
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
    "table_key",
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


def table_key(table: CountTable, intensities: IntensitySet, security: SecurityParams,
              elapsed_s: float = 0.0) -> tuple[DecoyBounds, KeyRateResult]:
    """The decoy bounds and key of one link's count table, in the mode its link names.

    Half of ``security.eps_sec`` funds the decoy bounds, the finite-size correction's composition the rest.  The
    key reads the Z entry's detections and their error rate (0 with none); ``elapsed_s`` is checked before any LP."""
    elapsed_s = check_real(elapsed_s, "elapsed_s", 0.0)
    bounds = estimate_bounds(table, intensities, security.eps_sec / 2.0, MODES[table.senders])
    z = table.z_entry()
    return bounds, secure_key_length(bounds, z.detected, z.errors / max(z.detected, 1), security, elapsed_s)


def entry_budgets(n_pulses: int, intensities: IntensitySet, senders: int) -> dict:
    """Per-entry sent counts when a pulse budget is split by basis bias.

    Keys are :data:`channel.ENTRY_KEYS` of ``senders`` (1 or 2, else a ConfigError) in order.  With s
    senders, z = ``z_basis_prob`` and p = ``x_probs``, the Z entry gets round(n z^s) and an X entry
    round(n (1 - z)^s p_a [p_b]), each product taken left to right.
    """
    senders = check_senders(senders)
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

    The pulse budget is split across configurations by the basis bias and X-intensity weights; slots where
    the two senders' bases differ on the relay link are lost.  One generator seeded with ``seed`` draws every
    entry's tallies in one multinomial over the entries' stacked :func:`channel.outcome_law` rows, which apply
    the link's sifting: same seed, same table.  Unless ``mode`` ("QKD" or "MDI") names ``link`` and ``model``
    has its sender count, a ConfigError is raised before any draw.
    """
    table = CountTable(link=link)
    senders = check_link(link, model, parse_mode(mode))
    budgets = list(entry_budgets(n_pulses, intensities, senders).items())
    laws = [outcome_law(model, *map(intensities.mu, key), basis=basis) for (key, basis), _ in budgets]
    tallies = np.random.default_rng(seed).multinomial([sent for _, sent in budgets], laws).tolist()
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

    For each distance the channel model is rebuilt (the relay link splits the distance symmetrically between
    the two senders), a count table is sampled for the pulse budget and keyed by :func:`table_key`, and the key
    is divided by the wall-clock-equivalent time ``n_pulses / clock_rate / duty``.  Counts that admit no
    photon-number model yield a zero-rate point whose note says so; every other error propagates.
    ``mdi_model`` holds keyword arguments of :func:`channel.mdi_yield_model`.  The distances' LPs run in one
    ``reuse_bases`` block: each decoy LP is re-solved in place with later distances' right-hand sides, so a
    bound may differ from a cold solve's in its last bits.
    """
    if not isinstance(distances, Iterable) or not (distances := list(distances)):
        raise ConfigError(f"distances: expected a non-empty list of numbers, got {distances!r}")
    for dist in distances:
        check_real(dist, "distances", 0.0)
    senders = parse_mode(mode)
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
                side = replace(channel, distance_km=dist / senders)
                model = qkd_yield_model(side) if senders == 1 else mdi_yield_model(side, side, **mdi_model)
                table = synthesize_table(model, intensities, n_pulses, mode, "AB" if senders == 2 else "AC",
                                         int(point_seeds[i]))
                key = table_key(table, intensities, security, elapsed)[1]
                points.append(SweepPoint(dist, mode, key.secure_bits, elapsed, key.rate_bps))
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
