"""Decoy-state estimation from X-basis count tables.

Lower-bounds the single-photon contribution and upper-bounds the
single-photon (phase) error rate via small linear programs over widened
Poisson-mixture constraints, then carries the X-basis bounds into the
Z basis: proportional single-photon counting plus a Serfling
random-sampling penalty on the error rate.

Finite-size widening uses a two-sided Hoeffding interval with the total
failure budget split evenly across every widened quantity; the reported
``epsilon_spent`` is the sum of everything consumed.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .channel import ENTRY_KEYS, N_CUT, X_LABELS, CountRecord, IntensitySet
from .mathkit import (
    LpInfeasibleError,
    LpRows,
    check_count,
    poisson_pmf,
    poisson_weights,
    serfling_deviation,
    solve_bounded_lp,
)

__all__ = [
    "CountTable",
    "DecoyBounds",
    "InconsistentCountsError",
    "TableFormatError",
    "estimate_bounds",
    "restrict_to_block",
]


class InconsistentCountsError(ValueError):
    """Observed counts admit no photon-number model (infeasible LP)."""


class TableFormatError(ValueError):
    """A serialized count table violates the schema."""


@dataclass
class CountTable:
    """Per-link tallies keyed by (intensity label(s), basis).

    Labels are single strings for a point-to-point link and ordered pairs
    for the relay link.  Z-basis entries exist only for the signal class.
    """

    link: str  # AB | AC | BC
    entries: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        if self.link not in ("AB", "AC", "BC"):
            raise ValueError(f"link must be AB, AC or BC, got {self.link!r}")

    def add(self, label, basis: str, record: CountRecord):
        key = (label,) if isinstance(label, str) else tuple(label)
        if basis not in ("Z", "X"):
            raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
        allowed = ("s",) if basis == "Z" else X_LABELS
        if any(l not in allowed for l in key):
            raise ValueError(f"{basis}-basis entries carry only {'/'.join(allowed)}, got {key}")
        if len(key) != 1 + self.is_pair:
            raise ValueError(f"label {key} has the wrong arity for link {self.link}")
        if (key, basis) in self.entries:
            raise ValueError(f"duplicate entry for {key} in basis {basis}")
        self.entries[(key, basis)] = record

    @property
    def is_pair(self) -> bool:
        return self.link == "AB"

    def z_entry(self) -> CountRecord:
        return self.entries[ENTRY_KEYS[1 + self.is_pair][0]]

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        rows = []
        for (key, basis), rec in sorted(self.entries.items()):
            intensity = key[0] if len(key) == 1 else list(key)
            rows.append({"intensity": intensity, "basis": basis,
                         "sent": rec.sent, "detected": rec.detected, "errors": rec.errors})
        return json.dumps({"link": self.link, "entries": rows}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CountTable":
        try:
            doc = json.loads(text)
            table = cls(link=doc["link"])
            for row in doc["entries"]:
                table.add(row["intensity"], row["basis"], _tallies(row))
        except json.JSONDecodeError as exc:  # its message gives a position only: quote the token there
            near = next((m[0] for m in re.finditer(r"[^\s,:\[\]{}]+|.", exc.doc, re.S) if m.end() > exc.pos), "")
            raise TableFormatError(f"bad count-table JSON: {exc}, at {near!r}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise TableFormatError(f"bad count-table JSON: {exc}") from exc
        return table

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["link", "intensity", "basis", "sent", "detected", "errors"])
        for (key, basis), rec in sorted(self.entries.items()):
            writer.writerow([self.link, ":".join(key), basis, rec.sent, rec.detected, rec.errors])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "CountTable":
        reader = csv.DictReader(io.StringIO(text))
        table = None
        for i, row in enumerate(reader, start=2):  # row 1 is the header
            try:
                link = row["link"]
                label = tuple(row["intensity"].split(":"))
                rec = _tallies(row, json.loads)
                if table is None:
                    table = cls(link=link)
                elif link != table.link:
                    raise ValueError(f"mixed links {table.link!r} and {link!r}")
                table.add(label, row["basis"], rec)
            except (KeyError, TypeError, ValueError) as exc:
                raise TableFormatError(f"bad count-table CSV at row {i}: {exc}") from exc
        if table is None:
            raise TableFormatError("empty count-table CSV")
        return table


def _tallies(row: dict, parse=lambda field: field) -> CountRecord:
    """The row's tallies, each ``parse``d to a JSON number that :func:`check_count` accepts."""
    def tally(name):
        try:
            return parse(row[name])
        except ValueError:  # left as it is, for check_count to refuse by name
            return row[name]
    return CountRecord(*(check_count(tally(k), k) for k in ("sent", "detected", "errors")))


@dataclass(frozen=True)
class DecoyBounds:
    """Single-photon bounds and the failure probability they carry."""

    s1_lower: int
    eph_upper: float
    y1_lower: float
    epsilon_spent: float
    mode: str  # "QKD" | "MDI"

    def __post_init__(self):
        if self.s1_lower < 0:
            raise ValueError("s1_lower must be >= 0")
        if not 0.0 <= self.eph_upper <= 0.5:
            raise ValueError("eph_upper must be in [0, 0.5]")


def _widen_rates(records, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided Hoeffding intervals ``p_hat -/+ sqrt(ln(2/eps) / (2 sent))`` of every record's per-pulse
    rates, clamped to [0, 1], bit for bit the scalar form for counts below 2**53: ``(lo, hi)``, each
    (2, len(records)), detection rates in row 0 and error rates in row 1.  ``eps`` = 2 gives zero width."""
    tallies = np.array([(r.detected, r.errors, r.sent) for r in records], dtype=float).T
    sent = tallies[2]
    if not sent.min() >= 1.0:
        raise ValueError("cannot widen a record with zero sent pulses")
    p_hat = tallies[:2] / sent
    delta = np.sqrt(math.log(2.0 / eps) / (2.0 * sent))
    return np.maximum(0.0, p_hat - delta), np.minimum(1.0, p_hat + delta)


@functools.lru_cache(maxsize=16)
def _decoy_lp(senders: int, x_mus: tuple) -> tuple:
    """Every part of both decoy LPs fixed by ``senders`` and the X-class
    intensities ``x_mus``, built once per intensity set; arrays are read-only
    and per-key entries follow the X entries of ``ENTRY_KEYS[senders]``."""
    pmf = {label: poisson_weights(mu, N_CUT)[0] for label, mu in zip(X_LABELS, x_mus)}
    x_keys = [key for key, _ in ENTRY_KEYS[senders][1:]]
    # One variable per photon-number tuple, row-major; relay rows keep only
    # the simplex n + m <= N_CUT and count the rest as tail mass.
    mask = np.indices((N_CUT + 1,) * senders).sum(axis=0) <= N_CUT
    coords = np.argwhere(mask)
    index = np.zeros(mask.shape, dtype=int)
    index[mask] = np.arange(len(coords))
    weights, tails = [], []
    for key in x_keys:
        w = np.where(mask, functools.reduce(np.multiply.outer, [pmf[l] for l in key]), 0.0)
        weights.append(w[mask])
        tails.append(max(0.0, 1.0 - w.sum()))
    weights, tails = np.array(weights), np.array(tails)
    # Rate rows shared by both LPs, per key: -W_k x <= -max(0, lo_k - tail_k), W_k x <= hi_k.
    rate_rows = np.stack([-weights, weights], axis=1).reshape(-1, len(coords))

    # Threshold detection never clicks less when more photons arrive, so the
    # true yields are monotone in each photon-number index; the rows
    # y(n) - y(n + e_axis) <= 0 tighten the yield LP considerably in the
    # low-count regime.  Error gains carry no such guarantee.
    step = coords[:, None, :] + np.eye(senders, dtype=int)
    var, axis = np.nonzero(step.sum(axis=2) <= N_CUT)
    monotone = np.zeros((len(var), len(coords)))
    monotone[np.arange(len(var)), var] = 1.0
    monotone[np.arange(len(var)), index[tuple(step[var, axis].T)]] = -1.0

    objective = np.zeros(len(coords))
    objective[index[(1,) * senders]] = 1.0
    tails.flags.writeable = objective.flags.writeable = False
    p1_x = tuple(math.prod(pmf[l][1] for l in key) for key in x_keys)
    # the yield LP starts with every multi-photon yield at 1: those columns cost nothing in min y1
    yield_rows = LpRows(np.vstack([rate_rows, monotone]), upper=coords.sum(axis=1) > senders)
    return tails, p1_x, objective, LpRows(rate_rows), yield_rows, len(var)


def estimate_bounds(
    table: CountTable,
    intensities: IntensitySet,
    eps_total: float,
    mode: str,
) -> DecoyBounds:
    """Decoy-state bounds for the Z-basis signal class of one link.

    Widens every X-basis gain and error rate (even epsilon split), solves
    the yield-minimisation and error-maximisation LPs over the widened
    Poisson-mixture constraints, converts the single-photon yield to a
    Z-basis count, and transfers the X-basis error bound to Z with a
    Serfling penalty over the two single-photon sample sizes.
    """
    if mode not in ("QKD", "MDI"):
        raise ValueError(f"mode must be 'QKD' or 'MDI', got {mode!r}")
    senders = 2 if mode == "MDI" else 1
    z_entry, *x_entries = ENTRY_KEYS[senders]
    try:
        x_records = [table.entries[entry] for entry in x_entries]
        z_record = table.entries[z_entry]
    except KeyError as exc:
        raise KeyError(f"table has no (intensity, basis) entry {exc.args[0]}") from None

    n_shares = 2 * len(x_entries) + 1  # gain + error per entry, + the Z transfer
    eps_each = eps_total / n_shares
    if not 0.0 < eps_each <= 2.0:
        raise ValueError(f"per-quantity budget {eps_each} outside (0, 2]")
    # eps_each = 2 degenerates every interval to zero width (exact-statistics
    # diagnostics); the Serfling share is capped at its own domain.
    eps_serf = min(1.0, eps_each)

    x_mus = tuple(intensities.mu(label) for label in X_LABELS)
    tails, p1_x, objective, rate_rows, yield_rows, n_monotone = _decoy_lp(senders, x_mus)

    # the rate rows' right-hand sides as _decoy_lp lays them out, -max(0, lo_k - tail_k) then hi_k per key:
    # row 0 from the detection rates is the yield LP's (its monotone rows' stay 0), row 1 the error LP's
    lo, hi = _widen_rates(x_records, eps_each)
    n_rate = 2 * len(x_entries)
    rhs = np.zeros((2, n_rate + n_monotone))
    lower = rhs[:, 0:n_rate:2]
    np.subtract(lo, tails, out=lower)
    np.maximum(0.0, lower, out=lower)
    np.negative(lower, out=lower)
    rhs[:, 1:n_rate:2] = hi
    try:
        y1 = solve_bounded_lp(objective, yield_rows, rhs[0], "min")
        z1 = solve_bounded_lp(objective, rate_rows, rhs[1, :n_rate], "max")
    except LpInfeasibleError as exc:
        raise InconsistentCountsError(
            f"counts inconsistent with any photon-number model on link {table.link}"
        ) from exc

    y1_lower = min(1.0, max(0.0, y1))
    z1_upper = min(1.0, max(0.0, z1))

    p1_z = poisson_pmf(intensities.mu("s"), 1) ** senders

    s1_lower = int(math.floor(z_record.sent * p1_z * y1_lower))
    s1_lower = min(s1_lower, z_record.detected)
    n_x1 = int(math.floor(sum(record.sent * p1 for record, p1 in zip(x_records, p1_x)) * y1_lower))

    if y1_lower <= 0.0 or s1_lower < 1 or n_x1 < 1:
        eph_upper = 0.5
    else:
        e1_x = min(0.5, z1_upper / y1_lower)
        eph_upper = min(0.5, e1_x + serfling_deviation(s1_lower, n_x1, eps_serf))

    return DecoyBounds(
        s1_lower=s1_lower,
        eph_upper=eph_upper,
        y1_lower=y1_lower,
        epsilon_spent=eps_total,
        mode=mode,
    )


def restrict_to_block(
    bounds: DecoyBounds, block_size: int, z_total: int, eps: float
) -> DecoyBounds:
    """Carry pool-level bounds into one randomly drawn signature block.

    The single-photon count scales proportionally minus a Serfling sampling
    deviation; the phase-error bound widens by the matching term.  Each of
    the two applications consumes ``eps``.
    """
    if block_size > z_total:
        raise ValueError(f"block of {block_size} exceeds the pool of {z_total}")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if block_size == z_total:
        return bounds
    dev = serfling_deviation(block_size, z_total - block_size, eps)
    ratio = block_size / z_total
    s1 = max(0, int(math.floor(bounds.s1_lower * ratio - block_size * dev)))
    eph = min(0.5, bounds.eph_upper + dev)
    return DecoyBounds(
        s1_lower=s1,
        eph_upper=eph,
        y1_lower=bounds.y1_lower,
        epsilon_spent=bounds.epsilon_spent + 2.0 * eps,
        mode=bounds.mode,
    )
