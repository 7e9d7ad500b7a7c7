"""Quantum digital signature distillation and use.

One undisclosed Z-basis data block of c_sig bits signs one 1-bit message.
A single decoy estimation and a single QBER test sample serve the whole
acquisition, and every signature block drawn from the remainder inherits
the pool-level bounds through Serfling sampling penalties; that is what
lets many signatures share one acquisition instead of paying the full
statistical fluctuation per signature.

Security quantities per block: the minimum error rate an attacker must
cause (from the single-photon bounds), the QBER upper bound (test sample
plus Serfling), authentication/verification thresholds splitting that gap,
the signature length that meets the repudiation budget, and Hoeffding
bounds on honest abort and forging.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .mathkit import (
    binary_entropy,
    check_count,
    check_probability,
    check_real,
    hoeffding_exponent_bound,
    hoeffding_exponent_log,
    inv_binary_entropy,
    probability_from_log,
    serfling_deviation,
)
from .netsim import MessageBus

__all__ = [
    "QdsParams",
    "QdsReport",
    "SignatureBlock",
    "Holding",
    "Verdict",
    "InsecureChannelError",
    "eve_error_floor",
    "qber_upper",
    "thresholds",
    "signature_length",
    "abort_and_forge",
    "n_blocks",
    "extract_blocks",
    "timing_report",
    "distill_report",
    "run_signing_session",
]

#: refuse to materialise block indices above this pool size; below 2^31, so int32 indices
MAX_MATERIALISED_POOL = 200_000_000
_BLOCK = 1 << 16  # positions per pass when extract_blocks reads its index sets

#: gap fractions of the authentication and verification thresholds
THIRDS = (1.0 / 3.0, 2.0 / 3.0)


class InsecureChannelError(ValueError):
    """The channel error bound leaves no gap below the attacker floor."""


@dataclass(frozen=True)
class QdsParams:
    """Block sizes and failure budgets for one signature distillation."""

    c_sig: int
    c_test: int
    eps_h: float = 2e-11
    p_rep_budget: float = 0.5e-10
    p_fail_total: float = 1e-10

    def __post_init__(self):
        for name in ("c_sig", "c_test"):
            object.__setattr__(self, name, check_count(getattr(self, name), name, low=1))
        for name in ("eps_h", "p_rep_budget", "p_fail_total"):
            check_real(getattr(self, name), name, 0.0, 1.0, low_open=True, high_open=True)


@dataclass(frozen=True)
class QdsReport:
    """Self-contained record of one signature-security analysis."""

    p_e: float
    e_test: float
    e_sig_upper: float
    s_auth: float
    s_ver: float
    l_sig: int
    p_rep: float
    p_hab: float
    p_for: float
    log10_p_hab: float
    log10_p_for: float
    n_signatures: int
    avg_time_per_signature_s: float
    epsilon_spent: float
    params: dict = field(default_factory=dict)

    @property
    def secure(self) -> bool:
        """Ordering gap, block feasibility and total failure budget all hold.

        A report whose params lack ``c_sig`` or ``p_fail_total`` is not secure.
        """
        if "c_sig" not in self.params or "p_fail_total" not in self.params:
            return False
        ordered = (
            self.e_test <= self.e_sig_upper < self.s_auth < self.s_ver < self.p_e
        )
        total = self.p_rep + self.p_hab + self.p_for + self.epsilon_spent
        fits = self.l_sig <= self.params["c_sig"]
        return ordered and fits and total <= self.params["p_fail_total"]

    def to_json(self) -> str:
        doc = asdict(self)
        doc["secure"] = self.secure
        return json.dumps(doc, sort_keys=True, indent=2)


@dataclass(frozen=True)
class SignatureBlock:
    """One message's worth of undisclosed key bits drawn from a Z pool."""

    link: str
    bit_values: np.ndarray
    origin_indices: np.ndarray

    def __post_init__(self):
        if len(self.bit_values) != len(self.origin_indices):
            raise ValueError("bit_values and origin_indices must have equal length")
        if len(self.origin_indices) > 1 and not np.all(np.diff(self.origin_indices) > 0):
            raise ValueError("origin_indices must be strictly increasing")

    def __len__(self):
        return len(self.bit_values)


def eve_error_floor(s1_sig_lower: int, c_sig: int, eph_sig_upper: float) -> float:
    """Minimum error rate an attacker must cause on the signature block.

    Inverts h(p_E) = (S1/C_sig) (1 - h(e_ph)); with no certified
    single-photon counts there is no guarantee and the floor is zero.
    """
    if not 0 <= s1_sig_lower <= c_sig:
        raise ValueError("need 0 <= s1_sig_lower <= c_sig")
    if not 0.0 <= eph_sig_upper <= 0.5:
        raise ValueError("eph_sig_upper must be in [0, 0.5]")
    if s1_sig_lower == 0:
        return 0.0
    rhs = (s1_sig_lower / c_sig) * (1.0 - binary_entropy(eph_sig_upper))
    if rhs > 1.0:
        raise ValueError(f"entropy rate {rhs} > 1 is impossible")
    return inv_binary_entropy(rhs)


def qber_upper(e_test: float, c_test: int, c_sig: int, eps_h: float) -> float:
    """QBER bound for a signature block: test rate plus the Serfling term."""
    check_probability(e_test, "e_test")
    return min(1.0, e_test + serfling_deviation(c_sig, c_test, eps_h))


def thresholds(e_sig_upper: float, p_e: float) -> tuple[float, float]:
    """Authentication and verification thresholds inside the (QBER, p_E) gap.

    Equal thirds: s_auth one third above the QBER bound and s_ver one third
    below the attacker floor.
    """
    f_auth, f_ver = THIRDS
    gap = p_e - e_sig_upper
    if gap <= 0.0:
        raise InsecureChannelError(
            f"no threshold gap: QBER bound {e_sig_upper} >= attacker floor {p_e}"
        )
    return e_sig_upper + f_auth * gap, e_sig_upper + f_ver * gap


def signature_length(s_auth: float, s_ver: float, p_rep_budget: float) -> int:
    """Smallest length meeting the repudiation budget.

    Inverts exp(-(s_ver - s_auth)^2 L / 4) <= p_rep_budget, so
    L = ceil(4 ln(1/p_rep_budget) / (s_ver - s_auth)^2).
    """
    if s_ver <= s_auth:
        raise ValueError("need s_ver > s_auth (zero threshold gap)")
    if not 0.0 < p_rep_budget <= 1.0:
        raise ValueError("p_rep_budget must be in (0, 1]")
    # -ln(p) only where 1/p overflows (subnormal p): other budgets keep their bits
    log_inv_p = math.log(1.0 / p_rep_budget) if 1.0 / p_rep_budget < math.inf else -math.log(p_rep_budget)
    return int(math.ceil(4.0 * log_inv_p / (s_ver - s_auth) ** 2))


def repudiation_bound(s_auth: float, s_ver: float, l: int) -> float:
    """Repudiation probability bound exp(-(s_ver - s_auth)^2 l / 4)."""
    if s_ver <= s_auth:
        raise ValueError("need s_ver > s_auth")
    return probability_from_log(-((s_ver - s_auth) ** 2) * l / 4.0)


def abort_and_forge(
    e_sig_upper: float, s_auth: float, s_ver: float, p_e: float, l: int
) -> tuple[float, float]:
    """Hoeffding bounds on honest abort and forging over an l-bit signature.

    p_hab = exp(-2 (s_auth - e_sig)^2 l): an honest run errs at most at the
    QBER bound yet crosses the authentication threshold.
    p_for = exp(-2 (p_e - s_ver)^2 l): a forger forced to the error floor
    still lands under the verification threshold.
    """
    if not e_sig_upper <= s_auth <= s_ver <= p_e:
        raise ValueError("need e_sig_upper <= s_auth <= s_ver <= p_e")
    p_hab = hoeffding_exponent_bound(s_auth - e_sig_upper, l)
    p_for = hoeffding_exponent_bound(p_e - s_ver, l)
    return p_hab, p_for


def n_blocks(pool_len: int, c_test: int, c_sig: int) -> int:
    """Disjoint signature blocks a pool supports after the test sample."""
    if c_sig < 1:
        raise ValueError(f"c_sig must be >= 1, got {c_sig}")
    if c_test < 0:
        raise ValueError(f"c_test must be >= 0, got {c_test}")
    if pool_len < c_test + c_sig:
        raise ValueError(
            f"pool of {pool_len} cannot supply a {c_test}-bit test set and one {c_sig}-bit block"
        )
    return (pool_len - c_test) // c_sig


def _labelling(n: int, sizes: list, rng: np.random.Generator) -> np.ndarray:
    """Exchangeable labelling of ``n`` positions with exactly ``sizes[k]`` labelled k.

    Each position is marked i.i.d. with the number of edges at or below 16
    random bits; the edges round the target proportions, and any marking
    probabilities keep the marks exchangeable.  The counts are then fixed:
    each over-full label releases a uniform subset of its positions, and the
    released positions, shuffled, are dealt to the under-full labels.
    """
    edges = [(c * 65536 + n // 2) // n for c in itertools.accumulate(sizes[:-1])]
    h = rng.bit_generator.random_raw(-(-n // 4)).astype("<u8", copy=False).view("<u2")[:n]
    labels, hit = np.zeros(n, np.uint8), np.empty(n, bool)
    at_or_above = [n]  # positions marked k or higher
    for edge in edges:
        labels += np.greater_equal(h, edge, out=hit).view(np.uint8)
        at_or_above.append(np.count_nonzero(hit))
    del h, hit  # the draws are spent: free them before listing positions
    counts = np.subtract(at_or_above, [*at_or_above[1:], 0])
    released = [
        np.flatnonzero(labels == k)[rng.choice(c, c - size, replace=False, shuffle=False)]
        for k, (c, size) in enumerate(zip(counts, sizes))
        if c > size
    ]
    if released:
        released = np.concatenate(released)
        rng.shuffle(released)
        short = np.maximum(np.subtract(sizes, counts), 0)
        labels[released] = np.repeat(np.arange(len(sizes), dtype=np.uint8), short)
    return labels


def _split(n: int, sizes: list, rng: np.random.Generator) -> list:
    """Sorted int32 index sets of a uniformly random partition of range(n) into ``sizes``.

    More than three parts are first split among three groups of parts, then
    each group among its own parts, so the work grows with n log(parts)
    rather than n parts.  Each set is read into an exact-size int32 array,
    ``_BLOCK`` positions at a time.
    """
    if len(sizes) == 1:
        return [np.arange(n, dtype=np.int32)]
    if len(sizes) > 3:
        cuts = [len(sizes) * j // 3 for j in range(4)]
        groups = [sizes[a:b] for a, b in zip(cuts, cuts[1:])]
        parts = _split(n, [sum(g) for g in groups], rng)
        return [part[i] for part, g in zip(parts, groups) for i in _split(part.size, g, rng)]
    labels = _labelling(n, sizes, rng)
    sets, filled = [np.empty(size, np.int32) for size in sizes], [0] * len(sizes)
    for start in range(0, n, _BLOCK):
        block = labels[start : start + _BLOCK]
        for k, out in enumerate(sets):
            idx = np.flatnonzero(block == k)
            np.add(idx, start, out=out[filled[k] : filled[k] + idx.size], casting="unsafe")
            filled[k] += idx.size
    return sets


def extract_blocks(
    z_pool: np.ndarray, c_test: int, c_sig: int, seed: int = 0, link: str = "AB"
) -> tuple[tuple[np.ndarray, np.ndarray], list[SignatureBlock]]:
    """Randomly split a pool into a test sample and disjoint signature blocks.

    Returns ((test_indices, test_bits), blocks), with sorted int32 indices;
    the block count equals :func:`n_blocks` exactly.  The split labels the
    pool's positions: the test sample (``c_test``), then each signature
    block (``c_sig``), then the leftover.  Its law is uniform over every
    labelling with those sizes, the law of cutting a uniform permutation:
    the marking is i.i.d. over positions, and fixing the counts treats
    positions symmetrically, so the labelling is exchangeable, and an
    exchangeable labelling with fixed label sizes is uniform.  Splitting
    many blocks in groups composes uniform splits, which stays uniform.
    Deterministic under ``seed``.  Pools beyond ``MAX_MATERIALISED_POOL``
    must use :func:`n_blocks` for the count arithmetic instead of
    materialising indices.
    """
    pool = np.asarray(z_pool)
    count = n_blocks(len(pool), c_test, c_sig)
    if len(pool) > MAX_MATERIALISED_POOL:
        raise ValueError(
            f"pool of {len(pool)} is too large to materialise; use n_blocks()"
        )
    rest = len(pool) - c_test - count * c_sig
    test_idx, *block_idx, _ = _split(
        len(pool), [c_test, *[c_sig] * count, rest], np.random.default_rng(seed)
    )
    blocks = [SignatureBlock(link=link, bit_values=pool[idx], origin_indices=idx) for idx in block_idx]
    return (test_idx, pool[test_idx]), blocks


def timing_report(total_time_s: float, duty_fraction: float, n_signatures: int) -> float:
    """Average wall-clock share spent per signature."""
    if n_signatures < 1:
        raise ValueError("n_signatures must be >= 1")
    if total_time_s < 0 or not 0.0 < duty_fraction <= 1.0:
        raise ValueError("need total_time_s >= 0 and duty_fraction in (0, 1]")
    return total_time_s * duty_fraction / n_signatures


@dataclass(frozen=True)
class Holding:
    """Key bits a recipient can check against a declaration for one link."""

    link: str
    positions: np.ndarray  # block-local indices into the link's declaration
    bits: np.ndarray

    def __post_init__(self):
        positions, bits = np.asarray(self.positions), np.asarray(self.bits)
        # min and max, not elementwise masks: a holding can be a whole block of bits
        if (positions.ndim != 1 or bits.shape != positions.shape or positions.dtype.kind not in "iu"
                or bits.dtype.kind not in "biu" or (positions.size and positions.min() < 0)
                or (bits.size and not 0 <= bits.min() <= bits.max() <= 1)):
            raise ValueError(f"need 1-D positions >= 0 and 0/1 bits to match, all integer (bits may be bool), "
                             f"got {positions.dtype} {positions.shape}, {bits.dtype} {bits.shape}")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "bits", bits)


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    mismatches: int
    checked: int
    threshold: float
    reason: str = ""


def _check(declaration: dict, holdings, threshold: float, l: int) -> Verdict:
    """One recipient's verdict on a declaration.

    Rejects a recipient holding fewer than ``l`` positions, then compares
    the held bits with the declared ones; the mismatch fraction must stay
    strictly below ``threshold``.
    """
    held = sum(len(h.positions) for h in holdings)
    if held < l:
        return Verdict(False, 0, held, threshold, f"fewer than {l} positions held")
    mismatches = 0
    checked = 0
    for holding in holdings:
        if holding.link not in declaration:
            return Verdict(False, 0, 0, threshold, f"declaration missing link {holding.link}")
        declared = np.asarray(declaration[holding.link])
        if len(holding.positions) and holding.positions.max() >= len(declared):
            return Verdict(False, 0, 0, threshold, f"declaration too short for link {holding.link}")
        mismatches += int((declared[holding.positions] != holding.bits).sum())
        checked += len(holding.positions)
    if checked == 0:
        return Verdict(False, 0, 0, threshold, "no positions to check")
    # Strict inequality: a mismatch fraction exactly at threshold rejects.
    accepted = mismatches < threshold * checked
    return Verdict(accepted, mismatches, checked, threshold)


def run_signing_session(
    bus: MessageBus,
    signer: str,
    direct: str,
    forwarded: str,
    message_bit: int,
    alice_keys: dict,
    holdings: dict,
    s_auth: float,
    s_ver: float,
    l: int,
) -> dict:
    """Drive sign -> check -> transfer -> verify over the classical channel.

    The signer declares to the direct recipient, who checks against the
    authentication threshold and, only when satisfied, relays the
    declaration to the second recipient for verification; a declaration
    the direct recipient rejects is never transferred, and the forwarded
    verdict then records that rejection.  ``alice_keys`` maps link ->
    declared bits for ``message_bit`` (0 or 1); ``holdings`` maps
    "direct"/"forwarded" to lists of :class:`Holding`.  Both comparisons are
    strict.  Returns per-recipient verdicts.
    """
    if message_bit not in (0, 1):
        raise ValueError("message_bit must be 0 or 1")
    for party in (signer, direct, forwarded):
        bus.register(party)
    bus.send(signer, direct, {"type": "declare", "bit": message_bit, "keys": alice_keys})
    declaration = bus.receive(direct, signer)
    direct_verdict = _check(declaration["keys"], holdings.get("direct", []), s_auth, l)
    if not direct_verdict.accepted:
        reason = "direct recipient rejected: " + (
            direct_verdict.reason or "mismatch fraction at or above s_auth"
        )
        return {"direct": direct_verdict, "forwarded": Verdict(False, 0, 0, s_ver, reason)}
    bus.send(direct, forwarded, {"type": "transfer", "declaration": declaration})
    relayed = bus.receive(forwarded, direct)
    return {
        "direct": direct_verdict,
        "forwarded": _check(relayed["declaration"]["keys"], holdings.get("forwarded", []), s_ver, l),
    }


def distill_report(
    s1_sig_lower: int,
    eph_sig_upper: float,
    e_test: float,
    pool_size: int,
    params: QdsParams,
    total_time_s: float,
    duty_fraction: float,
    epsilon_inherited: float = 0.0,
) -> QdsReport:
    """Run the full per-block security chain and assemble the report.

    The operating signature length is the full block (c_sig bits), so the
    reported repudiation/abort/forging probabilities are evaluated at
    c_sig; ``l_sig`` records the minimum length that would already meet
    the repudiation budget and must not exceed c_sig for a secure report.

    Raises :class:`mathkit.ConfigError` naming a malformed input, and
    :class:`InsecureChannelError` when the QBER bound reaches the
    attacker floor (no positive signature rate).
    """
    s1_sig_lower = check_count(s1_sig_lower, "s1_sig_lower")
    check_real(s1_sig_lower, "s1_sig_lower", 0.0, params.c_sig)  # at most the block it bounds
    eph_sig_upper = check_real(eph_sig_upper, "eph_sig_upper", 0.0, 0.5)
    e_test = check_real(e_test, "e_test", 0.0, 1.0)
    pool_size = check_count(pool_size, "pool_size")
    total_time_s = check_real(total_time_s, "total_time_s", 0.0)
    duty_fraction = check_real(duty_fraction, "duty_fraction", 0.0, 1.0, low_open=True)
    epsilon_inherited = check_real(epsilon_inherited, "epsilon_inherited", 0.0)
    c_sig, c_test = params.c_sig, params.c_test
    p_e = eve_error_floor(s1_sig_lower, c_sig, eph_sig_upper)
    e_sig = qber_upper(e_test, c_test, c_sig, params.eps_h)
    s_auth, s_ver = thresholds(e_sig, p_e)
    l_sig = signature_length(s_auth, s_ver, params.p_rep_budget)
    p_rep = repudiation_bound(s_auth, s_ver, c_sig)
    p_hab, p_for = abort_and_forge(e_sig, s_auth, s_ver, p_e, c_sig)
    count = n_blocks(pool_size, c_test, c_sig)
    avg_time = timing_report(total_time_s, duty_fraction, count)
    return QdsReport(
        p_e=p_e,
        e_test=e_test,
        e_sig_upper=e_sig,
        s_auth=s_auth,
        s_ver=s_ver,
        l_sig=l_sig,
        p_rep=p_rep,
        p_hab=p_hab,
        p_for=p_for,
        log10_p_hab=hoeffding_exponent_log(s_auth - e_sig, c_sig) / math.log(10.0),
        log10_p_for=hoeffding_exponent_log(p_e - s_ver, c_sig) / math.log(10.0),
        n_signatures=count,
        avg_time_per_signature_s=avg_time,
        epsilon_spent=epsilon_inherited + params.eps_h,
        params={
            "c_sig": c_sig,
            "c_test": c_test,
            "eps_h": params.eps_h,
            "p_rep_budget": params.p_rep_budget,
            "p_fail_total": params.p_fail_total,
            "pool_size": pool_size,
            "total_time_s": total_time_s,
            "duty_fraction": duty_fraction,
            "threshold_fractions": list(THIRDS),
            "s1_sig_lower": s1_sig_lower,
            "eph_sig_upper": eph_sig_upper,
        },
    )
