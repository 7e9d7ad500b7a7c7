"""Ground-truth yield/error models and finite-sample count synthesis.

The models here are phenomenological: per-photon-number detection and error
probabilities are explicit, documented formulas, so every downstream bound
can be tested against an exact oracle.  Phase-randomised coherent pulses
make the observed gain of an intensity class an exact Poisson mixture of the
per-photon-number yields.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass, field

import numpy as np

from .mathkit import ConfigError, check_probability, check_real, check_weights, poisson_weights

__all__ = [
    "ChannelParams",
    "IntensitySet",
    "YieldModel",
    "CountRecord",
    "TailBoundError",
    "qkd_yield_model",
    "mdi_yield_model",
    "sift_keep",
    "expected_gain_and_qber",
    "outcome_law",
]

#: Poisson mass of one intensity class allowed beyond the photon-number
#: cutoff before every count law refuses it
TAIL_LIMIT = 1e-10

#: photon-number cutoff of every yield model, decoy LP and simulated pulse
N_CUT = 12

#: intensity class labels, signal first; every other class is X-basis only
LABELS = ("s", "u", "v", "w")
X_LABELS = LABELS[1:]

#: a link's count-table entry keys ``(labels, basis)`` for 1 or 2 senders: the Z-basis signal entry, then
#: the X-basis entries in product order, the order of every per-entry sum, array and LP row
ENTRY_KEYS = {senders: ((("s",) * senders, "Z"), *((key, "X") for key in itertools.product(X_LABELS, repeat=senders)))
              for senders in (1, 2)}

#: probability that a point-to-point receiver's passive analyzer takes the X
#: branch (the Z branch takes the rest); :func:`sift_keep` is its one reader
PASSIVE_BASIS_FACTOR = 0.5


class TailBoundError(ConfigError):
    """Mean photon number too large for the photon-number cutoff ``N_CUT``."""


@dataclass(frozen=True)
class ChannelParams:
    """Optical channel and detector parameters for one link."""

    distance_km: float
    attenuation_db_per_km: float = 0.2
    detector_efficiency: float = 0.209
    dark_count_prob: float = 1e-6
    misalignment: float = 0.005
    clock_rate_hz: float = 1e9

    def __post_init__(self):
        check_real(self.distance_km, "distance_km", 0.0)
        check_real(self.attenuation_db_per_km, "attenuation_db_per_km", 0.0)
        check_real(self.clock_rate_hz, "clock_rate_hz", 0.0, low_open=True)
        for name in ("detector_efficiency", "dark_count_prob", "misalignment"):
            check_real(getattr(self, name), name, 0.0, 1.0)

    @property
    def transmittance(self) -> float:
        """End-to-end single-photon transfer probability, detector included."""
        loss = 10.0 ** (-self.attenuation_db_per_km * self.distance_km / 10.0)
        return loss * self.detector_efficiency


@dataclass(frozen=True)
class IntensitySet:
    """The four mean photon numbers and the transmitter basis bias.

    The signal class ``s`` is the only one prepared in the Z basis; ``u``,
    ``v`` and ``w`` are prepared in X, drawn with weights ``x_weights``.
    A signal class (hence any class) whose Poisson tail beyond ``N_CUT``
    exceeds ``TAIL_LIMIT`` raises :class:`TailBoundError` naming ``s``.
    """

    s: float = 0.5
    u: float = 0.1
    v: float = 0.02
    w: float = 0.0
    z_basis_prob: float = 0.8
    x_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        low = 0.0  # s > u > v > w >= 0: each class is checked against the next dimmer one
        for name in reversed(LABELS):
            low = check_real(getattr(self, name), name, low, low_open=name != "w")
        check_real(self.z_basis_prob, "z_basis_prob", 0.0, 1.0, low_open=True, high_open=True)
        object.__setattr__(self, "x_weights", check_weights(self.x_weights, "x_weights"))  # hashable
        _photon_law(self.s, "s")

    def mu(self, label: str) -> float:
        try:
            return {"s": self.s, "u": self.u, "v": self.v, "w": self.w}[label]
        except KeyError:
            raise ValueError(f"unknown intensity label {label!r}") from None

    def x_probs(self) -> np.ndarray:
        w = np.asarray(self.x_weights, dtype=float)
        return w / w.sum()


@dataclass(frozen=True)
class CountRecord:
    """Tallies for one (intensity, basis) configuration."""

    sent: int
    detected: int
    errors: int

    def __post_init__(self):
        if not 0 <= self.errors <= self.detected <= self.sent:
            raise ValueError(
                f"need errors <= detected <= sent, got {self.errors}/{self.detected}/{self.sent}"
            )


@dataclass(frozen=True, eq=False)
class YieldModel:
    """Per-photon-number detection and error probabilities.

    ``yields`` and the error maps are 1-D arrays indexed by photon number n
    for a point-to-point (QKD) link, or 2-D arrays indexed by the photon
    pair (n, m) for the relay (MDI) link, with n, m in 0..N_CUT.

    ``error_rates`` is the test-basis (X) error map consumed by the decoy
    estimation; ``z_error_rates`` is the key-basis map used when sampling
    Z-basis data.  They coincide for QKD, where both bases behave alike;
    for MDI the X map carries the multi-photon error floor while Z errors
    stay misalignment-driven at every photon number.  The arrays are
    read-only copies, so the :func:`outcome_law` results a model memoises
    never go stale.  A model is an object, not a value: it equals only itself.
    """

    kind: str  # "QKD" | "MDI"
    yields: np.ndarray
    error_rates: np.ndarray
    z_error_rates: np.ndarray = None
    _laws: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("QKD", "MDI"):
            raise ValueError(f"kind must be 'QKD' or 'MDI', got {self.kind!r}")
        if self.z_error_rates is None:
            object.__setattr__(self, "z_error_rates", self.error_rates)
        for name in ("yields", "error_rates", "z_error_rates"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
            expected = (N_CUT + 1,) if self.kind == "QKD" else (N_CUT + 1,) * 2
            if arr.shape != expected:
                raise ValueError(f"{name} must have shape {expected}, got {arr.shape}")
            if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # false for a NaN entry too
                raise ValueError(f"{name} entries must be probabilities")

    def errors_for_basis(self, basis: str) -> np.ndarray:
        if basis == "X":
            return self.error_rates
        if basis == "Z":
            return self.z_error_rates
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")


def _eta_n(eta: float, n: np.ndarray) -> np.ndarray:
    """P(at least one of n photons survives), 1 - (1-eta)^n."""
    return 1.0 - (1.0 - eta) ** n


def _error_mix(errored: np.ndarray, yields: np.ndarray) -> np.ndarray:
    """Detection-weighted error rate errored / yields, clipped to [0, 1]; 0 where nothing is detected."""
    return np.clip(np.divide(errored, yields, out=np.zeros_like(yields), where=yields > 0.0), 0.0, 1.0)


def qkd_yield_model(channel: ChannelParams) -> YieldModel:
    """Point-to-point yield model.

    With eta the end-to-end transmittance and Y0 = 2 * dark_count_prob the
    two-detector dark floor:

        yields(n) = Y0 + eta_n - Y0 * eta_n
        errors(n) = (0.5 * Y0 + misalignment * eta_n * (1 - Y0)) / yields(n)

    where eta_n = 1 - (1-eta)^n.  Dark clicks land on a random detector,
    signal clicks err with the misalignment probability.
    """
    eta = channel.transmittance
    y0 = min(1.0, 2.0 * channel.dark_count_prob)
    n = np.arange(N_CUT + 1)
    eta_n = _eta_n(eta, n)
    yields = y0 + eta_n - y0 * eta_n
    errors = _error_mix(0.5 * y0 + channel.misalignment * eta_n * (1.0 - y0), yields)
    return YieldModel(kind="QKD", yields=yields, error_rates=errors)


def mdi_yield_model(
    side_a: ChannelParams,
    side_b: ChannelParams,
    hom_visibility: float = 1.0,
    bell_success: float = 0.5,
    x_multiphoton_floor: float = 0.25,
) -> YieldModel:
    """Relay (two-sender) yield model.

    Accepted-coincidence probability for a photon pair (n, m):

        yields(n, m) = bell_success * eta_a,n * eta_b,m + 2 * d_a * d_b

    with eta_x,k = 1 - (1-eta_x)^k and the additive term the two-detector
    dark-coincidence floor.  Error rates are detection-weighted mixes of a
    random 0.5 on dark coincidences and a signal error e(n, m):

        X basis: e(1,1) = mis_eff + (1 - hom_visibility)/2,
                 e(n,m) = x_multiphoton_floor for n+m > 2,
        Z basis: e(n,m) = mis_eff for all n, m >= 1,

    where mis_eff combines the two senders' misalignment probabilities.
    Interference physics is intentionally absent; the matrix itself is the
    ground truth that downstream bounds are tested against.
    """
    check_real(hom_visibility, "hom_visibility", 0.0, 1.0)
    check_real(bell_success, "bell_success", 0.0, 1.0)
    check_real(x_multiphoton_floor, "x_multiphoton_floor", 0.0, 1.0)
    eta_a, eta_b = side_a.transmittance, side_b.transmittance
    n = np.arange(N_CUT + 1)
    eta_an = _eta_n(eta_a, n)[:, None]
    eta_bm = _eta_n(eta_b, n)[None, :]
    signal = bell_success * eta_an * eta_bm
    dark_floor = 2.0 * side_a.dark_count_prob * side_b.dark_count_prob
    yields = np.clip(signal + dark_floor, 0.0, 1.0)

    mis_eff = 1.0 - (1.0 - side_a.misalignment) * (1.0 - side_b.misalignment)
    nn, mm = np.meshgrid(n, n, indexing="ij")
    e11 = min(0.5, mis_eff + (1.0 - hom_visibility) / 2.0)
    e_x = np.where((nn + mm) > 2, x_multiphoton_floor, e11)
    e_z = np.full_like(e_x, mis_eff, dtype=float)
    return YieldModel(
        kind="MDI",
        yields=yields,
        error_rates=_error_mix(0.5 * dark_floor + e_x * signal, yields),
        z_error_rates=_error_mix(0.5 * dark_floor + e_z * signal, yields),
    )


#: the shape arguments of :func:`mdi_yield_model`, after its two sides; each a probability
MDI_MODEL_KEYS = tuple(inspect.signature(mdi_yield_model).parameters)[2:]


@functools.lru_cache(maxsize=64)
def _photon_law(mu: float, name: str = "mu") -> np.ndarray:
    """Law of min(Poisson(mu), N_CUT), cached read-only; a tail beyond TAIL_LIMIT is a TailBoundError at ``name``."""
    pmf, tail = poisson_weights(mu, N_CUT)
    if tail > TAIL_LIMIT:
        raise TailBoundError(f"{name}: Poisson tail {tail:.2e} beyond N_CUT={N_CUT} for mu={mu}")
    pmf[-1] += tail
    pmf.flags.writeable = False
    return pmf


def sift_keep(kind: str, basis: str, other_basis: str | None = None) -> float:
    """Probability that a detection in ``basis`` is recorded, not discarded.

    On the relay link ("MDI") a coincidence is recorded exactly when the
    senders' bases match (``other_basis`` defaults to ``basis``).  On a
    point-to-point link ("QKD") a detection is recorded when the passive
    analyzer takes the sender's basis: X with ``PASSIVE_BASIS_FACTOR``.
    """
    if basis not in ("Z", "X"):
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")
    if kind == "MDI":
        return 1.0 if other_basis in (None, basis) else 0.0
    if kind == "QKD":
        return PASSIVE_BASIS_FACTOR if basis == "X" else 1.0 - PASSIVE_BASIS_FACTOR
    raise ValueError(f"kind must be 'QKD' or 'MDI', got {kind!r}")


def expected_gain_and_qber(
    model: YieldModel,
    mu: float,
    nu: float | None = None,
    basis: str = "X",
) -> tuple[float, float]:
    """Poisson-mixture gain and QBER of an intensity (pair) under the model.

    Photon numbers follow min(Poisson(mu), N_CUT) for each sender; a class
    whose Poisson mass beyond ``N_CUT`` exceeds ``TAIL_LIMIT`` raises
    :class:`TailBoundError`.
    """
    if (nu is None) != (model.kind == "QKD"):
        raise ValueError("nu must be given exactly when the model kind is MDI")
    weights = _photon_law(mu)
    if nu is not None:
        weights = np.outer(weights, _photon_law(nu, "nu"))
    detect = weights * model.yields
    gain = min(1.0, float(detect.sum()))
    err_gain = float((detect * model.errors_for_basis(basis)).sum())
    qber = err_gain / gain if gain > 0.0 else 0.0
    return gain, min(1.0, qber)


def outcome_law(
    model: YieldModel,
    mu: float,
    nu: float | None = None,
    basis: str = "X",
    keep: float = 1.0,
) -> np.ndarray:
    """Probabilities of (recorded error, recorded correct, discarded detection,
    no detection) for one pulse (pair); non-negative, summing to one.

    A detection occurs with the gain of :func:`expected_gain_and_qber` and
    errs with its QBER; it is recorded with probability ``keep`` (the
    link's sifting, :func:`sift_keep`) and discarded otherwise.  The law is
    computed once per model and arguments, and returned read-only.
    """
    check_probability(keep, "keep")
    key = mu, nu, basis, keep
    law = model._laws.get(key)
    if law is None:
        gain, qber = expected_gain_and_qber(model, mu, nu, basis)
        recorded = keep * gain
        law = np.array([recorded * qber, recorded * (1.0 - qber), gain - recorded, 1.0 - gain])
        law.flags.writeable = False
        model._laws[key] = law
    return law

