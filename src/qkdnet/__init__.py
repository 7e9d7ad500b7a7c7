"""Reconfigurable three-node MDI/QKD network simulator and finite-key toolkit.

Simulates or ingests detection-count tables for a two-fiber, three-party
network that switches between relay (measurement-device-independent) and
point-to-point QKD sessions, computes decoy-state single-photon bounds and
secure key lengths, and distils quantum digital signatures with
multiple signatures drawn from one data block.
"""

from .channel import (
    ChannelParams,
    CountRecord,
    IntensitySet,
    YieldModel,
    expected_gain_and_qber,
    mdi_yield_model,
    qkd_yield_model,
)
from .decoy import CountTable, DecoyBounds, estimate_bounds, restrict_to_block
from .keyrate import (
    KeyRateResult,
    SecurityParams,
    finite_size_delta,
    leak_ec,
    rate_sweep,
    secure_key_length,
    sweep_to_csv,
    synthesize_table,
)
from .mathkit import (
    binary_entropy,
    hoeffding_exponent_bound,
    inv_binary_entropy,
    poisson_pmf,
    serfling_deviation,
    solve_bounded_lp,
)
from .netsim import MessageBus, SessionPlan, run_plan, schedule
from .qds import (
    QdsParams,
    QdsReport,
    SignatureBlock,
    abort_and_forge,
    distill_report,
    eve_error_floor,
    extract_blocks,
    n_blocks,
    qber_upper,
    signature_length,
    thresholds,
    timing_report,
)

__version__ = "0.1.0"
