#!/usr/bin/env python3
"""End-to-end demo: simulate the three-party network, distil a key and a
signature report from the relay link, and run one honest signing session."""

import argparse

import numpy as np

from qkdnet.cli import load_network, load_preset
from qkdnet.decoy import estimate_bounds, restrict_to_block
from qkdnet.keyrate import SecurityParams, secure_key_length
from qkdnet.netsim import MessageBus, run_plan, schedule
from qkdnet.qds import (
    Holding,
    InsecureChannelError,
    QdsParams,
    distill_report,
    extract_blocks,
    run_signing_session,
)


def main():
    config = load_preset("desk")["simulate"]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slots", type=int, default=config["slots"])
    parser.add_argument("--seed", type=int, default=config["seed"])
    args = parser.parse_args()

    intensities, models = load_network(config)
    weights = config["weights"]
    duty = weights[0] / sum(weights)  # the relay session's share of the slots

    plan = schedule(args.slots, weights, intensities=intensities, seed=args.seed)
    result = run_plan(plan, models, seed=args.seed)
    for link, table in sorted(result.tables.items()):
        detected = sum(r.detected for r in table.entries.values())
        print(f"link {link}: {len(table.entries)} entries, {detected} detections, "
              f"z-pool {len(result.z_pools[link])}")

    table = result.tables["AB"]
    pool = result.z_pools["AB"]
    eps = 1e-4
    bounds = estimate_bounds(table, intensities, eps, "MDI")
    z_rec = table.z_entry()
    key = secure_key_length(
        bounds, z_rec.detected, z_rec.errors / z_rec.detected,
        SecurityParams(eps_sec=eps, eps_cor=1e-6), elapsed_s=args.slots / 1e9,
    )
    print(f"relay key: {key.secure_bits} bits ({key.rate_bps:.3g} bps in-session)")

    n_z = len(pool)
    c_sig = int(n_z * 0.55)
    c_test = n_z - c_sig - 10
    block_bounds = restrict_to_block(bounds, c_sig, z_rec.detected, eps)
    (test_idx, _), blocks = extract_blocks(np.asarray(pool.bits), c_test, c_sig, seed=args.seed)
    e_test = float(pool.error_flags[test_idx].mean())
    try:
        report = distill_report(
            block_bounds.s1_lower, block_bounds.eph_upper, e_test, pool_size=n_z,
            params=QdsParams(c_sig=c_sig, c_test=c_test, eps_h=eps, p_rep_budget=0.01,
                             p_fail_total=0.1),
            total_time_s=args.slots / 1e9 / duty, duty_fraction=duty,
            epsilon_inherited=block_bounds.epsilon_spent,
        )
    except InsecureChannelError as exc:
        print(f"no positive QDS rate at this acquisition size: {exc}")
        return
    print(f"signature report: p_e={report.p_e:.4f} E_sig={report.e_sig_upper:.4f} "
          f"thresholds=({report.s_auth:.4f}, {report.s_ver:.4f}) l_sig={report.l_sig} "
          f"secure={report.secure}")

    block = blocks[0]
    bob_bits = np.bitwise_xor(
        block.bit_values.astype(np.int8),
        pool.error_flags[block.origin_indices].astype(np.int8),
    )
    positions = np.arange(len(block))
    holdings = {
        "direct": [Holding("AB", positions, bob_bits)],
        "forwarded": [Holding("AB", positions, bob_bits)],
    }
    verdicts = run_signing_session(
        MessageBus(), "alice", "bob", "charlie", 0, {"AB": block.bit_values},
        holdings, report.s_auth, report.s_ver, report.l_sig,
    )
    for role, verdict in verdicts.items():
        print(f"{role} recipient: accepted={verdict.accepted} "
              f"({verdict.mismatches}/{verdict.checked} mismatches, "
              f"threshold {verdict.threshold:.4f})")


if __name__ == "__main__":
    main()
