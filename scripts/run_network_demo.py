#!/usr/bin/env python3
"""End-to-end demo: simulate the three-party network, distil a key and a
signature report from the relay link, and run one honest signing session."""

import argparse

from qkdnet.cli import load_network, load_preset
from qkdnet.decoy import TableFormatError
from qkdnet.experiments import relay_chain
from qkdnet.mathkit import ConfigError
from qkdnet.netsim import run_plan, schedule


def main():
    config = load_preset("desk")["simulate"]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slots", type=int, default=config["slots"])
    parser.add_argument("--seed", type=int, default=config["seed"])
    args = parser.parse_args()

    intensities, models = load_network(config)
    try:  # a negative slot count, or too few slots to fill every count-table entry, is a usage error
        plan = schedule(args.slots, config["weights"], intensities=intensities, seed=args.seed)
        result = run_plan(plan, models, seed=args.seed)
        chain = relay_chain(result, intensities, config["weights"], args.seed)
    except (ConfigError, TableFormatError) as exc:
        parser.error(exc.args[0])
    for link, table in sorted(result.tables.items()):
        detected = sum(r.detected for r in table.entries.values())
        print(f"link {link}: {len(table.entries)} entries, {detected} detections, "
              f"z-pool {len(result.z_pools[link])}")

    print(f"relay key: {chain.key.secure_bits} bits ({chain.key.rate_bps:.3g} bps in-session)")
    report = chain.report
    if report is None:
        print(f"no positive QDS rate at this acquisition size: {chain.insecure}")
        return
    print(f"signature report: p_e={report.p_e:.4f} E_sig={report.e_sig_upper:.4f} "
          f"thresholds=({report.s_auth:.4f}, {report.s_ver:.4f}) l_sig={report.l_sig} "
          f"secure={report.secure}")
    for role, verdict in chain.verdicts.items():
        print(f"{role} recipient: accepted={verdict.accepted} "
              f"({verdict.mismatches}/{verdict.checked} mismatches, "
              f"threshold {verdict.threshold:.4f})")


if __name__ == "__main__":
    main()
