#!/usr/bin/env python3
"""Measure the signature-count gain of multi-block extraction.

Compares the multiple-signatures-per-acquisition protocol against the
one-signature-per-acquisition baseline on the same synthetic pool and equal
per-signature failure budgets, over the relay link of the ``desk`` preset.
"""

import argparse

from qkdnet.cli import load_network, load_preset
from qkdnet.experiments import multisig_comparison


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pulses", type=float, default=5e8, help="total acquisition budget")
    args = parser.parse_args()

    intensities, models = load_network(load_preset("desk")["simulate"])
    result = multisig_comparison(models["AB"], intensities, "MDI", int(args.pulses))
    print(f"multi-block signatures:    {result.n_multi} (block size {result.c_sig_multi})")
    print(f"baseline signatures:       {result.n_baseline} "
          f"(min acquisition {result.min_acquisition_pulses} pulses)")
    print(f"improvement ratio:         {result.ratio:.2f}x")


if __name__ == "__main__":
    main()
