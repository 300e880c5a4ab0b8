#!/usr/bin/env python3
"""World multiplication under independent measurements.

For k = 1..3 simultaneous qubit measurements, enumerate all 2^k outcome sign
patterns, certify every pair of worlds isomorphic (products of per-factor
sign-flip swaps) and observably distinct, and report counts and timings.
"""

import argparse
import sys
import time

import numpy as np

from swaplab.config import RunConfig
from swaplab.scenario import run_multiworld


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k", type=int, default=3, choices=(1, 2, 3))
    parser.add_argument("--half-width", type=int, default=8)
    parser.add_argument("--spacing", type=float, default=0.25)
    args = parser.parse_args()

    print(f"{'k':>2} {'worlds':>7} {'pairs':>6} {'max state res':>14} {'max H res':>12} "
          f"{'min gap':>8} {'time':>8}")
    all_passed = True
    for k in range(1, args.max_k + 1):
        config = RunConfig(scenario="multiworld", M=args.half_width, delta=args.spacing, k=k)
        start = time.perf_counter()
        result = run_multiworld(config)
        elapsed = time.perf_counter() - start
        # np.max keeps a NaN that max() would drop when it is not first
        state_residual = np.max([p.state_residual for p in result.pairs])
        hamiltonian_residual = np.max([p.hamiltonian_residual for p in result.pairs])
        min_gap = min(max(p.pointer_gaps) for p in result.pairs)
        all_passed = all_passed and result.passed
        print(
            f"{k:>2} {len(result.world_labels):>7} {len(result.pairs):>6} "
            f"{state_residual:>14.3e} {hamiltonian_residual:>12.3e} "
            f"{min_gap:>8.4f} {elapsed:>7.2f}s"
        )
    print(f"\nall runs passed: {all_passed}")
    return 0 if all_passed else 3


if __name__ == "__main__":
    sys.exit(main())
