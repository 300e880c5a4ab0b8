#!/usr/bin/env python3
"""Run the single-measurement scenario at desk scale and print the report.

The run certifies that the sign-flip swap is an exact symmetry of the
measurement Hamiltonian, maps one outcome world onto the other at every
sampled time, and that fixed reference observables still tell the two worlds
apart.
"""

import argparse
import sys

from swaplab.config import RunConfig, serialize_config
from swaplab.reporting import emit_report
from swaplab.scenario import run_prince_pauper


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--coupling", type=float, default=1.0)
    parser.add_argument("--print-config", action="store_true")
    args = parser.parse_args()

    config = RunConfig(g=args.coupling, tol=args.tol)
    if args.print_config:
        print(serialize_config(config), end="")
    result = run_prince_pauper(config)
    print(emit_report(result, config), end="")
    return 0 if result.passed else 3


if __name__ == "__main__":
    sys.exit(main())
