#!/usr/bin/env python3
"""Empirical commutation-defect sweep.

[Z, p_Z] = i*hbar*I cannot hold as a matrix identity in finite dimension (the
two sides have unequal traces, and the commutator's diagonal is identically
zero). What does hold, and what this script records, is the action on smooth
states supported in the central half of the grid: the defect
||([Z, p_Z] - i*hbar) psi|| for a fixed-width Gaussian decays as the grid is
refined, until it bottoms out at the rounding floor (~1e-14) around N = 65.
Results are printed as a table and optionally written to CSV; the test suite
asserts the monotone decrease, with no hard-coded bound.
"""

import argparse
import sys

import numpy as np

from swaplab.measurement import ccr_defect, gaussian_pointer_state, make_pointer_grid


def sweep(half_widths, state_width=1.0, spacing_scale=3.0):
    rows = []
    for half_width in half_widths:
        n = 2 * half_width + 1
        grid = make_pointer_grid(half_width, spacing_scale / np.sqrt(n))
        defect = ccr_defect(grid, gaussian_pointer_state(grid, state_width))
        rows.append((n, grid.spacing, n * grid.spacing, defect))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="optional CSV output path")
    parser.add_argument(
        "--half-widths", type=int, nargs="+", default=[4, 8, 16, 32]
    )
    args = parser.parse_args()

    trace_grid = make_pointer_grid(8, 0.25)
    # Z = diag(zeta): Z p_Z scales the rows of p_Z and p_Z Z its columns
    zeta = trace_grid.zeta
    p = trace_grid.momentum_operator.entries
    print(f"trace of [Z, p_Z]           : {np.trace(zeta[:, None] * p - p * zeta):.2e}")
    print(f"trace of i*hbar*I (N = {trace_grid.n_points:3d}) : {1j * trace_grid.hbar * trace_grid.n_points:.2e}")
    print()

    rows = sweep(args.half_widths)
    print(f"{'N':>5} {'spacing':>10} {'box':>10} {'defect':>12}")
    for n, spacing, box, defect in rows:
        print(f"{n:>5} {spacing:>10.4f} {box:>10.4f} {defect:>12.3e}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("n_points,spacing,box_length,defect\n")
            for n, spacing, box, defect in rows:
                handle.write(f"{n},{spacing:.17g},{box:.17g},{defect:.17g}\n")
        print(f"\nwrote {args.out}")

    decreasing = all(b[3] < a[3] for a, b in zip(rows, rows[1:]))
    print(f"\nmonotone decrease: {decreasing}")
    return 0 if decreasing else 1


if __name__ == "__main__":
    sys.exit(main())
