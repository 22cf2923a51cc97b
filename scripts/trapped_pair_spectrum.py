#!/usr/bin/env python3
"""Excitation spectrum of two trapped bosons with contact repulsion.

Solves the stationary state, assembles and diagonalizes the response
matrix, computes dipole-probe weights, and prints the low-lying spectrum
next to the exact-diagonalization reference on the same grid.

Usage: python scripts/trapped_pair_spectrum.py [strength] [M]
"""

import sys

import numpy as np

from mclr import (OneBodyOperator, TwoBodyKernel, build_grid,
                  harmonic_potential, kinetic_matrix, position_operator)
from mclr import fockspace as fs
from mclr import groundstate as gs
from mclr import linres_identical as li
from mclr import oracle as orc
from mclr import spectrum as spm


def main():
    strength = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    M = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    grid = build_grid(48, -6.0, 6.0)
    h = OneBodyOperator(kinetic_matrix(grid).matrix
                        + harmonic_potential(grid, 1.0).matrix)
    kernel = TwoBodyKernel("contact", strength=strength)
    space = fs.enumerate_configs("boson", N=2, M=M)

    print(f"# two bosons, contact strength {strength}, M = {M}")
    state = gs.solve_mchx(space, grid, h, kernel)
    (occ,) = state.natural_occupations()
    print(f"ground energy      {state.energy:.10f}")
    print(f"natural occupations {np.array2string(occ, precision=6)}")

    rm = li.assemble_L(state)
    spec = spm.eigensolve(rm)
    probe = li.PerturbationSpec(f_dags=(position_operator(grid),), omega=0.55)
    weights = spm.response_weights(spec, li.build_R(state, probe, rm))

    exact = orc.exact_diag_grid(2, "boson", grid, h, kernel, n_states=8)
    gaps = exact.excitations(6)

    order = np.argsort(spec.omega)
    print("\n  k   omega_k        |gamma_k|      exact gap     diff")
    for rank, i in enumerate(order[:6]):
        w = spec.omega[i]
        gexact = gaps[rank] if rank < len(gaps) else np.nan
        print(f"{rank:3d}   {w:.8f}   {abs(weights.gamma_plus[i]):.6e} "
              f"  {gexact:.8f}   {w - gexact:+.2e}")


if __name__ == "__main__":
    main()
