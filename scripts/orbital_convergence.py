#!/usr/bin/env python3
"""Convergence of ground energy and low excitations with the orbital count.

Sweeps M = 1..4 for two contact-coupled bosons and tabulates energies and
the two lowest excitations against exact diagonalization on the same grid.
"""

import sys

import numpy as np

from mclr import (OneBodyOperator, TwoBodyKernel, build_grid,
                  harmonic_potential, kinetic_matrix)
from mclr import fockspace as fs
from mclr import groundstate as gs
from mclr import linres_identical as li
from mclr import oracle as orc
from mclr import spectrum as spm


def main():
    strength = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    grid = build_grid(48, -6.0, 6.0)
    h = OneBodyOperator(kinetic_matrix(grid).matrix
                        + harmonic_potential(grid, 1.0).matrix)
    kernel = TwoBodyKernel("contact", strength=strength)

    exact = orc.exact_diag_grid(2, "boson", grid, h, kernel, n_states=4)
    e0 = exact.energies[0]
    gaps = exact.excitations(2)
    print(f"# exact: E0 = {e0:.10f}, gaps = {gaps[0]:.8f}, {gaps[1]:.8f}")
    print("  M    energy          dE_exact     omega_1      omega_2")
    for M in (1, 2, 3, 4):
        space = fs.enumerate_configs("boson", N=2, M=M)
        state = gs.solve_mchx(space, grid, h, kernel)
        rm = li.assemble_L(state)
        # eigenvalues only: a drive of no columns forms no vectors
        spec = spm.eigensolve(rm, drive=np.zeros((rm.D, 0)))
        low = np.sort(spec.omega)[:2]
        print(f"{M:3d}    {state.energy:.10f}  {state.energy - e0:.3e}"
              f"   {low[0]:.8f}   {low[1]:.8f}")


if __name__ == "__main__":
    main()
