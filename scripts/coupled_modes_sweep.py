#!/usr/bin/env python3
"""Normal modes of two bilinearly coupled oscillators vs coupling strength.

For each coupling the stationary product-correlated state is solved with
(M, M) orbitals and the two lowest response frequencies are compared with
the closed forms sqrt(1 +/- lambda).
"""

import sys

import numpy as np

from mclr import (OneBodyOperator, PairCoupling, build_grid,
                  harmonic_potential, kinetic_matrix)
from mclr import fockspace as fs
from mclr import groundstate as gs
from mclr import linres_identical as li
from mclr import oracle as orc
from mclr import spectrum as spm


def main():
    M = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    grids = [build_grid(48, -8.0, 8.0), build_grid(48, -8.0, 8.0)]
    h_ops = [OneBodyOperator(kinetic_matrix(g).matrix
                             + harmonic_potential(g, 1.0).matrix)
             for g in grids]
    space = fs.enumerate_configs("distinguishable", M_list=(M, M))

    print(f"# (M, M) = ({M}, {M})")
    print(" lambda   omega_-      omega_+      max |diff|")
    for lam in (0.05, 0.1, 0.2, 0.4, 0.6):
        coupling = PairCoupling.bilinear(grids, 0, 1, lam)
        state = gs.solve_mch_dist(space, grids, h_ops, coupling)
        rm = li.assemble_L(state)
        # eigenvalues only: a drive of no columns forms no vectors
        spec = spm.eigensolve(rm, drive=np.zeros((rm.D, 0)))
        low = np.sort(spec.omega)[:2]
        ref = orc.coupled_oscillators_reference(lam)
        print(f"  {lam:.2f}   {low[0]:.8f}   {low[1]:.8f}   "
              f"{np.abs(low - ref).max():.2e}")


if __name__ == "__main__":
    main()
