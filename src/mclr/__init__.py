"""Excitation spectra of interacting bosons, fermions, and distinguishable
degrees of freedom from linearized multiconfigurational Hartree ground states."""

from .grid import (Grid, OneBodyOperator, TwoBodyKernel, build_grid,
                   discretize_kernel, harmonic_potential, kinetic_matrix,
                   position_operator)
from .fockspace import ConfigSpace, enumerate_configs, reduced_densities
from .hamiltonian import OrbitalSet, PairCoupling, AllBodyTable
from .groundstate import (GroundState, SolverOptions, NonConvergenceError,
                          solve_mchx, solve_mch_dist, propagate_check)

__version__ = "0.1.0"
