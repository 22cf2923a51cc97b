"""Shared fixtures: grids, operators, and converged reference states.

Ground-state solves are session-scoped; tests treat them as read-only.
"""

import dataclasses

import numpy as np
import pytest

from mclr import (OneBodyOperator, PairCoupling, TwoBodyKernel, build_grid,
                  harmonic_potential, kinetic_matrix)
from mclr import fockspace as fs
from mclr import hamiltonian as ham
from mclr import groundstate as gs

import loop_oracles as lo


def oscillator_h(grid, omega=1.0, mass=1.0):
    return OneBodyOperator(kinetic_matrix(grid, mass).matrix
                           + harmonic_potential(grid, omega).matrix)


@pytest.fixture(scope="session")
def grid64():
    return build_grid(64, -8.0, 8.0)


@pytest.fixture(scope="session")
def grid48():
    return build_grid(48, -6.0, 6.0)


@pytest.fixture(scope="session")
def h64(grid64):
    return oscillator_h(grid64)


@pytest.fixture(scope="session")
def h48(grid48):
    return oscillator_h(grid48)


@pytest.fixture(scope="session")
def bos_m1(grid64, h64):
    space = fs.enumerate_configs("boson", N=2, M=1)
    return gs.solve_mchx(space, grid64, h64,
                         TwoBodyKernel("contact", strength=0.1))


@pytest.fixture(scope="session")
def bos_m2(grid64, h64):
    space = fs.enumerate_configs("boson", N=2, M=2)
    return gs.solve_mchx(space, grid64, h64,
                         TwoBodyKernel("contact", strength=0.1))


@pytest.fixture(scope="session")
def bos_m3(grid64, h64):
    space = fs.enumerate_configs("boson", N=2, M=3)
    return gs.solve_mchx(space, grid64, h64,
                         TwoBodyKernel("contact", strength=0.5))


@pytest.fixture(scope="session")
def bos_m2_48(grid48, h48):
    space = fs.enumerate_configs("boson", N=2, M=2)
    return gs.solve_mchx(space, grid48, h48,
                         TwoBodyKernel("contact", strength=0.3))


@pytest.fixture(scope="session")
def ferm_m2(grid64, h64):
    space = fs.enumerate_configs("fermion", N=2, M=2)
    return gs.solve_mchx(space, grid64, h64,
                         TwoBodyKernel("gaussian", strength=0.3, width=0.5))


@pytest.fixture(scope="session")
def ferm_m3(grid64, h64):
    space = fs.enumerate_configs("fermion", N=3, M=3)
    return gs.solve_mchx(space, grid64, h64,
                         TwoBodyKernel("gaussian", strength=0.3, width=0.5))


@pytest.fixture(scope="session")
def ferm_n2m4(grid48, h48):
    """Two trapped fermions in four orbitals: the ground state is odd under
    the mirror x -> -x (one even and one odd orbital occupied), and its
    natural occupations come in degenerate even/odd pairs."""
    space = fs.enumerate_configs("fermion", N=2, M=4)
    return gs.solve_mchx(space, grid48, h48,
                         TwoBodyKernel("gaussian", strength=0.3, width=0.5))


@pytest.fixture(scope="session")
def bos_m3_odd_grid():
    """Two bosons in three orbitals on a grid of 47 points, whose centre
    point is its own mirror image."""
    grid = build_grid(47, -6.0, 6.0)
    return gs.solve_mchx(fs.enumerate_configs("boson", N=2, M=3), grid,
                         oscillator_h(grid),
                         TwoBodyKernel("gaussian", strength=0.3, width=0.5))


@pytest.fixture(scope="session")
def dist_grids():
    return [build_grid(48, -8.0, 8.0), build_grid(48, -8.0, 8.0)]


@pytest.fixture(scope="session")
def dist_h(dist_grids):
    return [oscillator_h(g) for g in dist_grids]


@pytest.fixture(scope="session")
def dist_44(dist_grids, dist_h):
    space = fs.enumerate_configs("distinguishable", M_list=(4, 4))
    coupling = PairCoupling.bilinear(dist_grids, 0, 1, 0.2)
    return gs.solve_mch_dist(space, dist_grids, dist_h, coupling)


@pytest.fixture(scope="session")
def dist_11(dist_grids, dist_h):
    space = fs.enumerate_configs("distinguishable", M_list=(1, 1))
    coupling = PairCoupling.bilinear(dist_grids, 0, 1, 0.2)
    return gs.solve_mch_dist(space, dist_grids, dist_h, coupling)


@pytest.fixture(scope="session")
def dist_333():
    """Three DOFs coupled by the pair term 0-2 only: DOF 1 is untouched."""
    grids = [build_grid(32, -8.0, 8.0) for _ in range(3)]
    space = fs.enumerate_configs("distinguishable", M_list=(3, 3, 3))
    coupling = PairCoupling.bilinear(grids, 0, 2, 0.2)
    return gs.solve_mch_dist(space, grids, [oscillator_h(g) for g in grids],
                             coupling)


@pytest.fixture(scope="session")
def dist_22_uncoupled(dist_grids, dist_h):
    space = fs.enumerate_configs("distinguishable", M_list=(2, 2))
    return gs.solve_mch_dist(space, dist_grids, dist_h, None)


@pytest.fixture(scope="session")
def bos_m2_complex_gauge(bos_m2):
    """bos_m2 with its orbitals rotated by a random complex unitary."""
    rng = np.random.default_rng(42)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return orbital_gauge(bos_m2, np.linalg.qr(z)[0])


def orbital_gauge(st, U):
    """``st`` with its orbitals rotated by the unitary ``U`` (new orbital a
    is sum_b conj(U[b, a]) phi_b), its configuration eigenpair, densities
    and multipliers recomputed in that gauge."""
    rot = ham.OrbitalSet(U.conj().T @ st.sets[0].orbitals, st.grids[0])
    energy, C, _ = gs._ci_eigenpair(
        ham.hamiltonian_matrix(st.space, [rot], st.h_ops, st.kernel_matrix))
    rho = fs.reduced_densities(st.space, C)
    g_unp = lo.orbital_eom_rhs_plan(st.grids[0], rot, st.h_ops[0],
                                    st.kernel_matrix, rho, project=False)
    mu = st.grids[0].weight * (g_unp @ rot.orbitals.conj().T)
    return dataclasses.replace(st, sets=[rot], C=C, rho1=[rho.rho1],
                               rho2=rho.rho2, mu=[mu], energy=energy,
                               residuals=dict(st.residuals))


def random_state_vector(size, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return c / np.linalg.norm(c)
