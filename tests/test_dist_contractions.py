"""Distinguishable-DOF couplings contracted against reduced densities agree
with the configuration-pair loops they replace."""

import numpy as np
import pytest

from mclr import AllBodyTable, PairCoupling, build_grid
from mclr import fockspace as fs
from mclr import groundstate as gs
from mclr import hamiltonian as ham
from mclr import linres_distinguishable as ld
from mclr import linres_identical as li

import loop_oracles as lo
from conftest import oscillator_h, random_state_vector

TOL = 1e-12


def _random_table(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_state(M_list, kind, seed):
    """A generic (unconverged) state: random orbitals, coefficients and
    complex, non-symmetric coupling tables on grids of different sizes."""
    rng = np.random.default_rng(seed)
    Q = len(M_list)
    grids = [build_grid(7 + 2 * j, -3.0, 3.0) for j in range(Q)]
    sets = [ham.OrbitalSet(_random_table(rng, (M, g.n_points)), g).orthonormalized()
            for M, g in zip(M_list, grids)]
    n = [g.n_points for g in grids]
    if kind == "pair":
        # one term per DOF pair, one of them given in reversed order
        terms = [(a, b, _random_table(rng, (n[a], n[b])))
                 for a in range(Q) for b in range(a + 1, Q)]
        a, b, t = terms[-1]
        terms[-1] = (b, a, t.T)
        coupling = PairCoupling(terms)
    else:
        coupling = AllBodyTable(_random_table(rng, n))
    space = fs.enumerate_configs("distinguishable", M_list=M_list)
    C = random_state_vector(space.size, seed)
    rho1 = [fs.dist_reduced_density(space, C, (j,)) for j in range(Q)]
    return gs.GroundState(
        space=space, grids=grids, h_ops=[oscillator_h(g) for g in grids],
        sets=sets, C=C, rho1=rho1,
        mu=[np.zeros((M, M), dtype=complex) for M in M_list],
        interaction=coupling, energy=0.0,
        residuals={"orb_residual": 0.0, "c_residual": 0.0})


CASES = {
    "pair_q2_44": ((4, 4), "pair"),
    "pair_q3_232": ((2, 3, 2), "pair"),
    # cross-DOF blocks whose pair term touches neither of their DOFs
    "pair_q4_2222": ((2, 2, 2, 2), "pair"),
    "allbody_q2_32": ((3, 2), "table"),
    "allbody_q3_232": ((2, 3, 2), "table"),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def state(request):
    M_list, kind = CASES[request.param]
    return _random_state(M_list, kind, seed=len(request.param))


def test_mean_fields_match_pair_loop(state):
    plans = ham.mean_field_plans(state.space, state.C, None, state.interaction,
                                 [g.weight for g in state.grids])
    fields = ham.mean_fields(plans, [s.orbitals for s in state.sets])
    for j, new in enumerate(fields):
        ref = lo.mean_fields_dist(state.space, state.C, state.sets,
                                  state.interaction, j)
        assert np.abs(new - ref).max() < TOL


def test_config_coupling_matrix_matches_pair_loop(state):
    new = ham.config_coupling_matrix(state.interaction, state.sets, state.space)
    ref = lo.config_coupling_matrix(state.interaction, state.sets, state.space)
    assert np.abs(new - ref).max() < TOL


def test_cross_dof_oo_blocks_match_pair_loop(state):
    A, B = li.build_oo_block(state)
    A_ref, B_ref = lo.build_oo_cross(state)
    lay = li.ResponseLayout.of(state)
    for j in range(lay.Q):
        for k in range(lay.Q):
            if k != j:
                blk = (lay.u_block(j), lay.u_block(k))
                assert np.abs(A[blk] - A_ref[blk]).max() < TOL
    assert np.abs(B - B_ref).max() < TOL


def test_orbital_coefficient_columns_match_pair_loop(state):
    Loc_u, Loc_v, *_ = ld.build_oc_co_dist(state)
    ref_u, ref_v = lo.loc_blocks(state)
    assert np.abs(Loc_u - ref_u).max() < TOL
    assert np.abs(Loc_v - ref_v).max() < TOL
