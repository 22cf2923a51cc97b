"""The orbital right-hand side at fixed coefficients (``gs.OrbitalRHS``) and
its mean fields (``ham.MeanFieldPlan``) agree with the term-by-term loops of
``loop_oracles`` on fresh random orbitals, and the self-consistent loop
builds one plan per coefficient vector, not one per orbital step."""

import numpy as np
import pytest

from mclr import AllBodyTable, PairCoupling, build_grid
from mclr import fockspace as fs
from mclr import groundstate as gs
from mclr import hamiltonian as ham

import loop_oracles as lo
from conftest import oscillator_h, random_state_vector

REL = 1e-13


def _rel(new, ref):
    return np.abs(new - ref).max() / np.abs(ref).max()


def _orbitals(rng, M, grid, gauge):
    """Orthonormal random orbitals; the complex gauge multiplies real ones
    by a phase per orbital."""
    raw = rng.standard_normal((M, grid.n_points))
    if gauge == "complex":
        raw = raw * np.exp(2j * np.pi * rng.random((M, 1)))
    return ham.OrbitalSet(raw, grid).orthonormalized()


@pytest.mark.parametrize("gauge", ["real", "complex"])
@pytest.mark.parametrize("kernel", ["table", None])
@pytest.mark.parametrize("statistics, N, M", [("boson", 3, 3),
                                              ("fermion", 2, 3)])
def test_identical_rhs_matches_term_loop(statistics, N, M, kernel, gauge):
    rng = np.random.default_rng(N + M)
    grid = build_grid(24, -4.0, 4.0)
    orbs = _orbitals(rng, M, grid, gauge)
    space = fs.enumerate_configs(statistics, N=N, M=M)
    rho = fs.reduced_densities(space, random_state_vector(space.size, M))
    km = None
    if kernel == "table":
        km = rng.standard_normal((grid.n_points,) * 2)
        km = km + km.T
    h_op = oscillator_h(grid)
    ref = lo.orbital_eom_rhs(grid, orbs, h_op, km, rho)
    assert _rel(gs.orbital_eom_rhs(grid, orbs, h_op, km, rho), ref) < REL
    fields = ham.mean_field_plans(space, None, rho.rho2, km, [grid.weight])
    rhs = gs.OrbitalRHS([rho.rho1], [h_op], [grid.weight], fields)
    (B,) = rhs([orbs.orbitals])
    assert _rel(B, ref) < REL


def _table(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _couplings(rng, n):
    """Pair terms that touch DOF j, pair terms that miss it, and an
    all-body table, on grids of different sizes."""
    return {
        # Q = 2: one term, touching both DOFs
        "pair_touching": ((3, 2), PairCoupling([(0, 1, _table(rng, n[:2]))])),
        # Q = 3: every DOF misses one term; two terms share DOFs (0, 1) and
        # one is given in reversed order
        "pair_missing": ((2, 3, 2), PairCoupling([
            (0, 1, _table(rng, (n[0], n[1]))),
            (1, 0, _table(rng, (n[1], n[0]))),
            (2, 1, _table(rng, (n[2], n[1]))),
            (0, 2, _table(rng, (n[0], n[2])))])),
        "all_body": ((2, 3, 2), AllBodyTable(_table(rng, tuple(n)))),
    }


@pytest.mark.parametrize("gauge", ["real", "complex"])
@pytest.mark.parametrize("case", ["pair_touching", "pair_missing", "all_body"])
def test_dist_plan_matches_configuration_pair_loop(case, gauge):
    rng = np.random.default_rng(len(case))
    grids = [build_grid(7 + 2 * j, -3.0, 3.0) for j in range(3)]
    M_list, coupling = _couplings(rng, [g.n_points for g in grids])[case]
    Q = len(M_list)
    grids = grids[:Q]
    sets = [_orbitals(rng, M, g, gauge) for M, g in zip(M_list, grids)]
    phis = [s.orbitals for s in sets]
    weights = [g.weight for g in grids]
    space = fs.enumerate_configs("distinguishable", M_list=M_list)
    C = random_state_vector(space.size, Q)
    plans = ham.mean_field_plans(space, C, None, coupling, weights)
    for j, plan in enumerate(plans):
        ref = lo.mean_fields_dist(space, C, sets, coupling, j)
        assert _rel(plan(phis), ref) < REL
    h_ops = [oscillator_h(g) for g in grids]
    rho1 = [fs.dist_reduced_density(space, C, (j,)) for j in range(Q)]
    rhs = gs.OrbitalRHS(rho1, h_ops, weights, plans)
    ref = lo.dist_orbital_rhs(space, sets, h_ops, coupling, C)
    for B, B_ref in zip(rhs(phis), ref):
        assert _rel(B, B_ref) < REL


@pytest.mark.parametrize("kind", ["identical", "distinguishable"])
def test_one_plan_per_outer_iteration(kind, bos_m2, dist_44, monkeypatch):
    # the coefficients are fixed over a block, so its inner steps and the
    # convergence check share the plan of the iteration's C
    builds = []

    class Counted(gs.OrbitalRHS):
        def __init__(self, *args):
            builds.append(1)
            super().__init__(*args)

    monkeypatch.setattr(gs, "OrbitalRHS", Counted)
    if kind == "identical":
        st = gs.solve_mchx(bos_m2.space, bos_m2.grids[0], bos_m2.h_ops[0],
                           bos_m2.interaction)
    else:
        st = gs.solve_mch_dist(dist_44.space, dist_44.grids, dist_44.h_ops,
                               dist_44.interaction)
    iterations = st.residuals["iterations"]
    assert iterations > 1 and gs.SolverOptions().inner_steps > 1
    assert len(builds) == iterations
