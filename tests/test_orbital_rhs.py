"""The orbital right-hand side at fixed coefficients (``gs.OrbitalRHS``) and
its mean fields (``ham.MeanFieldPlan``) agree with the term-by-term loops of
``loop_oracles`` on fresh random orbitals, the self-consistent loop builds
one plan per coefficient vector, not one per orbital step, and a block of
inner steps on the stacks of equal-shape DOFs matches the per-DOF loop with
one Cholesky factor and one inverse per group and step."""

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
    assert _rel(lo.orbital_eom_rhs_plan(grid, orbs, h_op, km, rho), ref) < REL
    fields = ham.mean_field_plans(space, None, rho.rho2, km, [grid.weight])
    rhs = gs.OrbitalRHS([rho.rho1], [h_op], [grid.weight], fields)
    (B,) = rhs.unstack(rhs(rhs.stack([orbs.orbitals])))
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
    for j, field in enumerate(ham.mean_fields(plans, phis)):
        ref = lo.mean_fields_dist(space, C, sets, coupling, j)
        assert _rel(field, ref) < REL
    h_ops = [oscillator_h(g) for g in grids]
    rho1 = [fs.dist_reduced_density(space, C, (j,)) for j in range(Q)]
    rhs = gs.OrbitalRHS(rho1, h_ops, weights, plans)
    ref = lo.dist_orbital_rhs(space, sets, h_ops, coupling, C)
    for B, B_ref in zip(rhs.unstack(rhs(rhs.stack(phis))), ref):
        assert _rel(B, B_ref) < REL


@pytest.mark.parametrize("coupling, read", [
    (PairCoupling([(0, 2, np.ones((7, 7)))]), [True, False, True]),
    (AllBodyTable(np.ones((7, 7, 7))), [False] * 3)])
def test_pair_products_once_per_dof_a_plan_reads(coupling, read,
                                                 monkeypatch):
    # pair 1-3: DOF 2 enters only through the missing term of DOFs 1 and 3,
    # and an all-body table contracts the orbitals themselves
    rng = np.random.default_rng(5)
    grid = build_grid(7, -3.0, 3.0)
    phis = [_orbitals(rng, 2, grid, "real").orbitals for _ in range(3)]
    space = fs.enumerate_configs("distinguishable", M_list=(2, 2, 2))
    plans = ham.mean_field_plans(space, random_state_vector(space.size, 3),
                                 None, coupling, [grid.weight] * 3)
    formed, pair_products = [], ham._pair_products

    def recorded(phi):
        formed.append(next(j for j, p in enumerate(phis) if p is phi))
        return pair_products(phi)

    monkeypatch.setattr(ham, "_pair_products", recorded)
    ham.mean_fields(plans, phis)
    assert formed == [j for j in range(3) if read[j]]


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


def _dist_problem(M_list, points, pair):
    """(space, sets, h_ops, coupling) of bilinearly coupled oscillators,
    one grid of ``points[j]`` points per DOF and the orbitals the lowest
    eigenvectors of each h."""
    grids = [build_grid(n, -8.0, 8.0) for n in points]
    h_ops = [oscillator_h(g) for g in grids]
    sets = [ham.OrbitalSet(np.linalg.eigh(h.matrix)[1][:, :M].T
                           / np.sqrt(g.weight), g)
            for M, g, h in zip(M_list, grids, h_ops)]
    space = fs.enumerate_configs("distinguishable", M_list=M_list)
    return space, sets, h_ops, PairCoupling.bilinear(grids, *pair, 0.2)


# fixture or built problem -> complex coefficients
BLOCK_CASES = {
    "bos_m2": False,
    "ferm_m2": False,
    "dist_44": False,
    "bos_m2_complex_gauge": True,
    # the pair term 1-3 leaves DOF 2 alone: its mean field is a "missing" term
    "m333_pair13": True,
    # two groups of one, on grids of 40 and 48 points
    "m34": False,
}


def _problem(name, request):
    if name == "m333_pair13":
        return _dist_problem((3, 3, 3), (32, 32, 32), (0, 2))
    if name == "m34":
        return _dist_problem((3, 4), (40, 48), (0, 1))
    st = request.getfixturevalue(name)
    return st.space, st.sets, st.h_ops, st.operand


def _block_inputs(name, request, tau=0.7):
    """The per-DOF inputs of one descent block on problem ``name``, its
    orbitals moved off the stationary point and C drawn at random: the
    orbitals, the plan pieces (rho1, h_ops, weights, mean fields), the
    eigenpairs of each h and tau."""
    space, sets, h_ops, operand = _problem(name, request)
    rng = np.random.default_rng(len(name))
    phis = []
    for s in sets:
        noise = rng.standard_normal(s.orbitals.shape)
        if np.iscomplexobj(s.orbitals):
            noise = noise + 1j * rng.standard_normal(noise.shape)
        phis.append(ham.orthonormal_rows(s.orbitals + 0.05 * noise,
                                         s.grid.weight))
    C = rng.standard_normal(space.size)
    if BLOCK_CASES[name]:
        C = random_state_vector(space.size, len(name))
    C = C / np.linalg.norm(C)
    weights = [s.grid.weight for s in sets]
    rho1, rho2 = gs._densities(space, C)
    fields = ham.mean_field_plans(space, C, rho2, operand, weights)
    h_eigs = [np.linalg.eigh(h.matrix) for h in h_ops]
    return phis, (rho1, h_ops, weights, fields), h_eigs, tau


def _stacked_block(phis, plan, h_eigs, tau, steps):
    """``gs._descent_block`` on the stacks of ``phis``, with the stacked
    natural orbitals and floored inverses of the solver."""
    rhs = gs.OrbitalRHS(*plan)
    stacks = rhs.stack(phis)
    inv = [gs._floored_inverse(*gs._hermitian_eigh(r), 1e-10)
           for r in rhs.rho]
    K = rhs.stack(gs._kinetic_preconditioners(h_eigs, tau))
    return rhs, gs._descent_block(stacks, rhs(stacks), rhs, inv, K, tau,
                                  steps)


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_stacked_block_matches_per_dof_loop(name, request):
    # one block of inner steps on the stacks of equal-shape DOFs against
    # the per-DOF loop of the orbital step
    steps = gs.SolverOptions().inner_steps
    phis, plan, h_eigs, tau = _block_inputs(name, request)
    rhs, stacks = _stacked_block(phis, plan, h_eigs, tau, steps)
    ref_rhs = lo.LoopOrbitalRHS(*plan)
    inv = [gs._floored_inverse(*gs._hermitian_eigh(r), 1e-10)
           for r in plan[0]]
    ref = lo.descent_block(phis, ref_rhs(phis), ref_rhs, inv,
                           gs._kinetic_preconditioners(h_eigs, tau), tau, steps)
    for got, want, phi in zip(rhs.unstack(stacks), ref, phis):
        assert _rel(got, want) < REL
        # the block moves the orbitals, so the comparison is not vacuous
        assert np.abs(got - phi).max() > 1e-3


@pytest.mark.parametrize("name, n_groups", [("dist_44", 1), ("m333_pair13", 1),
                                            ("m34", 2), ("bos_m2", 1)])
def test_one_factorization_per_group_and_step(name, n_groups, request,
                                              monkeypatch):
    # each inner step factors the overlaps of a whole group at once: one
    # cholesky and one inv per group, not one per DOF
    calls = {"cholesky": 0, "inv": 0}
    for fn in calls:
        def counted(*args, _fn=getattr(np.linalg, fn), _name=fn):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(np.linalg, fn, counted)
    steps = gs.SolverOptions().inner_steps
    phis, plan, h_eigs, tau = _block_inputs(name, request)
    calls.update(cholesky=0, inv=0)    # a fixture may have been solved here
    rhs, _ = _stacked_block(phis, plan, h_eigs, tau, steps)
    assert len(rhs.groups) == n_groups
    assert calls == {"cholesky": steps * n_groups, "inv": steps * n_groups}
