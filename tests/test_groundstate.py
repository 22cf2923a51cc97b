"""Self-consistent stationary states and the propagation diagnostics."""

from pathlib import Path

import numpy as np
import pytest

from mclr import (OneBodyOperator, PairCoupling, TwoBodyKernel, build_grid,
                  discretize_kernel)
from mclr import cli
from mclr import fockspace as fs
from mclr import groundstate as gs
from mclr import hamiltonian as ham
from mclr import linres_identical as li
from mclr import oracle as orc
from mclr import spectrum as spm

import loop_oracles as lo
from conftest import oscillator_h


def test_noninteracting_condensate(grid64, h64):
    sp = fs.enumerate_configs("boson", N=2, M=1)
    st = gs.solve_mchx(sp, grid64, h64, TwoBodyKernel("none"))
    assert st.energy == pytest.approx(1.0, abs=1e-8)
    # the orbital is the oscillator gaussian
    phi = st.sets[0].orbitals[0]
    gauss = np.exp(-grid64.points**2 / 2)
    gauss /= grid64.norm(gauss)
    overlap = abs(grid64.inner(gauss, phi))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_noninteracting_fermions_pauli(grid64, h64):
    sp = fs.enumerate_configs("fermion", N=2, M=2)
    st = gs.solve_mchx(sp, grid64, h64, TwoBodyKernel("none"))
    assert st.energy == pytest.approx(2.0, abs=1e-8)


def test_interacting_energy_between_mean_field_and_exact(grid48, h48):
    kern = TwoBodyKernel("contact", strength=0.1)
    e = {}
    for M in (1, 2):
        sp = fs.enumerate_configs("boson", N=2, M=M)
        e[M] = gs.solve_mchx(sp, grid48, h48, kern).energy
    exact = orc.exact_diag_grid(2, "boson", grid48, h48, kern).energies[0]
    assert e[2] < e[1]
    assert exact < e[2] + 1e-10
    assert e[2] - exact < e[1] - exact


def test_energy_history_monotone(bos_m2, bos_m3, dist_44):
    # mixed and plain trials alike are accepted only if the energy descends
    for st in (bos_m2, bos_m3, dist_44):
        hist = np.asarray(st.residuals["energy_history"])
        assert np.all(np.diff(hist) <= 1e-12)


def test_anderson_mixing_iteration_counts(bos_m2, dist_44):
    # unaccelerated, bos_m2 took 14 iterations, dist_44 5 and the N=5, M=4
    # bosons of perfbench/boson_n5m4.cfg 27
    assert bos_m2.residuals["iterations"] <= 7
    assert dist_44.residuals["iterations"] <= 4
    grid = build_grid(32, -6.0, 6.0)
    sp = fs.enumerate_configs("boson", N=5, M=4)
    st = gs.solve_mchx(sp, grid, oscillator_h(grid),
                       TwoBodyKernel("contact", strength=0.1))
    assert st.residuals["iterations"] <= 15


def test_converged_residuals(bos_m2):
    res = bos_m2.residuals
    assert res["orb_residual"] < res["tol_orb"]
    assert res["c_residual"] < res["tol_c"]
    assert res["mu_defect"] < 1e-8


def test_lagrange_multipliers_condensate(grid64, h64):
    # without interactions mu_11 = N <phi|h|phi> and doubling h doubles mu
    sp = fs.enumerate_configs("boson", N=3, M=1)
    st = gs.solve_mchx(sp, grid64, h64, TwoBodyKernel("none"))
    mu = lo.lagrange_multipliers(st)
    assert mu[0, 0].real == pytest.approx(3 * 0.5, abs=1e-7)
    h2 = OneBodyOperator(2.0 * h64.matrix)
    st2 = gs.GroundState(space=st.space, grids=st.grids, h_ops=[h2],
                         sets=st.sets, C=st.C, rho1=st.rho1, mu=None,
                         interaction=st.interaction, rho2=st.rho2,
                         kernel_matrix=st.kernel_matrix, energy=np.nan,
                         residuals=dict(st.residuals))
    mu2 = lo.lagrange_multipliers(st2)
    assert mu2[0, 0].real == pytest.approx(2 * mu[0, 0].real, abs=1e-7)


def test_energy_invariant_under_orbital_rotation(bos_m2):
    # rotating the orbital basis and re-solving the configuration problem
    # leaves the energy unchanged (gauge freedom)
    rng = np.random.default_rng(42)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U, _ = np.linalg.qr(z)
    rot = ham.OrbitalSet(U.conj().T @ bos_m2.sets[0].orbitals,
                         bos_m2.grids[0])
    H = ham.hamiltonian_matrix(bos_m2.space, [rot], bos_m2.h_ops,
                               bos_m2.kernel_matrix)
    e_rot = np.linalg.eigvalsh(0.5 * (H + H.conj().T))[0]
    assert e_rot == pytest.approx(bos_m2.energy, abs=1e-10)


def test_iterative_ci_path_matches_dense(grid48, h48, monkeypatch):
    # forcing the Lanczos branch must not change the solution
    sp = fs.enumerate_configs("boson", N=2, M=2)
    kern = TwoBodyKernel("contact", strength=0.3)
    dense = gs.solve_mchx(sp, grid48, h48, kern)
    monkeypatch.setattr(gs, "CI_DENSE_CUTOFF", 1)
    lanczos = gs.solve_mchx(sp, grid48, h48, kern)
    assert lanczos.energy == pytest.approx(dense.energy, abs=1e-9)
    assert np.abs(np.abs(lanczos.C) - np.abs(dense.C)).max() < 1e-6


def test_lanczos_matches_dense_five_bosons_four_orbitals(monkeypatch):
    # perfbench/boson_n5m4.cfg: 56 configurations, dense by default
    grid = build_grid(32, -6.0, 6.0)
    h = oscillator_h(grid)
    sp = fs.enumerate_configs("boson", N=5, M=4)
    kern = TwoBodyKernel("contact", strength=0.1)
    dense = gs.solve_mchx(sp, grid, h, kern)
    monkeypatch.setattr(gs, "CI_DENSE_CUTOFF", sp.size - 1)
    lanczos = gs.solve_mchx(sp, grid, h, kern)
    assert lanczos.energy == pytest.approx(dense.energy, abs=1e-10)
    assert np.abs(lanczos.C - dense.C).max() < 1e-8
    assert lanczos.residuals["iterations"] == dense.residuals["iterations"]
    # the Lanczos branch keeps a real problem exactly real, so the response
    # takes the half-size solve (a 3e-30 imaginary part in C sent it dense)
    assert not np.any(lanczos.C.imag)
    assert spm.eigensolve(li.assemble_L(lanczos)).eigensolver == "rpa"


def test_lanczos_csr_matrix_matches_table_and_dense(monkeypatch):
    # five bosons on four rotated trap orbitals: 56 configurations, with the
    # dense cutoff just below them the Lanczos branch and its CSR matrix run
    grid = build_grid(32, -6.0, 6.0)
    h_op = oscillator_h(grid)
    rng = np.random.default_rng(3)
    U = np.linalg.qr(rng.standard_normal((4, 4))
                     + 1j * rng.standard_normal((4, 4)))[0]
    modes = np.linalg.eigh(h_op.matrix)[1][:, :4].T
    orbs = ham.OrbitalSet(U @ modes, grid).orthonormalized()
    km = discretize_kernel(grid, TwoBodyKernel("contact", strength=0.1))
    sp = fs.enumerate_configs("boson", N=5, M=4)
    monkeypatch.setattr(gs, "CI_DENSE_CUTOFF", sp.size - 1)
    eps, C, H = gs._lowest_eigenpair(sp, [orbs], [h_op], km)
    assert not isinstance(H, np.ndarray)
    h = ham.one_body_elements(orbs, h_op)
    W = ham.two_body_tensor(orbs, km)
    assert np.abs(H @ C - fs.apply_second_quantized(sp, C, h, W)).max() < 1e-12
    monkeypatch.undo()
    dense = gs._lowest_eigenpair(sp, [orbs], [h_op], km)
    assert isinstance(dense[2], np.ndarray)
    assert eps == pytest.approx(dense[0], abs=1e-10)


@pytest.mark.parametrize("cutoff", [500, 100])
def test_real_problem_has_exactly_real_ci_vector(cutoff, monkeypatch):
    # eight bosons on five trap orbitals mixed by a real rotation: 495
    # configurations, the dense branch at the default cutoff and Lanczos
    # below it.  In complex arithmetic C kept imaginary parts of 4e-17
    # (dense) and 4e-16 (Lanczos), enough to send the response to the
    # dense complex eigensolve
    grid = build_grid(16, -6.0, 6.0)
    h_op = oscillator_h(grid)
    rot = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 5)))[0]
    modes = np.linalg.eigh(h_op.matrix)[1][:, :5].T
    orbs = ham.OrbitalSet(rot @ modes, grid).orthonormalized()
    km = discretize_kernel(grid, TwoBodyKernel("contact", strength=0.1))
    sp = fs.enumerate_configs("boson", N=8, M=5)
    monkeypatch.setattr(gs, "CI_DENSE_CUTOFF", cutoff)
    eps, C, H = gs._lowest_eigenpair(sp, [orbs], [h_op], km)
    assert isinstance(H, np.ndarray) == (sp.size <= cutoff)
    assert not np.any(C.imag)
    assert np.abs(H @ C - eps * C).max() < 1e-10


def test_real_dist_problem_has_exactly_real_ci_vector(dist_grids, dist_h):
    # M = (4, 4) on rotated trap orbitals; the phase exp(-1j angle) of the
    # largest component left 9e-17 in C
    rng = np.random.default_rng(1)
    sets = [ham.OrbitalSet(np.linalg.qr(rng.standard_normal((4, 4)))[0]
                           @ np.linalg.eigh(h.matrix)[1][:, :4].T,
                           g).orthonormalized()
            for g, h in zip(dist_grids, dist_h)]
    space = fs.enumerate_configs("distinguishable", M_list=(4, 4))
    coupling = PairCoupling.bilinear(dist_grids, 0, 1, 0.2)
    eps, C, H = gs._lowest_eigenpair(space, sets, dist_h, coupling)
    assert not np.any(C.imag)
    assert np.abs(H @ C - eps * C).max() < 1e-12


# bos_m2 (N = 2, M = 2, contact 0.1, n = 64) as solved when every iteration
# began with the CI eigenpair of the trial it accepted: one plain block, then
# four Anderson-mixed ones
BOS_M2_HISTORY = [
    1.0396943073853804, 1.0393243130192098, 1.039323976865127,
    1.0393239457207588, 1.0393239457197543, 1.0393239457197454]


def _counted_ci_solve(monkeypatch, solve, *problem):
    """The state of ``solve(*problem)`` and whether it called
    ``_lowest_eigenpair`` once for the initial orbitals, then once per
    trial block, plus once for each mixed trial rejected in favour of the
    plain one."""
    calls = []
    lowest = gs._lowest_eigenpair

    def counted(*args, **kwargs):
        calls.append(1)
        return lowest(*args, **kwargs)

    monkeypatch.setattr(gs, "_lowest_eigenpair", counted)
    st = solve(*problem)
    res = st.residuals
    return st, len(calls) == (res["iterations"] + res["backtracks"]
                              + res["mixing_rejects"])


def test_accepted_trial_eigenpair_is_reused(grid64, h64, monkeypatch):
    sp = fs.enumerate_configs("boson", N=2, M=2)
    st, reused = _counted_ci_solve(monkeypatch, gs.solve_mchx, sp, grid64, h64,
                                   TwoBodyKernel("contact", strength=0.1))
    assert reused
    res = st.residuals
    assert res["iterations"] == len(BOS_M2_HISTORY)
    assert res["energy_history"] == pytest.approx(BOS_M2_HISTORY, rel=1e-13)


def test_accepted_trial_eigenpair_is_reused_distinguishable(
        dist_grids, dist_h, monkeypatch):
    # the solve of the dist_44 fixture shares the loop and the count
    sp = fs.enumerate_configs("distinguishable", M_list=(4, 4))
    coupling = PairCoupling.bilinear(dist_grids, 0, 1, 0.2)
    st, reused = _counted_ci_solve(monkeypatch, gs.solve_mch_dist, sp,
                                   dist_grids, dist_h, coupling)
    assert reused and st.residuals["iterations"] > 1


def test_nonconvergence_reports_residuals(grid48, h48):
    sp = fs.enumerate_configs("boson", N=2, M=2)
    opts = gs.SolverOptions(max_iter=2, tol_orb=1e-15, tol_c=1e-16)
    with pytest.raises(gs.NonConvergenceError) as err:
        gs.solve_mchx(sp, grid48, h48,
                      TwoBodyKernel("contact", strength=0.5), opts)
    for key in ("orb_residual", "scaled_orb_residual", "c_residual",
                "backtracks", "forced_accepts", "mixing_rejects"):
        assert key in err.value.residuals


def test_backtracks_are_counted(grid48, h48):
    # tau = 1e3 overshoots along the lowest eigenvector of h, where K_tau
    # does not damp: the first blocks raise the energy, tau is halved until
    # a block descends, and one block is accepted after three halvings
    sp = fs.enumerate_configs("boson", N=2, M=2)
    st = gs.solve_mchx(sp, grid48, h48, TwoBodyKernel("contact", strength=2.0),
                       gs.SolverOptions(tau=1e3))
    res = st.residuals
    assert res["backtracks"] >= 3
    assert res["forced_accepts"] >= 1
    assert max(res["orb_residual"], res["scaled_orb_residual"]) < res["tol_orb"]
    default = gs.solve_mchx(sp, grid48, h48, TwoBodyKernel("contact", strength=2.0))
    assert default.residuals["backtracks"] == 0
    assert st.energy == pytest.approx(default.energy, abs=1e-10)


def test_descend_matches_qr_gauge(grid48, monkeypatch):
    # the Cholesky factor of the step's overlap gives the rows of the QR
    # gauge with positive real diagonal, on real and complex orbitals and
    # projected steps from 1e-10 to 1 in quadrature norm, orthonormal to
    # the rounding of the QR itself, and without calling the QR; for a
    # stack of 1 to 3 DOFs with different weights, as the solver steps a
    # group of equal-shape DOFs, and for the (M, n) rows of a group of one
    rng = np.random.default_rng(11)
    cases = []
    for kind in ("real", "complex"):
        for M in (2, 4, 6):
            def draw():
                x = rng.standard_normal((M, grid48.n_points))
                return x + 1j * rng.standard_normal(x.shape) if kind == "complex" else x
            for norm in (1e-10, 1e-6, 1e-3, 1e-1, 1.0):
                for G in (1, 2, 3):
                    ws = grid48.weight * (1.0 + 0.5 * np.arange(G))
                    stack = []
                    for w in ws:
                        phi = ham.orthonormal_rows(draw(), w)
                        s = draw()
                        s = s - (w * (s @ phi.conj().T)) @ phi
                        s *= norm / np.sqrt(w * np.sum(np.abs(s) ** 2))
                        # _descend removes the part along the orbitals itself
                        step = s + rng.standard_normal((M, M)) @ phi
                        stack.append((phi, step,
                                      ham.orthonormal_rows(phi - s, w)))
                    phi, step, ref = map(np.stack, zip(*stack))
                    cases.append((phi, ws[:, None, None], step, ref))
                    if G == 1:
                        cases.append((phi[0], ws[0], step[0], ref[0]))

    def no_qr(*args, **kwargs):
        raise AssertionError("the orbital step called the QR")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    for phi, w, step, ref in cases:
        got = gs._descend(phi, w, step)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.abs(got - ref).max() < 1e-13
        gram = w * (got @ np.swapaxes(got.conj(), -1, -2))
        defect = np.abs(gram - np.eye(got.shape[-2])).max()
        assert defect <= 2e-15


def test_scaled_residual_sees_weak_natural_orbital(bos_m2):
    # ||B_k|| scales with n_k: a 1e-6 error in the natural orbital with
    # n = 2.3e-4 stays below tol_orb in max ||B_k|| but not once scaled
    st, (g,) = bos_m2, bos_m2.grids
    occ, U = np.linalg.eigh(st.rho1[0])
    assert occ[0] < 1e-3
    bump = np.exp(-g.points**2) * g.points**3
    bump /= g.norm(bump)
    orbs = ham.OrbitalSet(st.sets[0].orbitals + 1e-6 * np.outer(U[:, 0], bump),
                          g).orthonormalized()
    B = lo.orbital_eom_rhs_plan(g, orbs, st.h_ops[0], st.kernel_matrix,
                                fs.ReducedDensities(st.rho1[0], st.rho2))
    orb_res = max(g.norm(b) for b in B)
    natural = [gs._hermitian_eigh(st.rho1[0][None])]
    _, scaled = gs._orbital_residuals([np.full((1, 1, 1), g.weight)],
                                      [B[None]], natural, 1e-10 * 2)
    assert orb_res < st.residuals["tol_orb"] < 1e-2 * scaled
    assert st.residuals["scaled_orb_residual"] < st.residuals["tol_orb"]


def test_empty_orbital_converges_and_reports_scaled_residual(grid64, h64):
    # a free M=2 pair leaves the second natural orbital exactly empty; it is
    # below the density floor, so only the occupied one enters the scaled
    # residual and the solve still converges
    sp = fs.enumerate_configs("boson", N=2, M=2)
    st = gs.solve_mchx(sp, grid64, h64, TwoBodyKernel("none"))
    res = st.residuals
    assert np.sort(st.natural_occupations()[0].real)[0] < 1e-10 * 2
    assert 0.0 <= res["scaled_orb_residual"] < res["tol_orb"]
    assert res["orb_residual"] < res["tol_orb"]
    assert st.energy == pytest.approx(1.0, abs=1e-8)


def test_propagate_ground_state_is_stationary(bos_m2_48):
    diag = gs.propagate_check(bos_m2_48, 1e-3, 20)
    for key in ("orb_diff_cond", "coeff_diff_cond", "full_diff_cond"):
        assert diag[key] < 1e-8


def test_propagate_perturbed_projected(bos_m2_48):
    pert = gs.perturbed_state(bos_m2_48, 0.02, seed=1)
    diag = gs.propagate_check(pert, 2e-4, 50)
    assert diag["orb_diff_cond"] < 1e-8
    assert diag["coeff_diff_cond"] < 1e-8
    assert diag["full_diff_cond"] < 1e-8


@pytest.fixture(scope="module")
def dist_33_mixed():
    """Two coupled DOFs of M = 3 on 40 and 48 points: two groups of one in
    the orbital step."""
    grids = [build_grid(40, -8.0, 8.0), build_grid(48, -8.0, 8.0)]
    return gs.solve_mch_dist(
        fs.enumerate_configs("distinguishable", M_list=(3, 3)), grids,
        [oscillator_h(g) for g in grids],
        PairCoupling.bilinear(grids, 0, 1, 0.2))


@pytest.mark.parametrize("fixture", ["dist_44", "dist_333", "dist_33_mixed"])
def test_propagate_perturbed_distinguishable(fixture, request):
    # every DOF's orbitals are perturbed and move, stacked per shape group;
    # the projected equations keep the differential conditions at rounding
    st = request.getfixturevalue(fixture)
    pert = gs.perturbed_state(st, 0.02, seed=1)
    for s, s0 in zip(pert.sets, st.sets):
        assert s.orthonormality_defect() < 1e-13
        assert 1e-3 < np.abs(s.orbitals - s0.orbitals).max() < 0.5
    assert abs(np.linalg.norm(pert.C) - 1.0) < 1e-14
    diag = gs.propagate_check(pert, 2e-4, 20)
    for key in ("orb_diff_cond", "coeff_diff_cond", "full_diff_cond"):
        assert diag[key] < 1e-8
    assert diag["orthonormality_drift"] < 1e-10 and diag["norm_drift"] < 1e-12


def test_propagate_without_projector_shows_phase_rate(bos_m2_48):
    pert = gs.perturbed_state(bos_m2_48, 0.02, seed=1)
    diag = gs.propagate_check(pert, 2e-4, 5, use_coeff_projector=False)
    h = ham.one_body_elements(pert.sets[0], pert.h_ops[0])
    W = ham.two_body_tensor(pert.sets[0], pert.kernel_matrix)
    rate = abs(np.vdot(pert.C, fs.apply_second_quantized(
        pert.space, pert.C, h, W)))
    assert diag["coeff_diff_cond"] == pytest.approx(rate, rel=1e-3)


# --- distinguishable degrees of freedom


def test_uncoupled_oscillators(dist_grids, dist_h):
    sp = fs.enumerate_configs("distinguishable", M_list=(1, 1))
    st = gs.solve_mch_dist(sp, dist_grids, dist_h, None)
    assert st.energy == pytest.approx(1.0, abs=1e-8)


def test_uncoupled_natural_populations(dist_22_uncoupled):
    for occ in dist_22_uncoupled.natural_occupations():
        assert occ[0].real == pytest.approx(1.0, abs=1e-10)
        assert abs(occ[1]) < 1e-10


def test_bilinear_coupling_energy(dist_44):
    lam = 0.2
    exact = 0.5 * (np.sqrt(1 + lam) + np.sqrt(1 - lam))
    assert dist_44.energy == pytest.approx(exact, abs=1e-4)


def test_dist_residuals_report_counters(dist_44):
    res = dist_44.residuals
    assert res["backtracks"] == 0 and res["forced_accepts"] == 0
    assert res["mixing_rejects"] == 0
    assert max(res["orb_residual"], res["scaled_orb_residual"]) < res["tol_orb"]


def test_dist_mu_hermitian(dist_44):
    for mu in dist_44.mu:
        assert np.abs(mu - mu.conj().T).max() < 1e-8


def test_dist_large_tau_converges(dist_grids, dist_h):
    # tau = 1e3 forces two energy-raising blocks; without the mixing the
    # solve then crawled at tau ~ 2 and stopped at an orbital residual of
    # 3.6e-4 after 200 iterations
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 2))
    coupling = PairCoupling.bilinear(dist_grids, 0, 1, 0.8)
    st = gs.solve_mch_dist(sp, dist_grids, dist_h, coupling,
                           gs.SolverOptions(tau=1e3, max_iter=200))
    res = st.residuals
    assert res["forced_accepts"] >= 1
    assert max(res["orb_residual"], res["scaled_orb_residual"]) < res["tol_orb"]
    default = gs.solve_mch_dist(sp, dist_grids, dist_h, coupling)
    assert st.energy == pytest.approx(default.energy, abs=1e-10)


def test_converged_orbitals_are_c_ordered():
    # harmonic_n2_m2 converges on an Anderson-mixed trial, whose rows
    # ``ham.orthonormal_rows`` returns F-ordered; the state stores them
    # C-ordered, as ``OrbitalSet`` stores any rows
    path = Path(__file__).resolve().parent.parent / "configs"
    st = cli._solve_from_config(
        cli._load_config(path / "harmonic_n2_m2.cfg")[0])
    (s,) = st.sets
    mixed = ham.orthonormal_rows(s.orbitals, s.grid.weight)
    assert not mixed.flags.c_contiguous
    assert s.orbitals.flags.c_contiguous
