"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Tolerances are pinned here and nowhere else.  Shared converged states come
from session fixtures; each criterion times its own analysis work against
its stated budget.
"""

import time
from math import comb

import numpy as np
import pytest

from mclr import TwoBodyKernel, build_grid, position_operator
from mclr import fockspace as fs
from mclr import groundstate as gs
from mclr import hamiltonian as ham
from mclr import linres_identical as li
from mclr import oracle as orc
from mclr import spectrum as spm

import loop_oracles as lo
from conftest import oscillator_h


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ferm_m1(grid64, h64):
    space = fs.enumerate_configs("fermion", N=1, M=1)
    return gs.solve_mchx(space, grid64, h64,
                         TwoBodyKernel("gaussian", strength=0.3, width=0.5))


@pytest.fixture(scope="module")
def sweep48(grid48, h48):
    """lam = 0.5 states for M = 1..4 on the 48-point grid."""
    kern = TwoBodyKernel("contact", strength=0.5)
    out = {}
    for M in (1, 2, 3, 4):
        space = fs.enumerate_configs("boson", N=2, M=M)
        out[M] = gs.solve_mchx(space, grid48, h48, kern)
    return out


def test_criterion_01_bare_equation_response_exactness():
    t0 = time.monotonic()
    grid = build_grid(24, -6.0, 6.0)
    h = oscillator_h(grid)
    eig = orc.exact_diag_grid(2, "boson", grid, h,
                              TwoBodyKernel("contact", strength=0.5))
    res = orc.se_linear_response(eig, position_operator(grid), omega=0.37)
    gaps = res["gaps"]
    branch = max(np.abs(res["omega_plus"] - gaps).max(),
                 np.abs(res["omega_minus"] + gaps).max()) / gaps.max()
    elapsed = time.monotonic() - t0
    ok = (branch < 1e-12 and res["identity_defect"] < 1e-10
          and res["spectral_defect"] < 1e-10 and elapsed < 5.0)
    _report(1, ok, f"branch defect {branch:.2e}, resolutions "
            f"{res['identity_defect']:.2e}/{res['spectral_defect']:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_02_zero_mode_counting(bos_m1, bos_m2, bos_m3, ferm_m1,
                                         ferm_m2, ferm_m3):
    t0 = time.monotonic()
    fixtures = {"boson M=1": (bos_m1, 1), "boson M=2": (bos_m2, 2),
                "boson M=3": (bos_m3, 3), "fermion M=1": (ferm_m1, 1),
                "fermion M=2": (ferm_m2, 2), "fermion M=3": (ferm_m3, 3)}
    ok = True
    details = []
    for name, (st, M) in fixtures.items():
        rm = li.assemble_L(st)
        spec = spm.eigensolve(rm)
        rep = spm.classify_zero_modes(
            spec, expected_count=spm.expected_zero_modes((M,)),
            annihilation_tol=1e-8)
        good = rep["count"] == 2 * (M * M + 1) and rep["constructed_ok"]
        ok = ok and good
        details.append(f"{name}:{rep['count']}/{2 * (M * M + 1)}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(2, ok, ", ".join(details) + f", {elapsed:.1f}s")


def test_criterion_03_pairing_symmetries(bos_m1, bos_m2, bos_m3, ferm_m2,
                                         ferm_m3, bos_m2_48, dist_11, dist_44):
    worst = 0.0
    for st in (bos_m1, bos_m2, bos_m3, ferm_m2, ferm_m3, bos_m2_48):
        rm = li.assemble_L(st)
        S1 = np.eye(rm.D)[li.sigma1(rm.layout)]
        S3 = np.diag(li.sigma3(rm.layout))
        worst = max(worst,
                    np.abs(S1 @ rm.L @ S1 + rm.L.conj()).max(),
                    np.abs(S3 @ rm.L @ S3 - rm.L.conj().T).max())
    for st in (dist_11, dist_44):
        rm = li.assemble_L(st)
        S1 = np.eye(rm.D)[li.sigma1(rm.layout)]
        S3 = np.diag(li.sigma3(rm.layout))
        worst = max(worst,
                    np.abs(S1 @ rm.L @ S1 + rm.L.conj()).max(),
                    np.abs(S3 @ rm.L @ S3 - rm.L.conj().T).max())
    _report(3, worst < 1e-9, f"max symmetry defect {worst:.2e} over 8 fixtures")


def test_criterion_04_bdg_reduction(bos_m1):
    t0 = time.monotonic()
    rm = li.assemble_L(bos_m1)
    spec = spm.eigensolve(rm)
    bdg = orc.bdg_reference(bos_m1.grids[0], bos_m1.h_ops[0], 0.1, 2,
                            condensate=bos_m1.sets[0].orbitals[0])
    diff = np.abs(np.sort(spec.omega)[:5] - bdg["frequencies"][:5]).max()
    elapsed = time.monotonic() - t0
    ok = diff < 1e-7 and elapsed < 120.0
    _report(4, ok, f"max |LR - BdG| = {diff:.2e} on 5 modes, {elapsed:.1f}s")


def test_criterion_05_noninteracting_ladder(grid64, h64):
    sp = fs.enumerate_configs("boson", N=2, M=2)
    st = gs.solve_mchx(sp, grid64, h64, TwoBodyKernel("none"))
    spec = spm.eigensolve(li.assemble_L(st))
    low = np.sort(spec.omega)[:2]
    ok = abs(low[0] - 1.0) < 1e-4 and abs(low[1] - 2.0) < 1e-4
    _report(5, ok, f"lowest excitations {low[0]:.6f}, {low[1]:.6f}")


def test_criterion_06_convergence_toward_exact(grid48, h48, sweep48):
    t0 = time.monotonic()
    kern = TwoBodyKernel("contact", strength=0.5)
    exact = orc.exact_diag_grid(2, "boson", grid48, h48, kern)
    gap = exact.excitations(1)[0]
    errs = []
    for M in (1, 2, 3, 4):
        spec = spm.eigensolve(li.assemble_L(sweep48[M]))
        errs.append(abs(np.sort(spec.omega)[0] - gap))
    # errors at or below the eigensolver/metric noise floor (a tenth of the
    # final tolerance) count as ties
    noise = 5e-4
    non_increasing = all(errs[i + 1] <= max(errs[i], noise) for i in range(3))
    elapsed = time.monotonic() - t0
    ok = non_increasing and errs[-1] < 5e-3 and elapsed < 600.0
    _report(6, ok, "errors " + " ".join(f"{e:.2e}" for e in errs)
            + f", final {errs[-1]:.2e}, {elapsed:.1f}s")


def test_criterion_07_coupled_mode_frequencies(dist_44):
    rm = li.assemble_L(dist_44)
    spec = spm.eigensolve(rm)
    ref = orc.coupled_oscillators_reference(0.2)
    low = np.sort(spec.omega)[:2]
    diff = np.abs(low - ref).max()
    _report(7, diff < 1e-3,
            f"modes {low[0]:.6f}/{low[1]:.6f} vs {ref[0]:.6f}/{ref[1]:.6f}, "
            f"max diff {diff:.2e}")


def test_criterion_08_differential_conditions(bos_m2_48):
    pert = gs.perturbed_state(bos_m2_48, 0.02, seed=1)
    diag = gs.propagate_check(pert, 2e-4, 100, use_coeff_projector=True)
    worst = max(diag["orb_diff_cond"], diag["coeff_diff_cond"],
                diag["full_diff_cond"])
    _report(8, worst < 1e-8, f"max differential-condition defect {worst:.2e} "
            f"over 100 steps")


def test_criterion_09_biorthogonality_and_pairing(bos_m1, bos_m2, bos_m3,
                                                  ferm_m2, ferm_m3, bos_m2_48,
                                                  dist_11, dist_44):
    worst_bi = 0.0
    worst_pair = 0.0
    rosters = [(li.assemble_L(st), st) for st in
               (bos_m1, bos_m2, bos_m3, ferm_m2, ferm_m3, bos_m2_48)]
    rosters += [(li.assemble_L(st), st) for st in (dist_11, dist_44)]
    for rm, _ in rosters:
        spec = spm.eigensolve(rm)
        n = len(spec.retained)
        b1 = lo.left(spec).conj().T @ spec.right - np.eye(n)
        b2 = lo.left(spec).conj().T @ lo.right_neg(spec)
        worst_bi = max(worst_bi, np.abs(b1).max(), np.abs(b2).max())
        worst_pair = max(worst_pair, spec.pairing_residual)
    ok = worst_bi < 1e-8 and worst_pair < 1e-8
    _report(9, ok, f"biorthogonality {worst_bi:.2e}, pairing {worst_pair:.2e} "
            f"over 8 fixtures")


def test_criterion_10_linearization_derivative(bos_m2_48):
    st = bos_m2_48
    g, sp = st.grids[0], st.space
    A, B = li.build_oo_block(st)
    Loc_u, Loc_v, Lco_u, Lco_v = li.build_oc_co_blocks(st)
    cc_u = li.build_cc_block(st)

    rng = np.random.default_rng(7)
    phi = st.sets[0].orbitals
    n, M = g.n_points, sp.M
    du = rng.standard_normal((M, n)) + 1j * rng.standard_normal((M, n))
    du -= (g.weight * (phi.conj() @ du.T)).T @ phi
    dC = rng.standard_normal(sp.size) + 1j * rng.standard_normal(sp.size)
    dC -= st.C * np.vdot(st.C, dC)

    du_t = np.sqrt(g.weight) * du
    pred_u = (A @ du_t.reshape(-1) + B @ du_t.conj().reshape(-1)
              + Loc_u @ dC + Loc_v @ dC.conj()).reshape(M, n)
    pred_c = cc_u @ dC + Lco_u @ du_t.reshape(-1) + Lco_v @ du_t.conj().reshape(-1)
    ph_t = st.sets[0].scaled
    pred_u = pred_u - (ph_t.conj() @ pred_u.T).T @ ph_t
    pred_c = pred_c - st.C * np.vdot(st.C, pred_c)

    def rhs(phi_mat, C):
        orbs = ham.OrbitalSet(phi_mat, g)
        rho = fs.reduced_densities(sp, C)
        Bv = lo.orbital_eom_rhs_plan(g, orbs, st.h_ops[0],
                                     st.kernel_matrix, rho)
        hmat = ham.one_body_elements(orbs, st.h_ops[0])
        W = ham.two_body_tensor(orbs, st.kernel_matrix)
        hc = fs.apply_second_quantized(sp, C, hmat, W)
        return np.sqrt(g.weight) * Bv, hc - C * np.vdot(C, hc)

    B0, c0 = rhs(phi, st.C)
    etas = np.array([1e-3, 3e-4, 1e-4, 3e-5, 1e-5])
    errs = []
    scale = max(np.abs(pred_u).max(), np.abs(pred_c).max())
    for eta in etas:
        B1, c1 = rhs(phi + eta * du, st.C + eta * dC)
        errs.append(max(np.abs((B1 - B0) / eta - pred_u).max(),
                        np.abs((c1 - c0) / eta - pred_c).max()) / scale)
    slope = np.polyfit(np.log(etas), np.log(errs), 1)[0]
    _report(10, abs(slope - 1.0) < 0.1,
            f"log-log error slope {slope:.4f} over eta 1e-3..1e-5")


def test_criterion_11_fockspace_brute_force():
    """Scatter operators vs dense first-quantized matrices.

    Roster: every (statistics, N, M) with N_conf <= 20 inside the desk-scale
    window N, M <= 6 and product dimension M^N <= 5000.  One-body operators
    always checked exhaustively; the M^4 two-body sweep is sampled (32 random
    index quadruples) once the product space exceeds 1500 states.  Deviations
    are measured relative to the largest matrix entry of each case: the
    integer/sqrt factors grow to n(n-1) = 30, where double-precision
    arithmetic alone spreads the two computation routes by several 1e-13.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    cases = 0
    for stats in ("boson", "fermion"):
        for N in range(1, 7):
            for M in range(1, 7):
                if stats == "boson":
                    n_conf = comb(N + M - 1, N)
                else:
                    if N > M:
                        continue
                    n_conf = comb(M, N)
                if n_conf > 20 or M**N > 5000:
                    continue
                cases += 1
                sp = fs.enumerate_configs(stats, N=N, M=M)
                basis = orc.symmetrized_basis(M, N, stats)
                labels, _ = basis
                perm = np.zeros((sp.size, sp.size))
                for col, lab in enumerate(labels):
                    occ = [0] * M
                    for p in lab:
                        occ[p] += 1
                    perm[sp.configs.index(tuple(occ)), col] = 1.0

                def dense_of(apply_fn):
                    out = np.zeros((sp.size, sp.size), complex)
                    for col in range(sp.size):
                        e = np.zeros(sp.size, complex)
                        e[col] = 1.0
                        out[:, col] = apply_fn(e)
                    return out

                for k in range(M):
                    for q in range(M):
                        ref = perm @ lo.first_quantized_one_body(
                            M, N, stats, k, q, basis=basis) @ perm.T
                        mine = dense_of(lambda e, k=k, q=q:
                                        lo.apply_rho_kq(sp, e, k, q))
                        scale = max(1.0, np.abs(ref).max())
                        worst = max(worst, np.abs(mine - ref).max() / scale)

                quads = [(k, s, l, q) for k in range(M) for s in range(M)
                         for l in range(M) for q in range(M)]
                if M**N > 1500 and len(quads) > 32:
                    idx = rng.choice(len(quads), size=32, replace=False)
                    quads = [quads[i] for i in idx]
                for k, s, l, q in quads:
                    ref = perm @ lo.first_quantized_two_body(
                        M, N, stats, k, s, l, q, basis=basis) @ perm.T
                    mine = dense_of(lambda e, a=(k, s, l, q):
                                    lo.apply_rho_kslq(sp, e, *a))
                    scale = max(1.0, np.abs(ref).max())
                    worst = max(worst, np.abs(mine - ref).max() / scale)
    elapsed = time.monotonic() - t0
    _report(11, worst < 1e-13,
            f"max relative deviation {worst:.2e} over {cases} (N, M) cases, "
            f"{elapsed:.1f}s")
