"""Response matrix for coupled distinguishable degrees of freedom."""

from types import SimpleNamespace

import numpy as np
import pytest

from mclr import (AllBodyTable, PairCoupling, build_grid, position_operator)
from mclr import fockspace as fs
from mclr import groundstate as gs
from mclr import hamiltonian as ham
from mclr import linres_distinguishable as ld
from mclr import linres_identical as li
from mclr import oracle as orc
from mclr import spectrum as spm

import loop_oracles as lo
from conftest import oscillator_h


def test_layout_partition(dist_44):
    lay = li.ResponseLayout((4, 4), (48, 48), 16)
    assert lay.D == 2 * (4 * 48 + 4 * 48 + 16)
    covered = np.zeros(lay.D, dtype=int)
    for j in range(2):
        for a in range(4):
            covered[lay.u_slice(j, a)] += 1
            covered[lo.v_slice(lay, j, a)] += 1
    covered[lay.cu_slice] += 1
    covered[lay.cv_slice] += 1
    assert np.all(covered == 1)


def test_uncoupled_blocks_are_dof_diagonal(dist_22_uncoupled):
    A, B = li.build_oo_block(dist_22_uncoupled)
    lay = li.ResponseLayout((2, 2), (48, 48), 4)
    assert np.abs(B).max() == 0.0
    cross = A[lay.u_block(0), lay.u_block(1)]
    assert np.abs(cross).max() == 0.0


def test_diagonal_v_blocks_vanish(dist_44):
    _, B = li.build_oo_block(dist_44)
    lay = li.ResponseLayout((4, 4), (48, 48), 16)
    for j in range(2):
        assert np.abs(B[lay.u_block(j), lay.u_block(j)]).max() == 0.0


@pytest.mark.parametrize("fixture", ["dist_44", "dist_22_uncoupled"])
def test_diagonal_blocks_match_slot_loop(fixture, request):
    # rho h - mu + Omega and no same-DOF exchange: the oracle fills the
    # blocks slot pair by slot pair from mean fields summed over
    # configuration pairs, so the two agree to rounding
    st = request.getfixturevalue(fixture)
    A, _ = li.build_oo_block(st)
    lay = li.ResponseLayout.of(st)
    for j in range(lay.Q):
        blk = lay.u_block(j)
        ref = lo.oo_dist_diagonal(st, j)
        assert np.abs(A[blk, blk] - ref).max() < 1e-13 * np.abs(ref).max()


def test_pairing_symmetries_dist(dist_44):
    rm = li.assemble_L(dist_44)
    S1 = np.eye(rm.D)[li.sigma1(rm.layout)]
    S3 = np.diag(li.sigma3(rm.layout))
    assert np.abs(S1 @ rm.L @ S1 + rm.L.conj()).max() < 1e-9
    assert np.abs(S3 @ rm.L @ S3 - rm.L.conj().T).max() < 1e-9


def test_single_product_limit(dist_11):
    # M_list = (1, 1): one configuration, coefficient sector fully projected
    rm = li.assemble_L(dist_11)
    lay = rm.layout
    assert lay.n_conf == 1
    assert np.abs(rm.L[lay.cu_slice, :]).max() < 1e-12
    cc_u = li.build_cc_block(dist_11)
    assert np.abs(cc_u @ dist_11.C).max() < 1e-9


def test_normal_modes_coupled_oscillators(dist_44):
    rm = li.assemble_L(dist_44)
    spec = spm.eigensolve(rm)
    ref = orc.coupled_oscillators_reference(0.2)
    low = np.sort(spec.omega)[:2]
    assert np.abs(low - ref).max() < 1e-3


def test_uncoupled_spectrum_is_union_of_ladders(dist_22_uncoupled):
    rm = li.assemble_L(dist_22_uncoupled)
    spec = spm.eigensolve(rm)
    low = np.sort(spec.omega)[:5]
    # independent oscillators: gaps 1, 1, 2, 2, 2 (j=1 and j=2 ladders plus
    # the combined two-quantum excitation)
    assert np.allclose(low, [1.0, 1.0, 2.0, 2.0, 2.0], atol=1e-6)


def test_zero_mode_count_dist(dist_44):
    rm = li.assemble_L(dist_44)
    spec = spm.eigensolve(rm)
    rep = spm.classify_zero_modes(spec)
    assert rep["expected"] == 2 * (16 + 16 + 1)
    assert rep["count"] == rep["expected"]
    assert rep["constructed_residual"] < 1e-8


def test_biorthogonality_dist(dist_44):
    rm = li.assemble_L(dist_44)
    spec = spm.eigensolve(rm)
    n_ret = len(spec.retained)
    b1 = lo.left(spec).conj().T @ spec.right - np.eye(n_ret)
    b2 = lo.left(spec).conj().T @ lo.right_neg(spec)
    assert np.abs(b1).max() < 1e-8
    assert np.abs(b2).max() < 1e-8


def test_lr_tdh_reduction(dist_11):
    """The (1,1) path must agree with an independently built mean-field
    response matrix (orbital sector only)."""
    st = dist_11
    g1, g2 = st.grids
    p1 = st.sets[0].scaled[0]
    p2 = st.sets[1].scaled[0]
    table = st.interaction.terms[0][2]
    n1, n2 = g1.n_points, g2.n_points

    # mean fields, multipliers, projectors straight from their definitions
    om1 = np.diag(table @ (np.abs(p2) ** 2))
    om2 = np.diag(table.T @ (np.abs(p1) ** 2))
    h1 = st.h_ops[0].matrix + om1
    h2 = st.h_ops[1].matrix + om2
    mu1 = np.real(p1.conj() @ h1 @ p1)
    mu2 = np.real(p2.conj() @ h2 @ p2)
    Q1 = np.eye(n1) - np.outer(p1, p1.conj())
    Q2 = np.eye(n2) - np.outer(p2, p2.conj())

    K12_u = (p1[:, None] * table) * p2.conj()[None, :]
    K12_v = (p1[:, None] * table) * p2[None, :]
    K21_u = (p2[:, None] * table.T) * p1.conj()[None, :]
    K21_v = (p2[:, None] * table.T) * p1[None, :]

    A = np.block([[Q1 @ (h1 - mu1 * np.eye(n1)) @ Q1, Q1 @ K12_u @ Q2],
                  [Q2 @ K21_u @ Q1, Q2 @ (h2 - mu2 * np.eye(n2)) @ Q2]])
    B = np.block([[np.zeros((n1, n1)), Q1 @ K12_v @ Q2.conj()],
                  [Q2 @ K21_v @ Q1.conj(), np.zeros((n2, n2))]])
    L_tdh = np.block([[A, B], [-B.conj(), -A.conj()]])

    rm = li.assemble_L(st)
    lay = rm.layout
    orb = lay.orb
    sel = np.r_[0:2 * orb]
    L_orb = rm.L[np.ix_(sel, sel)]
    assert np.abs(L_orb - L_tdh).max() < 1e-9

    # and the eigenfrequencies approach the exact normal modes
    spec = spm.eigensolve(rm)
    ref = orc.coupled_oscillators_reference(0.2)
    assert np.abs(np.sort(spec.omega)[:2] - ref).max() < 1e-6


def test_driving_single_dof_probe(dist_44):
    # probing one DOF leaves the other's orbital entries empty, yet the
    # coefficient entries still couple the whole system
    st = dist_44
    rm = li.assemble_L(st)
    pert = li.PerturbationSpec(
        f_dags=(position_operator(st.grids[0]), None), omega=0.57)
    R = li.build_R(st, pert, rm)
    lay = rm.layout
    assert np.abs(R[lay.u_block(1)]).max() < 1e-14
    # the probed DOF's orbital entries are small (x maps low oscillator
    # orbitals almost inside the spanned set) but nonzero
    assert np.abs(R[lay.u_block(0)]).max() > 1e-7
    assert np.abs(R[lay.cu_slice]).max() > 1e-2
    assert np.abs(rm.projector() @ R - R).max() < 1e-12


def test_driving_refuses_probe_count_mismatch(dist_44):
    # one probe for two DOFs would silently drive only the first
    pert = li.PerturbationSpec(
        f_dags=(position_operator(dist_44.grids[0]),), omega=0.57)
    with pytest.raises(ValueError, match="1 one-body probes for 2 DOFs"):
        li.build_R(dist_44, pert)


def test_driving_all_fields_zero(dist_44):
    rm = li.assemble_L(dist_44)
    R = li.build_R(dist_44, li.PerturbationSpec(omega=0.5), rm)
    assert np.abs(R).max() == 0.0


def test_allbody_probe_mean_field_pattern(dist_22_uncoupled):
    # g = lam x1 x2 on the uncoupled ground state: the mean field seen by
    # DOF j is lam <x_other> x_j
    st = dist_22_uncoupled
    lam = 0.3
    probe = PairCoupling.bilinear(st.grids, 0, 1, lam)
    plans = ham.mean_field_plans(st.space, st.C, None, probe,
                                 [g.weight for g in st.grids])
    om = ham.mean_fields(plans, [s.orbitals for s in st.sets])[0]
    p2 = st.sets[1].scaled
    # ground state occupies orbital 0 of DOF 2; <x>_00 = 0 by parity
    x2_00 = np.real(p2[0].conj() @ (st.grids[1].points * p2[0]))
    assert np.abs(om[0, 0] - lam * x2_00 * st.grids[0].points).max() < 1e-10
    assert abs(x2_00) < 1e-12


def test_mixed_grids_per_dof():
    # each DOF may live on its own grid; physics must not care
    grids = [build_grid(40, -7, 7), build_grid(48, -8, 8)]
    h_ops = [oscillator_h(g) for g in grids]
    coup = PairCoupling.bilinear(grids, 0, 1, 0.2)
    sp = fs.enumerate_configs("distinguishable", M_list=(3, 4))
    st = gs.solve_mch_dist(sp, grids, h_ops, coup)
    spec = spm.eigensolve(li.assemble_L(st))
    ref = orc.coupled_oscillators_reference(0.2)
    assert np.abs(np.sort(spec.omega)[:2] - ref).max() < 1e-6


def test_allbody_table_equals_pair_coupling():
    grids = [build_grid(32, -6, 6)] * 2
    h_ops = [oscillator_h(g) for g in grids]
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 2))
    pair = PairCoupling.bilinear(grids, 0, 1, 0.25)
    table = AllBodyTable(0.25 * np.outer(grids[0].points, grids[1].points))
    st_p = gs.solve_mch_dist(sp, grids, h_ops, pair)
    st_t = gs.solve_mch_dist(sp, grids, h_ops, table)
    assert st_p.energy == pytest.approx(st_t.energy, abs=1e-12)
    L_p = li.assemble_L(st_p).L
    L_t = li.assemble_L(st_t).L
    assert np.abs(L_p - L_t).max() < 1e-12


def test_three_dof_chain_normal_modes():
    # chain of three oscillators with nearest-neighbour bilinear couplings:
    # excitations are the square roots of the coupling-matrix eigenvalues
    grids = [build_grid(32, -7, 7)] * 3
    h_ops = [oscillator_h(g) for g in grids]
    K = np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.15], [0.0, 0.15, 1.0]])
    ref = np.sort(np.sqrt(np.linalg.eigvalsh(K)))
    coup = PairCoupling([
        (0, 1, 0.2 * np.outer(grids[0].points, grids[1].points)),
        (1, 2, 0.15 * np.outer(grids[1].points, grids[2].points))])
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 2, 2))
    st = gs.solve_mch_dist(sp, grids, h_ops, coup)
    spec = spm.eigensolve(li.assemble_L(st))
    assert np.abs(np.sort(spec.omega)[:3] - ref).max() < 1e-6
    rep = spm.classify_zero_modes(spec)
    assert rep["count"] == rep["expected"] == 2 * (4 + 4 + 4 + 1)


def test_linearization_derivative_dist(dist_grids, dist_h):
    """Finite differences of the coupled mean-field flow match the raw blocks."""
    space = fs.enumerate_configs("distinguishable", M_list=(2, 2))
    coupling = PairCoupling.bilinear(dist_grids, 0, 1, 0.2)
    st = gs.solve_mch_dist(space, dist_grids, dist_h, coupling)

    A, B = li.build_oo_block(st)
    Loc_u, Loc_v, Lco_u, Lco_v = ld.build_oc_co_dist(st)
    cc_u = li.build_cc_block(st)
    lay = li.ResponseLayout((2, 2), (48, 48), 4)

    rng = np.random.default_rng(11)
    Q = 2
    dus, dus_t = [], []
    for j in range(Q):
        phi = st.sets[j].orbitals
        d = rng.standard_normal(phi.shape) + 1j * rng.standard_normal(phi.shape)
        d -= (st.grids[j].weight * (phi.conj() @ d.T)).T @ phi
        dus.append(d)
        dus_t.append(np.sqrt(st.grids[j].weight) * d)
    dC = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
    dC -= st.C * np.vdot(st.C, dC)

    xu = np.concatenate([d.reshape(-1) for d in dus_t])
    xv = xu.conj()
    pred_orb = A @ xu + B @ xv + Loc_u @ dC + Loc_v @ dC.conj()
    pred_c = cc_u @ dC + Lco_u @ xu + Lco_v @ xv
    # project
    pred_u = []
    for j in range(Q):
        blk = pred_orb[lay.u_block(j)].reshape(2, 48)
        ph = st.sets[j].scaled
        pred_u.append(blk - (ph.conj() @ blk.T).T @ ph)
    pred_c = pred_c - st.C * np.vdot(st.C, pred_c)

    def rhs(sets, C):
        rho1 = [fs.dist_reduced_density(space, C, (j,)) for j in range(Q)]
        Bv = lo.dist_orbital_rhs_plan(space, sets, st.h_ops, coupling, C,
                                        rho1)
        H = ham.hamiltonian_matrix(space, sets, st.h_ops, coupling)
        hc = H @ C
        hc = hc - C * np.vdot(C, hc)
        return ([np.sqrt(st.grids[j].weight) * Bv[j] for j in range(Q)], hc)

    B0, c0 = rhs(st.sets, st.C)
    etas = np.array([1e-3, 3e-4, 1e-4])
    errs = []
    scale = max(max(np.abs(p).max() for p in pred_u), np.abs(pred_c).max())
    for eta in etas:
        sets_p = [ham.OrbitalSet(st.sets[j].orbitals + eta * dus[j],
                                 st.grids[j]) for j in range(Q)]
        B1, c1 = rhs(sets_p, st.C + eta * dC)
        err = max(max(np.abs((B1[j] - B0[j]) / eta - pred_u[j]).max()
                      for j in range(Q)),
                  np.abs((c1 - c0) / eta - pred_c).max())
        errs.append(err / scale)
    slope = np.polyfit(np.log(etas), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.15)


@pytest.mark.parametrize("module", [li, ld])
def test_unconverged_coefficients_rejected(module):
    state = SimpleNamespace(residuals={"orb_residual": 0.0, "c_residual": 1e-3})
    with pytest.raises(ValueError, match="coefficient residual 1.000e-03"):
        module._require_converged(state)
