"""Block structure and physics of the identical-particle response matrix."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mclr import (OneBodyOperator, PairCoupling, TwoBodyKernel, build_grid,
                  kinetic_matrix, position_operator)
from mclr import fockspace as fs
from mclr import groundstate as gs
from mclr import hamiltonian as ham
from mclr import linres_identical as li
from mclr import oracle as orc
from mclr import spectrum as spm

import loop_oracles as lo
from conftest import oscillator_h


def test_layout_partition(bos_m2):
    lay = li.ResponseLayout((2,), (64,), 3)
    assert lay.D == 2 * (2 * 64 + 3)
    covered = np.zeros(lay.D, dtype=int)
    for k in range(2):
        covered[lay.u_slice(0, k)] += 1
        covered[lo.v_slice(lay, 0, k)] += 1
    covered[lay.cu_slice] += 1
    covered[lay.cv_slice] += 1
    assert np.all(covered == 1)


def test_oo_block_free_case(grid64, h64):
    # no interaction: exchange vanishes and the block is rho h - mu exactly
    sp = fs.enumerate_configs("boson", N=2, M=2)
    st = gs.solve_mchx(sp, grid64, h64, TwoBodyKernel("none"))
    A, B = li.build_oo_block(st)
    assert np.abs(B).max() == 0.0
    lay = li.ResponseLayout((2,), (64,), 3)
    (rho,), (mu,) = st.rho1, st.mu
    mu = 0.5 * (mu + mu.conj().T)
    for k in range(2):
        for q in range(2):
            ref = rho[k, q] * h64.matrix - mu[k, q] * np.eye(64)
            assert np.abs(A[lay.u_slice(0, k), lay.u_slice(0, q)]
                          - ref).max() < 1e-12


def test_oo_submatrix_relations(bos_m3):
    A, B = li.build_oo_block(bos_m3)
    assert np.abs(A - A.conj().T).max() < 1e-10
    assert np.abs(B - B.T).max() < 1e-10


def test_oc_co_adjoint_relations(bos_m3):
    Loc_u, Loc_v, Lco_u, Lco_v = li.build_oc_co_blocks(bos_m3)
    d_u, d_v = lo.co_blocks_direct(bos_m3)
    assert np.abs(Lco_u - d_u).max() < 1e-10
    assert np.abs(Lco_v - d_v).max() < 1e-10


def test_cc_block_annihilates_ground_vector(bos_m2):
    cc_u = li.build_cc_block(bos_m2)
    assert np.abs(cc_u @ bos_m2.C).max() < 1e-9


def test_cc_block_star_is_transpose_for_real_orbitals(bos_m2):
    # a real problem converges to exactly real orbitals and C, so H - eps
    # is real and its starred mirror eps - conj(H) is the transpose
    cc_u = li.build_cc_block(bos_m2)
    assert not np.any(cc_u.imag)


def test_cc_block_gaps_are_ci_excitations(bos_m2):
    cc_u = li.build_cc_block(bos_m2)
    H = ham.hamiltonian_matrix(bos_m2.space, bos_m2.sets, bos_m2.h_ops,
                               bos_m2.kernel_matrix)
    vals = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
    gaps = vals[1:] - vals[0]
    # eigenvalues of (H - eps) on the complement of C
    Pc = np.eye(3) - np.outer(bos_m2.C, bos_m2.C.conj())
    proj = Pc @ cc_u @ Pc
    got = np.sort(np.linalg.eigvalsh(0.5 * (proj + proj.conj().T)))[1:]
    assert np.allclose(got, gaps, atol=1e-9)


def _random_h(dtype):
    rng = np.random.default_rng(7)
    H = rng.normal(size=(6, 6)).astype(dtype)
    if dtype is complex:
        H += 1j * rng.normal(size=(6, 6))
    return H, rng.normal(size=6) / 3


@pytest.mark.parametrize("dtype", [float, complex])
def test_cc_block_is_exact(dtype):
    # the in-place form equals the textbook expression bit for bit
    H, C = _random_h(dtype)
    herm = 0.5 * (H + H.conj().T)
    eps = float(np.real(np.vdot(C, herm @ C)))
    np.testing.assert_array_equal(li._cc_block(H, C), herm - eps * np.eye(6))


@pytest.mark.parametrize("dtype", [float, complex])
def test_raw_buffer_fill_is_exact(dtype):
    # the buffer fill of the raw-half oracle equals np.block bit for bit
    H, _ = _random_h(dtype)
    tl, tr, bl = H[:4, :4], H[:4, :2].real, H[4:, :4]
    out = np.empty((6, 6), dtype=dtype)
    np.testing.assert_array_equal(lo._block2(out, tl, tr, bl, H[4:, 4:]),
                                  np.block([[tl, tr], [bl, H[4:, 4:]]]))
    # a second fill of the same buffer leaves nothing of the first
    assert lo._block2(out, tl, tr, bl, 0.0) is out
    np.testing.assert_array_equal(
        out, np.block([[tl, tr], [bl, np.zeros((2, 2))]]))


def _coupled(M_list, points, pair):
    """Converged bilinearly coupled oscillators, one grid per DOF."""
    grids = [build_grid(n, -8.0, 8.0) for n in points]
    return gs.solve_mch_dist(
        fs.enumerate_configs("distinguishable", M_list=M_list), grids,
        [oscillator_h(g) for g in grids],
        PairCoupling.bilinear(grids, *pair, 0.2))


@pytest.fixture(scope="module")
def more_states():
    # a trapped pair on a mirror-broken grid (one sector), two DOFs of
    # different shapes, and three DOFs coupled by the pair term 1-3 only
    grid = build_grid(64, -7.5, 8.5)
    return {"mirror_broken": gs.solve_mchx(
                fs.enumerate_configs("boson", N=2, M=2), grid,
                oscillator_h(grid), TwoBodyKernel("contact", strength=0.1)),
            "m34": _coupled((3, 4), (40, 48), (0, 1)),
            "m333_pair13": _coupled((3, 3, 3), (32, 32, 32), (0, 2))}


@pytest.mark.parametrize("fixture", [
    "bos_m2", "ferm_m3", "dist_11", "dist_44", "bos_m2_complex_gauge",
    "mirror_broken", "m34", "m333_pair13"])
def test_halves_match_raw_buffer_oracle(fixture, request, more_states):
    # the sector blocks pulled block by block against the sector blocks of
    # each whole raw half pulled through one buffer, and so a and b rebuilt
    # from them, the scale and the Sigma3 defect; between the sectors the
    # oracle holds only what the gate lets through
    st = (more_states[fixture] if fixture in more_states
          else request.getfixturevalue(fixture))
    rm = li.assemble_L(st)
    a, b = lo.raw_halves(rm, lo.raw_blocks(st))
    sectors = lo.sector_blocks(rm, a, b)
    scale = rm.scale
    assert len(rm.halves) == len(sectors) == len(rm.sizes)
    for (minus, plus), (a_s, b_s) in zip(rm.halves, sectors):
        assert minus.dtype == plus.dtype == a.dtype == b.dtype
        assert np.abs(minus - (a_s - b_s)).max() <= 1e-14 * scale
        assert np.abs(plus - (a_s + b_s)).max() <= 1e-14 * scale
    on = lo.sectors(rm)[:, None] == lo.sectors(rm)[None, :]
    for got, want in zip(rm.full_halves(), (a, b)):
        assert got.dtype == want.dtype
        assert np.abs(got - np.where(on, want, 0)).max() <= 1e-14 * scale
    n0 = rm.sizes[0]
    assert max(np.linalg.norm(m[:n0, n0:]) for m in (a, b)) <= (
        spm.SECTOR_TOL * scale)
    want = max(max(li._absmax(a_s), li._absmax(b_s)) for a_s, b_s in sectors)
    assert abs(scale - want) <= 1e-14 * scale
    want = max(li._sigma3_defect(a_s, b_s) for a_s, b_s in sectors)
    assert abs(spm.symmetry_defects(rm)[1] - want) <= 1e-14 * scale


def test_assembly_holds_no_raw_half_buffer(dist_44):
    # above the memory at its entry, the assembly holds the sector blocks
    # of a and b and, as transients, less than one raw orbital block A and
    # one sector block: no n x n half, no (orb + n_conf)^2 buffer of a raw
    # half and no block between the sectors.  The raw blocks are handed
    # over (CPython 3.11 passes a call's arguments to the callee)
    tracemalloc.start()
    try:
        held = [lo.raw_blocks(dist_44)]
        orb_block = held[0][0].nbytes
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        rm = li._response_matrix(dist_44, held.pop())
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert len(rm.halves) == 2
    stored = sum(m.nbytes + p.nbytes for m, p in rm.halves)
    assert peak < stored + orb_block + max(m.nbytes for m, _ in rm.halves)


def test_assembled_dimension_and_projection(bos_m2):
    rm = li.assemble_L(bos_m2)
    assert rm.D == 2 * (2 * 64 + 3)
    P = rm.projector()
    assert np.abs(P @ rm.L @ P - rm.L).max() < 1e-10
    assert np.abs(P @ P - P).max() < 1e-12
    assert np.abs(P - P.conj().T).max() < 1e-12


@pytest.mark.parametrize("fixture", ["bos_m2", "bos_m3", "ferm_m2", "ferm_m3"])
def test_pairing_symmetries(fixture, request):
    st = request.getfixturevalue(fixture)
    rm = li.assemble_L(st)
    S1 = np.eye(rm.D)[li.sigma1(rm.layout)]
    S3 = np.diag(li.sigma3(rm.layout))
    assert np.abs(S1 @ rm.L @ S1 + rm.L.conj()).max() < 1e-9
    assert np.abs(S3 @ rm.L @ S3 - rm.L.conj().T).max() < 1e-9


def test_statistics_toggle_flips_exchange_only(bos_m3):
    # rebuilding with the opposite statistics sign changes exactly twice the
    # exchange part of the u-u block and nothing else
    st = bos_m3
    A_b, B_b = li.build_oo_block(st)
    flipped = dataclasses.replace(
        st, space=fs.enumerate_configs("fermion", N=3, M=3), C=None)
    A_f, B_f = li.build_oo_block(flipped)
    assert np.abs(B_b - B_f).max() == 0.0
    diff = A_b - A_f
    lay = li.ResponseLayout((3,), (st.grids[0].n_points,), st.space.size)
    phi = st.sets[0].scaled
    K1 = np.einsum("lx,xy,sy->slxy", phi, st.kernel_matrix, phi.conj())
    kap1 = np.einsum("kslq,slxy->kqxy", st.rho2, K1)
    for k in range(3):
        for q in range(3):
            assert np.abs(diff[lay.u_slice(0, k), lay.u_slice(0, q)]
                          - 2.0 * kap1[k, q]).max() < 1e-10


def test_single_configuration_limit_has_trivial_coefficient_sector(ferm_m3):
    # N_conf = 1: the coefficient projector is zero, so the projected matrix
    # has empty coefficient rows and columns
    rm = li.assemble_L(ferm_m3)
    lay = rm.layout
    assert lay.n_conf == 1
    assert np.abs(rm.L[lay.cu_slice, :]).max() < 1e-12
    assert np.abs(rm.L[:, lay.cu_slice]).max() < 1e-12


@pytest.mark.parametrize("fixture, tol", [
    ("bos_m2", 1e-12), ("ferm_m3", 1e-12), ("dist_11", 1e-12),
    ("dist_44", 1e-12),
    # the complex gauge spreads the 2e-4 natural occupation over both
    # orbitals: M^(-1/2) entries ~30 cancel in every product, and the dense
    # and block forms each round at ~3e-11
    ("bos_m2_complex_gauge", 1e-10)])
def test_block_projection_matches_dense(fixture, tol, request):
    # L from block products against P M^(-1/2) L_raw M^(-1/2) P, dense
    st = request.getfixturevalue(fixture)
    rm = li.assemble_L(st)
    assert np.abs(rm.L - lo.dense_L(rm)).max() < tol


def _check_project(rm, power):
    # P M^p applied sector by sector against its dense kron/block_diag form,
    # on one vector and on a block of columns; relative to the largest
    # entry of P M^p (~70 for M^(-1/2) at a 2e-4 natural occupation)
    dense = lo.dense_PM(rm, power)
    rng = np.random.default_rng(3)
    X = (rng.standard_normal((rm.D, 5))
         + 1j * rng.standard_normal((rm.D, 5)))
    for x in (X[:, 0], X):
        got = rm.project(x, power)
        assert got.shape == x.shape
        assert np.abs(got - dense @ x).max() < 1e-13 * np.abs(dense).max()
    if power == 0.0:
        assert np.abs(rm.projector() - dense).max() < 1e-15


@pytest.mark.parametrize("power", [-0.5, 0.0, 0.5])
@pytest.mark.parametrize("fixture", ["bos_m2", "ferm_m3", "dist_44",
                                     "bos_m2_complex_gauge"])
def test_structural_operator_matches_dense(fixture, power, request):
    st = request.getfixturevalue(fixture)
    rm = li.assemble_L(st)
    _check_project(rm, power)


@pytest.mark.parametrize("power", [-0.5, 0.0, 0.5])
def test_structural_operator_on_complex_orbital_span(power):
    # the orbital span of every converged fixture is real, whatever the
    # gauge, so the grid projectors are real; random complex orbitals,
    # densities and coefficients (two DOFs) make every conjugate count
    rng = np.random.default_rng(5)
    M_list, n_list, nc = (2, 1), (6, 5), 2

    def crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    phis = [np.linalg.qr(crandn(n, M))[0].T for M, n in zip(M_list, n_list)]
    rhos = [z @ z.conj().T + 0.1 * np.eye(len(z))
            for z in (crandn(M, M) for M in M_list)]
    C = crandn(nc)
    C /= np.linalg.norm(C)
    state = SimpleNamespace(C=C, rho1=rhos,
                            sets=[SimpleNamespace(scaled=phi) for phi in phis])
    orb = sum(M * n for M, n in zip(M_list, n_list))
    oc = np.zeros((orb, nc))
    blocks = (np.zeros((orb, orb)), np.zeros((orb, orb)), oc, oc, oc.T, oc.T,
              np.zeros((nc, nc)))
    _check_project(li._response_matrix(state, blocks), power)


def test_null_vectors_annihilated(bos_m2):
    rm = li.assemble_L(bos_m2)
    Z = lo.null_vectors(rm)
    assert Z.shape[1] == 2 * (2 * 2 + 1)
    assert np.abs(rm.L @ Z).max() < 1e-8


def test_unconverged_state_rejected(bos_m2):
    bad = dataclasses.replace(bos_m2, residuals={"orb_residual": 1e-2})
    with pytest.raises(ValueError):
        li.build_oo_block(bad)


def test_bdg_reduction(bos_m1):
    rm = li.assemble_L(bos_m1)
    spec = spm.eigensolve(rm)
    bdg = orc.bdg_reference(bos_m1.grids[0], bos_m1.h_ops[0], 0.1, 2,
                            condensate=bos_m1.sets[0].orbitals[0])
    lr = np.sort(spec.omega)[:5]
    assert np.abs(lr - bdg["frequencies"][:5]).max() < 1e-7


def test_driving_vector_lives_in_projected_space(bos_m2_48):
    pert = li.PerturbationSpec(f_dags=(position_operator(bos_m2_48.grids[0]),),
                               omega=0.55)
    rm = li.assemble_L(bos_m2_48)
    R = li.build_R(bos_m2_48, pert, rm)
    assert np.abs(rm.projector() @ R - R).max() < 1e-12
    assert np.linalg.norm(R) > 1e-3


def test_driving_vector_zero_fields(bos_m2_48):
    rm = li.assemble_L(bos_m2_48)
    R = li.build_R(bos_m2_48, li.PerturbationSpec(omega=0.5), rm)
    assert np.abs(R).max() == 0.0


def test_driving_vector_parity_structure(bos_m2_48):
    # dipole probe on a parity-symmetric ground state: each orbital entry has
    # the opposite parity of its orbital (x flips parity)
    st = bos_m2_48
    rm = li.assemble_L(st)
    R = li.build_R(st, li.PerturbationSpec(
        f_dags=(position_operator(st.grids[0]),), omega=0.55), rm)
    lay = rm.layout
    flip = slice(None, None, -1)
    phi = st.sets[0].orbitals
    for k in range(lay.M_list[0]):
        orbital_even = np.abs(phi[k] - phi[k][flip]).max() < 1e-9
        u = R[lay.u_slice(0, k)]
        defect = (u + u[flip]) if orbital_even else (u - u[flip])
        assert np.abs(defect).max() < 1e-9 * max(1.0, np.abs(u).max())
    # coefficient entries couple only parity-flipping configurations:
    # (2,0) and (0,2) keep total parity, (1,1) flips it
    cu = R[lay.cu_slice]
    sp = st.space
    assert abs(cu[sp.configs.index((2, 0))]) < 1e-10
    assert abs(cu[sp.configs.index((0, 2))]) < 1e-10
    assert abs(cu[sp.configs.index((1, 1))]) > 1e-3


def _probes(st):
    """Probe f, probe g, both, and for two DOFs f on the first DOF only."""
    if st.space.identical:
        f = position_operator(st.grids[0])
        g = TwoBodyKernel("gaussian", strength=0.2, width=0.6)
        return [li.PerturbationSpec(f_dags=(f,), omega=0.55),
                li.PerturbationSpec(g_dag=g, omega=0.55),
                li.PerturbationSpec(f_dags=(f,), g_dag=g, omega=0.55)]
    f = tuple(position_operator(g) for g in st.grids)
    g = ham.PairCoupling.bilinear(st.grids, 0, 1, 0.3)
    return [li.PerturbationSpec(f_dags=f, omega=0.57),
            li.PerturbationSpec(g_dag=g, omega=0.57),
            li.PerturbationSpec(f_dags=f, g_dag=g, omega=0.57),
            li.PerturbationSpec(f_dags=(f[0], None), omega=0.57)]


@pytest.mark.parametrize("fixture", ["bos_m2_48", "ferm_m3", "dist_44"])
def test_driving_vector_matches_per_kind_oracle(fixture, request):
    # the shared row filler against the driving vectors written out for
    # each particle kind and projected by the dense P M^(+-1/2)
    st = request.getfixturevalue(fixture)
    rm = li.assemble_L(st)
    oracle = lo.build_R if st.space.identical else lo.build_R_dist
    for pert in _probes(st):
        ref = oracle(st, pert, rm)
        assert np.abs(ref).max() > 1e-6
        assert np.abs(li.build_R(st, pert, rm) - ref).max() \
            <= 1e-13 * np.abs(ref).max()


def _dense_probe_action(state, f_dags, g):
    """(O C, O^T conj(C)) from the probe's dense configuration matrix."""
    O = ham.hamiltonian_matrix(state.space, state.sets, f_dags, g)
    return O @ state.C, O.T @ state.C.conj()


@pytest.mark.parametrize("fixture", ["bos_m2_48", "ferm_n2m4"])
def test_probes_act_through_the_operator_table(fixture, request, monkeypatch):
    # R with the probes applied to C through the compiled table (O C, and
    # O^H C for the C_v rows), against R from their dense n_conf x n_conf
    # configuration matrices; the non-Hermitian probe tells O^H from O
    st = request.getfixturevalue(fixture)
    rm = li.assemble_L(st)
    grid = st.grids[0]
    skew = OneBodyOperator(np.diag(grid.points) + 0.3j * np.triu(
        kinetic_matrix(grid).matrix), hermitian=False)
    perts = [li.PerturbationSpec(f_dags=(f,), omega=0.55)
             for f in (position_operator(grid), skew)]
    perts.append(li.PerturbationSpec(
        g_dag=TwoBodyKernel("gaussian", strength=0.2, width=0.6), omega=0.55))
    with monkeypatch.context() as m:
        m.setattr(ham, "hamiltonian_matrix", lambda *a: pytest.fail(
            "a dense configuration matrix was built"))
        got = [li.build_R(st, pert, rm) for pert in perts]
    monkeypatch.setattr(li, "_probe_action", _dense_probe_action)
    for pert, R in zip(perts, got):
        want = li.build_R(st, pert, rm)
        assert np.abs(want[rm.layout.cu_slice]).max() > 1e-3
        assert np.abs(R - want).max() <= 1e-13 * np.abs(want).max()


def test_pair_probe_selects_even_modes(bos_m2_48):
    # a parity-even interaction probe cannot drive the odd dipole mode but
    # does drive the even breathing-type modes
    st = bos_m2_48
    rm = li.assemble_L(st)
    spec = spm.eigensolve(rm)
    pert = li.PerturbationSpec(
        g_dag=TwoBodyKernel("gaussian", strength=0.2, width=0.6), omega=0.7)
    R = li.build_R(st, pert, rm)
    assert np.linalg.norm(R) > 1e-6
    w = spm.response_weights(spec, R)
    order = np.argsort(spec.omega)
    dipole = order[0]
    assert spec.omega[dipole] == pytest.approx(1.0, abs=1e-3)
    assert abs(w.gamma_plus[dipole]) < 1e-8
    assert max(abs(w.gamma_plus[i]) for i in order[1:4]) > 1e-4


def test_linearization_derivative(bos_m2_48):
    """Finite differences of the nonlinear flow reproduce the raw blocks."""
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
        h = ham.one_body_elements(orbs, st.h_ops[0])
        W = ham.two_body_tensor(orbs, st.kernel_matrix)
        hc = fs.apply_second_quantized(sp, C, h, W)
        return np.sqrt(g.weight) * Bv, hc - C * np.vdot(C, hc)

    B0, c0 = rhs(phi, st.C)
    etas = np.array([1e-3, 3e-4, 1e-4, 3e-5, 1e-5])
    errs = []
    scale = max(np.abs(pred_u).max(), np.abs(pred_c).max())
    for eta in etas:
        B1, c1 = rhs(phi + eta * du, st.C + eta * dC)
        err = max(np.abs((B1 - B0) / eta - pred_u).max(),
                  np.abs((c1 - c0) / eta - pred_c).max())
        errs.append(err / scale)
    slope = np.polyfit(np.log(etas), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("fixture", ["bos_m2", "ferm_m3", "dist_44"])
def test_real_problem_is_float64_from_construction(fixture, request):
    # a real problem keeps float64 from its operators through the ground
    # state to the raw response blocks: no complex array with zero
    # imaginary part anywhere on the way
    st = request.getfixturevalue(fixture)
    arrays = [*(h.matrix for h in st.h_ops), *(s.orbitals for s in st.sets),
              *st.rho1, *lo.raw_blocks(st)[:2]]
    if st.rho2 is not None:
        arrays.append(st.rho2)
    assert [a.dtype for a in [st.C, *arrays]] == [np.float64] * (1 + len(arrays))


def test_complex_gauge_stays_complex(bos_m2_complex_gauge):
    # complex input runs complex all the way and takes the dense solve
    st = bos_m2_complex_gauge
    for a in (st.C, st.sets[0].orbitals, st.rho1[0], st.rho2,
              *li.build_oo_block(st)):
        assert a.dtype == np.complex128
    assert spm.eigensolve(li.assemble_L(st)).eigensolver == "dense (complex L)"


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("pivot, zero", [(0, False), (4, False), (8, False),
                                         (4, True)])
def test_coefficient_reflector_spans_the_complement_of_C(pivot, zero, dtype):
    # B, the columns H e_i (i != p) of H = I - h h^H, on a random C pivoted
    # on row 0, a middle row, the last row and an exactly zero entry:
    # B^H B = I, B B^H = I - C C^H, B^H C = 0, and lift and pull are
    # adjoint on C- and F-ordered columns
    rng = np.random.default_rng(pivot + 10 * zero)

    def randn(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    nc = 9
    C = randn(nc)
    C[pivot] *= not zero
    C /= np.linalg.norm(C)
    cls = (np.arange(nc) >= pivot) & (rng.random(nc) < 0.5)
    cls[pivot] = True
    h, p, parities = li._coefficient_complement(C, cls)
    assert p == pivot and h.dtype == C.dtype
    np.testing.assert_array_equal(parities, np.where(np.delete(cls, p), 1, -1))
    order, sizes = li._sector_order([], [], (h, p))
    rm = li.ResponseMatrix(layout=li.ResponseLayout((), (), nc),
                           householder=(h, p), order=order, sizes=sizes)
    B = rm.lift(np.eye(nc - 1))
    eye = np.eye(nc - 1)
    assert np.abs(B.conj().T @ B - eye).max() < 1e-14
    assert np.abs(B @ B.conj().T - (np.eye(nc) - np.outer(C, C.conj()))
                  ).max() < 1e-14
    assert np.abs(B.conj().T @ C).max() < 1e-14
    x, v = randn(nc, 5), randn(nc - 1, 5)
    for xs, vs in ((x, v), (np.asfortranarray(x), np.asfortranarray(v))):
        lifted, pulled = rm.lift(vs), rm.pull(xs)
        assert lifted.dtype == pulled.dtype == C.dtype
        assert np.abs(xs.conj().T @ lifted - pulled.conj().T @ vs).max() \
            < 1e-14 * np.linalg.norm(x) * np.linalg.norm(v)


@pytest.mark.parametrize("n, n_even, n_odd", [(8, 1, 1), (64, 2, 2), (9, 2, 1),
                                              (9, 0, 2), (7, 3, 2), (5, 1, 0)])
def test_mirror_frame_is_an_orthogonal_parity_split(n, n_even, n_odd):
    # G^T is orthogonal and is the butterfly of the oracle, whose to_frame
    # (G^T) and from_frame (G) are transposes; each frame row is even or
    # odd under x -> -x, and the first rows are the even pivots, then the
    # odd ones
    Gt, odd = li._mirror_frame(n, n_even, n_odd)
    G = lo.MirrorFrame(n_even, n_odd)
    eye = np.eye(n)[None]
    assert np.abs(Gt @ Gt.T - np.eye(n)).max() < 1e-15
    assert np.abs(G.to_frame(eye)[0] - Gt).max() == 0.0
    assert np.abs(G.from_frame(eye)[0] - Gt.T).max() == 0.0
    np.testing.assert_array_equal(G.odd_rows(n), odd)
    np.testing.assert_array_equal(Gt[:, ::-1], np.where(odd, -1, 1)[:, None] * Gt)
    assert not odd[:n_even].any() and odd[n_even:n_even + n_odd].all()
    assert odd.sum() == n // 2
