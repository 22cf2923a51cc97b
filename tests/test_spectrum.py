"""Eigenanalysis, zero modes, response weights, and reconstruction."""

import dataclasses
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from mclr import TwoBodyKernel, build_grid, position_operator
from mclr.grid import diagonal_operator
from mclr import checkpoint as ckpt_mod
from mclr import cli
from mclr import fockspace as fs
from mclr import groundstate as gs
from mclr import linres_identical as li
from mclr import spectrum as spm

import loop_oracles as lo
from conftest import orbital_gauge, oscillator_h


@pytest.fixture(scope="module")
def free_m2(grid64, h64):
    """A free boson pair at M = 2: its second natural orbital is empty."""
    return gs.solve_mchx(fs.enumerate_configs("boson", N=2, M=2), grid64, h64,
                         TwoBodyKernel("none"))


@pytest.fixture(scope="module")
def spec_m2(bos_m2_48):
    rm = li.assemble_L(bos_m2_48)
    return spm.eigensolve(rm)


def test_eigenvalues_sorted_and_real(spec_m2):
    w = spec_m2.eigenvalues
    assert np.all(np.diff(w.real) >= -1e-12)
    assert spec_m2.reality_defect < 1e-8
    assert not spec_m2.unstable


def test_eigenpairs_satisfy_equation(spec_m2):
    L = spec_m2.rm.L
    scale = np.abs(L).max()
    for i in range(len(spec_m2.retained)):
        k = spec_m2.retained[i]
        r = spec_m2.right[:, i]
        resid = L @ r - spec_m2.eigenvalues[k] * r
        assert np.linalg.norm(resid) < 1e-8 * scale


def test_spectrum_mirror_symmetry(spec_m2):
    # real-orbital ground state: spectrum symmetric under sign flip
    w = spec_m2.eigenvalues.real
    pos = np.sort(w[w > spec_m2.tol_zero])
    neg = np.sort(-w[w < -spec_m2.tol_zero])
    assert np.allclose(pos, neg, atol=1e-8)


def test_mirror_eigenvectors(spec_m2):
    rm = spec_m2.rm
    L = rm.L
    S1 = np.eye(rm.D)[li.sigma1(rm.layout)]
    for i in range(min(4, len(spec_m2.retained))):
        k = spec_m2.retained[i]
        mirror = S1 @ spec_m2.right[:, i].conj()
        resid = L @ mirror + spec_m2.eigenvalues[k].conjugate() * mirror
        assert np.linalg.norm(resid) < 1e-8 * np.abs(L).max()


def test_biorthogonality(spec_m2):
    n = len(spec_m2.retained)
    b1 = lo.left(spec_m2).conj().T @ spec_m2.right - np.eye(n)
    b2 = lo.left(spec_m2).conj().T @ lo.right_neg(spec_m2)
    assert np.abs(b1).max() < 1e-8
    assert np.abs(b2).max() < 1e-8


def test_pairing_assignment(spec_m2):
    assert spec_m2.pairing_residual < 1e-8
    w = spec_m2.eigenvalues
    for k, kneg in spec_m2.pairing.items():
        assert w[kneg] == pytest.approx(-np.conj(w[k]), abs=1e-8)


def test_zero_mode_counts(bos_m1, bos_m2):
    for st, M in ((bos_m1, 1), (bos_m2, 2)):
        rm = li.assemble_L(st)
        spec = spm.eigensolve(rm)
        rep = spm.classify_zero_modes(spec,
                                      expected_count=spm.expected_zero_modes((M,)))
        assert rep["count"] == 2 * (M * M + 1)
        assert rep["constructed_ok"]


def test_zero_mode_mismatch_is_reported(free_m2):
    # the free pair's exactly unoccupied orbital leaves the response
    # coordinates: its 2 (n - M) directions are counted with the analytic
    # null vectors, so the census matches (a mismatch is reported in
    # test_cli.py::test_linres_tol_zero_flag)
    rm = li.assemble_L(free_m2)
    assert rm.metric_clipped
    spec = spm.eigensolve(rm)
    assert spec.eigensolver == "rpa"
    lay = rm.layout
    expected = spm.expected_zero_modes(lay.M_list, lay.n_list,
                                       [len(n) for n, _ in rm.natural])
    rep = spm.classify_zero_modes(spec, expected_count=expected)
    assert rep["count"] == expected == 10 + 2 * (64 - 2)
    assert rep["constructed_ok"] and "mismatch" not in rep


def test_grid_refinement_keeps_census_and_low_spectrum(bos_m2):
    # tol_zero scales with max|w| ~ 1/dx^2; refining the grid 64 -> 128 ->
    # 256 must keep the zero-mode census of both eigensolvers and move the
    # low spectrum only by the discretization error
    states = [bos_m2]
    for n in (128, 256):
        g = build_grid(n, -8.0, 8.0)
        states.append(gs.solve_mchx(
            fs.enumerate_configs("boson", N=2, M=2), g, oscillator_h(g),
            TwoBodyKernel("contact", strength=0.1)))
    low = []
    for st in states:
        rm = li.assemble_L(st)
        fast, dense = spm.eigensolve(rm), spm._eigensolve_dense(rm)
        assert fast.eigensolver == "rpa"
        assert len(fast.zero_modes) == len(dense.zero_modes) == 10
        low.append(np.sort(fast.omega)[:5])
        assert np.abs(low[-1] - np.sort(dense.omega)[:5]).max() < 1e-10
    assert np.abs(low[0] - low[1]).max() < 1e-6
    assert np.abs(low[1] - low[2]).max() < 1e-6


def test_default_tolerances_give_converged_low_spectrum(bos_m2):
    # the occupation-scaled residual keeps the 2.3e-4-occupied natural
    # orbital converged at the default tol_orb: the low spectrum agrees
    # with a tol_orb = 1e-12 solve
    st = bos_m2
    tight = gs.solve_mchx(st.space, st.grids[0], st.h_ops[0], st.interaction,
                          gs.SolverOptions(tol_orb=1e-12))
    low = [np.sort(spm.eigensolve(li.assemble_L(s)).omega)[:5]
           for s in (st, tight)]
    assert np.abs(low[0] - low[1]).max() < 1e-7


def test_noninteracting_ladder(free_m2):
    spec = spm.eigensolve(li.assemble_L(free_m2))
    low = np.sort(spec.omega)[:2]
    assert low[0] == pytest.approx(1.0, abs=1e-4)
    assert low[1] == pytest.approx(2.0, abs=1e-4)


def test_weights_zero_probe(spec_m2):
    w = spm.response_weights(spec_m2, np.zeros(spec_m2.rm.D, dtype=complex))
    assert np.abs(w.gamma_plus).max() == 0.0
    assert np.abs(w.gamma_minus).max() == 0.0


def test_weights_parity_selection(bos_m2_48, spec_m2):
    rm = spec_m2.rm
    R = li.build_R(bos_m2_48, li.PerturbationSpec(
        f_dags=(position_operator(bos_m2_48.grids[0]),), omega=0.55), rm)
    w = spm.response_weights(spec_m2, R)
    order = np.argsort(spec_m2.omega)
    # the parity-even modes right above the dipole are dark
    assert abs(w.gamma_plus[order[0]]) > 0.1
    assert abs(w.gamma_plus[order[1]]) < 1e-8
    assert abs(w.gamma_plus[order[2]]) < 1e-8


def test_reconstruct_uses_assembly_floor(free_m2):
    # the free pair's empty natural orbital is left out of L; the driven
    # orbitals must go through the same M^(-1/2) as L itself, on the kept
    # orbital only.  The probe x^2 drives phi_0 out of the orbital span.
    st = free_m2
    rm = li.assemble_L(st)
    assert rm.metric_clipped
    spec = spm.eigensolve(rm)
    om = 0.55
    R = li.build_R(st, li.PerturbationSpec(
        f_dags=(diagonal_operator(st.grids[0], st.grids[0].points ** 2),),
        omega=om), rm)
    w = spm.response_weights(spec, R)
    rec = spm.reconstruct(spec, w, om)
    (dphi_m,), (dphi_p,) = rec.dphi_minus, rec.dphi_plus
    expect_m = np.zeros_like(dphi_m)
    expect_p = np.zeros_like(dphi_p)
    G = lo.dense_PM(rm, -0.5)
    for i, wk in enumerate(spec.omega):
        (u,), (v,), _, _ = rm.layout.split(G @ spec.right[:, i])
        gp, gm = w.gamma_plus[i], w.gamma_minus[i]
        expect_m += gp * u / (om - wk) + gm * v.conj() / (om + wk)
        expect_p += (np.conj(gp) * v.conj() / (om - wk)
                     + np.conj(gm) * u / (om + wk))
    root_dx = np.sqrt(st.grids[0].weight)
    assert np.abs(expect_m).max() > 0.1
    assert np.abs(dphi_m - expect_m / root_dx).max() < 1e-10
    assert np.abs(dphi_p - expect_p / root_dx).max() < 1e-10


def test_default_metric_floor_scales_with_density_trace(bos_m2, free_m2):
    # one keep rule, occupation >= FLOOR_FRACTION tr rho (2e-10 for a
    # pair), shared with the ground-state solver: bos_m2 keeps its
    # 2.3e-4-occupied orbital, the free pair drops its empty one
    assert li.FLOOR_FRACTION is gs.FLOOR_FRACTION
    for st, kept in ((bos_m2, 2), (free_m2, 1)):
        rm = li.assemble_L(st)
        ((occ, U),) = rm.natural
        n = np.linalg.eigvalsh(st.rho1[0])
        assert U.shape == (2, kept) and rm.metric_clipped == (kept < 2)
        assert np.abs(occ - n[2 - kept:]).max() < 1e-14
        assert np.count_nonzero(n >= 2 * gs.FLOOR_FRACTION) == kept
    assert np.linalg.eigvalsh(bos_m2.rho1[0])[0] > 1e-4


def test_save_reconstruction_names_arrays_per_dof(tmp_path, dist_11):
    # as the state checkpoint names them: dphi_minus_<j> per DOF, where
    # identical particles keep the bare names
    spec = spm.eigensolve(li.assemble_L(dist_11))
    rec = spm.reconstruct(spec, _probe_weights(spec, dist_11), 0.55)
    spm.save_reconstruction(tmp_path / "rec.ckpt", rec)
    _, arrays = ckpt_mod.load_arrays(tmp_path / "rec.ckpt")
    assert list(arrays) == [
        "dphi_minus_0", "dphi_minus_1", "dphi_plus_0", "dphi_plus_1",
        "dC_minus", "dC_plus", "orbital_norms_0", "orbital_norms_1"]
    for j in range(2):
        assert arrays[f"dphi_minus_{j}"].shape == (1, 48)
        np.testing.assert_array_equal(arrays[f"dphi_plus_{j}"],
                                      rec.dphi_plus[j])
        np.testing.assert_array_equal(arrays[f"orbital_norms_{j}"],
                                      rec.orbital_norms(0.0)[j])
    assert np.abs(arrays["dphi_minus_0"]).max() > 1e-3


def test_reconstruct_zero_weights(spec_m2):
    w = spm.response_weights(spec_m2, np.zeros(spec_m2.rm.D, dtype=complex))
    rec = spm.reconstruct(spec_m2, w, omega=0.61)
    assert all(np.abs(d).max() == 0.0 for d in rec.dphi(0.0))
    assert np.abs(lo.dC(rec, 0.0)).max() == 0.0


def test_reconstruct_resonance_guard(bos_m2_48, spec_m2):
    w1 = np.sort(spec_m2.omega)[0]
    R = li.build_R(bos_m2_48, li.PerturbationSpec(
        f_dags=(position_operator(bos_m2_48.grids[0]),), omega=w1), spec_m2.rm)
    w = spm.response_weights(spec_m2, R)
    with pytest.raises(ValueError, match="resonant"):
        spm.reconstruct(spec_m2, w, omega=w1 + 1e-9)


def test_reconstruct_pole_scaling(bos_m2_48, spec_m2):
    rm = spec_m2.rm
    w1 = np.sort(spec_m2.omega)[0]
    offsets = np.array([0.16, 0.08, 0.04, 0.02])
    norms = []
    for off in offsets:
        om = w1 + off
        R = li.build_R(bos_m2_48, li.PerturbationSpec(
            f_dags=(position_operator(bos_m2_48.grids[0]),), omega=om), rm)
        rec = spm.reconstruct(spec_m2, spm.response_weights(spec_m2, R), om)
        norms.append(np.sqrt(rec.orbital_norms(0.0)[0].sum()))
    slope = np.polyfit(np.log(offsets), np.log(norms), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


def _assert_orthogonal_to_ground(spec, st):
    # per DOF, every driven orbital is orthogonal to every ground orbital
    rec = spm.reconstruct(spec, _probe_weights(spec, st), 0.55)
    assert np.abs(rec.dphi_minus[0]).max() > 1e-3
    for t in (0.0, 0.4):
        for g, orbs, d in zip(st.grids, st.sets, rec.dphi(t)):
            for phi in orbs.orbitals:
                for x in d:
                    assert abs(g.inner(phi, x)) < 1e-8


def test_reconstructed_orbitals_orthogonal_to_ground(bos_m2_48, spec_m2):
    _assert_orthogonal_to_ground(spec_m2, bos_m2_48)


@pytest.mark.parametrize("fixture", ["dist_44", "dist_333"])
def test_reconstructed_orbitals_orthogonal_to_ground_over_dofs(fixture,
                                                               request):
    st = request.getfixturevalue(fixture)
    _assert_orthogonal_to_ground(spm.eigensolve(li.assemble_L(st)), st)


def test_wavefunction_terms_shapes(bos_m2_48, spec_m2):
    R = li.build_R(bos_m2_48, li.PerturbationSpec(
        f_dags=(position_operator(bos_m2_48.grids[0]),), omega=0.55), spec_m2.rm)
    rec = spm.reconstruct(spec_m2, spm.response_weights(spec_m2, R), 0.55)
    rows = lo.wavefunction_terms(rec, 0.1)
    kinds = {r[1] for r in rows}
    assert "static" in kinds and "coefficient" in kinds
    assert any(k.startswith("response_orbital") for k in kinds)
    # response-orbital branches only leave occupied slots
    for occ, kind, coeff in rows:
        if kind.startswith("response_orbital"):
            j = int(kind.rsplit("_", 1)[1])
            assert occ[j] > 0


def resolution_checks(spec):
    """Completeness defects of the retained modes on the projected subspace.

    identity: || sum_k R L^dag + R~ L~^dag  -  P ||_maxabs
    spectral: || sum_k w_k (R L^dag - R~ L~^dag)  -  L ||_maxabs
    """
    rm = spec.rm
    mask = ~spec.sng_undefined
    R = spec.right[:, mask]
    Lv = lo.left(spec)[:, mask]
    Rn = lo.right_neg(spec)[:, mask]
    Ln = lo.left_neg(spec)[:, mask]
    wr = spec.eigenvalues[spec.retained].real[mask]
    ident = R @ Lv.conj().T + Rn @ Ln.conj().T
    spectral = (R * wr) @ Lv.conj().T - (Rn * wr) @ Ln.conj().T
    return {
        "identity_defect": float(np.abs(ident - rm.projector()).max()),
        "spectral_defect": float(np.abs(spectral - rm.L).max()),
        "modes_used": int(mask.sum()),
    }


def test_resolution_checks(spec_m2):
    rep = resolution_checks(spec_m2)
    assert rep["identity_defect"] < 1e-7
    assert rep["spectral_defect"] < 1e-7


def test_resolution_fails_with_truncated_modes(spec_m2):
    # dropping half the retained modes must leave an order-one defect; the
    # right vectors derive from the reduced ones, the left and partner
    # vectors from right and sng, so they all follow
    n = len(spec_m2.retained)
    half = n // 2
    V = spec_m2.vectors.times(np.eye(n)[:, :half])
    trunc = dataclasses.replace(
        spec_m2, retained=spec_m2.retained[:half],
        vectors=spm.ReducedVectors(V), sng=spec_m2.sng[:half],
        sng_undefined=spec_m2.sng_undefined[:half])
    assert lo.left(trunc).shape == lo.left_neg(trunc).shape \
        == (spec_m2.rm.D, half)
    assert np.abs(trunc.right - spec_m2.right[:, :half]).max() < 1e-14
    rep = resolution_checks(trunc)
    assert rep["identity_defect"] > 0.1


def test_eigenvalues_gauge_invariant(bos_m2, bos_m2_complex_gauge):
    # rotating the orbital gauge changes L but not its retained spectrum
    spec0 = spm.eigensolve(li.assemble_L(bos_m2))
    spec1 = spm.eigensolve(li.assemble_L(bos_m2_complex_gauge))
    # the complex gauge leaves the half-size real reduction
    assert spec0.eigensolver == "rpa"
    assert spec1.eigensolver == "dense (complex L)"
    w0, w1 = np.sort(spec0.omega), np.sort(spec1.omega)
    assert np.abs(w0 - w1).max() < 1e-7


def test_spectrum_csv_format(tmp_path, spec_m2, bos_m2_48):
    R = li.build_R(bos_m2_48, li.PerturbationSpec(
        f_dags=(position_operator(bos_m2_48.grids[0]),), omega=0.55), spec_m2.rm)
    w = spm.response_weights(spec_m2, R)
    path = tmp_path / "spectrum.csv"
    spm.save_spectrum_csv(path, spec_m2, w, header_lines=["test run"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# test run"
    assert lines[1].split(",")[0] == "index"
    body = [l for l in lines[2:] if l]
    assert len(body) == spec_m2.rm.D
    # 17 significant digits survive the round trip
    val = float(body[0].split(",")[1])
    assert f"{val:.17g}" == body[0].split(",")[1]


# --- half-size reduction against the dense eigensolve ------------------------


def _dipole_probe(st, rm):
    return li.build_R(st, li.PerturbationSpec(
        f_dags=tuple(position_operator(g) for g in st.grids), omega=0.55), rm)


@pytest.mark.parametrize("fixture", ["bos_m1", "bos_m2", "bos_m3", "ferm_m2",
                                     "ferm_m3", "bos_m2_48", "dist_11",
                                     "dist_44", "free_m2"])
def test_reduced_solve_matches_dense(fixture, request):
    st = request.getfixturevalue(fixture)
    rm = li.assemble_L(st)
    fast, dense = spm.eigensolve(rm), spm._eigensolve_dense(rm)
    assert fast.eigensolver == "rpa"
    scale = np.abs(dense.eigenvalues).max()
    assert np.abs(fast.eigenvalues - dense.eigenvalues.real).max() < 1e-10 * scale
    np.testing.assert_array_equal(fast.zero_modes, dense.zero_modes)
    np.testing.assert_array_equal(fast.retained, dense.retained)
    n = len(fast.retained)
    assert np.abs(lo.left(fast).conj().T @ fast.right
                  - np.eye(n)).max() < 1e-8
    assert np.abs(lo.left(fast).conj().T @ lo.right_neg(fast)).max() < 1e-8
    assert np.all(fast.sng == 1.0) and fast.pairing_residual == 0.0
    # inside a degenerate cluster the vectors are fixed only up to a
    # rotation, so |gamma| is compared on modes without a degenerate partner
    near = np.diff(fast.omega) < 1e-6 * scale
    lone = np.ones(n, dtype=bool)
    lone[:-1] &= ~near
    lone[1:] &= ~near
    R = _dipole_probe(st, rm)
    wf, wd = spm.response_weights(fast, R), spm.response_weights(dense, R)
    for a, b in ((wf.gamma_plus, wd.gamma_plus),
                 (wf.gamma_minus, wd.gamma_minus)):
        assert np.abs(np.abs(a[lone]) - np.abs(b[lone])).max() < 1e-8


@pytest.mark.parametrize("fixture", ["bos_m2", "ferm_m2", "dist_44",
                                     "free_m2", "bos_m3_odd_grid"])
def test_halves_are_assembled_on_range_of_P(fixture, request):
    # the halves live on the complement of the analytic null vectors on x,
    # less the K_j-th to M_j-th (empty) natural orbitals of each DOF, and
    # the lift B U is an isometry onto that part of range(P)
    rm = li.assemble_L(request.getfixturevalue(fixture))
    lay = rm.layout
    K = [len(occ) for occ, _ in rm.natural]
    n = sum(k * (p - M) for M, p, k in zip(lay.M_list, lay.n_list, K)) \
        + lay.n_conf - 1
    assert rm.n == n and all(m.shape == (k, k) for (m, _), k in
                             zip(rm.halves, rm.sizes))
    assert lay.D - 2 * n == spm.expected_zero_modes(lay.M_list, lay.n_list, K)
    assert np.abs(rm.lift(rm.lift(np.eye(n)), adjoint=True)
                  - np.eye(n)).max() < 1e-13
    x, _ = lo.halves_index(lay)
    BBh = rm.lift(rm.lift(np.eye(lay.D // 2), adjoint=True))
    assert np.abs(BBh - rm.projector()[np.ix_(x, x)]).max() < 1e-13


@pytest.mark.parametrize("fixture", ["bos_m2", "ferm_m3", "dist_44",
                                     "bos_m2_complex_gauge"])
def test_reflectors_match_lapack_complement(fixture, request):
    # the oracle's Q = I - W V^H is the unitary of LAPACK's QR of rows^T,
    # whose trailing columns span the complement of the orbitals of each
    # DOF and of C
    st = request.getfixturevalue(fixture)
    for rows in [s.scaled for s in st.sets] + [st.C[None, :]]:
        if not np.any(np.imag(rows)):
            rows = rows.real
        V, W = lo._reflectors(rows)
        (k, n), real = rows.shape, not np.iscomplexobj(rows)
        assert real == (not np.iscomplexobj(V)) == (not np.iscomplexobj(W))
        Q = np.eye(n) - W @ V.conj().T
        assert np.abs(Q.conj().T @ Q - np.eye(n)).max() < 1e-14
        full = np.linalg.qr(rows.T, mode="complete")[0]
        assert np.abs(Q[:, k:] - full[:, k:]).max(initial=0) < 1e-14
    assert real == (fixture != "bos_m2_complex_gauge")


@pytest.mark.parametrize("fixture", ["bos_m2_48", "ferm_m3", "dist_44"])
def test_assembly_builds_no_dense_basis(fixture, request, monkeypatch):
    # the orbital bases come from one complete QR of each DOF's n_j x M_j
    # orbitals, and no QR of an n_conf-row input runs: the complement of C
    # stays one Householder reflector, no n_conf x n_conf basis
    st = request.getfixturevalue(fixture)
    lay = li.ResponseLayout.of(st)
    qr, shapes = np.linalg.qr, []

    def complete_qr(a, mode="reduced"):
        shapes.append(a.shape)
        if mode != "complete" or len(a) == lay.n_conf:
            raise AssertionError(f"a QR of {a.shape} ran (mode {mode!r})")
        return qr(a, mode)

    monkeypatch.setattr(np.linalg, "qr", complete_qr)
    rm = li.assemble_L(st)
    assert shapes == list(zip(lay.n_list, lay.M_list))
    assert rm.householder[0].shape == (lay.n_conf,)
    assert [Q.shape for Q in rm.bases] == [
        (n, n - M) for M, n in zip(lay.M_list, lay.n_list)]


@pytest.mark.parametrize("fixture", ["bos_m2_48", "dist_44"])
def test_reduced_solve_builds_no_basis(fixture, request, monkeypatch):
    rm = li.assemble_L(request.getfixturevalue(fixture))

    def no_qr(*args, **kwargs):
        raise AssertionError("a basis was built at solve time")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    assert spm.eigensolve(rm).eigensolver == "rpa"


@pytest.mark.parametrize("layout", [li.ResponseLayout((2,), (5,), 3),
                                    li.ResponseLayout((2, 1), (4, 3), 2)])
def test_symmetry_defects_match_dense_operators(layout):
    # random reduced halves without the Hermitian / symmetric structure: the
    # half-form defects are the dense S3 defect of the lifted L pulled back
    # to range(P) on x; on an embedding basis (columns of the identity)
    # they equal the dense S1/S3 products on the built L exactly
    rng = np.random.default_rng(7)

    def crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    sizes = [(M, n) for M, n in zip(layout.M_list, layout.n_list)]
    sizes.append((1, layout.n_conf))
    k = sum(M * (n - M) for M, n in sizes)
    a, b = crandn(k, k), crandn(k, k)
    S1 = np.eye(layout.D)[li.sigma1(layout)]
    S3 = np.diag(li.sigma3(layout))
    x, y = lo.halves_index(layout)
    # per DOF the complement basis, trailing columns of the identity or of
    # a random unitary; for C the reflector (h, p) of H = I - h h^H, where
    # h = 0 keeps H = I
    embedding = ([np.eye(n)[:, M:] for M, n in sizes[:-1]],
                 (np.zeros(layout.n_conf), 0))
    rotated = ([li._orbital_complement(np.linalg.qr(crandn(n, n))[0][:M])[0]
                for M, n in sizes[:-1]],
               li._coefficient_complement(np.linalg.qr(
                   crandn(layout.n_conf, layout.n_conf))[0][0])[:2])
    # complex halves, and real ones (real-arithmetic path)
    for a, b, bases in ((a, b, rotated), (a.real, b.real, embedding),
                        (a, b, embedding)):
        natural = [(np.ones(M), np.eye(M)) for M in layout.M_list]
        order, sizes = li._sector_order(natural, *bases)
        rm = li.ResponseMatrix(layout=layout, halves=((a - b, a + b),),
                               bases=bases[0], householder=bases[1],
                               natural=natural, order=order, sizes=sizes)
        rm.sigma3_defect = li._sigma3_defect(*rm.full_halves())
        L = rm.L
        d1, d3 = S1 @ L @ S1 + L.conj(), S3 @ L @ S3 - L.conj().T
        assert np.abs(d1).max() == 0.0 and np.abs(d3).max() > 0.1
        # B^H d3[x, x] B and B^H d3[x, y] conj(B)
        xx = rm.lift(rm.lift(d3[np.ix_(x, x)], adjoint=True).conj().T,
                     adjoint=True).conj().T
        xy = rm.lift(rm.lift(d3[np.ix_(x, y)], adjoint=True).T,
                     adjoint=True).T
        pulled = max(np.abs(xx).max(), np.abs(xy).max())
        got = spm.symmetry_defects(rm)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(pulled, rel=1e-12)
        if bases is embedding:
            assert got == (0.0, float(np.abs(d3).max()))


@pytest.mark.parametrize("fixture", ["bos_m2_48", "ferm_m3", "dist_44"])
def test_cholesky_vectors_are_sigma3_normalized(fixture, request):
    rm = li.assemble_L(request.getfixturevalue(fixture))
    spec = spm.eigensolve(rm)
    assert spec.eigensolver == "rpa"
    x = np.flatnonzero(li.sigma3(rm.layout) > 0)
    X, Y = spec.right[x], spec.right[li.sigma1(rm.layout)[x]]
    norms = np.einsum("ij,ij->j", (X + Y).conj(), X - Y)
    assert np.abs(norms - 1.0).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5, 126, 367])
def test_lower_product_matches_full_product(n):
    # the blocked lower triangle of K^T S K, and zeros above the diagonal
    rng = np.random.default_rng(n)
    G = rng.normal(size=(n, n))
    K = np.linalg.cholesky(G @ G.T + n * np.eye(n))
    S = rng.normal(size=(n, n))
    S = S + S.T
    want = np.tril(K.T @ (S @ K))
    got = spm._lower_product(K, S)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert not np.triu(got, 1).any()


def test_scale_of_L_is_taken_once(bos_m2_48, monkeypatch):
    # max(|a|, |b|) is read once, by the assembly, from the sector blocks
    # of a and b before they are combined; the RPA defect test and the
    # zero-mode census share it
    seen, absmax = [], li._absmax
    monkeypatch.setattr(li, "_absmax",
                        lambda x: seen.append(x.copy()) or absmax(x))
    rm = li.assemble_L(bos_m2_48)
    pulled = seen[:2 * len(rm.sizes)]
    assert [x.shape for x in pulled] == [(m, m) for m in rm.sizes] * 2
    assert rm.scale == max(np.abs(x).max() for x in pulled)
    seen.clear()
    spm.classify_zero_modes(spm.eigensolve(rm))
    assert seen == []


def _shifted(rm):
    """``rm`` with a - c I on range(P), which is L - c Sigma3 P: it keeps
    both pairing symmetries and shifts the reduced A - B by -c; c, the
    median of the spectrum of A - B, leaves it indefinite."""
    c = np.median(np.concatenate([np.linalg.eigvalsh(m)
                                  for m, _ in rm.halves]))
    return dataclasses.replace(rm, halves=tuple(
        (m - c * np.eye(len(m)), p - c * np.eye(len(m)))
        for m, p in rm.halves))


def test_indefinite_a_minus_b_falls_back_to_dense(bos_m2_48):
    rm = li.assemble_L(bos_m2_48)
    spec = spm.eigensolve(_shifted(rm))
    assert max(spec.sigma1_defect, spec.sigma3_defect) < 1e-12
    assert spec.eigensolver == "dense (A - B not positive definite)"
    assert len(spec.eigenvalues) == rm.D


@pytest.mark.parametrize("fixture", ["bos_m2", "ferm_m3", "dist_44",
                                     "bos_m2_complex_gauge", "shifted"])
def test_eigensolve_matches_full_eig(fixture, request):
    # both eigensolver paths solve in the reduced coordinates; the dense
    # D x D eig of the built L is the cross-check: all D eigenvalues, the
    # zero-mode census and |gamma+-| of modes without a degenerate partner
    st = request.getfixturevalue("bos_m2_48" if fixture == "shifted"
                                 else fixture)
    rm = li.assemble_L(st)
    R = _dipole_probe(st, rm)
    if fixture == "shifted":
        rm = _shifted(rm)
    spec = spm.eigensolve(rm)
    assert spec.eigensolver.startswith(
        "dense" if fixture in ("bos_m2_complex_gauge", "shifted") else "rpa")
    full = lo.full_eig(rm, spec.tol_zero)
    scale = np.abs(spec.eigenvalues).max()
    # a complex pair w, conj(w) sorts by rounding of its real parts, so the
    # eigenvalues are matched, not compared in order
    cost = np.abs(spec.eigenvalues[:, None] - full.eigenvalues[None, :])
    assert len(full.eigenvalues) == len(spec.eigenvalues) == rm.D
    assert cost[linear_sum_assignment(cost)].max() < 1e-10 * scale
    assert len(spec.zero_modes) == len(full.zero_modes)
    np.testing.assert_array_equal(spec.retained, full.retained)
    w = spm.response_weights(spec, R)
    near = np.diff(spec.omega) < 1e-6 * scale
    lone = np.ones(len(spec.retained), dtype=bool)
    lone[:-1] &= ~near
    lone[1:] &= ~near
    assert lone.sum() > 40
    for got, want in zip((w.gamma_plus, w.gamma_minus),
                         lo.response_weights_right(full, R)):
        assert np.abs(np.abs(got[lone]) - np.abs(want[lone])).max() < 1e-10


# --- derived vectors, product weights and the loop-free sums -----------------


@pytest.fixture(scope="module")
def spec_complex(bos_m2_complex_gauge):
    spec = spm.eigensolve(li.assemble_L(bos_m2_complex_gauge))
    assert spec.eigensolver == "dense (complex L)"
    return spec


@pytest.mark.parametrize("fixture", ["bos_m2", "dist_44",
                                     "bos_m2_complex_gauge"])
def test_derived_vectors_and_product_weights(fixture, request):
    st = request.getfixturevalue(fixture)
    rm = li.assemble_L(st)
    spec = spm.eigensolve(rm)
    assert (spec.eigensolver == "rpa") == (fixture != "bos_m2_complex_gauge")
    # one store on both paths: the reduced vectors V, with R = T V; Sigma3
    # is diag(1, -1) and Sigma1 the swap of the halves in the reduced
    # coordinates, and T commutes with both (up to the rounding of the
    # lift, which can differ between columns)
    n = len(spec.retained)
    V = spec.vectors.times(np.eye(n))
    assert V.shape == (2 * rm.n, n)
    np.testing.assert_array_equal(spec.right, rm.to_space(V))
    left = np.repeat([1.0, -1.0], rm.n)[:, None] * V * spec.sng
    swap = np.roll(np.arange(2 * rm.n), rm.n)
    for got, want in zip((lo.left(spec), lo.right_neg(spec),
                          lo.left_neg(spec)),
                         (left, V.conj()[swap], left.conj()[swap])):
        want = rm.to_space(want)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    probe = _dipole_probe(st, rm)
    w = spm.response_weights(spec, probe)
    assert np.abs(w.gamma_plus - -(probe @ lo.left(spec).conj())).max() < 1e-13
    assert np.abs(w.gamma_minus
                  - -(probe @ lo.left_neg(spec).conj())).max() < 1e-13


def _probe_weights(spec, st):
    """Weights of the dipole probe of DOF 0 (the others unprobed)."""
    return spm.response_weights(spec, li.build_R(st, li.PerturbationSpec(
        f_dags=(position_operator(st.grids[0]),) + (None,) * (len(st.sets) - 1),
        omega=0.55), spec.rm))


def _arrays(parts):
    """(dphi_minus, dphi_plus, dC_minus, dC_plus), the first two per-DOF
    lists, as one flat tuple of arrays."""
    return (*parts[0], *parts[1], *parts[2:])


def _assert_matches_loop(spec, weights, omega):
    rec = spm.reconstruct(spec, weights, omega)
    got = _arrays((rec.dphi_minus, rec.dphi_plus, rec.dC_minus, rec.dC_plus))
    want = _arrays(lo.reconstruct_loop(spec, weights, omega))
    assert len(got) == len(want) == 2 * len(spec.rm.state.sets) + 2
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() < 1e-12 * max(np.abs(b).max(), 1.0)


@pytest.mark.parametrize("omega", [0.55, 2.37])
def test_reconstruct_matches_mode_loop(bos_m2_48, spec_m2, omega):
    _assert_matches_loop(spec_m2, _probe_weights(spec_m2, bos_m2_48), omega)


@pytest.mark.parametrize("fixture", ["dist_44", "dist_333"])
def test_reconstruct_matches_mode_loop_over_dofs(fixture, request):
    # dist_333 couples DOFs 0 and 2 only, and the probe drives DOF 0: DOF 1
    # is untouched
    st = request.getfixturevalue(fixture)
    spec = spm.eigensolve(li.assemble_L(st))
    _assert_matches_loop(spec, _probe_weights(spec, st), 0.55)


def test_reconstruct_matches_mode_loop_dense_complex(bos_m2_complex_gauge,
                                                     spec_complex):
    w = _probe_weights(spec_complex, bos_m2_complex_gauge)
    assert np.abs(w.gamma_plus.imag).max() > 1e-3
    _assert_matches_loop(spec_complex, w, 0.55)


def test_reconstruct_skips_undefined_sng(bos_m2_48, spec_m2):
    # the weights of the flagged (brightest) mode stay nonzero, so only the
    # skip keeps it out of either sum
    w = _probe_weights(spec_m2, bos_m2_48)
    flag = np.zeros(len(spec_m2.retained), dtype=bool)
    flag[np.argmax(abs(w.gamma_plus))] = True
    flagged = dataclasses.replace(spec_m2, sng_undefined=flag)
    _assert_matches_loop(flagged, w, 0.55)
    (full,) = spm.reconstruct(spec_m2, w, 0.55).dphi_minus
    (part,) = spm.reconstruct(flagged, w, 0.55).dphi_minus
    assert np.abs(part - full).max() > 1e-3


@pytest.mark.parametrize("which", ["rpa", "rpa_driven", "dense"])
def test_csv_writers_match_row_oracles(tmp_path, which, request, bos_m2_48):
    if which.startswith("rpa"):
        spec, st = request.getfixturevalue("spec_m2"), bos_m2_48
    else:
        st = request.getfixturevalue("bos_m2_complex_gauge")
        spec = request.getfixturevalue("spec_complex")
        assert len(spec.zero_modes) and np.abs(spec.eigenvalues.imag).max() > 0
    if which == "rpa_driven":
        # the dipole probe leaves the even sector undriven: exact zero
        # weights there
        spec = spm.eigensolve(spec.rm, drive=_dipole_probe(st, spec.rm))
    w = _probe_weights(spec, st)
    if which == "rpa_driven":
        assert np.sum(w.gamma_plus == 0) == spec.sector_sizes[0]
    header = ["config sha256 0", "tol_zero 1e-06"]
    # one call writes both files from one text table, equal to the rows
    # formatted field by field and to the table of values formatted one by
    # one, with each exact partner and each zero weight formatted as well
    spm.save_spectrum_csv(tmp_path / "fast.csv", spec, w, header,
                          weights_path=tmp_path / "fast_w.csv")
    lo.save_spectrum_csv_rows(tmp_path / "rows.csv", spec, w, header)
    lo.save_weights_csv_rows(tmp_path / "rows_w.csv", spec, w, header)
    lo.save_spectrum_csv_values(tmp_path / "values.csv", spec, w, header,
                                weights_path=tmp_path / "values_w.csv")
    spm.save_spectrum_csv(tmp_path / "fast_none.csv", spec, None, header)
    lo.save_spectrum_csv_rows(tmp_path / "rows_none.csv", spec, None, header)
    lo.save_spectrum_csv_values(tmp_path / "values_none.csv", spec, None,
                                header)
    for name in ("", "_w", "_none"):
        want = (tmp_path / f"rows{name}.csv").read_bytes()
        assert (tmp_path / f"fast{name}.csv").read_bytes() == want
        assert (tmp_path / f"values{name}.csv").read_bytes() == want


# --- factored RPA vectors ------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
CONFIG_CASES = [*sorted((ROOT / "configs").glob("*.cfg")),
                ROOT / "perfbench" / "boson_n5m4.cfg"]


@pytest.fixture(scope="module", params=CONFIG_CASES, ids=lambda p: p.stem)
def config_problem(request):
    """(response matrix, driving vector, probe frequency) of a shipped config,
    as ``mclr linres`` builds them."""
    return _linres_inputs(cli._load_config(request.param)[0])


def _linres_inputs(cfg):
    st = cli._solve_from_config(cfg)
    pert = cli._build_perturbation(cfg, st)
    rm = li.assemble_L(st)
    return rm, li.build_R(st, pert, rm), pert.omega


def test_factored_products_match_right_oracles(config_problem):
    rm, R, omega = config_problem
    spec = spm.eigensolve(rm)
    w = spm.response_weights(spec, R)
    rec = spm.reconstruct(spec, w, omega)
    # the oracles read spec.right, which the products above left unbuilt
    assert "right" not in vars(spec)
    for got, want in zip((w.gamma_plus, w.gamma_minus),
                         lo.response_weights_right(spec, R)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    got = _arrays((rec.dphi_minus, rec.dphi_plus, rec.dC_minus, rec.dC_plus))
    for a, b in zip(got, _arrays(lo.reconstruct_right(spec, w, omega))):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_command_path_keeps_rpa_vectors_factored(tmp_path, bos_m2_48,
                                                 monkeypatch):
    # eigensolve -> weights -> both CSVs -> reconstruction, as in
    # ``mclr linres``: no D x n right vectors and no lift of n columns
    rm = li.assemble_L(bos_m2_48)
    R = li.build_R(bos_m2_48, li.PerturbationSpec(
        f_dags=(position_operator(bos_m2_48.grids[0]),), omega=0.55), rm)
    widths = []
    lift = li.ResponseMatrix.lift

    def recording_lift(self, v, adjoint=False, power=0.0):
        widths.append(v.reshape(len(v), -1).shape[1])
        return lift(self, v, adjoint, power)

    monkeypatch.setattr(li.ResponseMatrix, "lift", recording_lift)
    spec = spm.eigensolve(rm)
    assert spec.eigensolver == "rpa"
    w = spm.response_weights(spec, R)
    spm.save_spectrum_csv(tmp_path / "spectrum.csv", spec, w,
                          weights_path=tmp_path / "weights.csv")
    spm.reconstruct(spec, w, 0.55)
    assert "right" not in vars(spec)
    assert widths and max(widths) <= 4 < len(spec.retained)
    # read on demand, the vectors are the factored ones and are kept
    assert spec.right.shape == (rm.D, len(spec.retained))
    assert spec.right is spec.right


# --- parity sectors ------------------------------------------------------------


def _assert_matches_one_sector(rm, R, omega, rec_tol=1e-10):
    # the sector solve against the single half-size solve of the same
    # halves: all D eigenvalues, the census, the cluster weights and the
    # reconstruction arrays, relative to the largest entry of each above 1
    spec, weights, rec = lo.sector_outputs(rm, R, omega)
    one, one_weights, one_rec = lo.sector_outputs(lo.one_sector(rm), R, omega)
    assert spec.eigensolver == one.eigensolver == "rpa"
    assert len(spec.sector_sizes) == 2 and min(spec.sector_sizes) > 0
    assert sum(spec.sector_sizes) == rm.n
    assert one.sector_sizes == (rm.n,)
    scale = np.abs(one.omega).max()
    assert np.abs(spec.eigenvalues - one.eigenvalues).max() <= 1e-12 * scale
    np.testing.assert_array_equal(spec.zero_modes, one.zero_modes)
    for got, want in zip(weights, one_weights):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10
    for got, want in zip(rec, one_rec):
        assert np.abs(got - want).max() <= rec_tol * max(np.abs(want).max(), 1.0)


def test_sector_solve_matches_one_sector_on_configs(config_problem):
    _assert_matches_one_sector(*config_problem)


def _parity_swapped(st):
    """``st`` with its orbital slots 1 and 2 swapped: for the odd fermion
    pair both leading slots are even, so the first configuration leaves
    the parity class of C and the coefficient reflector pivots elsewhere."""
    return orbital_gauge(st, np.eye(4)[[0, 2, 1, 3]])


@pytest.mark.parametrize("fixture", ["dist_44", "ferm_n2m4", "swapped",
                                     "bos_m3_odd_grid"])
def test_sector_solve_matches_one_sector(fixture, request):
    st = request.getfixturevalue("ferm_n2m4" if fixture == "swapped"
                                 else fixture)
    if fixture == "swapped":
        st = _parity_swapped(st)
    rm = li.assemble_L(st)
    # the fermion pair's reconstruction is the most sensitive to the
    # rounding-level off-sector entries that the sector solve drops (5.7e-14
    # max|L|): its response at 0.55 draws on an even and an odd mode 2.4e-4
    # apart near 2, through M^(-1/2) at a 3.7e-5 occupation; measured 2.4e-10
    _assert_matches_one_sector(rm, _dipole_probe(st, rm), 0.55, rec_tol=(
        1e-9 if st.space.statistics == "fermion" else 1e-10))


def test_odd_fermion_pair_has_odd_coefficients(ferm_n2m4):
    # one even and one odd orbital hold the pair: C lies in the odd class,
    # whose first configuration is (1, 1, 0, 0); the natural occupations
    # come in even/odd pairs, and each natural orbital has one parity
    st = ferm_n2m4
    pars, cls = li._mirror_parities(st, [s.scaled for s in st.sets], st.C)
    np.testing.assert_array_equal(pars[0], [1, -1, 1, -1])
    assert cls[0] and not cls[1] and np.abs(st.C[~cls]).max() < 1e-12
    occ, U = li.assemble_L(st).natural[0]
    assert np.abs(occ[0::2] - occ[1::2]).max() < 1e-12
    odd = np.linalg.norm(U[[1, 3]], axis=0)
    assert np.all(np.minimum(odd, np.linalg.norm(U[[0, 2]], axis=0))
                  <= li.PARITY_TOL)


def test_degenerate_natural_orbitals_are_taken_per_parity_block():
    # an even and an odd orbital share an occupation, and a 1e-14 coupling
    # between them turns eigh's pair into two mixtures; each parity block
    # of rho gives one natural orbital of each parity instead
    parities = np.array([1, -1, 1, -1])
    rho = np.diag([0.7, 0.7, 0.4, 0.2])
    rho[0, 1] = rho[1, 0] = 1e-14
    assert np.abs(np.linalg.eigh(rho)[1][:2, 2:]).min() > 0.1
    occ, U, par = li._natural_orbitals(rho, parities)
    np.testing.assert_allclose(occ, [0.2, 0.4, 0.7, 0.7], rtol=1e-13)
    np.testing.assert_array_equal(par, [-1, 1, 1, -1])
    np.testing.assert_array_equal(U[parities[:, None] != par[None, :]], 0.0)
    assert np.abs(U.T @ rho @ U - np.diag(occ)).max() < 1e-13
    # without the parities, eigh's vectors are kept
    occ, U, par = li._natural_orbitals(rho)
    assert np.all(par == 1) and np.abs(U[:2, 2:]).min() > 0.1


def test_swapped_slots_pivot_inside_the_class(ferm_n2m4):
    st = _parity_swapped(ferm_n2m4)
    rm = li.assemble_L(st)
    assert rm.householder[1] > 0
    # the spectrum does not depend on the order of the orbital slots
    want = spm.eigensolve(li.assemble_L(ferm_n2m4)).omega
    got = spm.eigensolve(rm).omega
    assert np.abs(got - want).max() < 1e-9 * want.max()


@pytest.mark.parametrize("fixture", ["bos_m2", "ferm_m3", "dist_44",
                                     "bos_m2_complex_gauge", "bos_m3_odd_grid",
                                     "swapped", "ferm_n2m4"])
def test_dense_bases_match_butterfly_wy_oracle(fixture, request):
    # lift (both ways), pull, to_space and to_reduced through the dense
    # bases and the explicit reflector of C against the butterfly frames,
    # the row swap of C and the compact-WY factors, on C-ordered and on
    # transposed (F-ordered) columns
    st = request.getfixturevalue("ferm_n2m4" if fixture == "swapped"
                                 else fixture)
    if fixture == "swapped":
        st = _parity_swapped(st)
    rm = li.assemble_L(st)
    wy = lo.wy_response(rm)
    rng = np.random.default_rng(11)
    n, half = rm.n, rm.layout.D // 2
    calls = [(n, lambda m, x: m.lift(x)),
             (half, lambda m, x: m.lift(x, adjoint=True)),
             (2 * n, lambda m, x: m.to_space(x)),
             (2 * n, lambda m, x: m.to_space(x, -0.5)),
             (2 * half, lambda m, x: m.to_reduced(x)),
             (2 * half, lambda m, x: m.to_reduced(x, 0.5))]
    calls += [(half, lambda m, x, p=p: m.pull(x, p)) for p in (0.0, 0.5, -0.5)]
    for rows, call in calls:
        x = rng.standard_normal((rows, 6)) + 1j * rng.standard_normal(
            (rows, 6))
        for v in (x, np.ascontiguousarray(x.real)):
            want = call(wy, v)
            for order in (v, np.ascontiguousarray(v.T).T):
                got = call(rm, order)
                assert got.dtype == want.dtype
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 5, 128, 300])
def test_symmetry_defects_match_full_temporaries(n, bos_m2_48):
    # the row-panel comparison gives the value of the full differences
    # a - a^H and b - b^T to the last bit, complex and real
    rng = np.random.default_rng(n)
    a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(2))
    rm = li.assemble_L(bos_m2_48)
    for a, b in ((a, b), (a.real, b.real), (a.real, 0.5 * (b + b.T).real),
                 lo.raw_halves(rm, lo.raw_blocks(bos_m2_48))):
        assert li._sigma3_defect(a, b) == lo.symmetry_defects_full(a, b)


def test_complement_columns_have_one_parity(bos_m2_48):
    # each reduced coordinate lifts to a response with the parity of its
    # sector: every orbital slot of the lift is even or odd on the grid
    rm = li.assemble_L(bos_m2_48)
    lay = rm.layout
    (occ, U), = rm.natural
    cols = rm.lift(np.eye(rm.n))
    (u,), _, cu, _ = lay.split(np.vstack([cols[:lay.orb], cols[:lay.orb],
                                          cols[lay.orb:], cols[lay.orb:]]))
    pars = li._mirror_parities(bos_m2_48, [s.scaled for s in bos_m2_48.sets],
                               bos_m2_48.C)[0][0]
    # slot a with parity p_a carries a response of parity p_a s
    want = pars[:, None, None] * lo.sectors(rm)[None, None, :]
    mirrored = u[:, ::-1, :]
    assert np.abs(mirrored - want * u).max() < 1e-13


def test_mirror_broken_grid_is_one_sector():
    # harmonic_n2_m2 on the grid [-7.5, 8.5]: the trap is mirror symmetric
    # about 0 and the walls are not
    cfg, _ = cli._load_config(ROOT / "configs" / "harmonic_n2_m2.cfg")
    low = []
    for x_min, x_max in (("-8.0", "8.0"), ("-7.5", "8.5")):
        cfg.set("grid", "x_min", x_min)
        cfg.set("grid", "x_max", x_max)
        rm, R, omega = _linres_inputs(cfg)
        spec, weights, rec = lo.sector_outputs(rm, R, omega)
        low.append(np.sort(spec.omega)[:6])
    # the QR ran in the rows of the grid and C pivots on its first row
    phi = rm.state.sets[0].scaled
    assert np.all(lo.sectors(rm) == 1) and rm.householder[1] == 0
    assert np.array_equal(rm.bases[0], li._orbital_complement(phi)[0])
    assert spec.eigensolver == "rpa" and spec.sector_sizes == (rm.n,)
    # the same solve as a forced one-sector run, bit for bit
    one, one_weights, one_rec = lo.sector_outputs(lo.one_sector(rm), R, omega)
    np.testing.assert_array_equal(spec.eigenvalues, one.eigenvalues)
    for got, want in zip((*weights, *rec), (*one_weights, *one_rec)):
        np.testing.assert_array_equal(got, want)
    # and the walls, far out, leave the low spectrum of the symmetric box
    assert np.abs(low[1] - low[0]).max() < 1e-6


def test_off_sector_entry_above_the_gate_gives_one_sector(bos_m2_48):
    # an entry between the sectors, injected through the raw orbital block
    # A as x (w_e w_o^H + w_o w_e^H), w = B U n^(1/2) e on an orbital
    # coordinate of each sector, which F^H = n^(-1/2) U^H B^H takes to
    # a[e, o] = a[o, e] = x
    rm = li.assemble_L(bos_m2_48)
    assert len(spm.parity_sectors(rm)) == 2
    n0, orb = rm.sizes[0], rm.layout.orb
    e = np.zeros((rm.n, 2))
    e[3, 0] = e[n0 + 5, 1] = 1.0
    w = rm.lift(e, power=0.5)[:orb]
    gate = spm.SECTOR_TOL * rm.scale
    for entry, sectors in ((2 * gate, 1), (0.5 * gate / np.sqrt(2), 2)):
        blocks = list(lo.raw_blocks(bos_m2_48))
        blocks[0] = blocks[0] + entry * (np.outer(w[:, 0], w[:, 1])
                                         + np.outer(w[:, 1], w[:, 0]))
        a = lo.raw_halves(rm, blocks)[0]
        assert abs(a[3, n0 + 5] - entry) < 1e-3 * entry
        mutated = li._response_matrix(bos_m2_48, blocks)
        assert len(spm.parity_sectors(mutated)) == sectors
        if sectors == 1:
            spec = spm.eigensolve(mutated)
            assert spec.eigensolver == "rpa" and spec.sector_sizes == (rm.n,)


def test_sector_gate_gathers_one_off_sector_block(dist_44):
    # the gate is the verdict the assembly recorded, and the solve factors
    # the stored sector blocks as they are: no block of a or b is gathered.
    # It holds per sector its factor K, its eigenvectors Z and the inverted
    # diagonal blocks of K, and one lower product at a time: less than
    # 3.25 times the sector blocks of one half
    rm = li.assemble_L(dist_44)
    block = sum(m.nbytes for m, _ in rm.halves)
    tracemalloc.start()
    try:
        assert len(spm.parity_sectors(rm)) == 2
        spec = spm.eigensolve(rm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.eigensolver == "rpa" and spec.sector_sizes == rm.sizes
    assert peak < 3.25 * block


# --- driven sectors: eigenvectors only where the probe reaches ---------------


def _sector_modes(spec):
    """(modes, has vectors) of each sector of an RPA spectrum."""
    return [(modes, Z is not None) for _, modes, _, Z, _ in spec.vectors.sectors]


def _assert_drive_matches_all_vectors(rm, R, omega):
    # the solve with the drive against the one that keeps every vector:
    # the eigenvalues and the census, the weights of the driven sectors bit
    # for bit and exact zeros in the others, the cluster weights and the
    # reconstruction; returns the driven spectrum
    spec, clusters, rec = lo.sector_outputs(rm, R, omega, drive=R)
    full, full_clusters, full_rec = lo.sector_outputs(rm, R, omega)
    assert spec.eigensolver == full.eigensolver == "rpa"
    assert spec.sector_sizes == full.sector_sizes
    assert full.driven_sizes == full.sector_sizes
    scale = np.abs(full.omega).max()
    assert np.abs(spec.eigenvalues - full.eigenvalues).max() <= 1e-12 * scale
    np.testing.assert_array_equal(spec.zero_modes, full.zero_modes)
    w, fw = spm.response_weights(spec, R), spm.response_weights(full, R)
    for (modes, driven), (full_modes, _) in zip(_sector_modes(spec),
                                                _sector_modes(full)):
        for got, want in ((w.gamma_plus, fw.gamma_plus),
                          (w.gamma_minus, fw.gamma_minus)):
            if driven:
                np.testing.assert_array_equal(got[modes], want[full_modes])
            else:
                assert np.all(got[modes] == 0)
    for got, want in zip(clusters, full_clusters):
        assert np.abs(got - want).max() <= 1e-10
    for got, want in zip(rec or (), full_rec or ()):
        assert np.abs(got - want).max() <= 1e-10 * max(np.abs(want).max(), 1.0)
    return spec


def test_drive_matches_all_vectors_on_configs(config_problem):
    # the dipole probe of every shipped config reaches its odd sector only
    spec = _assert_drive_matches_all_vectors(*config_problem)
    assert len(spec.sector_sizes) == 2 and len(spec.driven_sizes) == 1


@pytest.mark.parametrize("fixture", ["dist_44", "ferm_n2m4", "swapped",
                                     "bos_m3_odd_grid"])
def test_drive_matches_all_vectors(fixture, request):
    st = request.getfixturevalue("ferm_n2m4" if fixture == "swapped"
                                 else fixture)
    if fixture == "swapped":
        st = _parity_swapped(st)
    rm = li.assemble_L(st)
    spec = _assert_drive_matches_all_vectors(rm, _dipole_probe(st, rm), 0.55)
    assert len(spec.sector_sizes) == 2 and len(spec.driven_sizes) == 1


def _assert_same_outputs(rm, R, omega, drive):
    # with ``drive`` the eigensolve forms every vector: all outputs equal
    # those of drive=None bit for bit
    spec, clusters, rec = lo.sector_outputs(rm, R, omega, drive=drive)
    full, full_clusters, full_rec = lo.sector_outputs(rm, R, omega)
    assert spec.driven_sizes == spec.sector_sizes == full.sector_sizes
    np.testing.assert_array_equal(spec.eigenvalues, full.eigenvalues)
    w, fw = spm.response_weights(spec, R), spm.response_weights(full, R)
    for got, want in zip((w.gamma_plus, w.gamma_minus, *clusters, *rec),
                         (fw.gamma_plus, fw.gamma_minus, *full_clusters,
                          *full_rec)):
        np.testing.assert_array_equal(got, want)
    return spec


def _mixed_probe(st, rm):
    # diag(x + x^2): an odd and an even part
    grid = st.grids[0]
    return li.build_R(st, li.PerturbationSpec(f_dags=(diagonal_operator(
        grid, grid.points + grid.points ** 2),), omega=0.55), rm)


def test_mixed_parity_probe_forms_both_sectors(bos_m2_48):
    rm = li.assemble_L(bos_m2_48)
    R = _mixed_probe(bos_m2_48, rm)
    spec = _assert_same_outputs(rm, R, 0.55, R)
    assert spec.eigensolver == "rpa" and len(spec.sector_sizes) == 2


def test_one_sector_and_dense_path_ignore_the_drive(bos_m2_48):
    # a mirror-broken grid is one sector, which a nonzero drive reaches
    cfg, _ = cli._load_config(ROOT / "configs" / "harmonic_n2_m2.cfg")
    cfg.set("grid", "x_min", "-7.5")
    cfg.set("grid", "x_max", "8.5")
    rm, R, omega = _linres_inputs(cfg)
    spec = _assert_same_outputs(rm, R, omega, R)
    assert spec.eigensolver == "rpa" and spec.sector_sizes == (rm.n,)
    # the dense path forms every vector, for any drive
    rm = li.assemble_L(bos_m2_48)
    R = _dipole_probe(bos_m2_48, rm)
    for drive in (R, np.zeros((rm.D, 0))):
        spec = spm.eigensolve(rm, tol_zero=1.5, drive=drive)
        full = spm.eigensolve(rm, tol_zero=1.5)
        assert spec.eigensolver == "dense (an excitation at or below tol_zero)"
        assert spec.driven_sizes == spec.sector_sizes == (rm.n,)
        np.testing.assert_array_equal(spec.eigenvalues, full.eigenvalues)
        np.testing.assert_array_equal(spec.right, full.right)


def test_tol_zero_fallback_inverts_no_factor_block(monkeypatch):
    # both gates of the half-size solve run before the diagonal blocks of
    # its Cholesky factors are inverted: the --tol-zero 1.5 fallback of
    # harmonic_n2_m2 to the dense path inverts none
    cfg, _ = cli._load_config(ROOT / "configs" / "harmonic_n2_m2.cfg")
    rm, R, _ = _linres_inputs(cfg)
    inverted, inv = [], spm.sla.inv
    with monkeypatch.context() as m:
        m.setattr(spm.sla, "inv", lambda a: inverted.append(a) or inv(a))
        spec = spm.eigensolve(rm, tol_zero=1.5, drive=R)
    assert spec.eigensolver == "dense (an excitation at or below tol_zero)"
    assert inverted == []


def test_undriven_sector_refuses_its_modes(bos_m2_48):
    rm = li.assemble_L(bos_m2_48)
    spec = spm.eigensolve(rm, drive=_dipole_probe(bos_m2_48, rm))
    (even, even_driven), (odd, odd_driven) = (
        (modes, driven) for modes, driven in _sector_modes(spec))
    assert odd_driven and not even_driven
    with pytest.raises(ValueError, match="undriven parity sector"):
        spec.right
    c = np.zeros((len(spec.retained), 1))
    c[odd[0]] = 1.0
    assert np.abs(spec.right_times(c)).max() > 0
    c[even[0]] = 1e-300
    with pytest.raises(ValueError, match="undriven parity sector"):
        spec.right_times(c)
    # a response of the even sector, and one of the odd sector
    n, sector = rm.n, lo.sectors(rm)
    e = np.zeros((2 * n, 2))
    e[np.flatnonzero(sector > 0)[0], 0] = e[np.flatnonzero(sector < 0)[0], 1] = 1
    v = rm.to_space(e)
    got = spec.right_transpose_times(v[:, 1:])
    assert np.all(got[even] == 0) and np.abs(got[odd]).max() > 0
    with pytest.raises(ValueError, match="undriven parity sector"):
        spec.right_transpose_times(v[:, :1])


@pytest.mark.parametrize("probe,eigh,eigvalsh", [
    ("dipole", 1, 1), ("mixed", 2, 0), ("empty", 0, 2)])
def test_vectors_only_for_driven_sectors(bos_m2_48, monkeypatch, probe, eigh,
                                         eigvalsh):
    # spm.sla is numpy.linalg, which the assembly uses too: it is counted
    # around the eigensolve alone
    rm = li.assemble_L(bos_m2_48)
    drive = {"dipole": _dipole_probe, "mixed": _mixed_probe}.get(
        probe, lambda st, rm: np.zeros((rm.D, 0)))(bos_m2_48, rm)
    calls = []

    def counted(name):
        def call(*args, **kwargs):
            calls.append(name)
            return getattr(np.linalg, name)(*args, **kwargs)
        return call

    with monkeypatch.context() as m:
        m.setattr(spm, "sla", SimpleNamespace(
            **{k: getattr(np.linalg, k) for k in ("cholesky", "inv",
                                                  "LinAlgError", "eig")},
            eigh=counted("eigh"), eigvalsh=counted("eigvalsh")))
        spec = spm.eigensolve(rm, drive=drive)
    assert spec.eigensolver == "rpa" and len(spec.sector_sizes) == 2
    assert (calls.count("eigh"), calls.count("eigvalsh")) == (eigh, eigvalsh)
    assert len(calls) == 2
    assert len(spec.driven_sizes) == eigh


@pytest.mark.parametrize("fixture", ["bos_m2", "ferm_m3", "dist_44",
                                     "bos_m2_complex_gauge", "free_m2"])
def test_null_vector_residual_matches_dense_oracle(fixture, request):
    # the x half of T^H Z formed part by part, with no D-row array of null
    # vectors, against the pull of the dense null vectors
    rm = li.assemble_L(request.getfixturevalue(fixture))
    got = spm.classify_zero_modes(spm.eigensolve(rm))["constructed_residual"]
    want = lo.null_vector_residual(rm)
    assert got < 1e-13 and abs(got - want) <= 1e-14 * want
