"""Independent references: exact diagonalization, bare-equation response,
condensate pair theory, and closed-form normal modes."""

import numpy as np
import pytest

from mclr import OneBodyOperator, TwoBodyKernel, build_grid, position_operator
from mclr import oracle as orc

from conftest import oscillator_h


@pytest.fixture(scope="module")
def small_grid():
    return build_grid(24, -6.0, 6.0)


@pytest.fixture(scope="module")
def small_h(small_grid):
    return oscillator_h(small_grid)


@pytest.fixture(scope="module")
def eig_boson(small_grid, small_h):
    return orc.exact_diag_grid(
        2, "boson", small_grid, small_h,
        TwoBodyKernel("contact", strength=0.5))


def test_single_particle_reproduces_dvr_spectrum(small_grid, small_h):
    eig = orc.exact_diag_grid(1, "boson", small_grid, small_h, None)
    ref = np.linalg.eigvalsh(small_h.matrix)
    assert np.allclose(eig.energies, ref, atol=1e-10)


def test_free_boson_pair_energies(small_grid, small_h):
    eig = orc.exact_diag_grid(2, "boson", small_grid, small_h, None)
    # sums of two oscillator levels with bosonic degeneracies: 1, 2, 2, 3...
    assert np.allclose(eig.energies[:4], [1.0, 2.0, 3.0, 3.0], atol=1e-6)


def test_free_fermion_pair_energies(small_grid, small_h):
    eig = orc.exact_diag_grid(2, "fermion", small_grid, small_h, None)
    # Pauli filtering removes the symmetric combinations: 0.5+1.5, 0.5+2.5, ...
    assert np.allclose(eig.energies[:3], [2.0, 3.0, 4.0], atol=1e-6)


def test_three_boson_free_case():
    g = build_grid(16, -5.0, 5.0)
    h = oscillator_h(g)
    eig = orc.exact_diag_grid(3, "boson", g, h, None)
    assert eig.energies[0] == pytest.approx(1.5, abs=1e-4)


def test_basis_size_guard(small_grid, small_h):
    with pytest.raises(ValueError):
        orc.exact_diag_grid(4, "boson", small_grid, small_h, None)


def test_variational_bound_against_mchx(grid48, h48, bos_m2_48):
    kern = TwoBodyKernel("contact", strength=0.3)
    exact = orc.exact_diag_grid(2, "boson", grid48, h48, kern).energies[0]
    assert exact <= bos_m2_48.energy + 1e-10


def test_se_response_branches_exact(eig_boson, small_grid):
    res = orc.se_linear_response(eig_boson, position_operator(small_grid), 0.37)
    gaps = res["gaps"]
    assert np.abs(res["omega_plus"] - gaps).max() <= 1e-12 * gaps.max()
    assert np.abs(res["omega_minus"] + gaps).max() <= 1e-12 * gaps.max()


def test_se_resolutions(eig_boson, small_grid):
    res = orc.se_linear_response(eig_boson, position_operator(small_grid), 0.37)
    assert res["identity_defect"] < 1e-12
    assert res["spectral_defect"] < 1e-12


def test_se_commuting_probe_is_dark(eig_boson, small_grid):
    # a probe proportional to the identity commutes with H: no transition
    # amplitudes survive
    ident = OneBodyOperator(np.eye(small_grid.n_points))
    res = orc.se_linear_response(eig_boson, ident, 0.41)
    assert np.abs(res["c_plus"]).max() < 1e-10
    assert np.abs(res["c_minus"]).max() < 1e-10


def test_se_expansion_coefficients(eig_boson, small_grid):
    omega = 0.37
    res = orc.se_linear_response(eig_boson, position_operator(small_grid), omega)
    F = orc.build_probe_matrix(eig_boson, position_operator(small_grid))
    gaps = res["gaps"]
    assert np.allclose(res["c_plus"], F[1:, 0] / (omega - gaps), atol=1e-12)
    assert np.allclose(res["c_minus"], -np.conj(F[0, 1:]) / (omega + gaps),
                       atol=1e-12)


def test_se_pole_rejected(eig_boson, small_grid):
    pole = eig_boson.energies[1] - eig_boson.energies[0]
    with pytest.raises(ValueError):
        orc.se_linear_response(eig_boson, position_operator(small_grid), pole)


def test_bdg_free_limit(grid64, h64):
    out = orc.bdg_reference(grid64, h64, 0.0, 2)
    # no interaction: excitation gaps of the bare trap
    assert np.allclose(out["frequencies"][:3], [1.0, 2.0, 3.0], atol=1e-7)


def test_bdg_uv_normalization(bos_m1):
    out = orc.bdg_reference(bos_m1.grids[0], bos_m1.h_ops[0], 0.1, 2,
                            condensate=bos_m1.sets[0].orbitals[0])
    assert out["norm_defects"].max() < 1e-10


def test_coupled_oscillator_reference_values():
    ref = orc.coupled_oscillators_reference(0.2)
    assert ref[0] == pytest.approx(np.sqrt(0.8))
    assert ref[1] == pytest.approx(np.sqrt(1.2))
    flat = orc.coupled_oscillators_reference(0.0)
    assert np.allclose(flat, [1.0, 1.0])
    with pytest.raises(ValueError):
        orc.coupled_oscillators_reference(1.0)


def test_coupled_oscillator_soft_mode():
    lam = 0.9999
    ref = orc.coupled_oscillators_reference(lam)
    assert ref[0] < 0.02


def test_symmetrizer_columns_orthonormal():
    for stats in ("boson", "fermion"):
        labels, S = orc.symmetrized_basis(4, 3, stats)
        G = (S.T.conj() @ S).toarray()
        assert np.abs(G - np.eye(len(labels))).max() < 1e-12
