"""Grid construction, kinetic matrix, potentials, and kernel tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclr import grid as gr

import loop_oracles as lo


def test_build_grid_small_example():
    g = gr.build_grid(4, 0.0, 5.0)
    assert np.allclose(g.points, [1.0, 2.0, 3.0, 4.0])
    assert g.weight == pytest.approx(1.0)


def test_build_grid_symmetric():
    g = gr.build_grid(8, -4.0, 4.0)
    assert np.allclose(g.points, -g.points[::-1])
    assert len(g.points) == 8


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        gr.build_grid(3, 0.0, 1.0)
    with pytest.raises(ValueError):
        gr.build_grid(8, 1.0, 1.0)
    with pytest.raises(ValueError):
        gr.build_grid(8, 0.0, np.inf)


def test_kinetic_eigenvalues_are_box_levels():
    g = gr.build_grid(32, -5.0, 5.0)
    T = gr.kinetic_matrix(g, mass=1.0)
    L = g.x_max - g.x_min
    expect = np.arange(1, 33) ** 2 * np.pi**2 / (2 * L**2)
    assert np.allclose(np.linalg.eigvalsh(T.matrix), expect, rtol=1e-12)


@pytest.mark.parametrize("n", [4, 5, 47, 48, 64, 128, 256])
@pytest.mark.parametrize("mass, x_min, x_max", [(1.0, -8.0, 8.0),
                                                (2.3, -7.5, 8.5)])
def test_kinetic_matrix_matches_full_argument_formula(n, mass, x_min, x_max):
    # 1/sin^2 on the 2n + 1 distinct arguments, gathered, against the
    # formula evaluated on the full n x n difference and sum arrays
    g = gr.build_grid(n, x_min, x_max)
    T = gr.kinetic_matrix(g, mass).matrix
    ref = lo.kinetic_matrix(g, mass)
    assert np.abs(T - ref).max() <= 2e-16 * np.abs(ref).max()
    assert np.array_equal(T, T.T)


def test_kinetic_matrix_real_symmetric_nonnegative():
    g = gr.build_grid(16, -3.0, 3.0)
    T = gr.kinetic_matrix(g).matrix
    assert np.abs(T.imag).max() == 0.0
    assert np.abs(T - T.T).max() < 1e-12
    assert np.linalg.eigvalsh(T).min() > 0.0


def test_kinetic_mass_scaling():
    g = gr.build_grid(16, -3.0, 3.0)
    t1 = np.linalg.eigvalsh(gr.kinetic_matrix(g, mass=1.0).matrix)
    t2 = np.linalg.eigvalsh(gr.kinetic_matrix(g, mass=2.0).matrix)
    assert np.allclose(t2, 0.5 * t1)


def test_harmonic_potential_values():
    g = gr.build_grid(9, -5.0, 5.0)
    V = gr.harmonic_potential(g, omega0=1.0).matrix
    i0 = np.argmin(np.abs(g.points))
    assert V[i0, i0] == pytest.approx(0.0)
    i2 = np.argmin(np.abs(g.points - 2.0))
    assert V[i2, i2].real == pytest.approx(2.0)


def test_oscillator_ground_energy():
    g = gr.build_grid(64, -8.0, 8.0)
    for omega in (1.0, 2.0):
        h = gr.kinetic_matrix(g).matrix + gr.harmonic_potential(g, omega).matrix
        e0 = np.linalg.eigvalsh(h)[0]
        assert e0 == pytest.approx(omega / 2, abs=1e-8)


def test_contact_kernel_diagonal():
    g = gr.build_grid(4, 0.0, 1.25)          # weight 0.25
    W = gr.discretize_kernel(g, gr.TwoBodyKernel("contact", strength=1.0))
    assert W[0, 0] == pytest.approx(4.0)
    assert np.abs(W - np.diag(np.diag(W))).max() == 0.0


def test_gaussian_kernel_diagonal_and_symmetry():
    g = gr.build_grid(12, -2.0, 2.0)
    W = gr.discretize_kernel(
        g, gr.TwoBodyKernel("gaussian", strength=0.7, width=0.4))
    assert np.allclose(np.diag(W), 0.7)
    assert np.abs(W - W.T).max() == 0.0


def test_general_kernel_rejects_asymmetric_table():
    g = gr.build_grid(4, 0.0, 1.0)
    bad = np.arange(16.0).reshape(4, 4)
    with pytest.raises(ValueError):
        gr.discretize_kernel(g, gr.TwoBodyKernel("general", table=bad))


def test_dvr_eigenfunctions_orthonormal():
    # eigenvectors of the kinetic matrix, renormalized to grid values,
    # must be quadrature-orthonormal
    g = gr.build_grid(32, -4.0, 4.0)
    _, vecs = np.linalg.eigh(gr.kinetic_matrix(g).matrix)
    funcs = vecs.T / np.sqrt(g.weight)
    overlaps = g.weight * (funcs.conj() @ funcs.T)
    assert np.abs(overlaps - np.eye(32)).max() < 1e-10


def test_hermitian_flag_enforced():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        gr.OneBodyOperator(np.pad(m, ((0, 2), (0, 2))), hermitian=True)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_inner_product_conjugate_symmetry(seed):
    g = gr.build_grid(16, -2.0, 2.0)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert g.inner(a, b) == pytest.approx(np.conj(g.inner(b, a)))
