"""Configuration enumeration and second-quantized operator action."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclr import fockspace as fs
from mclr import linres_identical as li
from mclr import oracle as orc

import loop_oracles as lo
from conftest import random_state_vector


def test_boson_enumeration():
    sp = fs.enumerate_configs("boson", N=2, M=2)
    assert sp.size == 3
    assert sp.configs == ((2, 0), (1, 1), (0, 2))


def test_fermion_enumeration():
    sp = fs.enumerate_configs("fermion", N=2, M=3)
    assert sp.size == 3
    assert sp.configs[0] == (1, 1, 0)


def test_distinguishable_enumeration():
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 3))
    assert sp.size == 6
    assert sp.configs[0] == (0, 0)
    assert sp.configs[1] == (0, 1)          # row-major: last slot fastest


def test_fermion_overfilling_rejected():
    with pytest.raises(ValueError):
        fs.enumerate_configs("fermion", N=3, M=2)


@pytest.mark.parametrize("statistics, counts", [
    ("boson", {"N": 2, "M": 2.5}),           # recursed without end
    ("boson", {"N": 2.0, "M": 2}),
    ("fermion", {"N": 2, "M": 3.5}),
    ("fermion", {"N": True, "M": 2}),        # a bool is not a count
    ("distinguishable", {"M_list": [2.5, 2]}),  # was cut to (2, 2)
    ("distinguishable", {"M_list": (2, True)}),
    ("distinguishable", {"M_list": np.array([2.5, 2])}),
], ids=["boson-M", "boson-N", "fermion-M", "fermion-bool", "dist-M_list",
        "dist-bool", "dist-array"])
def test_non_integer_counts_rejected(statistics, counts):
    with pytest.raises(ValueError, match="must be integers"):
        fs.enumerate_configs(statistics, **counts)


def test_numpy_integer_counts_accepted():
    sp = fs.enumerate_configs("boson", N=np.int64(2), M=np.int64(2))
    assert sp.size == 3
    sp = fs.enumerate_configs("dist", M_list=[np.int64(2), 3])
    assert sp.M_list == (2, 3)
    # an integer array, not only a list of numpy integers
    sp = fs.enumerate_configs("dist", M_list=np.array([2, 3]))
    assert sp.M_list == (2, 3)
    with pytest.raises(ValueError, match="need all M_j >= 1"):
        fs.enumerate_configs("dist", M_list=np.array([], dtype=int))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("boson", 2, 3), ("boson", 3, 2), ("fermion", 2, 4),
                        ("fermion", 3, 5)]))
def test_rank_unrank_roundtrip(case):
    stats, N, M = case
    # a configuration's rank is its index in ``configs``: the
    # configurations are distinct, in descending lexicographic order
    sp = fs.enumerate_configs(stats, N=N, M=M)
    for i in range(sp.size):
        assert sp.configs.index(sp.configs[i]) == i
    assert list(sp.configs) == sorted(sp.configs, reverse=True)


def test_number_operator_on_condensate():
    sp = fs.enumerate_configs("boson", N=2, M=2)
    C = np.zeros(3, complex)
    C[sp.configs.index((2, 0))] = 1.0
    assert np.allclose(lo.apply_rho_kq(sp, C, 1, 1), 0.0)
    out = lo.apply_rho_kq(sp, C, 0, 0)
    assert out[sp.configs.index((2, 0))] == pytest.approx(2.0)


def test_fermion_hop_sign():
    # moving a particle from the first to the third orbital across an
    # occupied middle orbital picks up one transposition sign
    sp = fs.enumerate_configs("fermion", N=2, M=3)
    C = np.zeros(3, complex)
    C[sp.configs.index((1, 1, 0))] = 1.0
    out = lo.apply_rho_kq(sp, C, 2, 0)
    val = out[sp.configs.index((0, 1, 1))]
    ref = lo.first_quantized_one_body(3, 2, "fermion", 2, 0)
    labels, _ = orc.symmetrized_basis(3, 2, "fermion")
    i_src = labels.index((0, 1))
    i_dst = labels.index((1, 2))
    assert val == pytest.approx(ref[i_dst, i_src])
    assert abs(val) == pytest.approx(1.0)


def test_pair_move_ladder_factors():
    # two particles hopping together from orbital 2 to orbital 1 carry
    # sqrt(2) * sqrt(2); acting on the split configuration annihilates
    sp = fs.enumerate_configs("boson", N=2, M=2)
    C = np.zeros(3, complex)
    C[sp.configs.index((0, 2))] = 1.0
    out = lo.apply_rho_kslq(sp, C, 0, 0, 1, 1)
    assert out[sp.configs.index((2, 0))] == pytest.approx(2.0)
    C11 = np.zeros(3, complex)
    C11[sp.configs.index((1, 1))] = 1.0
    assert np.allclose(lo.apply_rho_kslq(sp, C11, 0, 0, 1, 1), 0.0)


def test_two_body_annihilates_empty():
    sp = fs.enumerate_configs("boson", N=2, M=3)
    C = np.zeros(sp.size, complex)
    C[sp.configs.index((2, 0, 0))] = 1.0
    assert np.allclose(lo.apply_rho_kslq(sp, C, 0, 0, 1, 1), 0.0)


def test_fermion_double_annihilation_zero():
    sp = fs.enumerate_configs("fermion", N=2, M=3)
    for i in range(sp.size):
        C = np.zeros(sp.size, complex)
        C[i] = 1.0
        assert np.allclose(lo.apply_rho_kslq(sp, C, 0, 0, 1, 1), 0.0)


def test_reduced_densities_balanced_pair():
    sp = fs.enumerate_configs("boson", N=2, M=2)
    C = np.zeros(3, complex)
    C[sp.configs.index((1, 1))] = 1.0
    rd = fs.reduced_densities(sp, C)
    assert np.allclose(rd.rho1, np.eye(2))
    assert rd.rho2[0, 1, 1, 0] == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6),
       st.sampled_from([("boson", 2, 2), ("boson", 3, 2), ("fermion", 2, 3)]))
def test_trace_rho1_counts_particles(seed, case):
    stats, N, M = case
    sp = fs.enumerate_configs(stats, N=N, M=M)
    C = random_state_vector(sp.size, seed)
    rd = fs.reduced_densities(sp, C)
    assert np.trace(rd.rho1) == pytest.approx(N)
    occ = np.linalg.eigvalsh(rd.rho1)
    assert occ.min() > -1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_hermitian_adjoint_pairing(seed):
    sp = fs.enumerate_configs("boson", N=2, M=3)
    C = random_state_vector(sp.size, seed)
    D = random_state_vector(sp.size, seed + 1)
    for k in range(3):
        for q in range(3):
            lhs = np.vdot(C, lo.apply_rho_kq(sp, D, k, q))
            rhs = np.conj(np.vdot(D, lo.apply_rho_kq(sp, C, q, k)))
            assert lhs == pytest.approx(rhs)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_commutator_identity(seed):
    # [rho_kq, rho_qk] = rho_kk - rho_qq for bosons, k != q
    sp = fs.enumerate_configs("boson", N=3, M=2)
    C = random_state_vector(sp.size, seed)
    k, q = 0, 1
    a = lo.apply_rho_kq(sp, lo.apply_rho_kq(sp, C, q, k), k, q)
    b = lo.apply_rho_kq(sp, lo.apply_rho_kq(sp, C, k, q), q, k)
    rhs = lo.apply_rho_kq(sp, C, k, k) - lo.apply_rho_kq(sp, C, q, q)
    assert np.allclose(a - b, rhs, atol=1e-12)


def test_second_quantized_identity_counts():
    sp = fs.enumerate_configs("boson", N=3, M=2)
    C = random_state_vector(sp.size, 5)
    out = fs.apply_second_quantized(sp, C, np.eye(2))
    assert np.allclose(out, 3 * C)


def test_second_quantized_diagonal_h():
    sp = fs.enumerate_configs("fermion", N=2, M=3)
    e = np.array([0.3, 0.9, 2.1])
    for i, occ in enumerate(sp.configs):
        C = np.zeros(sp.size, complex)
        C[i] = 1.0
        out = fs.apply_second_quantized(sp, C, np.diag(e))
        assert out[i] == pytest.approx(np.dot(e, occ))


def test_second_quantized_matches_first_quantized():
    # random two-boson instance against the dense symmetrized matrix
    rng = np.random.default_rng(11)
    M, N = 2, 2
    sp = fs.enumerate_configs("boson", N=N, M=M)
    h = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    h = 0.5 * (h + h.conj().T)
    W = rng.standard_normal((M,) * 4)
    W = W + W.transpose(1, 0, 3, 2)            # coordinate swap symmetry
    W = 0.5 * (W + W.transpose(2, 3, 0, 1))    # hermiticity of the kernel

    labels, _ = orc.symmetrized_basis(M, N, "boson")
    perm = []
    for lab in labels:
        occ = [0] * M
        for p in lab:
            occ[p] += 1
        perm.append(sp.configs.index(tuple(occ)))
    P = np.zeros((sp.size, sp.size))
    for col, row in enumerate(perm):
        P[row, col] = 1.0

    ref = np.zeros((sp.size, sp.size), complex)
    for k in range(M):
        for q in range(M):
            ref += h[k, q] * (P @ lo.first_quantized_one_body(M, N, "boson", k, q) @ P.T)
            for s in range(M):
                for l in range(M):
                    ref += 0.5 * W[k, s, q, l] * (
                        P @ lo.first_quantized_two_body(M, N, "boson", k, s, l, q) @ P.T)

    mine = np.zeros_like(ref)
    for col in range(sp.size):
        e = np.zeros(sp.size, complex)
        e[col] = 1.0
        mine[:, col] = fs.apply_second_quantized(sp, e, h, W)
    assert np.abs(mine - ref).max() < 1e-13


# --- compiled operator table against the per-key scatter

# N = M, N = 1 and M = 1 included
TABLE_CASES = [("boson", 3, 3), ("boson", 1, 3), ("boson", 4, 1),
               ("boson", 3, 2), ("fermion", 3, 3), ("fermion", 1, 3),
               ("fermion", 1, 1), ("fermion", 2, 4)]


def _rel(mine, ref):
    """Largest deviation relative to the largest reference entry; a zero
    reference (two-body terms of one particle) must be matched exactly."""
    return np.abs(mine - ref).max() / max(np.abs(ref).max(), 1e-300)


@pytest.mark.parametrize("case", TABLE_CASES)
def test_compiled_table_matches_per_key_scatter(case):
    stats, N, M = case
    sp = fs.enumerate_configs(stats, N=N, M=M)
    rng = np.random.default_rng(10 * N + M)
    # complex and neither Hermitian nor symmetric under coordinate swap
    h = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    W = rng.standard_normal((M,) * 4) + 1j * rng.standard_normal((M,) * 4)
    C = random_state_vector(sp.size, N + M)

    assert _rel(fs.apply_second_quantized(sp, None, h, W),
                lo.second_quantized_matrix(sp, h, W)) < 1e-13
    assert _rel(fs.apply_second_quantized(sp, None, h),
                lo.second_quantized_matrix(sp, h)) < 1e-13
    assert _rel(fs.apply_second_quantized(sp, C, h, W),
                lo.second_quantized(sp, C, h, W)) < 1e-13
    rd = fs.reduced_densities(sp, C)
    rho1, rho2 = lo.reduced_densities(sp, C)
    assert _rel(rd.rho1, rho1) < 1e-13
    assert _rel(rd.rho2, rho2) < 1e-13
    one, two = li._mapped_vectors(SimpleNamespace(space=sp, C=C))
    ref_one, ref_two = lo.mapped_vectors(sp, C)
    assert _rel(one, ref_one) < 1e-13
    assert _rel(two, ref_two) < 1e-13
    for k, s, l, q in np.ndindex(M, M, M, M):
        assert np.array_equal(lo.apply_rho_kslq(sp, C, k, s, l, q),
                              lo.scatter(sp, C, (k, s, l, q)))
    for k, q in np.ndindex(M, M):
        assert np.array_equal(lo.apply_rho_kq(sp, C, k, q),
                              lo.scatter(sp, C, (k, q)))


def test_compiled_table_layout():
    sp = fs.enumerate_configs("boson", N=4, M=3)
    t = sp.table
    assert sp.table is t                      # compiled once per space
    assert t.n_keys == 3**2 + 3**4
    assert np.all(np.diff(t.key) >= 0)
    for key in range(t.n_keys):
        e = slice(t.start[key], t.start[key + 1])
        assert np.all(t.key[e] == key)
        assert len(np.unique(t.src[e])) == len(np.unique(t.dst[e])) == e.stop - e.start
    # c_0^dag c_0^dag c_2 c_2 takes (n0, n1, 2+) to (n0 + 2, n1, n2 - 2)
    e = slice(t.start[9 + 2 * 3 + 2], t.start[9 + 2 * 3 + 3])
    for i, j, f in zip(t.src[e], t.dst[e], t.fac[e]):
        n0, n1, n2 = sp.configs[i]
        assert sp.configs[j] == (n0 + 2, n1, n2 - 2)
        assert f == pytest.approx(np.sqrt(n2 * (n2 - 1) * (n0 + 1) * (n0 + 2)))


# --- distinguishable branch


def test_tensor_density_action_moves_amplitude():
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 2))
    C = np.zeros(4, complex)
    C[sp.configs.index((0, 0))] = 1.0
    out = lo.tensor_density_action(sp, C, 0, 1, 0)
    assert out[sp.configs.index((1, 0))] == pytest.approx(1.0)
    assert np.abs(out).sum() == pytest.approx(1.0)


def test_tensor_density_diagonal_projects():
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 3))
    C = random_state_vector(sp.size, 3)
    out = lo.tensor_density_action(sp, C, 1, 2, 2)
    for i, cfg in enumerate(sp.configs):
        expect = C[i] if cfg[1] == 2 else 0.0
        assert out[i] == pytest.approx(expect)


def test_tensor_density_resolution_of_identity():
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 3))
    C = random_state_vector(sp.size, 9)
    for j, Mj in enumerate(sp.M_list):
        acc = sum(lo.tensor_density_action(sp, C, j, n, n) for n in range(Mj))
        assert np.allclose(acc, C)


def test_dist_reduced_density_matches_double_loop():
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 3))
    C = random_state_vector(sp.size, 17)
    rho = fs.dist_reduced_density(sp, C, (1,))
    ref = np.zeros((3, 3), complex)
    for n in range(3):
        for m in range(3):
            ref[n, m] = np.vdot(C, lo.tensor_density_action(sp, C, 1, n, m))
    assert np.allclose(rho, ref)


def test_dist_product_state_rank_one():
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 2))
    a = random_state_vector(2, 1)
    b = random_state_vector(2, 2)
    C = np.kron(a, b)
    rd = fs.reduced_densities(sp, C)
    for rho in rd.rho1:
        occ = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert occ[0] == pytest.approx(1.0)
        assert abs(occ[1]) < 1e-12


def test_apply_hamiltonian_dist_uncoupled():
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 2))
    e1, e2 = np.diag([0.5, 1.5]), np.diag([0.5, 1.5])
    for i, cfg in enumerate(sp.configs):
        C = np.zeros(sp.size, complex)
        C[i] = 1.0
        out = lo.apply_hamiltonian_dist(sp, C, [e1, e2])
        assert out[i] == pytest.approx(e1[cfg[0], cfg[0]] + e2[cfg[1], cfg[1]])
