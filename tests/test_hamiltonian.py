"""Orbital-space matrix elements, potentials, exchange, and mean fields."""

import numpy as np
import pytest

from mclr import OneBodyOperator, PairCoupling, AllBodyTable, TwoBodyKernel
from mclr import build_grid, discretize_kernel
from mclr import fockspace as fs
from mclr import hamiltonian as ham

import loop_oracles as lo
from conftest import oscillator_h, random_state_vector


def _osc_orbitals(grid, M):
    h = oscillator_h(grid)
    _, vecs = np.linalg.eigh(h.matrix)
    return ham.OrbitalSet(vecs[:, :M].T / np.sqrt(grid.weight), grid)


def _random_orbitals(grid, M, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((M, grid.n_points)) \
        + 1j * rng.standard_normal((M, grid.n_points))
    return ham.OrbitalSet(raw, grid).orthonormalized()


def test_one_body_identity():
    g = build_grid(24, -4, 4)
    orbs = _osc_orbitals(g, 3)
    ident = OneBodyOperator(np.eye(24))
    assert np.allclose(ham.one_body_elements(orbs, ident), np.eye(3), atol=1e-12)


def test_one_body_parity_selection():
    g = build_grid(48, -7, 7)
    orbs = _osc_orbitals(g, 2)             # even, odd
    x = OneBodyOperator(np.diag(g.points))
    m = ham.one_body_elements(orbs, x)
    assert abs(m[0, 0]) < 1e-12 and abs(m[1, 1]) < 1e-12
    assert abs(m[0, 1]) > 0.1


def test_one_body_oscillator_diagonal():
    g = build_grid(64, -8, 8)
    orbs = _osc_orbitals(g, 4)
    h = oscillator_h(g)
    m = ham.one_body_elements(orbs, h)
    assert np.allclose(np.diag(m).real, [0.5, 1.5, 2.5, 3.5], atol=1e-8)
    assert np.abs(m - np.diag(np.diag(m))).max() < 1e-10


def test_local_potentials_contact_pointwise():
    g = build_grid(32, -5, 5)
    orbs = _osc_orbitals(g, 2)
    W = discretize_kernel(g, TwoBodyKernel("contact", strength=1.0))
    w = ham.local_potentials(orbs, W)
    assert np.allclose(w[0, 0], np.abs(orbs.orbitals[0]) ** 2, atol=1e-12)
    assert np.allclose(w[0, 1], w[1, 0].conj())


def test_local_potentials_vs_double_sum():
    g = build_grid(20, -3, 3)
    orbs = _random_orbitals(g, 2, seed=4)
    W = discretize_kernel(g, TwoBodyKernel("gaussian", strength=0.8, width=0.6))
    w = ham.local_potentials(orbs, W)
    phi = orbs.orbitals
    for s in range(2):
        for l in range(2):
            ref = np.array([
                g.weight * sum(phi[s][j].conj() * W[i, j] * phi[l][j]
                               for j in range(20))
                for i in range(20)])
            assert np.abs(w[s, l] - ref).max() < 1e-12


def test_contact_exchange_equals_direct():
    g = build_grid(24, -4, 4)
    orbs = _osc_orbitals(g, 2)
    W = discretize_kernel(g, TwoBodyKernel("contact", strength=0.7))
    w = ham.local_potentials(orbs, W)
    f = random_state_vector(24, 2)
    for s in range(2):
        for l in range(2):
            direct = w[s, l] * f
            exch = lo.exchange_apply(orbs, W, s, l, f)
            # for the delta kernel both reduce to pointwise products of the
            # same three factors
            ref = 0.7 * orbs.orbitals[s].conj() * f * orbs.orbitals[l]
            assert np.abs(exch - ref).max() < 1e-12
            assert np.abs(direct - w[s, l] * f).max() < 1e-15


def test_exchange_vs_quadrature_oracle():
    g = build_grid(18, -3, 3)
    orbs = _random_orbitals(g, 2, seed=8)
    W = discretize_kernel(g, TwoBodyKernel("gaussian", strength=0.5, width=0.7))
    f = random_state_vector(18, 3)
    phi = orbs.orbitals
    for s in range(2):
        for l in range(2):
            out = lo.exchange_apply(orbs, W, s, l, f)
            ref = np.array([
                phi[l][i] * g.weight * sum(phi[s][j].conj() * W[i, j] * f[j]
                                           for j in range(18))
                for i in range(18)])
            assert np.abs(out - ref).max() < 1e-12
            K = lo.exchange_matrix(orbs, W, s, l)
            assert np.abs(K @ f - out).max() < 1e-12


def test_exchange_linearity():
    g = build_grid(16, -3, 3)
    orbs = _osc_orbitals(g, 2)
    W = discretize_kernel(g, TwoBodyKernel("gaussian", strength=0.5, width=0.7))
    f = random_state_vector(16, 1)
    h2 = random_state_vector(16, 2)
    lhs = lo.exchange_apply(orbs, W, 0, 1, 2.0 * f + 3j * h2)
    rhs = 2.0 * lo.exchange_apply(orbs, W, 0, 1, f) \
        + 3j * lo.exchange_apply(orbs, W, 0, 1, h2)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_two_body_tensor_symmetries():
    g = build_grid(16, -3, 3)
    orbs = _random_orbitals(g, 3, seed=5)
    W = discretize_kernel(g, TwoBodyKernel("gaussian", strength=0.5, width=0.7))
    t = ham.two_body_tensor(orbs, W)
    assert np.abs(t - t.transpose(1, 0, 3, 2)).max() < 1e-12      # r <-> r'
    assert np.abs(t.conj() - t.transpose(2, 3, 0, 1)).max() < 1e-12


def test_hamiltonian_matrix_diagonal_case():
    g = build_grid(32, -6, 6)
    orbs = _osc_orbitals(g, 2)
    sp = fs.enumerate_configs("boson", N=2, M=2)
    H = ham.hamiltonian_matrix(sp, [orbs], [oscillator_h(g)], None)
    expect = [2 * 0.5, 0.5 + 1.5, 2 * 1.5]
    assert np.allclose(np.diag(H).real, expect, atol=1e-8)
    assert np.abs(H - np.diag(np.diag(H))).max() < 1e-8


def test_hamiltonian_matrix_vs_first_quantized_pair():
    # project the dense two-particle grid Hamiltonian on the orbital pair
    g = build_grid(20, -4, 4)
    orbs = _osc_orbitals(g, 2)
    sp = fs.enumerate_configs("boson", N=2, M=2)
    kern = TwoBodyKernel("contact", strength=0.35)
    W = discretize_kernel(g, kern)
    H = ham.hamiltonian_matrix(sp, [orbs], [oscillator_h(g)], W)

    n = g.n_points
    phi = np.sqrt(g.weight) * orbs.orbitals          # unit vectors
    pair_vecs = []
    for occ in sp.configs:
        modes = []
        for p, c in enumerate(occ):
            modes += [p] * c
        a, b = modes
        vec = np.kron(phi[a], phi[b]) + np.kron(phi[b], phi[a])
        vec /= np.linalg.norm(vec)
        pair_vecs.append(vec)
    S = np.column_stack(pair_vecs)
    h1 = oscillator_h(g).matrix
    H2 = np.kron(h1, np.eye(n)) + np.kron(np.eye(n), h1) \
        + np.diag(W.reshape(-1))
    ref = S.conj().T @ H2 @ S
    assert np.abs(H - ref).max() < 1e-10


def test_hamiltonian_matrix_hermitian_random():
    g = build_grid(16, -3, 3)
    orbs = _random_orbitals(g, 2, seed=12)
    sp = fs.enumerate_configs("boson", N=2, M=2)
    rng = np.random.default_rng(1)
    hmat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    hop = OneBodyOperator(0.5 * (hmat + hmat.conj().T))
    W = discretize_kernel(g, TwoBodyKernel("gaussian", strength=0.4, width=0.5))
    H = ham.hamiltonian_matrix(sp, [orbs], [hop], W)
    assert np.abs(H - H.conj().T).max() < 1e-10


def test_energy_consistency_invariant():
    g = build_grid(24, -4, 4)
    orbs = _random_orbitals(g, 2, seed=3)
    sp = fs.enumerate_configs("boson", N=2, M=2)
    kern = discretize_kernel(g, TwoBodyKernel("gaussian", strength=0.6, width=0.5))
    hop = oscillator_h(g)
    H = ham.hamiltonian_matrix(sp, [orbs], [hop], kern)
    h = ham.one_body_elements(orbs, hop)
    W = ham.two_body_tensor(orbs, kern)
    for seed in range(5):
        C = random_state_vector(sp.size, seed)
        rd = fs.reduced_densities(sp, C)
        e_direct = np.vdot(C, H @ C)
        e_density = np.einsum("kq,kq->", h, rd.rho1) \
            + 0.5 * np.einsum("ksql,kslq->", W, rd.rho2)
        assert abs(e_direct - e_density) < 1e-10


def _dist_problem(case):
    """(space, orbital sets, one-body operators, coupling) of one case of
    ``test_hamiltonian_matrix_distinguishable``."""
    rng = np.random.default_rng(len(case))
    Q = {"allbody_q3": 3, "skip_dof_q3": 3, "pairs_q4": 4}.get(case, 2)
    grids = [build_grid(8 + 2 * j, -3.0, 3.0) for j in range(Q)]
    M_list = (2, 3, 2, 3)[:Q]
    sets = [_random_orbitals(g, M, seed=j) for j, (g, M)
            in enumerate(zip(grids, M_list))]

    def table(a, b, dtype=float):
        t = rng.standard_normal((grids[a].n_points, grids[b].n_points))
        return t + 1j * rng.standard_normal(t.shape) if dtype is complex else t

    h_ops = []
    for g in grids:
        a = rng.standard_normal((g.n_points,) * 2)
        if case == "complex_q2":
            a = a + 1j * rng.standard_normal(a.shape)
        h_ops.append(OneBodyOperator(a + a.conj().T))
    if case == "pair_q2":
        coupling = PairCoupling.gaussian_pair(grids, 0, 1, 0.4, 0.8)
    elif case == "allbody_q3":
        coupling = AllBodyTable(rng.standard_normal(
            tuple(g.n_points for g in grids)))
    elif case == "complex_q2":
        coupling = PairCoupling([(0, 1, table(0, 1, complex))])
    elif case == "skip_dof_q3":
        coupling = PairCoupling.gaussian_pair(grids, 0, 2, 0.4, 0.8)
    elif case == "two_terms_q2":
        coupling = PairCoupling([(0, 1, table(0, 1)), (1, 0, table(1, 0))])
    elif case == "pairs_q4":
        coupling = PairCoupling([(a, b, table(a, b))
                                 for a, b in ((0, 1), (1, 3), (0, 2), (2, 3))])
    else:
        coupling, h_ops[1] = None, None
    sp = fs.enumerate_configs("distinguishable", M_list=M_list)
    return sp, sets, h_ops, coupling


@pytest.mark.parametrize("case", ["pair_q2", "allbody_q3", "unprobed_dof",
                                  "complex_q2", "skip_dof_q3", "two_terms_q2",
                                  "pairs_q4"])
def test_hamiltonian_matrix_distinguishable(case):
    # per DOF one operator (None: zero) and a coupling, against the
    # Hamiltonian applied axis by axis plus the coupling summed over
    # configuration pairs.  The orbitals are complex; complex_q2 adds
    # complex one-body operators and a complex pair table, skip_dof_q3
    # couples the first and the third DOF around an untouched one,
    # two_terms_q2 has two terms on one pair (one given as (b, a)), and
    # pairs_q4 four pair terms across four DOFs
    sp, sets, h_ops, coupling = _dist_problem(case)
    H = ham.hamiltonian_matrix(sp, sets, h_ops, coupling)
    h_elems = [np.zeros((M, M)) if op is None else ham.one_body_elements(s, op)
               for s, op, M in zip(sets, h_ops, sp.M_list)]
    W = None if coupling is None else lo.config_coupling_matrix(coupling,
                                                                sets, sp)
    ref = np.column_stack([lo.apply_hamiltonian_dist(sp, e, h_elems, W)
                           for e in np.eye(sp.size)])
    assert np.abs(H - ref).max() < 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("case", ["skip_dof_q3", "pairs_q4"])
def test_pair_coupling_hamiltonian_needs_no_kron_or_einsum(case, monkeypatch):
    # pair terms are two matmuls over orbital pair products and every term
    # is placed by broadcasting against identities: no Kronecker product
    # and no einsum, so no contraction-path search either
    sp, sets, h_ops, coupling = _dist_problem(case)
    ref = ham.hamiltonian_matrix(sp, sets, h_ops, coupling)

    def refuse(*args, **kwargs):
        raise AssertionError("the pair-coupling build called kron or einsum")

    for name in ("kron", "einsum", "einsum_path"):
        monkeypatch.setattr(np, name, refuse)
    assert np.array_equal(ham.hamiltonian_matrix(sp, sets, h_ops, coupling), ref)


# --- couplings between distinguishable degrees of freedom


def _mean_fields(sp, C, sets, coupling, j):
    """The mean fields of DOF j from ``ham.mean_field_plans``."""
    plans = ham.mean_field_plans(sp, C, None, coupling,
                                 [s.grid.weight for s in sets])
    return ham.mean_fields(plans, [s.orbitals for s in sets])[j]


def test_mean_field_zero_without_coupling():
    grids = [build_grid(16, -3, 3)] * 2
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 2))
    C = random_state_vector(sp.size, 0)
    assert ham.mean_field_plans(sp, C, None, None,
                                [g.weight for g in grids]) == [None, None]


def test_mean_field_bilinear_hartree_product():
    grids = [build_grid(32, -6, 6), build_grid(32, -6, 6)]
    sets = [_osc_orbitals(g, 2) for g in grids]
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 2))
    lam = 0.4
    coup = PairCoupling.bilinear(grids, 0, 1, lam)
    # product state occupying the second orbital of the second DOF: nonzero <x_2>
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 1.0]) / np.sqrt(2)     # mixes even/odd: <x> != 0
    C = np.kron(a, b).astype(complex)
    om = _mean_fields(sp, C, sets, coup, 0)[0, 0]
    phi2 = sets[1].orbitals
    mix = (b[0] * phi2[0] + b[1] * phi2[1])
    x2 = grids[1].weight * np.real(np.vdot(mix, grids[1].points * mix))
    assert np.abs(om - lam * x2 * grids[0].points).max() < 1e-10


def test_mean_field_hermitian_pairs():
    grids = [build_grid(16, -3, 3)] * 2
    sets = [_random_orbitals(grids[j], 2, seed=j) for j in range(2)]
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 2))
    coup = PairCoupling.gaussian_pair(grids, 0, 1, 0.5, 0.7)
    C = random_state_vector(sp.size, 4)
    om = _mean_fields(sp, C, sets, coup, 0)
    for a in range(2):
        for b in range(2):
            assert np.abs(om[a, b] - om[b, a].conj()).max() < 1e-12


def test_cached_einsum_path_matches_optimized_einsum(monkeypatch):
    rng = np.random.default_rng(3)
    searches = []
    search = np.einsum_path

    def counting_search(*args, **kwargs):
        searches.append(args[0].shape)
        return search(*args, **kwargs)

    monkeypatch.setattr(ham, "_EINSUM_PATHS", {})
    monkeypatch.setattr(np, "einsum_path", counting_search)
    for shape in [(3, 4, 5), (3, 4, 5), (4, 4, 6)]:
        ops = [rng.normal(size=shape), [0, 1, 2],
               rng.normal(size=shape[1:]) + 1j, [1, 2],
               rng.normal(size=(shape[2], 7)), [2, 3], [0, 3]]
        want = np.einsum(*ops, optimize=True)
        got = ham._einsum(*ops)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # the repeated shape reuses its path, the new shape searches its own
    assert searches == [(3, 4, 5), (4, 4, 6)]
    assert len(ham._EINSUM_PATHS) == 2


def test_allbody_table_dimension_guard():
    with pytest.raises(ValueError):
        AllBodyTable(np.zeros((2, 2, 2, 2)))


def test_config_coupling_matrix_vs_allbody_table():
    # the same bilinear coupling expressed as a pair term and as a full table
    grids = [build_grid(10, -2, 2), build_grid(12, -2.5, 2.5)]
    sets = [_random_orbitals(grids[j], 2, seed=10 + j) for j in range(2)]
    sp = fs.enumerate_configs("distinguishable", M_list=(2, 2))
    lam = 0.3
    pair = PairCoupling.bilinear(grids, 0, 1, lam)
    table = AllBodyTable(lam * np.outer(grids[0].points, grids[1].points))
    Wp = ham.config_coupling_matrix(pair, sets, sp)
    Wt = ham.config_coupling_matrix(table, sets, sp)
    assert np.abs(Wp - Wt).max() < 1e-12
    C = random_state_vector(sp.size, 2)
    for j in range(2):
        for nvec in (sp.configs[0], sp.configs[3]):
            pa = lo.partial_coupling(pair, sets, sp, j, nvec, sp.configs[1])
            ta = lo.partial_coupling(table, sets, sp, j, nvec, sp.configs[1])
            assert np.abs(pa - ta).max() < 1e-12
