"""Loop-based reference implementations, kept for tests only.

The library contracts couplings between distinguishable degrees of freedom
against reduced densities; the functions here compute the same quantities
by streaming over every pair of configurations, straight from the defining
sums.  They are slow (n_conf^2 Python iterations) and serve as the oracle
the contractions are compared with.  For identical particles the per-key
scatter (one table per ladder key, built configuration by configuration,
applied with ``np.add.at``) is the reference for the compiled operator
table.  A few direct-definition helpers that
only tests use (exchange kernels, the single-entry density action, the
density action of one ladder key on the compiled table, the
coefficient-orbital rows summed directly, the orbital right-hand sides
summed term by term or from one ``OrbitalRHS`` build, the orbital step
and its right-hand side one DOF at a time, the kinetic matrix from full
n x n argument arrays, the Hamiltonian of
distinguishable DOFs applied axis by axis, the
first-quantized one- and two-body operators, the Lagrange multipliers
recomputed from a state) live here as well, and so do the dense forms of
the structural operator P M^p and of the projected, metric-transformed
response matrix, the dense D x D eigensolve of that matrix that both
eigensolver paths are checked against, the driving
vectors written out separately for each particle kind, the per-mode sum
of the driven response, the response weights and the driven response as
products with the stored right vectors, the per-field CSV writers of
the spectrum, the one-sector solve the parity sectors are checked
against, the butterfly frame, row swap and compact-WY application of the
complements that the dense bases and the reflector of C are checked
against, the halves pulled through one buffer of each raw half, and
the symmetry defects from full n x n differences.
Layout, spectrum and reconstruction accessors that only tests read (the
row indices of the halves, the v slot of one orbital, the left vectors of
the modes and the right and left vectors of their negative partners, the
expansion rows of the driven wavefunction) are functions here.
"""

import dataclasses
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg import block_diag

from mclr import fockspace as fs
from mclr import groundstate as gs
from mclr import hamiltonian as ham
from mclr import linres_identical as li
from mclr import spectrum as spm
from mclr.grid import discretize_kernel
from mclr.hamiltonian import AllBodyTable, PairCoupling
from mclr.oracle import (_apply_one_body, _basis_operator, _product_apply_h,
                         symmetrized_basis)


# --- identical particles: per-key scatter -----------------------------------


def _jw_sign(occ, p) -> int:
    return -1 if (sum(occ[:p]) % 2) else 1


def one_body_table(space, k, q):
    """(source indices, target indices, factors) for c_k^dag c_q."""
    src, dst, fac = [], [], []
    boson = space.statistics == "boson"
    for i, occ in enumerate(space.configs):
        if occ[q] == 0:
            continue
        if boson:
            f = np.sqrt(occ[q])
            mid = list(occ)
            mid[q] -= 1
            f *= np.sqrt(mid[k] + 1)
            mid[k] += 1
        else:
            f = _jw_sign(occ, q)
            mid = list(occ)
            mid[q] -= 1
            if mid[k] == 1:
                continue
            f *= _jw_sign(mid, k)
            mid[k] += 1
        src.append(i)
        dst.append(space.configs.index(tuple(mid)))
        fac.append(f)
    return (np.asarray(src, dtype=int), np.asarray(dst, dtype=int),
            np.asarray(fac, dtype=float))


def two_body_table(space, k, s, l, q):
    """Scatter table for c_k^dag c_s^dag c_l c_q (rightmost acts first)."""
    src, dst, fac = [], [], []
    boson = space.statistics == "boson"
    for i, occ in enumerate(space.configs):
        n = list(occ)
        f = 1.0
        ok = True
        for p in (q, l):                      # annihilate q then l
            if n[p] == 0:
                ok = False
                break
            f *= np.sqrt(n[p]) if boson else _jw_sign(n, p)
            n[p] -= 1
        if not ok:
            continue
        for p in (s, k):                      # create s then k
            if boson:
                f *= np.sqrt(n[p] + 1)
            else:
                if n[p] == 1:
                    ok = False
                    break
                f *= _jw_sign(n, p)
            n[p] += 1
        if not ok:
            continue
        src.append(i)
        dst.append(space.configs.index(tuple(n)))
        fac.append(f)
    return (np.asarray(src, dtype=int), np.asarray(dst, dtype=int),
            np.asarray(fac, dtype=float))


def scatter(space, C, key):
    """Coefficient vector of one ladder key, (k, q) or (k, s, l, q), applied
    to C with ``np.add.at``; the table is built from the key's definition."""
    table = one_body_table if len(key) == 2 else two_body_table
    src, dst, fac = table(space, *key)
    out = np.zeros(space.size, dtype=complex)
    np.add.at(out, dst, fac * np.asarray(C, dtype=complex)[src])
    return out


def _apply_key(space, C, orbitals):
    """Coefficient vector of one ladder key, (k, q) or (k, s, l, q), applied
    to C as the key's slice of the compiled table ``space.table``."""
    if not space.identical:
        raise ValueError("density operators need an identical-particle space")
    M = space.M
    if not all(0 <= p < M for p in orbitals):
        raise IndexError("orbital index out of range")
    key = np.ravel_multi_index(orbitals, (M,) * len(orbitals))
    key += M**2 if len(orbitals) == 4 else 0
    t = space.table
    e = slice(t.start[key], t.start[key + 1])
    out = np.zeros(space.size, dtype=np.result_type(t.fac, C))
    out[t.dst[e]] = t.fac[e] * np.asarray(C)[t.src[e]]
    return out


def apply_rho_kq(space, C, k, q):
    """Coefficient vector of (c_k^dag c_q) |Psi>, from the compiled table."""
    return _apply_key(space, C, (k, q))


def apply_rho_kslq(space, C, k, s, l, q):
    """Coefficient vector of (c_k^dag c_s^dag c_l c_q) |Psi>, from the
    compiled table."""
    return _apply_key(space, C, (k, s, l, q))


def second_quantized(space, C, h, W=None):
    """sum h[k,q] rho_kq C + 1/2 sum W[k,s,q,l] rho_kslq C, key by key."""
    M = space.M
    out = sum(h[k, q] * scatter(space, C, (k, q))
              for k in range(M) for q in range(M))
    if W is not None:
        for k, s, l, q in np.ndindex(M, M, M, M):
            out = out + 0.5 * W[k, s, q, l] * scatter(space, C, (k, s, l, q))
    return out


def second_quantized_matrix(space, h, W=None):
    """Dense H from ``second_quantized``, column by column."""
    return np.column_stack([second_quantized(space, e, h, W)
                            for e in np.eye(space.size)])


def reduced_densities(space, C):
    """(rho1, rho2) as <C| key |C>, key by key."""
    M = space.M
    rho1 = np.array([[np.vdot(C, scatter(space, C, (k, q))) for q in range(M)]
                     for k in range(M)])
    rho2 = np.array([np.vdot(C, scatter(space, C, key))
                     for key in np.ndindex(M, M, M, M)]).reshape((M,) * 4)
    return rho1, rho2


def mapped_vectors(space, C):
    """rho_kq C for every (k, q) and rho_kslq C for every (k, s, l, q)."""
    M = space.M
    one = np.array([scatter(space, C, key) for key in np.ndindex(M, M)])
    two = np.array([scatter(space, C, key) for key in np.ndindex(M, M, M, M)])
    return one.reshape(M, M, -1), two.reshape((M,) * 4 + (-1,))


# --- identical particles: response helpers ---------------------------------


def exchange_apply(orbs, kernel_matrix, s, l, f):
    """K_sl f: build the direct potential with f in the ket slot, times phi_l."""
    phi = orbs.orbitals
    w_sf = orbs.grid.weight * (kernel_matrix @ (phi[s].conj() * np.asarray(f)))
    return w_sf * phi[l]


def exchange_matrix(orbs, kernel_matrix, s, l):
    """Dense matrix of K_sl: K[i,j] = dx phi_l[i] W[i,j] conj(phi_s[j])."""
    phi = orbs.orbitals
    return orbs.grid.weight * (phi[l][:, None] * kernel_matrix
                               * phi[s].conj()[None, :])


def _project_rows(B, phi, weight):
    """Each row b of B minus sum_j phi_j <phi_j|b>, overlap by overlap."""
    out = np.array(B, dtype=complex)
    for k in range(len(B)):
        for j in range(len(phi)):
            out[k] -= weight * np.vdot(phi[j], B[k]) * phi[j]
    return out


def orbital_eom_rhs(grid, orbs, h_op, kernel_matrix, rho):
    """B_k = P [ sum_q rho_kq h phi_q + sum_slq rho_kslq W_sl phi_q ], term
    by term, with W_sl(x) = dx sum_y conj(phi_s(y)) W(x, y) phi_l(y)."""
    phi, dx = orbs.orbitals, grid.weight
    M = len(phi)
    g = np.zeros(phi.shape, dtype=complex)
    for k in range(M):
        for q in range(M):
            g[k] += rho.rho1[k, q] * (h_op.matrix @ phi[q])
            if kernel_matrix is None:
                continue
            for s in range(M):
                for l in range(M):
                    w_sl = dx * (kernel_matrix @ (phi[s].conj() * phi[l]))
                    g[k] += rho.rho2[k, s, l, q] * w_sl * phi[q]
    return _project_rows(g, phi, dx)


def _ingredients(state):
    """Scaled orbitals plus the hermitized density/multiplier matrices."""
    (orbs,), (rho1,), (mu,), (h_op,) = (state.sets, state.rho1, state.mu,
                                        state.h_ops)
    return (orbs.scaled, li._hermitized(rho1), state.rho2,
            li._hermitized(mu), h_op.matrix)


def co_blocks_direct(state):
    """Coefficient-orbital rows built from their own defining sums.

    Cross-checks the adjoint construction in build_oc_co_blocks.
    """
    phi, rho1, rho2, mu, h = _ingredients(state)
    (M, n), nc = phi.shape, state.space.size
    layout = li.ResponseLayout((M,), (n,), nc)
    km = state.kernel_matrix
    one, two = li._mapped_vectors(state)
    interacting = km is not None and np.any(km)
    if interacting:
        w = ham.local_potentials(state.sets[0], km)

    Lco_u = np.zeros((nc, layout.orb), dtype=complex)
    Lco_v = np.zeros((nc, layout.orb), dtype=complex)
    for k in range(M):
        ru = np.zeros((nc, n), dtype=complex)
        rv = np.zeros((nc, n), dtype=complex)
        for q in range(M):
            ru += np.outer(one[q, k], (h @ phi[q]).conj())
            rv += np.outer(one[k, q], phi[q] @ h.conj())
            if interacting:
                for s in range(M):
                    for l in range(M):
                        ru += np.outer(two[q, l, s, k],
                                       phi[q].conj() * w[s, l].conj())
                        rv += np.outer(two[k, s, l, q], phi[q] * w[s, l])
        Lco_u[:, layout.u_slice(0, k)] = ru
        Lco_v[:, layout.u_slice(0, k)] = rv
    return Lco_u, Lco_v


# --- distinguishable degrees of freedom ---------------------------------------


def tensor_density_action(space, C, j, n_j, m_j):
    """Apply the single-entry density operator of DOF j to C.

    The operator is the identity on every other slot and the matrix with a
    single 1 at (row n_j, column m_j) on slot j, so amplitude moves from
    configurations with orbital m_j at slot j to orbital n_j.
    """
    if space.identical:
        raise ValueError("distinguishable spaces only")
    Q = len(space.M_list)
    if not 0 <= j < Q:
        raise IndexError("degree-of-freedom index out of range")
    if not (0 <= n_j < space.M_list[j] and 0 <= m_j < space.M_list[j]):
        raise IndexError("orbital index out of range")
    t = np.asarray(C, dtype=complex).reshape(space.M_list)
    out = np.zeros_like(t)
    src = [slice(None)] * Q
    dst = [slice(None)] * Q
    src[j] = m_j
    dst[j] = n_j
    out[tuple(dst)] = t[tuple(src)]
    return out.reshape(space.size)


def _pair_contraction(table, bra, ket, side):
    """side=1 integrates out the second table axis, side=0 the first."""
    w = bra.conj() * ket
    return table @ w if side == 1 else table.T @ w


def full_pair_element(table, bra_a, ket_a, bra_b, ket_b):
    return np.einsum("i,j,ij,i,j->", bra_a.conj(), bra_b.conj(), table,
                     ket_a, ket_b)


def partial_coupling(coupling, sets, space, j, nvec, mvec):
    """Grid-j diagonal of the coupling integrated over every other coordinate.

    Bra orbitals come from ``nvec``, ket orbitals from ``mvec``; slot j of
    both is ignored, except that a pair term not touching j needs
    nvec[j] == mvec[j].
    """
    Q = len(space.M_list)
    scaled = [s.scaled for s in sets]
    out = np.zeros(sets[j].grid.n_points, dtype=complex)
    if isinstance(coupling, PairCoupling):
        for a, b, table in coupling.terms:
            others = [l for l in range(Q) if l not in (a, b) and l != j]
            if any(nvec[l] != mvec[l] for l in others):
                continue
            if j == a:
                out += _pair_contraction(table, scaled[b][nvec[b]],
                                         scaled[b][mvec[b]], side=1)
            elif j == b:
                out += _pair_contraction(table, scaled[a][nvec[a]],
                                         scaled[a][mvec[a]], side=0)
            else:
                if nvec[j] != mvec[j]:
                    continue
                out += full_pair_element(table, scaled[a][nvec[a]],
                                         scaled[a][mvec[a]], scaled[b][nvec[b]],
                                         scaled[b][mvec[b]])
        return out
    if isinstance(coupling, AllBodyTable):
        t = coupling.table
        for l in sorted([l for l in range(Q) if l != j], reverse=True):
            w = scaled[l][nvec[l]].conj() * scaled[l][mvec[l]]
            t = np.tensordot(t, w, axes=([l], [0]))
        return np.asarray(t, dtype=complex)
    raise TypeError(f"unsupported coupling {type(coupling)!r}")


def mean_fields_dist(space, C, sets, coupling, j):
    """Omega^j[n_j, m_j](x_j) summed over every configuration pair."""
    Mj = space.M_list[j]
    C = np.asarray(C, dtype=complex)
    out = np.zeros((Mj, Mj, sets[j].grid.n_points), dtype=complex)
    if coupling is None:
        return out
    for i, nvec in enumerate(space.configs):
        for k, mvec in enumerate(space.configs):
            out[nvec[j], mvec[j]] += C[i].conjugate() * C[k] * partial_coupling(
                coupling, sets, space, j, nvec, mvec)
    return out


def dist_orbital_rhs(space, sets, h_ops, coupling, C):
    """Per-DOF B_j = P_j [ rho1_j h_j phi^j + sum_q Omega^j[:, q] phi^j_q ],
    with rho1_j and the mean fields summed over configuration pairs."""
    out = []
    for j, s in enumerate(sets):
        phi, M = s.orbitals, s.M
        rho1 = np.zeros((M, M), dtype=complex)
        for i, nvec in enumerate(space.configs):
            for k, mvec in enumerate(space.configs):
                if all(nvec[l] == mvec[l] for l in range(len(sets)) if l != j):
                    rho1[nvec[j], mvec[j]] += np.conj(C[i]) * C[k]
        om = mean_fields_dist(space, C, sets, coupling, j)
        g = np.zeros(phi.shape, dtype=complex)
        for k in range(M):
            for q in range(M):
                g[k] += rho1[k, q] * (h_ops[j].matrix @ phi[q]) \
                    + om[k, q] * phi[q]
        out.append(_project_rows(g, phi, s.grid.weight))
    return out


def dist_orbital_rhs_plan(space, sets, h_ops, coupling, C, rho1,
                          project=True):
    """Per-DOF right-hand sides from one ``OrbitalRHS`` build and one
    evaluation on the stacked orbitals, as the solver takes them."""
    weights = [s.grid.weight for s in sets]
    rhs = gs.OrbitalRHS(rho1, h_ops, weights, ham.mean_field_plans(
        space, C, None, coupling, weights))
    return rhs.unstack(rhs(rhs.stack([s.orbitals for s in sets]), project))


# --- the orbital step, one DOF at a time ------------------------------------


class LoopOrbitalRHS:
    """``gs.OrbitalRHS`` evaluated one DOF at a time: per DOF one (M_j, n_j)
    array of orbitals in, one right-hand side out, each mean-field plan
    forming the pair products it reads itself."""

    def __init__(self, rho1, h_ops, weights, fields):
        self.rho1 = rho1
        self.h_t = [h.matrix.T for h in h_ops]
        self.weights = weights
        self.fields = fields

    def __call__(self, phis, project=True):
        out = []
        for phi, r, h_t, w, field in zip(phis, self.rho1, self.h_t,
                                         self.weights, self.fields):
            g = r @ (phi @ h_t)
            if field is not None:
                om = ham.mean_fields([field], phis)[0]
                g = g + np.einsum("kqx,qx->kx", om, phi)
            if project:
                g = g - (w * (phi.conj() @ g.T)).T @ phi
            out.append(g)
        return out


def descend(phi, weight, step):
    """orth(phi - P step) on the (M, n) orbital rows of one DOF, by the
    Cholesky factor of the overlap of the stepped rows."""
    step = step - (weight * (step @ phi.conj().T)) @ phi
    psi = phi - step
    L = np.linalg.cholesky(weight * (psi @ psi.conj().T))
    return np.linalg.inv(L) @ psi


def descent_block(phis, B, rhs, inv, K, tau, steps):
    """``gs._descent_block`` one DOF at a time: per-DOF orbitals, right-hand
    sides, floored inverses of rho and K_tau^T, ``rhs`` a ``LoopOrbitalRHS``."""
    for step in range(steps):
        if step:
            B = rhs(phis)
        phis = [descend(phi, w, tau * (i @ b) @ k)
                for phi, w, i, b, k in zip(phis, rhs.weights, inv, B, K)]
    return phis


def kinetic_matrix(grid, mass=1.0):
    """The sine-DVR kinetic matrix with 1/sin^2 evaluated on the full
    n x n difference and sum arrays, off the diagonal and on it."""
    n = grid.n_points
    length = grid.x_max - grid.x_min
    npl = n + 1
    j = np.arange(1, n + 1)
    diff = j[:, None] - j[None, :]
    summ = j[:, None] + j[None, :]
    with np.errstate(divide="ignore"):
        t = np.where(
            diff == 0,
            (2.0 * npl**2 + 1.0) / 3.0 - 1.0 / np.sin(np.pi * j / npl) ** 2,
            (-1.0) ** diff * (1.0 / np.sin(np.pi * diff / (2 * npl)) ** 2
                              - 1.0 / np.sin(np.pi * summ / (2 * npl)) ** 2),
        )
    t *= np.pi**2 / (2.0 * length**2) / (2.0 * mass)
    return 0.5 * (t + t.T)


def apply_hamiltonian_dist(space, C, h_elems, W_conf=None):
    """Apply H = sum_j sum h^j[n,m] rho^j_nm + W_conf to C, one tensor axis
    per DOF: ``h_elems`` holds the per-DOF orbital-space matrices, ``W_conf``
    the configuration-space matrix of the coupling."""
    t = np.asarray(C).reshape(space.M_list)
    out = sum(np.moveaxis(np.tensordot(hj, t, axes=(1, j)), 0, j)
              for j, hj in enumerate(h_elems)).reshape(space.size)
    if W_conf is not None:
        out = out + np.asarray(W_conf) @ t.reshape(space.size)
    return out


def config_coupling_matrix(coupling, sets, space):
    """<n|W|m> element by element."""
    Q = len(space.M_list)
    scaled = [s.scaled for s in sets]
    W = np.zeros((space.size, space.size), dtype=complex)
    for i, nvec in enumerate(space.configs):
        for k, mvec in enumerate(space.configs):
            if isinstance(coupling, PairCoupling):
                for a, b, table in coupling.terms:
                    if all(nvec[l] == mvec[l] for l in range(Q)
                           if l not in (a, b)):
                        W[i, k] += full_pair_element(
                            table, scaled[a][nvec[a]], scaled[a][mvec[a]],
                            scaled[b][nvec[b]], scaled[b][mvec[b]])
            else:
                t = coupling.table
                for l in reversed(range(Q)):
                    w = scaled[l][nvec[l]].conj() * scaled[l][mvec[l]]
                    t = np.tensordot(t, w, axes=([l], [0]))
                W[i, k] = t
    return W


def _reduced_pair(coupling, scaled, nvec, mvec, j, k):
    """Coupling kernel on (x_j, x_k) for the configuration pair (n, m)."""
    Q = len(scaled)
    if isinstance(coupling, AllBodyTable):
        t = coupling.table
        for l in sorted([l for l in range(Q) if l not in (j, k)], reverse=True):
            w = scaled[l][nvec[l]].conj() * scaled[l][mvec[l]]
            t = np.tensordot(t, w, axes=([l], [0]))
        return t if j < k else t.T
    out = np.zeros((scaled[j].shape[1], scaled[k].shape[1]), dtype=complex)
    for a, b, t in coupling.terms:
        if any(nvec[l] != mvec[l] for l in range(Q) if l not in (a, b, j, k)):
            continue
        # integrate the table axes other than x_j and x_k, last axis first
        for ax, l in ((1, b), (0, a)):
            if l not in (j, k):
                w = scaled[l][nvec[l]].conj() * scaled[l][mvec[l]]
                t = np.tensordot(t, w, axes=([ax], [0]))
        kept = [l for l in (a, b) if l in (j, k)]
        if kept == [j, k]:
            out += t
        elif kept == [k, j]:
            out += t.T
        elif kept == [j]:
            out += t[:, None]
        elif kept == [k]:
            out += t[None, :]
        else:
            out += t
    return out


def oo_dist_diagonal(state, j):
    """Diagonal DOF block rho h - mu + diag(Omega) of A for DOF j, filled
    slot pair by slot pair."""
    layout = li.ResponseLayout.of(state)
    M, n = layout.M_list[j], layout.n_list[j]
    rho = 0.5 * (state.rho1[j] + state.rho1[j].conj().T)
    mu = 0.5 * (state.mu[j] + state.mu[j].conj().T)
    h = state.h_ops[j].matrix
    om = mean_fields_dist(state.space, state.C, state.sets,
                          state.interaction, j) \
        if state.interaction is not None else None
    out = np.zeros((M * n, M * n), dtype=complex)
    for a in range(M):
        for b in range(M):
            blk = rho[a, b] * h - mu[a, b] * np.eye(n)
            if om is not None:
                blk = blk + np.diag(om[a, b])
            out[a * n:(a + 1) * n, b * n:(b + 1) * n] = blk
    return out


def build_oo_cross(state):
    """Cross-DOF parts of the (A, B) orbital-orbital blocks, pair by pair."""
    layout = li.ResponseLayout.of(state)
    scaled = [s.scaled for s in state.sets]
    C, space = state.C, state.space
    A = np.zeros((layout.orb, layout.orb), dtype=complex)
    B = np.zeros((layout.orb, layout.orb), dtype=complex)
    for j in range(layout.Q):
        for k in range(layout.Q):
            if k == j:
                continue
            for i_n, nvec in enumerate(space.configs):
                for i_m, mvec in enumerate(space.configs):
                    w = C[i_n].conjugate() * C[i_m]
                    t = _reduced_pair(state.interaction, scaled, nvec, mvec,
                                      j, k)
                    left = w * scaled[j][mvec[j]][:, None] * t
                    row = layout.u_slice(j, nvec[j])
                    A[row, layout.u_slice(k, mvec[k])] += \
                        left * scaled[k][nvec[k]].conj()[None, :]
                    B[row, layout.u_slice(k, nvec[k])] += \
                        left * scaled[k][mvec[k]][None, :]
    return A, B


def loc_blocks(state):
    """(Loc_u, Loc_v) orbital-coefficient columns, pair by pair."""
    layout = li.ResponseLayout.of(state)
    Q = layout.Q
    scaled = [s.scaled for s in state.sets]
    C, space = state.C, state.space
    Loc_u = np.zeros((layout.orb, layout.n_conf), dtype=complex)
    Loc_v = np.zeros((layout.orb, layout.n_conf), dtype=complex)
    for j in range(Q):
        h_phi = scaled[j] @ state.h_ops[j].matrix.T
        for i_n, nvec in enumerate(space.configs):
            for i_m, mvec in enumerate(space.configs):
                col = np.zeros(layout.n_list[j], dtype=complex)
                if all(nvec[l] == mvec[l] for l in range(Q) if l != j):
                    col += h_phi[mvec[j]]
                if state.interaction is not None:
                    col += partial_coupling(state.interaction, state.sets,
                                            space, j, nvec, mvec) \
                        * scaled[j][mvec[j]]
                row = layout.u_slice(j, nvec[j])
                Loc_u[row, i_m] += C[i_n].conjugate() * col
                Loc_v[row, i_n] += C[i_m] * col
    return Loc_u, Loc_v


# --- response matrix ----------------------------------------------------------


raw_blocks = li._raw_blocks


def halves_index(layout):
    """(x, y): the u/C_u indices of the response space and their Sigma1
    partners in the v/C_v sectors, in the row order of the halves a, b."""
    x = np.flatnonzero(li.sigma3(layout) > 0)
    return x, li.sigma1(layout)[x]


def v_slice(layout, j, a):
    """Grid points of the v slot of orbital a of DOF j."""
    base = layout.v_block(j).start + a * layout.n_list[j]
    return slice(base, base + layout.n_list[j])


def dense_raw(layout, blocks):
    """The unprojected D x D response matrix L_raw, filled block by block
    from ``raw_blocks``; the C_v diagonal block is the mirror -conj(cc_u)
    of the C_u one."""
    A, B, Loc_u, Loc_v, Lco_u, Lco_v, cc_u = blocks
    D, orb = layout.D, layout.orb
    raw = np.zeros((D, D), dtype=complex)
    u, v = slice(0, orb), slice(orb, 2 * orb)
    cu, cv = layout.cu_slice, layout.cv_slice
    raw[u, u] = A
    raw[u, v] = B
    raw[v, u] = -B.conj()
    raw[v, v] = -A.conj()
    raw[u, cu] = Loc_u
    raw[u, cv] = Loc_v
    raw[v, cu] = -Loc_v.conj()
    raw[v, cv] = -Loc_u.conj()
    raw[cu, u] = Lco_u
    raw[cu, v] = Lco_v
    raw[cv, u] = -Lco_v.conj()
    raw[cv, v] = -Lco_u.conj()
    raw[cu, cu] = cc_u
    raw[cv, cv] = -cc_u.conj()
    return raw


def _block2(out, top_left, top_right, bottom_left, bottom_right):
    """Fill [[top_left, top_right], [bottom_left, bottom_right]] into
    ``out`` and return it; ``bottom_right`` may be a scalar."""
    k = len(top_left)
    out[:k, :k], out[:k, k:] = top_left, top_right
    out[k:, :k], out[k:, k:] = bottom_left, bottom_right
    return out


def raw_halves(rm, blocks):
    """(a, b) from the raw ``blocks`` through one (orb + n_conf)^2 buffer:
    each raw half L_raw[x, x], L_raw[x, y] filled into it (``_block2``),
    pulled on its x rows by n^(-1/2) U^H B^H (``rm.pull``) over its full
    width, and the n x (orb + n_conf) result pulled again through its
    transposed view.  The block-by-block assembly is checked against it."""
    A, B, Loc_u, Loc_v, Lco_u, Lco_v, cc_u = blocks
    raw = np.empty((len(A) + len(cc_u),) * 2, dtype=np.result_type(*blocks))
    a = rm.pull(rm.pull(_block2(raw, A, Loc_u, Lco_u, cc_u), -0.5)
                .conj().T, -0.5).conj().T
    raw = rm.pull(_block2(raw, B, Loc_v, Lco_v, 0.0), -0.5)
    return a, rm.pull(raw.T, -0.5).T


def natural_power(rho, power):
    """rho^power on the natural orbitals of ``rho`` with occupation at least
    FLOOR_FRACTION tr rho, 0 on the empty ones; the exact identity for
    power 0 when none is empty (U U^dag from ``eigh`` is off it by a few
    ulps, more than the bound the tests hold ``projector()`` to)."""
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    keep = vals >= gs.FLOOR_FRACTION * np.trace(rho).real
    if power == 0 and keep.all():
        return np.eye(len(rho))
    return (vecs[:, keep] * vals[keep] ** power) @ vecs[:, keep].conj().T


def dense_PM(rm, power):
    """P M^power as a dense D x D matrix, from the ground state of ``rm``.

    Per DOF, kron(U n^power U^dag, 1 - |phi_j><phi_j|) on u and its
    conjugate on v, with (n, U) the natural orbitals of rho_j kept by the
    rule of the assembly (occupation at least FLOOR_FRACTION tr rho_j);
    then 1 - |C><C| on C_u and its conjugate on C_v. For power 0 with no
    orbital left out the metric factor is the exact identity.
    """
    st = rm.state
    orbital = []
    for s, rho in zip(st.sets, st.rho1):
        phi = s.scaled
        m = natural_power(rho, power)
        Pg = np.eye(phi.shape[1]) - phi.T @ phi.conj()
        orbital.append(np.kron(m, Pg))
    G = block_diag(*orbital)
    Pc = np.eye(len(st.C)) - np.outer(st.C, st.C.conj())
    return block_diag(G, G.conj(), Pc, Pc.conj())


def dense_L(rm):
    """P M^(-1/2) L_raw M^(-1/2) P with every factor a dense D x D matrix."""
    G = dense_PM(rm, -0.5)
    return G @ dense_raw(rm.layout, raw_blocks(rm.state)) @ G


def full_eig(rm, tol_zero=None):
    """Eigenpairs of the dense D x D ``rm.L`` from ``numpy.linalg.eig``, the
    cross-check of both eigensolver paths, which solve in the reduced
    coordinates.  Eigenvalues sorted by real part, then imaginary part; the
    retained right vectors (real part above ``tol_zero``, by default 1e-6
    max(|w|, 1)) made Sigma3-orthogonal inside clusters closer than 1e-8
    max(|w|, 1) and Sigma3-normalized.  Returns the fields the weights
    oracles read."""
    w, V = np.linalg.eig(rm.L)
    order = np.lexsort((w.imag, w.real))
    w, V = w[order].astype(complex), V[:, order]
    scale = max(np.abs(w).max(), 1.0)
    if tol_zero is None:
        tol_zero = 1e-6 * scale
    retained = np.flatnonzero(w.real > tol_zero)
    signs = li.sigma3(rm.layout)[:, None]
    R, wr = V[:, retained], w[retained]
    i = 0
    while i < len(wr):
        j = i + 1
        while j < len(wr) and abs(wr[j] - wr[i]) <= 1e-8 * scale:
            j += 1
        block = R[:, i:j]
        G = block.conj().T @ (signs * block)
        R[:, i:j] = block @ np.linalg.eigh(0.5 * (G + G.conj().T))[1]
        i = j
    pseudo = np.einsum("ij,ij->j", R.conj(), signs * R).real
    undef = np.abs(pseudo) < 1e-10
    R[:, ~undef] /= np.sqrt(np.abs(pseudo[~undef]))
    return SimpleNamespace(rm=rm, eigenvalues=w, retained=retained, right=R,
                           zero_modes=np.flatnonzero(np.abs(w) < tol_zero),
                           sng=np.where(undef, 0.0, np.sign(pseudo)),
                           sng_undefined=undef)


# --- driving vectors, written out per particle kind --------------------------


def build_R(state, pert, rm):
    """P [M^(+1/2) S1 + M^(-1/2) S2] for identical particles, each row filled
    orbital slot by orbital slot and projected by the dense ``dense_PM``."""
    layout = rm.layout
    phi = state.sets[0].scaled
    space, C = state.space, state.C
    S1 = np.zeros(layout.D, dtype=complex)
    S2 = np.zeros(layout.D, dtype=complex)
    (f_dag,) = pert.f_dags or (None,)
    if f_dag is not None:
        F = f_dag.matrix
        f_mat = ham.one_body_elements(state.sets[0], f_dag)
        for k in range(len(phi)):
            S1[layout.u_slice(0, k)] = -(F @ phi[k])
            S1[v_slice(layout, 0, k)] = F.conj() @ phi[k].conj()
        S1[layout.cu_slice] = -fs.apply_second_quantized(space, C, f_mat)
        S1[layout.cv_slice] = fs.apply_second_quantized(space, C.conj(),
                                                        f_mat.T)
    if pert.g_dag is not None and pert.g_dag.kind != "none":
        G = discretize_kernel(state.grids[0], pert.g_dag)
        gloc = ham.local_potentials(state.sets[0], G)         # (s, l, x)
        om_g = np.einsum("kslq,slx->kqx", state.rho2, gloc)
        for k in range(len(phi)):
            S2[layout.u_slice(0, k)] = -np.einsum("qx,qx->x", om_g[k], phi)
            S2[v_slice(layout, 0, k)] = np.einsum("qx,qx->x", om_g[k].conj(),
                                                  phi.conj())
        gt = ham.two_body_tensor(state.sets[0], G)
        zero = np.zeros((len(phi),) * 2)
        S2[layout.cu_slice] = -fs.apply_second_quantized(space, C, zero, gt)
        S2[layout.cv_slice] = fs.apply_second_quantized(
            space, C.conj(), zero, np.transpose(gt, (3, 2, 1, 0)))
    return dense_PM(rm, 0.5) @ S1 + dense_PM(rm, -0.5) @ S2


def build_R_dist(state, pert, rm):
    """The same for distinguishable DOFs: per-DOF one-body probes and an
    all-body probe."""
    layout = rm.layout
    space, C = state.space, state.C
    scaled = [s.scaled for s in state.sets]
    S1 = np.zeros(layout.D, dtype=complex)
    S2 = np.zeros(layout.D, dtype=complex)
    f_dags = pert.f_dags or (None,) * layout.Q
    f_mats = []
    for j, f in enumerate(f_dags):
        if f is None:
            f_mats.append(None)
            continue
        F = f.matrix
        f_mats.append(ham.one_body_elements(state.sets[j], f))
        for a in range(layout.M_list[j]):
            S1[layout.u_slice(j, a)] = -(F @ scaled[j][a])
            S1[v_slice(layout, j, a)] = F.conj() @ scaled[j][a].conj()
    if any(m is not None for m in f_mats):
        h_list = [m if m is not None else np.zeros((layout.M_list[j],) * 2)
                  for j, m in enumerate(f_mats)]
        S1[layout.cu_slice] = -apply_hamiltonian_dist(space, C, h_list)
        S1[layout.cv_slice] = apply_hamiltonian_dist(
            space, C.conj(), [m.T for m in h_list])
    if pert.g_dag is not None:
        for j in range(layout.Q):
            om = mean_fields_dist(space, C, state.sets, pert.g_dag, j)
            for a in range(layout.M_list[j]):
                S2[layout.u_slice(j, a)] = -np.einsum("bx,bx->x", om[a],
                                                      scaled[j])
                S2[v_slice(layout, j, a)] = np.einsum(
                    "bx,bx->x", om[a].conj(), np.conj(scaled[j]))
        G = config_coupling_matrix(pert.g_dag, state.sets, space)
        S2[layout.cu_slice] = -(G @ C)
        S2[layout.cv_slice] = G.T @ C.conj()
    return dense_PM(rm, 0.5) @ S1 + dense_PM(rm, -0.5) @ S2


# --- spectrum: per-mode response sum and per-field CSV writers --------------


def reconstruct_loop(spec, weights, omega):
    """(dphi_minus, dphi_plus, dC_minus, dC_plus) of the driven response at
    ``omega``, summed mode by mode and DOF by DOF over the retained modes
    with a defined sng; orbitals as per-DOF lists of grid values."""
    rm = spec.rm
    layout, state = rm.layout, rm.state
    neghalf = [natural_power(r, -0.5) for r in state.rho1]
    dphi_m = [np.zeros((M, n), dtype=complex)
              for M, n in zip(layout.M_list, layout.n_list)]
    dphi_p = [np.zeros_like(d) for d in dphi_m]
    dC_m = np.zeros(layout.n_conf, dtype=complex)
    dC_p = np.zeros(layout.n_conf, dtype=complex)
    for i, k in enumerate(spec.retained):
        if spec.sng_undefined[i]:
            continue
        wk = spec.eigenvalues[k].real
        us, vs, cu, cv = layout.split(spec.right[:, i])
        gp, gm = weights.gamma_plus[i], weights.gamma_minus[i]
        for j in range(layout.Q):
            du = neghalf[j] @ us[j]
            dv = neghalf[j].conj() @ vs[j]
            dphi_m[j] += (gp * du) / (omega - wk) \
                + (gm * dv.conj()) / (omega + wk)
            dphi_p[j] += (np.conj(gp) * dv.conj()) / (omega - wk) \
                + (np.conj(gm) * du) / (omega + wk)
        dC_m += (gp * cu) / (omega - wk) + (gm * cv.conj()) / (omega + wk)
        dC_p += (np.conj(gp) * cv.conj()) / (omega - wk) \
            + (np.conj(gm) * cu) / (omega + wk)
    root_dx = [np.sqrt(g.weight) for g in state.grids]
    return ([d / r for d, r in zip(dphi_m, root_dx)],
            [d / r for d, r in zip(dphi_p, root_dx)], dC_m, dC_p)


def response_weights_right(spec, R_vec):
    """(gamma_plus, gamma_minus) as two products with the stored right
    vectors ``spec.right``, modes with undefined sng set to 0."""
    s3R = li.sigma3(spec.rm.layout) * R_vec
    gp = -(s3R @ spec.right.conj()) * spec.sng
    gm = (s3R[li.sigma1(spec.rm.layout)] @ spec.right) * spec.sng
    return (np.where(spec.sng_undefined, 0j, gp),
            np.where(spec.sng_undefined, 0j, gm))


def reconstruct_right(spec, weights, omega):
    """(dphi_minus, dphi_plus, dC_minus, dC_plus) of the driven response at
    ``omega`` from the u, v, C_u, C_v blocks of the stored right vectors,
    with the metric of ``spectrum.reconstruct`` (empty natural orbitals
    left out); orbitals as per-DOF lists of grid values."""
    rm, state = spec.rm, spec.rm.state
    wr = spec.eigenvalues[spec.retained].real
    keep = ~spec.sng_undefined
    lo, hi = 1.0 / (omega - wr[keep]), 1.0 / (omega + wr[keep])
    gp, gm = weights.gamma_plus[keep], weights.gamma_minus[keep]
    us, vs, cu, cv = rm.layout.split(spec.right[:, keep])
    cv = cv.conj()
    minus, plus = gp * lo, gm * hi
    dphi = []
    for u, v, rho, g in zip(us, vs, state.rho1, state.grids):
        m, v = natural_power(rho, -0.5), v.conj()
        dphi.append(m @ np.stack([u @ minus + v @ plus,
                                  v @ minus.conj() + u @ plus.conj()])
                    / np.sqrt(g.weight))
    return ([d[0] for d in dphi], [d[1] for d in dphi],
            cu @ minus + cv @ plus, cv @ minus.conj() + cu @ plus.conj())


def left(spec):
    """Left vectors Sigma3 R sng of the retained modes."""
    return li.sigma3(spec.rm.layout)[:, None] * spec.right * spec.sng


def right_neg(spec):
    """Right vectors Sigma1 conj(R) of the negative partners."""
    return spec.right.conj()[li.sigma1(spec.rm.layout)]


def left_neg(spec):
    """Left vectors Sigma1 conj(Sigma3 R sng) of the negative partners."""
    return left(spec).conj()[li.sigma1(spec.rm.layout)]


def dC(rec, t):
    """The driven first-order coefficients of ``rec`` at time t."""
    return (rec.dC_minus * np.exp(-1j * rec.omega * t)
            + rec.dC_plus * np.exp(+1j * rec.omega * t))


def wavefunction_terms(rec, t=0.0):
    """Expansion data of the driven wavefunction.

    Returns (config, kind, coefficient) rows: the zeroth-order and
    first-order coefficient parts on the unchanged configurations, plus
    one branch per (config, orbital) moving a particle into the
    response orbital, weighted by sqrt(n_j) ||delta phi_j|| and the
    statistics phase (-1)^(occupations above j) for fermions.
    """
    state = rec.state
    space = state.space
    norms = np.sqrt(rec.orbital_norms(t)[0])
    dc = dC(rec, t)
    rows = []
    fermion = space.statistics == "fermion"
    for i, occ in enumerate(space.configs):
        rows.append((occ, "static", complex(state.C[i])))
        rows.append((occ, "coefficient", complex(dc[i])))
        for j, nj in enumerate(occ):
            if nj == 0:
                continue
            phase = (-1.0) ** sum(occ[j + 1:]) if fermion else 1.0
            rows.append((occ, f"response_orbital_{j}",
                         complex(state.C[i] * phase * np.sqrt(nj) * norms[j])))
    return rows


def save_spectrum_csv_rows(path, spec, weights=None, header_lines=()):
    """spectrum.csv written row by row, each field formatted on its own."""
    fmt = "%.17g"
    ret_pos = {int(k): i for i, k in enumerate(spec.retained)}
    zero_set = set(int(z) for z in spec.zero_modes)
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("index,re_omega,im_omega,sng,is_zero_mode,abs_gamma_plus,"
                 "abs_gamma_minus\n")
        for idx, w in enumerate(spec.eigenvalues):
            sng = gp = gm = 0.0
            if idx in ret_pos:
                i = ret_pos[idx]
                sng = float(spec.sng[i])
                if weights is not None:
                    gp = abs(weights.gamma_plus[i])
                    gm = abs(weights.gamma_minus[i])
            fh.write(",".join([str(idx), fmt % w.real, fmt % w.imag, fmt % sng,
                               str(int(idx in zero_set)), fmt % gp,
                               fmt % gm]) + "\n")


def save_weights_csv_rows(path, spec, weights, header_lines=()):
    """weights.csv written row by row, each field formatted on its own."""
    fmt = "%.17g"
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("mode,omega,sng,abs_gamma_plus,abs_gamma_minus\n")
        for i, k in enumerate(spec.retained):
            fh.write(",".join([
                str(int(k)), fmt % spec.eigenvalues[k].real,
                fmt % spec.sng[i], fmt % abs(weights.gamma_plus[i]),
                fmt % abs(weights.gamma_minus[i])]) + "\n")


def save_spectrum_csv_values(path, spec, weights=None, header_lines=(),
                             weights_path=None):
    """Both CSV files from one table of text rows, every value formatted on
    its own: the real and imaginary part of each eigenvalue, and sng and
    the scalar abs of each weight of a retained mode."""
    fmt, w, ret = "%.17g".__mod__, spec.eigenvalues, spec.retained.tolist()
    zero = set(spec.zero_modes.tolist())
    rows = [[str(k), fmt(x), fmt(y), "0", "1" if k in zero else "0", "0", "0"]
            for k, (x, y) in enumerate(zip(w.real.tolist(), w.imag.tolist()))]
    gp, gm = ([0.0] * len(ret),) * 2 if weights is None else (
        weights.gamma_plus.tolist(), weights.gamma_minus.tolist())
    for k, sng, p, m in zip(ret, spec.sng.tolist(), gp, gm):
        rows[k][3], rows[k][5], rows[k][6] = fmt(sng), fmt(abs(p)), fmt(abs(m))
    spm._write_csv(path, header_lines,
                   ["index", "re_omega", "im_omega", "sng", "is_zero_mode",
                    "abs_gamma_plus", "abs_gamma_minus"], rows)
    if weights_path is not None:
        spm._write_csv(weights_path, header_lines,
                       ["mode", "omega", "sng", "abs_gamma_plus",
                        "abs_gamma_minus"],
                       [[rows[k][i] for i in (0, 1, 3, 5, 6)] for k in ret])


# --- complements: the butterfly frame and the compact-WY application ---------


def _reflectors(rows):
    """Compact WY factors (V, W = V T) of the Householder QR of ``rows``^T
    (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 53 (1989)): for k
    orthonormal rows, Q = I - W V^H is LAPACK's Q, real for real rows, and
    its columns after the first k span the complement of the rows."""
    h, tau = np.linalg.qr(rows.T, mode="raw")
    V = np.tril(h.T, -1) + np.eye(*h.T.shape)
    T = np.diag(tau)
    for i in range(1, len(tau)):
        T[:i, i] = -tau[i] * (T[:i, :i] @ (V[:, :i].conj().T @ V[:, i]))
    return V, V @ T


def _hermitian_reflector(x):
    """Compact WY factors (V, W) of the Hermitian Householder reflector
    I - W V^H that maps the vector ``x`` onto -e^(i arg x_0) |x| e_0 (phase
    1 for x_0 = 0): V = v / v_0 for v = x + e^(i arg x_0) |x| e_0, so that
    V_0 = 1, and W = tau V with tau = 2 / |V|^2."""
    v = x.copy()
    v[0] += (x[0] / abs(x[0]) if x[0] else 1.0) * np.linalg.norm(x)
    V = (v / v[0])[:, None]
    return V, V * (2.0 / np.vdot(V, V).real)


@dataclass(frozen=True)
class SwapFrame:
    """Rows 0 and ``row`` of one block swapped (an involution)."""

    row: int

    def to_frame(self, x):
        f = x.copy()
        f[[0, self.row]] = x[[self.row, 0]]
        return f

    from_frame = to_frame


@dataclass(frozen=True)
class MirrorFrame:
    """The even/odd (butterfly) frame of the n points of a mirror-symmetric
    grid, with the row order of ``li._mirror_frame``, applied on axis 1
    with slices: O(n) per column, no n x n matrix."""

    n_even: int
    n_odd: int

    def _runs(self, n):
        """(h, the centre point's frame row or None, the four runs): each
        run is (frame rows, pairs), pair i being the points h - 1 - i and
        n - h + i, counted from the centre; the runs are the even pivot
        pairs, the odd pivots, the other even pairs and the other odd
        rows.  The centre of an odd n is an even row, a pivot if any is."""
        h, mid = n // 2, n % 2
        k, pe = self.n_even + self.n_odd, max(self.n_even - mid, 0)
        centre = (0 if self.n_even else k) if mid else None
        lo = k + (mid if not self.n_even else 0)
        return h, centre, ((slice(self.n_even - pe, self.n_even), slice(0, pe)),
                           (slice(self.n_even, k), slice(0, self.n_odd)),
                           (slice(lo, lo + h - pe), slice(pe, h)),
                           (slice(lo + h - pe, n), slice(self.n_odd, h)))

    def to_frame(self, x):
        h, centre, runs = self._runs(x.shape[1])
        top, bottom = x[:, h - 1::-1], x[:, x.shape[1] - h:]
        f = np.empty_like(x)
        for (rows, pairs), op in zip(runs, (np.add, np.subtract) * 2):
            op(top[:, pairs], bottom[:, pairs], out=f[:, rows])
        f *= np.sqrt(0.5)
        if centre is not None:
            f[:, centre] = x[:, h]
        return f

    def from_frame(self, f):
        """The transpose of ``to_frame``: the even and the odd pair rows
        gathered run by run, then their sums and differences."""
        n = f.shape[1]
        h, centre, runs = self._runs(n)
        even, odd = (np.concatenate([f[:, rows] for rows, _ in runs[i::2]],
                                    axis=1) for i in (0, 1))
        x = np.empty_like(f)
        np.add(even, odd, out=x[:, h - 1::-1])
        np.subtract(even, odd, out=x[:, n - h:])
        x *= np.sqrt(0.5)
        if centre is not None:
            x[:, h] = f[:, centre]
        return x

    def odd_rows(self, n: int) -> np.ndarray:
        """Which of the n frame rows are odd."""
        odd = np.zeros(n, dtype=bool)
        _, _, runs = self._runs(n)
        odd[runs[1][0]] = odd[runs[3][0]] = True
        return odd


def wy_complements(rm):
    """Per DOF (``MirrorFrame`` or None, compact WY factors (V, W)) of the
    Householder QR of its orbitals that ``rm.bases`` are formed from, then
    (``SwapFrame`` or None, (V, W)) for C: its Hermitian reflector in the
    rows with the pivot of ``rm.householder`` swapped to the first."""
    st = rm.state
    phis, C = [s.scaled for s in st.sets], st.C
    if not np.iscomplexobj(rm.a):
        phis, C = [p.real for p in phis], C.real
    pars = li._mirror_parities(st, phis, C)
    out = []
    for j, phi in enumerate(phis):
        if pars is None:
            out.append((None, _reflectors(phi)))
            continue
        p = pars[0][j]
        G = MirrorFrame(int(np.sum(p > 0)), int(np.sum(p < 0)))
        out.append((G, _reflectors(
            G.to_frame(phi[np.argsort(p < 0, kind="stable")]))))
    pivot = rm.householder[1]
    G = SwapFrame(pivot) if pivot else None
    return out + [(G, _hermitian_reflector(C if G is None
                                           else G.to_frame(C)))]


def swap_order(G, n):
    """For each row of C but the pivot, in ascending order, the complement
    column (frame row minus one) that stands for it in the frame of the
    ``SwapFrame`` G: frame row p holds row 0 when G swaps in the pivot p."""
    rows = np.arange(1, n)
    if G is not None:
        rows = np.r_[G.row, rows[:G.row - 1], rows[G.row:]]
    return rows - 1


def _in_frame(G, x, back=False):
    """The (slots, points, columns) stack ``x`` in the rows G^T (G with
    ``back``): a ``MirrorFrame`` on the point axis, the ``SwapFrame`` of C
    on its one slot."""
    if G is None:
        return x
    if isinstance(G, MirrorFrame):
        return G.from_frame(x) if back else G.to_frame(x)
    return G.to_frame(x[0])[None]


def wy_lift(rm, v, adjoint=False, power=0.0):
    """B U n^power v, or n^power U^H B^H v with ``adjoint``, block by block
    from the frames and WY factors of ``wy_complements``: with
    Q = I - W V^H and V of shape (n, k), B v = G ([0; v] - W (V[k:]^H v))
    and B^H x = y[k:] - V[k:] (W^H y) for y = G^T x, then (n, U) of
    ``rm.natural`` on the slot axis, n^power on the reduced slots
    (C has one slot and no U; its reduced coordinates follow the rows of C,
    ``swap_order``)."""
    c, i, out = v.shape[1], 0, []
    for M, (occ, U), (G, (V, W)) in zip(rm.layout.M_list + (1,),
                                        rm.natural + [(None, None)],
                                        wy_complements(rm)):
        (n, k), K = V.shape, M if U is None else U.shape[1]
        rows = M * n if adjoint else K * (n - k)
        s, i = v[i:i + rows], i + rows
        if adjoint:
            y = _in_frame(G, s.reshape(M, n, c))
            y = y[:, k:] - V[k:] @ (W.conj().T @ y)
            if U is None:
                y = y[:, swap_order(G, n)]
            else:
                y = (U.conj().T @ y.reshape(M, -1)) * occ[:, None] ** power
        else:
            if U is not None:
                s = U @ (s.reshape(K, -1) * occ[:, None] ** power)
            s = s.reshape(M, n - k, c)
            if U is None:
                s = s[:, np.argsort(swap_order(G, n))]
            y = W @ -(V[k:].conj().T @ s)
            y[:, k:] += s
            y = _in_frame(G, y, back=True)
        out.append(y.reshape(-1, c))
    return np.concatenate(out)


class WYResponseMatrix(li.ResponseMatrix):
    """A ``ResponseMatrix`` whose ``lift`` is ``wy_lift``, so that its
    ``pull``, ``to_space`` and ``to_reduced`` run the frames and the WY
    factors too."""

    def lift(self, v, adjoint=False, power=0.0):
        return wy_lift(self, v, adjoint, power)


def wy_response(rm):
    """``rm`` with the butterfly and compact-WY ``lift`` of ``wy_lift``."""
    return WYResponseMatrix(**{f.name: getattr(rm, f.name)
                               for f in dataclasses.fields(rm)})


def symmetry_defects_full(rm):
    """``spm.symmetry_defects`` from the full n x n differences a - a^H and
    b - b^T."""
    a, b = rm.a, rm.b
    return 0.0, max(li._absmax(a - a.conj().T), li._absmax(b - b.T))


# --- parity sectors: the one-sector solve and what it is compared on --------


def one_sector(rm):
    """``rm`` with every reduced coordinate in one sector: the eigensolve
    then runs the single half-size solve."""
    return dataclasses.replace(rm, sectors=np.ones(len(rm.a), dtype=int))


def cluster_weights(spec, R_vec, tol=1e-8):
    """(sqrt(sum |gamma+|^2), sqrt(sum |gamma-|^2)) over each cluster of
    retained modes within ``tol`` max|omega| of each other: |gamma+-| of a
    lone mode, and what no rotation inside a degenerate cluster changes."""
    w = spm.response_weights(spec, R_vec)
    omega = spec.omega
    edges = np.flatnonzero(np.diff(omega) > tol * np.abs(omega).max()) + 1
    return tuple(np.sqrt(np.add.reduceat(np.abs(g) ** 2, np.r_[0, edges]))
                 for g in (w.gamma_plus, w.gamma_minus))


def sector_outputs(rm, R_vec, omega, drive=None):
    """What ``mclr linres`` writes from the eigensolve of ``rm`` with
    ``drive``: the spectrum, its zero-mode census, the cluster weights and
    the arrays of ``reconstruction.ckpt``."""
    spec = spm.eigensolve(rm, drive=drive)
    r = spm.reconstruct(spec, spm.response_weights(spec, R_vec), omega)
    rec = (*r.dphi_minus, *r.dphi_plus, r.dC_minus, r.dC_plus,
           *r.orbital_norms(0.0))
    return spec, cluster_weights(spec, R_vec), rec


# --- first-quantized operators and Lagrange multipliers -----------------------


def first_quantized_one_body(n_modes: int, N: int, statistics: str, k: int,
                             q: int, basis=None) -> np.ndarray:
    """Dense matrix of sum_alpha |k><q|_alpha in the symmetrized basis."""
    labels, S = basis if basis is not None else symmetrized_basis(
        n_modes, N, statistics)
    E = np.zeros((n_modes, n_modes))
    E[k, q] = 1.0

    def apply_product(cols):
        T = cols.reshape((n_modes,) * N + (-1,))
        out = _product_apply_h(T, E, n_modes, N)
        return out.reshape(n_modes**N, -1)

    return _basis_operator(S, apply_product, n_modes**N)


def first_quantized_two_body(n_modes: int, N: int, statistics: str, k: int,
                             s: int, l: int, q: int, basis=None) -> np.ndarray:
    """Dense matrix of sum_{alpha != beta} |k><q|_alpha |s><l|_beta.

    This is the first-quantized form of c_k^dag c_s^dag c_l c_q.
    """
    labels, S = basis if basis is not None else symmetrized_basis(
        n_modes, N, statistics)
    Ekq = np.zeros((n_modes, n_modes))
    Ekq[k, q] = 1.0
    Esl = np.zeros((n_modes, n_modes))
    Esl[s, l] = 1.0

    def apply_product(cols):
        T = cols.reshape((n_modes,) * N + (-1,))
        out = np.zeros_like(T)
        for a in range(N):
            for b in range(N):
                if a == b:
                    continue
                out += _apply_one_body(_apply_one_body(T, Esl, b, n_modes, N),
                                       Ekq, a, n_modes, N)
        return out.reshape(n_modes**N, -1)

    return _basis_operator(S, apply_product, n_modes**N)


def lagrange_multipliers(state):
    """Recompute mu_kq = <phi_q|g_k> of identical particles from the state,
    g the unprojected right-hand side; the hermiticity defect goes to
    residuals."""
    (grid,), (orbs,) = state.grids, state.sets
    rho = fs.ReducedDensities(state.rho1[0], state.rho2)
    g = gs.orbital_eom_rhs(grid, orbs, state.h_ops[0], state.kernel_matrix,
                           rho, project=False)
    mu = grid.weight * (g @ orbs.orbitals.conj().T)
    state.residuals["mu_defect"] = float(np.abs(mu - mu.conj().T).max())
    return mu
