"""Independent ground truths used to verify the main solver stack.

Everything here is built from dense first-quantized linear algebra on
explicitly (anti)symmetrized product bases; none of it shares code with the
configuration-space mapping machinery it is used to check.

Contents:

* symmetrized product bases over arbitrary one-particle modes;
* exact diagonalization of few-particle grid Hamiltonians;
* the linear response of the bare time-dependent Schroedinger equation,
  whose eigenvalues are exactly the excitation gaps;
* a particle-conserving Bogoliubov-de Gennes reference for a single
  condensate orbital with contact interactions;
* closed-form normal modes of two bilinearly coupled harmonic oscillators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial, prod

import numpy as np

from .grid import Grid, OneBodyOperator, TwoBodyKernel, discretize_kernel

__all__ = [
    "symmetrized_basis",
    "EigenSystem",
    "exact_diag_grid",
    "se_linear_response",
    "bdg_reference",
    "coupled_oscillators_reference",
]

MAX_BASIS = 20_000


def symmetrized_basis(n_modes: int, N: int, statistics: str):
    """(Anti)symmetrized N-particle basis over ``n_modes`` one-particle modes.

    Returns (labels, S): ``labels`` are sorted index tuples (repetition
    allowed for bosons) in lexicographic order, ``S`` the sparse embedding
    of shape (n_modes**N, len(labels)) whose columns are the normalized
    permanents / determinants in the product basis.
    """
    if statistics == "boson":
        labels = list(combinations_with_replacement(range(n_modes), N))
    elif statistics == "fermion":
        labels = list(combinations(range(n_modes), N))
    else:
        raise ValueError(f"unknown statistics {statistics!r}")
    dim = n_modes**N
    rows, cols, vals = [], [], []
    for col, label in enumerate(labels):
        mult = prod(factorial(label.count(m)) for m in set(label))
        norm = 1.0 / np.sqrt(factorial(N) * mult)
        amp = {}
        for perm in permutations(range(N)):
            t = tuple(label[p] for p in perm)
            sign = 1.0
            if statistics == "fermion":
                sign = _perm_sign(perm)
            idx = int(np.ravel_multi_index(t, (n_modes,) * N))
            amp[idx] = amp.get(idx, 0.0) + sign * norm
        for idx, a in amp.items():
            if a != 0.0:
                rows.append(idx)
                cols.append(col)
                vals.append(a)
    from scipy.sparse import csr_matrix
    S = csr_matrix((vals, (rows, cols)), shape=(dim, len(labels)))
    return labels, S


def _perm_sign(perm):
    sign = 1.0
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _apply_one_body(T, mat, slot, n_modes, N):
    """Apply a one-particle matrix at one slot of a product-space block.

    ``T`` has shape (n_modes,)*N + (cols,).
    """
    out = np.tensordot(mat, T, axes=(1, slot))
    return np.moveaxis(out, 0, slot)


def _product_apply_h(T, h, n_modes, N):
    out = np.zeros_like(T)
    for slot in range(N):
        out += _apply_one_body(T, h, slot, n_modes, N)
    return out


def _broadcast_pair(V, a, b, N):
    """Pair-potential samples shaped to broadcast over product slots a < b."""
    if a > b:
        a, b, V = b, a, V.T
    shape = [1] * (N + 1)
    shape[a] = V.shape[0]
    shape[b] = V.shape[1]
    return np.ascontiguousarray(V).reshape(shape)


@dataclass
class EigenSystem:
    """Full eigendecomposition of a few-particle grid Hamiltonian."""

    energies: np.ndarray
    vectors: np.ndarray = field(repr=False)      # columns, symmetrized basis
    labels: list = field(repr=False, default=None)
    S: object = field(repr=False, default=None)  # product-space embedding
    grid: Grid = None
    N: int = 0
    statistics: str = "boson"
    n_states: int = 0

    def excitations(self, k_max=None):
        gaps = self.energies - self.energies[0]
        return gaps[1:k_max + 1] if k_max else gaps[1:]


def _basis_operator(S, apply_product, dim_product, chunk=256):
    """Assemble S^dag O S for a product-space operator given by its action.

    Columns are densified in chunks so the product space never has to hold
    the whole symmetrizer at once.
    """
    B = S.shape[1]
    out = np.empty((B, B), dtype=complex)
    St = S.conj().T.tocsr()
    for start in range(0, B, chunk):
        cols = S[:, start:start + chunk].toarray().astype(complex)
        out[:, start:start + chunk] = St @ apply_product(cols)
    return out


def exact_diag_grid(N: int, statistics: str, grid: Grid, h_op: OneBodyOperator,
                    kernel: TwoBodyKernel | None, n_states: int = 10) -> EigenSystem:
    """Lowest eigenpairs of the full N-particle grid Hamiltonian.

    Dense and deliberately naive: product space, explicit symmetrizer,
    eigh.  Limited to N <= 3 and basis sizes below 20000.
    """
    if N > 3:
        raise ValueError("exactness reference limited to N <= 3")
    n = grid.n_points
    labels, S = symmetrized_basis(n, N, statistics)
    if len(labels) > MAX_BASIS:
        raise ValueError(f"basis size {len(labels)} exceeds {MAX_BASIS}")
    V = None
    if kernel is not None and kernel.kind != "none":
        V = discretize_kernel(grid, kernel)

    def apply_product(cols):
        T = cols.reshape((n,) * N + (-1,))
        out = _product_apply_h(T, h_op.matrix, n, N)
        if V is not None:
            for a in range(N):
                for b in range(a + 1, N):
                    out += T * _broadcast_pair(V, a, b, N)
        return out.reshape(n**N, -1)

    H = _basis_operator(S, apply_product, n**N)
    H = 0.5 * (H + H.conj().T)
    energies, vectors = np.linalg.eigh(H)
    return EigenSystem(energies=energies, vectors=vectors, labels=labels, S=S,
                       grid=grid, N=N, statistics=statistics,
                       n_states=min(n_states, len(energies)))


# ---------------------------------------------------------------------------
# linear response of the bare Schroedinger equation


def build_probe_matrix(eigsys: EigenSystem, f_op: OneBodyOperator) -> np.ndarray:
    """One-body probe sum_alpha f(x_alpha) in the eigenbasis of H."""
    n = eigsys.grid.n_points
    N = eigsys.N

    def apply_product(cols):
        T = cols.reshape((n,) * N + (-1,))
        out = _product_apply_h(T, f_op.matrix, n, N)
        return out.reshape(n**N, -1)

    F_basis = _basis_operator(eigsys.S, apply_product, n**N)
    V = eigsys.vectors
    return V.conj().T @ F_basis @ V


def se_linear_response(eigsys: EigenSystem, f_op: OneBodyOperator | None,
                       omega: float) -> dict:
    """Linear response of the time-dependent Schroedinger equation.

    Builds the two projected blocks P0 (H - E0) P0 and -P0* (H* - E0) P0*,
    diagonalizes them, and returns the two eigenvalue branches together
    with the driven-response expansion coefficients

        c_k  =  <Phi_k| f^dag |Phi_0> / (omega - omega_k),
        c_-k = -conj(<Phi_0| f |Phi_k>) / (omega + omega_k) .

    Also reports the identity- and spectral-resolution defects of the
    response matrix.
    """
    E = eigsys.energies
    V = eigsys.vectors
    B = len(E)
    E0 = E[0]
    # in the eigenbasis of H the projected block is diagonal
    gaps = E - E0
    if f_op is not None and np.any(np.abs(omega - gaps[1:]) < 1e-12):
        raise ValueError("probe frequency sits on an excitation pole")

    # explicit construction + diagonalization of the projected blocks
    H_eig = np.diag(E)
    P0 = np.eye(B)
    P0[0, 0] = 0.0           # eigenbasis: the ground direction is axis 0
    A = P0 @ (H_eig - E0 * np.eye(B)) @ P0
    upper_vals, upper_vecs = np.linalg.eigh(A)
    lower_vals = -upper_vals

    result = {
        "omega_plus": np.sort(upper_vals)[1:],     # drop the single zero mode
        "omega_minus": np.sort(lower_vals)[::-1][1:],
        "gaps": gaps[1:],
    }

    # resolution defects in the doubled space (block diagonal, eigenbasis)
    upper_branch = np.zeros((2 * B, B))
    upper_branch[:B] = np.eye(B)
    lower_branch = np.zeros((2 * B, B))
    lower_branch[B:] = np.eye(B)
    ident = upper_branch @ upper_branch.T + lower_branch @ lower_branch.T
    result["identity_defect"] = float(np.abs(ident - np.eye(2 * B)).max())
    Lmat = np.zeros((2 * B, 2 * B))
    Lmat[:B, :B] = A
    Lmat[B:, B:] = -A.conj()
    spectral = np.zeros_like(Lmat)
    for k in range(1, B):
        spectral[k, k] = gaps[k]
        spectral[B + k, B + k] = -gaps[k]
    result["spectral_defect"] = float(np.abs(Lmat - spectral).max())

    if f_op is not None:
        F = build_probe_matrix(eigsys, f_op)       # matrix of f^dag
        c_plus = F[1:, 0] / (omega - gaps[1:])
        c_minus = -np.conj(F[0, 1:]) / (omega + gaps[1:])
        result["c_plus"] = c_plus
        result["c_minus"] = c_minus
    return result


# ---------------------------------------------------------------------------
# particle-conserving Bogoliubov-de Gennes reference


def bdg_reference(grid: Grid, h_op: OneBodyOperator, contact_lambda: float,
                  N: int, condensate: np.ndarray | None = None,
                  opts=None) -> dict:
    """Particle-conserving condensate linear response for contact coupling.

    ``condensate`` is the stationary single-orbital solution in grid values;
    if omitted it is computed here.  Returns the positive-branch
    frequencies, the (u, v) amplitudes, and their metric normalization
    defects max |<u|u> - <v|v> - 1|.
    """
    g = contact_lambda * (N - 1)
    if condensate is None:
        from . import fockspace as fs
        from .groundstate import SolverOptions, solve_mchx
        space = fs.enumerate_configs("boson", N=N, M=1)
        kern = TwoBodyKernel("contact", strength=contact_lambda)
        state = solve_mchx(space, grid, h_op, kern, opts or SolverOptions())
        condensate = state.sets[0].orbitals[0]
    phi_t = np.sqrt(grid.weight) * np.asarray(condensate)   # unit vector
    dens = np.abs(condensate) ** 2                          # |phi(x)|^2
    n = grid.n_points

    hgp = h_op.matrix + g * np.diag(dens)
    mu = float(np.real(phi_t.conj() @ hgp @ phi_t))
    Q = np.eye(n) - np.outer(phi_t, phi_t.conj())
    A = Q @ (hgp + g * np.diag(dens) - mu * np.eye(n)) @ Q
    Bm = Q @ (g * np.diag(np.asarray(condensate) ** 2)) @ Q.conj()
    L = np.block([[A, Bm], [-Bm.conj(), -A.conj()]])
    vals, vecs = np.linalg.eig(L)
    order = np.argsort(vals.real)
    vals, vecs = vals[order], vecs[:, order]
    pos = vals.real > 1e-8 * max(1.0, np.abs(vals.real).max())
    freqs = vals[pos]
    uv = vecs[:, pos]
    norm_defects = []
    for i in range(uv.shape[1]):
        u, v = uv[:n, i], uv[n:, i]
        pseudo = np.vdot(u, u) - np.vdot(v, v)
        if abs(pseudo) > 1e-12:
            uv[:, i] /= np.sqrt(abs(pseudo))
            u, v = uv[:n, i], uv[n:, i]
            norm_defects.append(abs(np.vdot(u, u) - np.vdot(v, v) - 1.0))
    return {
        "frequencies": np.sort(freqs.real),
        "uv": uv,
        "norm_defects": np.asarray(norm_defects),
        "mu": mu,
        "condensate": condensate,
    }


def coupled_oscillators_reference(lam: float):
    """Normal-mode frequencies of H = (p1^2+x1^2+p2^2+x2^2)/2 + lam x1 x2."""
    if abs(lam) >= 1.0:
        raise ValueError("|coupling| must stay below 1 for a bound well")
    return np.sort([np.sqrt(1.0 - lam), np.sqrt(1.0 + lam)])
