"""Assembly of the linear-response matrix for identical bosons and fermions.

The response space stacks, in this order, the orbital response amplitudes
u_1..u_M, their partners v_1..v_M, and the coefficient amplitudes C_u, C_v;
its total dimension is D = 2 (M n_points + N_conf).

Inside this module orbital entries live in the scaled convention
phi~ = sqrt(dx) phi, which turns quadrature sums into plain dot products.
Grid operators keep their matrices under this scaling (dx is constant), so
every block below is written convention-free with scaled orbital vectors.
With the blocks built from hermitized ground-state ingredients, the final
matrix

    L = P M^(-1/2) L_raw M^(-1/2) P

satisfies the two spectral pairing symmetries

    Sigma1 L Sigma1 = -conj(L),     Sigma3 L Sigma3 = adjoint(L)

to machine precision, and P L P = L holds structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fockspace as fs
from . import hamiltonian as ham
from .grid import OneBodyOperator, TwoBodyKernel, discretize_kernel
from .groundstate import GroundState, regularized_power

__all__ = [
    "ResponseLayout",
    "ResponseMatrix",
    "PerturbationSpec",
    "build_oo_block",
    "build_oc_co_blocks",
    "build_cc_block",
    "assemble_L",
    "build_R",
    "sigma1",
    "sigma3",
    "zero_mode_vectors",
]

STATISTICS_SIGN = {"boson": +1.0, "fermion": -1.0}


@dataclass(frozen=True)
class ResponseLayout:
    """Block offsets of the combined orbital-coefficient response space."""

    M: int
    n_points: int
    n_conf: int

    @property
    def orb(self) -> int:
        return self.M * self.n_points

    @property
    def D(self) -> int:
        return 2 * (self.orb + self.n_conf)

    @property
    def v_off(self) -> int:
        return self.orb

    @property
    def cu_off(self) -> int:
        return 2 * self.orb

    @property
    def cv_off(self) -> int:
        return 2 * self.orb + self.n_conf

    def u_slice(self, k: int) -> slice:
        return slice(k * self.n_points, (k + 1) * self.n_points)

    def v_slice(self, k: int) -> slice:
        return slice(self.v_off + k * self.n_points,
                     self.v_off + (k + 1) * self.n_points)

    @property
    def cu_slice(self) -> slice:
        return slice(self.cu_off, self.cu_off + self.n_conf)

    @property
    def cv_slice(self) -> slice:
        return slice(self.cv_off, self.cv_off + self.n_conf)

    def split(self, x):
        """(u (M,n), v (M,n), C_u, C_v) views of a packed vector."""
        n, M = self.n_points, self.M
        return (x[:self.orb].reshape(M, n), x[self.orb:2 * self.orb].reshape(M, n),
                x[self.cu_slice], x[self.cv_slice])


@dataclass(frozen=True)
class PerturbationSpec:
    """Driving fields: one-body probe, optional pair probe, frequency > 0."""

    f_dag: OneBodyOperator | None = None
    g_dag: TwoBodyKernel | None = None
    omega: float = 1.0

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("static probes (omega <= 0) need a separate treatment")


@dataclass
class ResponseMatrix:
    """Projected, metric-transformed response matrix with its ingredients."""

    layout: ResponseLayout
    L: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    M_half: np.ndarray = field(repr=False)
    M_neghalf: np.ndarray = field(repr=False)
    blocks: dict = field(repr=False, default_factory=dict)
    state: GroundState = None
    metric_clipped: bool = False
    null_vectors: np.ndarray = field(default=None, repr=False)

    @property
    def D(self) -> int:
        return self.layout.D


def _require_converged(state, tol=1e-6):
    for name in ("orb_residual", "c_residual"):
        res = state.residuals.get(name)
        if res is None or res > tol:
            raise ValueError(
                f"stationarity residual {name} = {res} above {tol}: the "
                "expansion point must satisfy the static equations")


def _hermitized(mat):
    return 0.5 * (mat + mat.conj().T)


def _ingredients(state):
    """Scaled orbitals plus the hermitized density/multiplier matrices."""
    phi = state.orbitals.scaled
    rho1 = _hermitized(state.rho.rho1)
    mu = _hermitized(state.mu)
    h = state.h_op.matrix
    return phi, rho1, state.rho.rho2, mu, h


def build_oo_block(state: GroundState):
    """Orbital-orbital sub-matrices (A, B):

    A[kq] = rho_kq h - mu_kq + Omega_kq +/- kappa1_kq   (u rows, u columns)
    B[kq] = kappa2_kq                                    (u rows, v columns)

    with Omega the direct and kappa1/kappa2 the exchange couplings; the sign
    is + for bosons, - for fermions.  The same-statistics lower rows follow
    from (A, B) by the structural pattern [[A, B], [-conj(B), -conj(A)]].
    """
    _require_converged(state)
    layout = ResponseLayout(state.space.M, state.grid.n_points, state.space.size)
    phi, rho1, rho2, mu, h = _ingredients(state)
    M, n = layout.M, layout.n_points
    sign = STATISTICS_SIGN[state.space.statistics]
    km = state.kernel_matrix

    A = np.zeros((layout.orb, layout.orb), dtype=complex)
    B = np.zeros((layout.orb, layout.orb), dtype=complex)
    eye = np.eye(n)

    interacting = km is not None and np.any(km)
    if interacting:
        w = ham.local_potentials(state.orbitals, km)         # (s, l, x)
        om = np.einsum("kslq,slx->kqx", rho2, w)
        # exchange kernels, scaled convention
        K1 = np.einsum("lx,xy,sy->slxy", phi, km, phi.conj())   # K_sl
        K2 = np.einsum("sx,xy,ly->lsxy", phi, km, phi)          # K_{l* s}
        kap1 = np.einsum("kslq,slxy->kqxy", rho2, K1)
        kap2 = np.einsum("kqls,lsxy->kqxy", rho2, K2)

    for k in range(M):
        for q in range(M):
            blk = rho1[k, q] * h - mu[k, q] * eye
            if interacting:
                blk = blk + np.diag(om[k, q]) + sign * kap1[k, q]
                B[layout.u_slice(k), layout.u_slice(q)] = kap2[k, q]
            A[layout.u_slice(k), layout.u_slice(q)] = blk
    return A, B


def _mapped_vectors(state):
    """C^rho_qk for all (q, k) and C^rho_qlsk for all index quadruples."""
    space, C = state.space, state.C
    M = space.M
    one = np.empty((M, M, space.size), dtype=complex)
    for a in range(M):
        for b in range(M):
            one[a, b] = fs.apply_rho_kq(space, C, a, b)
    two = np.empty((M, M, M, M, space.size), dtype=complex)
    for a in range(M):
        for b in range(M):
            for c in range(M):
                for d in range(M):
                    two[a, b, c, d] = fs.apply_rho_kslq(space, C, a, b, c, d)
    return one, two


def build_oc_co_blocks(state: GroundState):
    """Rectangular orbital-coefficient couplings (Loc_u, Loc_v, Lco_u, Lco_v).

    The u rows read, per orbital slot k,

        Loc_u[k] = sum_q h|phi_q> conj(C^rho_qk)^T
                 + sum_qsl (W_sl phi_q) conj(C^rho_qlsk)^T,
        Loc_v[k] = sum_q h|phi_q> (C^rho_kq)^T
                 + sum_qsl (W_sl phi_q) (C^rho_kslq)^T,

    and the coefficient rows are their exact adjoint / transpose partners,
    which is also how they are constructed here.
    """
    _require_converged(state)
    layout = ResponseLayout(state.space.M, state.grid.n_points, state.space.size)
    phi, rho1, rho2, mu, h = _ingredients(state)
    M, n, nc = layout.M, layout.n_points, layout.n_conf
    km = state.kernel_matrix
    one, two = _mapped_vectors(state)

    h_phi = phi @ h.T                                        # rows h|phi_q>
    interacting = km is not None and np.any(km)
    if interacting:
        w = ham.local_potentials(state.orbitals, km)         # (s, l, x)

    Loc_u = np.zeros((layout.orb, nc), dtype=complex)
    Loc_v = np.zeros((layout.orb, nc), dtype=complex)
    for k in range(M):
        bu = np.zeros((n, nc), dtype=complex)
        bv = np.zeros((n, nc), dtype=complex)
        for q in range(M):
            bu += np.outer(h_phi[q], one[q, k].conj())
            bv += np.outer(h_phi[q], one[k, q])
            if interacting:
                for s in range(M):
                    for l in range(M):
                        wphi = w[s, l] * phi[q]
                        bu += np.outer(wphi, two[q, l, s, k].conj())
                        bv += np.outer(wphi, two[k, s, l, q])
        Loc_u[layout.u_slice(k)] = bu
        Loc_v[layout.u_slice(k)] = bv
    return Loc_u, Loc_v, Loc_u.conj().T, Loc_v.T


def build_cc_block(state: GroundState):
    """Coefficient-coefficient diagonal blocks (H - eps, eps - conj(H)).

    The lower block realizes the starred Hamiltonian: matrix elements
    conjugated, density operators untouched, which in the configuration
    basis is the elementwise conjugate of H.
    """
    _require_converged(state)
    H = ham.hamiltonian_matrix(state.space, state.orbitals, state.h_op,
                               state.kernel_matrix)
    H = _hermitized(H)
    eps = float(np.real(np.vdot(state.C, H @ state.C)))
    eye = np.eye(state.space.size)
    return H - eps * eye, eps * eye - H.conj()


def combined_projector(state: GroundState, layout: ResponseLayout) -> np.ndarray:
    phi = state.orbitals.scaled
    n = layout.n_points
    Pg = np.eye(n, dtype=complex) - phi.T @ phi.conj()
    P = np.zeros((layout.D, layout.D), dtype=complex)
    for k in range(layout.M):
        P[layout.u_slice(k), layout.u_slice(k)] = Pg
        P[layout.v_slice(k), layout.v_slice(k)] = Pg.conj()
    C = state.C
    Pc = np.eye(layout.n_conf, dtype=complex) - np.outer(C, C.conj())
    P[layout.cu_slice, layout.cu_slice] = Pc
    P[layout.cv_slice, layout.cv_slice] = Pc.conj()
    return P


def metric_powers(state: GroundState, layout: ResponseLayout,
                  floor: float | None = None):
    """Block-diagonal metric powers M^(+1/2), M^(-1/2) and a clipping flag."""
    if floor is None:
        floor = 1e-10 * state.space.N
    rho1 = _hermitized(state.rho.rho1)
    half, c1 = regularized_power(rho1, +0.5, floor)
    neghalf, c2 = regularized_power(rho1, -0.5, floor)
    eye = np.eye(layout.n_points)

    def stack(m):
        out = np.eye(layout.D, dtype=complex)
        out[:layout.orb, :layout.orb] = np.kron(m, eye)
        out[layout.orb:2 * layout.orb, layout.orb:2 * layout.orb] = \
            np.kron(m.conj(), eye)
        return out

    return stack(half), stack(neghalf), (c1 or c2)


def assemble_L(state: GroundState, floor: float | None = None) -> ResponseMatrix:
    """Full metric-transformed, projected response matrix."""
    layout = ResponseLayout(state.space.M, state.grid.n_points, state.space.size)
    A, B = build_oo_block(state)
    Loc_u, Loc_v, Lco_u, Lco_v = build_oc_co_blocks(state)
    cc_u, cc_v = build_cc_block(state)

    D = layout.D
    raw = np.zeros((D, D), dtype=complex)
    orb = layout.orb
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
    raw[cv, cv] = cc_v

    P = combined_projector(state, layout)
    M_half, M_neghalf, clipped = metric_powers(state, layout, floor)
    L = P @ (M_neghalf @ raw @ M_neghalf) @ P
    blocks = {"raw": raw, "A": A, "B": B, "Loc_u": Loc_u, "Loc_v": Loc_v,
              "Lco_u": Lco_u, "Lco_v": Lco_v, "cc_u": cc_u, "cc_v": cc_v}
    rm = ResponseMatrix(layout=layout, L=L, P=P, M_half=M_half,
                        M_neghalf=M_neghalf, blocks=blocks, state=state,
                        metric_clipped=clipped)
    rm.null_vectors = zero_mode_vectors(rm)
    return rm


def build_R(state: GroundState, pert: PerturbationSpec,
            rm: ResponseMatrix | None = None) -> np.ndarray:
    """Projected driving vector P [M^(+1/2) S1 + M^(-1/2) S2].

    S1 stacks the one-body probe (-f^dag phi, f^* phi^*, and the mapped
    coefficient entries), S2 the pair-probe mean fields and their
    coefficient entries.
    """
    _require_converged(state)
    if rm is None:
        rm = assemble_L(state)
    layout = rm.layout
    phi = state.orbitals.scaled
    space, C = state.space, state.C
    rho2 = state.rho.rho2

    S1 = np.zeros(layout.D, dtype=complex)
    S2 = np.zeros(layout.D, dtype=complex)

    if pert.f_dag is not None:
        F = pert.f_dag.matrix
        f_mat = ham.one_body_elements(state.orbitals, pert.f_dag)
        for k in range(layout.M):
            S1[layout.u_slice(k)] = -(F @ phi[k])
            S1[layout.v_slice(k)] = F.conj() @ phi[k].conj()
        S1[layout.cu_slice] = -fs.apply_second_quantized(space, C, f_mat)
        S1[layout.cv_slice] = fs.apply_second_quantized(space, C.conj(), f_mat.T)

    if pert.g_dag is not None and pert.g_dag.kind != "none":
        G = discretize_kernel(state.grid, pert.g_dag)
        gloc = ham.local_potentials(state.orbitals, G)        # (s, l, x)
        om_g = np.einsum("kslq,slx->kqx", rho2, gloc)
        for k in range(layout.M):
            S2[layout.u_slice(k)] = -np.einsum("qx,qx->x", om_g[k], phi)
            S2[layout.v_slice(k)] = np.einsum("qx,qx->x", om_g[k].conj(),
                                              phi.conj())
        gt = ham.two_body_tensor(state.orbitals, G)
        zero = np.zeros((layout.M, layout.M))
        S2[layout.cu_slice] = -fs.apply_second_quantized(space, C, zero, gt)
        S2[layout.cv_slice] = fs.apply_second_quantized(
            space, C.conj(), zero, np.transpose(gt, (3, 2, 1, 0)))

    return rm.P @ (rm.M_half @ S1 + rm.M_neghalf @ S2)


def sigma1(layout) -> np.ndarray:
    """Block-swap matrix exchanging the u/v and C_u/C_v sectors."""
    D = layout.D
    orb = layout.orb
    S = np.zeros((D, D))
    S[:orb, orb:2 * orb] = np.eye(orb)
    S[orb:2 * orb, :orb] = np.eye(orb)
    nc = layout.n_conf
    S[layout.cu_slice, layout.cv_slice] = np.eye(nc)
    S[layout.cv_slice, layout.cu_slice] = np.eye(nc)
    return S


def sigma3(layout) -> np.ndarray:
    """Block-sign matrix: +1 on the u/C_u sectors, -1 on the v/C_v sectors."""
    D = layout.D
    orb = layout.orb
    d = np.ones(D)
    d[orb:2 * orb] = -1.0
    d[layout.cv_slice] = -1.0
    return np.diag(d)


def zero_mode_vectors(rm: ResponseMatrix) -> np.ndarray:
    """The 2 (M^2 + 1) analytic null vectors, as columns.

    M^2 of them place each ground-state orbital in each u slot, one places
    the coefficient vector in the C_u slot; their block-swapped conjugates
    double the count.
    """
    layout = rm.layout
    phi = rm.state.orbitals.scaled
    C = rm.state.C
    cols = []
    for p in range(layout.M):
        for q in range(layout.M):
            z = np.zeros(layout.D, dtype=complex)
            z[layout.u_slice(p)] = phi[q]
            cols.append(z)
    z = np.zeros(layout.D, dtype=complex)
    z[layout.cu_slice] = C
    cols.append(z)
    S1 = sigma1(layout)
    cols += [S1 @ c.conj() for c in list(cols)]
    return np.column_stack(cols)
