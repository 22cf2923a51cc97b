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

to machine precision, and P L P = L holds structurally.  P and M^(-1/2)
are block diagonal and commute, so L is formed from block products of the
u/C_u rows of L_raw; the v/C_v rows follow as mirrors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

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
    floor: float = 0.0                  # eigenvalue floor of the metric
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


def _sector_stack(layout, orb_block, c_block) -> np.ndarray:
    """D x D block-diagonal matrix: ``orb_block`` on the u sector, its
    conjugate on v, ``c_block`` on C_u and its conjugate on C_v."""
    orb = layout.orb
    out = np.zeros((layout.D, layout.D), dtype=complex)
    out[:orb, :orb] = orb_block
    out[orb:2 * orb, orb:2 * orb] = orb_block.conj()
    out[layout.cu_slice, layout.cu_slice] = c_block
    out[layout.cv_slice, layout.cv_slice] = c_block.conj()
    return out


def _projected_L(layout, blocks: dict, Gu: np.ndarray, Pc: np.ndarray):
    """L = P M^(-1/2) L_raw M^(-1/2) P as block products.

    G = P M^(-1/2) is block diagonal: ``Gu`` on the u sector, Gu* on v, Pc
    and Pc* on the coefficient sectors.  With x = (u, C_u), y = (v, C_v),
    the x rows of L are G_x L_raw[x, x] G_x and G_x L_raw[x, y] G_x*.  As
    L_raw[y, x] = -conj(L_raw[x, y]) and L_raw[y, y] = -conj(L_raw[x, x]),
    the y rows of L are the same mirrors of its x rows.
    """
    orb, nc = layout.orb, layout.n_conf
    Gx = np.zeros((orb + nc, orb + nc), dtype=complex)
    Gx[:orb, :orb] = Gu
    Gx[orb:, orb:] = Pc
    raw_xx = np.block([[blocks["A"], blocks["Loc_u"]],
                       [blocks["Lco_u"], blocks["cc_u"]]])
    raw_xy = np.block([[blocks["B"], blocks["Loc_v"]],
                       [blocks["Lco_v"], np.zeros((nc, nc))]])
    a = Gx @ raw_xx @ Gx
    b = Gx @ raw_xy @ Gx.conj()
    x = np.flatnonzero(sigma3(layout) > 0)
    y = sigma1(layout)[x]
    L = np.empty((layout.D, layout.D), dtype=complex)
    L[np.ix_(x, x)] = a
    L[np.ix_(x, y)] = b
    L[np.ix_(y, x)] = -b.conj()
    L[np.ix_(y, y)] = -a.conj()
    return L


def _null_vectors(layout, phis, C) -> np.ndarray:
    """Analytic null vectors, as columns: ground orbital b of DOF j in u slot
    (j, a) for every a, b, and C in the C_u slot, then their block-swapped
    conjugates.  ``phis`` holds the scaled orbitals of each DOF."""
    cols = []
    base = 0
    for phi in phis:
        M, n = phi.shape
        for a in range(M):
            for b in range(M):
                z = np.zeros(layout.D, dtype=complex)
                z[base + a * n:base + (a + 1) * n] = phi[b]
                cols.append(z)
        base += M * n
    z = np.zeros(layout.D, dtype=complex)
    z[layout.cu_slice] = C
    cols.append(z)
    Z = np.column_stack(cols)
    return np.hstack([Z, Z.conj()[sigma1(layout)]])


def _response_matrix(state, layout, blocks: dict, phis, rho1s,
                     floor: float) -> ResponseMatrix:
    """Projector, metric powers and L from the raw blocks, for one DOF per
    entry of ``phis`` (scaled orbitals) and ``rho1s`` (hermitized one-body
    densities); identical particles are the one-DOF case."""
    Pg, half, neghalf, clipped = [], [], [], False
    for phi, rho in zip(phis, rho1s):
        Pg.append(np.eye(phi.shape[1], dtype=complex) - phi.T @ phi.conj())
        h, c1 = regularized_power(rho, +0.5, floor)
        nh, c2 = regularized_power(rho, -0.5, floor)
        half.append(h)
        neghalf.append(nh)
        clipped = clipped or c1 or c2
    C = state.C
    Pc = np.eye(layout.n_conf, dtype=complex) - np.outer(C, C.conj())
    eye_c = np.eye(layout.n_conf)

    def orbital(mats, grid_mats):
        return block_diag(*[np.kron(m, g) for m, g in zip(mats, grid_mats)])

    eyes_g = [np.eye(len(p)) for p in Pg]
    eyes_m = [np.eye(len(h)) for h in half]
    P = _sector_stack(layout, orbital(eyes_m, Pg), Pc)
    M_half = _sector_stack(layout, orbital(half, eyes_g), eye_c)
    M_neghalf = _sector_stack(layout, orbital(neghalf, eyes_g), eye_c)
    L = _projected_L(layout, blocks, orbital(neghalf, Pg), Pc)
    return ResponseMatrix(layout=layout, L=L, P=P, M_half=M_half,
                          M_neghalf=M_neghalf, blocks=blocks, state=state,
                          metric_clipped=clipped, floor=floor,
                          null_vectors=_null_vectors(layout, phis, C))


def assemble_L(state: GroundState, floor: float | None = None) -> ResponseMatrix:
    """Full metric-transformed, projected response matrix.

    ``floor`` lifts the eigenvalues of the one-body density before its
    inverse square root is taken; the default is 1e-10 N.
    """
    layout = ResponseLayout(state.space.M, state.grid.n_points, state.space.size)
    A, B = build_oo_block(state)
    Loc_u, Loc_v, Lco_u, Lco_v = build_oc_co_blocks(state)
    cc_u, cc_v = build_cc_block(state)
    blocks = {"A": A, "B": B, "Loc_u": Loc_u, "Loc_v": Loc_v,
              "Lco_u": Lco_u, "Lco_v": Lco_v, "cc_u": cc_u, "cc_v": cc_v}
    if floor is None:
        floor = 1e-10 * state.space.N
    return _response_matrix(state, layout, blocks, [state.orbitals.scaled],
                            [_hermitized(state.rho.rho1)], floor)


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
    """Index swap of the u/v and C_u/C_v sectors: Sigma1 x = x[sigma1(layout)]."""
    orb, nc = layout.orb, layout.n_conf
    u, cu = np.arange(orb), np.arange(2 * orb, 2 * orb + nc)
    return np.concatenate([u + orb, u, cu + nc, cu])


def sigma3(layout) -> np.ndarray:
    """Signs of Sigma3: +1 on the u/C_u sectors, -1 on the v/C_v sectors."""
    d = np.ones(layout.D)
    d[layout.orb:2 * layout.orb] = -1.0
    d[layout.cv_slice] = -1.0
    return d


def zero_mode_vectors(rm: ResponseMatrix) -> np.ndarray:
    """The 2 (M^2 + 1) analytic null vectors, as columns.

    M^2 of them place each ground-state orbital in each u slot, one places
    the coefficient vector in the C_u slot; their block-swapped conjugates
    double the count.
    """
    return _null_vectors(rm.layout, [rm.state.orbitals.scaled], rm.state.C)
