"""Assembly of the linear-response matrix of a ``GroundState``, for
identical bosons and fermions and for distinguishable DOFs.

The response space stacks, in this order, the orbital response amplitudes
u_1..u_M, their partners v_1..v_M, and the coefficient amplitudes C_u, C_v;
its total dimension is D = 2 (M n_points + N_conf) for identical
particles, the one-DOF case of ``ResponseLayout``.  ``assemble_L`` and
``build_R`` serve both kinds, and so do the blocks built from the
configuration matrix and the mean fields of ``hamiltonian``: per DOF the
diagonal orbital block rho h - mu + Omega (``build_oo_block``), the
coefficient block H - eps (``build_cc_block``) and the probes' actions
(``ham.configuration_action`` and mean fields, for ``_driving_vector``).
What stays per kind is the exchange (same-DOF for identical particles,
here; across DOFs in ``linres_distinguishable.cross_dof_exchange``) and the
orbital-coefficient couplings, a gather from the compiled operator table
here and a tensor contraction in ``linres_distinguishable``.  The layout,
the projector, metric and block-product code are shared.

Inside this module orbital entries live in the scaled convention
phi~ = sqrt(dx) phi, which turns quadrature sums into plain dot products.
Grid operators keep their matrices under this scaling (dx is constant), so
every block below is written convention-free with scaled orbital vectors.
With the blocks built from hermitized ground-state ingredients, the final
matrix

    L = P M^(-1/2) L_raw M^(-1/2) P

satisfies the two spectral pairing symmetries

    Sigma1 L Sigma1 = -conj(L),     Sigma3 L Sigma3 = adjoint(L)

to machine precision, and P L P = L holds structurally.  ``ResponseMatrix``
keeps L as its two RPA halves on range(P).  The complement of the
orbitals of DOF j is the dense n_j x (n_j - M_j) basis Q_j, the trailing
columns of the unitary of the complete QR of phi_j^T; that of C is the
columns H e_i, i != p, of the Householder reflector H = I - h h^H that
maps C onto its pivot row p, never formed.  Q_j on each orbital slot and
H on C_u make the isometry B onto range(P) on x = (u, C_u).  The metric
of DOF j is its one-body density U n U^H on the K_j natural orbitals U it
keeps; an empty orbital has no coordinates.  The halves are
a = F^H L[x, x] F and b = F^H L[x, y] F*, F = B U n^(-1/2) and
y = (v, C_v), of size n = sum_j K_j (n_j - M_j) + N_conf - 1; the x rows
split into parts, the orbital slots of each DOF and C_u
(``ResponseMatrix.parts``).  ``lift``, ``pull`` and the isometry T = B U
on x and conj(B U) on y (``to_space``, ``to_reduced``), the one boundary
to the D-space, apply these factors: L = T L_r T^H with
L_r = [[a, b], [-b*, -a*]], and P M^p = T n^p T^H (``project``).  The
dense D x D L and P are built only on demand.

Mirror-parity sectors.  When every grid is symmetric about 0, every
orbital is even or odd and C lies in one parity class of configurations
(a configuration's parity is the product of those of its occupied
orbitals), each to PARITY_TOL, every reduced coordinate is even or odd:
per DOF the QR of the orbitals runs in the even/odd (butterfly) frame of
the grid (``_mirror_frame``), the even orbitals first, each pivoted on a
frame row of its own parity; the reflector of C is pivoted on the first
row of its class; the natural orbitals take one parity each (those of
rho, or of each parity block of rho where an even and an odd one share
an occupation).  A coordinate's sector is the parity of its natural
orbital times that of its complement column.  a and b are then block
diagonal to rounding and are kept per sector, even first, as a - b and
a + b (``ResponseMatrix.halves``): each raw block is pulled on its rows
by its part's factor, all its columns at once, and on its columns by the
other part's, straight into its sector blocks (``_pull_blocks``).  Of
the blocks between the sectors only the norm is taken; when that of a
or of b exceeds SECTOR_TOL max|L|, the problem is assembled again as one
sector, as it is without the symmetry.

Real arithmetic follows the problem: a real problem has float64
operators, orbitals, C and raw blocks from construction on, so the
complements and the halves are real arrays.  Complex
input (say a state whose arrays were cast to complex128) meets the one
realness test, in ``_response_matrix``: when no complex raw block,
orbital, one-body density or coefficient has an imaginary part, their
real parts are taken.  The spectrum reads the decision from the dtype
of the halves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hamiltonian as ham
from . import linres_distinguishable as ld
from .grid import discretize_kernel
from .groundstate import FLOOR_FRACTION, GroundState, _require_converged

__all__ = ["ResponseLayout", "ResponseMatrix", "PerturbationSpec",
           "build_oo_block", "build_oc_co_blocks", "build_cc_block",
           "assemble_L", "build_R", "sigma1", "sigma3"]

STATISTICS_SIGN = {"boson": +1.0, "fermion": -1.0}
# a grid, an orbital or C counts as mirror symmetric when its defect under
# the reflection x -> -x is at most PARITY_TOL (relative to the grid length;
# orbitals and C are unit vectors)
PARITY_TOL = 1e-10
# bound on the Frobenius norm of the blocks of a and of b between the even
# and the odd sector, relative to max|L|, below which the sectors are kept
SECTOR_TOL = 1e-10


@dataclass(frozen=True)
class ResponseLayout:
    """Offsets of the response space: per-DOF orbital stacks (M_j slots of
    n_j grid points) for u, the same for v, then C_u and C_v.  Identical
    particles are the one-DOF case."""

    M_list: tuple
    n_list: tuple
    n_conf: int

    @classmethod
    def of(cls, state) -> "ResponseLayout":
        """The layout of a ``GroundState`` of either particle kind."""
        return cls(tuple(s.M for s in state.sets),
                   tuple(g.n_points for g in state.grids), state.space.size)

    @property
    def Q(self) -> int:
        return len(self.M_list)

    @property
    def orb(self) -> int:
        return int(sum(m * n for m, n in zip(self.M_list, self.n_list)))

    @property
    def D(self) -> int:
        return 2 * (self.orb + self.n_conf)

    def _dof_offset(self, j: int) -> int:
        return int(sum(m * n for m, n in
                       zip(self.M_list[:j], self.n_list[:j])))

    def u_slice(self, j: int, a: int) -> slice:
        base = self._dof_offset(j) + a * self.n_list[j]
        return slice(base, base + self.n_list[j])

    def u_block(self, j: int) -> slice:
        base = self._dof_offset(j)
        return slice(base, base + self.M_list[j] * self.n_list[j])

    def v_block(self, j: int) -> slice:
        base = self.orb + self._dof_offset(j)
        return slice(base, base + self.M_list[j] * self.n_list[j])

    @property
    def cu_slice(self) -> slice:
        return slice(2 * self.orb, 2 * self.orb + self.n_conf)

    @property
    def cv_slice(self) -> slice:
        return slice(2 * self.orb + self.n_conf, self.D)

    def split(self, x):
        """(list of per-DOF u stacks (M_j, n_j), same for v, C_u, C_v); the
        columns of a matrix ``x`` become a trailing axis of each."""
        us = [x[self.u_block(j)].reshape((self.M_list[j], self.n_list[j])
                                         + x.shape[1:]) for j in range(self.Q)]
        vs = [x[self.v_block(j)].reshape((self.M_list[j], self.n_list[j])
                                         + x.shape[1:]) for j in range(self.Q)]
        return us, vs, x[self.cu_slice], x[self.cv_slice]


@dataclass(frozen=True)
class PerturbationSpec:
    """Driving fields: one one-body probe per DOF in ``f_dags`` (None for
    an unprobed DOF; empty for none at all), an optional pair probe
    ``g_dag`` (a ``TwoBodyKernel`` for identical particles, a
    ``PairCoupling`` or ``AllBodyTable`` across DOFs), frequency > 0."""

    f_dags: tuple = ()
    g_dag: object = None
    omega: float = 1.0

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("static probes (omega <= 0) need a separate treatment")


@dataclass
class ResponseMatrix:
    """Projected, metric-transformed response matrix with its ingredients.

    L_xx = B a B^H (a Hermitian) and L_xy = B b B^T (b symmetric) on the
    x = (u, C_u) and y = (v, C_v) sectors, with B, per DOF j, Q_j
    (``bases``) on each orbital slot and on C_u the reflector
    (``householder`` (h, p)); ``natural`` holds per DOF the kept natural
    orbitals (occupations n, orbitals U as columns), so the lift is B U.
    The reduced coordinates run by parity sector, even first (``sizes``),
    and by part; ``order`` holds per part its blocks (sector, rows in the
    sector, the part's own rows: natural orbital by complement column, or
    the rows of C but p).  ``halves`` holds (a - b, a + b) per sector
    solved apart; ``scale`` (max|a|, max|b|, that of L) and
    ``sigma3_defect`` (max(|a - a^H|, |b - b^T|) over the sector blocks)
    were read before they were combined.  ``state`` is the ground state
    of either particle kind that the response is linearized about.
    """

    layout: ResponseLayout
    halves: tuple = field(repr=False, default=())
    bases: list = field(repr=False, default_factory=list)
    householder: tuple = field(repr=False, default=None)
    natural: list = field(repr=False, default_factory=list)
    order: list = field(repr=False, default=None)
    sizes: tuple = ()
    state: GroundState = None
    metric_clipped: bool = False        # a natural orbital was left out
    scale: float = 0.0
    sigma3_defect: float = 0.0

    @property
    def D(self) -> int:
        return self.layout.D

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def parts(self, power: float = 0.0) -> list:
        """(basis, factor, x rows, blocks) of each part of the x rows: per
        DOF j its orbital slots, Q_j, U n^power and its blocks of
        ``order``; then C_u, h, None and its blocks."""
        out, x = [], 0
        for (occ, U), Q, blocks in zip(self.natural, self.bases, self.order):
            dx = len(U) * len(Q)
            out.append((Q, U * occ ** power, slice(x, x + dx), blocks))
            x += dx
        h = self.householder[0]
        return out + [(h, None, slice(x, x + len(h)), self.order[-1])]

    def lift(self, v: np.ndarray, adjoint: bool = False,
             power: float = 0.0) -> np.ndarray:
        """B U n^power v from the reduced coordinates to the x rows, or
        n^power U^H B^H v back with ``adjoint`` (``_pulled``), part by part
        (``parts``).  ``v`` is a matrix, one vector per column."""
        off, c = (0, self.sizes[0]), v.shape[1]
        out = np.empty((self.n if adjoint else self.layout.D // 2, c),
                       np.result_type(v, self.householder[0], *self.bases,
                                      *(U for _, U in self.natural)))
        for q, F, x, blocks in self.parts(power):
            rows = [(i, slice(off[s] + r.start, off[s] + r.stop))
                    for s, r, i in blocks]
            if adjoint:
                pulled = _pulled(q, F, v[x])
                for idx, r in rows:
                    pulled(idx, out[r])
                continue
            e = np.zeros((len(q) if F is None else len(F.T) * len(q.T), c),
                         out.dtype)
            for idx, r in rows:
                e[idx] = v[r]
            if F is None:
                np.subtract(e, q[:, None] * (q.conj() @ e)[None], out=out[x])
            else:
                g = (F @ e.reshape(len(F.T), -1)).reshape(len(F), -1, c)
                np.matmul(q, g, out=out[x].reshape(len(F), len(q), c))
        return out

    def pull(self, x: np.ndarray, power: float = 0.0) -> np.ndarray:
        """n^power U^H B^H x on the x rows: ``lift`` with ``adjoint``.  With
        U n U^H the one-body density on its kept natural orbitals, this is
        B^H M^power x for power 0, +1/2 or -1/2, taken on those orbitals."""
        return self.lift(x, adjoint=True, power=power)

    def to_space(self, v: np.ndarray, power: float = 0.0) -> np.ndarray:
        """T n^power v from the 2n reduced rows (x coordinates, then y) to
        the D rows of the response space: B U on the x half onto the rows
        (u, C_u) and conj(B U) on the y half onto (v, C_v), in one ``lift``.
        T is an isometry, and L = T L_r T^H since L[x, y] = B U b (B U)^T.
        ``v`` is a matrix, one vector per column."""
        n, k, o = self.n, v.shape[1], self.layout.orb
        xy = self.lift(np.hstack([v[:n], v[n:].conj()]), power=power)
        x, y = xy[:, :k], xy[:, k:].conj()
        return np.concatenate([x[:o], y[:o], x[o:], y[o:]])

    def to_reduced(self, x: np.ndarray, power: float = 0.0) -> np.ndarray:
        """n^power T^H x: ``pull`` of the (u, C_u) rows of the columns ``x``
        over its conjugate of the (v, C_v) rows, in one ``pull``."""
        lay, k, o = self.layout, x.shape[1], self.layout.orb
        xs, ys = (np.concatenate([x[i:i + o], x[c]]) for i, c in
                  ((0, lay.cu_slice), (o, lay.cv_slice)))
        p = self.pull(np.hstack([xs, ys.conj()]), power)
        return np.vstack([p[:, :k], p[:, k:].conj()])

    def full_halves(self) -> tuple:
        """(a, b), (a + b +- (a - b)) / 2 per sector, zero between them."""
        from scipy.linalg import block_diag
        m, p = (block_diag(*x) for x in zip(*self.halves))
        return (p + m) / 2, (p - m) / 2

    @property
    def L_r(self) -> np.ndarray:
        """The 2n x 2n reduced matrix [[a, b], [-b*, -a*]]."""
        a, b = self.full_halves()
        return np.block([[a, b], [-b.conj(), -a.conj()]])

    @property
    def L(self) -> np.ndarray:
        """Dense D x D matrix T L_r T^H, built on each access, with the blocks
        of a and b between the sectors pulled again from ``state``."""
        a, b = self.full_halves()
        if len(self.sizes) > 1:
            k, raw = self.sizes[0], _raw_blocks(self.state)
            raw = raw if np.iscomplexobj(a) else [m.real for m in raw]
            _pull_halves(self, raw, *([[None, m[:k, k:]], [m[k:, :k], None]]
                                      for m in (a, b)))
        L_r = np.block([[a, b], [-b.conj(), -a.conj()]])
        return self.to_space(self.to_space(L_r).conj().T).conj().T

    def project(self, x: np.ndarray, power: float = 0.0) -> np.ndarray:
        """P M^power x = T n^power T^H x for power 0, +1/2 or -1/2, with no
        projector formed.  ``x`` is a vector or a matrix with D rows."""
        cols = x.reshape(len(x), -1)
        return self.to_space(self.to_reduced(cols, power)).reshape(x.shape)

    def projector(self) -> np.ndarray:
        """Dense D x D projector onto the response coordinates, built on
        demand from ``project``; real for a real problem."""
        return self.project(np.eye(self.D))


def _sigma3_defect(a, b) -> float:
    """max(|a - adjoint(a)|, |b - transpose(b)|), each block of 128 rows
    against its columns from the diagonal on (|x_ij - x_ji| is symmetric):
    no n x n temporary, and the full differences' value to the last bit."""
    d3 = 0.0
    for i in range(0, len(a), 128):
        rows = slice(i, i + 128)
        d3 = max(d3, _absmax(a[rows, i:] - a[i:, rows].conj().T),
                 _absmax(b[rows, i:] - b[i:, rows].T))
    return d3


def _absmax(x) -> float:
    """max |x|; for a real x as max(max x, -min x), without an |x| array."""
    return float(np.abs(x).max() if np.iscomplexobj(x) else max(x.max(), -x.min()))


def _hermitized(mat):
    return 0.5 * (mat + mat.conj().T)


def build_oo_block(state: GroundState):
    """Orbital-orbital sub-matrices (A, B) over the stacked per-DOF u/v
    sectors, for either particle kind.  The diagonal block of DOF j is

        A[kq] = rho_kq h - mu_kq + Omega_kq   (u rows, u columns),

    Omega the mean fields of ``ham.mean_field_plans``.  Identical particles
    add their exchange, +/- kappa1 to A (+ for bosons, - for fermions) and
    kappa2 as B; distinguishable DOFs have none within a DOF, and B is zero
    there, but couple across DOFs (``ld.cross_dof_exchange``).  The
    same-statistics lower rows follow from (A, B) by the structural pattern
    [[A, B], [-conj(B), -conj(A)]].
    """
    _require_converged(state)
    layout = ResponseLayout.of(state)
    operand, phis = state.operand, [s.orbitals for s in state.sets]
    plans = ham.mean_field_plans(state.space, state.C, state.rho2, operand,
                                 [g.weight for g in state.grids])
    fields = ham.mean_fields(plans, phis)
    rho1s = [_hermitized(r) for r in state.rho1]
    mus = [_hermitized(m) for m in state.mu]
    hs = [h.matrix for h in state.h_ops]
    A = np.zeros((layout.orb,) * 2, dtype=np.result_type(
        state.C, *rho1s, *mus, *hs, *phis, *(f for f in fields if f is not None)))
    B = np.zeros(A.shape, A.dtype)      # a DOF's own block stays unwritten
    for j, (rho, mu, h, om) in enumerate(zip(rho1s, mus, hs, fields)):
        M, n = layout.M_list[j], layout.n_list[j]
        # (slot, point, slot, point) view of the block; the grid diagonal
        # is indexed with one index array on both point axes
        blk = A[layout.u_block(j), layout.u_block(j)].reshape(M, n, M, n)
        diag = np.arange(n)
        np.multiply(rho[:, None, :, None], h[None, :, None, :], out=blk)
        blk[:, diag, :, diag] -= mu
        if om is not None:
            blk[:, diag, :, diag] += om.transpose(2, 0, 1)
    if operand is None:
        return A, B
    if not state.space.identical:
        ld.cross_dof_exchange(state, A, B)
        return A, B
    # exchange kernels, scaled convention
    phi, rho2 = state.sets[0].scaled, state.rho2
    sign = STATISTICS_SIGN[state.space.statistics]
    K1 = np.einsum("lx,xy,sy->slxy", phi, operand, phi.conj())   # K_sl
    K2 = np.einsum("sx,xy,ly->lsxy", phi, operand, phi)          # K_{l* s}
    A += sign * np.einsum("kslq,slxy->kxqy", rho2, K1).reshape(A.shape)
    B += np.einsum("kqls,lsxy->kxqy", rho2, K2).reshape(B.shape)
    return A, B


def _mapped_vectors(state):
    """C^rho_qk for all (q, k) and C^rho_qlsk for all index quadruples,
    scattered in one step from the compiled operator table."""
    space, t = state.space, state.space.table
    M = space.M
    out = np.zeros((t.n_keys, space.size), dtype=np.result_type(state.C, float))
    out[t.key, t.dst] = t.fac * state.C[t.src]
    return out[:M * M].reshape(M, M, -1), out[M * M:].reshape(M, M, M, M, -1)


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
    phi, h = state.sets[0].scaled, state.h_ops[0].matrix
    (M, n), nc = phi.shape, state.space.size
    km = state.kernel_matrix
    one, two = _mapped_vectors(state)

    h_phi = phi @ h.T                                        # rows h|phi_q>
    Loc_u = np.einsum("qx,qkc->kxc", h_phi, one.conj())
    Loc_v = np.einsum("qx,kqc->kxc", h_phi, one)
    if km is not None and np.any(km):
        w = ham.local_potentials(state.sets[0], km)          # (s, l, x)
        wphi = w[:, :, None] * phi                           # (s, l, q, x)
        Loc_u += ham._einsum("slqx,qlskc->kxc", wphi, two.conj())
        Loc_v += ham._einsum("slqx,kslqc->kxc", wphi, two)
    Loc_u, Loc_v = Loc_u.reshape(M * n, nc), Loc_v.reshape(M * n, nc)
    return Loc_u, Loc_v, Loc_u.conj().T, Loc_v.T


def build_cc_block(state: GroundState):
    """Coefficient-coefficient block H - eps of the C_u rows, H the
    configuration Hamiltonian of either particle kind.

    The C_v block is its mirror eps - conj(H), the starred Hamiltonian:
    matrix elements conjugated, density operators untouched.
    """
    _require_converged(state)
    return _cc_block(ham.hamiltonian_matrix(state.space, state.sets,
                                            state.h_ops, state.operand),
                     state.C)


def _cc_block(H, C):
    """H - eps with H hermitized and eps = <C|H|C>, in one new array."""
    out = np.conjugate(H.T, order="C")
    out += H
    out *= 0.5
    eps = float(np.real(np.vdot(C, out @ C)))
    out[np.diag_indices_from(out)] -= eps
    return out


def _mirror_frame(n: int, n_even: int, n_odd: int):
    """(G^T, which rows are odd): the even/odd (butterfly) frame of the n
    points of a mirror-symmetric grid, point r mirroring to n - 1 - r, as
    an orthogonal matrix of frame rows.  The even rows are the centre point
    of an odd n and then (e_r + e_(n-1-r)) / sqrt 2, the odd rows
    (e_r - e_(n-1-r)) / sqrt 2, each kind from the centre of the grid
    outward; the first ``n_even`` even rows come first, then the first
    ``n_odd`` odd rows, then the other even rows, then the other odd
    ones."""
    h, eye = n // 2, np.eye(n)
    top, bottom = eye[h - 1::-1], eye[n - h:]
    even = np.vstack([eye[h:n - h], (top + bottom) * np.sqrt(0.5)])
    odd = (top - bottom) * np.sqrt(0.5)
    return (np.vstack([even[:n_even], odd[:n_odd],
                       even[n_even:], odd[n_odd:]]),
            np.repeat([False, True, False, True],
                      [n_even, n_odd, len(even) - n_even, h - n_odd]))


def _mirror_parities(state, phis, C):
    """(mirror parity +-1 of each orbital, per DOF; mask of the
    configurations in the parity class of C) when every grid is mirror
    symmetric, every orbital has a parity and C lies in one parity class,
    each to PARITY_TOL; None otherwise.  A configuration's parity is the
    product of the parities of its occupied orbitals, one per particle."""
    pars = [np.where((phi.conj() * phi[:, ::-1]).sum(axis=1).real < 0, -1, 1)
            for phi in phis]
    if any(np.abs(phi - p[:, None] * phi[:, ::-1]).max() > PARITY_TOL
           for phi, p in zip(phis, pars)) or any(
               abs(g.x_min + g.x_max) > PARITY_TOL * (g.x_max - g.x_min)
               for g in state.grids):
        return None
    space = state.space
    cfg = np.array(space.configs, dtype=np.intp).reshape(space.size, -1)
    if space.identical:
        even = cfg[:, pars[0] < 0].sum(axis=1) % 2 == 0
    else:
        even = np.prod([p[cfg[:, j]] for j, p in enumerate(pars)], axis=0) > 0
    weight = np.abs(C) ** 2
    cls = even if weight[even].sum() >= weight[~even].sum() else ~even
    if np.sqrt(weight[~cls].sum()) > PARITY_TOL:
        return None
    return pars, cls


def _natural_orbitals(rho, parities=None):
    """Kept natural orbitals (occupations n, orbitals U as columns, their
    parities) of one DOF's one-body density, in ascending occupation.
    Given the mirror parities of the orbitals, each natural orbital takes
    the parity of the class that carries it; where ``eigh`` mixes the two
    classes beyond PARITY_TOL (an occupation shared by an even and an odd
    natural orbital, as for a fermion pair), the natural orbitals are
    those of each parity block of rho instead."""
    occ, U = np.linalg.eigh(rho)
    par = np.ones(len(occ), dtype=int)
    if parities is not None:
        even, odd = (np.linalg.norm(U[parities == c], axis=0) for c in (1, -1))
        par = np.where(odd > even, -1, 1)
        if np.minimum(even, odd).max() > PARITY_TOL:
            U = np.zeros_like(U)
            for cls in (1, -1):
                idx = np.flatnonzero(parities == cls)
                occ[idx], U[np.ix_(idx, idx)] = np.linalg.eigh(
                    rho[np.ix_(idx, idx)])
                par[idx] = cls
            order = np.argsort(occ, kind="stable")
            occ, U, par = occ[order], U[:, order], par[order]
    keep = occ >= FLOOR_FRACTION * np.trace(rho).real
    return occ[keep], U[:, keep], par[keep]


def _orbital_complement(phi, parities=None):
    """(Q, parity of each of its columns): the dense orthonormal basis of
    the complement of one DOF's scaled orbitals ``phi``, the trailing
    columns of G times the unitary of the complete QR of their rows G^T.
    Given their mirror parities, G is the butterfly frame of the grid
    (``_mirror_frame``), the even orbitals first, each pivoted on a frame
    row of its parity nearest the centre of the grid (where the orbitals
    are large: the complement columns of the outer rows stay close to unit
    vectors, as in 1 - phi phi^H); each column of Q is then even or odd to
    the parity defect of the orbitals.  Without them G is the identity."""
    M, n = phi.shape
    Gt, odd = None, np.zeros(n, dtype=bool)
    if parities is not None:
        Gt, odd = _mirror_frame(n, int(np.sum(parities > 0)),
                                int(np.sum(parities < 0)))
        phi = phi[np.argsort(parities < 0, kind="stable")] @ Gt.T
    Q = np.linalg.qr(phi.T, mode="complete")[0][:, M:]
    return (Q if Gt is None else Gt.T @ Q), np.where(odd[M:], -1, 1)


def _coefficient_complement(C, cls=None):
    """(h, p, parity of each complement column relative to C) of the
    coefficient vector: H = I - h h^H maps C onto a multiple of e_p, so its
    columns H e_i, i != p in ascending order, span the complement of C.
    h = sqrt 2 w / |w| for w = C + e^(i arg C_p) |C| e_p (phase 1 for
    C_p = 0).  Given the mask ``cls`` of the parity class of C, p is the
    first row of the class, so the reflector stays inside the class to the
    parity defect of C; column i is a row of the class (+1) or of the other
    class (-1).  Without it p is 0."""
    p = 0 if cls is None else int(np.argmax(cls))
    w = C.copy()
    w[p] += (C[p] / abs(C[p]) if C[p] else 1.0) * np.linalg.norm(C)
    parities = (np.ones(len(C) - 1, dtype=int) if cls is None
                else np.delete(np.where(cls, 1, -1), p))
    return w * (np.sqrt(2.0) / np.linalg.norm(w)), p, parities


def _sector_order(natural, bases, householder, labels=None):
    """(``ResponseMatrix.order``, sector sizes): the coordinates of every
    part with label +1 (``labels``, per part, on its own rows), then those
    with -1; one sector without labels or when one would be empty."""
    h, p = householder
    rows = [np.arange(U.shape[1] * Q.shape[1]) for (_, U), Q in
            zip(natural, bases)] + [np.delete(np.arange(len(h)), p)]
    sizes, order = [0, 0], [[] for _ in rows]
    for sec, sign in enumerate((1, -1) if labels else (1,)):
        for blocks, r, lab in zip(order, rows, labels or rows):
            idx = r if labels is None else r[lab == sign]
            for i in range(0, len(idx), 512):   # bounds the pulls' transients
                j = idx[i:i + 512]
                blocks.append((sec, slice(sizes[sec], sizes[sec] + len(j)), j))
                sizes[sec] += len(j)
    if labels and 0 in sizes:
        return _sector_order(natural, bases, householder)
    return order, tuple(m for m in sizes if m)


def _response_matrix(state, blocks) -> ResponseMatrix:
    """Projector, metric and the halves from the raw ``blocks`` (A, B,
    Loc_u, Loc_v, Lco_u, Lco_v, cc_u), one DOF per orbital set of
    ``state``; identical particles are the one-DOF case.

    A natural orbital of DOF j is kept when its occupation is at least
    FLOOR_FRACTION tr rho_j (FLOOR_FRACTION N for identical particles,
    FLOOR_FRACTION for distinguishable DOFs).  An empty one has no inverse
    metric, and the directions it would carry leave delta Psi unchanged
    (Beck, Jaeckle, Worth & Meyer, Phys. Rep. 324, 1 (2000)).
    """
    phis = [s.scaled for s in state.sets]
    rho1s = [_hermitized(r) for r in state.rho1]
    C = state.C
    # the one realness decision of the response layer (module docstring)
    if not any(np.iscomplexobj(m) and np.any(m.imag)
               for m in [*blocks, *phis, *rho1s, C]):
        blocks = [m.real for m in blocks]
        phis, rho1s, C = [p.real for p in phis], [r.real for r in rho1s], C.real
    layout = ResponseLayout(tuple(len(p) for p in phis),
                            tuple(p.shape[1] for p in phis), len(C))
    pars, cls = (_mirror_parities(state, phis, C)
                 or ([None] * len(phis), None))
    natural, bases, labels = [], [], []
    for phi, rho, par in zip(phis, rho1s, pars):
        occ, U, nat = _natural_orbitals(rho, par)
        Q, trailing = _orbital_complement(phi, par)
        natural.append((occ, U))
        bases.append(Q)
        labels.append(np.outer(nat, trailing).ravel())
    h, p, trailing = _coefficient_complement(C, cls)
    labels.append(trailing)
    rm = ResponseMatrix(layout=layout, state=state, bases=bases,
                        householder=(h, p), natural=natural,
                        metric_clipped=sum(len(o) for o, _ in natural)
                        < sum(layout.M_list))
    dtype = np.result_type(*blocks, h, *bases, *(U for _, U in natural))
    for sectors in ([] if cls is None else [labels]) + [None]:
        rm.order, rm.sizes = _sector_order(natural, bases, (h, p), sectors)
        a, b = ([np.zeros((m, m), dtype) for m in rm.sizes] for _ in "ab")
        off = _pull_halves(rm, blocks, *([[x[0], None], [None, x[-1]]][:len(x)]
                                         for x in (a, b)))
        rm.scale = max(map(_absmax, a + b))
        if off <= (SECTOR_TOL * rm.scale) ** 2:
            break
    del blocks          # before a - b and a + b touch all their pages
    rm.sigma3_defect = max(map(_sigma3_defect, a, b))
    # a - b, and then (a - b) + 2 b, in place
    for m, q in zip(a, b):
        m -= q
        q *= 2.0
        q += m
    rm.halves = tuple(zip(a, b))
    return rm


def _pull_halves(rm, blocks, a, b) -> float:
    """a = F^H L_raw[x, x] F and b = F^H L_raw[x, y] F* into ``a``, ``b``
    (``_pull_blocks``; zero blocks of B are skipped); the larger norm."""
    A, B, Loc_u, Loc_v, Lco_u, Lco_v, cc_u = blocks
    f = rm.parts(-0.5)
    g = [(q.conj(), None if F is None else F.conj(), x, r) for q, F, x, r in f]
    return max(_pull_blocks(b, [
        *((B[i[2], k[2]], [i], [k]) for i in f[:-1] for k in f[:-1]
          if B[i[2], k[2]].any()),
        (Loc_v, f[:-1], f[-1:]), (Lco_v, f[-1:], f[:-1])]), _pull_blocks(a, [
            (A, f[:-1], g[:-1]), (Loc_u, f[:-1], g[-1:]),
            (Lco_u, f[-1:], g[:-1]), (cc_u, f[-1:], g[-1:])]))


def _pulled(q, F, s):
    """The adjoint of a part (``ResponseMatrix.parts``) on the columns of
    ``s``, as a function writing the part's own rows ``idx`` into ``out``:
    for a DOF a gather of F^H Q^H s, for C s_i - h_i (h^H s) by 256 rows."""
    def rows(idx, out):
        if F is not None:
            return np.take(full, idx, axis=0, out=out, mode="wrap")
        for i in range(0, len(idx), 256):
            j, o = idx[i:i + 256], out[i:i + 256]
            np.matmul(q[j, None], t, out=o)
            np.subtract(s[j], o, out=o)
    if F is None:
        t = (q.conj() @ s)[None]
    else:
        g = np.matmul(q.conj().T, s.reshape(-1, len(q), s.shape[1]))
        full = (F.conj().T @ g.reshape(len(g), -1)).reshape(-1, s.shape[1])
    return rows


def _pull_blocks(outs, blocks) -> float:
    """F_i^H X G_k^* into the table ``outs`` of sector blocks (rows, then
    columns; None: not stored) per raw block (X, row parts, column parts):
    per row part one pull of X, all columns at once, per sector its rows t
    of that, per column part one pull of t^T into each block's transposed
    view.  Returns the squared norm of the unstored blocks on even rows and
    odd columns, each reduced as it is formed."""
    sq, dtype = 0.0, next(m for r in outs for m in r if m is not None).dtype
    for X, rows, cols in blocks:
        r0, c0 = rows[0][2].start, cols[0][2].start
        for q, F, x, row_blocks in rows:
            pulled = _pulled(q, F, X[x.start - r0:x.stop - r0])
            for sec, r, idx in row_blocks:
                t = np.empty((len(idx), X.shape[1]), dtype)
                pulled(idx, t)
                for g, G, y, col_blocks in cols:
                    col = _pulled(g, G, t[:, y.start - c0:y.stop - c0].T)
                    for cs, c, cidx in col_blocks:
                        if outs[sec][cs] is not None:
                            col(cidx, outs[sec][cs][r, c].T)
                        elif cs > sec:
                            o = np.empty((len(cidx), len(idx)), dtype)
                            col(cidx, o)
                            sq += float(np.vdot(o, o).real)
                    del col         # each pull is let go before the next
                del t
            del pulled
    return sq


def _raw_blocks(state: GroundState):
    """(A, B, Loc_u, Loc_v, Lco_u, Lco_v, cc_u); only the orbital-coefficient
    couplings have a builder per particle kind."""
    oc_co = build_oc_co_blocks if state.space.identical else ld.build_oc_co_dist
    return (*build_oo_block(state), *oc_co(state), build_cc_block(state))


def assemble_L(state: GroundState) -> ResponseMatrix:
    """Full metric-transformed, projected response matrix."""
    return _response_matrix(state, _raw_blocks(state))


def _driving_vector(rm: ResponseMatrix, phis, F, om, OC1, OC2) -> np.ndarray:
    """Projected driving vector P M^(+1/2) S1 + P M^(-1/2) S2 for either
    particle kind, one DOF per entry of ``phis`` (scaled orbitals).

    S1 is the one-body probe: u rows -F_j phi_a for each DOF with a probe
    matrix ``F[j]`` (None for an unprobed DOF).  S2 is the pair probe: u rows
    -sum_b Omega_j[a, b] phi_b from its mean fields ``om[j]``, an
    (M_j, M_j, n_j) stack or None.  The v rows are -conj(u).  ``OC1`` and
    ``OC2`` are the probes' actions (O C, O^T conj(C)) on the coefficients,
    O the configuration matrix of the probe, or None: C_u = -O C,
    C_v = O^T conj(C).  An absent probe (``OC`` None) adds nothing.
    """
    R = np.zeros(rm.D)
    for OC, power, u in (
            (OC1, +0.5, [None if f is None else -(phi @ f.T)
                         for phi, f in zip(phis, F)]),
            (OC2, -0.5, [None if o is None else -np.einsum("abx,bx->ax", o, phi)
                         for phi, o in zip(phis, om)])):
        if OC is None:
            continue
        u = np.concatenate([np.zeros(phi.size) if x is None else x.ravel()
                            for phi, x in zip(phis, u)])
        R = R + rm.project(np.concatenate([u, -u.conj(), -OC[0], OC[1]]),
                           power)
    return R


def _probe_action(state, f_dags, g):
    """(O C, O^T conj(C)) for the probe O with one-body operators ``f_dags``
    (one per DOF, None: zero) and pair operand ``g`` (None: none), the
    second as the conjugate of O^H C (``ham.configuration_action``)."""
    act = ham.configuration_action(state.space, state.sets, f_dags, g)
    return act(state.C), act(state.C, adjoint=True).conj()


def build_R(state: GroundState, pert: PerturbationSpec,
            rm: ResponseMatrix | None = None) -> np.ndarray:
    """Projected driving vector P [M^(+1/2) S1 + M^(-1/2) S2] of the
    one-body probes f_j (S1) and the pair probe g (S2), for either particle
    kind: their actions on C (``_probe_action``) and the mean fields of g
    from ``ham.mean_field_plans``, for ``_driving_vector``.  g is
    discretized on the grid for identical particles and taken as it is
    across DOFs."""
    _require_converged(state)
    space, sets = state.space, state.sets
    f_dags = pert.f_dags or (None,) * len(sets)
    if len(f_dags) != len(sets):
        raise ValueError(f"{len(f_dags)} one-body probes for {len(sets)} DOFs")
    if rm is None:
        rm = assemble_L(state)
    om, OC1, OC2 = [None] * len(sets), None, None
    if any(f is not None for f in f_dags):
        OC1 = _probe_action(state, f_dags, None)
    if pert.g_dag is not None:
        g = pert.g_dag
        if space.identical:
            g = discretize_kernel(state.grids[0], g)
        plans = ham.mean_field_plans(space, state.C, state.rho2, g,
                                     [s.grid.weight for s in sets])
        om = ham.mean_fields(plans, [s.orbitals for s in sets])
        OC2 = _probe_action(state, [None] * len(sets), g)
    return _driving_vector(rm, [s.scaled for s in sets],
                           [None if f is None else f.matrix for f in f_dags],
                           om, OC1, OC2)


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
