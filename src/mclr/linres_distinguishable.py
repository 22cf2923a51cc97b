"""Response-matrix blocks for Q coupled distinguishable degrees of freedom.

The response vector stacks u-amplitudes of every DOF (u^1 .. u^Q, each DOF
contributing M_j orbital slots on its own grid), then the v partners, then
C_u and C_v; D = 2 (sum_j M_j n_j + N_conf).

These are the raw blocks and the pair-probe ingredients of the one
``GroundState`` with distinguishable DOFs; ``linres_identical.assemble_L``
and ``build_R`` take them for such a state and share everything else
(layout, projector, metric, driving-vector skeleton) with identical
particles, the one-DOF case.  The blocks differ from the identical-particle
ones in two ways rooted in distinguishability: the diagonal (same-DOF)
u-blocks carry no exchange term at all, the diagonal v-blocks are exactly
zero, and exchange-like couplings appear only between different degrees of
freedom.  Every coupling term is contracted against the reduced density of
the DOFs that it and the block touch (at most three for Q <= 3; a cross-DOF
block whose pair term touches neither of its DOFs needs four).  All-body
tables are contracted against the coefficient tensor itself, so the
all-body density conj(C_n) C_m is still never stored.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from . import fockspace as fs
from . import hamiltonian as ham
from . import linres_identical as li
from .groundstate import GroundState, _dist_hamiltonian, _require_converged
from .hamiltonian import PairCoupling

__all__ = [
    "build_oo_dist",
    "build_oc_co_cc_dist",
    "pair_probe_dist",
]


def _layout(state) -> li.ResponseLayout:
    return li.ResponseLayout(tuple(state.space.M_list),
                          tuple(g.n_points for g in state.grids),
                          state.space.size)


def _dtype(state):
    """float64 for a real problem, complex128 if any input is complex."""
    tables = [] if state.interaction is None else ham._terms(state.interaction)
    return np.result_type(state.C, *state.mu, *(s.orbitals for s in state.sets),
                          *(h.matrix for h in state.h_ops), *(t for _, t in tables))


def build_oo_dist(state: GroundState):
    """Orbital-orbital block: (A, B) over the stacked per-DOF u/v sectors.

    Diagonal DOF blocks of A are rho^j h^j - mu^j + Omega^j with no exchange
    term; off-diagonal blocks carry the cross-DOF exchange-like couplings.
    B has exactly zero diagonal DOF blocks.
    """
    _require_converged(state)
    layout = _layout(state)
    Q = layout.Q
    scaled = [s.scaled for s in state.sets]
    C = state.C
    space = state.space

    A = np.zeros((layout.orb, layout.orb), dtype=_dtype(state))
    B = np.zeros_like(A)

    # diagonal blocks: rho h - mu + Omega
    for j in range(Q):
        rho = 0.5 * (state.rho1[j] + state.rho1[j].conj().T)
        mu = 0.5 * (state.mu[j] + state.mu[j].conj().T)
        h = state.h_ops[j].matrix
        M, n = layout.M_list[j], layout.n_list[j]
        # (slot, point, slot, point) view of the block; the grid diagonal
        # is indexed with one index array on both point axes
        blk = A[layout.u_block(j), layout.u_block(j)].reshape(M, n, M, n)
        diag = np.arange(n)
        np.multiply(rho[:, None, :, None], h[None, :, None, :], out=blk)
        blk[:, diag, :, diag] -= mu
        if state.interaction is not None:
            om = ham.mean_fields_dist(space, C, state.sets, state.interaction, j)
            blk[:, diag, :, diag] += om.transpose(2, 0, 1)

    if state.interaction is None:
        return A, B

    # cross-DOF exchange-like couplings, one contraction per coupling term;
    # in the labels of ham._term_operands the (j, k) block of A is indexed
    # (n_j, x_j, m_k, x_k) and that of B (n_j, x_j, n_k, x_k)
    Ct = C.reshape(space.M_list)
    pairwise = isinstance(state.interaction, PairCoupling)
    for j, k in permutations(range(Q), 2):
        blk = (layout.u_block(j), layout.u_block(k))
        X, Y = 2 * Q + j, 2 * Q + k
        for dofs, table in ham._terms(state.interaction):
            if pairwise:
                U = sorted({j, k, *dofs})
                dens = [fs.dist_reduced_density(space, C, U),
                        U + [Q + l for l in U]]
            else:
                dens = [Ct.conj(), list(range(Q)), Ct, list(range(Q, 2 * Q))]
            ops = dens + ham._term_operands(dofs, table, scaled, keep=(j, k)) \
                + [scaled[j], [Q + j, X]]
            A[blk] += ham._einsum(*ops, scaled[k].conj(), [k, Y],
                                  [j, X, Q + k, Y]).reshape(A[blk].shape)
            B[blk] += ham._einsum(*ops, scaled[k], [Q + k, Y],
                                  [j, X, k, Y]).reshape(B[blk].shape)
    return A, B


def build_oc_co_cc_dist(state: GroundState):
    """(Loc_u, Loc_v, Lco_u, Lco_v, cc_u) in the stacked layout.

    The coefficient-orbital rows are the adjoint / transpose partners of
    the orbital-coefficient columns, which is how they are built; cc_u is
    H - eps, whose C_v mirror eps - conj(H) is not formed.
    """
    _require_converged(state)
    layout = _layout(state)
    Q = layout.Q
    scaled = [s.scaled for s in state.sets]
    C = state.C
    space = state.space

    Loc_u = np.zeros((layout.orb, layout.n_conf), dtype=_dtype(state))
    Loc_v = np.zeros_like(Loc_u)
    Ct = C.reshape(space.M_list)
    P = 3 * Q                                   # row orbital of Loc_v
    for j in range(Q):
        X, Mj = 2 * Q + j, layout.M_list[j]
        # the one-body part acts like a term touching only DOF j, with
        # h|phi> in place of |phi>
        pieces = [((j,), [], scaled[j] @ state.h_ops[j].matrix.T)]
        if state.interaction is not None:
            pieces += [(dofs, ham._term_operands(dofs, t, scaled, keep=(j,)),
                        scaled[j]) for dofs, t in ham._terms(state.interaction)]
        for dofs, ops, orb in pieces:
            if j not in dofs:                   # such a term keeps n_j = m_j
                ops = ops + [np.eye(Mj), [j, Q + j]]
            ops = ops + [orb, [Q + j, X]]
            # u columns: derivative in C_m; configurations off the touched
            # DOFs match the column
            Loc_u[layout.u_block(j)] += ham._einsum(
                Ct.conj(), [l if l in dofs else Q + l for l in range(Q)], *ops,
                [j, X, *range(Q, 2 * Q)]).reshape(-1, layout.n_conf)
            # v columns: derivative in conj(C_n); slot j of the column fixes
            # the row orbital
            Loc_v[layout.u_block(j)] += ham._einsum(
                Ct, [Q + l if l in dofs else l for l in range(Q)], *ops,
                np.eye(Mj), [P, j], [P, X, *range(Q)]).reshape(-1, layout.n_conf)

    H = _dist_hamiltonian(space, state.sets, state.h_ops, state.interaction)
    return Loc_u, Loc_v, Loc_u.conj().T, Loc_v.T, li._cc_block(H, C)


def pair_probe_dist(state: GroundState, g):
    """Per-DOF mean fields and configuration action of the all-body probe
    ``g``, a ``PairCoupling`` or ``AllBodyTable``."""
    sets = state.sets
    om = [ham.mean_fields_dist(state.space, state.C, sets, g, j)
          for j in range(len(sets))]
    G = ham.config_coupling_matrix(g, sets, state.space)

    def c2(x, transpose):
        return (G.T if transpose else G) @ x

    return om, c2
