"""Response-matrix pieces particular to Q coupled distinguishable degrees of
freedom.

The response vector stacks u-amplitudes of every DOF (u^1 .. u^Q, each DOF
contributing M_j orbital slots on its own grid), then the v partners, then
C_u and C_v; D = 2 (sum_j M_j n_j + N_conf).

``linres_identical.assemble_L`` and ``build_R`` serve the one
``GroundState`` of either particle kind, identical particles being the
one-DOF case: the diagonal orbital blocks rho h - mu + Omega, the
coefficient block H - eps and the probes come from the configuration
matrix and the mean fields of ``hamiltonian``, written once.  What is left
here is rooted in distinguishability.  A DOF has no exchange with itself,
so its diagonal u-block carries no exchange term and its diagonal v-block
is exactly zero; exchange-like couplings appear only between different
DOFs (``cross_dof_exchange``).  And the orbital-coefficient couplings
(``build_oc_co_dist``) are tensor contractions over the coefficient
tensor, where identical particles gather from the compiled operator table.
Every coupling term is contracted against the reduced density of the DOFs
that it and the block touch (at most three for Q <= 3; a cross-DOF block
whose pair term touches neither of its DOFs needs four).  All-body tables
are contracted against the coefficient tensor itself, so the all-body
density conj(C_n) C_m is never stored.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from . import fockspace as fs
from . import hamiltonian as ham
from . import linres_identical as li
from .groundstate import GroundState, _require_converged
from .hamiltonian import PairCoupling

__all__ = [
    "cross_dof_exchange",
    "build_oc_co_dist",
]


def cross_dof_exchange(state: GroundState, A: np.ndarray, B: np.ndarray):
    """Add the cross-DOF exchange-like couplings to the off-diagonal DOF
    blocks of (A, B), in place, one contraction per coupling term."""
    layout = li.ResponseLayout.of(state)
    Q = layout.Q
    scaled = [s.scaled for s in state.sets]
    C, space = state.C, state.space
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


def build_oc_co_dist(state: GroundState):
    """(Loc_u, Loc_v, Lco_u, Lco_v) in the stacked layout.

    The coefficient-orbital rows are the adjoint / transpose partners of
    the orbital-coefficient columns, which is how they are built.
    """
    _require_converged(state)
    layout = li.ResponseLayout.of(state)
    Q, nc = layout.Q, layout.n_conf
    scaled = [s.scaled for s in state.sets]
    Ct = state.C.reshape(state.space.M_list)
    P = 3 * Q                                   # row orbital of Loc_v
    rows_u, rows_v = [], []
    for j in range(Q):
        X, Mj = 2 * Q + j, layout.M_list[j]
        # the one-body part acts like a term touching only DOF j, with
        # h|phi> in place of |phi>
        pieces = [((j,), [], scaled[j] @ state.h_ops[j].matrix.T)]
        if state.interaction is not None:
            pieces += [(dofs, ham._term_operands(dofs, t, scaled, keep=(j,)),
                        scaled[j]) for dofs, t in ham._terms(state.interaction)]
        u = v = 0.0
        for dofs, ops, orb in pieces:
            if j not in dofs:                   # such a term keeps n_j = m_j
                ops = ops + [np.eye(Mj), [j, Q + j]]
            ops = ops + [orb, [Q + j, X]]
            # u columns: derivative in C_m; configurations off the touched
            # DOFs match the column
            u = u + ham._einsum(
                Ct.conj(), [l if l in dofs else Q + l for l in range(Q)], *ops,
                [j, X, *range(Q, 2 * Q)]).reshape(-1, nc)
            # v columns: derivative in conj(C_n); slot j of the column fixes
            # the row orbital
            v = v + ham._einsum(
                Ct, [Q + l if l in dofs else l for l in range(Q)], *ops,
                np.eye(Mj), [P, j], [P, X, *range(Q)]).reshape(-1, nc)
        rows_u.append(u)
        rows_v.append(v)
    Loc_u, Loc_v = np.concatenate(rows_u), np.concatenate(rows_v)
    return Loc_u, Loc_v, Loc_u.conj().T, Loc_v.T
