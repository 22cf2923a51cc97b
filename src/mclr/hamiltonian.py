"""Orbital-space matrix elements feeding the ground-state and response builds.

This is the one module that knows how each particle kind builds its
configuration matrix and its mean fields; the solver, the response blocks
and the probes all take them from ``hamiltonian_matrix`` (applied to C by
``configuration_action``) and ``mean_field_plans``, with one one-body
operator per DOF and an interaction operand that is the discretized kernel
for identical particles (the one-DOF case) and a ``PairCoupling`` or
``AllBodyTable`` across distinguishable DOFs.

Identical particles: one-body elements h_kq, direct potentials W_sl(r) and
the four-index interaction tensor, applied through the compiled operator
table of the configuration space.  Distinguishable degrees of freedom:
pairwise (and small all-body) couplings and their configuration matrix
elements, contracted against reduced densities or the coefficient tensor
rather than summed over configuration pairs.

Index convention for the interaction tensor: ``W[k, s, q, l]`` pairs bra k /
ket q on the first coordinate and bra s / ket l on the second,

    W[k,s,q,l] = dx^2 sum_ij conj(phi_k[i]) conj(phi_s[j]) W[i,j] phi_q[i] phi_l[j].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .fockspace import ConfigSpace, apply_second_quantized, dist_reduced_density
from .grid import Grid, OneBodyOperator, as_float

__all__ = [
    "OrbitalSet",
    "orthonormal_rows",
    "one_body_elements",
    "local_potentials",
    "two_body_tensor",
    "hamiltonian_matrix",
    "configuration_action",
    "PairCoupling",
    "AllBodyTable",
    "config_coupling_matrix",
    "MeanFieldPlan",
    "mean_field_plans",
    "mean_fields",
]


@dataclass
class OrbitalSet:
    """M orthonormal orbitals stored as C-ordered grid-value rows (M, n), in
    their dtype promoted to at least float64: real orbitals stay real."""

    orbitals: np.ndarray = field(repr=False)
    grid: Grid = None

    def __post_init__(self):
        self.orbitals = np.ascontiguousarray(
            np.atleast_2d(as_float(self.orbitals)))

    @property
    def M(self) -> int:
        return self.orbitals.shape[0]

    @property
    def scaled(self) -> np.ndarray:
        """Orbitals times sqrt(dx): unit vectors under the plain dot product."""
        return np.sqrt(self.grid.weight) * self.orbitals

    def orthonormality_defect(self) -> float:
        ov = self.grid.weight * (self.orbitals.conj() @ self.orbitals.T)
        return float(np.abs(ov - np.eye(self.M)).max())

    def orthonormalized(self) -> "OrbitalSet":
        """Householder QR in quadrature metric (``orthonormal_rows``)."""
        return OrbitalSet(orthonormal_rows(self.orbitals, self.grid.weight),
                          self.grid)


def orthonormal_rows(phi: np.ndarray, weight) -> np.ndarray:
    """The rows of ``phi`` orthonormalized under the quadrature weight: a
    Householder QR of the sqrt(weight)-scaled columns, in the gauge with a
    positive real diagonal of R, which keeps the stepper continuous.  It
    takes arbitrary rows (initial guesses, Anderson-mixed trials, (G, M, n)
    stacks with (G, 1, 1) weights); the orbital step gets the same rows from
    a Cholesky factor (``groundstate._descend``)."""
    root = np.sqrt(weight)
    q, r = np.linalg.qr(root * phi.swapaxes(-1, -2))
    sign = np.where(np.diagonal(r, axis1=-2, axis2=-1).real < 0, -1.0, 1.0)
    return (q * sign[..., None, :]).swapaxes(-1, -2) / root


def one_body_elements(orbs: OrbitalSet, op: OneBodyOperator) -> np.ndarray:
    """h_kq = <phi_k| op |phi_q> by grid quadrature."""
    if op.matrix.shape[0] != orbs.grid.n_points:
        raise ValueError("operator grid size does not match the orbitals")
    phi = orbs.orbitals
    return orbs.grid.weight * (phi.conj() @ op.matrix @ phi.T)


def local_potentials(orbs: OrbitalSet, kernel_matrix: np.ndarray) -> np.ndarray:
    """Direct potentials W_sl(r) = dx sum_j conj(phi_s[j]) W[r,j] phi_l[j].

    Returns an (M, M, n) array of grid-diagonal functions.
    """
    phi, dx = orbs.orbitals, orbs.grid.weight
    return dx * ((phi.conj()[:, None] * phi[None]) @ kernel_matrix.T)


def two_body_tensor(orbs: OrbitalSet, kernel_matrix: np.ndarray) -> np.ndarray:
    """Four-index interaction tensor W[k,s,q,l] (see module docstring)."""
    phi = orbs.orbitals
    dx = orbs.grid.weight
    # pair densities d_kq[i] = conj(phi_k[i]) phi_q[i]
    M, n = phi.shape
    d = phi.conj()[:, None, :] * phi[None, :, :]          # (k, q, i)
    mid = np.tensordot(d, kernel_matrix, axes=(2, 0))     # (k, q, j)
    W = dx * dx * np.tensordot(mid, d, axes=(2, 2))       # (k, q, s, l)
    return W.transpose(0, 2, 1, 3)


def hamiltonian_matrix(space: ConfigSpace, sets, h_ops,
                       interaction) -> np.ndarray:
    """Dense configuration-space Hamiltonian of either particle kind, one
    one-body operator per DOF in ``h_ops`` (None: zero) and ``sets`` their
    orbital sets.  ``interaction`` is the discretized kernel of identical
    particles (one bincount over the compiled operator table of ``space``),
    or the ``PairCoupling`` / ``AllBodyTable`` across distinguishable DOFs,
    whose matrix is ``config_coupling_matrix``; None is no interaction.
    Across distinguishable DOFs each one-body term is its orbital matrix
    broadcast against the identities of the other DOFs (``_on_dofs``)."""
    if space.identical:
        return apply_second_quantized(
            space, None, *_identical_elements(space, sets, h_ops, interaction))
    h = [None if op is None else one_body_elements(s, op)
         for s, op in zip(sets, h_ops)]
    H = sum((_on_dofs(hj, space.M_list, (j,))
             for j, hj in enumerate(h) if hj is not None),
            np.zeros((space.size,) * 2))
    if interaction is not None:
        H = H + config_coupling_matrix(interaction, sets, space)
    return H


def configuration_action(space: ConfigSpace, sets, h_ops, interaction):
    """act(C, adjoint=False): H C, or H^H C, for the H of
    ``hamiltonian_matrix``, set up once: for identical particles applied
    through the compiled operator table (H^H from h^H and W^H[k, s, q, l] =
    conj(W[q, l, k, s])), across DOFs as the dense matrix."""
    if not space.identical:
        H = hamiltonian_matrix(space, sets, h_ops, interaction)
        return lambda C, adjoint=False: (H.conj().T if adjoint else H) @ C
    h, W = _identical_elements(space, sets, h_ops, interaction)
    W_adj = None if W is None else W.conj().transpose(2, 3, 0, 1)
    return lambda C, adjoint=False: apply_second_quantized(
        space, C, *((h.conj().T, W_adj) if adjoint else (h, W)))


def _identical_elements(space: ConfigSpace, sets, h_ops, interaction):
    """(h, W) of identical particles for ``apply_second_quantized``; h is
    zero for an operator None, W None for an ``interaction`` None."""
    (orbs,), (op,) = sets, h_ops
    return (np.zeros((space.M,) * 2) if op is None
            else one_body_elements(orbs, op),
            None if interaction is None else two_body_tensor(orbs, interaction))


def _on_dofs(E, M_list, dofs):
    """Configuration matrix of the operator E on the ascending DOFs
    ``dofs``, E indexed by their bra orbitals and then their ket orbitals,
    with the identity on every other DOF: E broadcast against the
    identities of the blocks of untouched DOFs before, between and after
    the touched ones."""
    edges = [0, *(d + s for d in dofs for s in (0, 1)), len(M_list)]
    blocks = [prod(M_list[lo:hi]) for lo, hi in zip(edges[::2], edges[1::2])]
    # axes: bra (block 0, dofs[0], block 1, ..., dofs[-1], block k), then ket
    n_ax = 2 * len(dofs) + 1
    shape = [1] * (2 * n_ax)
    for i, d in enumerate(dofs):
        shape[2 * i + 1] = shape[n_ax + 2 * i + 1] = M_list[d]
    out = np.reshape(E, shape)
    for i, size in enumerate(blocks):
        if size > 1:
            shape = [1] * (2 * n_ax)
            shape[2 * i] = shape[n_ax + 2 * i] = size
            out = out * np.eye(size).reshape(shape)
    return out.reshape((prod(M_list),) * 2)


# ---------------------------------------------------------------------------
# couplings between distinguishable degrees of freedom


@dataclass
class PairCoupling:
    """Sum of pairwise multiplicative couplings sum_t w_t(x_a, x_b).

    Each term is (a, b, table) with a < b and table[i_a, i_b] the sampled
    kernel (any prefactor folded in).
    """

    terms: list

    def __post_init__(self):
        fixed = []
        for a, b, table in self.terms:
            if a == b:
                raise ValueError("pair coupling needs two distinct DOFs")
            if a > b:
                a, b, table = b, a, np.asarray(table).T
            fixed.append((a, b, as_float(table)))
        self.terms = fixed

    @classmethod
    def bilinear(cls, grids, a: int, b: int, strength: float) -> "PairCoupling":
        """strength * x_a * x_b."""
        return cls([(a, b, strength * np.outer(grids[a].points, grids[b].points))])

    @classmethod
    def gaussian_pair(cls, grids, a: int, b: int, strength: float,
                      width: float) -> "PairCoupling":
        d = grids[a].points[:, None] - grids[b].points[None, :]
        return cls([(a, b, strength * np.exp(-(d**2) / (2.0 * width**2)))])


@dataclass
class AllBodyTable:
    """Explicit multiplicative coupling table over all coordinates (Q <= 3)."""

    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.table = as_float(self.table)
        if self.table.ndim > 3:
            raise ValueError("all-body tables are limited to 3 degrees of freedom")


_EINSUM_PATHS = {}


def _einsum(*operands):
    """``np.einsum(*operands, optimize=True)``, with the contraction path
    searched once per operand shapes and subscripts and then reused."""
    key = tuple(o.shape if isinstance(o, np.ndarray) else repr(o)
                for o in operands)
    if key not in _EINSUM_PATHS:
        _EINSUM_PATHS[key] = np.einsum_path(*operands, optimize="greedy")[0]
    return np.einsum(*operands, optimize=_EINSUM_PATHS[key])


def _terms(coupling):
    """Coupling as (touched DOFs, table with one grid axis per touched DOF)."""
    if isinstance(coupling, PairCoupling):
        return [((a, b), t) for a, b, t in coupling.terms]
    if isinstance(coupling, AllBodyTable):
        return [(tuple(range(coupling.table.ndim)), coupling.table)]
    raise TypeError(f"unsupported coupling {type(coupling)!r}")


def _term_operands(dofs, table, scaled, keep=()):
    """einsum operands (sublist form) of one coupling term.

    Labels for Q DOFs: bra orbital of DOF l is l, ket orbital Q + l, grid
    point 2Q + l.  Touched axes in ``keep`` stay on the grid; every other
    touched axis is integrated against conj(bra orbital) * ket orbital.
    ``scaled`` holds sqrt(dx)-weighted orbitals, so no weights appear, or
    raw orbitals with the weights folded into ``table``.
    """
    Q = len(scaled)
    ops = [table, [2 * Q + l for l in dofs]]
    for l in dofs:
        if l not in keep:
            ops += [scaled[l].conj(), [l, 2 * Q + l], scaled[l], [Q + l, 2 * Q + l]]
    return ops


def config_coupling_matrix(coupling, sets, space: ConfigSpace) -> np.ndarray:
    """Configuration-space matrix <n|W|m> of the coupling.

    Each term's orbital matrix elements sit on the DOFs it touches, with the
    identity on every other DOF (``_on_dofs``).  Those of a pair term
    (a, b, T) are two matmuls over the orbital pair products,

        E[rt, su] = sum_xy conj(phi^a_r(x)) phi^a_s(x) T[x, y] conj(phi^b_t(y)) phi^b_u(y),

    and those of an all-body table one contraction with every orbital.
    """
    Q, M = len(space.M_list), space.M_list
    scaled = [s.scaled for s in sets]
    W = np.zeros((space.size, space.size))
    for dofs, table in _terms(coupling):
        if len(dofs) == 2:
            a, b = dofs
            E = (_pair_products(scaled[a]) @ table
                 @ _pair_products(scaled[b]).T)
            E = E.reshape(M[a], M[a], M[b], M[b]).transpose(0, 2, 1, 3)
        else:
            E = _einsum(*_term_operands(dofs, table, scaled),
                        [*dofs, *(Q + l for l in dofs)])
        W = W + _on_dofs(E, M, dofs)
    return W


def _pair_products(phi):
    """conj(phi_r) phi_s on the grid, one row per (r, s): an (M^2, n) array."""
    return (phi.conj()[:, None] * phi[None]).reshape(-1, phi.shape[1])


class MeanFieldPlan:
    """The mean-field diagonals Omega[p, q](x) of DOF j at fixed
    coefficients, with every contraction over C done once.

    A pair term touching j, with partner DOF c (c = j for identical
    particles), contributes

        Omega[p, q](x) += sum_rs R[pq, rs] sum_y conj(phi^c_r(y)) phi^c_s(y) T[y, x],

    R the two-body density of j and c and T the coupling table (the kernel)
    times the quadrature weight of y; terms with the same partner share R
    and add their T.  A pair term on DOFs (a, b) that leaves x_j alone adds a
    constant on the diagonal only: its orbital matrix elements contracted
    with the density of j, a and b, diagonal in j.  An all-body table
    (Q <= 3) is contracted with the coefficient tensor, so conj(C_n) C_m is
    never formed.  ``plan(phis, pairs)`` evaluates the stack on the orbitals
    ``phis`` (one (M_l, n_l) array per DOF) as an (M_j, M_j, n_j) array from
    the products ``pairs`` of the DOFs in ``reads`` (see ``mean_fields``).
    """

    def __init__(self, j, touching=(), missing=(), all_body=None):
        self.j = j
        self.touching = touching    # (c, R (M_j^2, M_c^2), T (n_c, n_j))
        self.missing = missing      # (a, b, R (M_j, M_a^2 M_b^2), T (n_a, n_b))
        self.all_body = all_body    # (conj C, C as tensors, weighted table)
        self.dtype = np.result_type(
            float, *(x for term in touching for x in term[1:]),
            *(x for term in missing for x in term[2:]), *(all_body or ()))
        self.reads = {t[0] for t in touching} | {x for t in missing for x in t[:2]}

    def __call__(self, phis, pairs):
        M, n = phis[self.j].shape
        if len(self.touching) == 1 and not self.missing and self.all_body is None:
            c, R, T = self.touching[0]      # a lone term needs no zeroed sum
            return (R @ (pairs[c] @ T)).reshape(M, M, n)
        out = np.zeros((M * M, n), np.result_type(self.dtype, *phis))
        for c, R, T in self.touching:
            out += R @ (pairs[c] @ T)
        for a, b, R, T in self.missing:
            E = pairs[a] @ T @ pairs[b].T
            out[::M + 1] += (R @ E.ravel())[:, None]
        if self.all_body is not None:
            conj_c, Ct, table = self.all_body
            Q, j = Ct.ndim, self.j
            ops = _term_operands(tuple(range(Q)), table, phis, keep=(j,))
            out += _einsum(conj_c, list(range(Q)), Ct, list(range(Q, 2 * Q)),
                           *ops, [j, Q + j, 2 * Q + j]).reshape(M * M, n)
        return out.reshape(M, M, n)


def mean_fields(plans, phis):
    """Each of ``plans`` (None stays None) on the orbitals ``phis``, from the
    ``_pair_products`` of the DOFs some plan ``reads``, each formed once."""
    reads = set().union(*(p.reads for p in plans if p is not None))
    pairs = [_pair_products(p) if j in reads else None for j, p in enumerate(phis)]
    return [None if p is None else p(phis, pairs) for p in plans]


def mean_field_plans(space: ConfigSpace, C: np.ndarray, rho2, interaction,
                     weights) -> list:
    """One ``MeanFieldPlan`` per DOF of the coefficient vector C, all None
    without an ``interaction``.  For identical particles ``interaction`` is
    the discretized kernel and ``rho2`` the two-body density of C: the
    direct mean fields sum_sl rho2[k, s, l, q] W_sl(x), W_sl the
    ``local_potentials``.  Across distinguishable DOFs it is a
    ``PairCoupling`` or ``AllBodyTable`` and ``rho2`` is None.  ``weights``
    are the quadrature weights of the DOFs."""
    if interaction is None:
        return [None] * len(weights)
    if rho2 is not None:
        M = len(rho2)
        R = rho2.transpose(0, 3, 1, 2).reshape(M * M, M * M)
        return [MeanFieldPlan(0, touching=[(0, R, weights[0] * interaction.T)])]
    return [_dist_plan(space, C, interaction, j, weights)
            for j in range(len(weights))]


def _dist_plan(space, C, coupling, j, weights) -> MeanFieldPlan:
    """The ``MeanFieldPlan`` of DOF j under ``coupling``."""
    Q = len(space.M_list)
    if isinstance(coupling, AllBodyTable):
        Ct = C.reshape(space.M_list)
        w = np.prod([weights[l] for l in range(Q) if l != j])
        return MeanFieldPlan(j, all_body=(Ct.conj(), Ct, w * coupling.table))
    tables = {}     # partner (c,) or untouched pair (a, b) -> summed T
    for (a, b), t in _terms(coupling):
        if j in (a, b):
            c, t = (b, t) if j == a else (a, t.T)    # t[x_j, x_c]
            key, T = (c,), weights[c] * t.T
        else:
            key, T = (a, b), weights[a] * weights[b] * t
        tables[key] = tables[key] + T if key in tables else T
    touching, missing = [], []
    M = space.M_list[j]
    for key, T in tables.items():
        rho = dist_reduced_density(space, C, (j,) + key)
        if len(key) == 1:                            # rho[p, r, q, s]
            R = rho.transpose(0, 2, 1, 3).reshape(M * M, -1)
            touching.append((key[0], R, T))
        else:                                        # rho[p, a, b, q, c, d]
            R = np.einsum("pabpcd->pacbd", rho).reshape(M, -1)
            missing.append((*key, R, T))
    return MeanFieldPlan(j, touching, missing)
