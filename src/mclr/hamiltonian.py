"""Orbital-space matrix elements feeding the ground-state and response builds.

Identical particles: one-body elements h_kq, direct potentials W_sl(r), the
four-index interaction tensor, and the dense configuration-space
Hamiltonian.

Distinguishable degrees of freedom: pairwise (and small all-body) couplings,
their configuration matrix elements, and the per-DOF mean-field operators,
all contracted against reduced densities or the coefficient tensor rather
than summed over configuration pairs.

Index convention for the interaction tensor: ``W[k, s, q, l]`` pairs bra k /
ket q on the first coordinate and bra s / ket l on the second,

    W[k,s,q,l] = dx^2 sum_ij conj(phi_k[i]) conj(phi_s[j]) W[i,j] phi_q[i] phi_l[j].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fockspace import ConfigSpace, apply_second_quantized, dist_reduced_density
from .grid import Grid, OneBodyOperator, as_float

__all__ = [
    "OrbitalSet",
    "one_body_elements",
    "local_potentials",
    "two_body_tensor",
    "hamiltonian_matrix",
    "PairCoupling",
    "AllBodyTable",
    "config_coupling_matrix",
    "mean_fields_dist",
]


@dataclass
class OrbitalSet:
    """M orthonormal orbitals stored as grid-value rows of shape (M, n), in
    their dtype promoted to at least float64: real orbitals stay real."""

    orbitals: np.ndarray = field(repr=False)
    grid: Grid = None

    def __post_init__(self):
        self.orbitals = np.atleast_2d(as_float(self.orbitals))

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
        """Gram-Schmidt in quadrature metric (QR on the scaled vectors)."""
        q, r = np.linalg.qr(self.scaled.T)
        # fix phases so the stepper stays continuous
        phases = np.sign(np.real(np.diag(r)))
        phases[phases == 0] = 1.0
        q = q * phases
        return OrbitalSet(q.T / np.sqrt(self.grid.weight), self.grid)


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


def hamiltonian_matrix(space: ConfigSpace, orbs: OrbitalSet,
                       h_op: OneBodyOperator,
                       kernel_matrix: np.ndarray | None) -> np.ndarray:
    """Dense configuration-space Hamiltonian: one bincount over the compiled
    operator table of ``space``."""
    h = one_body_elements(orbs, h_op)
    W = None if kernel_matrix is None else two_body_tensor(orbs, kernel_matrix)
    return apply_second_quantized(space, None, h, W)


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
    ``scaled`` holds sqrt(dx)-weighted orbitals, so no weights appear.
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
    identity on every other DOF.
    """
    Q = len(space.M_list)
    scaled = [s.scaled for s in sets]
    W = np.zeros((space.size, space.size))
    for dofs, table in _terms(coupling):
        ops = _term_operands(dofs, table, scaled)
        for l in range(Q):
            if l not in dofs:
                ops += [np.eye(space.M_list[l]), [l, Q + l]]
        W = W + _einsum(*ops, list(range(2 * Q))).reshape(W.shape)
    return W


def mean_fields_dist(space: ConfigSpace, C: np.ndarray, sets, coupling,
                     j: int) -> np.ndarray:
    """All mean-field diagonals of DOF j: an (M_j, M_j, n_j) stack.

    Omega^j[p, q](x_j) sums conj(C_n) C_m over configuration pairs with slot-j
    labels (p, q) times the coupling integrated over every other coordinate.
    A pair term touching j is contracted against the reduced density of j
    and its partner DOF.  A pair term that leaves x_j alone adds a constant
    on the diagonal only (n_j = m_j), from the reduced density of j and the
    term's two DOFs.  An all-body table is contracted against the
    coefficient tensor, so conj(C_n) C_m is never formed.
    """
    Mj = space.M_list[j]
    scaled = [s.scaled for s in sets]
    terms = [] if coupling is None else _terms(coupling)
    out = np.zeros((Mj, Mj, sets[j].grid.n_points),
                   dtype=np.result_type(C, *scaled, *(t for _, t in terms)))
    Q = len(space.M_list)
    if isinstance(coupling, AllBodyTable):
        Ct = C.reshape(space.M_list)
        ops = _term_operands(tuple(range(Q)), coupling.table, scaled, keep=(j,))
        return _einsum(Ct.conj(), list(range(Q)), Ct, list(range(Q, 2 * Q)),
                       *ops, [j, Q + j, 2 * Q + j])
    for (a, b), table in terms:
        if j in (a, b):
            c, t = (b, table) if j == a else (a, table.T)   # t[x_j, x_c]
            rho = dist_reduced_density(space, C, (j, c))    # [p, r, q, s]
            pair = scaled[c].conj()[:, None, :] * scaled[c][None, :, :]
            out += np.tensordot(rho, pair @ t.T, axes=([1, 3], [0, 1]))
        else:
            rho = dist_reduced_density(space, C, (j, a, b))
            diag = _einsum(rho, [j, a, b, j, Q + a, Q + b],
                           *_term_operands((a, b), table, scaled), [j])
            out[range(Mj), range(Mj)] += diag[:, None]
    return out
