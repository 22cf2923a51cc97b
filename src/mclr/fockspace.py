"""Configuration spaces and second-quantized operator action.

Identical particles are described by occupation vectors (n_1, ..., n_M)
over M orbitals: permanents for bosons, determinants for fermions.
Distinguishable degrees of freedom use Hartree products labelled by an
orbital index per degree of freedom.

Operator action follows the mapping convention: a second-quantized operator
O applied to sum_n C_n |n> yields a new coefficient vector C^O over the same
configurations.  Each identical-particle space is compiled once, on first
use, into one operator table (``ConfigSpace.table``): for all M^2 one-body
keys c_k^dag c_q and M^4 two-body keys c_k^dag c_s^dag c_l c_q, every source
configuration the key does not annihilate, its target configuration and the
ladder factor, fermion signs included.  The table is built vectorized over
the occupation array; targets are ranked with the combinatorial numbering of
Streltsov, Alon and Cederbaum, Phys. Rev. A 81, 022124 (2010).  Operator
action, dense operator matrices and reduced densities are each one gather
and one ``np.bincount`` over that table.

Conventions fixed here and used everywhere downstream:

* configurations are ordered lexicographically descending in occupations,
  the first being (N, 0, ..., 0); distinguishable products are row-major
  (last degree of freedom fastest);
* fermionic phases use the Jordan-Wigner rule: creating/annihilating at
  orbital p contributes (-1)**(number of occupied orbitals below p);
* orbital indices are 0-based.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import comb, prod

import numpy as np

__all__ = [
    "ConfigSpace",
    "ReducedDensities",
    "enumerate_configs",
    "apply_second_quantized",
    "reduced_densities",
    "dist_reduced_density",
]


class ConfigSpace:
    """Enumerated many-body configuration basis, ``configs`` in index order."""

    def __init__(self, statistics, configs, N=None, M=None, M_list=None):
        self.statistics = statistics
        self.configs = configs          # tuple of occupation / index tuples
        self.N = N
        self.M = M
        self.M_list = M_list
        self.size = len(configs)

    @cached_property
    def table(self) -> "OperatorTable":
        """Compiled operator table of an identical-particle space."""
        return _compile(self)

    @property
    def identical(self) -> bool:
        return self.statistics in ("boson", "fermion")

    def __repr__(self):
        if self.identical:
            return (f"ConfigSpace({self.statistics}, N={self.N}, M={self.M}, "
                    f"size={self.size})")
        return f"ConfigSpace(distinguishable, M_list={self.M_list}, size={self.size})"


def _boson_configs(N, M):
    # descending lexicographic: first slot from N down, recurse on the rest
    if M == 1:
        yield (N,)
        return
    for n1 in range(N, -1, -1):
        for rest in _boson_configs(N - n1, M - 1):
            yield (n1,) + rest


def enumerate_configs(statistics: str, N: int | None = None, M: int | None = None,
                      M_list=None) -> ConfigSpace:
    """Enumerate the configuration basis for the given statistics.  N, M
    and every entry of M_list are integers (a bool is not one)."""
    for n in (N, M, *(() if M_list is None else M_list)):
        if n is not None and (isinstance(n, bool)
                              or not isinstance(n, (int, np.integer))):
            raise ValueError(f"configuration counts must be integers, got {n!r}")
    if statistics in ("boson", "fermion"):
        if N is None or M is None:
            raise ValueError("identical particles need N and M")
        if N < 1:
            raise ValueError("need at least one particle")
        if M < 1:
            raise ValueError("need at least one orbital")
        if statistics == "boson":
            configs = tuple(_boson_configs(N, M))
            assert len(configs) == comb(N + M - 1, N)
        else:
            if N > M:
                raise ValueError(f"{N} fermions do not fit in {M} orbitals")
            configs = []
            for occ_sites in combinations(range(M), N):
                occ = [0] * M
                for p in occ_sites:
                    occ[p] = 1
                configs.append(tuple(occ))
            configs = tuple(configs)
            assert len(configs) == comb(M, N)
        return ConfigSpace(statistics, configs, N=N, M=M)
    if statistics in ("distinguishable", "dist"):
        if M_list is None or len(M_list) == 0 or any(m < 1 for m in M_list):
            raise ValueError("distinguishable spaces need all M_j >= 1")
        M_list = tuple(int(m) for m in M_list)
        configs = tuple(tuple(c) for c in np.ndindex(*M_list))
        assert len(configs) == prod(M_list)
        return ConfigSpace("distinguishable", configs, M_list=M_list)
    raise ValueError(f"unknown statistics {statistics!r}")


# ---------------------------------------------------------------------------
# compiled operator table


class OperatorTable:
    """Every one- and two-body ladder key of an identical-particle space as
    one COO list, sorted by key.

    Key ids: k M + q for c_k^dag c_q and M^2 + ((k M + s) M + l) M + q for
    c_k^dag c_s^dag c_l c_q.  Entry e takes configuration ``src[e]`` to
    ``dst[e]`` with factor ``fac[e]`` under key ``key[e]``; the entries of
    key K are ``start[K]:start[K + 1]``, and within one key no source and no
    target repeats.
    """

    def __init__(self, M, key, src, dst, fac):
        self.n_keys = M**2 + M**4
        self.key, self.src, self.dst, self.fac = key, src, dst, fac
        self.start = np.searchsorted(key, np.arange(self.n_keys + 1))


def _created_ranks(space: ConfigSpace, occ: np.ndarray) -> np.ndarray:
    """Index in ``space.configs`` of occ + e_k, for every orbital k and every
    (N-1)-particle occupation column of ``occ`` (M rows): an (M, columns)
    array.

    A configuration's index counts the configurations before it in
    descending lexicographic order, orbital by orbital.  With R_p the
    particles in orbitals p, p+1, ..., those holding more particles in
    orbital p number comb(R_(p+1) + M-p-2, M-p-1) for bosons and, if
    n_p = 0, comb(M-p-1, R_p - 1) for fermions.  The added particle raises
    R_p for p <= k only, so each orbital has one term with it and one
    without, and the index for every k is a prefix plus a suffix sum.
    """
    N, M = space.N, space.M
    binom = np.zeros((N + M, max(N, M)), dtype=np.int64)
    binom[:, 0] = 1
    for a in range(1, N + M):
        binom[a, 1:] = binom[a - 1, 1:] + binom[a - 1, :-1]
    after = (N - 1) - np.cumsum(occ, axis=0)         # particles above p
    raised = np.zeros(occ.shape, dtype=np.int64)
    plain = np.zeros(occ.shape, dtype=np.int64)
    for p in range(M - 1):
        if space.statistics == "boson":
            col = binom[:, M - p - 1]
            raised[p] = col[after[p] + M - p - 1]
            plain[p] = col[after[p] + M - p - 2]
        else:
            here, empty = after[p] + occ[p], occ[p] == 0
            raised[p] = empty * binom[M - p - 1][here]
            plain[p] = (empty & (here > 0)) * binom[M - p - 1][here - 1]
    ranks = np.cumsum(raised, axis=0) - raised + plain[::-1].cumsum(axis=0)[::-1]
    # a fermion can only be added where n_k = 0, which has no term then
    return ranks if space.statistics == "boson" else ranks - plain


def _ladder(rows, create: bool, boson: bool, scale: int, space=None):
    """c_p^dag (``create``) or c_p, for every orbital p, on every row.

    ``rows`` is (occupations as M x rows, factors, sources, tags).  The
    results are stacked p-major with tag p * scale + tag, so rows sorted by
    tag stay sorted; rows the operator annihilates are dropped.  Given the
    ``space`` of the results, their configuration indices replace the
    occupations.
    """
    occ, fac, src, tag = rows
    if boson:
        f = np.sqrt(occ + 1.0) if create else np.sqrt(occ)
    else:
        below = np.cumsum(occ, axis=0) - occ
        f = np.where(occ == (0 if create else 1), 1.0 - 2.0 * (below % 2), 0.0)
    f = (f * fac).reshape(-1)
    keep = np.flatnonzero(f)
    p, row = np.divmod(keep, occ.shape[1])
    if space is None:
        occ = occ[:, row]
        occ[p, np.arange(len(row))] += 1 if create else -1
    else:
        occ = _created_ranks(space, occ).reshape(-1)[keep]
    return occ, f[keep], src[row], p * scale + tag[row]


def _compile(space: ConfigSpace) -> OperatorTable:
    """The operator table of ``space``, built on occupation arrays: the
    ladder operators act on all configurations at once, rightmost first."""
    M, n = space.M, space.size
    boson = space.statistics == "boson"
    rows = (np.array(space.configs).reshape(n, M).T,
            np.ones(n), np.arange(n), np.zeros(n, dtype=np.intp))
    one = _ladder(rows, False, boson, 1)                 # c_q
    two = _ladder(one, False, boson, M)                  # c_l c_q
    two = _ladder(two, True, boson, M**2)                # c_s^dag c_l c_q
    one = _ladder(one, True, boson, M, space)            # c_k^dag c_q
    two = _ladder(two, True, boson, M**3, space)         # c_k^dag c_s^dag c_l c_q
    dst, fac, src, key = (np.concatenate(parts) for parts in zip(one, two))
    key[len(one[0]):] += M**2
    return OperatorTable(M, key, src, dst, fac)


def _bincount(index, values, n):
    """np.bincount with real or complex weights."""
    if not np.iscomplexobj(values):
        return np.bincount(index, values, minlength=n)
    return (np.bincount(index, values.real, minlength=n)
            + 1j * np.bincount(index, values.imag, minlength=n))


def apply_second_quantized(space: ConfigSpace, C: np.ndarray | None,
                           h: np.ndarray, W: np.ndarray | None = None) -> np.ndarray:
    """Apply H = sum h[k,q] rho_kq + 1/2 sum W[k,s,q,l] rho_kslq to C.

    ``W[k,s,q,l]`` pairs bra orbital k with ket orbital q on the first
    coordinate and bra s with ket l on the second.  ``C = None`` stands for
    the identity: the dense matrix of H is returned.
    """
    n = space.size
    dst, src, w = _second_quantized_entries(space, h, W)
    if C is None:
        return _bincount(dst * n + src, w, n * n).reshape(n, n)
    return _bincount(dst, w * np.asarray(C)[src], n)


def _second_quantized_entries(space: ConfigSpace, h: np.ndarray,
                             W: np.ndarray | None = None):
    """(dst, src, w): H of ``apply_second_quantized`` as COO entries
    H[dst, src] += w over the compiled table; entries may repeat."""
    if not space.identical:
        raise ValueError("identical-particle spaces only")
    M = space.M
    h = np.asarray(h)
    if h.shape != (M, M):
        raise ValueError(f"h must be {M}x{M}")
    t = space.table
    coef, stop = h.ravel(), t.start[M * M]
    if W is not None:
        W = np.asarray(W)
        if W.shape != (M, M, M, M):
            raise ValueError(f"W must be {M}^4")
        coef = np.concatenate([coef, 0.5 * W.transpose(0, 1, 3, 2).ravel()])
        stop = len(t.key)
    return t.dst[:stop], t.src[:stop], coef[t.key[:stop]] * t.fac[:stop]


class ReducedDensities:
    """One- and two-body reduced density matrices of a coefficient vector.

    For identical particles ``rho1[k, q] = <rho_kq>`` and
    ``rho2[k, s, l, q] = <rho_kslq>``.  For distinguishable degrees of
    freedom ``rho1`` is a list of per-DOF matrices; the all-body density
    conj(C_n) C_m is never stored.
    """

    def __init__(self, rho1, rho2=None):
        self.rho1 = rho1
        self.rho2 = rho2


def reduced_densities(space: ConfigSpace, C: np.ndarray) -> ReducedDensities:
    C = np.asarray(C)
    if space.identical:
        M, t = space.M, space.table
        rho = _bincount(t.key, C[t.dst].conj() * t.fac * C[t.src], t.n_keys)
        return ReducedDensities(rho[:M * M].reshape(M, M),
                                rho[M * M:].reshape(M, M, M, M))
    rho1 = [dist_reduced_density(space, C, (j,)) for j in range(len(space.M_list))]
    return ReducedDensities(rho1, None)


def dist_reduced_density(space: ConfigSpace, C: np.ndarray, dofs) -> np.ndarray:
    """Reduced density over the listed degrees of freedom.

    Returns a tensor with one bra and one ket axis per entry of ``dofs``
    (bra axes first):  rho[(n...), (m...)] = sum conj(C_n) C_m over the
    remaining slots.
    """
    if space.identical:
        raise ValueError("distinguishable spaces only")
    Q = len(space.M_list)
    dofs = tuple(dofs)
    t = np.asarray(C).reshape(space.M_list)
    others = [ax for ax in range(Q) if ax not in dofs]
    rho = np.tensordot(t.conj(), t, axes=(others, others))
    # tensordot leaves kept axes in original order: bra dofs then ket dofs,
    # but ordered by axis number, not by the order given in ``dofs``
    kept = [ax for ax in range(Q) if ax in dofs]
    perm = [kept.index(d) for d in dofs]
    nd = len(dofs)
    rho = rho.transpose(perm + [p + nd for p in perm])
    return rho
