"""Configuration spaces and second-quantized operator action.

Identical particles are described by occupation vectors (n_1, ..., n_M)
over M orbitals: permanents for bosons, determinants for fermions.
Distinguishable degrees of freedom use Hartree products labelled by an
orbital index per degree of freedom.

Operator action follows the mapping convention: a second-quantized operator
O applied to sum_n C_n |n> yields a new coefficient vector C^O over the same
configurations.  The action is implemented configuration-by-configuration
(scatter); dense operator matrices are only ever built column-wise from it.

Conventions fixed here and used everywhere downstream:

* configurations are ordered lexicographically descending in occupations,
  the first being (N, 0, ..., 0); distinguishable products are row-major
  (last degree of freedom fastest);
* fermionic phases use the Jordan-Wigner rule: creating/annihilating at
  orbital p contributes (-1)**(number of occupied orbitals below p);
* orbital indices are 0-based.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, prod

import numpy as np

__all__ = [
    "ConfigSpace",
    "ReducedDensities",
    "enumerate_configs",
    "apply_rho_kq",
    "apply_rho_kslq",
    "apply_second_quantized",
    "reduced_densities",
    "apply_hamiltonian_dist",
    "dist_reduced_density",
]


class ConfigSpace:
    """Enumerated many-body configuration basis with rank/unrank tables."""

    def __init__(self, statistics, configs, N=None, M=None, M_list=None):
        self.statistics = statistics
        self.configs = configs          # tuple of occupation / index tuples
        self.N = N
        self.M = M
        self.M_list = M_list
        self.size = len(configs)
        self.index = {c: i for i, c in enumerate(configs)}
        self._op_cache = {}

    def rank(self, config) -> int:
        return self.index[tuple(config)]

    def unrank(self, i: int):
        return self.configs[i]

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
    """Enumerate the configuration basis for the given statistics."""
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
        if not M_list or any(m < 1 for m in M_list):
            raise ValueError("distinguishable spaces need all M_j >= 1")
        M_list = tuple(int(m) for m in M_list)
        configs = tuple(tuple(c) for c in np.ndindex(*M_list))
        assert len(configs) == prod(M_list)
        return ConfigSpace("distinguishable", configs, M_list=M_list)
    raise ValueError(f"unknown statistics {statistics!r}")


# ---------------------------------------------------------------------------
# ladder-operator scatter tables


def _jw_sign(occ, p) -> int:
    return -1 if (sum(occ[:p]) % 2) else 1


def _one_body_table(space: ConfigSpace, k: int, q: int):
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
        dst.append(space.index[tuple(mid)])
        fac.append(f)
    return (np.asarray(src, dtype=int), np.asarray(dst, dtype=int),
            np.asarray(fac, dtype=float))


def _two_body_table(space: ConfigSpace, k: int, s: int, l: int, q: int):
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
        dst.append(space.index[tuple(n)])
        fac.append(f)
    return (np.asarray(src, dtype=int), np.asarray(dst, dtype=int),
            np.asarray(fac, dtype=float))


def _table(space: ConfigSpace, key):
    tab = space._op_cache.get(key)
    if tab is None:
        if len(key) == 2:
            tab = _one_body_table(space, *key)
        else:
            tab = _two_body_table(space, *key)
        space._op_cache[key] = tab
    return tab


def _scatter(space, C, key, weight=1.0):
    src, dst, fac = _table(space, key)
    out = np.zeros(space.size, dtype=complex)
    if len(src):
        np.add.at(out, dst, weight * fac * C[src])
    return out


def apply_rho_kq(space: ConfigSpace, C: np.ndarray, k: int, q: int) -> np.ndarray:
    """Coefficient vector of (c_k^dag c_q) |Psi>."""
    if not space.identical:
        raise ValueError("apply_rho_kq needs an identical-particle space")
    if not (0 <= k < space.M and 0 <= q < space.M):
        raise IndexError("orbital index out of range")
    return _scatter(space, np.asarray(C, dtype=complex), (k, q))


def apply_rho_kslq(space: ConfigSpace, C: np.ndarray, k: int, s: int,
                   l: int, q: int) -> np.ndarray:
    """Coefficient vector of (c_k^dag c_s^dag c_l c_q) |Psi>."""
    if not space.identical:
        raise ValueError("apply_rho_kslq needs an identical-particle space")
    for p in (k, s, l, q):
        if not 0 <= p < space.M:
            raise IndexError("orbital index out of range")
    return _scatter(space, np.asarray(C, dtype=complex), (k, s, l, q))


def apply_second_quantized(space: ConfigSpace, C: np.ndarray, h: np.ndarray,
                           W: np.ndarray | None = None) -> np.ndarray:
    """Apply H = sum h[k,q] rho_kq + 1/2 sum W[k,s,q,l] rho_kslq to C.

    ``W[k,s,q,l]`` pairs bra orbital k with ket orbital q on the first
    coordinate and bra s with ket l on the second.
    """
    if not space.identical:
        raise ValueError("identical-particle spaces only; see apply_hamiltonian_dist")
    M = space.M
    h = np.asarray(h)
    if h.shape != (M, M):
        raise ValueError(f"h must be {M}x{M}")
    C = np.asarray(C, dtype=complex)
    out = np.zeros(space.size, dtype=complex)
    for k in range(M):
        for q in range(M):
            if h[k, q] != 0:
                out += h[k, q] * _scatter(space, C, (k, q))
    if W is not None:
        W = np.asarray(W)
        if W.shape != (M, M, M, M):
            raise ValueError(f"W must be {M}^4")
        for k in range(M):
            for s in range(M):
                for q in range(M):
                    for l in range(M):
                        w = W[k, s, q, l]
                        if w != 0:
                            out += 0.5 * w * _scatter(space, C, (k, s, l, q))
    return out


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

    def natural_occupations(self):
        if isinstance(self.rho1, list):
            return [np.sort(np.linalg.eigvalsh(r))[::-1] for r in self.rho1]
        return np.sort(np.linalg.eigvalsh(self.rho1))[::-1]


def reduced_densities(space: ConfigSpace, C: np.ndarray) -> ReducedDensities:
    C = np.asarray(C, dtype=complex)
    if space.identical:
        M = space.M
        rho1 = np.empty((M, M), dtype=complex)
        rho2 = np.empty((M, M, M, M), dtype=complex)
        for k in range(M):
            for q in range(M):
                rho1[k, q] = np.vdot(C, _scatter(space, C, (k, q)))
        for k in range(M):
            for s in range(M):
                for l in range(M):
                    for q in range(M):
                        rho2[k, s, l, q] = np.vdot(C, _scatter(space, C, (k, s, l, q)))
        return ReducedDensities(rho1, rho2)
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
    t = np.asarray(C, dtype=complex).reshape(space.M_list)
    others = [ax for ax in range(Q) if ax not in dofs]
    rho = np.tensordot(t.conj(), t, axes=(others, others))
    # tensordot leaves kept axes in original order: bra dofs then ket dofs,
    # but ordered by axis number, not by the order given in ``dofs``
    kept = [ax for ax in range(Q) if ax in dofs]
    perm = [kept.index(d) for d in dofs]
    nd = len(dofs)
    rho = rho.transpose(perm + [p + nd for p in perm])
    return rho


def apply_hamiltonian_dist(space: ConfigSpace, C: np.ndarray, h_elems,
                           W_conf: np.ndarray | None = None) -> np.ndarray:
    """Apply H = sum_j sum h^j[n,m] rho^j_nm + W_conf to C.

    ``h_elems`` is a list of per-DOF orbital-space matrices; ``W_conf`` is
    the configuration-space matrix of the coupling.
    """
    if space.identical:
        raise ValueError("distinguishable spaces only")
    t = np.asarray(C, dtype=complex).reshape(space.M_list)
    out = np.zeros_like(t)
    for j, hj in enumerate(h_elems):
        # contract h^j along axis j, keeping axis order
        moved = np.tensordot(np.asarray(hj, dtype=complex), t, axes=(1, j))
        out += np.moveaxis(moved, 0, j)
    out = out.reshape(space.size)
    if W_conf is not None:
        out = out + np.asarray(W_conf) @ np.asarray(C, dtype=complex)
    return out
