"""Spectral analysis of the response matrix.

The matrix is non-Hermitian but carries two structural symmetries that
organize its spectrum:

* Sigma1 L Sigma1 = -conj(L): eigenvalues come in pairs (w, -conj(w)) with
  partner eigenvectors Sigma1 conj(R);
* Sigma3 L Sigma3 = adjoint(L): for a real eigenvalue, Sigma3 R is a left
  eigenvector, so left vectors cost no second eigensolve.

Sigma1 is applied as an index swap and Sigma3 as a sign vector.  L is
kept as its RPA halves a, b on range(P) (see ``ResponseMatrix``): with x =
(u, C_u) and y = (v, C_v), L = T L_r T^H for the 2n x 2n reduced matrix
L_r = [[a, b], [-b*, -a*]] and the isometry T of ``ResponseMatrix.to_space``.
Both eigensolvers work on the halves, in the reduced coordinates, where
Sigma3 is diag(1_n, -1_n) and Sigma1 swaps the halves.  The directions
outside them (outside range(P), or along an empty natural orbital) are
reported as exact zero eigenvalues, so the spectrum keeps all D entries.

Retained modes are the positive-branch eigenvalues above the zero-mode
threshold.  Each is normalized against the Sigma3 pseudo-metric; the sign
of the pseudo-norm ("sng") fixes the left-vector normalization.  Only the
right vectors and sng are kept, as reduced vectors V with R = T V: the
left vectors Sigma3 R sng and the negative partners (Sigma1 conj of both)
derive from them, so the response weights and the driven first-order
state of every DOF are the products R^T v and R c (``right_transpose_times``
and ``right_times``), each with a few columns through one ``to_reduced`` or
``to_space``.  The D x k right vectors are built only when
``LRSpectrum.right`` is read.

Half-size reduction.  a is Hermitian and b symmetric, real when L is real.
With the Cholesky factor a - b = K K^T, the symmetric problem
K^T (a + b) K z = w^2 z of half the size (only its lower triangle, which
``eigh`` reads, is formed) yields X + Y = K z / sqrt(w) and
X - Y = (a + b)(X + Y) / w = K^-T z sqrt(w), so (X + Y).(X - Y) = z.z = 1:
real Sigma3-normalized right vectors, sng = +1, partners at exactly -w,
biorthogonal even inside degenerate clusters (Stratmann, Scuseria & Frisch,
J. Chem. Phys. 109, 8218 (1998)).  X - Y is applied as K^-T z sqrt(w), by
block substitution, so the normalization holds to rounding whatever the
spread of the w.  The solve stops at the eigenvectors Z: V = [X; Y] stays
factored as K, Z and w (``RPAFactors``).

Parity sectors.  For a mirror-symmetric problem the assembly labels each
reduced coordinate even or odd (``ResponseMatrix.sectors``), and a and b
have no entries between the sectors beyond rounding.  ``parity_sectors``
checks that, gathering each off-sector block of a and of b once
(one fancy index): when a Frobenius norm exceeds SECTOR_TOL max|L| (1e-10),
the problem is one sector.  Below the gate, dropping the blocks moves
a - b and a + b by at most 2 sqrt(2) SECTOR_TOL max|L| in the 2-norm,
and the half-size solve runs per sector on its blocks of a and b, each
gathered once, with a - b and then (a - b) + 2 b formed in place in the
copy of a: one Cholesky factor, one lower product and one ``eigh`` of
about half the size each.  The modes are merged in ascending order, and
``RPAFactors`` keeps K and Z per sector with its reduced rows and modes.
A probe of definite parity drives the modes of its own sector only:
``eigensolve`` takes the driving vectors whose weights and
reconstruction will be read (``drive``; None keeps every vector, no
columns none), and a sector whose part of r = T^H R has a norm of at
most SECTOR_TOL |r| for every column R is undriven.  Its lower product
goes to ``eigvalsh``, with no K, Z or inverted blocks kept; its modes get
exact zero weights, and ``RPAFactors`` refuses (ValueError) a nonzero
coefficient on them or a component above the gate in their rows.

The reduction is used when the halves are real arrays (the assembly
decides realness once, from the problem), their Sigma3 defect is below
1e-9 max|L|, a - b and a + b are positive definite and every w lies above
tol_zero.  Otherwise (a complex problem, an unstable state, an excitation
at or below tol_zero) ``eig`` runs on the dense L_r as one sector, and V
is its 2n x k array of retained vectors (``ReducedVectors``); degenerate
clusters are rotated to make the pseudo-metric diagonal inside the
cluster, which keeps biorthogonality exact.  The checks take
max|L| = max(|a|, |b|) once (``ResponseMatrix.scale``) without |.|
arrays; both CSV files are written from one text table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy import linalg as sla     # LAPACK drivers, wrapped by profilers

from .linres_identical import ResponseMatrix, _absmax, sigma1, sigma3

__all__ = [
    "LRSpectrum",
    "RPAFactors",
    "ReducedVectors",
    "ResponseWeights",
    "Reconstruction",
    "eigensolve",
    "parity_sectors",
    "symmetry_defects",
    "classify_zero_modes",
    "response_weights",
    "reconstruct",
    "save_reconstruction",
    "save_spectrum_csv",
]

# relative bound on the symmetry defects below which L counts as exactly
# paired for the half-size reduction
SYMMETRY_TOL = 1e-9
# bound on the Frobenius norm of each off-sector block of a and of b,
# relative to max|L|, below which the parity sectors are solved apart
SECTOR_TOL = 1e-10
# dense path: an imaginary part above IM_TOL max|Re w| makes L unstable, and
# retained eigenvalues within CLUSTER_TOL max(|w|, 1) form a degenerate
# cluster
IM_TOL = 1e-7
CLUSTER_TOL = 1e-8


def _real_matmul(A, c):
    """A @ c for a real matrix A and real or complex columns c (n, k), with
    the real and imaginary parts of c as columns of one real product
    instead of a complex copy of A."""
    if not np.iscomplexobj(c):
        return A @ c
    return (A @ np.ascontiguousarray(c).view(np.float64)).view(np.complex128)


def _block_inverses(K, size: int = 64) -> list:
    """The inverses of the diagonal blocks of ``size`` rows (the last one
    shorter) of a lower triangular K, for ``_triangular_solve``."""
    return [sla.inv(K[i:i + size, i:i + size]) for i in range(0, len(K), size)]


def _triangular_solve(K, inv, B, transpose=False):
    """K^-1 B, or K^-T B with ``transpose``, for a lower triangular K with
    the inverted diagonal blocks ``inv`` (``_block_inverses``) and real or
    complex columns B: block substitution, O(n^2) per column."""
    if np.iscomplexobj(B):
        B = np.ascontiguousarray(B)
        return _triangular_solve(K, inv, B.view(np.float64), transpose).view(
            np.complex128)
    x, size = np.empty_like(B), len(inv[0])
    blocks = list(enumerate(range(0, len(K), size)))
    for k, i in reversed(blocks) if transpose else blocks:
        j = i + len(inv[k])
        if transpose:
            x[i:j] = inv[k].T @ (B[i:j] - K[j:, i:j].T @ x[j:])
        else:
            x[i:j] = inv[k] @ (B[i:j] - K[i:j, :i] @ x[:i])
    return x


_UNDRIVEN = ("the modes of an undriven parity sector have no vectors; "
             "eigensolve with this drive, or with drive=None")


@dataclass(frozen=True)
class RPAFactors:
    """Retained RPA vectors of the half-size solve in the reduced
    coordinates of the halves, kept factored per parity sector.  Sector s
    holds the reduced rows ``rows`` and the modes ``modes`` (index arrays,
    or slices for a single sector): there X + Y = K Z w^(-1/2) and
    X - Y = K^-T Z w^(1/2), with K the Cholesky factor of the sector's
    block of a - b and Z the eigenvectors of K^T (a + b) K at eigenvalues
    w^2; outside its rows and modes X and Y vanish.  ``sectors`` holds
    (rows, modes, K, Z, the inverted diagonal blocks of K) per sector; an
    undriven sector (module docstring) holds None for the last three, and
    its modes take only zero coefficients and give exact zeros."""

    sectors: tuple = field(repr=False)
    omega: np.ndarray = field(repr=False)

    def times(self, c):
        """The 2n reduced rows [X c; Y c] for coefficient columns c (n, k)."""
        n, k = len(self.omega), c.shape[1]
        out = np.zeros((2 * n, k), dtype=np.result_type(c, float))
        for rows, modes, K, Z, inv in self.sectors:
            if Z is None:
                if np.any(c[modes]):
                    raise ValueError(_UNDRIVEN)
                continue
            w = self.omega[modes, None]
            g = _real_matmul(Z, np.hstack([c[modes] * w ** -0.5,
                                           c[modes] * w ** 0.5]))
            plus = _real_matmul(K, g[:, :k])
            minus = _triangular_solve(K, inv, g[:, k:], transpose=True)
            out[:n][rows] = 0.5 * (plus + minus)
            out[n:][rows] = 0.5 * (plus - minus)
        return out

    def transpose_times(self, p):
        """X^T p_x + Y^T p_y for the 2n reduced rows p = [p_x; p_y], as
        (X + Y)^T s + (X - Y)^T t with s, t = (p_x +- p_y) / 2."""
        n, k = len(self.omega), p.shape[1]
        out = np.empty((n, k), dtype=np.result_type(p, float))
        for rows, modes, K, Z, inv in self.sectors:
            px, py = p[:n][rows], p[n:][rows]
            if Z is None:
                part = np.hypot(np.linalg.norm(px, axis=0),
                                np.linalg.norm(py, axis=0))
                if np.any(part > SECTOR_TOL * np.linalg.norm(p, axis=0)):
                    raise ValueError(_UNDRIVEN)
                out[modes] = 0
                continue
            g = _real_matmul(Z.T, np.hstack([
                _real_matmul(K.T, 0.5 * (px + py)),
                _triangular_solve(K, inv, 0.5 * (px - py))]))
            w = self.omega[modes, None]
            out[modes] = g[:, :k] * w ** -0.5 + g[:, k:] * w ** 0.5
        return out


@dataclass(frozen=True)
class ReducedVectors:
    """Retained right vectors of the dense solve: the columns of V, 2n x k,
    in the reduced coordinates; the same products as ``RPAFactors``."""

    V: np.ndarray = field(repr=False)

    def times(self, c):
        return self.V @ c

    def transpose_times(self, p):
        return self.V.T @ p


@dataclass
class LRSpectrum:
    """Eigenvalues of L and the retained modes; per mode only the right
    vectors and ``sng`` are kept, the left and partner vectors derive by
    Sigma3 and Sigma1.  The right vectors are R = T V (``to_space`` of the
    response matrix) with V in the reduced coordinates: ``vectors`` holds V
    as the factors of the half-size solve or as the array of the dense one,
    and ``right_times`` and ``right_transpose_times`` take R through it."""

    rm: ResponseMatrix
    eigenvalues: np.ndarray = field(repr=False)       # all D, sorted by Re
    zero_modes: np.ndarray = None                     # indices into eigenvalues
    retained: np.ndarray = None                       # indices, positive branch
    vectors: RPAFactors | ReducedVectors = field(default=None, repr=False)
    sng: np.ndarray = None
    sng_undefined: np.ndarray = None
    pairing: dict = field(default_factory=dict)
    pairing_residual: float = 0.0
    reality_defect: float = 0.0
    unstable: bool = False
    tol_zero: float = 0.0
    eigensolver: str = "dense"            # "rpa", or "dense (<reason>)"
    sector_sizes: tuple = ()              # reduced coordinates per sector
    driven_sizes: tuple = ()              # those of the sectors with vectors
    sigma1_defect: float = 0.0            # max |Sigma1 L Sigma1 + conj(L)|
    sigma3_defect: float = 0.0            # max |Sigma3 L Sigma3 - adjoint(L)|

    @property
    def omega(self) -> np.ndarray:
        """Retained positive excitation energies (real parts)."""
        return self.eigenvalues[self.retained].real

    @cached_property
    def right(self) -> np.ndarray:
        """Normalized right vectors of the retained modes as D x k columns,
        R I, built on first access and kept."""
        return self.right_times(np.eye(len(self.retained)))

    def right_times(self, c: np.ndarray) -> np.ndarray:
        """R c = T (V c) for coefficient columns ``c`` over the retained
        modes."""
        return self.rm.to_space(self.vectors.times(c))

    def right_transpose_times(self, v: np.ndarray) -> np.ndarray:
        """R^T v = V^T conj(T^H conj(v)) for columns ``v`` over the response
        space."""
        p = self.rm.to_reduced(v.conj()).conj()
        return self.vectors.transpose_times(p)


def symmetry_defects(rm: ResponseMatrix) -> tuple:
    """(max |Sigma1 L Sigma1 + conj(L)|, max |Sigma3 L Sigma3 - adjoint(L)|).

    Computed on the halves: L = T L_r T^H mirrors its x rows into its y
    rows, so the Sigma1 defect is exactly 0.  The Sigma3 defect is that of
    L_r, max(|a - adjoint(a)|, |b - transpose(b)|): the dense one pulled
    back by T, and equal to it when T embeds coordinates.  |x_ij - x_ji|
    does not depend on the order of i and j, so each block of 128 rows is
    compared with its columns from the diagonal on only: no n x n
    temporary, and the value of the full differences to the last bit.
    """
    a, b, d3 = rm.a, rm.b, 0.0
    for i in range(0, len(a), 128):
        rows = slice(i, i + 128)
        d3 = max(d3, _absmax(a[rows, i:] - a[i:, rows].conj().T),
                 _absmax(b[rows, i:] - b[i:, rows].T))
    return 0.0, d3


class _NoReduction(Exception):
    """The half-size solve does not apply; the message says why."""


def eigensolve(rm: ResponseMatrix, tol_zero: float | None = None,
               drive: np.ndarray | None = None) -> LRSpectrum:
    """Eigenpairs of L with pairing and biorthogonal bookkeeping.

    Uses the half-size RPA reduction where it applies and the dense
    eigensolve otherwise (see the module docstring); ``eigensolver`` on the
    result names the path and, for the dense one, the reason.  ``drive``
    holds the driving vectors (a D vector, or D rows of columns) whose
    weights and reconstruction will be read: the half-size path forms the
    vectors of the parity sectors they reach only, none for a drive of no
    columns, and every one for None.
    """
    defects = symmetry_defects(rm)
    try:
        spec = _eigensolve_rpa(rm, defects, tol_zero, drive)
    except _NoReduction as exc:
        spec = _eigensolve_dense(rm, tol_zero)
        spec.eigensolver = f"dense ({exc})"
    spec.sigma1_defect, spec.sigma3_defect = defects
    return spec


def parity_sectors(rm: ResponseMatrix) -> list:
    """Index arrays of the parity sectors of the reduced coordinates, even
    first: those ``rm.sectors`` records, or one sector with every
    coordinate when it records none or only one parity, or when an
    off-sector block of a or b has a Frobenius norm above SECTOR_TOL
    max|L|."""
    n, labels = len(rm.a), rm.sectors
    if labels is None:
        return [np.arange(n)]
    even, odd = np.flatnonzero(labels > 0), np.flatnonzero(labels < 0)
    gate = SECTOR_TOL * rm.scale
    if len(even) and len(odd) and max(np.linalg.norm(m[even[:, None], odd])
                                      for m in (rm.a, rm.b)) <= gate:
        return [even, odd]
    return [np.arange(n)]


def _driven(rm: ResponseMatrix, groups, drive) -> list:
    """Per sector of ``groups``, whether a column R of ``drive`` reaches it:
    its part of r = T^H R has a norm above SECTOR_TOL |r|; every sector for
    None."""
    if drive is None:
        return [True] * len(groups)
    cols = np.reshape(drive, (rm.D, -1))
    if not cols.shape[1]:
        return [False] * len(groups)
    r, n = rm.to_reduced(cols), len(rm.a)
    gate = SECTOR_TOL * np.linalg.norm(r, axis=0)
    return [bool(np.any(np.linalg.norm(r[np.r_[g, g + n]], axis=0) > gate))
            for g in groups]


def _eigensolve_rpa(rm: ResponseMatrix, defects, tol_zero, drive):
    """Half-size symmetric solve on the lower triangle of K^T (a + b) K,
    one per parity sector, eigenvalues alone where ``drive`` does not reach;
    raises _NoReduction where it does not apply."""
    # the assembly makes the halves real arrays exactly for a real problem
    a, b = rm.a, rm.b
    if np.iscomplexobj(a):
        raise _NoReduction("complex L")
    if max(defects) > SYMMETRY_TOL * rm.scale:
        raise _NoReduction("symmetry defect above 1e-9 max|L|")
    D, n = rm.D, len(a)
    groups = parity_sectors(rm)
    one, driven = len(groups) == 1, _driven(rm, groups, drive)
    solves = []
    for g, vectors in zip(groups, driven):
        # a - b and then (a - b) + 2 b in place in a copy of the sector
        # block of a, gathered once, as is that of b
        d, bg = (a.copy(), b) if one else (a[g[:, None], g], b[g[:, None], g])
        d -= bg
        try:
            K = sla.cholesky(d)
        except sla.LinAlgError:
            raise _NoReduction("A - B not positive definite") from None
        d += 2.0 * bg
        # numpy's eigh is LAPACK's divide and conquer (syevd); the MRRR
        # driver is ~3x slower on the clustered spectra of coupled
        # oscillators
        S = _lower_product(K, d)
        del d, bg
        solves.append((g, K, *sla.eigh(S)) if vectors
                      else (g, None, sla.eigvalsh(S), None))
    w2 = np.concatenate([w for *_, w, _ in solves])
    if w2.min() <= 0:
        raise _NoReduction("A + B not positive definite")
    # the modes of all sectors in ascending order: sector i holds the
    # positions ``mode[start:start + len(g)]``
    order = np.argsort(w2, kind="stable")
    omega, mode = np.sqrt(w2[order]), np.argsort(order)
    if tol_zero is None:
        tol_zero = 1e-6 * max(omega[-1], 1.0)
    if omega[0] <= tol_zero:
        raise _NoReduction("an excitation at or below tol_zero")
    sectors, start = [], 0
    for g, K, _, Z in solves:
        rows, modes = ((slice(None),) * 2 if one
                       else (g, mode[start:start + len(g)]))
        sectors.append((rows, modes, K, Z,
                        None if K is None else _block_inverses(K)))
        start += len(g)

    w = np.zeros(D, dtype=complex)
    w[:n] = -omega[::-1]
    w[D - n:] = omega
    retained = np.arange(D - n, D)
    return LRSpectrum(rm=rm, eigenvalues=w, zero_modes=np.arange(n, D - n),
                      retained=retained, sng=np.ones(n),
                      sng_undefined=np.zeros(n, dtype=bool),
                      pairing={int(k): int(D - 1 - k) for k in retained},
                      tol_zero=tol_zero, eigensolver="rpa",
                      sector_sizes=tuple(len(g) for g in groups),
                      driven_sizes=tuple(len(g) for g, d in zip(groups, driven)
                                         if d),
                      vectors=RPAFactors(tuple(sectors), omega))


def _lower_product(K, S) -> np.ndarray:
    """Lower triangle of K^T S K (zeros above) for a lower triangular K, in
    four column blocks [c, e) as K[c:, c:]^T (S[c:, c:] K[c:, c:e]): about
    1.9 n^3 flops where the full product takes 4 n^3.  Below 128 rows, where
    the calls cost more than the flops, it is one block.  The result is C
    ordered: into an F-ordered one BLAS rounds differently."""
    n = len(K)
    parts = 4 if n >= 128 else 1
    edges = [n * p // parts for p in range(parts + 1)]
    w = max(e - c for c, e in zip(edges, edges[1:]))
    out, work = np.zeros((n, n)), np.empty((n, w))
    for c, e in zip(edges, edges[1:]):
        g = np.matmul(S[c:, c:], K[c:, c:e], out=work[:n - c, :e - c])
        np.matmul(K[c:, c:].T, g, out=out[c:, c:e])
        out[c:e, c:e] = np.tril(out[c:e, c:e])
    return out


def _eigensolve_dense(rm: ResponseMatrix,
                      tol_zero: float | None = None) -> LRSpectrum:
    """Dense eigendecomposition of the 2n x 2n L_r, where Sigma3 is
    diag(1_n, -1_n); the D - 2n directions outside the reduced coordinates
    are exact zero eigenvalues.  The retained vectors stay reduced.  It
    solves the whole L_r as one sector, whatever ``rm.sectors`` says: the
    cases it serves (complex or unstable L, modes at or below tol_zero) are
    rare and small enough not to need the split."""
    w, V = sla.eig(rm.L_r)
    w = np.concatenate([w, np.zeros(rm.D - len(w))]).astype(complex)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    scale = max(np.abs(w).max(), 1.0)
    if tol_zero is None:
        tol_zero = 1e-6 * scale
    tol_im = IM_TOL * max(np.abs(w.real).max(), 1e-30)
    cluster_tol = CLUSTER_TOL * scale

    zero = np.where(np.abs(w) < tol_zero)[0]
    retained = np.where(w.real > tol_zero)[0]
    unstable = bool(np.any(np.abs(w.imag) > tol_im))
    reality_defect = float(np.abs(w[retained].imag).max()) if len(retained) else 0.0

    signs = np.repeat([1.0, -1.0], len(V) // 2)[:, None]

    R = V[:, order[retained]]
    wr = w[retained]
    # Sigma3-orthogonalize inside (near-)degenerate clusters
    i = 0
    while i < len(wr):
        j = i + 1
        while j < len(wr) and abs(wr[j] - wr[i]) <= cluster_tol:
            j += 1
        if j - i > 1:
            block = R[:, i:j]
            G = block.conj().T @ (signs * block)
            vals, U = np.linalg.eigh(0.5 * (G + G.conj().T))
            R[:, i:j] = block @ U
        i = j

    pseudo = np.einsum("ij,ij->j", R.conj(), signs * R).real
    undef = np.abs(pseudo) < 1e-10
    sng = np.where(undef, 0.0, np.sign(pseudo))
    R[:, ~undef] /= np.sqrt(np.abs(pseudo[~undef]))

    # match each retained mode to a computed partner at -conj(w)
    neg = np.where(w.real < -tol_zero)[0]
    pairing = {}
    pairing_residual = 0.0
    if len(retained) and len(neg):
        from scipy.optimize import linear_sum_assignment
        cost = np.abs(w[neg][None, :] + w[retained].conj()[:, None])
        rows, cols = linear_sum_assignment(cost)
        for r, c in zip(rows, cols):
            pairing[int(retained[r])] = int(neg[c])
            pairing_residual = max(pairing_residual, float(cost[r, c]))

    return LRSpectrum(rm=rm, eigenvalues=w, zero_modes=zero,
                      retained=retained, vectors=ReducedVectors(R), sng=sng,
                      sector_sizes=(len(rm.a),), driven_sizes=(len(rm.a),),
                      sng_undefined=undef, pairing=pairing,
                      pairing_residual=pairing_residual,
                      reality_defect=reality_defect, unstable=unstable,
                      tol_zero=tol_zero)


def classify_zero_modes(spec: LRSpectrum, expected_count: int | None = None,
                        annihilation_tol: float = 1e-8) -> dict:
    """Zero-mode census plus verification of the analytic null vectors.

    For M orbitals the analytic count is 2 (M^2 + 1): ground orbitals placed
    in the u slots, the coefficient vector in the C_u slot, and their
    block-swapped conjugates.  A count mismatch is reported, not silenced.
    """
    rm = spec.rm
    if expected_count is None:
        expected_count = rm.null_vectors.shape[1]
    # |L Z| = |L_r T^H Z|, T an isometry; the first half of the null vectors
    # lives on the x rows, T^H Z = [zx; 0], and the Sigma1 mirrors in the
    # second half have the same norms
    Z = rm.null_vectors[:, :rm.null_vectors.shape[1] // 2]
    zx = rm.to_reduced(Z)[:len(rm.a)]
    LZ = np.vstack([rm.a @ zx, rm.b @ zx.conj()])
    Lnorm = max(rm.scale, 1.0)
    resid = np.linalg.norm(LZ, axis=0) / (np.linalg.norm(Z, axis=0) * Lnorm)
    report = {
        "indices": spec.zero_modes,
        "count": int(len(spec.zero_modes)),
        "expected": expected_count,
        "constructed_residual": float(resid.max()),
        "constructed_ok": bool(resid.max() < annihilation_tol),
        "tol_zero": spec.tol_zero,
    }
    if expected_count is not None and report["count"] != expected_count:
        report["mismatch"] = (
            f"found {report['count']} eigenvalues below tol_zero="
            f"{spec.tol_zero:.3e} but expected {expected_count}; "
            "check the threshold")
    return report


def expected_zero_modes(M_list, n_list=(), K_list=()) -> int:
    """2 (sum_j M_j^2 + 1) analytic null vectors plus the 2 sum_j (M_j - K_j)
    (n_j - M_j) directions of the empty natural orbitals, with K_j of the
    M_j kept and n_j grid points; identical particles pass (M,) alone."""
    return 2 * int(sum(m * m for m in M_list) + 1 + sum(
        (m - k) * (n - m) for m, n, k in zip(M_list, n_list, K_list)))


@dataclass
class ResponseWeights:
    gamma_plus: np.ndarray          # complex, aligned with spec.retained
    gamma_minus: np.ndarray
    flagged: np.ndarray             # sng-undefined modes excluded from sums


def response_weights(spec: LRSpectrum, R_vec: np.ndarray) -> ResponseWeights:
    """Driving weights gamma_k = -(L^k)^dag R and their negative partners.

    With L^k = Sigma3 R_k sng_k and L^-k = Sigma1 conj(L^k), both are one
    product R^T v with the right vectors, for v = conj(Sigma3 R) and
    Sigma1 Sigma3 R; Sigma3 flips sign under Sigma1.
    """
    s3R = sigma3(spec.rm.layout) * R_vec
    g = spec.right_transpose_times(
        np.stack([s3R.conj(), s3R[sigma1(spec.rm.layout)]], axis=1))
    gp, gm = -g[:, 0].conj() * spec.sng, g[:, 1] * spec.sng
    gp = np.where(spec.sng_undefined, 0j, gp)
    gm = np.where(spec.sng_undefined, 0j, gm)
    return ResponseWeights(gamma_plus=gp, gamma_minus=gm,
                           flagged=spec.sng_undefined.copy())


@dataclass
class Reconstruction:
    """Driven first-order orbitals and coefficients at frequency omega.

    delta_phi_j(t) = minus_j exp(-i omega t) + plus_j exp(+i omega t), one
    (M_j, n_j) array of grid values per DOF j of ``state`` (identical
    particles: one); likewise for the coefficient parts.
    """

    omega: float
    dphi_minus: list = field(repr=False)
    dphi_plus: list = field(repr=False)
    dC_minus: np.ndarray = field(repr=False)
    dC_plus: np.ndarray = field(repr=False)
    state: object = None

    def dphi(self, t: float) -> list:
        phase = np.exp(-1j * self.omega * t)
        return [m * phase + p * np.exp(+1j * self.omega * t)
                for m, p in zip(self.dphi_minus, self.dphi_plus)]

    def orbital_norms(self, t: float = 0.0) -> list:
        return [np.array([g.inner(x, x).real for x in d])
                for g, d in zip(self.state.grids, self.dphi(t))]


def reconstruct(spec: LRSpectrum, weights: ResponseWeights, omega: float,
                resonance_tol: float = 1e-6) -> Reconstruction:
    """Sum the driven response of every DOF over the retained modes at omega."""
    rm = spec.rm
    state = rm.state
    wr = spec.eigenvalues[spec.retained].real
    hit = np.where(np.abs(omega - wr) < resonance_tol)[0]
    if len(hit) == 0:
        hit = np.where(np.abs(omega + wr) < resonance_tol)[0]
    if len(hit):
        raise ValueError(
            f"probe frequency {omega} is resonant with excitation "
            f"{wr[hit[0]]:.9g}; response diverges")

    # with lo, hi = 1 / (omega -+ w_k), mode k adds gp lo u + gm hi conj(v)
    # to the minus part and conj(gp) lo conj(v) + conj(gm) hi u to the plus
    # one; the sums over k are R c for c = gp lo and c = conj(gm hi), the
    # modes with undefined sng left out
    c = np.stack([weights.gamma_plus / (omega - wr),
                  (weights.gamma_minus / (omega + wr)).conj()], axis=1)
    c[spec.sng_undefined] = 0
    # and the orbital parts take M^(-1/2): M^(-1/2) R c = T n^(-1/2) V c
    us, vs, cu, cv = rm.layout.split(rm.to_space(spec.vectors.times(c), -0.5))
    root_dx = [np.sqrt(g.weight) for g in state.grids]
    return Reconstruction(
        omega=omega, dC_minus=cu[:, 0] + cv[:, 1].conj(),
        dphi_minus=[(u[..., 0] + v[..., 1].conj()) / r
                    for u, v, r in zip(us, vs, root_dx)],
        dphi_plus=[(v[..., 0].conj() + u[..., 1]) / r
                   for u, v, r in zip(us, vs, root_dx)],
        dC_plus=cv[:, 0].conj() + cu[:, 1], state=state)


def save_reconstruction(path, rec: Reconstruction, t: float = 0.0) -> None:
    """Dump the driven first-order state in the binary checkpoint container,
    the per-DOF arrays named as ``checkpoint._array_name`` names them."""
    from .checkpoint import _array_name, save_arrays

    def per_dof(base, arrays):
        return {_array_name(rec.state.space, base, j): x
                for j, x in enumerate(arrays)}

    header = {"kind": "reconstruction", "omega": rec.omega, "t": t}
    save_arrays(path, header, {
        **per_dof("dphi_minus", rec.dphi_minus),
        **per_dof("dphi_plus", rec.dphi_plus),
        "dC_minus": rec.dC_minus,
        "dC_plus": rec.dC_plus,
        **per_dof("orbital_norms", rec.orbital_norms(t)),
    })


def _write_csv(path, header_lines, names, rows) -> None:
    """CSV of text ``rows`` under "# " ``header_lines``."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def save_spectrum_csv(path, spec: LRSpectrum,
                      weights: ResponseWeights | None = None,
                      header_lines=(), weights_path=None) -> None:
    """One row per eigenvalue: index, Re w, Im w, sng, is_zero_mode,
    |gamma_k|, |gamma_-k|; sng and the weights are 0 off the retained modes.

    With ``weights_path`` also the weights CSV, one row per retained mode
    (mode, omega, sng, |gamma_k|, |gamma_-k|) cut from the same text rows.
    Values are "%.17g", each retained omega formatted once: a partner at
    exactly -w (as on the RPA path) is "-" and its text.  The weights are
    formatted by their scalar abs (numpy's vectorized complex abs can
    differ from it in the last bit), exact zeros (undriven modes) as "0"."""
    fmt, w, ret = "%.17g".__mod__, spec.eigenvalues.tolist(), \
        spec.retained.tolist()
    zero = set(spec.zero_modes.tolist())
    text = {k: fmt(w[k].real) for k in ret}
    text.update((j, "-" + text[k]) for k, j in spec.pairing.items()
                if w[j] == -w[k])
    rows = [[str(k), text[k] if k in text else fmt(x.real), fmt(x.imag), "0",
             "1" if k in zero else "0", "0", "0"] for k, x in enumerate(w)]
    gp, gm = ([0.0] * len(ret),) * 2 if weights is None else (
        weights.gamma_plus.tolist(), weights.gamma_minus.tolist())
    for k, sng, p, m in zip(ret, spec.sng.tolist(), gp, gm):
        rows[k][3] = fmt(sng)
        rows[k][5], rows[k][6] = (fmt(abs(g)) if g else "0" for g in (p, m))
    _write_csv(path, header_lines,
               ["index", "re_omega", "im_omega", "sng", "is_zero_mode",
                "abs_gamma_plus", "abs_gamma_minus"], rows)
    if weights_path is not None:
        _write_csv(weights_path, header_lines,
                   ["mode", "omega", "sng", "abs_gamma_plus",
                    "abs_gamma_minus"],
                   [[rows[k][i] for i in (0, 1, 3, 5, 6)] for k in ret])
