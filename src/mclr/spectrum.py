"""Spectral analysis of the response matrix.

The matrix is non-Hermitian but carries two structural symmetries that
organize its spectrum:

* Sigma1 L Sigma1 = -conj(L): eigenvalues come in pairs (w, -conj(w)) with
  partner eigenvectors Sigma1 conj(R);
* Sigma3 L Sigma3 = adjoint(L): for a real eigenvalue, Sigma3 R is a left
  eigenvector, so left vectors cost no second eigensolve.

Sigma1 is applied as an index swap and Sigma3 as a sign vector.  L is
kept as its RPA halves on range(P) (see ``ResponseMatrix``); the checks
and the half-size solve below work on them, and the dense L is built only
for the dense fallback.

Retained modes are the positive-branch eigenvalues above the zero-mode
threshold.  Each is normalized against the Sigma3 pseudo-metric; the sign
of the pseudo-norm ("sng") fixes the left-vector normalization.

Half-size reduction.  With x = (u, C_u) and y = (v, C_v), L has the RPA
form [[A, B], [-B*, -A*]] with A = L[x, x] Hermitian and B = L[x, y]
symmetric.  The assembly keeps them restricted to range(P) on x, whose
complement is spanned by the analytic null vectors: A = B_P a B_P^H and
B = B_P b B_P^T with the isometry B_P of ``ResponseMatrix.lift`` and the
halves ``rm.a`` and ``rm.b``, real symmetric when L is real.  With the
Cholesky factor a - b = K K^T, the symmetric problem
K^T (a + b) K z = w^2 z of half the size yields X + Y = K z / sqrt(w) and
X - Y = (a + b)(X + Y) / w, so (X + Y).(X - Y) = z.z = 1: real
Sigma3-normalized right vectors, sng = +1, partners at exactly -w,
biorthogonal even inside degenerate clusters (Stratmann, Scuseria & Frisch,
J. Chem. Phys. 109, 8218 (1998)).  The vectors are lifted by B_P, and the
directions outside range(P) are reported as exact zero eigenvalues, so
the spectrum keeps all D entries.

The reduction is used when the halves are real arrays (the assembly
decides realness once, from the problem; see ``linres_identical``), their
Sigma3 defect is below 1e-9 max|L|, a - b and a + b are positive definite
and every w lies above tol_zero.  Otherwise (a complex problem, unstable
states, singular metrics with extra null directions) a dense eigensolve
of L runs instead; there degenerate clusters are rotated to make the
pseudo-metric diagonal inside the cluster, which keeps biorthogonality
exact under degeneracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy import linalg as sla     # LAPACK drivers, wrapped by profilers

from .groundstate import GroundState
from .linres_identical import ResponseMatrix, halves_index, sigma1, sigma3

__all__ = [
    "LRSpectrum",
    "ResponseWeights",
    "Reconstruction",
    "eigensolve",
    "symmetry_defects",
    "classify_zero_modes",
    "response_weights",
    "reconstruct",
    "spectrum_rows",
    "save_spectrum_csv",
]

# relative bound on the symmetry defects below which L counts as exactly
# paired for the half-size reduction
SYMMETRY_TOL = 1e-9


@dataclass
class LRSpectrum:
    rm: ResponseMatrix
    eigenvalues: np.ndarray = field(repr=False)       # all D, sorted by Re
    zero_modes: np.ndarray = None                     # indices into eigenvalues
    retained: np.ndarray = None                       # indices, positive branch
    right: np.ndarray = field(default=None, repr=False)   # normalized columns
    left: np.ndarray = field(default=None, repr=False)
    right_neg: np.ndarray = field(default=None, repr=False)
    left_neg: np.ndarray = field(default=None, repr=False)
    sng: np.ndarray = None
    sng_undefined: np.ndarray = None
    pairing: dict = field(default_factory=dict)
    pairing_residual: float = 0.0
    reality_defect: float = 0.0
    unstable: bool = False
    tol_zero: float = 0.0
    tol_im: float = 0.0
    eigensolver: str = "dense"            # "rpa", or "dense (<reason>)"
    sigma1_defect: float = 0.0            # max |Sigma1 L Sigma1 + conj(L)|
    sigma3_defect: float = 0.0            # max |Sigma3 L Sigma3 - adjoint(L)|

    @property
    def omega(self) -> np.ndarray:
        """Retained positive excitation energies (real parts)."""
        return self.eigenvalues[self.retained].real


def symmetry_defects(rm: ResponseMatrix) -> tuple:
    """(max |Sigma1 L Sigma1 + conj(L)|, max |Sigma3 L Sigma3 - adjoint(L)|).

    Computed on the halves: the y rows of L are mirrors of its x rows, so
    the Sigma1 defect is exactly 0 by construction.  The Sigma3 defect is
    taken on range(P), in the reduced coordinates of the halves:
    max(|a - adjoint(a)|, |b - transpose(b)|) is that of
    Sigma3 L Sigma3 - adjoint(L) pulled back by the lift, and equals it
    exactly when the lift embeds coordinates.
    """
    a, b = rm.a, rm.b
    return 0.0, float(max(np.abs(a - a.conj().T).max(),
                          np.abs(b - b.T).max()))


class _NoReduction(Exception):
    """The half-size solve does not apply; the message says why."""


def eigensolve(rm: ResponseMatrix, tol_zero: float | None = None,
               tol_im: float | None = None,
               cluster_tol: float | None = None) -> LRSpectrum:
    """Eigenpairs of L with pairing and biorthogonal bookkeeping.

    Uses the half-size RPA reduction where it applies and the dense
    eigensolve otherwise (see the module docstring); ``eigensolver`` on the
    result names the path and, for the dense one, the reason.
    """
    defects = symmetry_defects(rm)
    try:
        spec = _eigensolve_rpa(rm, defects, tol_zero, tol_im)
    except _NoReduction as exc:
        spec = _eigensolve_dense(rm, tol_zero, tol_im, cluster_tol)
        spec.eigensolver = f"dense ({exc})"
    spec.sigma1_defect, spec.sigma3_defect = defects
    return spec


def _eigensolve_rpa(rm: ResponseMatrix, defects, tol_zero, tol_im):
    """Half-size symmetric solve; raises _NoReduction where it does not apply."""
    # the assembly makes the halves real arrays exactly for a real problem
    a, b = rm.a, rm.b
    if np.iscomplexobj(a):
        raise _NoReduction("complex L")
    # the y rows of L mirror the x rows: the reduced halves set its scale
    if max(defects) > SYMMETRY_TOL * max(np.abs(a).max(), np.abs(b).max()):
        raise _NoReduction("symmetry defect above 1e-9 max|L|")
    D, signs, perm = rm.D, sigma3(rm.layout), sigma1(rm.layout)
    x, y = halves_index(rm.layout)
    try:
        K = sla.cholesky(a - b)
    except sla.LinAlgError:
        raise _NoReduction("A - B not positive definite") from None
    # numpy's eigh is LAPACK's divide and conquer (syevd); the MRRR driver
    # is ~3x slower on the clustered spectra of coupled oscillators
    ab = a + b
    w2, Z = sla.eigh(K.T @ ab @ K)
    if w2[0] <= 0:
        raise _NoReduction("A + B not positive definite")
    omega = np.sqrt(w2)
    if tol_zero is None:
        tol_zero = 1e-6 * max(omega[-1], 1.0)
    if omega[0] <= tol_zero:
        raise _NoReduction("an excitation at or below tol_zero")
    if tol_im is None:
        tol_im = 1e-7 * omega[-1]

    plus = (K @ Z) / np.sqrt(omega)
    minus = (ab @ plus) / omega
    n = len(omega)
    R = np.empty((D, n))
    R[x] = rm.lift(0.5 * (plus + minus))
    R[y] = rm.lift(0.5 * (plus - minus))
    left = signs[:, None] * R

    w = np.zeros(D, dtype=complex)
    w[:n] = -omega[::-1]
    w[D - n:] = omega
    retained = np.arange(D - n, D)
    return LRSpectrum(rm=rm, eigenvalues=w, zero_modes=np.arange(n, D - n),
                      retained=retained, right=R, left=left,
                      right_neg=R[perm], left_neg=left[perm],
                      sng=np.ones(n), sng_undefined=np.zeros(n, dtype=bool),
                      pairing={int(k): int(D - 1 - k) for k in retained},
                      tol_zero=tol_zero, tol_im=tol_im, eigensolver="rpa")


def _eigensolve_dense(rm: ResponseMatrix, tol_zero: float | None = None,
                      tol_im: float | None = None,
                      cluster_tol: float | None = None) -> LRSpectrum:
    """Dense eigendecomposition of L; the reference for the reduced solve."""
    w, V = sla.eig(rm.L)
    order = np.lexsort((w.imag, w.real))
    w, V = w[order], V[:, order]
    scale = max(np.abs(w).max(), 1.0)
    if tol_zero is None:
        tol_zero = 1e-6 * scale
    re_scale = max(np.abs(w.real).max(), 1e-30)
    if tol_im is None:
        tol_im = 1e-7 * re_scale
    if cluster_tol is None:
        cluster_tol = 1e-8 * scale

    zero = np.where(np.abs(w) < tol_zero)[0]
    retained = np.where(w.real > tol_zero)[0]
    unstable = bool(np.any(np.abs(w.imag) > tol_im))
    reality_defect = float(np.abs(w[retained].imag).max()) if len(retained) else 0.0

    signs = sigma3(rm.layout)[:, None]
    perm = sigma1(rm.layout)

    R = V[:, retained]
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
    left = signs * R * sng
    right_neg = R.conj()[perm]
    left_neg = left.conj()[perm]

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
                      retained=retained, right=R, left=left,
                      right_neg=right_neg, left_neg=left_neg, sng=sng,
                      sng_undefined=undef, pairing=pairing,
                      pairing_residual=pairing_residual,
                      reality_defect=reality_defect, unstable=unstable,
                      tol_zero=tol_zero, tol_im=tol_im)


def classify_zero_modes(spec: LRSpectrum, expected_count: int | None = None,
                        annihilation_tol: float = 1e-8) -> dict:
    """Zero-mode census plus verification of the analytic null vectors.

    For M orbitals the analytic count is 2 (M^2 + 1): ground orbitals placed
    in the u slots, the coefficient vector in the C_u slot, and their
    block-swapped conjugates.  A count mismatch is reported, not silenced.
    """
    rm = spec.rm
    Z = rm.null_vectors
    if expected_count is None:
        expected_count = Z.shape[1]
    a, b = rm.a, rm.b
    # with zx = B^H Z[x] and zy = B^T Z[y]: (L Z)[x] = B (a zx + b zy) and
    # (L Z)[y] = -conj(B (a conj(zy) + b conj(zx))); B is an isometry
    x, y = halves_index(rm.layout)
    zx = rm.lift(Z[x], adjoint=True)
    zy = rm.lift(Z[y].conj(), adjoint=True).conj()
    LZ = np.vstack([a @ zx + b @ zy, a @ zy.conj() + b @ zx.conj()])
    Lnorm = max(np.abs(a).max(), np.abs(b).max(), 1.0)
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
            "check metric regularization or the threshold")
    return report


def expected_zero_modes(M_list) -> int:
    """2 (sum_j M_j^2 + 1); identical particles pass (M,)."""
    return 2 * (int(sum(m * m for m in M_list)) + 1)


@dataclass
class ResponseWeights:
    gamma_plus: np.ndarray          # aligned with spec.retained
    gamma_minus: np.ndarray
    flagged: np.ndarray             # sng-undefined modes excluded from sums


def response_weights(spec: LRSpectrum, R_vec: np.ndarray) -> ResponseWeights:
    """Driving weights gamma_k = -(L^k)^dag R and their negative partners."""
    gp = -(R_vec @ spec.left.conj())
    gm = -(R_vec @ spec.left_neg.conj())
    gp = np.where(spec.sng_undefined, 0.0, gp)
    gm = np.where(spec.sng_undefined, 0.0, gm)
    return ResponseWeights(gamma_plus=gp, gamma_minus=gm,
                           flagged=spec.sng_undefined.copy())


@dataclass
class Reconstruction:
    """Driven first-order orbitals and coefficients at frequency omega.

    delta_phi(t) = minus * exp(-i omega t) + plus * exp(+i omega t), grid
    values; likewise for the coefficient parts.
    """

    omega: float
    dphi_minus: np.ndarray = field(repr=False)
    dphi_plus: np.ndarray = field(repr=False)
    dC_minus: np.ndarray = field(repr=False)
    dC_plus: np.ndarray = field(repr=False)
    grid: object = None
    state: object = None

    def dphi(self, t: float) -> np.ndarray:
        return (self.dphi_minus * np.exp(-1j * self.omega * t)
                + self.dphi_plus * np.exp(+1j * self.omega * t))

    def dC(self, t: float) -> np.ndarray:
        return (self.dC_minus * np.exp(-1j * self.omega * t)
                + self.dC_plus * np.exp(+1j * self.omega * t))

    def orbital_norms(self, t: float = 0.0) -> np.ndarray:
        d = self.dphi(t)
        return np.array([self.grid.inner(x, x).real for x in d])

    def wavefunction_terms(self, t: float = 0.0) -> list:
        """Expansion data of the driven wavefunction.

        Returns (config, kind, coefficient) rows: the zeroth-order and
        first-order coefficient parts on the unchanged configurations, plus
        one branch per (config, orbital) moving a particle into the
        response orbital, weighted by sqrt(n_j) ||delta phi_j|| and the
        statistics phase (-1)^(occupations above j) for fermions.
        """
        state = self.state
        space = state.space
        norms = np.sqrt(self.orbital_norms(t))
        dc = self.dC(t)
        rows = []
        fermion = space.statistics == "fermion"
        for i, occ in enumerate(space.configs):
            rows.append((occ, "static", complex(state.C[i])))
            rows.append((occ, "coefficient", complex(dc[i])))
            for j, nj in enumerate(occ):
                if nj == 0:
                    continue
                phase = (-1.0) ** sum(occ[j + 1:]) if fermion else 1.0
                rows.append((occ, f"response_orbital_{j}",
                             complex(state.C[i] * phase * np.sqrt(nj) * norms[j])))
        return rows


def reconstruct(spec: LRSpectrum, weights: ResponseWeights, omega: float,
                resonance_tol: float = 1e-6) -> Reconstruction:
    """Sum the driven response over retained modes at probe frequency omega."""
    rm = spec.rm
    layout = rm.layout
    state = rm.state
    if not isinstance(state, GroundState):
        raise ValueError("reconstruction supports identical-particle states only")
    wr = spec.eigenvalues[spec.retained].real
    hit = np.where(np.abs(omega - wr) < resonance_tol)[0]
    if len(hit) == 0:
        hit = np.where(np.abs(omega + wr) < resonance_tol)[0]
    if len(hit):
        raise ValueError(
            f"probe frequency {omega} is resonant with excitation "
            f"{wr[hit[0]]:.9g}; response diverges")

    neghalf = rm.m_neghalf[0]
    shape = (layout.M_list[0], layout.n_list[0])

    dphi_m = np.zeros(shape, dtype=complex)
    dphi_p = np.zeros(shape, dtype=complex)
    dC_m = np.zeros(layout.n_conf, dtype=complex)
    dC_p = np.zeros(layout.n_conf, dtype=complex)
    for i, k in enumerate(spec.retained):
        if spec.sng_undefined[i]:
            continue
        wk = spec.eigenvalues[k].real
        (u,), (v,), cu, cv = layout.split(spec.right[:, i])
        gp, gm = weights.gamma_plus[i], weights.gamma_minus[i]
        du = neghalf @ u
        dv = neghalf.conj() @ v
        dphi_m += (gp * du) / (omega - wk) + (gm * dv.conj()) / (omega + wk)
        dphi_p += (np.conj(gp) * dv.conj()) / (omega - wk) \
            + (np.conj(gm) * du) / (omega + wk)
        dC_m += (gp * cu) / (omega - wk) + (gm * cv.conj()) / (omega + wk)
        dC_p += (np.conj(gp) * cv.conj()) / (omega - wk) \
            + (np.conj(gm) * cu) / (omega + wk)

    root_dx = np.sqrt(state.grid.weight)
    return Reconstruction(omega=omega, dphi_minus=dphi_m / root_dx,
                          dphi_plus=dphi_p / root_dx, dC_minus=dC_m,
                          dC_plus=dC_p, grid=state.grid, state=state)


def spectrum_rows(spec: LRSpectrum, weights: ResponseWeights | None = None):
    """(index, Re w, Im w, sng, is_zero_mode, |gamma_k|, |gamma_-k|) rows."""
    rows = []
    ret_pos = {int(k): i for i, k in enumerate(spec.retained)}
    zero_set = set(int(z) for z in spec.zero_modes)
    for idx in range(len(spec.eigenvalues)):
        w = spec.eigenvalues[idx]
        is_zero = idx in zero_set
        sng = 0.0
        gp = gm = 0.0
        if idx in ret_pos:
            i = ret_pos[idx]
            sng = float(spec.sng[i])
            if weights is not None:
                gp = abs(weights.gamma_plus[i])
                gm = abs(weights.gamma_minus[i])
        rows.append((idx, w.real, w.imag, sng, int(is_zero), gp, gm))
    return rows


def save_reconstruction(path, rec: Reconstruction, t: float = 0.0) -> None:
    """Dump the driven first-order state in the binary checkpoint container."""
    from .checkpoint import save_arrays
    header = {"kind": "reconstruction", "omega": rec.omega, "t": t}
    save_arrays(path, header, {
        "dphi_minus": rec.dphi_minus,
        "dphi_plus": rec.dphi_plus,
        "dC_minus": rec.dC_minus,
        "dC_plus": rec.dC_plus,
        "orbital_norms": rec.orbital_norms(t),
    })


def save_spectrum_csv(path, spec: LRSpectrum,
                      weights: ResponseWeights | None = None,
                      header_lines=()) -> None:
    fmt = "%.17g"
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("index,re_omega,im_omega,sng,is_zero_mode,abs_gamma_plus,"
                 "abs_gamma_minus\n")
        for idx, re, im, sng, z, gp, gm in spectrum_rows(spec, weights):
            fh.write(",".join([str(idx), fmt % re, fmt % im, fmt % sng,
                               str(z), fmt % gp, fmt % gm]) + "\n")
