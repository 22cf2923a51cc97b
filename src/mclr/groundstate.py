"""Self-consistent ground states and the projected equations of motion.

The stationary state is found by alternating two relaxation moves until the
stationarity residuals vanish:

  (a) with orbitals frozen, the lowest eigenpair of the configuration-space
      Hamiltonian gives the coefficient vector and the energy (dense up to
      ``CI_DENSE_CUTOFF`` states, Lanczos on a CSR matrix for a larger space
      of identical particles);
  (b) with coefficients frozen, the orbitals take ``inner_steps``
      preconditioned imaginary-time steps

          phi <- orth(phi - tau P K_tau rho^-1 B),  K_tau = (1 + tau (h - e0))^-1,

      one right-hand side B per step, with P = 1 - |phi><phi| and e0 the
      lowest eigenvalue of h. K_tau (per DOF, from the eigendecomposition
      of h that also gives the initial orbitals) treats the stiff one-body
      part implicitly, so the stable step does not shrink with the kinetic
      cutoff ~ 1/dx^2.

The coefficients are fixed over a block, so B is planned once per
coefficient vector (``OrbitalRHS``): the densities, the mean-field
contractions over C and h^T are set up when C changes, and each inner step
evaluates the plan on the current orbitals with orbital products alone,
the constant-mean-field idea of MCTDH. DOFs of equal (M_j, n_j) step as one
(G, M, n) stack, with one Cholesky factor and inverse per group and step and
pair products formed once per DOF (``ham.mean_fields``); the natural orbitals
of rho give both the scaled residual below and the step's regularized inverse.

Each block is one step of a fixed-point map x -> g(x) on the orbitals at
fixed coefficients and tau, and the outer loop accelerates it by Anderson
mixing (Anderson, J. ACM 12, 547 (1965); Pulay, Chem. Phys. Lett. 73, 393
(1980)) with memory ``ANDERSON_MEMORY``: with f = g - x over the flattened
orbital stacks and the (f, g) of the last accepted blocks, gamma minimizes
||f_k - dF gamma|| and the mixed trial g_k - dG gamma is orthonormalized
per DOF by ``ham.orthonormal_rows``, a Householder QR in the gauge with
positive real diagonal of R.  Each step orthonormalizes its rows in the
same gauge by the Cholesky factor of their overlap (``_descend``), which
needs no QR because the step is projected off the orbitals.

Inverses of the one-body density matrix are regularized by flooring its
eigenvalues at ``FLOOR_FRACTION`` tr rho: ``FLOOR_FRACTION * N`` for
identical particles, ``FLOOR_FRACTION`` for a distinguishable DOF, whose
density has unit trace. A trial is accepted only if the CI energy
does not rise. A rejected mixed trial clears the mixing history and falls
back to the plain block g_k; a rejected plain block backtracks (halving tau,
rebuilding K_tau and clearing the history), which keeps the outer iteration
variationally monotone; after three halvings it is accepted anyway,
without entering the history. All three events are counted in
``residuals`` (``mixing_rejects``, ``backtracks``, ``forced_accepts``).

The state is converged when the coefficient residual is below ``tol_c`` and
two orbital residuals are below ``tol_orb``: ``orb_residual`` = max_k ||B_k||
and ``scaled_orb_residual`` = max_k ||(U^dag B)_k|| / n_k over the natural
orbitals with occupation n_k above the density floor. ||B_k|| scales with
n_k, so the first alone would pass weakly occupied orbitals early.

Both solvers return one ``GroundState``: per DOF a grid, a one-body
operator, an orbital set, a one-body density and the multipliers mu, with
identical particles the one-DOF case (Beck, Jaeckle, Worth & Meyer, Phys.
Rep. 324, 1 (2000)).  Only the interaction differs in kind: a
``TwoBodyKernel`` with its discretized matrix and the two-body density for
identical particles, a ``PairCoupling``, ``AllBodyTable`` or None across
distinguishable DOFs.  The solvers differ only in their initial orbitals:
``_stationary_state`` builds the configuration eigenpair and the orbital
right-hand side (``_orbital_plan``) once for both kinds, on the interaction
operand (``_operand``: the kernel matrix, or the coupling).  The real-time
check (``propagate_check``) moves every DOF's orbitals by the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import fockspace as fs
from .fockspace import ConfigSpace
from .grid import Grid, OneBodyOperator, TwoBodyKernel, discretize_kernel
from . import hamiltonian as ham
from .hamiltonian import OrbitalSet

__all__ = [
    "SolverOptions",
    "GroundState",
    "NonConvergenceError",
    "solve_mchx",
    "solve_mch_dist",
    "propagate_check",
    "perturbed_state",
    "orbital_eom_rhs",
]

# density floor as a fraction of tr rho, shared with the response metric:
# natural orbitals below it are empty; the solver floors them in rho^-1, and
# the response coordinates (``linres_identical``) leave them out
FLOOR_FRACTION = 1e-10
# largest stationarity residual (orbital and coefficient) of a state that
# the response is linearized about
LINEARIZATION_TOL = 1e-6
# configuration spaces of identical particles up to this size are solved
# with a dense ``eigh``, larger ones by Lanczos on a CSR matrix
CI_DENSE_CUTOFF = 500


class NonConvergenceError(RuntimeError):
    """Raised when the self-consistent loop exhausts its iteration budget."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


@dataclass
class SolverOptions:
    tol_orb: float = 1e-8
    tol_c: float = 1e-10
    max_iter: int = 500
    tau: float = 1.0
    inner_steps: int = 10
    verbose: bool = False


@dataclass
class GroundState:
    """Converged stationary state, one entry per DOF in ``grids``,
    ``h_ops``, ``sets`` (``OrbitalSet``), ``rho1`` and ``mu``; identical
    particles are the one-DOF case.  ``interaction`` is a ``TwoBodyKernel``
    for identical particles, whose ``rho2`` and ``kernel_matrix`` are None
    otherwise, and a ``PairCoupling``, ``AllBodyTable`` or None across
    distinguishable DOFs."""

    space: ConfigSpace
    grids: list
    h_ops: list
    sets: list
    C: np.ndarray = field(repr=False)
    rho1: list = field(repr=False)
    mu: list = field(repr=False)
    interaction: object = None
    rho2: np.ndarray = field(default=None, repr=False)
    kernel_matrix: np.ndarray = field(default=None, repr=False)
    energy: float = 0.0
    residuals: dict = field(default_factory=dict)

    @property
    def operand(self):
        """The interaction as ``hamiltonian`` takes it (``_operand``)."""
        return _operand(self.space, self.interaction, self.kernel_matrix)

    def natural_occupations(self):
        """Natural occupations of each DOF, in descending order."""
        return [np.sort(np.linalg.eigvalsh(r))[::-1] for r in self.rho1]


def _densities(space: ConfigSpace, C: np.ndarray):
    """(per-DOF one-body densities, two-body density or None) of C."""
    rd = fs.reduced_densities(space, C)
    return ([rd.rho1], rd.rho2) if space.identical else (rd.rho1, None)


def _operand(space, interaction, kernel_matrix):
    """The interaction operand of ``hamiltonian_matrix`` and
    ``mean_field_plans``: the discretized kernel of identical particles
    (None where it vanishes) or the coupling across distinguishable DOFs."""
    if space.identical:
        return (kernel_matrix if kernel_matrix is not None
                and np.any(kernel_matrix) else None)
    return interaction


def _require_converged(state, tol=LINEARIZATION_TOL):
    """ValueError unless the orbital and the coefficient residual of
    ``state`` are at most ``tol``; a missing one counts as infinite."""
    orb, coef = (state.residuals.get(name, np.inf)
                 for name in ("orb_residual", "c_residual"))
    if not (orb <= tol and coef <= tol):
        raise ValueError(f"not converged (orbital residual {orb:.3e}, "
                         f"coefficient residual {coef:.3e})")


def _hermitian_eigh(mat):
    """Eigenpairs of the Hermitian part of ``mat`` (or of each in a stack)."""
    return np.linalg.eigh(0.5 * (mat + mat.conj().swapaxes(-1, -2)))


def _floored_inverse(vals, vecs, floor):
    return ((vecs * np.maximum(vals, floor)[..., None, :] ** -1.0)
            @ vecs.conj().swapaxes(-1, -2))


class OrbitalRHS:
    """Right-hand sides of the orbital equations of motion at fixed
    coefficients, for DOF j the (M_j, n_j) array

        B_j = P_j [ rho1_j h_j phi_j + sum_q Omega^j[:, q] phi^j_q ],

    P_j = 1 - |phi^j><phi^j| and Omega^j the mean fields of a
    ``ham.MeanFieldPlan`` (the two-body term sum_slq rho_kslq W_sl |phi_q>
    for identical particles).  Everything that depends on C alone is done
    when the plan is built; ``rhs(stacks)`` does only orbital products, on
    the (G, M, n) stack of each group of equal-shape DOFs in ``groups`` (a
    group of one keeps its (M, n) rows).  Holding the densities fixed over a
    sweep of orbital steps is the constant-mean-field scheme of MCTDH.
    """

    def __init__(self, rho1, h_ops, weights, fields):
        self.rho1 = rho1                           # per DOF (M_j, M_j)
        shapes = [(len(r), len(h.matrix)) for r, h in zip(rho1, h_ops)]
        self.groups = list({s: [j for j, t in enumerate(shapes) if t == s]
                            for s in shapes}.values())
        self.rho = self.stack(rho1)
        self.h_t = [h.swapaxes(-1, -2)             # act on orbital rows
                    for h in self.stack([h.matrix for h in h_ops])]
        self.weights = [w if np.ndim(w) == 0 else w[:, None, None]
                        for w in self.stack(weights)]
        self.fields = fields              # all MeanFieldPlan or all None

    def stack(self, arrays):
        """Per group the (G, ...) stack of the per-DOF ``arrays``."""
        return arrays if len(self.groups) == len(arrays) else [
            arrays[g[0]] if len(g) == 1 else np.stack([arrays[j] for j in g])
            for g in self.groups]

    def unstack(self, stacks):
        """The per-DOF arrays (views) of the group ``stacks``."""
        if len(self.groups) == len(self.rho1):
            return stacks
        views = {j: x for g, stack in zip(self.groups, stacks)
                 for j, x in zip(g, [stack] if len(g) == 1 else stack)}
        return [views[j] for j in range(len(views))]

    def __call__(self, stacks, project=True):
        fields = [None] * len(stacks) if self.fields[0] is None else self.stack(
            ham.mean_fields(self.fields, self.unstack(stacks)))
        out = []
        for phi, r, h_t, w, om in zip(stacks, self.rho, self.h_t,
                                      self.weights, fields):
            g = r @ (phi @ h_t)
            if om is not None:
                g = g + np.einsum("...kqx,...qx->...kx", om, phi)
            if project:
                g = g - (w * (phi.conj() @ g.swapaxes(-1, -2))
                         ).swapaxes(-1, -2) @ phi
            out.append(g)
        return out


def orbital_eom_rhs(grid, orbs, h_op, kernel_matrix, rho, project=True):
    """Right-hand side of the orbital equations of motion of identical
    particles, one row per k:

        B_k = P [ sum_q rho_kq h |phi_q> + sum_slq rho_kslq W_sl |phi_q> ].
    """
    fields = ham.mean_field_plans(None, None, rho.rho2, kernel_matrix,
                                  [grid.weight])
    rhs = OrbitalRHS([np.asarray(rho.rho1)], [h_op], [grid.weight], fields)
    return rhs([orbs.orbitals], project)[0]


def _ci_eigenpair(H, v0=None):
    """(energy, C, H) of the lowest eigenpair of the configuration matrix H,
    dense (``eigh``) or scipy sparse (Lanczos from ``v0``).  A real H (that
    of a real problem) gives an exactly real C; a complex H without
    imaginary part is solved, and returned, real."""
    dense = isinstance(H, np.ndarray)
    if np.iscomplexobj(H) and not np.any((H if dense else H.data).imag):
        H = H.real
    if v0 is not None and not np.iscomplexobj(H):
        v0 = v0.real
    if dense:
        vals, vecs = np.linalg.eigh(0.5 * (H + H.conj().T))
    else:
        from scipy.sparse.linalg import eigsh
        vals, vecs = eigsh(H, k=1, which="SA", v0=v0)
    C = vecs[:, 0]
    big = C[np.argmax(np.abs(C))]
    # largest component positive; exactly +-1 for real C, unlike exp(-1j pi)
    return float(vals[0]), C * (abs(big) / big), H


def _lowest_eigenpair(space, sets, h_ops, interaction, v0=None):
    """``_ci_eigenpair`` of the configuration Hamiltonian of either particle
    kind (``interaction`` the operand of ``ham.hamiltonian_matrix``): dense
    up to ``CI_DENSE_CUTOFF`` states, and a sparse CSR matrix, Lanczos from
    ``v0``, for a larger space of identical particles."""
    if not space.identical or space.size <= CI_DENSE_CUTOFF:
        return _ci_eigenpair(
            ham.hamiltonian_matrix(space, sets, h_ops, interaction))
    from scipy.sparse import csr_matrix
    dst, src, w = fs._second_quantized_entries(
        space, *ham._identical_elements(space, sets, h_ops, interaction))
    # repeated (dst, src) entries are summed once here, not per matvec
    return _ci_eigenpair(csr_matrix((w, (dst, src)), shape=(space.size,) * 2),
                         v0)


def _kinetic_preconditioners(h_eigs, tau):
    """Per DOF, K^T for K = (1 + tau (h - e0))^-1, e0 the lowest eigenvalue of h.

    K^T acts on orbitals stored as rows.
    """
    out = []
    for vals, vecs in h_eigs:
        damp = 1.0 / (1.0 + tau * (vals - vals[0]))
        out.append((vecs.conj() * damp) @ vecs.T)
    return out


def _descent_block(stacks, B, rhs, inv, K, tau, steps):
    """``steps`` steps phi <- orth(phi - tau P K_tau rho^-1 B) on stacks."""
    for step in range(steps):
        if step:
            B = rhs(stacks)
        stacks = [_descend(phi, w, tau * (i @ b) @ k)
                  for phi, w, i, b, k in zip(stacks, rhs.weights, inv, B, K)]
    return stacks


def _descend(phi, weight, step):
    """orth(phi - P step), P = 1 - |phi><phi|, on orbital rows (M, n) or stacks.

    K_tau rho^-1 B has a part along the orbitals that orthonormalization
    does not remove exactly, so without P the step has fixed points with
    B != 0 (two bosons, M = 2, contact strength 2, tau = 1e3: the orbital
    residual stalled at 0.5). With P a fixed point needs
    P K_tau rho^-1 B = 0, and as K_tau is positive definite, B = 0.

    The rows psi = phi - P step are orthonormalized as L^-1 psi, L the
    Cholesky factor of their overlap w psi psi^dag = 1 + w s s^dag (s = P
    step, up to the rounding of phi): positive definite with condition
    number at most 1 + w ||s||^2, and L^T is the R with positive real
    diagonal of ``ham.orthonormal_rows``, so both give the same rows.
    """
    step = step - (weight * (step @ phi.conj().swapaxes(-1, -2))) @ phi
    psi = phi - step
    L = np.linalg.cholesky(weight * (psi @ psi.conj().swapaxes(-1, -2)))
    return np.linalg.inv(L) @ psi


def _orbital_residuals(weights, B, natural, floor):
    """The orbital residuals of the module docstring on B's stacks, from
    the natural orbitals (n, U) in ``natural`` with n_k above ``floor``."""
    orb = scaled = 0.0
    for w, b, (occ, U) in zip(weights, B, natural):
        norms = [np.sqrt(w * np.sum(np.abs(x) ** 2, -1, keepdims=True))[..., 0]
                 for x in (b, U.conj().swapaxes(-1, -2) @ b)]
        keep = occ > floor
        orb = max(orb, float(norms[0].max()))
        scaled = max(scaled, float(np.max(norms[1][keep] / occ[keep], initial=0)))
    return orb, scaled


ANDERSON_MEMORY = 5   # stored blocks, i.e. difference columns, of the mixing


def _flat(stacks):
    return np.concatenate([s.ravel() for s in stacks])


def _anderson_mix(stored, x, g, stacks, weights):
    """Anderson-mixed orbital stacks from the stored blocks and this one.

    ``stored`` holds the (f, g) of earlier accepted blocks, f = g - x over the
    flattened orbital stacks. With gamma = argmin ||f_k - dF gamma||
    the mixed point is g_k - dG gamma, dF, dG the differences of consecutive
    columns of f and g. Each DOF is then orthonormalized by the Householder
    QR of ``ham.orthonormal_rows``, in the gauge whose rows ``_descend``
    gives by a Cholesky factor.
    """
    F = np.column_stack([f for f, _ in stored] + [g - x])
    G = np.column_stack([gk for _, gk in stored] + [g])
    dF, dG = np.diff(F, axis=1), np.diff(G, axis=1)
    gamma = np.linalg.lstsq(dF, F[:, -1], rcond=None)[0]
    mixed = G[:, -1] - dG @ gamma
    ends = np.cumsum([0] + [s.size for s in stacks])
    return [ham.orthonormal_rows(mixed[a:b].reshape(s.shape), w)
            for a, b, s, w in zip(ends, ends[1:], stacks, weights)]


def _self_consistent(space, sets, h_eigs, opts, floor, ci, plan):
    """Alternate configuration eigenpairs and Anderson-mixed orbital blocks.

    ``sets`` is the list of per-DOF orbital sets (one for identical
    particles). ``ci(sets, C)`` returns (energy, C, H), H anything that
    applies the configuration Hamiltonian with ``@``; ``plan(C)`` returns
    (rho2, rhs), the two-body density of C (None for distinguishable DOFs)
    and its ``OrbitalRHS``. The step, the mixing, the backtracking and the
    stopping test are those of the module docstring. One plan and its stacks
    serve an iteration's convergence check (whose B the first step reuses),
    blocks and mixing; the eigenpair that accepted a trial is the next one's.
    """
    tau = opts.tau
    K = _kinetic_preconditioners(h_eigs, tau)
    history = []
    stored = []  # (f, g) of the last accepted blocks at the current tau
    counts = {"backtracks": 0, "forced_accepts": 0, "mixing_rejects": 0}
    orb_res = scaled_res = c_res = np.inf
    C = np.full(space.size, 1.0 / np.sqrt(space.size))
    found = ci(sets, C)
    took = "start"

    def orbital_sets(stacks):
        return [OrbitalSet(p, s.grid) for p, s in zip(rhs.unstack(stacks), sets)]

    def descends(found):
        return found[0] <= eps + 1e-13 * max(1.0, abs(eps))

    for outer in range(opts.max_iter):
        eps, C, H = found
        rho2, rhs = plan(C)
        x = rhs.stack([s.orbitals for s in sets])
        B = rhs(x)
        natural = [_hermitian_eigh(r) for r in rhs.rho]
        orb_res, scaled_res = _orbital_residuals(rhs.weights, B, natural, floor)
        c_res = float(np.linalg.norm(H @ C - eps * C))
        history.append(eps)
        if opts.verbose:
            print(f"  iter {outer:3d}  E={eps:.12f}  orb={orb_res:.2e}  "
                  f"scaled={scaled_res:.2e}  c={c_res:.2e}  tau={tau:.3g}  "
                  f"trial={took}")
        if max(orb_res, scaled_res) < opts.tol_orb and c_res < opts.tol_c:
            break

        inv = [_floored_inverse(*nat, floor) for nat in natural]
        trial = _descent_block(x, B, rhs, inv, rhs.stack(K), tau, opts.inner_steps)
        xf, g = _flat(x), _flat(trial)
        took = None
        if stored:
            mixed = orbital_sets(_anderson_mix(stored, xf, g, x, rhs.weights))
            found = ci(mixed, C)
            if descends(found):
                sets, took = mixed, "mixed"
            else:
                counts["mixing_rejects"] += 1
                stored.clear()
        if took is None:
            for attempt in range(3):
                if attempt:
                    trial = _descent_block(x, B, rhs, inv, rhs.stack(K), tau,
                                           opts.inner_steps)
                    g = _flat(trial)
                found = ci(orbital_sets(trial), C)
                if descends(found):
                    sets, took = orbital_sets(trial), "plain"
                    break
                tau *= 0.5
                counts["backtracks"] += 1
                K = _kinetic_preconditioners(h_eigs, tau)
                stored.clear()
            else:
                # accept anyway once tau is tiny; the residual check decides
                sets, took = orbital_sets(trial), "forced"
                counts["forced_accepts"] += 1
                continue
        stored.append((g - xf, g))
        del stored[:-ANDERSON_MEMORY]
    else:
        raise NonConvergenceError(
            f"no convergence after {opts.max_iter} iterations "
            f"(orbital residual {orb_res:.3e}, scaled orbital residual "
            f"{scaled_res:.3e}, coefficient residual {c_res:.3e})",
            residuals={"orb_residual": orb_res,
                       "scaled_orb_residual": scaled_res,
                       "c_residual": c_res, **counts},
        )

    residuals = {
        "orb_residual": orb_res,
        "scaled_orb_residual": scaled_res,
        "c_residual": c_res,
        "iterations": outer + 1,
        "energy_history": history,
        **counts,
        "tol_orb": opts.tol_orb,
        "tol_c": opts.tol_c,
    }
    return sets, eps, C, rho2, rhs, residuals


def solve_mchx(space: ConfigSpace, grid: Grid, h_op: OneBodyOperator,
               kernel: TwoBodyKernel, opts: SolverOptions | None = None,
               initial: OrbitalSet | None = None) -> GroundState:
    """Self-consistent stationary state for identical bosons or fermions."""
    if not space.identical:
        raise ValueError("identical-particle spaces only; see solve_mch_dist")
    h_eig = np.linalg.eigh(h_op.matrix)
    if initial is None:
        orbs = OrbitalSet(h_eig[1][:, :space.M].T / np.sqrt(grid.weight), grid)
    else:
        orbs = initial.orthonormalized()
    return _stationary_state(space, [h_op], kernel,
                             discretize_kernel(grid, kernel), [orbs], [h_eig],
                             opts)


def solve_mch_dist(space: ConfigSpace, grids, h_ops, coupling,
                   opts: SolverOptions | None = None) -> GroundState:
    """Self-consistent stationary state for coupled distinguishable DOFs."""
    if space.identical:
        raise ValueError("distinguishable spaces only; see solve_mchx")
    h_eigs = [np.linalg.eigh(h.matrix) for h in h_ops]
    sets = [OrbitalSet(vecs[:, :space.M_list[j]].T / np.sqrt(grids[j].weight),
                       grids[j]) for j, (_, vecs) in enumerate(h_eigs)]
    return _stationary_state(space, h_ops, coupling, None, sets, h_eigs, opts)


def _density_floor(space) -> float:
    """The floor of rho's eigenvalues in rho^-1: ``FLOOR_FRACTION`` tr rho."""
    return FLOOR_FRACTION * (space.N if space.identical else 1)


def _orbital_plan(space, h_ops, operand, weights, C):
    """(rho2, ``OrbitalRHS``) of C for either particle kind: its densities
    and the mean fields of ``ham.mean_field_plans`` on ``operand``."""
    rho1, rho2 = _densities(space, C)
    fields = ham.mean_field_plans(space, C, rho2, operand, weights)
    return rho2, OrbitalRHS(rho1, h_ops, weights, fields)


def _stationary_state(space, h_ops, interaction, kernel_matrix, sets, h_eigs,
                      opts) -> GroundState:
    """``_self_consistent`` from ``sets``, then the state with the
    multipliers mu_kq = <phi_q|g_k> of each DOF, g the unprojected
    right-hand side, and their hermiticity defect ``mu_defect``.  The
    configuration eigenpair and the orbital right-hand side come from
    ``ham.hamiltonian_matrix`` and ``_orbital_plan`` for either particle
    kind; the density floor is ``_density_floor``."""
    operand = _operand(space, interaction, kernel_matrix)
    weights = [s.grid.weight for s in sets]

    def ci(cur_sets, C):
        return _lowest_eigenpair(space, cur_sets, h_ops, operand, v0=C)

    sets, energy, C, rho2, rhs, residuals = _self_consistent(
        space, sets, h_eigs, opts or SolverOptions(), _density_floor(space),
        ci, partial(_orbital_plan, space, h_ops, operand, weights))
    raw = rhs.unstack(rhs(rhs.stack([s.orbitals for s in sets]), False))
    mu = [s.grid.weight * (g @ s.orbitals.conj().T) for s, g in zip(sets, raw)]
    residuals["mu_defect"] = max(float(np.abs(m - m.conj().T).max()) for m in mu)
    return GroundState(space=space, grids=[s.grid for s in sets],
                       h_ops=list(h_ops), sets=sets, C=C, rho1=rhs.rho1, mu=mu,
                       interaction=interaction, rho2=rho2,
                       kernel_matrix=kernel_matrix, energy=energy,
                       residuals=residuals)


# ---------------------------------------------------------------------------
# real-time propagation check


def perturbed_state(state: GroundState, eta: float, seed: int = 0) -> GroundState:
    """Copy of the state with a small random distortion of the orbitals of
    every DOF and of C, orthonormalized and normalized again."""
    rng = np.random.default_rng(seed)

    def noise(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    sets = [OrbitalSet(s.orbitals + eta * noise(s.orbitals.shape),
                       s.grid).orthonormalized() for s in state.sets]
    C = state.C + eta * noise(state.C.shape)
    C = C / np.linalg.norm(C)
    rho1, rho2 = _densities(state.space, C)
    return replace(state, sets=sets, C=C, rho1=rho1, rho2=rho2, mu=None,
                   energy=np.nan, residuals=dict(state.residuals))


def propagate_check(state: GroundState, dt: float, n_steps: int,
                    use_coeff_projector: bool = True) -> dict:
    """Integrate the (optionally fully projected) equations of motion of
    every DOF's orbitals, -i rho^-1 times the solver's right-hand side
    (``_orbital_plan``, rho^-1 floored at ``_density_floor``), and of C
    under ``ham.configuration_action``, as one flat vector by RK4.

    Returns the maxima over all steps and DOFs of |<phi_k|dphi_q/dt>|,
    |C^dag dC/dt|, |<Psi|dPsi/dt>| = |C^dag dC/dt + sum_jkq rho^j_kq
    <phi^j_k|dphi^j_q/dt>| and the orthonormality/norm drifts; a
    coefficient norm drift beyond 1e-6 raises."""
    space, h_ops, operand, grids = (state.space, state.h_ops, state.operand,
                                    state.grids)
    weights, floor = [g.weight for g in grids], _density_floor(space)
    shapes = [s.orbitals.shape for s in state.sets] + [state.C.shape]
    cuts = np.cumsum([np.prod(s, dtype=int) for s in shapes])[:-1]

    def split(y):
        return [x.reshape(s) for x, s in zip(np.split(y, cuts), shapes)]

    def rhs(y):
        *phis, C = split(y)
        _, orbital = _orbital_plan(space, h_ops, operand, weights, C)
        phi_dot = orbital.unstack([
            -1j * (_floored_inverse(*_hermitian_eigh(r), floor) @ b)
            for r, b in zip(orbital.rho, orbital(orbital.stack(phis)))])
        sets = [OrbitalSet(p, g) for p, g in zip(phis, grids)]
        hc = ham.configuration_action(space, sets, h_ops, operand)(C)
        if use_coeff_projector:
            hc = hc - C * np.vdot(C, hc)
        return _flat(phi_dot + [-1j * hc]), orbital.rho1

    y = _flat([s.orbitals for s in state.sets] + [state.C])
    diag = dict.fromkeys(["orb_diff_cond", "coeff_diff_cond", "full_diff_cond",
                          "orthonormality_drift", "norm_drift"], 0.0)

    def note(**values):
        diag.update((k, max(diag[k], float(v))) for k, v in values.items())

    for _ in range(n_steps):
        k1, rho1 = rhs(y)
        (*phis, C), (*dots, c_dot) = split(y), split(k1)
        overlaps = [w * (p.conj() @ d.T)
                    for w, p, d in zip(weights, phis, dots)]
        coeff = np.vdot(C, c_dot)
        note(orb_diff_cond=max(np.abs(o).max() for o in overlaps),
             coeff_diff_cond=abs(coeff),
             full_diff_cond=abs(coeff + sum(np.einsum("kq,kq->", r, o)
                                            for r, o in zip(rho1, overlaps))))
        # classical RK4
        k2 = rhs(y + 0.5 * dt * k1)[0]
        k3 = rhs(y + 0.5 * dt * k2)[0]
        k4 = rhs(y + dt * k3)[0]
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        *phis, C = split(y)
        note(orthonormality_drift=max(OrbitalSet(p, g).orthonormality_defect()
                                      for p, g in zip(phis, grids)),
             norm_drift=abs(np.linalg.norm(C) - 1.0))
        if diag["norm_drift"] > 1e-6:
            raise RuntimeError(f"norm drift {diag['norm_drift']:.3e} exceeds "
                               "1e-6; reduce dt")
    return diag
