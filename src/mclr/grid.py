"""One-dimensional hard-wall grid and the operators living on it.

The primitive basis is a sine discrete-variable representation: ``n_points``
interior points between Dirichlet walls at ``x_min`` and ``x_max``.  Grid
functions are stored by their values at the interior points; the quadrature
weight ``dx = (x_max - x_min) / (n_points + 1)`` turns plain dot products
into integrals,

    <a|b> = dx * sum_i conj(a_i) * b_i.

The kinetic matrix in this representation is dense, real symmetric, and its
eigenvalues are exactly the particle-in-a-box levels k^2 pi^2 / (2 m L^2),
k = 1..n_points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "OneBodyOperator",
    "TwoBodyKernel",
    "build_grid",
    "kinetic_matrix",
    "harmonic_potential",
    "position_operator",
    "diagonal_operator",
    "discretize_kernel",
]


def as_float(x) -> np.ndarray:
    """``x`` as an array of its own dtype promoted to at least float64."""
    return np.asarray(x, dtype=np.result_type(np.asarray(x), float))


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid between hard walls."""

    n_points: int
    x_min: float
    x_max: float
    points: np.ndarray = field(repr=False)
    weight: float = 0.0

    def inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        """Quadrature inner product <a|b> of two grid functions."""
        return self.weight * np.vdot(a, b)

    def norm(self, a: np.ndarray) -> float:
        return float(np.sqrt(self.inner(a, a).real))


@dataclass(frozen=True)
class OneBodyOperator:
    """Dense one-body operator on grid-function values; the matrix keeps its
    dtype, promoted to at least float64, so a real operator stays real."""

    matrix: np.ndarray = field(repr=False)
    hermitian: bool = True

    def __post_init__(self):
        m = as_float(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        if self.hermitian:
            scale = max(np.abs(m).max(), 1.0)
            defect = np.abs(m - m.conj().T).max() / scale
            if defect > 1e-12:
                raise ValueError(
                    f"operator flagged hermitian but relative defect is {defect:.3e}"
                )


@dataclass(frozen=True)
class TwoBodyKernel:
    """Translation-invariant pair interaction W(r - r').

    contact : strength * delta(r - r'), discretized as strength/dx on the
              diagonal.
    gaussian: strength * exp(-(r - r')^2 / (2 width^2)).
    general : explicit symmetric table of samples W(x_i - x_j).
    """

    kind: str
    strength: float = 0.0
    width: float = 1.0
    table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("contact", "gaussian", "general", "none"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and self.width <= 0:
            raise ValueError("gaussian kernel needs width > 0")


def build_grid(n_points: int, x_min: float, x_max: float) -> Grid:
    """Interior grid of ``n_points`` uniformly spaced points.

    The walls themselves are not grid points; functions implicitly vanish
    there.
    """
    if not (np.isfinite(x_min) and np.isfinite(x_max)):
        raise ValueError("grid bounds must be finite")
    if x_max <= x_min:
        raise ValueError("x_max must exceed x_min")
    if n_points < 4:
        raise ValueError("need at least 4 grid points")
    dx = (x_max - x_min) / (n_points + 1)
    points = x_min + dx * np.arange(1, n_points + 1)
    return Grid(n_points=n_points, x_min=float(x_min), x_max=float(x_max),
                points=points, weight=dx)


def kinetic_matrix(grid: Grid, mass: float = 1.0) -> OneBodyOperator:
    """Kinetic energy -1/(2 mass) d^2/dx^2 with hard-wall boundaries.

    Exact within the sine basis spanned by the grid: eigenvalues are
    k^2 pi^2 / (2 mass L^2), k = 1..n_points.
    """
    if mass <= 0:
        raise ValueError("mass must be positive")
    n = grid.n_points
    length = grid.x_max - grid.x_min
    npl = n + 1
    j = np.arange(1, n + 1)
    # t_ij = f(|i - j|) - f(i + j), and (2 (n + 1)^2 + 1) / 3 - f(2i) for i = j,
    # f(k) = (-1)^k / sin^2(k pi / (2 (n + 1))) on its 2n + 1 arguments, gathered
    k = np.arange(2 * n + 1)
    with np.errstate(divide="ignore"):
        f = (-1.0) ** k / np.sin(np.pi * k / (2 * npl)) ** 2
    t = f[np.abs(np.subtract.outer(j, j))] - f[np.add.outer(j, j)]
    np.fill_diagonal(t, (2.0 * npl**2 + 1.0) / 3.0 - f[2 * j])
    t *= np.pi**2 / (2.0 * length**2) / (2.0 * mass)
    return OneBodyOperator(t, hermitian=True)


def harmonic_potential(grid: Grid, omega0: float) -> OneBodyOperator:
    """Trap potential 0.5 * omega0^2 * x^2 as a diagonal operator."""
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    return diagonal_operator(grid, 0.5 * omega0**2 * grid.points**2)


def position_operator(grid: Grid) -> OneBodyOperator:
    """Multiplication by x; the standard dipole-type probe."""
    return diagonal_operator(grid, grid.points)


def diagonal_operator(grid: Grid, values: np.ndarray) -> OneBodyOperator:
    values = np.asarray(values)
    if values.shape != (grid.n_points,):
        raise ValueError("diagonal values must match the grid")
    return OneBodyOperator(np.diag(values), hermitian=not np.any(np.imag(values)))


def discretize_kernel(grid: Grid, kernel: TwoBodyKernel) -> np.ndarray:
    """Dense samples W(x_i - x_j) of a pair interaction on the grid.

    The contact kernel becomes strength/dx on the diagonal so that the
    quadrature sum dx^2 * sum_ij reproduces the delta-function integral.
    """
    n = grid.n_points
    if kernel.kind == "none":
        return np.zeros((n, n))
    if kernel.kind == "contact":
        return (kernel.strength / grid.weight) * np.eye(n)
    if kernel.kind == "gaussian":
        d = grid.points[:, None] - grid.points[None, :]
        return kernel.strength * np.exp(-(d**2) / (2.0 * kernel.width**2))
    table = np.asarray(kernel.table, dtype=float)
    if table.shape != (n, n):
        raise ValueError("general kernel table must be n_points x n_points")
    if np.abs(table - table.T).max() > 1e-12 * max(1.0, np.abs(table).max()):
        raise ValueError("general kernel table must be symmetric")
    return table.copy()
