"""Classical solvers used as ground truth for the quantum pipeline.

Desk-scale dense systems only: LAPACK's LU solve with partial pivoting
(``zgesv`` through ``numpy.linalg.solve``) and a plain conjugate gradient
iteration, both checked against each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, SingularMatrix
from .qcore import as_complex_matrix


def direct_solve(a, b) -> np.ndarray:
    """Solve A x = b by LU factorisation with partial pivoting (LAPACK ``zgesv``).

    There is no pivot threshold.  Raises SingularMatrix when a pivot is
    exactly zero, or when x is not finite (a pivot too small for this b).
    """
    m = as_complex_matrix(a)
    rhs = np.asarray(b, dtype=complex).reshape(-1)
    n = m.shape[0]
    if m.shape[1] != n or rhs.size != n:
        raise SingularMatrix(f"incompatible shapes {m.shape} and {rhs.shape}")
    try:
        x = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"LU factorisation failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("solution is not finite: a pivot is too small for this b")
    return x


@dataclass(frozen=True)
class CGReport:
    solution: np.ndarray
    iterations: int
    residual_norm: float


def conjugate_gradient(a, b, tol: float = 1e-10, max_iterations: int | None = None) -> CGReport:
    """Conjugate gradient for Hermitian positive definite systems.

    Converges in at most N steps in exact arithmetic; NotPositiveDefinite
    is raised when a search direction sees non-positive curvature p^† A p.
    """
    m = as_complex_matrix(a)
    rhs = np.asarray(b, dtype=complex).reshape(-1)
    n = m.shape[0]
    if max_iterations is None:
        max_iterations = 2 * n + 10
    x = np.zeros(n, dtype=complex)
    r = rhs - m @ x
    p = r.copy()
    rs = float(np.real(np.vdot(r, r)))
    iterations = 0
    while np.sqrt(rs) > tol and iterations < max_iterations:
        ap = m @ p
        curvature = float(np.real(np.vdot(p, ap)))
        if curvature <= 0.0:
            raise NotPositiveDefinite(f"direction with p^†Ap = {curvature:.3e} <= 0")
        alpha = rs / curvature
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(np.real(np.vdot(r, r)))
        p = r + (rs_new / rs) * p
        rs = rs_new
        iterations += 1
    residual = float(np.linalg.norm(m @ x - rhs))
    return CGReport(solution=x, iterations=iterations, residual_norm=residual)
