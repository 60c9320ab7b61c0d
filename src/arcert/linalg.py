"""Dense matrix primitives: discrete Lyapunov solves, spectral radius, square roots.

Everything here operates on plain numpy arrays and is pure, so all functions
are safe for concurrent use.
"""

import numpy as np

from .errors import ConvergenceError, StabilityError

#: Relative residual tolerance for Lyapunov solutions.
LYAPUNOV_TOL = 1e-10

#: Relative slack of the campaign's positive-semidefinite order test.
PSD_ORDER_RTOL = 1e-8


def _require_square(m: np.ndarray, name: str) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    m = np.asarray(m, dtype=float)
    _require_square(m, "m")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def solve_discrete_lyapunov(a, q) -> np.ndarray:
    """Solve X = A X A^T + Q for symmetric PSD Q and rho(A) < 1.

    Solves the Kronecker form (I - A (x) A) vec X = vec Q directly (one dense
    LU solve of order n^2) and symmetrises the result.  The matrix is
    nonsingular exactly when no product of two eigenvalues of A equals 1,
    which rho(A) < 1 guarantees.

    Raises StabilityError when rho(A) >= 1 and ConvergenceError when the
    relative residual exceeds ``LYAPUNOV_TOL``.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    _require_square(a, "a")
    if q.shape != a.shape:
        raise ValueError(f"q must match a in shape, got {q.shape} vs {a.shape}")
    if not np.allclose(q, q.T, atol=1e-12 * max(1.0, float(np.abs(q).max(initial=0.0)))):
        raise ValueError("q must be symmetric")
    rho = spectral_radius(a)
    if rho >= 1.0:
        raise StabilityError(f"spectral radius {rho:.6g} >= 1; Lyapunov series diverges")

    n = a.shape[0]
    # Row-major vec: vec(A X A^T) = (A (x) A) vec X.
    x = np.linalg.solve(np.eye(n * n) - np.kron(a, a), q.reshape(n * n)).reshape(n, n)
    x = 0.5 * (x + x.T)

    scale = max(np.linalg.norm(x), np.linalg.norm(q), 1e-300)
    residual = np.linalg.norm(x - a @ x @ a.T - q) / scale
    if residual > LYAPUNOV_TOL:
        raise ConvergenceError(
            f"Lyapunov residual {residual:.3e} above tolerance {LYAPUNOV_TOL:.1e} "
            f"(rho(A) = {rho:.12g})"
        )
    return x


def symmetric_sqrt(m) -> np.ndarray:
    """Symmetric square root of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues within 1e-12 of zero (relative to the largest) are clipped to
    zero; genuinely negative eigenvalues raise ``np.linalg.LinAlgError``.
    """
    m = np.asarray(m, dtype=float)
    _require_square(m, "m")
    lam, u = np.linalg.eigh(0.5 * (m + m.T))
    floor = -1e-12 * max(float(lam[-1]), 1e-300)
    if lam[0] < floor:
        raise np.linalg.LinAlgError(f"matrix is not PSD: smallest eigenvalue {lam[0]:.3e}")
    return (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.T
