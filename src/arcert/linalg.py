"""Dense matrix primitives: the AR companion layout, the discrete Lyapunov solve
from its coefficients behind every stationary covariance and Gramian, and the
symmetric square root.  Stability is checked upstream: an ``ArProcess`` is stable.

Everything here operates on plain numpy arrays and is pure, so all functions
are safe for concurrent use.
"""

import numpy as np

from .errors import ConvergenceError

#: Relative residual tolerance for Lyapunov solutions.
LYAPUNOV_TOL = 1e-10


def _require_square(m: np.ndarray, name: str) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")


def _check_residual(a: np.ndarray, x: np.ndarray, q: np.ndarray) -> None:
    """Raise ConvergenceError unless ||X - A X A^T - Q|| is within
    ``LYAPUNOV_TOL`` relative to the larger of ||X|| and ||Q||; a NaN
    residual fails too."""
    scale = max(np.linalg.norm(x), np.linalg.norm(q), 1e-300)
    residual = np.linalg.norm(x - a @ x @ a.T - q) / scale
    if not residual <= LYAPUNOV_TOL:
        raise ConvergenceError(
            f"Lyapunov residual {residual:.3e} above tolerance {LYAPUNOV_TOL:.1e}")


def _companion(coeffs: np.ndarray) -> np.ndarray:
    """(n+1) x (n+1) companion matrix A of x_{t+1} = A x_t + e1 e_{t+1}, with
    the state x_t = (y_t, ..., y_{t-n}): the coefficients in the first row, an
    identity shift below and a zero last column.  Its leading n x n block is
    the companion of p(x) = x^n - c_1 x^(n-1) - ... - c_n, so A's eigenvalues
    are the process poles plus one at zero.  The one writer of this layout."""
    n = coeffs.size
    a = np.zeros((n + 1, n + 1))
    a[0, :n] = coeffs
    a[1:, :n] = np.eye(n)
    return a


def solve_companion_lyapunov(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Solve V = A V A^T + e1 e1^T (per unit innovation variance) and G =
    A G A^T + I for the companion A of the coefficients (c_1, ..., c_n) (:func:`_companion`).

    The state is x_t = (y_t, ..., y_{t-n}), so V = toeplitz(gamma_0..gamma_n)
    holds the autocovariances, and the shift rows give G_{pq} = G_{p-1,q-1} +
    [p = q], so G = toeplitz(g_0..g_n) + diag(0, 1, ..., n).  Both first rows
    solve the Yule-Walker equations read backwards (Brockwell & Davis 1991,
    sec. 3.3): x_k - sum_j c_j x_{|k-j|} = b_k, k = 0..n, with b = e1 for V
    and b = (1, 0, c_2, 2 c_3, ..., (n-1) c_n) for G.  One
    (n+1) x (n+1) solve serves both right-hand sides.  One refinement step,
    with the matrix and the residual formed in ``np.longdouble``, makes the
    solution forward accurate (Higham 2002, ch. 12), and the corrected first
    rows are rounded to float64 only after the diagonal of G is added.

    The coefficients must be a stable process's (``ArProcess.coeffs``): this
    solve does not check it.  A is built only for the two residual checks;
    ConvergenceError when either relative residual exceeds ``LYAPUNOV_TOL``.
    """
    c = np.asarray(coeffs, dtype=float)
    n = c.size
    padded = np.zeros(2 * n + 1, dtype=np.longdouble)  # padded[j] = c_j, 0 off 1..n
    padded[1 : n + 1] = c
    idx = np.arange(n + 1)
    diff = idx[:, None] - idx[None, :]
    # Row k: the coefficient of x_m gathers -c_j over j = k - m and j = k + m
    # (once for m = 0).
    hankel = padded[idx[:, None] + idx[None, :]]
    hankel[:, 0] = 0.0
    system = np.eye(n + 1, dtype=np.longdouble) - padded[np.maximum(diff, 0)] - hankel
    rhs = np.zeros((n + 1, 2), dtype=np.longdouble)
    rhs[0] = 1.0
    rhs[2:, 1] = idx[1:n] * padded[2 : n + 1]
    system64 = system.astype(float)
    first = np.linalg.solve(system64, rhs.astype(float))
    residual = rhs - system @ first.astype(np.longdouble)
    first_rows = first + np.linalg.solve(system64, residual.astype(float)).astype(np.longdouble)

    lag = np.abs(diff)
    v = first_rows[lag, 0].astype(float)
    g = (first_rows[lag, 1] + np.diag(idx)).astype(float)
    a = _companion(c)
    e1 = np.eye(n + 1)[0]
    _check_residual(a, v, np.outer(e1, e1))
    _check_residual(a, g, np.eye(n + 1))
    return v, g


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
