"""Dense matrix primitives: the discrete Lyapunov solve for AR companion
matrices behind every stationary covariance and Gramian, and the symmetric
square root.  Stability is checked upstream: an ``ArProcess`` is stable.

Everything here operates on plain numpy arrays and is pure, so all functions
are safe for concurrent use.
"""

import numpy as np

from .errors import ConvergenceError

#: Relative residual tolerance for Lyapunov solutions.
LYAPUNOV_TOL = 1e-10

#: Relative slack of the campaign's positive-semidefinite order test.
PSD_ORDER_RTOL = 1e-8


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


def companion_coefficients(a) -> np.ndarray:
    """The AR coefficients (c_1, ..., c_n) in the first row of a companion
    matrix A; ValueError if A is not one (see
    :func:`arcert.process.build_companion`)."""
    a = np.asarray(a, dtype=float)
    _require_square(a, "a")
    n = a.shape[0] - 1
    if n < 1 or a[0, n] != 0.0 or not np.array_equal(a[1:], np.eye(n, n + 1)):
        raise ValueError("a must be an AR companion matrix: coefficients in the first "
                         "row, an identity shift below it and a zero last column")
    return a[0, :n]


def solve_companion_lyapunov(a) -> tuple[np.ndarray, np.ndarray]:
    """Solve V = A V A^T + e1 e1^T (per unit innovation variance) and G =
    A G A^T + I for an AR companion matrix A (:func:`arcert.process.build_companion`).

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

    Only the first row of A is read for the coefficients, so anything but a
    companion matrix is rejected.  A must be stable: this solve does not
    check it (a stable ``ArProcess`` guarantees it).  Raises
    ConvergenceError when either relative residual exceeds ``LYAPUNOV_TOL``.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0] - 1
    coeffs = np.zeros(2 * n + 1, dtype=np.longdouble)  # coeffs[j] = c_j, 0 off 1..n
    coeffs[1 : n + 1] = companion_coefficients(a)
    idx = np.arange(n + 1)
    diff = idx[:, None] - idx[None, :]
    # Row k: the coefficient of x_m gathers -c_j over j = k - m and j = k + m
    # (once for m = 0).
    hankel = coeffs[idx[:, None] + idx[None, :]]
    hankel[:, 0] = 0.0
    system = np.eye(n + 1, dtype=np.longdouble) - coeffs[np.maximum(diff, 0)] - hankel
    rhs = np.zeros((n + 1, 2), dtype=np.longdouble)
    rhs[0] = 1.0
    rhs[2:, 1] = idx[1:n] * coeffs[2 : n + 1]
    system64 = system.astype(float)
    first = np.linalg.solve(system64, rhs.astype(float))
    residual = rhs - system @ first.astype(np.longdouble)
    first_rows = first + np.linalg.solve(system64, residual.astype(float)).astype(np.longdouble)

    lag = np.abs(diff)
    v = first_rows[lag, 0].astype(float)
    g = (first_rows[lag, 1] + np.diag(idx)).astype(float)
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
