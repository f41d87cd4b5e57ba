"""The per-cell Riccati solve as it was before solve_care took a family of
gain scales: one scipy Schur form per matrix, Newton-Kleinman one matrix at
a time and the contract check, for one gain scale.  The stacked solver must
equal it bit for bit, in its solutions and in its errors.

oracle_care also says where a failure came from and how Newton stopped, so
that a test can show which cases its sample covers.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from cohsync.linalg import (
    NEWTON_FLOOR,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    SolverError,
    _is_hurwitz,
    eigenvalues,
    min_eigenvalue_sym,
)


@dataclass
class Solo:
    """What one solve alone gave: result is P or the exception raised;
    stage is None, "start", "newton" or "validate"; steps counts Newton's
    Lyapunov solves, and stop is "tol" or "floor" for a converged Newton."""

    result: object
    stage: str | None
    steps: int
    stop: str | None


def _as_square(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def lyapunov(A, W):
    A = _as_square(A, "A")
    W = _as_square(W, "W")
    if A.shape != W.shape:
        raise ValueError(f"shape mismatch: A is {A.shape}, W is {W.shape}")
    if A.shape[0] == 0:
        return np.zeros((0, 0))
    w_scale = max(1.0, float(np.max(np.abs(W))))
    if float(np.max(np.abs(W - W.T))) > 1e-10 * w_scale:
        raise ValueError("W must be symmetric")
    T, Z = scipy.linalg.schur(A, output="real", check_finite=False)
    max_re = float(np.max(np.diag(T)))
    if not _is_hurwitz(A, max_re):
        raise SolverError(f"Lyapunov solve needs a Hurwitz matrix; max Re(lambda) = {max_re:.6g}")
    Y, scale, info = lapack.dtrsyl(T, T, -(Z.T @ W @ Z), trana="T")
    if info < 0:
        raise SolverError(f"trsyl rejected argument {-info}")
    X = Z @ (Y / scale) @ Z.T
    X = 0.5 * (X + X.T)
    residual, w_norm = np.linalg.svd(np.stack((A.T @ X + X @ A + W, W)), compute_uv=False)[:, 0]
    if residual > 1e-10 * (1.0 + w_norm):
        raise SolverError(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return X


def _newton(A, B, W, g, P0, solo):
    P = 0.5 * (P0 + P0.T)
    last_gap = np.inf
    for _ in range(NEWTON_MAX_ITER):
        K = g * (B.T @ P)
        A_cl = A - B @ K
        rhs = W + (K.T @ K) / g
        rhs = 0.5 * (rhs + rhs.T)
        solo.steps += 1
        try:
            P_next = lyapunov(A_cl, rhs)
        except SolverError:
            return None
        gap = float(np.max(np.abs(P_next - P))) / max(1.0, float(np.max(np.abs(P_next))))
        P = P_next
        if gap < NEWTON_TOL or last_gap <= gap < NEWTON_FLOOR:
            solo.stop = "tol" if gap < NEWTON_TOL else "floor"
            return P
        last_gap = gap
    return None


def _schur_start(A, B, W, g):
    n = A.shape[0]
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = A
    H[:n, n:] = -g * (B @ B.T)
    H[n:, :n] = -W
    H[n:, n:] = -A.T
    _, U, sdim = scipy.linalg.schur(H, output="real", sort="lhp", check_finite=False)
    if sdim != n:
        raise SolverError(f"the Hamiltonian has {sdim} stable eigenvalues, not {n}: no stabilizing solution")
    try:
        P0 = np.linalg.solve(U[:n, :n].T, U[n:, :n].T).T
    except np.linalg.LinAlgError:
        P0 = np.full((n, n), np.nan)
    if not np.all(np.isfinite(P0)):
        raise SolverError("U11 of the Hamiltonian's stable subspace is singular: no stabilizing solution")
    return P0


def _validate(A, B, W, g, P):
    R = A.T @ P + P @ A - g * (P @ B) @ (B.T @ P) + W
    residual, p_norm = np.linalg.svd(np.stack((R, P)), compute_uv=False)[:, 0]
    if residual > 1e-8 * (1.0 + p_norm**2):
        raise SolverError(f"Riccati residual {residual:.3e} exceeds tolerance")
    if min_eigenvalue_sym(P) < -1e-10 * (1.0 + p_norm):
        raise SolverError("Riccati solution is not positive semidefinite")
    if not eigenvalues(A - g * (B @ (B.T @ P))).is_hurwitz:
        raise SolverError("Riccati solution does not stabilize the closed loop")
    return P


def oracle_care(A, B, W, g) -> Solo:
    """solve_care(A, B, w_state=W, gain_scale=g) for a positive scalar g, one
    cell alone, with A, B and W float arrays of matching shapes."""
    A, B, W, g = np.asarray(A, float), np.asarray(B, float), np.asarray(W, float), float(g)
    solo = Solo(None, None, 0, None)
    stage = "start"
    try:
        P0 = _schur_start(A, B, W, g)
        stage = "newton"
        P = _newton(A, B, W, g, P0, solo)
        if P is None:
            raise SolverError("Riccati iteration failed to converge")
        stage = "validate"
        solo.result = _validate(A, B, W, g, P)
    except (SolverError, ValueError, np.linalg.LinAlgError) as exc:
        solo.result, solo.stage = exc, stage
    return solo


def same_outcome(got, solo: Solo) -> bool:
    """got, a solution or an exception, is solo's: the same shape and bits
    (read in C order, whatever the layout), or the same exception type and
    message."""
    want = solo.result
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return isinstance(got, np.ndarray) and got.shape == want.shape and got.tobytes() == want.tobytes()
