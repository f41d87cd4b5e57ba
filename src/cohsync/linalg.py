"""Dense linear-algebra kernels for controller and observer synthesis.

The models this package targets have a handful of states, so every solver
here is dense and direct.  Lyapunov equations are solved by Bartels-Stewart:
one real Schur form of A and a triangular Sylvester solve (LAPACK trsyl),
O(n^3).  A Riccati solve starts from the Schur-method solution (one ordered
real Schur form of the Hamiltonian) and takes Newton-Kleinman steps on top
of it, usually one Lyapunov solve.  Every solve checks its residual before
it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

__all__ = [
    "SpectrumReport",
    "SolverError",
    "eigenvalues",
    "operator_norm_2",
    "min_eigenvalue_sym",
    "solve_lyapunov",
    "solve_care",
    "solve_dual_care_shifted",
    "row_product",
]

# Newton stops when successive iterates agree to NEWTON_TOL in max norm,
# relative to the iterate scale, or when a step fails to shrink a gap below
# NEWTON_FLOOR, where roundoff of ill-scaled problems keeps it; it gives up
# after the cap.
NEWTON_TOL = 1e-12
NEWTON_FLOOR = 1e-8
NEWTON_MAX_ITER = 200


class SolverError(RuntimeError):
    """An iterative solve failed to produce a valid solution."""


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a square matrix plus a stability verdict."""

    eigenvalues: np.ndarray
    max_real_part: float
    is_hurwitz: bool


def row_product(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X @ B over a batch of rows, each row rounded the same whatever the
    number of rows.

    numpy hands a one-row product to BLAS dot or gemv, which round
    differently from the kernels it uses for more rows, so a lone row is
    computed as the first row of a two-row product.
    """
    if X.shape[0] == 1:
        return (np.concatenate((X, X)) @ B)[:1]
    return X @ B


def _as_square(M, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _is_hurwitz(M: np.ndarray, max_re: float) -> bool:
    """The one Hurwitz rule: max Re(lambda) < -1e-12 max(||M||_F, 1).

    Roundoff alone moves an eigenvalue on the imaginary axis by about
    1e-16 ||M||, to either side, so a verdict without that margin would be
    a coin toss.
    """
    return max_re < -1e-12 * max(float(np.linalg.norm(M)), 1.0)


def eigenvalues(M) -> SpectrumReport:
    """Spectrum of a square matrix, Hurwitz by _is_hurwitz.

    An empty matrix is vacuously Hurwitz (max real part -inf); this keeps
    degenerate zero-size blocks from the output transform usable.
    """
    M = _as_square(M)
    ev = np.linalg.eigvals(M) if M.size else np.zeros(0, dtype=complex)
    max_re = float(np.max(ev.real)) if ev.size else float("-inf")
    return SpectrumReport(eigenvalues=ev, max_real_part=max_re, is_hurwitz=_is_hurwitz(M, max_re))


def operator_norm_2(M) -> float:
    """Largest singular value; zero for empty matrices."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def min_eigenvalue_sym(M) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    Rejects input whose asymmetry exceeds 1e-12 relative to its magnitude
    rather than symmetrizing silently: an asymmetric argument here always
    means a bug upstream.
    """
    M = _as_square(M)
    if M.size == 0:
        raise ValueError("empty matrix has no eigenvalues")
    scale = max(1.0, float(np.max(np.abs(M))))
    if float(np.max(np.abs(M - M.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within tolerance 1e-12")
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def solve_lyapunov(A, W) -> np.ndarray:
    """Solve A' X + X A + W = 0 for symmetric X, with A Hurwitz.

    Args:
        A: square Hurwitz matrix.
        W: symmetric matrix of matching shape.

    Returns:
        Symmetric X with residual norm(A'X + XA + W) <= 1e-10 * (1 + norm(W)).

    Bartels-Stewart: with the real Schur form A = Z T Z', the equation
    becomes T'Y + YT = -Z'WZ, which trsyl solves by back substitution over
    the quasi-triangular T; then X = Z Y Z'.  The Hurwitz verdict, by
    _is_hurwitz as in eigenvalues, is read from the diagonal of T, whose
    standardized 2x2 blocks carry the real part of their complex pair on
    the diagonal.  The result is symmetrized to scrub roundoff drift before
    the residual check.
    """
    A = _as_square(A, "A")
    W = _as_square(W, "W")
    if A.shape != W.shape:
        raise ValueError(f"shape mismatch: A is {A.shape}, W is {W.shape}")
    if A.shape[0] == 0:
        return np.zeros((0, 0))
    w_scale = max(1.0, float(np.max(np.abs(W))))
    if float(np.max(np.abs(W - W.T))) > 1e-10 * w_scale:
        raise ValueError("W must be symmetric")
    # _as_square has rejected non-finite entries already.
    T, Z = scipy.linalg.schur(A, output="real", check_finite=False)
    max_re = float(np.max(np.diag(T)))
    if not _is_hurwitz(A, max_re):
        raise SolverError(f"Lyapunov solve needs a Hurwitz matrix; max Re(lambda) = {max_re:.6g}")
    Y, scale, info = lapack.dtrsyl(T, T, -(Z.T @ W @ Z), trana="T")
    if info < 0:
        raise SolverError(f"trsyl rejected argument {-info}")
    # info == 1 (eigenvalues nearly opposite, perturbed solve) is left to
    # the residual check.
    X = Z @ (Y / scale) @ Z.T
    X = 0.5 * (X + X.T)
    residual, w_norm = np.linalg.svd(np.stack((A.T @ X + X @ A + W, W)), compute_uv=False)[:, 0]
    if residual > 1e-10 * (1.0 + w_norm):
        raise SolverError(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return X


def _newton_care(A, B, W, g, P0):
    """Newton-Kleinman iteration from a stabilizing start.

    Returns the converged solution, or None if the iteration hits its cap
    or an inner Lyapunov solve hits a non-Hurwitz closed loop.
    """
    P = 0.5 * (P0 + P0.T)
    last_gap = np.inf
    for _ in range(NEWTON_MAX_ITER):
        K = g * (B.T @ P)
        A_cl = A - B @ K
        rhs = W + (K.T @ K) / g
        rhs = 0.5 * (rhs + rhs.T)
        try:
            P_next = solve_lyapunov(A_cl, rhs)
        except SolverError:
            return None
        gap = float(np.max(np.abs(P_next - P))) / max(1.0, float(np.max(np.abs(P_next))))
        P = P_next
        if gap < NEWTON_TOL or last_gap <= gap < NEWTON_FLOOR:
            return P
        last_gap = gap
    return None


def _schur_start(A, B, W, g) -> np.ndarray:
    """The Schur-method solution U21 U11^-1: the first n Schur vectors
    [U11; U21] of the Hamiltonian [[A, -g BB'], [-W, -A']], ordered with
    its stable eigenvalues first, span its stable invariant subspace."""
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
        # P0 U11 = U21, solved as U11' P0' = U21'.
        P0 = np.linalg.solve(U[:n, :n].T, U[n:, :n].T).T
    except np.linalg.LinAlgError:
        P0 = np.full((n, n), np.nan)
    # An inf or NaN start would reach solve_lyapunov as a ValueError.
    if not np.all(np.isfinite(P0)):
        raise SolverError("U11 of the Hamiltonian's stable subspace is singular: no stabilizing solution")
    return P0


def solve_care(A, B, w_state=None, gain_scale: float = 1.0) -> np.ndarray:
    """Stabilizing solution of  A'P + PA - g PBB'P + W = 0.

    Args:
        A: state matrix, n x n.
        B: input matrix, n x m; m = 0 degrades gracefully to a pure
            Lyapunov solve.
        w_state: symmetric state weight W, identity when omitted.
        gain_scale: positive scalar g on the quadratic term.

    Returns:
        Symmetric P >= 0 whose closed loop A - g BB'P is Hurwitz, with
        residual norm <= 1e-8 * (1 + norm(P)^2).

    Raises:
        SolverError: no stabilizing solution is reachable (unstabilizable
            pair, indefinite data, or iteration cap hit).

    The Schur method (Laub 1979) gives the start, Newton-Kleinman
    (Kleinman 1968) refines it, usually in one step, down to NEWTON_TOL
    or the roundoff floor, and _validate_care checks the contract above.  Where the Hamiltonian has eigenvalues on
    the imaginary axis, roundoff can still give a start, but its closed
    loop fails Newton's Hurwitz check or the contract.
    """
    A = _as_square(A, "A")
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = A.shape[0]
    if B.shape[0] != n:
        raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
    W = np.eye(n) if w_state is None else _as_square(w_state, "w_state")
    if W.shape != A.shape:
        raise ValueError("w_state shape must match A")
    g = float(gain_scale)
    if not (g > 0.0):
        raise ValueError("gain_scale must be positive")
    if n == 0:
        return np.zeros((0, 0))
    P = _newton_care(A, B, W, g, _schur_start(A, B, W, g))
    if P is None:
        raise SolverError("Riccati iteration failed to converge")
    return _validate_care(A, B, W, g, P)


def _validate_care(A, B, W, g, P) -> np.ndarray:
    R = A.T @ P + P @ A - g * (P @ B) @ (B.T @ P) + W
    residual, p_norm = np.linalg.svd(np.stack((R, P)), compute_uv=False)[:, 0]
    if residual > 1e-8 * (1.0 + p_norm**2):
        raise SolverError(f"Riccati residual {residual:.3e} exceeds tolerance")
    if min_eigenvalue_sym(P) < -1e-10 * (1.0 + p_norm):
        raise SolverError("Riccati solution is not positive semidefinite")
    if not eigenvalues(A - g * (B @ (B.T @ P))).is_hurwitz:
        raise SolverError("Riccati solution does not stabilize the closed loop")
    return P


def solve_dual_care_shifted(A, C, eta: float) -> np.ndarray:
    """Observer-side Riccati solve  A'Q + QA - Q C'C Q + eta I = 0.

    Same route as solve_care with the output map C' standing in
    for the input matrix and the shift eta scaling the constant term.
    eta must be positive; smaller eta shrinks Q roughly linearly.
    """
    A = _as_square(A, "A")
    C2 = np.atleast_2d(np.asarray(C, dtype=float))
    if C2.shape[1] != A.shape[0]:
        raise ValueError(f"C has {C2.shape[1]} columns, expected {A.shape[0]}")
    if not (float(eta) > 0.0):
        raise ValueError("eta must be positive")
    return solve_care(A, C2.T, w_state=float(eta) * np.eye(A.shape[0]), gain_scale=1.0)
