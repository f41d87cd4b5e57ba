"""Dense linear-algebra kernels for controller and observer synthesis.

The models this package targets have a handful of states, so every solver
here is dense and direct: Lyapunov equations are vectorized with Kronecker
products and solved as one linear system, and Riccati equations are solved
by Newton iteration on top of that.  No factorization tricks, no sparse
paths; small, auditable, and exact to roundoff at these sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

# Newton iteration control: stop when successive iterates agree to this
# max-norm level (relative to the iterate scale), give up after the cap.
NEWTON_TOL = 1e-12
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


def eigenvalues(M) -> SpectrumReport:
    """Spectrum of a square matrix.

    An empty matrix is vacuously Hurwitz (max real part -inf); this keeps
    degenerate zero-size blocks from the output transform usable.
    """
    M = _as_square(M)
    ev = np.linalg.eigvals(M) if M.size else np.zeros(0, dtype=complex)
    max_re = float(np.max(ev.real)) if ev.size else float("-inf")
    return SpectrumReport(eigenvalues=ev, max_real_part=max_re, is_hurwitz=max_re < 0.0)


def operator_norm_2(M) -> float:
    """Largest singular value; zero for empty matrices."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


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

    The Kronecker-vectorized operator (I kron A' + A' kron I) is built
    densely and solved in one shot; the result is symmetrized to scrub
    roundoff drift before the residual check.
    """
    A = _as_square(A, "A")
    W = _as_square(W, "W")
    if A.shape != W.shape:
        raise ValueError(f"shape mismatch: A is {A.shape}, W is {W.shape}")
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    w_scale = max(1.0, float(np.max(np.abs(W))))
    if float(np.max(np.abs(W - W.T))) > 1e-10 * w_scale:
        raise ValueError("W must be symmetric")
    spec = eigenvalues(A)
    if not spec.is_hurwitz:
        raise SolverError(
            f"Lyapunov solve needs a Hurwitz matrix; max Re(lambda) = {spec.max_real_part:.6g}"
        )
    eye = np.eye(n)
    op = np.kron(eye, A.T) + np.kron(A.T, eye)
    vec = np.linalg.solve(op, -W.reshape(-1, order="F"))
    X = vec.reshape((n, n), order="F")
    X = 0.5 * (X + X.T)
    residual = operator_norm_2(A.T @ X + X @ A + W)
    if residual > 1e-10 * (1.0 + operator_norm_2(W)):
        raise SolverError(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return X


def _newton_care(A, B, W, g, P0):
    """Newton-Kleinman iteration from a stabilizing start.

    Returns the converged solution, or None if the iteration stalls or an
    inner Lyapunov solve hits a non-Hurwitz closed loop (both mean the
    caller must find a better start).
    """
    P = 0.5 * (P0 + P0.T)
    for _ in range(NEWTON_MAX_ITER):
        K = g * (B.T @ P)
        A_cl = A - B @ K
        rhs = W + (K.T @ K) / g
        rhs = 0.5 * (rhs + rhs.T)
        try:
            P_next = solve_lyapunov(A_cl, rhs)
        except SolverError:
            return None
        gap = float(np.max(np.abs(P_next - P)))
        P = P_next
        if gap < NEWTON_TOL * max(1.0, float(np.max(np.abs(P_next)))):
            return P
    return None


def solve_care(A, B, w_state=None, gain_scale: float = 1.0, initial_p=None) -> np.ndarray:
    """Stabilizing solution of  A'P + PA - g PBB'P + W = 0.

    Args:
        A: state matrix, n x n.
        B: input matrix, n x m; m = 0 degrades gracefully to a pure
            Lyapunov solve.
        w_state: symmetric state weight W, identity when omitted.
        gain_scale: positive scalar g on the quadratic term.
        initial_p: optional warm start.  Used when the gain it implies
            already stabilizes A (one Newton run, no continuation),
            silently ignored otherwise.

    Returns:
        Symmetric P >= 0 whose closed loop A - g BB'P is Hurwitz, with
        residual norm <= 1e-8 * (1 + norm(P)^2).

    Raises:
        SolverError: no stabilizing solution is reachable (unstabilizable
            pair, indefinite data, or iteration cap hit).

    The initial stabilizing gain is produced internally: shift A by
    sigma*I until Hurwitz, solve, and walk sigma back to zero reusing each
    solution as the next start.  Each step keeps the closed loop Hurwitz
    because the shift shrinks by only half the current stability margin.
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

    if initial_p is not None:
        P0 = np.asarray(initial_p, dtype=float)
        if P0.shape == (n, n):
            P0 = 0.5 * (P0 + P0.T)
            if eigenvalues(A - g * (B @ (B.T @ P0))).is_hurwitz:
                P = _newton_care(A, B, W, g, P0)
                if P is not None:
                    return _validate_care(A, B, W, g, P)

    sigma = max(0.0, eigenvalues(A).max_real_part + 1.0)
    P = np.zeros((n, n))
    for _ in range(NEWTON_MAX_ITER):
        A_s = A - sigma * np.eye(n)
        P_new = _newton_care(A_s, B, W, g, P)
        if P_new is None:
            raise SolverError("Riccati iteration failed to converge")
        P = P_new
        if sigma == 0.0:
            return _validate_care(A, B, W, g, P)
        margin = -eigenvalues(A_s - g * (B @ (B.T @ P))).max_real_part
        if margin <= 0.0:
            raise SolverError("Riccati continuation lost stability")
        sigma = 0.0 if margin > sigma else sigma - 0.5 * margin
    raise SolverError("Riccati shift continuation did not reach sigma = 0")


def _validate_care(A, B, W, g, P) -> np.ndarray:
    p_norm = operator_norm_2(P)
    residual = operator_norm_2(A.T @ P + P @ A - g * (P @ B) @ (B.T @ P) + W)
    if residual > 1e-8 * (1.0 + p_norm**2):
        raise SolverError(f"Riccati residual {residual:.3e} exceeds tolerance")
    if min_eigenvalue_sym(P) < -1e-10 * (1.0 + p_norm):
        raise SolverError("Riccati solution is not positive semidefinite")
    if not eigenvalues(A - g * (B @ (B.T @ P))).is_hurwitz:
        raise SolverError("Riccati solution does not stabilize the closed loop")
    return P


def solve_dual_care_shifted(A, C, eta: float) -> np.ndarray:
    """Observer-side Riccati solve  A'Q + QA - Q C'C Q + eta I = 0.

    Same Newton machinery as solve_care with the output map C' standing in
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
