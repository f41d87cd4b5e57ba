"""Dense linear-algebra kernels for controller and observer synthesis.

The models this package targets have a handful of states, so every solver
here is dense and direct.  Lyapunov equations are solved by Bartels-Stewart:
one real Schur form of A and a triangular Sylvester solve (LAPACK trsyl),
O(n^3).  A Riccati solve starts from the Schur-method solution (one ordered
real Schur form of the Hamiltonian) and takes Newton-Kleinman steps on top
of it, usually one Lyapunov solve.  Every solve checks its residual before
it returns.

Both solvers work on stacks: solve_lyapunov on a stack of (A, W) pairs,
solve_care on a family of equations that share (A, B, W) and differ in the
gain scale g, such as the P_alpha cells of the collaborative protocol.  One
matrix is a stack of one, and there is no other code path.  LAPACK's Schur
form (dgees, called directly) and trsyl run member by member; every
product, solve, SVD and eigenvalue call runs once for the whole stack,
where numpy makes for each member the call it makes for that matrix alone.
So each member of a Riccati family gets the bits of its solve alone, or
the error that solve raises; a Lyapunov stack fails as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "SpectrumReport",
    "SolverError",
    "GainScaleOverflow",
    "eigenvalues",
    "operator_norm_2",
    "min_eigenvalue_sym",
    "solve_lyapunov",
    "solve_care",
    "solve_dual_care_shifted",
    "SlotProduct",
]

# Newton stops when successive iterates agree to NEWTON_TOL in max norm,
# relative to the iterate scale, or when a step fails to shrink a gap below
# NEWTON_FLOOR, where roundoff of ill-scaled problems keeps it; it gives up
# after the cap.
NEWTON_TOL = 1e-12
NEWTON_FLOOR = 1e-8
NEWTON_MAX_ITER = 200

# SlotProduct's call multiplies this many rows at a time.
_SLOT_CHUNK = 4096


class SolverError(RuntimeError):
    """An iterative solve failed to produce a valid solution."""


class GainScaleOverflow(SolverError):
    """A Riccati gain scale so large that the solve's products leave
    double precision."""


def _overflow(g: float) -> GainScaleOverflow:
    return GainScaleOverflow(f"the gain scale {g:.6g} is too large for the equation to be solved in double precision")


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a square matrix plus a stability verdict."""

    eigenvalues: np.ndarray
    max_real_part: float
    is_hurwitz: bool


class SlotProduct:
    """X @ M for rows X, each entry a sum from +0 over the nonzeros of its
    column of M, one term after another in row order, with no BLAS call.

    Column j's nonzeros are held by slot: M[idx[j, s], j] = val[j, s] for
    s < count[j], padded to the widest column with zero weights on row 0,
    which add nothing to a finite sum.  So a row's bits depend on that row
    alone, on neither the batch size nor the BLAS kernel, and its zero
    terms (which a sum from +0 does not change) are never formed.
    """

    def __init__(self, M: np.ndarray):
        M = np.asarray(M, dtype=float)
        mask = M.T != 0.0
        width = max(1, int(mask.sum(axis=1).max(initial=0)))
        # Each column's nonzero rows first, in row order, then the padding.
        order = np.argsort(~mask, axis=1, kind="stable")[:, :width]
        nonzero = np.take_along_axis(mask, order, axis=1)
        self.idx = np.where(nonzero, order, 0)
        self.val = np.where(nonzero, np.take_along_axis(M.T, order, axis=1), 0.0)
        self.count = mask.sum(axis=1, dtype=np.int64)
        self.shape = M.shape

    def bind(self, XT: np.ndarray, YT: np.ndarray):
        """A function writing (X M)' into YT for whatever XT = X' then
        holds, agents along the fast axis: one gather into (slots, columns,
        agents) terms, one multiply by the weights laid out alike and one
        reduction over the slots, which adds whole (columns, agents) blocks
        one after another.  Give it at least two agent columns: numpy sums
        a lone contiguous axis pairwise."""
        idx = np.ascontiguousarray(self.idx.T)
        terms = np.empty(idx.shape + XT.shape[1:])
        # Weights of the terms' own layout make the multiply one contiguous
        # loop; numpy runs a broadcast one agent row at a time.
        val = np.ascontiguousarray(np.broadcast_to(self.val.T[:, :, None], terms.shape))

        def product():
            XT.take(idx, axis=0, out=terms, mode="clip")  # "raise" would buffer out
            np.multiply(terms, val, out=terms)
            np.add.reduce(terms, axis=0, initial=0.0, out=YT)

        return product

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """X @ M, _SLOT_CHUNK rows at a time."""
        X = np.asarray(X, dtype=float)
        chunk = _SLOT_CHUNK
        span = max(2, min(chunk, X.shape[0]))
        XT, YT = np.zeros((self.shape[0], span)), np.empty((self.shape[1], span))
        product = self.bind(XT, YT)
        out = np.empty((X.shape[0], self.shape[1]))
        for lo in range(0, X.shape[0], chunk):
            rows = X[lo : lo + chunk]
            XT[:, : rows.shape[0]] = rows.T
            XT[:, rows.shape[0] :] = 0.0
            product()
            out[lo : lo + rows.shape[0]] = YT[:, : rows.shape[0]].T
        return out


def _as_square(M, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """M as a float square matrix, or with stack also a stack (k, n, n)."""
    M = np.asarray(M, dtype=float)
    if M.ndim not in ((2, 3) if stack else (2,)) or M.shape[-1] != M.shape[-2]:
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


def _unsorted(wr, wi=None):
    return None


def _lhp(wr, wi=None):
    return wr < 0.0


# LAPACK picks blocked or unblocked code by the workspace it is given, so
# dgees gets the size scipy.linalg.schur asks for: the optimal workspace of
# an unsorted query, made once per order here.  dgees is bound at import.
_dgees = lapack.dgees
_dgees_lwork: dict[int, int] = {}


def _schur(M, sort: bool):
    """Real Schur form (T, Z, sdim) of a square matrix, with the
    eigenvalues of negative real part first when sort: bitwise what
    scipy.linalg.schur(M, output="real", sort="lhp" or None,
    check_finite=False) returns, and its errors, without its checks."""
    n = M.shape[0]
    lwork = _dgees_lwork.get(n)
    if lwork is None:
        lwork = _dgees_lwork[n] = int(_dgees(_unsorted, M, lwork=-1)[-2][0])
    T, sdim, _, _, Z, _, info = _dgees(_lhp if sort else _unsorted, M, lwork=lwork, sort_t=int(sort))
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info == n + 1:
        raise np.linalg.LinAlgError("Eigenvalues could not be separated for reordering.")
    if info == n + 2:
        raise np.linalg.LinAlgError("Leading eigenvalues do not satisfy sort condition.")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return T, Z, sdim


def _mT(M: np.ndarray) -> np.ndarray:
    """The transpose of each member of a stack."""
    return M.transpose(0, 2, 1)


def solve_lyapunov(A, W) -> np.ndarray:
    """Solve A' X + X A + W = 0 for symmetric X, with A Hurwitz.

    Args:
        A: square Hurwitz matrix, or a stack (k, n, n) of them.
        W: symmetric matrix of matching shape, or a stack of them.

    Returns:
        Symmetric X, a stack for stacks, with residual
        norm(A'X + XA + W) <= 1e-10 * (1 + norm(W)).

    Raises:
        SolverError: a member's A is not Hurwitz or its residual is too
            large; a stack fails as a whole.

    Bartels-Stewart: with the real Schur form A = Z T Z', the equation
    becomes T'Y + YT = -Z'WZ, which trsyl solves by back substitution over
    the quasi-triangular T; then X = Z Y Z'.  The Hurwitz verdict, by
    _is_hurwitz as in eigenvalues, is read from the diagonal of T, whose
    standardized 2x2 blocks carry the real part of their complex pair on
    the diagonal.  The result is symmetrized to scrub roundoff drift before
    the residual check.

    One matrix is a stack of one.  The Schur forms and trsyl run member by
    member; every product and the residual's SVD run as one stacked call,
    for which numpy makes, member by member, the BLAS or LAPACK call it
    makes for one matrix of the same layout.  Z and Y keep the
    column-major members LAPACK returns, so each member's X is bitwise its
    solve alone.
    """
    A = _as_square(A, "A", stack=True)
    W = _as_square(W, "W", stack=True)
    if A.shape != W.shape:
        raise ValueError(f"shape mismatch: A is {A.shape}, W is {W.shape}")
    n = A.shape[-1]
    if n == 0:
        return np.zeros(A.shape)
    shape = A.shape
    A, W = A.reshape(-1, n, n), W.reshape(-1, n, n)
    w_scale = np.maximum(1.0, np.abs(W).max(axis=(1, 2)))
    if np.any(np.abs(W - _mT(W)).max(axis=(1, 2)) > 1e-10 * w_scale):
        raise ValueError("W must be symmetric")
    # _as_square has rejected non-finite entries already.
    T, Z, Y = [], _mT(np.empty(A.shape)), _mT(np.empty(A.shape))
    for i, M in enumerate(A):
        Ti, Z[i], _ = _schur(M, sort=False)
        max_re = float(np.max(np.diag(Ti)))
        if not _is_hurwitz(M, max_re):
            raise SolverError(f"Lyapunov solve needs a Hurwitz matrix; max Re(lambda) = {max_re:.6g}")
        T.append(Ti)
    for i, (Ti, C) in enumerate(zip(T, -(_mT(Z) @ W @ Z))):
        Yi, scale, info = lapack.dtrsyl(Ti, Ti, C, trana="T")
        if info < 0:
            raise SolverError(f"trsyl rejected argument {-info}")
        # info == 1 (eigenvalues nearly opposite, perturbed solve) is left to
        # the residual check.
        Y[i] = Yi / scale
    X = Z @ Y @ _mT(Z)
    X = 0.5 * (X + _mT(X))
    norms = np.linalg.svd(np.stack((_mT(A) @ X + X @ A + W, W), axis=1), compute_uv=False)[..., 0]
    for residual, w_norm in norms:
        if residual > 1e-10 * (1.0 + w_norm):
            raise SolverError(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return X.reshape(shape)


def _newton_care(A, B, W, g, P0) -> list:
    """Newton-Kleinman iteration from stabilizing starts, one member per
    gain scale of g, as one stack.  Each member keeps its own last gap and
    leaves the stack when its own stopping rule holds.

    Returns each member's converged solution, or its error: SolverError if
    the iteration hits its cap or an inner Lyapunov solve refuses its
    closed loop, or whatever else that solve alone raises.
    """
    out: list = [SolverError("Riccati iteration failed to converge") for _ in g]
    live = np.arange(g.size)
    last_gap = np.full(g.size, np.inf)
    P = 0.5 * (P0 + _mT(P0))
    for _ in range(NEWTON_MAX_ITER):
        gl = g[live, None, None]
        K = gl * (B.T @ P)
        A_cl = A - B @ K
        rhs = W + (_mT(K) @ K) / gl
        rhs = 0.5 * (rhs + _mT(rhs))
        ok = np.ones(live.size, dtype=bool)
        try:
            P_next = solve_lyapunov(A_cl, rhs)
        except (SolverError, ValueError, np.linalg.LinAlgError):
            # The stack failed as a whole; each member alone tells which fail.
            P_next = np.zeros_like(P)
            for i, j in enumerate(live.tolist()):
                try:
                    P_next[i] = solve_lyapunov(A_cl[i], rhs[i])
                except SolverError:
                    ok[i] = False
                except (ValueError, np.linalg.LinAlgError) as exc:
                    ok[i], out[j] = False, exc
                    if not (np.isfinite(A_cl[i]).all() and np.isfinite(rhs[i]).all()):
                        out[j] = _overflow(g[j])
        gap = np.abs(P_next - P).max(axis=(1, 2)) / np.fmax(1.0, np.abs(P_next).max(axis=(1, 2)))
        done = ok & ((gap < NEWTON_TOL) | ((last_gap[live] <= gap) & (gap < NEWTON_FLOOR)))
        for i in np.flatnonzero(done).tolist():
            out[live[i]] = P_next[i]
        last_gap[live] = gap
        keep = ok & ~done
        live, P = live[keep], P_next[keep]
        if not live.size:
            break
    return out


def _schur_start(A, B, W, g) -> list:
    """Each member's Schur-method solution U21 U11^-1, or its SolverError
    (or the error of its Schur form): the first n Schur vectors [U11; U21]
    of the Hamiltonian [[A, -g BB'], [-W, -A']], ordered with its stable
    eigenvalues first, span its stable invariant subspace."""
    n = A.shape[0]
    H = np.empty((g.size, 2 * n, 2 * n))
    H[:, :n, :n] = A
    H[:, :n, n:] = -g[:, None, None] * (B @ B.T)
    H[:, n:, :n] = -W
    H[:, n:, n:] = -A.T
    out: list = []
    U = []
    for gi, Hi in zip(g.tolist(), H):
        if not np.isfinite(Hi).all():
            out.append(_overflow(gi))
            continue
        try:
            _, Ui, sdim = _schur(Hi, sort=True)
        except (ValueError, np.linalg.LinAlgError) as exc:
            out.append(exc)
            continue
        if sdim != n:
            out.append(SolverError(f"the Hamiltonian has {sdim} stable eigenvalues, not {n}: no stabilizing solution"))
            continue
        out.append(None)
        U.append(Ui)
    if not U:
        return out
    # P0 U11 = U21, solved as U11' P0' = U21'.
    U = np.stack(U)
    U11t, U21t = _mT(U[:, :n, :n]), _mT(U[:, n:, :n])
    try:
        P0 = np.linalg.solve(U11t, U21t)
    except np.linalg.LinAlgError:
        # numpy refuses the whole stack when one member is singular: solve
        # each member alone, a singular one as NaN.
        P0 = np.stack([_solve_or_nan(a, b) for a, b in zip(U11t, U21t)])
    started = (i for i, o in enumerate(out) if o is None)
    for i, P in zip(started, _mT(P0)):
        # An inf or NaN start would reach solve_lyapunov as a ValueError.
        ok = np.all(np.isfinite(P))
        out[i] = P if ok else SolverError("U11 of the Hamiltonian's stable subspace is singular: no stabilizing solution")
    return out


def _solve_or_nan(a, b) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.full(b.shape, np.nan)


def solve_care(A, B, w_state=None, gain_scale=1.0):
    """Stabilizing solution of  A'P + PA - g PBB'P + W = 0.

    Args:
        A: state matrix, n x n.
        B: input matrix, n x m; m = 0 degrades gracefully to a pure
            Lyapunov solve.
        w_state: symmetric state weight W, identity when omitted.
        gain_scale: positive scalar g on the quadratic term, or a 1-D
            sequence of them: a family of equations sharing (A, B, W),
            solved as one stack.

    Returns:
        For a scalar g, the symmetric P >= 0 whose closed loop A - g BB'P
        is Hurwitz, with residual norm <= 1e-8 * (1 + norm(P)^2).  For a
        sequence, a list with, for each g in order, that P or the exception
        its solve alone raises; each is bitwise that of the solve alone.

    Raises:
        SolverError: no stabilizing solution is reachable (unstabilizable
            pair, indefinite data, or iteration cap hit).
        GainScaleOverflow: a SolverError for a g so large that the
            Hamiltonian or a Newton step leaves double precision.

    The Schur method (Laub 1979) gives the start, Newton-Kleinman
    (Kleinman 1968) refines it, usually in one step, down to NEWTON_TOL
    or the roundoff floor, and _validate_care checks the contract above.
    Where the Hamiltonian has eigenvalues on the imaginary axis, roundoff
    can still give a start, but its closed loop fails Newton's Hurwitz
    check or the contract.  Each stage works on the members that have not
    failed yet, as one stack.
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
    g = np.asarray(gain_scale, dtype=float)
    if g.ndim > 1:
        raise ValueError("gain_scale must be a scalar or a 1-D sequence")
    gs = g.reshape(-1)
    at = [i for i, x in enumerate(gs.tolist()) if x > 0.0]
    out: list = [ValueError("gain_scale must be positive") for _ in gs]
    for i in at:
        out[i] = np.zeros((0, 0))  # the solution when n = 0
    if n:
        for i, P in zip(at, _schur_start(A, B, W, gs[at])):
            out[i] = P
        for stage in (_newton_care, _validate_care):
            at = [i for i, P in enumerate(out) if isinstance(P, np.ndarray)]
            if at:
                for i, P in zip(at, stage(A, B, W, gs[at], np.stack([out[i] for i in at]))):
                    out[i] = P
    if g.ndim:
        return out
    if isinstance(out[0], Exception):
        raise out[0]
    return out[0]


def _validate_care(A, B, W, g, P) -> list:
    """Each member's P, or the SolverError of the first check of the
    contract it fails.  P is exactly symmetric (solve_lyapunov makes it
    so), as min_eigenvalue_sym would require."""
    gl = g[:, None, None]
    try:
        R = A.T @ P + P @ A - gl * (P @ B) @ (B.T @ P) + W
        norms = np.linalg.svd(np.stack((R, P), axis=1), compute_uv=False)[..., 0]
        low = np.linalg.eigvalsh(0.5 * (P + _mT(P)))[:, 0]
        M = A - gl * (B @ (B.T @ P))
        max_re = np.linalg.eigvals(M).real.max(axis=1)
    except np.linalg.LinAlgError as exc:
        # numpy refuses the whole stack for one member: each member alone.
        if g.size == 1:
            return [exc]
        return [_validate_care(A, B, W, g[i : i + 1], P[i : i + 1])[0] for i in range(g.size)]
    out: list = []
    for Pi, Mi, (residual, p_norm), low_i, re in zip(P, M, norms, low, max_re.tolist()):
        if residual > 1e-8 * (1.0 + p_norm**2):
            out.append(SolverError(f"Riccati residual {residual:.3e} exceeds tolerance"))
        elif low_i < -1e-10 * (1.0 + p_norm):
            out.append(SolverError("Riccati solution is not positive semidefinite"))
        elif not _is_hurwitz(Mi, re):
            out.append(SolverError("Riccati solution does not stabilize the closed loop"))
        else:
            out.append(Pi)
    return out


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
