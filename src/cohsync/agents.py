"""Agent model container, structural checks, and the output-splitting transform.

The protocol designs downstream need to know whether a model is
stabilizable, detectable, minimum-phase, and so on, and the
noncollaborative one additionally needs coordinates in which the input
enters only the measured substate.  Everything here is rank analysis on
small dense matrices; the only nontrivial numerics is the invariant-zero
computation, which runs two independent routes (generalized eigenvalues
of the Rosenbrock pencil, and rank-drop filtering of squared-down
candidates) so that squaring-down artifacts cannot leak into the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import SolverError, eigenvalues, solve_care

__all__ = [
    "AgentModel",
    "AssumptionReport",
    "OutputTransform",
    "check_assumptions",
    "require_conditions",
    "build_output_transform",
    "design_observer_gain",
    "invariant_zeros",
]

# Singular values below this fraction of the largest are treated as zero.
RANK_RTOL = 1e-9
# A squared-down candidate is a genuine zero only if the original pencil
# loses rank at it; artifacts sit far from rank deficiency.
ZERO_DROP_RTOL = 1e-7


class AgentModel:
    """Identical-agent dynamics dx = Ax + Bu + Ew, y = Cx."""

    def __init__(self, A, B, C, E=None):
        self.A = np.array(A, dtype=float)
        self.B = np.array(B, dtype=float)
        self.C = np.array(C, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        n = self.A.shape[0]
        if self.B.ndim == 1:
            self.B = self.B.reshape(-1, 1)
        if self.C.ndim == 1:
            self.C = self.C.reshape(1, -1)
        if self.B.shape[0] != n:
            raise ValueError("B row count must match A")
        if self.C.shape[1] != n:
            raise ValueError("C column count must match A")
        if E is None:
            self.E = np.zeros((n, 0))
        else:
            self.E = np.array(E, dtype=float)
            if self.E.ndim == 1:
                self.E = self.E.reshape(-1, 1)
            if self.E.shape[0] != n:
                raise ValueError("E row count must match A")
        for name, M in (("A", self.A), ("B", self.B), ("C", self.C), ("E", self.E)):
            if M.size and not np.all(np.isfinite(M)):
                raise ValueError(f"{name} contains non-finite entries")
        if self.m and np.linalg.matrix_rank(self.B) < self.m:
            raise ValueError("B must have full column rank")
        if self.p and np.linalg.matrix_rank(self.C) < self.p:
            raise ValueError("C must have full row rank")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def w(self) -> int:
        return self.E.shape[1]


@dataclass
class AssumptionReport:
    """Structural flags of a model; uniform_rank is None when undecidable."""

    stabilizable: bool
    detectable: bool
    observable: bool
    image_E_in_image_B: bool
    relative_degree_one: bool
    left_invertible: bool
    right_invertible: bool
    minimum_phase: bool
    uniform_rank: bool | None
    invariant_zeros: np.ndarray


def _rank(M) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s / s[0] > RANK_RTOL))


def _pencil(A, B, C, s):
    n, m = B.shape
    p = C.shape[0]
    top = np.hstack([A - s * np.eye(n), B])
    bot = np.hstack([C, np.zeros((p, m))])
    return np.vstack([top, bot])


def _pencil_normal_rank(A, B, C) -> int:
    # the rank function s -> rank(pencil(s)) attains its max off a finite
    # set, so a few scattered complex probes suffice
    rng = np.random.default_rng(190481)
    probes = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return max(_rank(_pencil(A, B, C, s)) for s in probes)


def _sorted_complex(vals) -> np.ndarray:
    vals = np.asarray(vals, dtype=complex)
    if vals.size == 0:
        return vals
    order = np.lexsort((vals.imag.round(9), vals.real.round(9)))
    return vals[order]


def _square_pencil_zeros(A, B, C) -> np.ndarray:
    n, m = B.shape
    M = np.block([[A, B], [C, np.zeros((C.shape[0], m))]])
    N = np.diag(np.concatenate([np.ones(n), np.zeros(m)]))
    alpha, beta = scipy.linalg.eig(M, N, right=False, homogeneous_eigvals=True)
    # an eigenvalue is finite only when beta is solidly away from zero;
    # plain isfinite() lets roundoff turn infinite ones into huge numbers
    beta_mag = np.abs(beta)
    top = float(np.max(beta_mag)) if beta_mag.size else 0.0
    finite = beta_mag > 1e-9 * top if top > 0.0 else np.zeros(beta_mag.shape, dtype=bool)
    return alpha[finite] / beta[finite]


def invariant_zeros(A, B, C, normal_rank=None) -> np.ndarray:
    """Finite invariant zeros of (A, B, C), sorted by real then imaginary part.

    Square systems go straight through the generalized eigenvalue problem
    of the Rosenbrock pencil.  Non-square systems are squared down with a
    fixed seeded selection matrix to produce candidates, and a candidate
    survives only if the original rectangular pencil actually drops rank
    there.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n, m = B.shape
    p = C.shape[0]
    if m == p:
        return _sorted_complex(_square_pencil_zeros(A, B, C))
    if normal_rank is None:
        normal_rank = _pencil_normal_rank(A, B, C)
    rng = np.random.default_rng(771204)
    if p > m:
        candidates = _square_pencil_zeros(A, B, rng.standard_normal((m, p)) @ C)
    else:
        candidates = _square_pencil_zeros(A, B @ rng.standard_normal((m, p)), C)
    kept = []
    for z in candidates:
        s = np.linalg.svd(_pencil(A, B, C, z), compute_uv=False)
        if s[0] == 0.0 or np.sum(s / s[0] > ZERO_DROP_RTOL) < normal_rank:
            kept.append(z)
    return _sorted_complex(kept)


def _uniform_rank(model: AgentModel) -> bool | None:
    A, B, C = model.A, model.B, model.C
    scale = max(1.0, float(np.linalg.norm(C) * np.linalg.norm(B)))
    X = B
    for r in range(1, model.n + 1):
        markov = C @ X
        if float(np.max(np.abs(markov))) > 1e-9 * scale:
            if model.m == model.p:
                s = np.linalg.svd(markov, compute_uv=False)
                return bool(s[-1] > RANK_RTOL * s[0])
            if r == 1 and _rank(markov) == model.m:
                return True
            return None
        X = A @ X
        scale = max(scale, float(np.linalg.norm(C) * np.linalg.norm(X)))
    return None


def check_assumptions(model: AgentModel) -> AssumptionReport:
    """Evaluate every structural flag the two protocol designs depend on."""
    A, B, C, E = model.A, model.B, model.C, model.E
    n, m, p = model.n, model.m, model.p
    eye = np.eye(n)
    eigs = np.linalg.eigvals(A)

    def hautus_input(lam):
        return _rank(np.hstack([A - lam * eye, B])) == n

    def hautus_output(lam):
        return _rank(np.vstack([A - lam * eye, C])) == n

    closed_right = [lam for lam in eigs if lam.real >= -1e-9]
    stabilizable = all(hautus_input(lam) for lam in closed_right)
    detectable = all(hautus_output(lam) for lam in closed_right)
    observable = all(hautus_output(lam) for lam in eigs)

    if model.w == 0:
        image_ok = True
    else:
        coeff, *_ = np.linalg.lstsq(B, E, rcond=None)
        residual = float(np.linalg.norm(B @ coeff - E))
        image_ok = residual < 1e-10 * (1.0 + float(np.linalg.norm(E)))

    relative_degree_one = _rank(C @ B) == m

    normal_rank = _pencil_normal_rank(A, B, C)
    left_invertible = normal_rank == n + m
    right_invertible = normal_rank == n + p
    zeros = invariant_zeros(A, B, C, normal_rank)
    minimum_phase = bool(np.all(zeros.real < 0.0)) if zeros.size else True

    return AssumptionReport(
        stabilizable=stabilizable,
        detectable=detectable,
        observable=observable,
        image_E_in_image_B=image_ok,
        relative_degree_one=relative_degree_one,
        left_invertible=left_invertible,
        right_invertible=right_invertible,
        minimum_phase=minimum_phase,
        uniform_rank=_uniform_rank(model),
        invariant_zeros=zeros,
    )


def require_conditions(model: AgentModel, design) -> AssumptionReport:
    """check_assumptions(model), once the model meets every condition the
    design class declares in design.requires, pairs (report flag, label).

    Raises SolverError naming design.protocol and every failing label.
    """
    report = check_assumptions(model)
    failed = [label for attr, label in design.requires if not getattr(report, attr)]
    if failed:
        raise SolverError(
            f"model does not admit the {design.protocol} protocol; failing conditions: " + ", ".join(failed)
        )
    return report


def check_level(delta, d_override) -> None:
    """The level arguments both designs take: delta, the dead-zone level d
    (d_override), or both.  Whichever decides the design must be positive:
    delta when given, else d; with both, each design judges d against delta.

    Raises ValueError naming what is missing or not positive.
    """
    if delta is None:
        if d_override is None:
            raise ValueError("provide delta, d_override, or both")
        if not d_override > 0.0:
            raise ValueError("dead-zone level d must be positive")
    elif not delta > 0.0:
        raise ValueError("delta must be positive")


@dataclass
class OutputTransform:
    """Coordinates in which the input drives only the measured substate.

    S acts on states, T on outputs: with (x1, x2) = Sx the input matrix
    becomes [0; B2], and with (y1, y2) = Ty the output map becomes
    y1 = C1 x1, y2 = x2.  E2 is the transformed disturbance channel and is
    None when the disturbance does not enter through the input subspace.
    """

    S: np.ndarray
    T: np.ndarray
    S_inv: np.ndarray
    n1: int
    m: int
    A11: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    E2: np.ndarray | None

    @property
    def A_tilde(self) -> np.ndarray:
        return np.block([[self.A11, self.A12], [self.A21, self.A22]])

    @property
    def B_tilde(self) -> np.ndarray:
        return np.vstack([np.zeros((self.n1, self.m)), self.B2])


def _structure_residuals(model, S, S_inv, T, n1):
    m = model.m
    SB = S @ model.B
    Cbar = T @ model.C @ S_inv
    res = max(
        float(np.max(np.abs(SB[:n1, :]))) if n1 else 0.0,
        float(np.max(np.abs(Cbar[: model.p - m, n1:]))) if model.p > m else 0.0,
        float(np.max(np.abs(Cbar[model.p - m :, :n1]))) if n1 else 0.0,
        float(np.max(np.abs(Cbar[model.p - m :, n1:] - np.eye(m)))),
    )
    return res, SB, Cbar


def build_output_transform(model: AgentModel, s_override=None, t_override=None) -> OutputTransform:
    """Construct (or validate) the state/output change of basis.

    Without overrides, S stacks an orthonormal basis of the left null
    space of B over an orthonormal basis of its column space, then mixes
    the measured coordinate so the output splitting decouples; T follows
    from the pseudo-inverse of the transformed CB column.  Overrides are
    validated against the same structural tolerances (1e-10) instead of
    being trusted.
    """
    A, B, C = model.A, model.B, model.C
    n, m, p = model.n, model.m, model.p
    if m > p:
        raise ValueError("transform requires no more inputs than outputs")
    n1 = n - m

    if _rank(C @ B) != m:
        raise SolverError("transform requires relative degree one (CB full column rank)")

    if s_override is not None:
        S = np.array(s_override, dtype=float)
        if S.shape != (n, n):
            raise ValueError("S override has wrong shape")
        S_inv = np.linalg.inv(S)
        SB = S @ B
        B2 = SB[n1:, :]
        if n1 and float(np.max(np.abs(SB[:n1, :]))) > 1e-10 * (1.0 + float(np.max(np.abs(B)))):
            raise ValueError("S override does not annihilate B in the upper block")
        if _rank(B2) != m:
            raise ValueError("S override gives a singular B2 block")
    else:
        # orthonormal completion: rows 1..n-m kill B, the last m recover it
        U = np.linalg.svd(B, full_matrices=True)[0]
        null_rows = U[:, m:].T
        range_rows = U[:, :m].T
        S = np.vstack([null_rows, range_rows])
        S_inv = np.linalg.inv(S)
        Cbar = C @ S_inv
        C2 = Cbar[:, n1:]
        C2_pinv = np.linalg.pinv(C2)
        mix = C2_pinv @ Cbar[:, :n1]
        # shear the measured coordinate so y2 depends on x2 alone
        G = np.eye(n)
        G[n1:, :n1] = mix
        S = G @ S
        S_inv = np.linalg.inv(S)

    Cbar = C @ S_inv
    C2 = Cbar[:, n1:]
    C2_pinv = np.linalg.pinv(C2)
    cross = C2_pinv @ Cbar[:, :n1]
    if n1 and float(np.max(np.abs(cross))) > 1e-10 * (1.0 + float(np.max(np.abs(C)))):
        raise ValueError("state transform does not decouple the measured output block")

    if t_override is not None:
        T = np.array(t_override, dtype=float)
        if T.shape != (p, p):
            raise ValueError("T override has wrong shape")
    else:
        if p > m:
            # rows orthogonal to the measured output directions
            W = scipy.linalg.null_space(C2.T).T
            T = np.vstack([W, C2_pinv])
        else:
            T = C2_pinv

    res, SB, Cbar_T = _structure_residuals(model, S, S_inv, T, n1)
    if res > 1e-10 * (1.0 + float(np.max(np.abs(C))) + float(np.max(np.abs(B)))):
        raise ValueError(f"transform structure residual {res:.3e} exceeds tolerance")

    A_t = S @ A @ S_inv
    A11, A12 = A_t[:n1, :n1], A_t[:n1, n1:]
    A21, A22 = A_t[n1:, :n1], A_t[n1:, n1:]
    C1 = Cbar_T[: p - m, :n1]
    B2 = SB[n1:, :]

    # (C1, A11) detectability is what makes the partial-state observer work
    for lam in np.linalg.eigvals(A11) if n1 else []:
        if lam.real >= -1e-9:
            stacked = np.vstack([A11 - lam * np.eye(n1), C1])
            if _rank(stacked) < n1:
                raise SolverError("(C1, A11) is not detectable for this model")

    E2 = None
    if model.w:
        SE = S @ model.E
        if n1 == 0 or float(np.max(np.abs(SE[:n1, :]))) <= 1e-10 * (1.0 + float(np.max(np.abs(model.E)))):
            E2 = SE[n1:, :]

    return OutputTransform(
        S=S,
        T=T,
        S_inv=S_inv,
        n1=n1,
        m=m,
        A11=A11,
        A12=A12,
        A21=A21,
        A22=A22,
        B2=B2,
        C1=C1,
        E2=E2,
    )


def design_observer_gain(a11, c1) -> np.ndarray:
    """Riccati-based injection H1 making A11 + H1 C1 Hurwitz.

    Solves A11 Y + Y A11' - Y C1'C1 Y + I = 0 and returns H1 = -Y C1'.
    With an empty C1 (as many outputs as inputs) this degrades to
    requiring A11 itself Hurwitz and returns a zero-width gain.
    """
    a11 = np.atleast_2d(np.asarray(a11, dtype=float))
    c1 = np.asarray(c1, dtype=float)
    if c1.ndim == 1:
        c1 = c1.reshape(1, -1)
    n1 = a11.shape[0]
    if c1.shape[1] != n1:
        raise ValueError("C1 column count must match A11")
    try:
        Y = solve_care(a11.T, c1.T)
    except SolverError as exc:
        raise SolverError(f"observer design failed, (C1, A11) likely undetectable: {exc}") from exc
    H1 = -Y @ c1.T
    if not eigenvalues(a11 + H1 @ c1).is_hurwitz:
        raise SolverError("observer gain failed to stabilize A11 + H1 C1")
    return H1
