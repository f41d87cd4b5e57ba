"""Design and batched runtime law of the collaborative adaptive protocol.

Agents exchange two signals: the usual weighted output disagreement and a
second network sum over neighbour protocol states.  Each agent runs a full
observer driven by the mismatch between the two, plus two adaptive gains.
rho scales the observer injection and grows through a dead zone on the
mismatch energy; alpha selects a feedback gain from a one-parameter family
of Riccati solutions and grows (rate capped at 1) while the exchanged
signal is large.

Solving a Riccati equation at every integration substep would dwarf the
simulation itself, so the alpha family is evaluated on a geometric grid
(ratio 1.05) with lazily cached solutions; the controller holds the
solution at the grid point just below the current alpha.  Off-grid values
remain available exactly through solve_p_alpha for diagnostics and tests.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .agents import AgentModel, check_assumptions
from .linalg import (
    SolverError,
    min_eigenvalue_sym,
    row_product,
    solve_care,
    solve_dual_care_shifted,
)

GRID_RATIO = 1.05

# Halving search for the observer Riccati shift stops after this many trials.
_ETA_TRIALS = 60

_REQUIRED_CONDITIONS = (
    ("stabilizable", "stabilizable"),
    ("observable", "observable"),
    ("right_invertible", "right-invertible"),
    ("minimum_phase", "minimum-phase"),
)


class PAlphaGrid:
    """Geometric grid of solutions P_alpha of the parameterized Riccati family.

    Cell k holds the stabilizing solution of

        A_shifted' P + P A_shifted - alpha_k P B B' P + CtC = 0,

    with alpha_k = ratio**k, which is the shifted form of the family
    A'P + PA - alpha PBB'P + 2 eps P + C'C = 0 for A_shifted = A + eps I.
    Cells are solved on first use, warm-starting Newton from the nearest
    solved neighbour, and inserted atomically (duplicate concurrent solves
    return identical values, so last-write-wins is safe).  The runtime law
    reads the gain rows B'P_k from one contiguous table over the range of
    cells it has needed so far (gain_rows).
    """

    def __init__(self, A_shifted, B, CtC, ratio: float = GRID_RATIO):
        self.A_shifted = np.asarray(A_shifted, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.CtC = np.asarray(CtC, dtype=float)
        if not ratio > 1.0:
            raise ValueError("grid ratio must exceed 1")
        self.ratio = float(ratio)
        self._log_ratio = np.log(self.ratio)
        self._cells: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._table = np.zeros((0,) + self.B.T.shape)
        self._table_lo = 0

    def index_for(self, alpha: float) -> int:
        """Largest k with ratio**k <= alpha (nearest grid point below)."""
        if not alpha > 0.0:
            raise ValueError("alpha must be positive")
        # The nudge keeps exact powers of the ratio in their own cell
        # despite the log round-trip landing a few ulps short.
        return int(np.floor(np.log(alpha) / self._log_ratio + 1e-12))

    def indices_for(self, alphas) -> np.ndarray:
        """Vectorized index_for."""
        alphas = np.asarray(alphas, dtype=float)
        if np.any(alphas <= 0.0):
            raise ValueError("alpha must be positive")
        return np.floor(np.log(alphas) / self._log_ratio + 1e-12).astype(int)

    def alpha_at(self, k: int) -> float:
        return self.ratio**k

    def cached_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self._cells))

    def _nearest_cached(self, k: int) -> int | None:
        if not self._cells:
            return None
        return min(self._cells, key=lambda c: abs(c - k))

    def _ensure(self, k: int, warm=None) -> tuple[np.ndarray, np.ndarray]:
        entry = self._cells.get(k)
        if entry is None:
            P = solve_care(
                self.A_shifted, self.B, w_state=self.CtC, gain_scale=self.alpha_at(k), initial_p=warm
            )
            entry = self._cells.setdefault(k, (P, self.B.T @ P))
        return entry

    def cell(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Solution pair (P_k, B'P_k) for grid cell k, solving on first use.

        Missing cells are filled by walking outward from cell 0, each solve
        warm-started from its inner neighbour.  The walk makes every cached
        value a function of the cell index alone, never of the order in
        which callers asked, which keeps repeated runs bit-identical.
        """
        entry = self._cells.get(k)
        if entry is not None:
            return entry
        entry = self._ensure(0)
        step = 1 if k > 0 else -1
        for j in range(step, k + step, step):
            entry = self._ensure(j, warm=entry[0])
        return entry

    def gain_rows(self, alphas) -> np.ndarray:
        """B'P_k at the cell just below each alpha, one (m, n) block per alpha.

        One gather from the table of cells lo..hi.  The table is rebuilt
        through cell() only when an alpha falls outside it, and then spans
        the old and the new cells; every cell in that span lies between 0
        and a needed cell, so the walks of cell() solve it anyway and the
        cache holds the same cells as with one cell() call per needed cell.
        """
        ks = self.indices_for(alphas) - self._table_lo
        lo, hi = int(ks.min()), int(ks.max())
        if lo < 0 or hi >= self._table.shape[0]:
            if self._table.shape[0]:
                lo, hi = min(lo, 0), max(hi, self._table.shape[0] - 1)
            first = self._table_lo + lo
            self._table = np.stack([self.cell(k)[1] for k in range(first, first + hi - lo + 1)])
            self._table_lo = first
            ks -= lo
        return self._table[ks]

    def solve_exact(self, alpha: float) -> np.ndarray:
        """P_alpha at the requested alpha itself, not the quantized one.

        Grid points are answered from (and stored in) the cache; off-grid
        values are solved fresh with a warm start and never cached.
        """
        k = self.index_for(alpha)
        ak = self.alpha_at(k)
        if abs(alpha - ak) <= 1e-9 * ak:
            return self.cell(k)[0]
        near = self._nearest_cached(k)
        warm = self._cells[near][0] if near is not None else None
        return solve_care(
            self.A_shifted, self.B, w_state=self.CtC, gain_scale=float(alpha), initial_p=warm
        )


def p_alpha_family(A, B, C, epsilon: float) -> PAlphaGrid:
    """Standalone grid for the Riccati family of (A, B, C) with a given shift.

    Accepts epsilon = 0, unlike design_collab which always picks a positive
    shift; the zero-shift family is what the closed-form scalar and chain
    examples describe.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n or C.shape[1] != n:
        raise ValueError("inconsistent state-space dimensions")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    return PAlphaGrid(A + float(epsilon) * np.eye(n), B, C.T @ C)


@dataclass(frozen=True)
class CollabDesign:
    """Frozen output of design_collab.

    Q solves A'Q + QA - QC'CQ + eta I = 0 and shapes the observer
    injection QCt = Q C'.  The dead-zone level d obeys 0 < 4d < delta^2.
    The grid carries the feedback family for A + epsilon I.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    QCt: np.ndarray
    CtC: np.ndarray
    eta: float
    epsilon: float
    d: float
    delta: float
    grid: PAlphaGrid

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p_out(self) -> int:
        return self.C.shape[0]

    @cached_property
    def law_matrix(self) -> np.ndarray:
        """Fused linear block of the runtime law, composed on first use.

        Maps a row [x_hat, L x, L x_hat] to [A x_hat, Q C' e,
        x_hat + zeta_tilde, C zeta_tilde, e], where zeta_tilde = L x_hat is
        the exchanged sum, zeta = C L x the measured disagreement and
        e = C zeta_tilde - zeta the mismatch.
        """
        n, p = self.n, self.p_out
        Ct = self.C.T
        CtCQ = Ct @ self.QCt.T
        I, On, Op = np.eye(n), np.zeros((n, n)), np.zeros((n, p))
        return np.vstack(
            [
                np.hstack([self.A.T, On, I, Op, Op]),
                np.hstack([On, -CtCQ, On, Op, -Ct]),
                np.hstack([On, CtCQ, I, Ct, Ct]),
            ]
        )


def _uncontrollable_margin(A, B) -> float | None:
    """Smallest decay rate among uncontrollable modes; None if controllable."""
    n = A.shape[0]
    margins = []
    for lam in np.linalg.eigvals(A):
        M = np.hstack([A - lam * np.eye(n), B])
        s = np.linalg.svd(M, compute_uv=False)
        if s[n - 1] <= 1e-9 * max(s[0], 1.0):
            margins.append(-lam.real)
    return min(margins) if margins else None


def design_collab(
    model: AgentModel,
    delta: float | None = None,
    d_override: float | None = None,
    eta_override: float | None = None,
) -> CollabDesign:
    """Build the collaborative protocol constants for one agent model.

    The observer Riccati shift eta defaults to the largest value in
    {1, 1/2, 1/4, ...} whose solution is positive definite.  The feedback
    shift epsilon is min(0.1, half the slowest invariant-zero decay, half
    the slowest uncontrollable-mode decay), which keeps the shifted model
    minimum-phase and stabilizable.

    Exactly one of `delta` or `d_override` must be given, or both: with
    only d the level is delta = sqrt(8 d); with both, an override violating
    4 d < delta^2 is discarded in favour of the default d = delta^2 / 8.
    """
    report = check_assumptions(model)
    failed = [label for attr, label in _REQUIRED_CONDITIONS if not getattr(report, attr)]
    if failed:
        raise SolverError(
            "model does not admit the collaborative protocol; failing "
            "conditions: " + ", ".join(failed)
        )
    if report.uniform_rank is None:
        raise SolverError(
            "uniform rank of the model could not be decided numerically; "
            "refusing to design"
        )
    if not report.uniform_rank:
        raise SolverError(
            "model does not have uniform rank; designs requiring a "
            "precompensator are out of scope"
        )
    # solve_dual_care_shifted hands the pair (A, C') to solve_care, which
    # has no stabilizing solution for any eta unless that pair is
    # stabilizable; reject such models before the eta search.
    margin = _uncontrollable_margin(model.A, model.C.T)
    if margin is not None and margin <= 0.0:
        raise SolverError(
            "observer Riccati pair (A, C') is not stabilizable, so no eta admits "
            "a positive definite observer Riccati solution"
        )

    if eta_override is not None:
        if not eta_override > 0.0:
            raise ValueError("eta must be positive")
        Q = solve_dual_care_shifted(model.A, model.C, eta_override)
        if min_eigenvalue_sym(Q) <= 0.0:
            raise SolverError(f"observer Riccati solution not positive definite at eta={eta_override}")
        eta = float(eta_override)
    else:
        eta = None
        trial = 1.0
        for _ in range(_ETA_TRIALS):
            try:
                Q = solve_dual_care_shifted(model.A, model.C, trial)
            except SolverError:
                trial /= 2.0
                continue
            if min_eigenvalue_sym(Q) > 0.0:
                eta = trial
                break
            trial /= 2.0
        if eta is None:
            raise SolverError(
                "no eta in the halving sequence from 1 admits a positive "
                "definite observer Riccati solution"
            )

    candidates = [0.1]
    zeros = report.invariant_zeros
    if zeros.size:
        candidates.append(0.5 * float(np.min(-zeros.real)))
    margin = _uncontrollable_margin(model.A, model.B)
    if margin is not None:
        candidates.append(0.5 * margin)
    epsilon = min(candidates)

    if delta is None:
        if d_override is None:
            raise ValueError("provide delta, d_override, or both")
        if not d_override > 0.0:
            raise ValueError("dead-zone level d must be positive")
        d = float(d_override)
        delta = float(np.sqrt(8.0 * d))
    else:
        if not delta > 0.0:
            raise ValueError("delta must be positive")
        if d_override is not None and 0.0 < 4.0 * d_override < delta**2:
            d = float(d_override)
        else:
            d = delta**2 / 8.0

    CtC = model.C.T @ model.C
    grid = p_alpha_family(model.A, model.B, model.C, epsilon)
    grid.cell(0)  # seed the unit-alpha cell eagerly

    return CollabDesign(
        A=model.A,
        B=model.B,
        C=model.C,
        Q=Q,
        QCt=Q @ model.C.T,
        CtC=CtC,
        eta=eta,
        epsilon=float(epsilon),
        d=d,
        delta=float(delta),
        grid=grid,
    )


def solve_p_alpha(design: CollabDesign, alpha: float) -> np.ndarray:
    """Exact P_alpha for this design; cached when alpha is a grid point."""
    return design.grid.solve_exact(alpha)


def collab_law(design: CollabDesign, PS: np.ndarray, LS: np.ndarray, out: np.ndarray):
    """The protocol's runtime law, evaluated on a batch of agents at once.

    Row i of PS is agent i's protocol state [x_hat, rho, alpha] and row i
    of LS the network sums [L x, L x_hat] over the agents' states and
    observer states: one Laplacian product gives both the measured
    disagreement zeta = C (L x) and the exchanged sum zeta_tilde = L x_hat.
    Everything linear in [x_hat, L x, L x_hat] comes from one product with
    the design's law_matrix.

    The protocol-state derivative is written into out, an array of PS's
    shape, whose column blocks (d x_hat / dt, d rho / dt, d alpha / dt)
    lead the return value (dPS, U, mismatch, exchange), with U the control
    rows.  d x_hat / dt adds B u last to the observer part, so the
    observer loop is bitwise the same for every alpha.
    mismatch = |C zeta_tilde - zeta|^2 drives rho through the dead zone d;
    exchange = |C zeta_tilde|^2 drives alpha at rate min(exchange, 1)
    above d.  Both gains are nondecreasing.  The feedback is
    -alpha B'P_k (x_hat + zeta_tilde) with P_k the P_alpha grid point just
    below alpha; alpha = 0 means no feedback at all.
    """
    n, p = design.n, design.p_out
    if PS.shape != (LS.shape[0], n + 2) or LS.shape[1] != 2 * n:
        raise ValueError(
            f"expected protocol-state and network-sum rows of widths {n + 2} and "
            f"{2 * n}, got {PS.shape} and {LS.shape}"
        )
    grid, d = design.grid, design.d
    RHO = PS[:, n : n + 1]
    AL = PS[:, n + 1]
    F = row_product(np.concatenate((PS[:, :n], LS), axis=1), design.law_matrix)
    V = F[:, 2 * n : 3 * n]
    # The squared norms of C zeta_tilde and e, which sit side by side in F.
    CZ_E = F[:, 3 * n :].reshape(-1, 2, p)
    exchange, mismatch = np.einsum("ijk,ijk->ji", CZ_E, CZ_E)
    U = np.zeros((PS.shape[0], design.m))
    on = AL > 0.0
    if on.any():
        U[on] = -AL[on, None] * np.einsum("imn,in->im", grid.gain_rows(AL[on]), V[on])
    out[:, :n] = (F[:, :n] - RHO * F[:, n : 2 * n]) + row_product(U, design.B.T)
    out[:, n] = np.where(mismatch >= d, mismatch, 0.0)
    out[:, n + 1] = np.where(exchange >= 1.0, 1.0, np.where(exchange >= d, exchange, 0.0))
    return (out[:, :n], out[:, n : n + 1], out[:, n + 1 :]), U, mismatch, exchange
