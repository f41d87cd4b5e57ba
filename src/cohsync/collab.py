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
(ratio 1.05) whose cells are solved on first use, only those that an
alpha of the run indexes, all the missing cells of a request in one
stacked Riccati solve; the controller holds the solution at the grid
point at or just below the current alpha.  Off-grid values remain
available exactly through PAlphaGrid.solve_exact for diagnostics and
tests.

The runtime law (CollabDesign.law) works on agent-fast views, agents along
the contiguous axis as the integrator stores them.  Its sums, the two
signal energies, the feedback B'P_k (x_hat + zeta_tilde) and B u, run over
their terms from +0 in column order: one multiply into a preallocated
(..., agents) buffer and one np.add.reduce over the term axis.  The
gathered B'P_k rows live in such a buffer too, laid out again only when a
bit of the alpha column moves.  A lone agent gets a zero second agent
column, so numpy never sums a contiguous axis pairwise, and no call is an
einsum, whose order follows the operands' strides, or a BLAS product, whose
order follows the CPU kernel.  So a row's bits are the same for every
memory layout of the law's inputs, every batch size and every BLAS kernel.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .agents import AgentModel, check_level, require_conditions
from .linalg import (
    GainScaleOverflow,
    SolverError,
    min_eigenvalue_sym,
    solve_care,
    solve_dual_care_shifted,
)

GRID_RATIO = 1.05

# The constant term eta I of the observer Riccati equation.  Any eta > 0
# admits a stabilizing solution once the pair (A, C') is stabilizable.
ETA = 1.0


class PAlphaGrid:
    """Geometric grid of solutions P_alpha of the parameterized Riccati family.

    Cell k holds the stabilizing solution of

        A_shifted' P + P A_shifted - alpha_k P B B' P + CtC = 0,

    with alpha_k = ratio**k (alpha_at), which is the shifted form of the
    family A'P + PA - alpha PBB'P + 2 eps P + C'C = 0 for A_shifted =
    A + eps I.  The cell of an alpha is the largest k with
    alpha_at(k) <= alpha, decided by comparing with alpha_at itself, so
    an alpha one ulp below a grid point lies in the cell below it.
    The cache holds the solved cells by index, with gaps allowed.  The
    cells a request misses are solved together, by one solve_care over
    their alphas; solve_care gives each member of such a family the bits of
    its solve alone, so a cell's value is still a function of its index
    alone, never of the cells solved with it or of the order in which
    callers asked, which keeps repeated runs bit-identical.  cell(k) fills
    every missing cell between 0 and k, and cells(ks) only the cells of
    ks; the runtime law's gather (gain_rows) solves only the cells its
    alphas index and reads the gain rows B'P_k from one stacked table over
    the span of the cache.
    """

    ratio = GRID_RATIO
    _log_ratio = np.log(GRID_RATIO)

    def __init__(self, A_shifted, B, CtC):
        self.A_shifted = np.asarray(A_shifted, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.CtC = np.asarray(CtC, dtype=float)
        # _cells maps k to the pair (P_k, B'P_k).  Over the span lo..hi of
        # its keys, _points holds alpha_at(lo), ..., alpha_at(hi + 1), and
        # the right-side searchsorted of an alpha among them is 1 + k - lo
        # for its cell k, 0 below the span and hi - lo + 2 above it.  _table
        # and _solved are indexed by that position: B'P_k (zeros where no
        # cell is cached) and whether cell k is cached (never at either end).
        self._cells: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._lo = 0
        self._points = np.ones(1)
        self._solved = np.zeros(2, dtype=bool)
        self._table = np.zeros((2,) + self.B.T.shape)

    def index_for(self, alpha: float) -> int:
        """The cell of alpha: the largest k with alpha_at(k) <= alpha."""
        return int(self.indices_for([alpha])[0])

    def indices_for(self, alphas) -> np.ndarray:
        """Vectorized index_for, exactly: alpha_at(k) <= alpha < alpha_at(k + 1).

        Raises ValueError unless every alpha is positive and finite: the
        index of NaN or infinity is no cell, and cell() would walk towards it.
        """
        alphas = np.asarray(alphas, dtype=float)
        # NaN fails both comparisons.
        if not (alphas.min(initial=np.inf) > 0.0 and alphas.max(initial=0.0) < np.inf):
            raise ValueError("alpha must be positive and finite")
        # The log estimate k is within one cell of the answer; comparing
        # alpha with alpha_at(k) and alpha_at(k + 1) settles it.
        k = np.floor(np.log(alphas) / self._log_ratio).astype(int)
        ks, at = np.unique(k, return_inverse=True)
        points = np.array([[self.alpha_at(j), self.alpha_at(j + 1)] for j in ks.tolist()])
        k += (points[at.reshape(k.shape)] <= alphas[..., None]).sum(axis=-1) - 1
        return k

    def alpha_at(self, k: int) -> float:
        """The grid point ratio**k; infinite past the largest float."""
        try:
            return self.ratio**k
        except OverflowError:
            return np.inf

    def lookup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The arrays gain_rows searches and gathers from, (_points,
        _solved, _table); a cell that joins the cache replaces them."""
        return self._points, self._solved, self._table

    def cached_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self._cells))

    def cells(self, indices) -> list[np.ndarray]:
        """P_k of each cell k of indices, solving on first use those cells
        alone, with no walk between them, all in one solve_care; the gather
        table is rebuilt over the cache's span when a cell joins the cache,
        and a request that solves nothing leaves both as they are.

        Raises SolverError naming the first missing cell of indices whose
        solve fails, however it fails, and its alpha, and saying so when
        alpha_k is too large for the family's products to stay in double
        precision (GainScaleOverflow); the cells before it are cached,
        those after it are not.
        """
        indices = list(indices)
        missing = [k for k in dict.fromkeys(indices) if k not in self._cells]
        if not missing:
            return [self._cells[k][0] for k in indices]
        alphas = [self.alpha_at(k) for k in missing]
        try:
            solved = solve_care(self.A_shifted, self.B, w_state=self.CtC, gain_scale=alphas)
        except (SolverError, np.linalg.LinAlgError, ValueError) as exc:
            solved = [exc]  # refused as a whole: the first cell fails
        failed = next((i for i, P in enumerate(solved) if isinstance(P, Exception)), None)
        for k, P in zip(missing, solved[:failed]):
            self._cells[k] = P, self.B.T @ P
        if failed != 0:  # a cell joined the cache
            lo, hi = min(self._cells), max(self._cells)
            at = [1 + k - lo for k in self._cells]
            self._lo = lo
            self._points = np.array([self.alpha_at(j) for j in range(lo, hi + 2)])
            self._solved = np.zeros(hi - lo + 3, dtype=bool)
            self._solved[at] = True
            self._table = np.zeros((hi - lo + 3,) + self.B.T.shape)
            self._table[at] = [BtP for _, BtP in self._cells.values()]
        if failed is not None:
            k, P = missing[failed], solved[failed]
            if isinstance(P, GainScaleOverflow):
                cause = "alpha_k is too large for the family to be solved in double precision"
            else:
                cause = P
            raise SolverError(f"P_alpha cell {k} (alpha {alphas[failed]:.6g}) has no solution: {cause}") from P
        return [self._cells[k][0] for k in indices]

    def cell(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Solution pair (P_k, B'P_k) for grid cell k, solving on first use.

        A cell not cached yet is solved together with every missing cell
        between 0 and k, so a walk leaves no gap between cell 0 and the
        cells it asked for.
        """
        if k not in self._cells:
            self.cells(range(min(k, 0), max(k, 0) + 1))
        return self._cells[k]

    def gain_rows(self, alphas) -> np.ndarray:
        """B'P_k at the cell of each alpha (index_for), one (m, n) block per
        alpha.

        Each alpha finds its cell among the grid points of the cache's span
        by one binary search, which is the rule of index_for itself, and its
        block by one gather.  Only when an alpha falls outside the span or
        on a cell not cached (or is no valid alpha, which indices_for
        rejects) are the distinct missing cells of the alphas solved, and
        those alone.
        """
        at = self._points.searchsorted(alphas, side="right")
        if not self._solved.take(at).all():
            ks = self.indices_for(alphas)
            self.cells(np.unique(ks).tolist())
            at = ks - (self._lo - 1)
        return self._table.take(at, axis=0)

    def solve_exact(self, alphas):
        """P_alpha at each requested alpha itself, not the quantized one:
        one matrix for a scalar alpha, a list for a sequence.

        Grid points (within 1e-9 relative) are answered from (and stored
        in) the cache by cells; the off-grid alphas are solved fresh, by
        one solve_care, and never cached.  Raises the error of the first
        grid cell that fails, else that of the first off-grid alpha.
        """
        flat = np.asarray(alphas, dtype=float).reshape(-1)
        ks = self.indices_for(flat).tolist()
        points = [self.alpha_at(k) for k in ks]
        on = [abs(a - ak) <= 1e-9 * ak for a, ak in zip(flat.tolist(), points)]
        grid_ks = [k for k, o in zip(ks, on) if o]
        exact = iter(self.cells(grid_ks) if grid_ks else [])
        off = [a for a, o in zip(flat.tolist(), on) if not o]
        fresh = iter(solve_care(self.A_shifted, self.B, w_state=self.CtC, gain_scale=off) if off else [])
        Ps = [next(exact) if o else next(fresh) for o in on]
        for P in Ps:
            if isinstance(P, Exception):
                raise P
        return Ps if np.ndim(alphas) else Ps[0]


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

    # The protocol's declaration (simulate.PROTOCOLS), with the conditions
    # the model must satisfy before the protocol exists.
    protocol = "collaborative"
    requires = (
        ("stabilizable", "stabilizable"),
        ("observable", "observable"),
        ("right_invertible", "right-invertible"),
        ("minimum_phase", "minimum-phase"),
    )
    gains = ("rho", "alpha")
    overrides = ()
    settles = ("coherency_proxy", "exchange_energy")
    payload = ("eta", "epsilon", "Q", "QCt")
    printed = (("eta", "eta"), ("epsilon", "epsilon"))

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    QCt: np.ndarray
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

    @staticmethod
    def widths(n: int, m: int) -> tuple[int, int, int]:
        """Per agent of a model with n states and m inputs: observer states
        x_hat, network-sum columns L x and L x_hat (one product over the [x,
        x_hat] columns), and signal columns u, mismatch and exchange energy."""
        return n, 2 * n, m + 2

    def check_model(self, model: AgentModel) -> None:
        if not all(np.array_equal(getattr(self, k), getattr(model, k)) for k in "ABC"):
            raise ValueError("design was built for a different model")

    def law_rows(self, model: AgentModel) -> np.ndarray:
        """law_matrix, whose row [x_hat, L x, L x_hat] is in workspace order."""
        return self.law_matrix

    def law(self, PS: np.ndarray, F: np.ndarray, outs):
        """The protocol's runtime law on a batch of agents, bound once to a
        run's arrays: (rates, signals, native).

        Row i of PS is agent i's protocol state [x_hat, rho, alpha] and row i
        of F its stage product: the integrator's workspace row [x, x_hat, rho,
        alpha, L x, L x_hat, w] times the stage matrix (simulate.stage_matrix),
        whose law rows are law_matrix.  One Laplacian product gives both
        network sums, so F holds A x + E w and law_matrix's outputs [A x_hat,
        Q C' e, x_hat + zeta_tilde, C zeta_tilde, e], with zeta = C (L x) the
        measured disagreement, zeta_tilde = L x_hat the exchanged sum and
        e = C zeta_tilde - zeta the mismatch.

        rates(j) writes the stage derivative [dx/dt, d x_hat / dt, d rho / dt,
        d alpha / dt] of the current PS and F into outs[j].  B u is computed
        once and added last to both A x + E w and the observer part
        A x_hat - rho Q C' e, so the observer loop is bitwise the same for
        every alpha.
        mismatch = |C zeta_tilde - zeta|^2 drives rho through the dead zone d;
        exchange = |C zeta_tilde|^2 drives alpha at rate min(exchange, 1) at
        or above d and not at all below it.  Both gains are nondecreasing.  The
        feedback is -alpha B'P_k (x_hat + zeta_tilde) with k the grid cell of
        alpha (PAlphaGrid.index_for); alpha = 0 means no feedback at all, and u
        is exactly +0.  signals() gives (U, mismatch, exchange) of the stage
        rates last wrote, U the control rows; they are the binding's own
        buffers, which the next rates overwrites.

        The law works on the transposed views of F, PS and outs, agents along
        the fast axis, the way simulate stores them.  Each agent's two
        energies and each entry of B'P_k (x_hat + zeta_tilde) are summed
        over their terms from +0 in column order: the terms go into a
        preallocated (..., agents) buffer by one multiply and are summed by
        one np.add.reduce over the middle axis, which adds whole agent rows
        one after another.  A lone agent gets a second, zero agent column:
        numpy sums a contiguous axis pairwise, which would round a lone row's
        sums apart from a batch's.  So the bits of every row are those of its
        row in any batch, whatever the memory layout of PS, F and outs.
        B u is summed the same way, over the m columns of B from +0 in
        order; no sum of the law is a BLAS call, so no BLAS kernel moves its
        bits.  Both dead-zone gates come from one comparison of the
        (2, agents) energies with d.

        The gains stop moving once every agent is inside the dead zone, so the
        gain part of a stage is keyed on the bits of the alpha column
        (AL.tobytes()): while they equal those of the last stage that formed
        it, rates reuses that stage's B'P_k rows, laid out agent-fast in the
        gain buffer, its -alpha and its alpha = 0 rows, and when every alpha
        is positive it clears no entry of U.  Any changed bit, a sign of zero
        included, gathers and lays out the rows again.  Either way U is
        bitwise what forming them afresh gives.

        native holds what the compiled run (simulate) needs to run this law
        in C on the same arrays: the law's code in _step.c, p, d, B, the
        energy, control and gain buffers, the alpha column of the last
        gather, the grid's lookup, whose arrays C gathers from, and
        regather(), which solves the cells of the current alpha column (or
        raises), gathers and lays out their rows and makes the column the
        key.
        """
        n, m, p = self.n, self.m, self.p_out
        rows, widths = PS.shape[0], (n + 2, 4 * n + 2 * p, 2 * n + 2)
        if (PS.shape[1], F.shape) != (widths[0], (rows, widths[1])) or {o.shape for o in outs} != {(rows, widths[2])}:
            got = ", ".join(str(a.shape) for a in (PS, F, *outs))
            raise ValueError(f"expected rows of widths {widths}, got {got}")
        d, gain_rows = self.d, self.grid.gain_rows
        FT, RHO, AL = F.T, PS[:, n : n + 1].T, PS[:, n + 1 :]
        AXW, AXH, QCE, XZ = (FT[k * n : (k + 1) * n] for k in range(4))
        # C zeta_tilde and e, which sit side by side in F.
        CZ_E = FT[4 * n :]
        blocks = [(out.T[:n], out.T[n : 2 * n], out.T[2 * n], out.T[2 * n + 1]) for out in outs]
        # Agent-fast buffers, with a zero second agent column for a lone
        # agent: the terms of the two energies and their sums [exchange,
        # mismatch]; the gathered B'P_k rows as (m, n, agents), the terms of
        # the feedback sums and those sums, which -alpha turns into U'; and
        # the terms of B U' and B U'.
        span = max(rows, 2)
        energy_terms, energies = np.zeros((2, p, span)), np.zeros((2, span))
        gates = np.empty((2, span), dtype=bool)
        gain, feedback_terms = np.zeros((m, n, span)), np.zeros((m, n, span))
        UT, BU_terms, BUT = np.zeros((m, span)), np.empty((n, m, span)), np.empty((n, span))
        B = np.ascontiguousarray(self.B)
        energy_terms_on = energy_terms.reshape(2 * p, span)[:, :rows]
        gain_on, feedback_terms_on = gain[:, :, :rows], feedback_terms[:, :, :rows]
        U, BU = UT[:, :rows], BUT[:, :rows]
        exchange, mismatch = energies[:, :rows]
        signals_out = U.T, mismatch, exchange
        # The bytes of the alpha column the gains were last laid out from,
        # that column itself, -alpha and the alpha = 0 entries of U (None
        # when every row is on).
        key, key_column, minus_alpha, off = None, np.zeros(rows), None, None

        def regather():
            # Every row gathers a cell; a row with alpha = 0 reads cell 0
            # and discards it.
            nonlocal key, minus_alpha, off
            on = AL[:, 0] > 0.0
            gain_on[...] = gain_rows(np.where(on, AL[:, 0], 1.0)).transpose(1, 2, 0)
            minus_alpha = -AL.T
            off = None if on.all() else np.broadcast_to(~on, U.shape)
            key = AL.tobytes()
            key_column[...] = AL[:, 0]

        def rates(j):
            dx, dx_hat, drho, dalpha = blocks[j]
            np.multiply(CZ_E, CZ_E, out=energy_terms_on)
            np.add.reduce(energy_terms, axis=1, initial=0.0, out=energies)
            if AL.tobytes() != key:
                regather()
            np.multiply(gain_on, XZ, out=feedback_terms_on)
            np.add.reduce(feedback_terms, axis=1, initial=0.0, out=UT)
            np.multiply(minus_alpha, U, out=U)
            if off is not None:
                np.copyto(U, 0.0, where=off)
            np.multiply(B[:, :, None], UT, out=BU_terms)
            np.add.reduce(BU_terms, axis=1, initial=0.0, out=BUT)
            np.add(AXW, BU, out=dx)
            np.multiply(RHO, QCE, out=dx_hat)
            np.subtract(AXH, dx_hat, out=dx_hat)
            dx_hat += BU
            np.greater_equal(energies, d, out=gates)
            np.multiply(mismatch, gates[1, :rows], out=drho)
            # min(exchange, 1) at or above d, else min(exchange, 0) = 0.
            np.minimum(exchange, gates[0, :rows], out=dalpha)

        def signals():
            return signals_out

        # The compiled run's law (simulate): the same sums into the same
        # buffers, with the key checked and the rows gathered in C, and
        # regather run when a cell is not cached.
        native = {
            "law": 1,
            "n": n,
            "m": m,
            "k": p,
            "d": d,
            "sums_buf": energies,
            "u": UT,
            "gain": gain,
            "B": B,
            "key": key_column,
            "lookup": self.grid.lookup,
            "regather": regather,
        }
        return rates, signals, native


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
) -> CollabDesign:
    """Build the collaborative protocol constants for one agent model.

    The observer Riccati equation is solved once, at eta = ETA, and its
    solution must be positive definite.  The feedback shift epsilon is
    min(0.1, half the slowest invariant-zero decay, half the slowest
    uncontrollable-mode decay), which keeps the shifted model minimum-phase
    and stabilizable.

    Exactly one of `delta` or `d_override` must be given, or both: with
    only d the level is delta = sqrt(8 d); with both, an override violating
    4 d < delta^2 is discarded in favour of the default d = delta^2 / 8.
    """
    report = require_conditions(model, CollabDesign)
    check_level(delta, d_override)
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
    # stabilizable; reject such models before the solve.
    margin = _uncontrollable_margin(model.A, model.C.T)
    if margin is not None and margin <= 0.0:
        raise SolverError(
            "observer Riccati pair (A, C') is not stabilizable, so no eta admits "
            "a positive definite observer Riccati solution"
        )
    Q = solve_dual_care_shifted(model.A, model.C, ETA)
    if min_eigenvalue_sym(Q) <= 0.0:
        raise SolverError(f"observer Riccati solution not positive definite at eta={ETA}")

    candidates = [0.1]
    zeros = report.invariant_zeros
    if zeros.size:
        candidates.append(0.5 * float(np.min(-zeros.real)))
    margin = _uncontrollable_margin(model.A, model.B)
    if margin is not None:
        candidates.append(0.5 * margin)
    epsilon = min(candidates)

    if delta is None:
        d = float(d_override)
        delta = float(np.sqrt(8.0 * d))
    elif d_override is not None and 0.0 < 4.0 * d_override < delta**2:
        d = float(d_override)
    else:
        d = delta**2 / 8.0

    grid = p_alpha_family(model.A, model.B, model.C, epsilon)
    grid.cell(0)  # seed the unit-alpha cell eagerly

    return CollabDesign(
        A=model.A,
        B=model.B,
        C=model.C,
        Q=Q,
        QCt=Q @ model.C.T,
        eta=ETA,
        epsilon=float(epsilon),
        d=d,
        delta=float(delta),
        grid=grid,
    )
