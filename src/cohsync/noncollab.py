"""Design and batched runtime law of the noncollaborative adaptive protocol.

Each agent measures only the weighted disagreement of its output with its
neighbours.  The controller is built offline from the agent model alone: a
reduced-order observer reconstructs the unmeasured part of the disagreement
in transformed coordinates, a fixed Riccati gain row feeds the estimate
back, and a scalar gain rho grows through a dead zone until the measured
disagreement settles below the design level.  Nothing here depends on the
network, so one design object serves every agent on any graph.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .agents import (
    AgentModel,
    OutputTransform,
    build_output_transform,
    check_level,
    design_observer_gain,
    require_conditions,
)
from .linalg import (
    SolverError,
    eigenvalues,
    min_eigenvalue_sym,
    operator_norm_2,
    solve_care,
)

# Fixed fractions placing delta_bar and the default dead-zone level d
# strictly inside their admissible open intervals.
_DELTA_BAR_FRACTION = 0.9
_D_DEFAULT_FRACTION = 0.9


@dataclass(frozen=True)
class NoncollabDesign:
    """Frozen output of design_noncollab.

    P solves A~'P + PA~ - PB~B~'P + I = 0 in the transformed coordinates.
    gain_row is B~'P (the feedback is u = -rho * gain_row @ xi_hat) and
    kernel is P B~ B~' P, the quadratic form driving rho.  The scalar chain
    is delta_1 = delta^2 * lambda_min(P), delta_bar = 0.9 * delta_1, and
    0 < d < delta_bar / ||C S^-1||.
    """

    # The protocol's declaration (simulate.PROTOCOLS), with the conditions
    # the model must satisfy before the protocol exists, by their
    # AssumptionReport flags and the labels used in error messages.
    protocol = "noncollaborative"
    requires = (
        ("stabilizable", "stabilizable"),
        ("detectable", "detectable"),
        ("image_E_in_image_B", "disturbance range inside input range"),
        ("relative_degree_one", "relative degree one"),
        ("left_invertible", "left-invertible"),
        ("minimum_phase", "minimum-phase"),
    )
    gains = ("rho",)
    overrides = ("S", "T", "H1")
    settles = ("coherency_proxy",)
    payload = (
        "delta_1", "delta_bar", "lambda_min_p", "cs_norm", "transform.S", "transform.T", "H1", "P", "gain_row", "kernel"
    )
    printed = (("delta_1", "delta_1"), ("lambda_min(P)", "lambda_min_p"))

    transform: OutputTransform
    H1: np.ndarray
    P: np.ndarray
    B_tilde: np.ndarray
    gain_row: np.ndarray
    kernel: np.ndarray
    d: float
    delta: float
    delta_bar: float
    delta_1: float
    lambda_min_p: float
    cs_norm: float

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def n1(self) -> int:
        return self.transform.n1

    @property
    def m(self) -> int:
        return self.B_tilde.shape[1]

    @property
    def p_out(self) -> int:
        return self.transform.T.shape[0]

    @cached_property
    def law_matrix(self) -> np.ndarray:
        """Fused linear block of the runtime law, composed on first use.

        Maps a row [xi1_hat, zeta] to [d xi1_hat / dt, xi_hat, xi_hat P,
        -gain_row @ xi_hat], where zeta T' = [zeta_1, zeta_2], xi_hat =
        [xi1_hat, zeta_2] and d xi1_hat / dt = A11 xi1_hat + A12 zeta_2 +
        H1 (C1 xi1_hat - zeta_1).
        """
        tr = self.transform
        n1, n = self.n1, self.n
        k = self.p_out - self.m
        T1t, T2t = tr.T[:k].T, tr.T[k:].T
        G = -self.gain_row.T
        from_xi1 = [tr.A11.T + tr.C1.T @ self.H1.T, np.eye(n1, n), self.P[:n1], G[:n1]]
        from_zeta = [
            T2t @ tr.A12.T - T1t @ self.H1.T,
            np.zeros((self.p_out, n1)),
            T2t,
            T2t @ self.P[n1:],
            T2t @ G[n1:],
        ]
        return np.vstack([np.hstack(from_xi1), np.hstack(from_zeta)])

    @staticmethod
    def widths(n: int, m: int) -> tuple[int, int, int]:
        """Per agent of a model with n states and m inputs: observer states
        xi1_hat, network-sum columns L x, and signal columns u and proxy."""
        return n - m, n, m + 1

    def check_model(self, model: AgentModel) -> None:
        if (self.n, self.p_out, self.m) != (model.n, model.p, model.m):
            raise ValueError("design dimensions do not match the model")

    def law_rows(self, model: AgentModel) -> np.ndarray:
        """The stage matrix's law rows: law_matrix on a row [xi1_hat, L x],
        through the measurement zeta = C (L x), with -B gain_row @ xi_hat
        as a last column block: u is linear in the row but for the factor
        rho, so B enters the integrator's stage product too."""
        n1, LM = self.n1, self.law_matrix
        rows = np.vstack([LM[:n1], model.C.T @ LM[n1:]])
        return np.hstack([rows, rows[:, rows.shape[1] - self.m :] @ model.B.T])

    def d_upper_bound(self) -> float:
        """Open upper limit of admissible dead-zone levels for this design."""
        return self.delta_bar / self.cs_norm

    def law(self, PS: np.ndarray, F: np.ndarray, outs):
        """The protocol's runtime law on a batch of agents, bound once to a
        run's arrays: (rates, signals, native).

        Row i of PS is agent i's protocol state [xi1_hat, rho] and row i of F
        its stage product: the integrator's workspace row [x, xi1_hat, rho,
        L x, w] times the stage matrix (simulate.stage_matrix), whose law rows
        are law_rows(model).
        The measurement zeta = C (L x) splits through T into (zeta_1, zeta_2);
        zeta_2 doubles as the directly measured tail of the estimate xi_hat =
        [xi1_hat, zeta_2] that the gain and the trigger see.  So F holds
        [A x + E w, d xi1_hat / dt, xi_hat, xi_hat P, -gain_row @ xi_hat,
        -B gain_row @ xi_hat].

        rates(j) writes the stage derivative [dx/dt, d xi1_hat / dt,
        d rho / dt] of the current PS and F into outs[j], with dx/dt = A x +
        E w + B u for u = -rho * gain_row @ xi_hat.  rho never decreases: its
        rate is |gain_row @ xi_hat|^2 = xi_hat' kernel xi_hat while the trigger
        proxy = xi_hat' P xi_hat is at least d, and zero otherwise.  Both
        quadratic forms are summed over their terms from +0 in column order.
        signals() gives (U, proxy, None) of the stage rates last wrote, while
        PS and F still hold it; only signals() forms U, the control rows, and
        proxy is the binding's own buffer, which the next rates overwrites.
        native holds what the compiled run (simulate) needs to run this law
        in C on the same arrays: the law's code in _step.c, n1, d and the
        buffer of the two sums.
        """
        n1, n, m = self.n1, self.n, self.m
        rows, widths = PS.shape[0], (n1 + 1, 4 * n + n1 + m, n + n1 + 1)
        if (PS.shape[1], F.shape) != (widths[0], (rows, widths[1])) or {o.shape for o in outs} != {(rows, widths[2])}:
            got = ", ".join(str(a.shape) for a in (PS, F, *outs))
            raise ValueError(f"expected rows of widths {widths}, got {got}")
        d, RHO = self.d, PS[:, n1:]
        i = n + n1
        cuts = (0, n, i, i + n, i + 2 * n, i + 2 * n + m, F.shape[1])
        AXW, DXI1, XH, XHP, NGX, NBGX = (F[:, a:b] for a, b in zip(cuts, cuts[1:]))
        blocks = [(out[:, :n], out[:, n:i], out[:, i]) for out in outs]
        # The terms of proxy (xi_hat times xi_hat P) and of drive (gain_row
        # xi_hat squared), agents along the fast axis, each half summed over
        # its columns from +0 in column order by one reduction; the columns
        # the drive half does not use stay +0 and add nothing.  A lone agent
        # gets a second, zero agent column: numpy sums a contiguous axis
        # pairwise, which would round a lone row's sums apart from a batch's.
        span = max(rows, 2)
        terms = np.zeros((2, max(n, m), span))
        sums, on = np.empty((2, span)), np.empty(rows, dtype=bool)
        proxy, drive = sums[:, :rows]
        XHT, XHPT, NGXT = XH.T, XHP.T, NGX.T
        proxy_terms, drive_terms = terms[0, :n, :rows], terms[1, :m, :rows]

        def rates(j):
            dx, dxi1, drho = blocks[j]
            np.multiply(XHT, XHPT, out=proxy_terms)
            np.multiply(NGXT, NGXT, out=drive_terms)
            np.add.reduce(terms, axis=1, initial=0.0, out=sums)
            np.multiply(RHO, NBGX, out=dx)
            dx += AXW
            dxi1[...] = DXI1
            np.greater_equal(proxy, d, out=on)
            np.multiply(drive, on, out=drho)

        def signals():
            return RHO * NGX, proxy, None

        # The compiled run's law (simulate): the same sums into the same buffer.
        native = {"law": 0, "n": n, "m": m, "k": n1, "d": d, "sums_buf": sums}
        return rates, signals, native


def design_noncollab(
    model: AgentModel,
    delta: float | None = None,
    d_override: float | None = None,
    s_override=None,
    t_override=None,
    h1_override=None,
) -> NoncollabDesign:
    """Build the noncollaborative protocol constants for one agent model.

    Exactly one of `delta` (the target disagreement level) or `d_override`
    (the dead-zone threshold) must be given; supplying only d picks the
    unique delta for which d sits at its default fraction of the admissible
    range.  Supplying both keeps delta and validates d against it.

    The transform and observer gain are constructed automatically unless
    `s_override` / `t_override` / `h1_override` pin them to known values.

    Raises SolverError when the model violates a required structural
    condition (the message names every failing one) and ValueError for an
    inadmissible d or a missing delta/d pair.
    """
    require_conditions(model, NoncollabDesign)
    check_level(delta, d_override)

    transform = build_output_transform(model, s_override=s_override, t_override=t_override)
    n1 = transform.n1
    k = transform.T.shape[0] - transform.m  # measured-output surplus p - m

    if h1_override is not None:
        H1 = np.asarray(h1_override, dtype=float)
        if H1.ndim == 1:
            H1 = H1.reshape(n1, -1)
        if H1.shape != (n1, k):
            raise ValueError(f"observer gain must have shape {(n1, k)}, got {H1.shape}")
        closed = transform.A11 + H1 @ transform.C1
        if not eigenvalues(closed).is_hurwitz:
            raise SolverError("supplied observer gain does not make A11 + H1 C1 Hurwitz")
    else:
        H1 = design_observer_gain(transform.A11, transform.C1)

    B_tilde = transform.B_tilde
    P = solve_care(transform.A_tilde, B_tilde)
    gain_row = B_tilde.T @ P
    kernel = gain_row.T @ gain_row

    lambda_min_p = min_eigenvalue_sym(P)
    cs_norm = operator_norm_2(model.C @ transform.S_inv)

    if delta is None:
        # Invert the default chain d = 0.9 * 0.9 * delta^2 * lambda_min / cs.
        frac = _DELTA_BAR_FRACTION * _D_DEFAULT_FRACTION
        delta = float(np.sqrt(d_override * cs_norm / (frac * lambda_min_p)))

    delta_1 = delta**2 * lambda_min_p
    delta_bar = _DELTA_BAR_FRACTION * delta_1
    d_max = delta_bar / cs_norm
    if d_override is None:
        d = _D_DEFAULT_FRACTION * d_max
    else:
        if not 0.0 < d_override < d_max:
            raise ValueError(
                f"dead-zone level d={d_override} outside the admissible "
                f"interval (0, {d_max}) for delta={delta}"
            )
        d = float(d_override)

    return NoncollabDesign(
        transform=transform,
        H1=H1,
        P=P,
        B_tilde=B_tilde,
        gain_row=gain_row,
        kernel=kernel,
        d=d,
        delta=float(delta),
        delta_bar=float(delta_bar),
        delta_1=float(delta_1),
        lambda_min_p=float(lambda_min_p),
        cs_norm=float(cs_norm),
    )
