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
    check_assumptions,
    design_observer_gain,
)
from .linalg import (
    SolverError,
    eigenvalues,
    min_eigenvalue_sym,
    operator_norm_2,
    row_product,
    solve_care,
)

# Conditions the model must satisfy before the protocol exists, with the
# names used in error messages.
_REQUIRED_CONDITIONS = (
    ("stabilizable", "stabilizable"),
    ("detectable", "detectable"),
    ("image_E_in_image_B", "disturbance range inside input range"),
    ("relative_degree_one", "relative degree one"),
    ("left_invertible", "left-invertible"),
    ("minimum_phase", "minimum-phase"),
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

    def d_upper_bound(self) -> float:
        """Open upper limit of admissible dead-zone levels for this design."""
        return self.delta_bar / self.cs_norm


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
    report = check_assumptions(model)
    failed = [label for attr, label in _REQUIRED_CONDITIONS if not getattr(report, attr)]
    if failed:
        raise SolverError(
            "model does not admit the noncollaborative protocol; failing "
            "conditions: " + ", ".join(failed)
        )

    transform = build_output_transform(model, s_override=s_override, t_override=t_override)
    n1 = transform.n1
    k = transform.T.shape[0] - transform.m  # measured-output surplus p - m

    if h1_override is not None:
        H1 = np.asarray(h1_override, dtype=float)
        if H1.ndim == 1:
            H1 = H1.reshape(n1, k) if k == 1 else H1.reshape(n1, -1)
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
        if d_override is None:
            raise ValueError("provide delta, d_override, or both")
        if d_override <= 0.0:
            raise ValueError("dead-zone level d must be positive")
        # Invert the default chain d = 0.9 * 0.9 * delta^2 * lambda_min / cs.
        frac = _DELTA_BAR_FRACTION * _D_DEFAULT_FRACTION
        delta = float(np.sqrt(d_override * cs_norm / (frac * lambda_min_p)))
    elif delta <= 0.0:
        raise ValueError("delta must be positive")

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


def noncollab_law(design: NoncollabDesign, PS: np.ndarray, Z: np.ndarray, out: np.ndarray):
    """The protocol's runtime law, evaluated on a batch of agents at once.

    Row i of PS is agent i's protocol state [xi1_hat, rho] and row i of Z
    its measured disagreement zeta.  The measurement splits through T into
    (zeta_1, zeta_2); zeta_2 doubles as the directly measured tail of the
    estimate xi_hat = [xi1_hat, zeta_2] that the gain and the trigger see.
    All of this is linear in [xi1_hat, zeta], so one product with the
    design's law_matrix gives d xi1_hat / dt, xi_hat, xi_hat P and
    -gain_row @ xi_hat together.

    The protocol-state derivative is written into out, an array of PS's
    shape, whose column blocks (d xi1_hat / dt, d rho / dt) lead the return
    value (dPS, U, proxy, None): U holds the control rows
    u = -rho * gain_row @ xi_hat and proxy the trigger xi_hat' P xi_hat.
    rho never decreases: its rate is |gain_row @ xi_hat|^2 =
    xi_hat' kernel xi_hat while proxy >= d, and zero otherwise.  The last
    slot, the exchange energy of the collaborative law, is empty here.
    """
    n1, n = design.n1, design.n
    if PS.shape != (Z.shape[0], n1 + 1) or Z.shape[1] != design.p_out:
        raise ValueError(
            f"expected protocol-state rows of width {n1 + 1} and measurement rows of "
            f"width {design.p_out}, got {PS.shape} and {Z.shape}"
        )
    F = row_product(np.concatenate((PS[:, :n1], Z), axis=1), design.law_matrix)
    proxy = np.einsum("ij,ij->i", F[:, n1 : n1 + n], F[:, n1 + n : n1 + 2 * n])
    NGX = F[:, n1 + 2 * n :]
    drive = np.einsum("ij,ij->i", NGX, NGX)
    out[:, :n1] = F[:, :n1]
    out[:, n1] = np.where(proxy >= design.d, drive, 0.0)
    U = PS[:, n1:] * NGX
    return (out[:, :n1], out[:, n1:]), U, proxy, None
