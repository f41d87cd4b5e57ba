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


def noncollab_law(design: NoncollabDesign, PS: np.ndarray, Z: np.ndarray):
    """The protocol's runtime law, evaluated on a batch of agents at once.

    Row i of PS is agent i's protocol state [xi1_hat, rho] and row i of Z
    its measured disagreement zeta.  The measurement splits through T into
    (zeta_1, zeta_2); zeta_2 doubles as the directly measured tail of the
    estimate xi_hat = [xi1_hat, zeta_2] that the gain and the trigger see.

    Returns (dPS, U, proxy, None): dPS holds the column blocks
    (d xi1_hat / dt, d rho / dt) of the protocol-state derivative, U the
    control rows u = -rho * gain_row @ xi_hat, and proxy the trigger
    xi_hat' P xi_hat.  rho never decreases: its rate is
    |gain_row @ xi_hat|^2 = xi_hat' kernel xi_hat while proxy >= d, and
    zero otherwise.  The last slot, the exchange energy of the
    collaborative law, is empty here.
    """
    tr = design.transform
    n1, k = tr.n1, design.p_out - design.m
    if PS.shape != (Z.shape[0], n1 + 1) or Z.shape[1] != design.p_out:
        raise ValueError(
            f"expected protocol-state rows of width {n1 + 1} and measurement rows of "
            f"width {design.p_out}, got {PS.shape} and {Z.shape}"
        )
    XI1 = PS[:, :n1]
    RHO = PS[:, n1]
    ZT = Z @ tr.T.T
    Z1, Z2 = ZT[:, :k], ZT[:, k:]
    dXI1 = XI1 @ tr.A11.T + Z2 @ tr.A12.T + (XI1 @ tr.C1.T - Z1) @ design.H1.T
    XIH = np.hstack([XI1, Z2])
    GX = XIH @ design.gain_row.T
    proxy = np.einsum("ij,ij->i", XIH, XIH @ design.P)
    drive = np.einsum("ij,ij->i", GX, GX)
    dRHO = np.where(proxy >= design.d, drive, 0.0)
    U = -RHO[:, None] * GX
    return (dXI1, dRHO[:, None]), U, proxy, None
