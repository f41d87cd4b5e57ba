"""Numerical verification of the proof-level facts behind both designs.

Each check here probes a property the convergence arguments lean on
(weighted-Laplacian certificates, monotonicity of the gain-weighted
quadratic form, asymptotics of the feedback Riccati family) with explicit
finite samples, independent of the code paths the protocols themselves
exercise.  The checks return small report objects; run_suite stitches them
into a deterministic pass/fail text report.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .agents import AgentModel, build_output_transform, check_assumptions, invariant_zeros
from .collab import design_collab, p_alpha_family
from .graphs import DirectedWeightedGraph, HWeights, compute_h_weights, laplacian
from .linalg import SolverError, min_eigenvalue_sym, solve_care, solve_lyapunov

# ---------------------------------------------------------------------------
# gain-weighted quadratic form


@dataclass
class QRhoProbe:
    """Fixed network data plus the gain-weighted form Q_rho.

    Q_rho = diag(h/rho) - mu * outer(h/rho, h/rho), mu = 1 / sum(h/rho);
    its rows sum to zero by construction, and it shrinks as any gain rho_i
    grows, which is what lets the convergence argument absorb growing
    adaptive gains.
    """

    h: np.ndarray
    rho: np.ndarray
    mu: float
    Q_rho: np.ndarray


def _qrho_matrix(h: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q_rho, mu) at a gain vector rho, or at each row of a stack of them
    (rho of shape (..., n) gives Q of shape (..., n, n) and mu of (..., 1))."""
    hr = h / rho
    n = hr.shape[-1]
    mu = 1.0 / hr.sum(axis=-1, keepdims=True)
    diag = np.zeros(hr.shape + (n,))
    diag[..., range(n), range(n)] = hr
    return diag - mu[..., None] * (hr[..., :, None] * hr[..., None, :]), mu


def build_q_rho(L, h, rho) -> QRhoProbe:
    """Assemble the probe; h may be an HWeights or a plain weight vector."""
    L = np.asarray(L, dtype=float)
    hvec = h.h if isinstance(h, HWeights) else np.asarray(h, dtype=float).reshape(-1)
    rho = np.asarray(rho, dtype=float).reshape(-1)
    n = L.shape[0]
    if hvec.shape[0] != n or rho.shape[0] != n:
        raise ValueError("h and rho must match the Laplacian size")
    if np.any(rho <= 0.0):
        raise ValueError("all rho_i must be positive")
    Q, mu = _qrho_matrix(hvec, rho)
    mu = float(mu[0])
    ones = np.ones(n)
    if np.max(np.abs(Q @ ones)) > 1e-10:
        raise SolverError("Q_rho rows do not sum to zero; weights are inconsistent")
    return QRhoProbe(h=hvec, rho=rho, mu=mu, Q_rho=Q)


@dataclass
class MonotoneReport:
    """Outcome of a sampled monotonicity check."""

    checked: int
    worst: float
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_qrho_monotone(
    probe: QRhoProbe, n_vectors: int = 100, seed: int = 0, rel_step: float = 1e-6, tol: float = 1e-8
) -> MonotoneReport:
    """z'Q_rho z must not grow when any single rho_i grows.

    Central finite differences with a relative step in each gain
    direction, over seeded Gaussian test vectors.  Directional derivatives
    above tol are recorded as violations, in (vector, gain) order.

    Q_rho is formed once at every rho +- step e_i, as one stack, and each
    z'Qz as (z @ Q) @ z by stacked products that make the BLAS calls of
    the lone z @ Q @ z, so every figure is bitwise that of a loop over the
    vectors and gains.
    """
    rng = np.random.default_rng(seed)
    rho = probe.rho
    n = rho.shape[0]
    steps = rel_step * rho
    shifted = np.eye(n, dtype=bool)
    # rhos[s, i] is rho with its entry i moved up (s = 0) or down (s = 1).
    rhos = np.stack([np.where(shifted, rho + steps, rho), np.where(shifted, rho - steps, rho)])
    Q = _qrho_matrix(probe.h, rhos)[0]
    Z = rng.standard_normal((n_vectors, n))
    f = np.empty((n_vectors, 2, n))
    for z, fz in zip(Z, f):
        # Each (1, n) @ (n, n) in the stack is one gemv and each
        # (1, n) @ (n,) one dot, as for a single z @ Q @ z.
        fz[...] = ((z @ Q)[..., None, :] @ z)[..., 0]
    derivs = (f[:, 0] - f[:, 1]) / (2.0 * steps)
    # As Python's max over the derivatives in (v, i) order: NaN never wins,
    # and of equal values (0.0 and -0.0) the first does.
    kept = derivs[~np.isnan(derivs)]
    worst = kept[kept.argmax()] if kept.size else -np.inf
    violations = [(v, i, derivs[v, i]) for v, i in np.argwhere(derivs > tol).tolist()]
    return MonotoneReport(checked=derivs.size, worst=worst, violations=violations)


def qrho_restricted_min_eigenvalue(probe: QRhoProbe) -> float:
    """Smallest eigenvalue of Q_rho restricted to the zero-row-sum subspace."""
    basis = scipy.linalg.null_space(np.ones((1, probe.rho.shape[0])))
    M = basis.T @ probe.Q_rho @ basis
    return min_eigenvalue_sym(0.5 * (M + M.T))


# ---------------------------------------------------------------------------
# Riccati family asymptotics


@dataclass
class PAlphaScalingReport:
    """Sandwich-boundedness and decay of the feedback Riccati family."""

    structure: str
    norms: np.ndarray
    smin: np.ndarray
    smax: np.ndarray
    ratio: float
    slope: float
    decay_ok: bool

    @property
    def passed(self) -> bool:
        return self.ratio <= 1e3 and self.decay_ok


def _is_integrator_chain(A, B, C) -> bool:
    n = A.shape[0]
    if B.shape[1] != 1 or C.shape[0] != 1:
        return False
    chain_A = np.eye(n, k=1)
    e_last = np.zeros((n, 1))
    e_last[-1, 0] = 1.0
    e_first = np.zeros((1, n))
    e_first[0, 0] = 1.0
    return np.array_equal(A, chain_A) and np.array_equal(B, e_last) and np.array_equal(C, e_first)


def verify_palpha_scaling(A, B, C, alphas, epsilon: float = 0.0) -> PAlphaScalingReport:
    """Check the scaled family D^-1 G' P_alpha G D^-1 stays sandwiched.

    Supported structures: pure integrator chains (state order position,
    velocity, ...) and relative-degree-1 models, where the output
    transform supplies the state map into (zero dynamics, output) blocks.
    The scaled family must stay within a fixed spectral band (ratio
    reported, accepted up to 1e3) while the raw norms decay; the fitted
    log-log slope of the decay is also reported.

    Raises SolverError when the band is blown, which indicates an
    implementation bug rather than a borderline margin.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    alphas = np.sort(np.asarray(alphas, dtype=float))
    if alphas.size < 3 or alphas[0] < 1.0:
        raise ValueError("need alpha samples >= 1")
    if alphas[-1] / alphas[0] < 1e3:
        raise ValueError("alpha samples must span at least three decades")
    n, m = A.shape[0], B.shape[1]

    if _is_integrator_chain(A, B, C):
        structure = "chain"
        gamma = np.eye(n)
        n1 = n
        chain_width = 1
        zero_dim = 0
    else:
        structure = "relative-degree-1"
        model = AgentModel(A, B, C)
        report = check_assumptions(model)
        if not (report.relative_degree_one and report.minimum_phase and report.observable):
            raise ValueError(
                "scaling check supports integrator chains and observable "
                "minimum-phase relative-degree-1 models only"
            )
        gamma = build_output_transform(model).S_inv
        n1 = 1
        chain_width = m
        zero_dim = n - m

    family = p_alpha_family(A, B, C, epsilon)
    norms = np.empty(alphas.size)
    smin = np.empty(alphas.size)
    smax = np.empty(alphas.size)
    for idx, (alpha, P) in enumerate(zip(alphas, family.solve_exact(alphas))):
        norms[idx] = np.linalg.norm(P, 2)
        beta1 = alpha ** (-1.0 / (4.0 * n1))
        diag = [alpha**-0.5] * zero_dim
        for level in range(n1):
            diag.extend([beta1 ** (2 * level + 1)] * chain_width)
        d_inv = 1.0 / np.asarray(diag)
        M = (d_inv[:, None] * (gamma.T @ P @ gamma)) * d_inv[None, :]
        M = 0.5 * (M + M.T)
        eigs = np.linalg.eigvalsh(M)
        smin[idx] = eigs[0]
        smax[idx] = eigs[-1]

    if np.min(smin) <= 0.0:
        raise SolverError("scaled Riccati family lost definiteness")
    ratio = max(float(np.max(smax)), 1.0 / float(np.min(smin)))
    if ratio > 1e3:
        raise SolverError(
            f"scaled Riccati family left the accepted band (ratio {ratio:.3e}); "
            "likely an implementation bug"
        )
    slope = float(np.polyfit(np.log(alphas), np.log(norms), 1)[0])
    decay_ok = bool(np.all(np.diff(norms) < 0.0) and norms[-1] < norms[0])
    return PAlphaScalingReport(
        structure=structure,
        norms=norms,
        smin=smin,
        smax=smax,
        ratio=ratio,
        slope=slope,
        decay_ok=decay_ok,
    )


def verify_alpha_p_alpha_monotone(A, B, C, epsilon: float, alphas) -> MonotoneReport:
    """alpha * P_alpha must be nondecreasing in PSD order along the samples."""
    alphas = np.sort(np.asarray(alphas, dtype=float))
    if alphas.size < 2:
        raise ValueError("need at least two alpha samples")
    family = p_alpha_family(A, B, C, epsilon)
    return _psd_monotone(alphas.tolist(), [alpha * P for alpha, P in zip(alphas, family.solve_exact(alphas))])


def _psd_monotone(labels, matrices) -> MonotoneReport:
    """The PSD margins of successive symmetric matrices: the smallest
    eigenvalue of each difference, later minus earlier.  A margin below
    -1e-9 is a violation, recorded with the later matrix's label."""
    margins = [min_eigenvalue_sym(later - earlier) for earlier, later in zip(matrices, matrices[1:])]
    violations = [(label, margin) for label, margin in zip(labels[1:], margins) if margin < -1e-9]
    return MonotoneReport(checked=len(margins), worst=min(margins), violations=violations)


# ---------------------------------------------------------------------------
# seeded generators shared by the suite


def random_strongly_connected(rng: np.random.Generator, n: int) -> DirectedWeightedGraph:
    """Directed cycle plus random weighted shortcuts; strongly connected."""
    A = np.zeros((n, n))
    for i in range(n):
        A[(i + 1) % n, i] = 1.0
    for u in range(n):
        for v in range(n):
            if u == v or A[v, u] > 0.0:
                continue
            if rng.random() < 0.3:
                A[v, u] = 0.5 + rng.random()
    return DirectedWeightedGraph(A)


def seeded_minimum_phase_model(rng: np.random.Generator, n: int) -> tuple[AgentModel, np.ndarray]:
    """Square single-input model with planted Hurwitz zero dynamics.

    Returns the scrambled model and the planted invariant zeros (the
    eigenvalues of the zero-dynamics block before scrambling).
    """
    a11 = rng.standard_normal((n - 1, n - 1))
    shift = float(np.max(np.linalg.eigvals(a11).real)) + 0.5 + rng.random()
    a11 -= shift * np.eye(n - 1)
    A0 = np.block(
        [
            [a11, rng.standard_normal((n - 1, 1))],
            [rng.standard_normal((1, n - 1)), rng.standard_normal((1, 1))],
        ]
    )
    B0 = np.zeros((n, 1))
    B0[-1, 0] = 1.0 + rng.random()
    C0 = np.zeros((1, n))
    C0[0, -1] = 1.0
    R = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    R_inv = np.linalg.inv(R)
    model = AgentModel(R @ A0 @ R_inv, R @ B0, C0 @ R_inv)
    return model, np.linalg.eigvals(a11)


def _match_complex_sets(got: np.ndarray, expected: np.ndarray, tol: float) -> float:
    """Greedy pairing distance; inf when the sets cannot be matched."""
    if got.shape[0] != expected.shape[0]:
        return np.inf
    remaining = list(expected)
    worst = 0.0
    for z in got:
        dists = [abs(z - w) for w in remaining]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        if dists[j] > tol:
            return np.inf
        remaining.pop(j)
    return worst


# ---------------------------------------------------------------------------
# the batch suite


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def check_h_weights_certificates(seed: int, count: int = 20) -> CheckOutcome:
    worst = np.inf
    for trial in range(count):
        rng = np.random.default_rng([seed, 100 + trial])
        n = 3 + trial % 10
        g = random_strongly_connected(rng, n)
        L = laplacian(g)
        weights = compute_h_weights(L)
        form = np.diag(weights.h) @ L + L.T @ np.diag(weights.h) - 2.0 * weights.gamma * (L.T @ L)
        basis = scipy.linalg.null_space(np.ones((1, n)))
        margin = min_eigenvalue_sym(basis.T @ (0.5 * (form + form.T)) @ basis)
        worst = min(worst, margin)
        if weights.gamma <= 0.0 or np.min(weights.h) < 1.0 - 1e-12:
            return CheckOutcome("h-weights certificate", False, f"graph {trial}: bad weights")
    return CheckOutcome(
        "h-weights certificate", worst >= -1e-10, f"graphs={count} worst_margin={worst:.3e}"
    )


def _qrho_checks(seed: int) -> list[CheckOutcome]:
    outcomes = []
    cases = []
    cycle = DirectedWeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    cases.append(("qrho-monotone cycle-3", cycle, np.array([1.0, 2.0, 0.5])))
    rng = np.random.default_rng([seed, 7])
    g10 = random_strongly_connected(rng, 10)
    cases.append(("qrho-monotone random-10", g10, 0.5 + 2.5 * rng.random(10)))
    for name, graph, rho in cases:
        L = laplacian(graph)
        weights = compute_h_weights(L)
        probe = build_q_rho(L, weights, rho)
        restricted = qrho_restricted_min_eigenvalue(probe)
        report = verify_qrho_monotone(probe, n_vectors=100, seed=seed)
        ok = report.passed and restricted >= -1e-10
        outcomes.append(
            CheckOutcome(
                name,
                ok,
                f"vectors=100 worst_derivative={report.worst:.3e} restricted_min={restricted:.3e}",
            )
        )
    return outcomes


def _palpha_checks(demo_model: AgentModel | None) -> list[CheckOutcome]:
    outcomes = []

    chain = verify_palpha_scaling(
        np.eye(2, k=1), [[0.0], [1.0]], [[1.0, 0.0]], np.logspace(2, 6, 17), epsilon=0.0
    )
    slope_ok = abs(chain.slope + 0.25) <= 0.02
    outcomes.append(
        CheckOutcome(
            "palpha-scaling double-integrator",
            chain.passed and slope_ok,
            f"slope={chain.slope:.4f} band_ratio={chain.ratio:.3e}",
        )
    )

    family = p_alpha_family([[0.0]], [[1.0]], [[1.0]], 0.0)
    alphas = np.logspace(0, 3, 13)
    worst = 0.0
    for alpha, P in zip(alphas, family.solve_exact(alphas)):
        got = P[0, 0]
        worst = max(worst, abs(got - alpha**-0.5) / alpha**-0.5)
    outcomes.append(
        CheckOutcome("palpha scalar closed form", worst < 1e-8, f"max_rel_err={worst:.3e}")
    )

    if demo_model is not None:
        design = design_collab(demo_model, delta=2.0)
        demo = verify_palpha_scaling(
            demo_model.A,
            demo_model.B,
            demo_model.C,
            np.logspace(0.5, 4, 15),
            epsilon=design.epsilon,
        )
        outcomes.append(
            CheckOutcome(
                "palpha-scaling demo model",
                demo.passed,
                f"slope={demo.slope:.4f} band_ratio={demo.ratio:.3e}",
            )
        )
        # The demo grid's even cells, solved alone, serve both orderings:
        # P_alpha is nonincreasing in alpha, so -P_alpha is nondecreasing.
        ks = range(0, 41, 2)
        Ps = design.grid.cells(ks)
        mono_p = _psd_monotone(ks, [-P for P in Ps])
        outcomes.append(
            CheckOutcome(
                "palpha PSD-monotone demo grid",
                mono_p.passed,
                f"pairs={mono_p.checked} worst_margin={mono_p.worst:.3e}",
            )
        )
        alphas = [design.grid.alpha_at(k) for k in ks]
        mono_ap = _psd_monotone(alphas, [alpha * P for alpha, P in zip(alphas, Ps)])
        outcomes.append(
            CheckOutcome(
                "alpha-palpha monotone demo grid",
                mono_ap.passed,
                f"pairs={mono_ap.checked} worst_margin={mono_ap.worst:.3e}",
            )
        )

    rng = np.random.default_rng(903)
    model, _ = seeded_minimum_phase_model(rng, 3)
    mono_rand = verify_alpha_p_alpha_monotone(
        model.A, model.B, model.C, 0.05, np.logspace(0, 3, 10)
    )
    outcomes.append(
        CheckOutcome(
            "alpha-palpha monotone random model",
            mono_rand.passed,
            f"pairs={mono_rand.checked} worst_margin={mono_rand.worst:.3e}",
        )
    )
    return outcomes


def _kronecker_lyapunov(A, W) -> np.ndarray:
    """Oracle for A'X + XA + W = 0 at small n: the n^2 x n^2 vectorized
    operator (I kron A' + A' kron I), solved densely in one shot."""
    n = A.shape[0]
    eye = np.eye(n)
    vec = np.linalg.solve(np.kron(eye, A.T) + np.kron(A.T, eye), -W.reshape(-1, order="F"))
    return vec.reshape((n, n), order="F")


def check_lyapunov_equivalence(seed: int, count: int = 50) -> CheckOutcome:
    """solve_lyapunov against two oracles, n = 2..6: the Kronecker solve,
    which shares no step with it, and scipy's Bartels-Stewart."""
    worst_kron = worst_scipy = 0.0
    for trial in range(count):
        rng = np.random.default_rng([seed, 500 + trial])
        n = 2 + trial % 5
        A = rng.standard_normal((n, n))
        A -= (float(np.max(np.linalg.eigvals(A).real)) + 0.5 + rng.random()) * np.eye(n)
        W = rng.standard_normal((n, n))
        W = 0.5 * (W + W.T)
        ours = solve_lyapunov(A, W)
        worst_kron = max(worst_kron, float(np.max(np.abs(ours - _kronecker_lyapunov(A, W)))))
        reference = scipy.linalg.solve_continuous_lyapunov(A.T, -W)
        worst_scipy = max(worst_scipy, float(np.max(np.abs(ours - reference))))
    return CheckOutcome(
        "lyapunov dual-route",
        max(worst_kron, worst_scipy) <= 1e-9,
        f"cases={count} worst_abs_diff kronecker={worst_kron:.3e} scipy={worst_scipy:.3e}",
    )


def check_invariant_zeros_equivalence(seed: int, count: int = 20) -> CheckOutcome:
    worst = 0.0
    for trial in range(count):
        rng = np.random.default_rng([seed, 900 + trial])
        n = 3 + trial % 4
        model, planted = seeded_minimum_phase_model(rng, n)
        pencil_route = invariant_zeros(model.A, model.B, model.C)
        a11_route = np.linalg.eigvals(build_output_transform(model).A11)
        gap = _match_complex_sets(np.sort_complex(pencil_route), np.sort_complex(a11_route), 1e-8)
        gap_planted = _match_complex_sets(np.sort_complex(pencil_route), np.sort_complex(planted), 1e-6)
        if not np.isfinite(gap) or not np.isfinite(gap_planted):
            return CheckOutcome("invariant-zeros dual-route", False, f"case {trial} diverged")
        worst = max(worst, gap)
    return CheckOutcome(
        "invariant-zeros dual-route", True, f"cases={count} worst_distance={worst:.3e}"
    )


def _negative_control_check() -> CheckOutcome:
    A = np.array([[0.0, 1.0], [-1.0, -1.0]])
    B = np.array([[0.0], [1.0]])
    P = solve_care(A, B)
    corrupted = 1.1 * P
    residual = A.T @ corrupted + corrupted @ A - corrupted @ B @ B.T @ corrupted + np.eye(2)
    detected = float(np.max(np.abs(residual))) > 1e-8 * (1.0 + np.linalg.norm(corrupted) ** 2)
    return CheckOutcome(
        "negative control (corrupted Riccati)",
        detected,
        f"perturbed residual={float(np.max(np.abs(residual))):.3e}, must be flagged",
    )


def run_suite(seed: int = 0, demo_model: AgentModel | None = None, self_test: bool = False):
    """Run every check; returns (report text, all passed, outcomes)."""
    outcomes = [check_h_weights_certificates(seed)]
    outcomes.extend(_qrho_checks(seed))
    outcomes.extend(_palpha_checks(demo_model))
    outcomes.append(check_lyapunov_equivalence(seed))
    outcomes.append(check_invariant_zeros_equivalence(seed))
    if self_test:
        outcomes.append(_negative_control_check())

    width = max(len(o.name) for o in outcomes)
    lines = [f"verification suite (seed={seed})"]
    for o in outcomes:
        lines.append(f"{'PASS' if o.passed else 'FAIL'}  {o.name.ljust(width)}  {o.detail}")
    n_pass = sum(o.passed for o in outcomes)
    all_passed = n_pass == len(outcomes)
    lines.append(f"overall: {'PASS' if all_passed else 'FAIL'} ({n_pass}/{len(outcomes)})")
    return "\n".join(lines) + "\n", all_passed, outcomes
