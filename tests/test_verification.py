"""Tests for the proof-level verification checks."""

from collections import Counter

import numpy as np
import pytest

import cohsync.collab
from cohsync.agents import AgentModel, check_assumptions, invariant_zeros
from cohsync.cli import load_bundled_manifest
from cohsync.collab import design_collab, p_alpha_family
from cohsync.graphs import DirectedWeightedGraph, compute_h_weights, laplacian
from cohsync.linalg import SolverError
from cohsync.verification import (
    build_q_rho,
    check_h_weights_certificates,
    check_invariant_zeros_equivalence,
    check_lyapunov_equivalence,
    qrho_restricted_min_eigenvalue,
    random_strongly_connected,
    run_suite,
    seeded_minimum_phase_model,
    verify_alpha_p_alpha_monotone,
    verify_palpha_scaling,
    verify_qrho_monotone,
)

from golden import COLLAB_A, COLLAB_B, COLLAB_C, COLLAB_E


def two_cycle_probe(rho):
    g = DirectedWeightedGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
    L = laplacian(g)
    return build_q_rho(L, compute_h_weights(L), rho)


def test_qrho_two_node_unit_gains():
    probe = two_cycle_probe([1.0, 1.0])
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(probe.Q_rho, expected, atol=1e-12)
    assert probe.mu == pytest.approx(0.5, abs=1e-12)


def test_qrho_rows_sum_to_zero_and_restricted_psd():
    rng = np.random.default_rng(11)
    g = random_strongly_connected(rng, 6)
    L = laplacian(g)
    probe = build_q_rho(L, compute_h_weights(L), 0.5 + rng.random(6) * 2.0)
    assert np.max(np.abs(probe.Q_rho @ np.ones(6))) < 1e-12
    assert np.max(np.abs(probe.Q_rho - probe.Q_rho.T)) < 1e-14
    assert qrho_restricted_min_eigenvalue(probe) >= -1e-10


def test_qrho_input_validation():
    g = DirectedWeightedGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
    L = laplacian(g)
    h = compute_h_weights(L)
    with pytest.raises(ValueError):
        build_q_rho(L, h, [1.0, -1.0])
    with pytest.raises(ValueError):
        build_q_rho(L, h, [1.0, 0.0])
    with pytest.raises(ValueError):
        build_q_rho(L, h, [1.0, 1.0, 1.0])


def test_qrho_gain_derivative_matches_analytic_form():
    # d/d rho_i of z'Qz collapses to -(h_i/rho_i^2)(z_i - mu w)^2 with
    # w = sum_j h_j z_j / rho_j; the finite differences inside the
    # monotonicity check must reproduce that value, not merely its sign.
    rng = np.random.default_rng(5)
    g = random_strongly_connected(rng, 5)
    L = laplacian(g)
    h = compute_h_weights(L)
    rho = 0.5 + rng.random(5) * 2.0
    probe = build_q_rho(L, h, rho)
    for _ in range(10):
        z = rng.standard_normal(5)
        w = float(np.sum(probe.h * z / rho))
        for i in range(5):
            step = 1e-6 * rho[i]
            hi = rho.copy()
            hi[i] += step
            lo = rho.copy()
            lo[i] -= step
            fd = (
                float(z @ build_q_rho(L, h, hi).Q_rho @ z)
                - float(z @ build_q_rho(L, h, lo).Q_rho @ z)
            ) / (2.0 * step)
            analytic = -(probe.h[i] / rho[i] ** 2) * (z[i] - probe.mu * w) ** 2
            assert fd == pytest.approx(analytic, abs=1e-6 * (1.0 + abs(analytic)))
            assert analytic <= 0.0


def test_qrho_monotone_cycle_and_random():
    cycle = DirectedWeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    L = laplacian(cycle)
    report = verify_qrho_monotone(
        build_q_rho(L, compute_h_weights(L), [1.0, 2.0, 0.5]), n_vectors=100, seed=0
    )
    assert report.passed
    assert report.checked == 300
    assert report.worst <= 1e-8

    rng = np.random.default_rng(21)
    g = random_strongly_connected(rng, 10)
    L10 = laplacian(g)
    report10 = verify_qrho_monotone(
        build_q_rho(L10, compute_h_weights(L10), 0.5 + rng.random(10)), n_vectors=100, seed=1
    )
    assert report10.passed
    assert report10.checked == 1000


def test_qrho_agreement_direction_is_flat():
    probe = two_cycle_probe([1.3, 0.4])
    ones = np.ones(2)
    assert abs(ones @ probe.Q_rho @ ones) < 1e-14
    shifted = two_cycle_probe([1.3 * 1.01, 0.4])
    assert abs(ones @ shifted.Q_rho @ ones) < 1e-14


def test_palpha_scaling_double_integrator():
    report = verify_palpha_scaling(
        np.eye(2, k=1), [[0.0], [1.0]], [[1.0, 0.0]], np.logspace(2, 6, 17), epsilon=0.0
    )
    assert report.structure == "chain"
    assert report.passed
    assert report.slope == pytest.approx(-0.25, abs=0.02)
    # closed form: the scaled family is constantly [[sqrt2, 1], [1, sqrt2]]
    assert np.max(np.abs(report.smax - (np.sqrt(2.0) + 1.0))) < 1e-6
    assert np.max(np.abs(report.smin - (np.sqrt(2.0) - 1.0))) < 1e-6


def test_palpha_scaling_scalar_chain():
    report = verify_palpha_scaling([[0.0]], [[1.0]], [[1.0]], np.logspace(0, 4, 9), epsilon=0.0)
    assert report.structure == "chain"
    assert report.slope == pytest.approx(-0.5, abs=0.01)
    assert report.ratio == pytest.approx(1.0, abs=1e-8)


def test_palpha_scaling_demo_model():
    model = AgentModel(COLLAB_A, COLLAB_B, COLLAB_C, COLLAB_E)
    design = design_collab(model, delta=2.0)
    report = verify_palpha_scaling(
        COLLAB_A, COLLAB_B, COLLAB_C, np.logspace(0.5, 4, 15), epsilon=design.epsilon
    )
    assert report.structure == "relative-degree-1"
    assert report.passed
    assert report.decay_ok
    assert report.norms[-1] < 0.1 * report.norms[0]


def test_palpha_scaling_rejects_bad_input():
    with pytest.raises(ValueError, match="three decades"):
        verify_palpha_scaling([[0.0]], [[1.0]], [[1.0]], [1.0, 5.0, 20.0])
    with pytest.raises(ValueError, match="alpha samples"):
        verify_palpha_scaling([[0.0]], [[1.0]], [[1.0]], [0.5, 50.0, 5000.0])
    # relative degree two and not in chain coordinates: unsupported
    with pytest.raises(ValueError, match="relative-degree-1"):
        verify_palpha_scaling(
            [[0.0, 2.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], np.logspace(0, 4, 5)
        )


def test_alpha_p_alpha_monotone_scalar_exact():
    # alpha * P_alpha = sqrt(alpha): strictly increasing
    report = verify_alpha_p_alpha_monotone([[0.0]], [[1.0]], [[1.0]], 0.0, np.logspace(0, 2, 9))
    assert report.passed
    assert report.worst >= -1e-12
    assert report.checked == 8


def test_alpha_p_alpha_monotone_demo_and_random():
    model = AgentModel(COLLAB_A, COLLAB_B, COLLAB_C)
    design = design_collab(model, delta=2.0)
    alphas = [design.grid.alpha_at(k) for k in range(0, 31, 3)]
    report = verify_alpha_p_alpha_monotone(
        COLLAB_A, COLLAB_B, COLLAB_C, design.epsilon, alphas
    )
    assert report.passed

    rng = np.random.default_rng(17)
    rand_model, _ = seeded_minimum_phase_model(rng, 3)
    rand_report = verify_alpha_p_alpha_monotone(
        rand_model.A, rand_model.B, rand_model.C, 0.05, np.logspace(0, 3, 10)
    )
    assert rand_report.passed


def test_alpha_p_alpha_monotone_needs_two_samples():
    with pytest.raises(ValueError):
        verify_alpha_p_alpha_monotone([[0.0]], [[1.0]], [[1.0]], 0.0, [2.0])


def test_random_strongly_connected_is_usable():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(rng, 3 + seed)
        assert np.all(np.diag(g.adjacency) == 0.0)
        assert np.all(g.adjacency >= 0.0)
        weights = compute_h_weights(laplacian(g))  # raises if not strongly connected
        assert weights.gamma > 0.0


def test_seeded_minimum_phase_model_matches_planted_zeros():
    rng = np.random.default_rng(4)
    model, planted = seeded_minimum_phase_model(rng, 4)
    report = check_assumptions(model)
    assert report.relative_degree_one
    assert report.minimum_phase
    zeros = np.sort_complex(invariant_zeros(model.A, model.B, model.C))
    expected = np.sort_complex(planted)
    assert np.allclose(zeros, expected, atol=1e-6)
    assert np.all(planted.real < 0.0)


def test_dual_route_checks_pass():
    lyap = check_lyapunov_equivalence(seed=0)
    assert lyap.passed
    assert "cases=50" in lyap.detail
    zeros = check_invariant_zeros_equivalence(seed=0)
    assert zeros.passed
    assert "cases=20" in zeros.detail
    hw = check_h_weights_certificates(seed=0)
    assert hw.passed
    assert "graphs=20" in hw.detail


def test_run_suite_deterministic_and_green():
    model = AgentModel(COLLAB_A, COLLAB_B, COLLAB_C, COLLAB_E)
    text1, ok1, outcomes1 = run_suite(seed=0, demo_model=model, self_test=True)
    text2, ok2, _ = run_suite(seed=0, demo_model=model, self_test=True)
    assert ok1 and ok2
    assert text1 == text2
    assert text1.startswith("verification suite (seed=0)")
    assert "overall: PASS" in text1
    assert "negative control" in text1
    assert "FAIL" not in text1
    names = [o.name for o in outcomes1]
    assert "h-weights certificate" in names
    assert "palpha-scaling demo model" in names
    # every line of the report carries a verdict
    body = [ln for ln in text1.strip().splitlines()[1:-1]]
    assert all(ln.startswith(("PASS", "FAIL")) for ln in body)


def test_suite_without_demo_model_still_runs():
    text, ok, outcomes = run_suite(seed=3, demo_model=None, self_test=False)
    assert ok
    assert "demo model" not in text
    assert all("negative control" not in o.name for o in outcomes)


# Frozen run_suite reports: however the suite arranges its work, its
# figures stay bit for bit the same.  The demo model is that of the
# bundled col-vicsek-n5, as `cohsync verify` runs it.
SUITE_SEED_0_DEMO_SELF_TEST = """\
verification suite (seed=0)
PASS  h-weights certificate                 graphs=20 worst_margin=-5.850e-14
PASS  qrho-monotone cycle-3                 vectors=100 worst_derivative=-7.068e-05 restricted_min=6.220e-01
PASS  qrho-monotone random-10               vectors=100 worst_derivative=-1.122e-07 restricted_min=5.604e-01
PASS  palpha-scaling double-integrator      slope=-0.2544 band_ratio=2.414e+00
PASS  palpha scalar closed form             max_rel_err=0.000e+00
PASS  palpha-scaling demo model             slope=-0.4493 band_ratio=4.768e+02
PASS  palpha PSD-monotone demo grid         pairs=20 worst_margin=1.711e-05
PASS  alpha-palpha monotone demo grid       pairs=20 worst_margin=4.038e-05
PASS  alpha-palpha monotone random model    pairs=9 worst_margin=1.849e-06
PASS  lyapunov dual-route                   cases=50 worst_abs_diff kronecker=7.105e-15 scipy=7.772e-15
PASS  invariant-zeros dual-route            cases=20 worst_distance=7.770e-13
PASS  negative control (corrupted Riccati)  perturbed residual=1.511e-01, must be flagged
overall: PASS (12/12)
"""

SUITE_SEED_3 = """\
verification suite (seed=3)
PASS  h-weights certificate               graphs=20 worst_margin=-2.383e-14
PASS  qrho-monotone cycle-3               vectors=100 worst_derivative=-8.991e-05 restricted_min=6.220e-01
PASS  qrho-monotone random-10             vectors=100 worst_derivative=-1.794e-07 restricted_min=6.285e-01
PASS  palpha-scaling double-integrator    slope=-0.2544 band_ratio=2.414e+00
PASS  palpha scalar closed form           max_rel_err=0.000e+00
PASS  alpha-palpha monotone random model  pairs=9 worst_margin=1.849e-06
PASS  lyapunov dual-route                 cases=50 worst_abs_diff kronecker=6.883e-15 scipy=8.882e-15
PASS  invariant-zeros dual-route          cases=20 worst_distance=4.263e-14
overall: PASS (8/8)
"""


def test_run_suite_reports_the_frozen_texts():
    demo = load_bundled_manifest("col-vicsek-n5").model
    assert run_suite(seed=0, demo_model=demo, self_test=True)[0] == SUITE_SEED_0_DEMO_SELF_TEST
    assert run_suite(seed=3)[0] == SUITE_SEED_3


def test_run_suite_solves_each_demo_grid_cell_once(monkeypatch):
    # Every Riccati solve the suite asks of the P_alpha family, keyed by
    # its shifted A and its alpha: none repeats, and of the demo grid's
    # cells 0..40 exactly the even ones, which the suite reads, are solved.
    demo = load_bundled_manifest("col-vicsek-n5").model
    grid = design_collab(demo, delta=2.0).grid
    solves = Counter()
    solve = cohsync.collab.solve_care

    def spy(A_shifted, B, **kwargs):
        # One call solves the family of its gain_scale list.
        for alpha in kwargs["gain_scale"]:
            solves[A_shifted.tobytes(), alpha] += 1
        return solve(A_shifted, B, **kwargs)

    monkeypatch.setattr(cohsync.collab, "solve_care", spy)
    run_suite(seed=0, demo_model=demo)
    assert max(solves.values()) == 1
    demo_cells = {(grid.A_shifted.tobytes(), grid.alpha_at(k)): k for k in range(41)}
    assert sorted(demo_cells[key] for key in solves if key in demo_cells) == list(range(0, 41, 2))


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def loop_qrho_monotone(probe, n_vectors=100, seed=0, rel_step=1e-6, tol=1e-8):
    """The probe as a loop over vectors and gains, forming each Q_rho by
    np.diag and np.outer: the reference for verify_qrho_monotone."""

    def q_rho(rho):
        hr = probe.h / rho
        mu = 1.0 / float(hr.sum())
        return np.diag(hr) - mu * np.outer(hr, hr)

    rng = np.random.default_rng(seed)
    n = probe.rho.shape[0]
    worst = -np.inf
    violations = []
    checked = 0
    for v in range(n_vectors):
        z = rng.standard_normal(n)
        for i in range(n):
            step = rel_step * probe.rho[i]
            hi = probe.rho.copy()
            hi[i] += step
            lo = probe.rho.copy()
            lo[i] -= step
            f_hi = float(z @ q_rho(hi) @ z)
            f_lo = float(z @ q_rho(lo) @ z)
            deriv = (f_hi - f_lo) / (2.0 * step)
            worst = max(worst, deriv)
            checked += 1
            if deriv > tol:
                violations.append((v, i, deriv))
    return q_rho(probe.rho), checked, worst, violations


@pytest.mark.parametrize("n", range(3, 18))
def test_batched_qrho_probe_equals_the_loop(n):
    # tol = -inf makes every finite derivative a violation, so the order
    # of the violations is compared too.
    rng = np.random.default_rng([n, 29])
    L = laplacian(random_strongly_connected(rng, n))
    probe = build_q_rho(L, compute_h_weights(L), 0.5 + 2.5 * rng.random(n))
    for seed, tol in ((n, 1e-8), (n + 100, -np.inf)):
        Q, checked, worst, violations = loop_qrho_monotone(probe, n_vectors=40, seed=seed, tol=tol)
        report = verify_qrho_monotone(probe, n_vectors=40, seed=seed, tol=tol)
        assert probe.Q_rho.tobytes() == Q.tobytes()
        assert report.checked == checked == 40 * n
        assert _bits(report.worst) == _bits(worst)
        assert [(v, i) for v, i, _ in report.violations] == [(v, i) for v, i, _ in violations]
        assert [_bits(d) for _, _, d in report.violations] == [_bits(d) for _, _, d in violations]
    assert len(report.violations) == 40 * n
