"""Collaborative protocol design, the alpha-Riccati grid, and the batched runtime law."""

import numpy as np
import pytest

import cohsync.collab
from cohsync.agents import AgentModel, check_assumptions
from cohsync.collab import collab_law, design_collab, p_alpha_family, solve_p_alpha
from cohsync.linalg import SolverError, min_eigenvalue_sym, solve_care

import golden


def reference_model():
    return AgentModel(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, golden.COLLAB_E)


def reference_design(**kwargs):
    kwargs.setdefault("delta", 2.0)
    return design_collab(reference_model(), **kwargs)


def test_design_reproduces_known_observer_riccati():
    design = reference_design(eta_override=1.0)
    assert np.allclose(design.Q, golden.COLLAB_Q_REF, atol=1e-3)
    assert np.allclose(design.QCt, golden.COLLAB_QCT_REF, atol=1e-3)
    residual = (
        design.A.T @ design.Q
        + design.Q @ design.A
        - design.Q @ design.CtC @ design.Q
        + np.eye(3)
    )
    assert np.max(np.abs(residual)) < 1e-8
    assert min_eigenvalue_sym(design.Q) > 0.0


def test_eta_search_stops_at_one_here():
    design = reference_design()
    assert design.eta == 1.0


def test_epsilon_respects_zero_and_controllability_margins():
    model = reference_model()
    report = check_assumptions(model)
    zeros = report.invariant_zeros
    assert zeros.size == 2
    # Controllable model: only the 0.1 cap and half the slowest zero compete.
    expected = min(0.1, 0.5 * float(np.min(-zeros.real)))
    design = reference_design()
    assert design.epsilon == pytest.approx(expected, rel=1e-12)
    assert design.epsilon < float(np.min(-zeros.real))
    assert design.epsilon > 0.0


def test_delta_and_d_selection_rules():
    assert reference_design(delta=2.0).d == pytest.approx(0.5)
    only_d = reference_design(delta=None, d_override=0.5)
    assert only_d.d == 0.5
    assert only_d.delta == pytest.approx(2.0)
    both = reference_design(delta=2.0, d_override=0.3)
    assert both.d == 0.3
    # An override violating 4d < delta^2 falls back to the default level.
    bad = reference_design(delta=1.0, d_override=0.5)
    assert bad.d == pytest.approx(1.0 / 8.0)
    with pytest.raises(ValueError):
        design_collab(reference_model())
    with pytest.raises(ValueError):
        reference_design(delta=None, d_override=-1.0)
    with pytest.raises(ValueError):
        reference_design(eta_override=-1.0)


def test_assumption_gate_names_observability():
    model = AgentModel([[-1.0, 0.0], [0.0, -2.0]], [[1.0], [1.0]], [[1.0, 0.0]])
    with pytest.raises(SolverError) as excinfo:
        design_collab(model, delta=1.0)
    assert "observable" in str(excinfo.value)


def test_uniform_rank_gate():
    # Two decoupled chains of different input-output order: y1 needs two
    # integrations of u1, y2 one of u2.
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    C = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SolverError) as excinfo:
        design_collab(AgentModel(A, B, C), delta=1.0)
    assert "uniform rank" in str(excinfo.value)


def test_unstabilizable_observer_pair_rejected_before_eta_search(monkeypatch):
    # The double integrator admits the protocol's structural conditions, but
    # the pair (A, C') that the observer Riccati solve is handed has an
    # uncontrollable mode at 0, so no eta can succeed.
    calls = []
    monkeypatch.setattr(cohsync.collab, "solve_dual_care_shifted", lambda *args: calls.append(args))
    model = AgentModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
    for eta_override in (None, 1.0):
        with pytest.raises(SolverError, match="not stabilizable"):
            design_collab(model, delta=1.0, eta_override=eta_override)
    assert calls == []


def test_grid_indexing():
    grid = reference_design().grid
    assert grid.index_for(1.0) == 0
    assert grid.index_for(1.05) == 1
    assert grid.index_for(1.049) == 0
    assert grid.index_for(grid.alpha_at(-15)) == -15
    assert grid.alpha_at(grid.index_for(0.5)) <= 0.5
    assert grid.alpha_at(grid.index_for(0.5) + 1) > 0.5
    with pytest.raises(ValueError):
        grid.index_for(0.0)


def test_grid_cell_solution_and_cache():
    design = reference_design()
    grid = design.grid
    assert 0 in grid.cached_indices()

    P, K = grid.cell(7)
    alpha = grid.alpha_at(7)
    residual = (
        design.A.T @ P
        + P @ design.A
        - alpha * P @ design.B @ design.B.T @ P
        + 2.0 * design.epsilon * P
        + design.CtC
    )
    assert np.max(np.abs(residual)) < 1e-8
    assert np.allclose(K, design.B.T @ P)
    assert min_eigenvalue_sym(P) > 0.0

    # Second lookup is the cached object; a from-scratch solve agrees.
    P2, _ = grid.cell(7)
    assert P2 is P
    fresh = solve_care(grid.A_shifted, grid.B, w_state=grid.CtC, gain_scale=alpha)
    assert np.max(np.abs(fresh - P)) < 1e-9


def test_grid_psd_monotone_and_vanishing():
    design = reference_design()
    grid = design.grid
    previous = None
    for k in range(0, 33, 4):
        P, _ = grid.cell(k)
        if previous is not None:
            assert min_eigenvalue_sym(previous - P) > -1e-9
        previous = P
    # Far out on the grid the whole family collapses toward zero.
    for k in (100, 200, 300, 380):
        P, _ = grid.cell(k)
    assert np.linalg.norm(grid.cell(380)[0], 2) < 1e-3


def test_solve_p_alpha_scalar_closed_forms():
    grid = p_alpha_family([[0.0]], [[1.0]], [[1.0]], 0.0)
    assert grid.solve_exact(4.0)[0, 0] == pytest.approx(0.5, rel=1e-10)
    assert grid.solve_exact(100.0)[0, 0] == pytest.approx(0.1, rel=1e-10)
    # General closed form p = (2 eps + sqrt(4 eps^2 + 4 alpha)) / (2 alpha).
    grid_eps = p_alpha_family([[0.0]], [[1.0]], [[1.0]], 0.3)
    alpha = 7.0
    expected = (0.6 + np.sqrt(0.36 + 4.0 * alpha)) / (2.0 * alpha)
    assert grid_eps.solve_exact(alpha)[0, 0] == pytest.approx(expected, rel=1e-10)


def test_solve_p_alpha_on_and_off_grid():
    design = reference_design()
    on_grid = solve_p_alpha(design, design.grid.alpha_at(3))
    assert design.grid.cell(3)[0] is on_grid

    off = solve_p_alpha(design, 1.3)
    residual = (
        design.A.T @ off
        + off @ design.A
        - 1.3 * off @ design.B @ design.B.T @ off
        + 2.0 * design.epsilon * off
        + design.CtC
    )
    assert np.max(np.abs(residual)) < 1e-8
    # Off-grid solves are not cached.
    assert all(abs(design.grid.alpha_at(k) - 1.3) > 1e-9 for k in design.grid.cached_indices())


def network_sums(design, Z, Z_tilde):
    """Rows [L x, L x_hat] whose measured part C (L x) is Z."""
    return np.hstack([np.asarray(Z, dtype=float) @ np.linalg.pinv(design.C).T, Z_tilde])


def one_agent(design, x_hat, rho, alpha, zeta, zeta_tilde):
    """The batched law on a single agent row: (dx_hat, drho, dalpha, u)."""
    PS = np.concatenate([np.asarray(x_hat, dtype=float), [rho, alpha]])[None, :]
    LS = network_sums(design, np.asarray(zeta, dtype=float)[None, :], np.asarray(zeta_tilde)[None, :])
    (dx, drho, dalpha), u, _, _ = collab_law(design, PS, LS, np.empty(PS.shape))
    return dx[0], drho[0, 0], dalpha[0, 0], u[0]


def test_equilibrium_all_derivatives_zero():
    design = reference_design()
    dx, drho, dalpha, u = one_agent(design, np.zeros(3), 0.0, 0.0, np.zeros(1), np.zeros(3))
    assert np.all(dx == 0.0)
    assert drho == 0.0
    assert dalpha == 0.0
    assert np.all(u == 0.0)


def test_gain_law_branch_boundaries():
    design = reference_design(delta=2.0)  # d = 0.5

    def gains(mismatch_energy, exchange_energy):
        zt = np.array([np.sqrt(exchange_energy), 0.0, 0.0])
        zeta = np.array([design.C @ zt - np.sqrt(mismatch_energy)]).reshape(-1)
        PS = np.concatenate([np.zeros(3), [1.0, 0.0]])[None, :]
        LS = network_sums(design, zeta[None, :], zt[None, :])
        (_, drho, dalpha), _, mismatch, exchange = collab_law(design, PS, LS, np.empty(PS.shape))
        assert mismatch[0] == pytest.approx(mismatch_energy, rel=1e-12)
        assert exchange[0] == pytest.approx(exchange_energy, rel=1e-12)
        return drho[0, 0], dalpha[0, 0]

    drho, dalpha = gains(design.d / 2.0, design.d / 4.0)
    assert drho == 0.0 and dalpha == 0.0

    drho, dalpha = gains(design.d, 0.6)
    assert drho == pytest.approx(design.d, rel=1e-12)
    assert dalpha == pytest.approx(0.6, rel=1e-12)

    drho, dalpha = gains(3.0, 2.0)
    assert drho == pytest.approx(3.0, rel=1e-12)
    assert dalpha == 1.0


def test_feedback_uses_quantized_grid_cell():
    design = reference_design()
    x_hat = np.array([0.4, -0.2, 0.1])
    zt = np.array([0.05, 0.0, -0.03])
    u = one_agent(design, x_hat, 0.7, 1.3, np.zeros(1), zt)[3]

    k = design.grid.index_for(1.3)
    P_cell, _ = design.grid.cell(k)
    expected = -1.3 * (design.B.T @ P_cell @ (x_hat + zt))
    assert np.allclose(u, expected, rtol=0, atol=1e-15)
    assert design.grid.alpha_at(k) <= 1.3


def test_unit_alpha_feedback_matches_fresh_solve():
    design = reference_design()
    x_hat = np.eye(3)[1]
    u = one_agent(design, x_hat, 0.0, 1.0, np.zeros(1), np.zeros(3))[3]
    fresh = solve_care(design.grid.A_shifted, design.B, w_state=design.CtC, gain_scale=1.0)
    assert np.allclose(u, -(design.B.T @ fresh @ x_hat), atol=1e-9)


def test_alpha_zero_means_pure_observer():
    design = reference_design()
    rng = np.random.default_rng(3)
    x_hat = rng.standard_normal(3)
    zeta = rng.standard_normal(1)
    zt = rng.standard_normal(3)
    dx, _, _, u = one_agent(design, x_hat, 2.0, 0.0, zeta, zt)
    assert np.all(u == 0.0)
    e = design.C @ zt - zeta
    assert np.allclose(dx, design.A @ x_hat - 2.0 * (design.QCt @ e), atol=0)


def test_observer_loop_independent_of_feedback_gain():
    # The observer error dynamics never see u: the law adds B u last to the
    # observer part, so dx_hat is the alpha = 0 value plus B u, bitwise.
    design = reference_design()
    rng = np.random.default_rng(5)
    for _ in range(50):
        x_hat = rng.standard_normal(3)
        zeta = rng.standard_normal(1)
        zt = rng.standard_normal(3)
        dx0, _, _, u0 = one_agent(design, x_hat, 1.5, 0.0, zeta, zt)
        assert np.all(u0 == 0.0)
        for alpha in (1.0, 7.3):
            dx, _, _, u = one_agent(design, x_hat, 1.5, alpha, zeta, zt)
            assert np.any(u != 0.0)
            assert np.array_equal(dx, dx0 + (u[None] @ design.B.T)[0])


def test_gains_never_decrease_and_alpha_rate_capped():
    design = reference_design()
    rng = np.random.default_rng(17)
    for _ in range(50):
        _, drho, dalpha, _ = one_agent(
            design,
            rng.standard_normal(3),
            float(rng.random() * 4),
            float(rng.random() * 4),
            rng.standard_normal(1) * 2,
            rng.standard_normal(3) * 2,
        )
        assert drho >= 0.0
        assert 0.0 <= dalpha <= 1.0


def test_dimension_mismatches_rejected():
    design = reference_design()
    with pytest.raises(ValueError):
        one_agent(design, np.zeros(3), 0.0, 0.0, np.zeros(1), np.zeros(2))
    with pytest.raises(ValueError):
        one_agent(design, np.zeros(2), 0.0, 0.0, np.zeros(1), np.zeros(3))
    with pytest.raises(ValueError):
        collab_law(design, np.zeros((1, 5)), np.zeros((1, 5)), np.empty((1, 5)))
    with pytest.raises(ValueError):
        collab_law(design, np.zeros((2, 5)), np.zeros((3, 6)), np.empty((2, 5)))


def test_batched_rows_match_single_agent_calls():
    # Rows in three different P_alpha cells and one with alpha = 0 share a
    # batch; the comparison is bitwise, as in the noncollaborative twin of
    # this test.
    design = reference_design()
    rng = np.random.default_rng(29)
    rho = [0.5, 2.0, 0.0, 1.2, 3.0]
    alpha = [1.0, 1.3, 2.7, 0.0, 1.31]
    PS = np.column_stack([rng.standard_normal((5, 3)), rho, alpha])
    Z = rng.standard_normal((5, 1))
    Z_tilde = rng.standard_normal((5, 3))
    assert len(set(design.grid.indices_for(PS[[0, 1, 2, 4], 4]).tolist())) == 3
    LS = network_sums(design, Z, Z_tilde)
    (dx, drho, dalpha), U, mismatch, exchange = collab_law(design, PS, LS, np.empty(PS.shape))
    for i in range(5):
        rows = slice(i, i + 1)
        (dx_i, drho_i, dalpha_i), U_i, mismatch_i, exchange_i = collab_law(
            design, PS[rows], LS[rows], np.empty((1, PS.shape[1]))
        )
        pairs = (
            (dx, dx_i),
            (drho, drho_i),
            (dalpha, dalpha_i),
            (U, U_i),
            (mismatch, mismatch_i),
            (exchange, exchange_i),
        )
        for batched, single in pairs:
            assert np.array_equal(batched[i], single[0])
            assert np.array_equal(np.signbit(batched[i]), np.signbit(single[0]))


def test_fused_law_matches_written_out_formulas():
    design = reference_design()
    n = design.n
    rng = np.random.default_rng(37)
    XH = rng.standard_normal((6, n))
    LX = rng.standard_normal((6, n))
    LXH = rng.standard_normal((6, n))
    RHO = rng.random(6) * 3.0
    AL = np.array([1.0, 1.3, 2.7, 0.0, 1.31, 0.4])  # cells 0, 5, 20, none, 5, -19

    Z = LX @ design.C.T
    Z_tilde = LXH
    Esig = Z_tilde @ design.C.T - Z
    U = np.zeros((6, design.m))
    for i in np.nonzero(AL)[0]:
        BtP = design.B.T @ design.grid.cell(design.grid.index_for(AL[i]))[0]
        U[i] = -AL[i] * (BtP @ (XH[i] + Z_tilde[i]))
    dXH = XH @ design.A.T + U @ design.B.T - RHO[:, None] * (Esig @ design.QCt.T)

    def close(a, b):
        return np.allclose(a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))

    F = np.hstack([XH, LX, LXH]) @ design.law_matrix
    p = design.p_out
    assert close(F[:, :n], XH @ design.A.T)
    assert close(F[:, n : 2 * n], Esig @ design.QCt.T)
    assert close(F[:, 2 * n : 3 * n] - XH, Z_tilde)
    assert close(F[:, 3 * n : 3 * n + p], Z_tilde @ design.C.T)
    assert close(F[:, 3 * n + p :], Esig)

    PS = np.column_stack([XH, RHO, AL])
    (dx, _, _), U_law, mismatch, exchange = collab_law(design, PS, np.hstack([LX, LXH]), np.empty(PS.shape))
    assert close(U_law, U)
    assert np.all(U_law[3] == 0.0)
    assert close(dx, dXH)
    assert close(mismatch, np.sum(Esig**2, axis=1))
    assert close(exchange, np.sum((Z_tilde @ design.C.T) ** 2, axis=1))


def test_gain_table_keeps_the_cells_of_per_cell_lookups():
    # The table only ever spans cells the outward walk from 0 solves anyway.
    alphas = [np.array([2.0, 2.1]), np.array([0.5]), np.array([3.0, 0.9, 2.05])]
    per_cell = p_alpha_family(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, 0.1)
    table = p_alpha_family(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, 0.1)
    for batch in alphas:
        rows = table.gain_rows(batch)
        for a, row in zip(batch, rows):
            expected = per_cell.cell(per_cell.index_for(a))[1]
            assert np.array_equal(row, expected)
        assert table.cached_indices() == per_cell.cached_indices()
