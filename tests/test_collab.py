"""Collaborative protocol design, the alpha-Riccati grid, and the batched runtime law."""

import dataclasses

import numpy as np
import pytest

import cohsync.collab
from cohsync.agents import AgentModel, check_assumptions
from cohsync.cli import build_design, load_bundled_manifest
from cohsync.collab import PAlphaGrid, design_collab, p_alpha_family
from cohsync.linalg import GainScaleOverflow, SlotProduct, SolverError, min_eigenvalue_sym, solve_care
from cohsync.simulate import SimConfig, simulate, stage_matrix
from cohsync.verification import seeded_minimum_phase_model

import golden
from care_oracle import oracle_care


def reference_model():
    return AgentModel(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, golden.COLLAB_E)


def reference_design(**kwargs):
    kwargs.setdefault("delta", 2.0)
    return design_collab(reference_model(), **kwargs)


def test_design_reproduces_known_observer_riccati():
    design = reference_design()
    assert np.allclose(design.Q, golden.COLLAB_Q_REF, atol=1e-3)
    assert np.allclose(design.QCt, golden.COLLAB_QCT_REF, atol=1e-3)
    residual = (
        design.A.T @ design.Q
        + design.Q @ design.A
        - design.Q @ design.grid.CtC @ design.Q
        + np.eye(3)
    )
    assert np.max(np.abs(residual)) < 1e-8
    assert min_eigenvalue_sym(design.Q) > 0.0


def observer_solve_etas(monkeypatch, model):
    # Design on model and return the eta of every observer Riccati solve.
    etas = []
    solve = cohsync.collab.solve_dual_care_shifted

    def spy(A, C, eta):
        etas.append(eta)
        return solve(A, C, eta)

    monkeypatch.setattr(cohsync.collab, "solve_dual_care_shifted", spy)
    assert design_collab(model, delta=1.0).eta == 1.0
    return etas


def test_eta_search_stops_at_one_here(monkeypatch):
    # There is no search any more: one observer solve, at eta = 1.
    assert observer_solve_etas(monkeypatch, reference_model()) == [1.0]


def test_eta_search_stops_at_one_on_an_ill_scaled_draw(monkeypatch):
    # Frobenius norm of A about 1e3: still one observer solve, at eta = 1.
    model, _ = seeded_minimum_phase_model(np.random.default_rng([5, 10]), 10)
    assert observer_solve_etas(monkeypatch, model) == [1.0]


def test_observer_solve_failures_are_not_retried(monkeypatch):
    def fail(A, C, eta):
        raise SolverError("no stabilizing solution")

    monkeypatch.setattr(cohsync.collab, "solve_dual_care_shifted", fail)
    with pytest.raises(SolverError, match="no stabilizing solution"):
        reference_design()
    monkeypatch.setattr(cohsync.collab, "solve_dual_care_shifted", lambda A, C, eta: -np.eye(3))
    with pytest.raises(SolverError, match="not positive definite at eta=1.0"):
        reference_design()


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


def test_assumption_gate_names_observability():
    model = AgentModel([[-1.0, 0.0], [0.0, -2.0]], [[1.0], [1.0]], [[1.0, 0.0]])
    with pytest.raises(SolverError) as excinfo:
        design_collab(model, delta=1.0)
    assert "observable" in str(excinfo.value)
    # An unstable mode invisible to C, and a zero at +1: every failing
    # condition is named, in full.
    model = AgentModel([[1.0, 0.0], [0.0, -1.0]], [[1.0], [1.0]], [[0.0, 1.0]])
    with pytest.raises(SolverError) as excinfo:
        design_collab(model, delta=1.0)
    assert str(excinfo.value) == (
        "model does not admit the collaborative protocol; failing conditions: observable, minimum-phase"
    )


def test_uniform_rank_gate():
    # Two decoupled chains of different input-output order: y1 needs two
    # integrations of u1, y2 one of u2.
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    C = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SolverError) as excinfo:
        design_collab(AgentModel(A, B, C), delta=1.0)
    assert "uniform rank" in str(excinfo.value)


def test_unstabilizable_observer_pair_rejected_before_observer_solve(monkeypatch):
    # The double integrator admits the protocol's structural conditions, but
    # the pair (A, C') that the observer Riccati solve is handed has an
    # uncontrollable mode at 0, so no eta can succeed.
    calls = []
    monkeypatch.setattr(cohsync.collab, "solve_dual_care_shifted", lambda *args: calls.append(args))
    model = AgentModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
    with pytest.raises(SolverError, match="not stabilizable"):
        design_collab(model, delta=1.0)
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
        + design.grid.CtC
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


def test_cells_depend_on_their_index_alone():
    # A fresh grid asked for cell k, a grid that walked there past other
    # requests, and a lone solve at alpha_at(k) give bitwise equal cells.
    fresh = p_alpha_family(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, 0.1)
    walked = p_alpha_family(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, 0.1)
    for k in (-9, 20, 5, -3):
        walked.cell(k)
    for k in (12, -6, 0):
        P, BtP = fresh.cell(k)
        assert np.array_equal(P, walked.cell(k)[0]) and np.array_equal(BtP, walked.cell(k)[1])
        lone = solve_care(fresh.A_shifted, fresh.B, w_state=fresh.CtC, gain_scale=fresh.alpha_at(k))
        assert np.array_equal(P, lone)
    # The walk from 0 still leaves no gap in the cache.
    assert fresh.cached_indices() == tuple(range(-6, 13))


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
    on_grid = design.grid.solve_exact(design.grid.alpha_at(3))
    assert design.grid.cell(3)[0] is on_grid

    off = design.grid.solve_exact(1.3)
    residual = (
        design.A.T @ off
        + off @ design.A
        - 1.3 * off @ design.B @ design.B.T @ off
        + 2.0 * design.epsilon * off
        + design.grid.CtC
    )
    assert np.max(np.abs(residual)) < 1e-8
    # Off-grid solves are not cached.
    assert all(abs(design.grid.alpha_at(k) - 1.3) > 1e-9 for k in design.grid.cached_indices())


def network_sums(design, Z, Z_tilde):
    """Rows [L x, L x_hat] whose measured part C (L x) is Z."""
    return np.hstack([np.asarray(Z, dtype=float) @ np.linalg.pinv(design.C).T, Z_tilde])


def law(design, PS, LS):
    """collab_law on protocol-state rows PS and network sums LS, through the
    stage product the integrator makes, at x = 0 and w = 0:
    ((dx_hat, drho, dalpha), U, mismatch, exchange)."""
    model = reference_model()
    n, rows = design.n, PS.shape[0]
    W = np.hstack([np.zeros((rows, n)), PS, LS, np.zeros((rows, model.w))])
    out = np.empty((rows, n + PS.shape[1]))
    rates, signals, _ = design.law(PS, SlotProduct(stage_matrix(model, design))(W), [out])
    rates(0)
    U, mismatch, exchange = signals()
    return (out[:, n : 2 * n], out[:, 2 * n : 2 * n + 1], out[:, 2 * n + 1 :]), U, mismatch, exchange


def one_agent(design, x_hat, rho, alpha, zeta, zeta_tilde):
    """The batched law on a single agent row: (dx_hat, drho, dalpha, u)."""
    PS = np.concatenate([np.asarray(x_hat, dtype=float), [rho, alpha]])[None, :]
    LS = network_sums(design, np.asarray(zeta, dtype=float)[None, :], np.asarray(zeta_tilde)[None, :])
    (dx, drho, dalpha), u, _, _ = law(design, PS, LS)
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
        (_, drho, dalpha), _, mismatch, exchange = law(design, PS, LS)
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


def test_alpha_rate_keeps_its_dead_zone_above_one():
    design = reference_design(delta=4.0)  # d = 2
    assert design.d == 2.0
    for exchange_energy, rate in ((1.0, 0.0), (1.5, 0.0), (1.99, 0.0), (2.5, 1.0), (3.0, 1.0)):
        PS = np.concatenate([np.zeros(3), [1.0, 0.5]])[None, :]
        zt = np.array([np.sqrt(exchange_energy), 0.0, 0.0])
        LS = network_sums(design, (design.C @ zt)[None, :], zt[None, :])
        (_, drho, dalpha), _, mismatch, exchange = law(design, PS, LS)
        assert exchange[0] == pytest.approx(exchange_energy, rel=1e-12)
        assert mismatch[0] < 1e-20 and drho[0, 0] == 0.0
        assert dalpha[0, 0] == rate


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
    fresh = solve_care(design.grid.A_shifted, design.B, w_state=design.grid.CtC, gain_scale=1.0)
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
        design.law(np.zeros((1, 5)), np.zeros((1, 13)), [np.empty((1, 8))])
    with pytest.raises(ValueError):
        design.law(np.zeros((2, 5)), np.zeros((3, 14)), [np.empty((2, 8))])
    with pytest.raises(ValueError):
        design.law(np.zeros((2, 5)), np.zeros((2, 14)), [np.empty((2, 5))])


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
    (dx, drho, dalpha), U, mismatch, exchange = law(design, PS, LS)
    for i in range(5):
        rows = slice(i, i + 1)
        (dx_i, drho_i, dalpha_i), U_i, mismatch_i, exchange_i = law(design, PS[rows], LS[rows])
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


@pytest.mark.parametrize("n", [3, 4, 6, 8, 9, 12, 16])
def test_law_bits_do_not_depend_on_layout_or_batch(n):
    # The stage derivative and the signals of every row are bitwise the same,
    # sign of zero included, whether PS, F and outs are stored row by row or
    # column by column, and whether the row is evaluated alone or in a batch
    # of 5.  Each batch has an alpha = 0 row and a row whose x_hat +
    # zeta_tilde is +-0, and F's columns span six decades.
    model, _ = seeded_minimum_phase_model(np.random.default_rng([n, 0]), n)
    design = design_collab(model, delta=1.0)
    rng = np.random.default_rng([n, 1])
    rows, state, width = 5, n + 2, 4 * n + 2 * design.p_out

    def evaluate(PS, F, order):
        """Per row, the bytes of its stage derivative, U, mismatch and exchange."""
        out = np.empty((PS.shape[0], 2 * n + 2), order=order)
        rates, signals, _ = design.law(np.array(PS, order=order), np.array(F, order=order), [out])
        rates(0)
        return [[a[i].tobytes() for a in (out, *signals())] for i in range(PS.shape[0])]

    for _ in range(20):
        alpha = 10.0 ** rng.uniform(-2.0, 2.0, rows)
        alpha[rng.integers(rows)] = 0.0
        PS = np.column_stack([rng.standard_normal((rows, n)), rng.random(rows) * 3.0, alpha])
        F = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-3, 4, width)
        F[rng.integers(rows), 3 * n : 4 * n] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        batch = evaluate(PS, F, "F")
        assert evaluate(PS, F, "C") == batch
        for i in range(rows):
            lone = slice(i, i + 1)
            assert evaluate(PS[lone], F[lone], "F") == evaluate(PS[lone], F[lone], "C") == [batch[i]]


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
    (dx, _, _), U_law, mismatch, exchange = law(design, PS, np.hstack([LX, LXH]))
    assert close(U_law, U)
    assert np.all(U_law[3] == 0.0)
    assert close(dx, dXH)
    assert close(mismatch, np.sum(Esig**2, axis=1))
    assert close(exchange, np.sum((Z_tilde @ design.C.T) ** 2, axis=1))


def test_gain_table_keeps_the_cells_of_per_cell_lookups():
    # The gather caches exactly the cells its alphas index, and its rows are
    # those of per-cell lookups, which walk from 0.
    alphas = [np.array([2.0, 2.1]), np.array([0.5]), np.array([3.0, 0.9, 2.05])]
    per_cell = p_alpha_family(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, 0.1)
    table = p_alpha_family(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, 0.1)
    gathered = set()
    for batch in alphas:
        rows = table.gain_rows(batch)
        for a, row in zip(batch, rows):
            expected = per_cell.cell(per_cell.index_for(a))[1]
            assert np.array_equal(row, expected)
        gathered |= set(table.indices_for(batch).tolist())
        assert table.cached_indices() == tuple(sorted(gathered))


def care_solve_alphas(monkeypatch, calls=None):
    # The alpha of every Riccati solve the grid makes from now on, in
    # order.  One solve_care call solves the whole family of its gain_scale
    # list; calls, when given, collects those lists, one per call.
    alphas = []
    solve = cohsync.collab.solve_care

    def spy(*args, **kwargs):
        alphas.extend(kwargs["gain_scale"])
        if calls is not None:
            calls.append(list(kwargs["gain_scale"]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(cohsync.collab, "solve_care", spy)
    return alphas


def test_a_run_caches_only_the_cells_its_gathers_index(monkeypatch):
    # A short run from the bundled alpha0 = 4, from ten times the seeded
    # states so that alpha crosses cells: the grid ends with cell 0, which
    # the design seeds, and the cells of the alphas gain_rows received,
    # each solved once; none of the cells 1..27 below them.
    solved = care_solve_alphas(monkeypatch)
    manifest = dataclasses.replace(load_bundled_manifest("col-vicsek-n5"), t_end=1.0)
    design = build_design(manifest)
    grid = design.grid
    received = []
    gain_rows = grid.gain_rows

    def spy(a):
        received.append(np.array(a))
        return gain_rows(a)

    monkeypatch.setattr(grid, "gain_rows", spy)
    g = np.arange(1, manifest.graph.n_nodes + 1)
    x0 = 10.0 * np.stack([np.random.default_rng([manifest.seed, i]).uniform(-1.0, 1.0, design.n) for i in g])
    run = simulate(
        SimConfig(
            model=manifest.model,
            graph=manifest.graph,
            design=design,
            disturbance=manifest.disturbance,
            dt=manifest.dt,
            t_end=manifest.t_end,
            seed=manifest.seed,
            record_stride=manifest.record_stride,
            initial_states=x0,
            initial_alpha=manifest.alpha0,
        )
    )
    assert manifest.alpha0 == 4.0 and run.alpha[-1].max() > grid.alpha_at(29)
    cells = set(grid.indices_for(np.concatenate(received)).tolist())
    assert len(cells) >= 2 and min(cells) == grid.index_for(4.0) == 28
    assert grid.cached_indices() == tuple(sorted(cells | {0}))
    assert sorted(solved) == [grid.alpha_at(k) for k in grid.cached_indices()]


def test_a_gather_far_below_cell_0_solves_its_cell_alone(monkeypatch):
    grid = reference_design().grid
    solved = care_solve_alphas(monkeypatch)
    k = grid.index_for(1e-6)
    assert k == -284
    row = grid.gain_rows(np.array([1e-6]))
    assert solved == [grid.alpha_at(k)]  # not the 285 cells of the walk to 0
    assert grid.cached_indices() == (k, 0)
    lone = solve_care(grid.A_shifted, grid.B, w_state=grid.CtC, gain_scale=grid.alpha_at(k))
    assert np.array_equal(row[0], grid.B.T @ lone)


def test_cell_walk_fills_the_gaps_gathers_leave(monkeypatch):
    grid = reference_design().grid
    solved = care_solve_alphas(monkeypatch)
    rows = grid.gain_rows(np.array([grid.alpha_at(9), grid.alpha_at(-5), 2.0]))
    assert grid.cached_indices() == (-5, 0, 9, 14)
    grid.cell(12)
    assert grid.cached_indices() == (-5, *range(13), 14)
    grid.cell(-8)
    assert grid.cached_indices() == (*range(-8, 13), 14)
    # Each cell solved once, and the gathered rows are those of the cells.
    assert sorted(solved) == [grid.alpha_at(k) for k in grid.cached_indices() if k != 0]
    for row, k in zip(rows, (9, -5, 14)):
        assert np.array_equal(row, grid.cell(k)[1])
    assert np.array_equal(grid.gain_rows(np.array([grid.alpha_at(3)]))[0], grid.cell(3)[1])
    assert len(solved) == 21


def test_cells_solves_the_cells_asked_for_alone(monkeypatch):
    grid = reference_design().grid
    calls = []
    solved = care_solve_alphas(monkeypatch, calls)
    Ps = grid.cells(range(0, 9, 4))
    assert solved == [grid.alpha_at(4), grid.alpha_at(8)]  # cell 0 was cached, and no walk
    assert calls == [solved]  # both cells in one solve
    assert grid.cached_indices() == (0, 4, 8)
    fresh = reference_design().grid
    assert all(np.array_equal(P, fresh.cell(k)[0]) for P, k in zip(Ps, (0, 4, 8)))
    # A request that solves nothing, on this grid or on one with no cell
    # cached, leaves the cache and the gather table as they are.
    empty = p_alpha_family([[0.0]], [[1.0]], [[1.0]], 0.0)
    calls.clear()
    for g, request in ((grid, []), (grid, [8, 0, 8]), (empty, [])):
        cached, table = g.cached_indices(), (g._lo, g._points, g._solved, g._table)
        assert [P.tobytes() for P in g.cells(request)] == [g.cell(k)[0].tobytes() for k in request]
        assert g.cached_indices() == cached
        assert all(a is b for a, b in zip((g._lo, g._points, g._solved, g._table), table))
    assert calls == []


def test_a_request_raises_its_first_failing_cell_and_caches_the_cells_before_it():
    # A family with an indefinite weight, solved alone cell by cell: cells
    # -17 and -16 solve, cell -15 is the first to fail, at the contract
    # check (its P is not positive semidefinite), and cell 11 fails in the
    # ordered Schur start.  One request of cells -17..11 must raise cell
    # -15's error with its solo message and cache exactly -17 and -16.
    rng = np.random.default_rng(17)
    A, B, W = rng.standard_normal((2, 2)), rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    grid = PAlphaGrid(A, B, W + W.T)
    ks = range(-17, 12)
    solos = {k: oracle_care(grid.A_shifted, grid.B, grid.CtC, grid.alpha_at(k)) for k in ks}
    failed = [k for k in ks if solos[k].stage]
    j, k = failed[0], failed[-1]
    assert (j, solos[j].stage, k, solos[k].stage) == (-15, "validate", 11, "start")
    with pytest.raises(SolverError) as excinfo:
        grid.cells(ks)
    assert str(excinfo.value) == (
        "P_alpha cell -15 (alpha 0.481017) has no solution: Riccati solution is not positive semidefinite"
    )
    assert str(excinfo.value) == f"P_alpha cell {j} (alpha {grid.alpha_at(j):.6g}) has no solution: {solos[j].result}"
    assert grid.cached_indices() == (-17, -16)
    for i in (-17, -16):
        assert grid.cell(i)[0].tobytes() == solos[i].result.tobytes()
    # A gather through the cells the failed request cached still reads
    # their rows, and a gather that reaches cell 11 names it.
    assert np.array_equal(grid.gain_rows(np.array([grid.alpha_at(-16)]))[0], grid.B.T @ solos[-16].result)
    with pytest.raises(SolverError, match=r"P_alpha cell 11 \(alpha .*\) has no solution: the Hamiltonian has"):
        grid.gain_rows(np.array([grid.alpha_at(11)]))


@pytest.mark.parametrize(
    "n, k, alpha", [(2, 7200, "3.65555e+152"), (3, 8000, "3.26883e+169"), (2, 14500, "1.75726e+307")]
)
def test_a_cell_too_far_out_for_double_precision_says_so(n, k, alpha):
    # Far out on the grid the Newton step (K'K / alpha) or, further out,
    # the Hamiltonian (alpha BB') overflows; the error names the cell and
    # that cause, not the non-finite matrix a solver met on the way.
    model, _ = seeded_minimum_phase_model(np.random.default_rng([n, 0]), n)
    grid = p_alpha_family(model.A, model.B, model.C, 0.1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverError) as info:
        grid.cells([0, k])
    assert str(info.value) == (
        f"P_alpha cell {k} (alpha {alpha}) has no solution: "
        "alpha_k is too large for the family to be solved in double precision"
    )
    assert isinstance(info.value.__cause__, GainScaleOverflow)
    assert grid.cached_indices() == (0,)


def test_indices_for_rejects_non_finite_and_non_positive_alphas():
    grid = reference_design().grid
    for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            grid.indices_for(np.array([1.0, bad]))
        with pytest.raises(ValueError, match="positive and finite"):
            grid.index_for(bad)
        with pytest.raises(ValueError, match="positive and finite"):
            grid.gain_rows(np.array([bad, 2.0]))
    assert grid.cached_indices() == (0,)  # no walk started
    assert grid.indices_for(np.zeros((0,))).shape == (0,)


def test_gather_matches_the_masked_per_cell_path(monkeypatch):
    # Alphas at exact powers of the ratio, one ulp to either side, and
    # alpha = 0, in one batch.
    design = reference_design()
    grid = design.grid
    powers = [grid.alpha_at(k) for k in (-4, 1, 6, 13)]
    alphas = [0.0] + powers + [np.nextafter(a, 0.0) for a in powers]
    alphas += [np.nextafter(a, np.inf) for a in powers] + [0.0]
    AL = np.array(alphas)
    on = AL > 0.0
    rows = AL.size
    rng = np.random.default_rng(41)
    XH, LX, LXH = (rng.standard_normal((rows, design.n)) for _ in range(3))
    # On the alpha = 0 rows, x_hat + zeta_tilde = +-B'P_0: the feedback of
    # cell 0 would have either sign there.
    LXH[~on] = 0.0
    XH[~on] = np.array([[1.0], [-1.0]]) * grid.cell(0)[1][0]
    PS = np.column_stack([XH, rng.random(rows) * 2.0, AL])

    gathered = []
    gain_rows = grid.gain_rows

    def spy(a):
        blocks = gain_rows(a)
        gathered.append((np.array(a), blocks))
        return blocks

    monkeypatch.setattr(grid, "gain_rows", spy)
    (dx, _, _), U, _, _ = law(design, PS, np.hstack([LX, LXH]))
    ((a, blocks),) = gathered
    ks = grid.indices_for(AL[on])
    assert np.array_equal(grid.indices_for(a)[on], ks)
    assert set(ks.tolist()) >= {-4, 1, 6, 13}
    for block, k in zip(blocks[on], ks):
        assert np.array_equal(block, grid.cell(k)[1])

    def column_sums(blocks, XZ):
        """blocks[i] @ XZ[i], each entry summed from +0 in column order."""
        total = np.zeros(blocks.shape[:2])
        for k in range(XZ.shape[1]):
            total += blocks[:, :, k] * XZ[:, k, None]
        return total

    # The masked path: gather only the rows with alpha > 0.
    fresh = reference_design().grid
    masked = np.zeros((rows, design.m))
    masked[on] = -AL[on, None] * column_sums(fresh.gain_rows(AL[on]), (XH + LXH)[on])
    assert np.array_equal(U[on], masked[on])
    assert np.all(U[~on] == 0.0) and not np.any(np.signbit(U[~on]))

    # Both grids hold the gathered cells and the cell 0 their design seeded.
    assert grid.cached_indices() == fresh.cached_indices() == tuple(sorted({0, *ks.tolist()}))


def test_cell_rule_is_exact_at_and_beside_grid_points():
    grid = reference_design().grid
    points = [grid.alpha_at(k) for k in range(-300, 300)]
    alphas = np.array([a for p in points for a in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))])
    ks = grid.indices_for(alphas)
    for a, k in zip(alphas.tolist(), ks.tolist()):
        assert grid.index_for(a) == k
        assert grid.alpha_at(k) <= a < grid.alpha_at(k + 1)
    assert np.array_equal(ks, np.repeat(np.arange(-300, 300), 3) + np.tile([-1, 0, 0], 600))
    huge = grid.index_for(np.finfo(float).max)
    assert grid.alpha_at(huge) <= np.finfo(float).max < grid.alpha_at(huge + 1) == np.inf


def test_searchsorted_gather_equals_indices_for(monkeypatch):
    grid = reference_design().grid
    grid.cell(-12)
    grid.cell(12)  # the table spans -12..12, every cell solved
    points = [grid.alpha_at(k) for k in range(-12, 13)]
    inside = np.array([a for p in points for a in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))][1:])
    inside = np.append(inside, np.nextafter(grid.alpha_at(13), 0.0))
    ks = grid.indices_for(inside)

    def no_lookup(alphas):
        raise AssertionError("an alpha inside the table took the rebuild path")

    with monkeypatch.context() as patch:
        patch.setattr(grid, "indices_for", no_lookup)
        blocks = grid.gain_rows(inside)
    for block, k in zip(blocks, ks.tolist()):
        assert np.array_equal(block, grid.cell(k)[1])
    # Just outside the table on either side, and far outside: rebuilt.
    outside = np.array([np.nextafter(grid.alpha_at(-12), 0.0), grid.alpha_at(13), 2.0**10])
    blocks = grid.gain_rows(outside)
    for block, k in zip(blocks, grid.indices_for(outside).tolist()):
        assert np.array_equal(block, grid.cell(k)[1])
    expected = set(range(-12, 13)) | set(grid.indices_for(outside).tolist())
    assert grid.cached_indices() == tuple(sorted(expected))


def test_gains_reused_while_the_alpha_column_keeps_its_bits(monkeypatch):
    # One binding driven through a sequence of alpha columns must give,
    # after every stage, the bits of a law freshly bound on copies of the
    # same arrays, and gather B'P_k only when the column's bits change.
    design, fresh_design = reference_design(), reference_design()
    grid, model = design.grid, reference_model()
    n, rows = design.n, 6
    k3 = grid.alpha_at(3)
    columns = [[0.0, 0.0, 1.0, 2.5, k3, 0.7]]
    columns.append(columns[-1])  # unchanged
    columns.append(columns[-1])
    columns.append([0.0, 0.0, 1.0, 2.5, np.nextafter(k3, 0.0), 0.7])  # cell 3 -> 2
    columns.append([0.3, 0.0, 1.0, 2.5, np.nextafter(k3, 0.0), 0.7])  # the mask changes
    columns.append([0.3, -0.0, 1.0, 2.5, np.nextafter(k3, 0.0), 0.7])  # only a sign bit
    columns.append([0.3, 1.2, 1.0, 2.5, np.nextafter(k3, 0.0), 0.7])  # every row on
    columns.append(columns[-1])
    columns.append([0.3, 1.2, 0.0, 2.5, 0.0, 0.7])  # on and off rows mixed
    columns.append(columns[-1])

    gathered = []
    gain_rows = grid.gain_rows

    def spy(a):
        gathered.append(np.array(a))
        return gain_rows(a)

    monkeypatch.setattr(grid, "gain_rows", spy)
    M = stage_matrix(model, design)
    W = np.zeros((rows, M.shape[0]))
    PS = W[:, n : 2 * n + 2]
    F = SlotProduct(M)(W)
    outs = [np.empty((rows, 2 * n + 2)) for _ in range(4)]
    rates, signals, _ = design.law(PS, F, outs)
    rng = np.random.default_rng(43)
    expected_gathers = 0
    for step, column in enumerate(columns):
        XH, LX, LXH = (rng.standard_normal((rows, n)) for _ in range(3))
        XH[2] = -LXH[2]  # x_hat + zeta_tilde = +0: U is -0 there while alpha > 0
        W[:, : PS.shape[1] + n] = np.column_stack([np.zeros((rows, n)), XH, rng.random(rows), column])
        W[:, 2 * n + 2 : 4 * n + 2] = np.hstack([LX, LXH])
        F[:] = SlotProduct(M)(W)
        j = step % 4
        rates(j)
        U, mismatch, exchange = signals()

        fresh_out = np.empty_like(outs[j])
        fresh_rates, fresh_signals, _ = fresh_design.law(PS.copy(), F.copy(), [fresh_out])
        fresh_rates(0)
        assert outs[j].tobytes() == fresh_out.tobytes()
        for got, want in zip((U, mismatch, exchange), fresh_signals()):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        AL = PS[:, -1:]
        assert U.tobytes() == np.where(AL > 0.0, U, 0.0).tobytes()
        assert not np.any(np.signbit(U[AL[:, 0] <= 0.0]))
        assert np.all(U[2] == 0.0) and np.all(np.signbit(U[2]) == (column[2] > 0.0))

        expected_gathers += step == 0 or np.array(column).tobytes() != np.array(columns[step - 1]).tobytes()
        assert len(gathered) == expected_gathers
    assert expected_gathers == 6


@pytest.mark.parametrize(
    "failure",
    [SolverError("no convergence"), np.linalg.LinAlgError("schur failed"), ValueError("W contains non-finite entries")],
)
def test_an_unsolvable_cell_names_itself(monkeypatch, failure):
    grid = p_alpha_family(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, 0.1)

    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cohsync.collab, "solve_care", fail)
    with pytest.raises(SolverError, match=r"P_alpha cell 7 \(alpha 1\.4071\) has no solution: " + str(failure)) as info:
        grid.gain_rows(np.array([1.05**7 * 1.01]))
    assert info.value.__cause__ is failure
    assert grid.cached_indices() == ()
