"""Noncollaborative protocol design and its batched runtime law."""

import numpy as np
import pytest

from cohsync.agents import AgentModel
from cohsync.linalg import SlotProduct, SolverError
from cohsync.noncollab import design_noncollab
from cohsync.simulate import stage_matrix
from cohsync.verification import seeded_minimum_phase_model

import golden


def reference_model():
    return AgentModel(golden.NONCOLLAB_A, golden.NONCOLLAB_B, golden.NONCOLLAB_C, golden.NONCOLLAB_E)


def reference_design(**kwargs):
    kwargs.setdefault("delta", 1.0)
    return design_noncollab(
        reference_model(),
        s_override=golden.NONCOLLAB_S,
        t_override=golden.NONCOLLAB_T,
        h1_override=golden.NONCOLLAB_H1,
        **kwargs,
    )


# Known lambda_min of the Riccati solution for the reference model; the
# delta -> d chain tests below depend on it.
LAMBDA_MIN_P = 0.23222407147798296


def test_design_reproduces_known_riccati_solution():
    design = reference_design()
    assert np.allclose(design.P, golden.NONCOLLAB_P_REF, atol=1e-3)
    assert np.allclose(design.gain_row[0], golden.NONCOLLAB_GAIN_ROW_REF, atol=1e-3)
    assert np.allclose(design.kernel, golden.NONCOLLAB_KERNEL_REF, atol=2e-3)


def test_design_riccati_residual_and_positivity():
    design = reference_design()
    At = design.transform.A_tilde
    Bt = design.B_tilde
    residual = At.T @ design.P + design.P @ At - design.P @ Bt @ Bt.T @ design.P + np.eye(4)
    assert np.max(np.abs(residual)) < 1e-8
    assert design.lambda_min_p > 0.0
    assert design.lambda_min_p == pytest.approx(LAMBDA_MIN_P, rel=1e-9)


def test_design_observer_gain_accepted_and_hurwitz():
    design = reference_design()
    assert np.allclose(design.H1, golden.NONCOLLAB_H1)
    closed = design.transform.A11 + design.H1 @ design.transform.C1
    assert np.max(np.linalg.eigvals(closed).real) < 0.0


def test_scalar_chain_defaults():
    design = reference_design(delta=1.0)
    assert design.cs_norm == pytest.approx(1.0, abs=1e-12)
    assert design.delta_1 == pytest.approx(LAMBDA_MIN_P, rel=1e-9)
    assert design.delta_bar == pytest.approx(0.9 * LAMBDA_MIN_P, rel=1e-9)
    assert design.d == pytest.approx(0.81 * LAMBDA_MIN_P, rel=1e-9)
    assert 0.0 < design.d < design.d_upper_bound()


def test_delta_scaling_leaves_p_alone():
    one = reference_design(delta=1.0)
    two = reference_design(delta=2.0)
    assert np.array_equal(one.P, two.P)
    assert two.delta_1 == pytest.approx(4.0 * one.delta_1, rel=1e-12)
    assert two.d == pytest.approx(4.0 * one.d, rel=1e-12)


def test_d_override_validated_against_bound():
    # delta = 1 leaves headroom of only 0.9 * lambda_min ~ 0.209, so the
    # printed experiment value d = 0.5 needs a larger delta.
    with pytest.raises(ValueError):
        reference_design(delta=1.0, d_override=0.5)
    design = reference_design(delta=2.0, d_override=0.5)
    assert design.d == 0.5
    assert 0.5 < design.d_upper_bound()
    with pytest.raises(ValueError):
        reference_design(delta=2.0, d_override=-0.1)
    with pytest.raises(ValueError):
        reference_design(delta=2.0, d_override=design.d_upper_bound() * 1.01)


def test_delta_inferred_from_d_round_trips():
    design = reference_design(delta=None, d_override=0.5)
    assert design.d == 0.5
    expected_delta = np.sqrt(0.5 * design.cs_norm / (0.81 * design.lambda_min_p))
    assert design.delta == pytest.approx(expected_delta, rel=1e-12)
    # The inferred delta puts d exactly at its default fraction.
    redesign = reference_design(delta=design.delta)
    assert redesign.d == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        reference_design(delta=None, d_override=None)


def test_assumption_gate_names_failing_condition():
    # Double integrator with an inverted output mix has a zero at +1.
    bad = AgentModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[-1.0, 1.0]])
    with pytest.raises(SolverError) as excinfo:
        design_noncollab(bad, delta=1.0)
    assert "minimum-phase" in str(excinfo.value)
    # An unstable mode invisible to C, and a zero at +1: every failing
    # condition is named, in full.
    model = AgentModel([[1.0, 0.0], [0.0, -1.0]], [[1.0], [1.0]], [[0.0, 1.0]])
    with pytest.raises(SolverError) as excinfo:
        design_noncollab(model, delta=1.0)
    assert str(excinfo.value) == (
        "model does not admit the noncollaborative protocol; failing conditions: detectable, minimum-phase"
    )


def law(design, PS, Z):
    """noncollab_law on protocol-state rows PS and measurements Z, through
    the stage product the integrator makes, at x = 0 and w = 0:
    ((dxi1, drho), U, proxy, exchange)."""
    model = reference_model()
    n, rows = design.n, PS.shape[0]
    LX = np.asarray(Z, dtype=float) @ np.linalg.pinv(model.C).T  # C (L x) = Z
    W = np.hstack([np.zeros((rows, n)), PS, LX, np.zeros((rows, model.w))])
    out = np.empty((rows, n + PS.shape[1]))
    rates, signals, _ = design.law(PS, SlotProduct(stage_matrix(model, design))(W), [out])
    rates(0)
    U, proxy, exchange = signals()
    return (out[:, n : n + design.n1], out[:, n + design.n1 :]), U, proxy, exchange


def one_agent(design, xi1_hat, rho, zeta):
    """The batched law on a single agent row: (dxi1, drho, u, proxy)."""
    PS = np.append(np.asarray(xi1_hat, dtype=float), rho)[None, :]
    Z = np.asarray(zeta, dtype=float)[None, :]
    (dxi1, drho), u, proxy, exchange = law(design, PS, Z)
    assert exchange is None
    return dxi1[0], drho[0, 0], u[0], proxy[0]


def measurement_for(design, xi1_hat, xi_tail):
    """A measurement whose split puts xi_tail into the estimate's tail."""
    k = design.p_out - design.m
    return np.linalg.solve(design.transform.T, np.concatenate([np.zeros(k), xi_tail]))


def test_equilibrium_all_derivatives_zero():
    design = reference_design()
    dxi1, drho, u, proxy = one_agent(design, np.zeros(3), 0.0, np.zeros(2))
    assert np.all(dxi1 == 0.0)
    assert drho == 0.0
    assert np.all(u == 0.0)
    assert proxy == 0.0


def test_zero_measurement_keeps_rho_frozen():
    design = reference_design()
    dxi1, drho, u, _ = one_agent(design, np.zeros(3), 3.5, np.zeros(2))
    assert np.all(dxi1 == 0.0)
    assert drho == 0.0
    assert np.all(u == 0.0)


def test_dead_zone_branches():
    design = reference_design()
    # Scale a probe estimate to straddle the threshold from both sides.
    probe = np.array([1.0, -0.5, 0.25])
    zeta = np.zeros(2)
    quad = one_agent(design, probe, 1.0, zeta)[3]
    below = probe * np.sqrt(0.5 * design.d / quad)
    above = probe * np.sqrt(2.0 * design.d / quad)

    drho_below = one_agent(design, below, 1.0, zeta)[1]
    assert drho_below == 0.0

    drho_above = one_agent(design, above, 1.0, zeta)[1]
    xi = np.concatenate([above, [0.0]])
    assert drho_above == pytest.approx(float(xi @ design.kernel @ xi), rel=1e-12)
    assert drho_above > 0.0


def test_unit_estimate_reproduces_gain_row():
    design = reference_design()
    # Unit vectors in the estimate space: first three via the observer
    # state, the last via the measured tail (T is identity here).
    for j in range(4):
        if j < 3:
            xi1 = np.eye(3)[j]
            zeta = np.zeros(2)
        else:
            xi1 = np.zeros(3)
            zeta = np.array([0.0, 1.0])
        u = one_agent(design, xi1, 1.0, zeta)[2]
        assert u.shape == (1,)
        assert u[0] == pytest.approx(-design.gain_row[0, j], abs=1e-15)
        assert u[0] == pytest.approx(-golden.NONCOLLAB_GAIN_ROW_REF[j], abs=1e-3)


def test_proxy_is_rayleigh_quotient():
    design = reference_design()

    def proxy_of(xi):
        return one_agent(design, xi[:3], 0.0, measurement_for(design, xi[:3], xi[3:]))[3]

    lam, vecs = np.linalg.eigh(design.P)
    v = vecs[:, 0]
    assert proxy_of(v) == pytest.approx(lam[0], rel=1e-12)
    assert proxy_of(np.zeros(4)) == 0.0

    rng = np.random.default_rng(7)
    for _ in range(10):
        xi = rng.standard_normal(4)
        direct = sum(design.P[a, b] * xi[a] * xi[b] for a in range(4) for b in range(4))
        assert proxy_of(xi) == pytest.approx(direct, rel=1e-12)


def test_rho_derivative_never_negative():
    design = reference_design()
    rng = np.random.default_rng(11)
    for _ in range(50):
        drho = one_agent(
            design, rng.standard_normal(3) * 3.0, float(rng.random() * 5.0), rng.standard_normal(2) * 3.0
        )[1]
        assert drho >= 0.0


def test_measurement_split_uses_output_mix():
    # T is the identity for the reference design, so the split is a slice:
    # zeta_1 = 0.7 enters the observer innovation, zeta_2 = -0.3 the
    # estimate's measured tail.
    design = reference_design()
    tr = design.transform
    dxi1, _, u, _ = one_agent(design, np.zeros(3), 1.0, [0.7, -0.3])
    assert np.allclose(dxi1, tr.A12 @ [-0.3] - design.H1 @ [0.7], rtol=0, atol=1e-15)
    assert u[0] == pytest.approx(0.3 * design.gain_row[0, 3], rel=1e-15)

    # The automatic transform mixes (here: flips and scales) the outputs.
    mixed = design_noncollab(reference_model(), delta=1.0)
    tr = mixed.transform
    assert not np.allclose(tr.T, np.eye(2))
    zeta = np.array([0.7, -0.3])
    zeta1, zeta2 = np.split(tr.T @ zeta, [mixed.p_out - mixed.m])
    dxi1, _, u, _ = one_agent(mixed, np.zeros(3), 1.0, zeta)
    assert np.allclose(dxi1, tr.A12 @ zeta2 - mixed.H1 @ zeta1, rtol=1e-12, atol=1e-15)
    assert np.allclose(u, -(mixed.gain_row[:, 3:] @ zeta2), rtol=1e-12, atol=1e-15)


def test_dimension_mismatches_rejected():
    design = reference_design()
    with pytest.raises(ValueError):
        one_agent(design, np.zeros(3), 0.0, np.zeros(3))
    with pytest.raises(ValueError):
        one_agent(design, np.zeros(2), 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        design.law(np.zeros((2, 4)), np.zeros((3, 20)), [np.empty((2, 8))])
    with pytest.raises(ValueError):
        design.law(np.zeros((2, 4)), np.zeros((2, 20)), [np.empty((2, 4))])
    with pytest.raises(ValueError):
        design_noncollab(reference_model(), delta=-1.0)


def test_batched_rows_match_single_agent_calls():
    # Bitwise, the sign of a zero included: the stage product sums each
    # row's terms from +0 in order (linalg.SlotProduct), so its rows round
    # as in any batch.
    design = reference_design()
    rng = np.random.default_rng(23)
    PS = np.hstack([rng.standard_normal((5, 3)), rng.random((5, 1)) * 4.0])
    Z = rng.standard_normal((5, 2))
    # Two agents sit at equilibrium, so the batch straddles the dead zone.
    PS[1, :3] = Z[1] = 0.0
    PS[3, :3] = Z[3] = 0.0
    (dxi1, drho), U, proxy, _ = law(design, PS, Z)
    assert np.any(drho[:, 0] > 0.0) and np.any(drho[:, 0] == 0.0)
    for i in range(5):
        (dxi1_i, drho_i), U_i, proxy_i, _ = law(design, PS[i : i + 1], Z[i : i + 1])
        for batched, single in ((dxi1, dxi1_i), (drho, drho_i), (U, U_i), (proxy, proxy_i)):
            assert np.array_equal(batched[i], single[0])
            assert np.array_equal(np.signbit(batched[i]), np.signbit(single[0]))


def test_trigger_sums_add_their_terms_in_column_order():
    # proxy = xi_hat' P xi_hat over n = 12 terms and the rho rate's
    # |gain_row xi_hat|^2 are sums from +0 in column order, for a batch
    # and for each of its agents alone, so a lone agent's row is its row
    # in the batch bit for bit, also when its row is contiguous (where
    # einsum's vectorized loop would round it otherwise).
    model, _ = seeded_minimum_phase_model(np.random.default_rng([12, 0]), 12)
    design = design_noncollab(model, delta=1.0)
    n, n1, m, rows = design.n, design.n1, design.m, 25
    rng = np.random.default_rng(29)
    width = 4 * n + n1 + m
    F = np.asfortranarray(rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-3, 4, width))
    PS = rng.random((rows, n1 + 1))
    i = n + n1
    XH, XHP, NGX = F[:, i : i + n], F[:, i + n : i + 2 * n], F[:, i + 2 * n : i + 2 * n + m]

    def column_sum(terms):
        total = 0.0
        for t in terms:
            total += t
        return total

    proxy = [column_sum(a * b for a, b in zip(x, y)) for x, y in zip(XH.tolist(), XHP.tolist())]
    drive = [column_sum(g * g for g in row) for row in NGX.tolist()]
    drho = np.array([r if p >= design.d else 0.0 for r, p in zip(drive, proxy)])
    assert np.any(drho > 0.0) and np.any(drho == 0.0)
    lone = [slice(j, j + 1) for j in range(rows)]
    for batch, FB in [(slice(0, rows), F)] + [(b, F[b]) for b in lone] + [(b, F[b].copy()) for b in lone]:
        out = np.empty((n + n1 + 1, batch.stop - batch.start)).T
        rates, signals, _ = design.law(PS[batch], FB, [out])
        rates(0)
        assert signals()[1].tobytes() == np.array(proxy[batch]).tobytes()
        assert out[:, -1].tobytes() == drho[batch].tobytes()


def test_bad_observer_override_rejected():
    model = reference_model()
    with pytest.raises(SolverError):
        design_noncollab(
            model,
            delta=1.0,
            s_override=golden.NONCOLLAB_S,
            t_override=golden.NONCOLLAB_T,
            h1_override=np.array([[5.0], [0.0], [0.0]]),
        )
    with pytest.raises(ValueError):
        design_noncollab(
            model,
            delta=1.0,
            s_override=golden.NONCOLLAB_S,
            t_override=golden.NONCOLLAB_T,
            h1_override=np.zeros((2, 1)),
        )


@pytest.mark.parametrize("automatic", [False, True])
def test_fused_law_matches_written_out_formulas(automatic):
    # The automatic transform's T mixes the outputs; the reference one is I.
    design = design_noncollab(reference_model(), delta=1.0) if automatic else reference_design()
    tr = design.transform
    assert np.allclose(tr.T, np.eye(2)) != automatic
    n1, k = design.n1, design.p_out - design.m
    rng = np.random.default_rng(31)
    XI1 = rng.standard_normal((7, n1))
    RHO = rng.random((7, 1)) * 3.0
    Z = rng.standard_normal((7, design.p_out))

    ZT = Z @ tr.T.T
    Z1, Z2 = ZT[:, :k], ZT[:, k:]
    dXI1 = XI1 @ tr.A11.T + Z2 @ tr.A12.T + (XI1 @ tr.C1.T - Z1) @ design.H1.T
    xi_hat = np.hstack([XI1, Z2])
    U = -RHO * (xi_hat @ design.gain_row.T)
    proxy = np.einsum("ij,jk,ik->i", xi_hat, design.P, xi_hat)
    drho = np.einsum("ij,jk,ik->i", xi_hat, design.kernel, xi_hat)

    def close(a, b):
        return np.allclose(a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))

    F = np.hstack([XI1, Z]) @ design.law_matrix
    assert close(F[:, :n1], dXI1)
    assert close(F[:, n1 : n1 + design.n], xi_hat)
    assert close(F[:, n1 + 2 * design.n :], -(xi_hat @ design.gain_row.T))

    PS = np.hstack([XI1, RHO])
    (dxi1_law, drho_law), U_law, proxy_law, _ = law(design, PS, Z)
    assert close(dxi1_law, dXI1)
    assert close(U_law, U)
    assert close(proxy_law, proxy)
    above = proxy >= design.d
    assert above.any() and close(drho_law[above, 0], drho[above])
    assert np.all(drho_law[~above] == 0.0)
