import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from cohsync.linalg import (
    SolverError,
    eigenvalues,
    min_eigenvalue_sym,
    operator_norm_2,
    row_product,
    solve_care,
    solve_dual_care_shifted,
    solve_lyapunov,
)


def random_hurwitz(rng, n, margin=0.5):
    """Random dense matrix shifted left until strictly Hurwitz."""
    A = rng.standard_normal((n, n))
    shift = np.max(np.linalg.eigvals(A).real) + margin
    return A - shift * np.eye(n)


def random_spd(rng, n):
    V = rng.standard_normal((n, n))
    return V.T @ V + 0.1 * np.eye(n)


# ---------------------------------------------------------------------------
# spectrum / norms


def test_eigenvalue_residuals_seeded():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8):
        M = rng.standard_normal((n, n))
        report = eigenvalues(M)
        vals, vecs = np.linalg.eig(M)
        # same multiset of eigenvalues
        assert np.allclose(np.sort_complex(report.eigenvalues), np.sort_complex(vals))
        for k in range(n):
            resid = np.linalg.norm(M @ vecs[:, k] - vals[k] * vecs[:, k])
            assert resid <= 1e-8 * operator_norm_2(M)


def test_hurwitz_flag():
    assert eigenvalues(np.array([[-1.0, 0.0], [0.0, -2.0]])).is_hurwitz
    marginal = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not marginal.is_hurwitz
    assert marginal.max_real_part == pytest.approx(0.0, abs=1e-12)


def test_operator_norm_matches_svd_and_transpose():
    rng = np.random.default_rng(7)
    for _ in range(50):
        M = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
        top_sv = np.linalg.svd(M, compute_uv=False)[0]
        assert operator_norm_2(M) == pytest.approx(top_sv, rel=1e-12)
        assert abs(operator_norm_2(M) - operator_norm_2(M.T)) <= 1e-12 * (1 + top_sv)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=3),
        min_size=2,
        max_size=5,
    )
)
def test_operator_norm_transpose_property(rows):
    M = np.array(rows)
    n1, n2 = operator_norm_2(M), operator_norm_2(M.T)
    assert abs(n1 - n2) <= 1e-9 * (1.0 + n1)


def test_min_eigenvalue_sym():
    M = np.diag([3.0, -2.0, 5.0])
    assert min_eigenvalue_sym(M) == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        min_eigenvalue_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Lyapunov


def test_lyapunov_scalar():
    # a = -1, w = 2: -2x + 2 = 0, so x = 1
    X = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
    assert X[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_lyapunov_matches_scipy_seeded():
    rng = np.random.default_rng(2024)
    for k in range(50):
        n = int(rng.integers(2, 7))
        A = random_hurwitz(rng, n)
        W = random_spd(rng, n)
        X = solve_lyapunov(A, W)
        # scipy solves a x + x a^H = q; ours is A'X + XA = -W
        X_oracle = scipy.linalg.solve_lyapunov(A.T, -W)
        scale = max(1.0, np.max(np.abs(X_oracle)))
        assert np.max(np.abs(X - X_oracle)) <= 1e-9 * scale, f"instance {k}"
        assert np.max(np.abs(X - X.T)) == 0.0


def test_lyapunov_rejects_non_hurwitz():
    with pytest.raises(SolverError):
        solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


def test_lyapunov_residual_postcondition():
    rng = np.random.default_rng(5)
    A = random_hurwitz(rng, 4)
    W = random_spd(rng, 4)
    X = solve_lyapunov(A, W)
    resid = operator_norm_2(A.T @ X + X @ A + W)
    assert resid <= 1e-10 * (1.0 + operator_norm_2(W))


# ---------------------------------------------------------------------------
# Riccati


def test_care_scalar_values():
    # g p^2 - 2 a p - w = 0 with the stabilizing root p = (a + sqrt(a^2 + g w)) / g
    p = solve_care(np.array([[0.0]]), np.array([[1.0]]))
    assert p[0, 0] == pytest.approx(1.0, abs=1e-10)
    p = solve_care(np.array([[1.0]]), np.array([[1.0]]))
    assert p[0, 0] == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-10)
    p = solve_care(np.array([[0.0]]), np.array([[1.0]]), gain_scale=4.0)
    assert p[0, 0] == pytest.approx(0.5, abs=1e-10)


def test_care_matches_scipy_seeded():
    rng = np.random.default_rng(77)
    for k in range(25):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        W = random_spd(rng, n)
        g = float(rng.uniform(0.5, 4.0))
        P = solve_care(A, B, w_state=W, gain_scale=g)
        P_oracle = scipy.linalg.solve_continuous_are(A, B, W, np.eye(m) / g)
        scale = max(1.0, np.max(np.abs(P_oracle)))
        assert np.max(np.abs(P - P_oracle)) <= 1e-8 * scale, f"instance {k}"


def test_care_closed_loop_hurwitz_and_psd():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 1))
    P = solve_care(A, B)
    assert min_eigenvalue_sym(P) >= -1e-10
    assert eigenvalues(A - B @ (B.T @ P)).is_hurwitz


def test_care_idempotent_restart():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 2))
    P1 = solve_care(A, B)
    P2 = solve_care(A, B, initial_p=P1)
    assert np.max(np.abs(P2 - P1)) < 1e-12 * max(1.0, np.max(np.abs(P1)))


def test_care_rejects_unstabilizable():
    # second mode is unstable and unreachable
    A = np.diag([1.0, 1.0])
    B = np.array([[1.0], [0.0]])
    with pytest.raises(SolverError):
        solve_care(A, B)


def test_care_zero_width_input_is_lyapunov():
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    P = solve_care(A, np.zeros((2, 0)))
    X = solve_lyapunov(A, np.eye(2))
    assert np.allclose(P, X, atol=1e-12)


def test_care_demo_model_reference():
    S = golden.NONCOLLAB_S
    A_t = S @ golden.NONCOLLAB_A @ np.linalg.inv(S)
    B_t = S @ golden.NONCOLLAB_B
    assert np.allclose(B_t, np.array([[0.0], [0.0], [0.0], [1.0]]), atol=1e-12)
    P = solve_care(A_t, B_t)
    assert np.max(np.abs(P - golden.NONCOLLAB_P_REF)) < 1e-3
    gain_row = (B_t.T @ P)[0]
    assert np.max(np.abs(gain_row - golden.NONCOLLAB_GAIN_ROW_REF)) < 1e-3
    kernel = P @ B_t @ B_t.T @ P
    assert np.max(np.abs(kernel - golden.NONCOLLAB_KERNEL_REF)) < 1e-3
    # dual route: same instance through scipy, much tighter
    P_oracle = scipy.linalg.solve_continuous_are(A_t, B_t, np.eye(4), np.eye(1))
    assert np.max(np.abs(P - P_oracle)) < 1e-9


# ---------------------------------------------------------------------------
# shifted dual Riccati


def test_dual_care_scalar_values():
    # q = a + sqrt(a^2 + eta) for scalar a, c = 1
    q = solve_dual_care_shifted(np.array([[0.0]]), np.array([[1.0]]), 1.0)
    assert q[0, 0] == pytest.approx(1.0, abs=1e-10)
    q = solve_dual_care_shifted(np.array([[1.0]]), np.array([[1.0]]), 1.0)
    assert q[0, 0] == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-10)


def test_dual_care_demo_model_reference():
    Q = solve_dual_care_shifted(golden.COLLAB_A, golden.COLLAB_C, 1.0)
    assert np.max(np.abs(Q - golden.COLLAB_Q_REF)) < 1e-3
    assert np.max(np.abs(Q @ golden.COLLAB_C.T - golden.COLLAB_QCT_REF)) < 1e-3
    Q_oracle = scipy.linalg.solve_continuous_are(
        golden.COLLAB_A, golden.COLLAB_C.T, np.eye(3), np.eye(1)
    )
    assert np.max(np.abs(Q - Q_oracle)) < 1e-9


def test_dual_care_eta_scaling():
    rng = np.random.default_rng(41)
    A = random_hurwitz(rng, 3)
    C = rng.standard_normal((1, 3))
    for eta in (1.0, 0.5, 0.25):
        Q = solve_dual_care_shifted(A, C, eta)
        resid = operator_norm_2(A.T @ Q + Q @ A - Q @ C.T @ C @ Q + eta * np.eye(3))
        assert resid <= 1e-8 * (1.0 + operator_norm_2(Q) ** 2)
        assert min_eigenvalue_sym(Q) > 0.0


@pytest.mark.parametrize("k, m", [(3, 1), (4, 2), (1, 3), (6, 4), (5, 12), (9, 11)])
def test_row_product_rows_do_not_depend_on_batch_size(k, m):
    # The simulator's bitwise component independence rests on this.
    rng = np.random.default_rng(k * 100 + m)
    B = rng.standard_normal((k, m))
    for n in range(1, 14):
        X = rng.standard_normal((n, k))
        full = row_product(X, B)
        assert np.allclose(full, X @ B, rtol=1e-14, atol=1e-14)
        for lo in range(n):
            for hi in range(lo + 1, n + 1):
                assert np.array_equal(row_product(X[lo:hi], B), full[lo:hi]), (n, lo, hi)
