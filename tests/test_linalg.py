import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from care_oracle import lyapunov as oracle_lyapunov
from care_oracle import oracle_care, same_outcome
from cohsync import linalg
from cohsync.linalg import (
    SlotProduct,
    SolverError,
    eigenvalues,
    min_eigenvalue_sym,
    operator_norm_2,
    solve_care,
    solve_dual_care_shifted,
    solve_lyapunov,
)
from cohsync.collab import p_alpha_family
from cohsync.verification import _kronecker_lyapunov, seeded_minimum_phase_model


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


def test_hurwitz_verdict_needs_a_margin():
    # An eigenvalue pair on the imaginary axis, turned by random orthogonal
    # changes of coordinates: roundoff puts the computed real part on
    # either side of 0, and no turn may read Hurwitz.
    rng = np.random.default_rng(0)
    D = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    negative = 0
    for _ in range(200):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        report = eigenvalues(Q @ D @ Q.T)
        negative += report.max_real_part < 0.0
        assert not report.is_hurwitz
    assert negative > 0  # the margin, not luck, decided some verdicts
    # Clearly stable matrices pass at any scale.
    for scale in (1e-6, 1.0, 1e6):
        assert eigenvalues(scale * (D - 0.01 * np.eye(3))).is_hurwitz


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


def test_lyapunov_matches_kronecker_oracle():
    # The Kronecker solve shares no step with the Schur route.
    rng = np.random.default_rng(2025)
    for n in range(2, 7):
        for k in range(10):
            A = random_hurwitz(rng, n, margin=0.1 + rng.random())
            W = rng.standard_normal((n, n))
            W = 0.5 * (W + W.T)
            X = solve_lyapunov(A, W)
            X_oracle = _kronecker_lyapunov(A, W)
            scale = max(1.0, np.max(np.abs(X_oracle)))
            assert np.max(np.abs(X - X_oracle)) <= 1e-9 * scale, (n, k)


@pytest.mark.parametrize("n", [32, 48])
def test_lyapunov_residual_at_larger_n(n):
    rng = np.random.default_rng(n)
    A = random_hurwitz(rng, n)
    W = random_spd(rng, n)
    X = solve_lyapunov(A, W)
    assert np.max(np.abs(X - X.T)) == 0.0
    assert operator_norm_2(A.T @ X + X @ A + W) <= 1e-10 * (1.0 + operator_norm_2(W))
    assert min_eigenvalue_sym(X) > 0.0


def test_lyapunov_rejects_non_hurwitz():
    with pytest.raises(SolverError):
        solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


def test_lyapunov_rejects_unstable_complex_pair():
    # The pair 0.3 +- 2i sits in a 2x2 block of the Schur form, beside a
    # stable real eigenvalue; a random orthogonal change of coordinates hides
    # the block structure from the input.
    rng = np.random.default_rng(17)
    block = np.array([[0.3, 2.0, 0.0], [-2.0, 0.3, 0.0], [0.0, 0.0, -1.0]])
    V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    with pytest.raises(SolverError, match="needs a Hurwitz matrix"):
        solve_lyapunov(V @ block @ V.T, np.eye(3))


def test_lyapunov_rejects_pair_on_imaginary_axis():
    # +-2i beside -1 and -0.5; a permutation keeps the zero real part exact,
    # where a rotation would leave it at roundoff of either sign.
    A = np.array(
        [
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 2.0],
            [0.0, 0.0, -0.5, 0.0],
            [0.0, -2.0, 0.0, 0.0],
        ]
    )
    with pytest.raises(SolverError, match=r"max Re\(lambda\) = 0"):
        solve_lyapunov(A, np.eye(4))


def test_lyapunov_rejects_rotated_imaginary_axis_pair():
    # Rotated, the pair +-2i gets a computed real part of roundoff size and
    # either sign.  Where it reads negative, the solve is near-singular: the
    # residual check must turn that into a SolverError like the Hurwitz
    # check does, never let a LinAlgError or a wrong X through.
    block = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    for seed in range(100):
        V, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
        with pytest.raises(SolverError):
            solve_lyapunov(V @ block @ V.T, np.eye(3))


def test_lyapunov_and_eigenvalues_share_the_hurwitz_rule():
    # The rotations that eigenvalues() rejects fail the Lyapunov solve's own
    # Hurwitz check, not only its residual check.
    rng = np.random.default_rng(0)
    D = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    for _ in range(200):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        with pytest.raises(SolverError, match="needs a Hurwitz matrix"):
            solve_lyapunov(Q @ D @ Q.T, np.eye(3))
    # A decay rate inside the margin 1e-12 max(||A||_F, 1) is refused by
    # both; one just outside it is accepted by both.
    inside, outside = np.diag([-1e-13, -1.0]), np.diag([-1e-11, -1.0])
    assert not eigenvalues(inside).is_hurwitz
    with pytest.raises(SolverError, match="needs a Hurwitz matrix"):
        solve_lyapunov(inside, np.eye(2))
    assert eigenvalues(outside).is_hurwitz
    X = solve_lyapunov(outside, np.eye(2))
    assert X[0, 0] == pytest.approx(0.5e11, rel=1e-12) and X[1, 1] == pytest.approx(0.5)


def test_lyapunov_residual_guard_catches_a_bad_sylvester_solve(monkeypatch):
    rng = np.random.default_rng(8)
    A = random_hurwitz(rng, 5)
    W = random_spd(rng, 5)
    solve_lyapunov(A, W)
    dtrsyl = linalg.lapack.dtrsyl

    def perturbed(*args, **kwargs):
        Y, scale, info = dtrsyl(*args, **kwargs)
        return Y * (1.0 + 1e-6), scale, info

    monkeypatch.setattr(linalg, "lapack", SimpleNamespace(dtrsyl=perturbed))
    with pytest.raises(SolverError, match="Lyapunov residual"):
        solve_lyapunov(A, W)


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


def test_care_takes_one_lyapunov_solve_from_the_schur_start(monkeypatch):
    # From the Schur-method start, the first Newton step already meets the
    # gap test: one Lyapunov solve per Riccati solve, for the feedback
    # family at alpha = 1 and 1.05**30 and for the observer.  Newton hands
    # solve_lyapunov a stack of closed loops, here a stack of one.
    calls = []
    lyapunov = linalg.solve_lyapunov

    def counted(A, W):
        assert A.shape[:-2] == (1,)
        calls.append(A.shape[-1])
        return lyapunov(A, W)

    monkeypatch.setattr(linalg, "solve_lyapunov", counted)
    for n in (4, 8, 12):
        for seed in range(8):
            model, zeros = seeded_minimum_phase_model(np.random.default_rng([seed, n]), n)
            A_shifted = model.A + min(0.1, 0.5 * float(np.min(-zeros.real))) * np.eye(n)
            for solve in (
                lambda: solve_care(A_shifted, model.B, w_state=model.C.T @ model.C),
                lambda: solve_care(A_shifted, model.B, w_state=model.C.T @ model.C, gain_scale=1.05**30),
                lambda: solve_dual_care_shifted(model.A, model.C, 1.0),
            ):
                calls.clear()
                solve()
                assert calls == [n], (n, seed)


def test_schur_start_hamiltonian_equals_the_block_form(monkeypatch):
    # The Hamiltonian handed to the ordered Schur form, and the start P0,
    # bitwise those of np.block([[A, -g BB'], [-W, -A']]).
    # The ordered Schur form is linalg._schur, which calls LAPACK directly,
    # once per member of the stack of gain scales, here a stack of one.
    hamiltonians = []
    schur = scipy.linalg.schur
    ordered = linalg._schur

    def spy(H, *args, **kwargs):
        hamiltonians.append(H)
        return ordered(H, *args, **kwargs)

    monkeypatch.setattr(linalg, "_schur", spy)
    rng = np.random.default_rng(71)
    for n, m in ((1, 1), (2, 1), (3, 2), (5, 1), (6, 3), (9, 2)):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        W = rng.standard_normal((n, n))
        W = W @ W.T + np.eye(n)
        g = float(rng.uniform(0.1, 10.0))
        hamiltonians.clear()
        (P0,) = linalg._schur_start(A, B, W, np.array([g]))
        H = np.block([[A, -g * (B @ B.T)], [-W, -A.T]])
        (got,) = hamiltonians
        assert got.tobytes() == H.tobytes() and got.flags.c_contiguous
        _, U, _ = schur(H, output="real", sort="lhp", check_finite=False)
        assert P0.tobytes() == np.linalg.solve(U[:n, :n].T, U[n:, :n].T).T.tobytes()


def test_newton_stops_at_the_roundoff_floor_of_an_ill_scaled_draw(monkeypatch):
    # Frobenius norm of A about 6.8e3: from the Schur start the Newton gap
    # falls to about 1e-10 and then wanders there, never below 1e-12 in
    # 200 steps; the floor rule stops it and the contract still holds.
    model, _ = seeded_minimum_phase_model(np.random.default_rng([23, 14]), 14)
    A_shifted = model.A + 0.1 * np.eye(14)
    calls = []
    lyapunov = linalg.solve_lyapunov
    monkeypatch.setattr(linalg, "solve_lyapunov", lambda A, W: calls.append(1) or lyapunov(A, W))
    P = solve_care(A_shifted, model.B, w_state=model.C.T @ model.C)
    assert 1 < len(calls) <= 5
    P_oracle = scipy.linalg.solve_continuous_are(A_shifted, model.B, model.C.T @ model.C, np.eye(1))
    assert np.max(np.abs(P - P_oracle)) <= 1e-9 * np.max(np.abs(P_oracle))


def test_observer_riccati_of_an_ill_scaled_draw_matches_scipy():
    # Frobenius norm of A about 1.1e3; a shift continuation from P = 0
    # failed to converge here.
    model, _ = seeded_minimum_phase_model(np.random.default_rng([38, 8]), 8)
    Q = solve_dual_care_shifted(model.A, model.C, 1.0)
    Q_oracle = scipy.linalg.solve_continuous_are(model.A, model.C.T, np.eye(8), np.eye(1))
    assert np.max(np.abs(Q - Q_oracle)) <= 1e-10 * np.max(np.abs(Q_oracle))


def test_care_rejects_hamiltonian_eigenvalues_on_the_imaginary_axis(monkeypatch):
    # The undamped oscillator is unreachable from B = e3, so the Hamiltonian
    # has the pair +-i twice.  Roundoff splits each pair to about +-1e-8
    # off the axis and the ordered Schur form can count 3 stable
    # eigenvalues, so the start exists; its closed loop keeps +-i, and the
    # solve must refuse it, at once, in any coordinates: Newton's first
    # Lyapunov solve refuses the closed loop (the stack of one, then the
    # member alone), and no solve takes 0.1 s of its thread's CPU time.
    # CPU time, not wall time, so that a busy or stalled host is not taken
    # for the solver's own cost.
    calls = []
    lyapunov = linalg.solve_lyapunov

    def counted(A, W):
        calls.append(A.shape)
        return lyapunov(A, W)

    monkeypatch.setattr(linalg, "solve_lyapunov", counted)
    A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    B = np.array([[0.0], [0.0], [1.0]])
    H = np.block([[A, -B @ B.T], [-np.eye(3), -A.T]])
    assert scipy.linalg.schur(H, sort="lhp")[2] == 3
    for seed in range(20):
        V = np.eye(3) if seed == 0 else np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0]
        calls.clear()
        start = time.thread_time()
        with pytest.raises(SolverError):
            solve_care(V @ A @ V.T, V @ B)
        assert time.thread_time() - start < 0.1
        assert calls == [(1, 3, 3), (3, 3)], seed


def test_care_rejects_unstabilizable():
    # second mode is unstable and unreachable
    A = np.diag([1.0, 1.0])
    B = np.array([[1.0], [0.0]])
    with pytest.raises(SolverError, match="U11 of the Hamiltonian's stable subspace is singular"):
        solve_care(A, B)
    # An unreachable mode at 0 gives the Hamiltonian a double eigenvalue
    # 0, so it has fewer than n stable ones.
    with pytest.raises(SolverError, match="has 1 stable eigenvalues, not 2"):
        solve_care(np.array([[0.0, 1.0], [0.0, 0.0]]), B)
    with pytest.raises(SolverError, match="has 0 stable eigenvalues, not 1"):
        solve_care(np.array([[0.0]]), np.zeros((1, 0)))


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
def test_row_product_rows_do_not_depend_on_batch_size(monkeypatch, k, m):
    # The simulator's bitwise component independence rests on this, and
    # so does the compiled step, which sums in the same order: each entry
    # is the sum from +0 of its terms in row order, whatever the batch and
    # the BLAS kernel.
    rng = np.random.default_rng(k * 100 + m)
    B = rng.standard_normal((k, m))
    B[rng.random((k, m)) < 0.3] = 0.0
    product = SlotProduct(B)
    for n in range(1, 14):
        X = rng.standard_normal((n, k))
        full = product(X)
        assert np.allclose(full, X @ B, rtol=1e-14, atol=1e-14)
        expected = np.zeros((n, m))
        for i in range(k):
            expected = expected + X[:, i : i + 1] * B[i]
        assert full.tobytes() == expected.tobytes()
        for lo in range(n):
            for hi in range(lo + 1, n + 1):
                assert np.array_equal(product(X[lo:hi]), full[lo:hi]), (n, lo, hi)
        with monkeypatch.context() as chunked:
            chunked.setattr(linalg, "_SLOT_CHUNK", 3)
            assert product(X).tobytes() == full.tobytes()


# ---------------------------------------------------------------------------
# Stacks: a Riccati family and a stack of Lyapunov equations, each member
# bitwise its solve alone (tests/care_oracle.py)


def _family_models():
    """(label, A_shifted, B, C): seeded single-input minimum-phase models
    and random two-input ones, n = 3..16, shifted as the collaborative
    design shifts them, plus the ill-scaled draw whose Newton stops at the
    roundoff floor."""
    for n in range(3, 17):
        model, zeros = seeded_minimum_phase_model(np.random.default_rng([n, 19]), n)
        yield (n, 1), model.A + min(0.1, 0.5 * float(np.min(-zeros.real))) * np.eye(n), model.B, model.C
        rng = np.random.default_rng([n, 2, 19])
        yield (n, 2), rng.standard_normal((n, n)) + 0.1 * np.eye(n), rng.standard_normal((n, 2)), rng.standard_normal((2, n))
    model, _ = seeded_minimum_phase_model(np.random.default_rng([23, 14]), 14)
    yield "floor", model.A + 0.1 * np.eye(14), model.B, model.C


def test_a_riccati_family_is_bitwise_its_per_cell_solves():
    # Through both callers: the grid's cells -5..60 in one cells() call and
    # off-grid alphas in one solve_exact call, each solution or error equal
    # to the per-cell solve's.  The sample must hold members that take more
    # than one Newton step and members that the floor rule stops.
    off_grid = [0.3, 1.3, 7.7, 123.4, 2.5e4]
    steps, stops = set(), set()
    for label, A, B, C in _family_models():
        grid = p_alpha_family(A, B, C, 0.0)
        ks = range(-5, 61)
        cells = [oracle_care(A, B, C.T @ C, grid.alpha_at(k)) for k in ks]
        assert all(solo.stage is None for solo in cells), label
        got = grid.cells(ks)
        assert all(same_outcome(P, solo) for P, solo in zip(got, cells)), label
        exact = [oracle_care(A, B, C.T @ C, alpha) for alpha in off_grid]
        got = grid.solve_exact(off_grid)
        assert all(same_outcome(P, solo) for P, solo in zip(got, exact)), label
        steps |= {solo.steps for solo in cells + exact}
        stops |= {solo.stop for solo in cells + exact}
        family = solve_care(A, B, w_state=C.T @ C, gain_scale=[grid.alpha_at(k) for k in ks])
        assert all(P.tobytes() == grid.cell(k)[0].tobytes() for P, k in zip(family, ks)), label
    assert max(steps) > 1 and stops == {"tol", "floor"}


def test_a_family_reports_each_members_own_error():
    # One member of each failure: a gain scale that is not positive, a
    # Hamiltonian without n stable eigenvalues (sdim), a singular U11, a
    # Newton that does not converge, and a contract that fails.  Each
    # error is the one its solve alone raises, and the members that solve
    # keep their bits.
    cases = [
        # A stable, then a U11 that numpy's stacked solve cannot factor:
        # g BB' underflows to zero in one entry at g = 1e-320.
        (np.diag([1.0, 2.0]), np.array([[1e-3], [1.0]]), np.eye(2), [1.0, 1e-320, 0.5, -1.0, 0.0]),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0], [0.0]]), np.eye(2), [1.0, 2.0]),
        (
            np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),
            np.array([[0.0], [0.0], [1.0]]),
            np.eye(3),
            [0.5, 1.0],
        ),
    ]
    rng = np.random.default_rng(17)
    A, B, W = rng.standard_normal((2, 2)), rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    cases.append((A, B, W + W.T, [1.05**k for k in range(-17, 14)]))
    stages = set()
    for A, B, W, gains in cases:
        got = solve_care(A, B, w_state=W, gain_scale=gains)
        for g, P in zip(gains, got):
            if g <= 0.0:
                assert isinstance(P, ValueError) and str(P) == "gain_scale must be positive"
                continue
            solo = oracle_care(A, B, W, g)
            assert same_outcome(P, solo), (g, P, solo)
            stages.add(solo.stage)
            if g == 1e-320:
                n = A.shape[0]
                H = np.block([[A, -g * (B @ B.T)], [-W, -A.T]])
                U = scipy.linalg.schur(H, output="real", sort="lhp")[1]
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.solve(U[:n, :n].T, U[n:, :n].T)
    assert stages == {None, "start", "newton", "validate"}
    # A scalar gain scale raises its member's error, as before.
    with pytest.raises(SolverError, match="U11 of the Hamiltonian's stable subspace is singular"):
        solve_care(np.diag([1.0, 2.0]), np.array([[1e-3], [1.0]]), gain_scale=1e-320)
    with pytest.raises(ValueError, match="gain_scale must be positive"):
        solve_care(np.diag([1.0, 2.0]), np.array([[1e-3], [1.0]]), gain_scale=0.0)
    assert solve_care(np.zeros((0, 0)), np.zeros((0, 1)), gain_scale=[1.0, -1.0])[0].shape == (0, 0)


def test_a_lyapunov_stack_is_bitwise_its_solves_alone():
    rng = np.random.default_rng(29)
    for n in range(1, 13):
        A = np.stack([random_hurwitz(rng, n) for _ in range(4)])
        W = np.stack([random_spd(rng, n) for _ in range(4)])
        X = solve_lyapunov(A, W)
        assert X.shape == (4, n, n)
        for Ai, Wi, Xi in zip(A, W, X):
            assert Xi.tobytes() == oracle_lyapunov(Ai, Wi).tobytes() == solve_lyapunov(Ai, Wi).tobytes()
    # One member that is not Hurwitz fails the stack.
    A[2] = -A[2]
    with pytest.raises(SolverError, match="needs a Hurwitz matrix"):
        solve_lyapunov(A, W)
    with pytest.raises(ValueError, match="must be square"):
        solve_lyapunov(np.zeros((2, 3, 3, 3)), np.zeros((2, 3, 3, 3)))
