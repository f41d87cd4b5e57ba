import numpy as np
import pytest

import golden
from cohsync.agents import (
    AgentModel,
    build_output_transform,
    check_assumptions,
    design_observer_gain,
    invariant_zeros,
)
from cohsync.collab import design_collab
from cohsync.linalg import SolverError, eigenvalues
from cohsync.noncollab import design_noncollab


def demo_noncollab():
    return AgentModel(golden.NONCOLLAB_A, golden.NONCOLLAB_B, golden.NONCOLLAB_C, golden.NONCOLLAB_E)


def demo_collab():
    return AgentModel(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, golden.COLLAB_E)


def random_square_reldeg1(rng, n, m=1):
    """Random invertible relative-degree-1 model in pre-split coordinates."""
    while True:
        A = rng.standard_normal((n, n))
        B = np.vstack([np.zeros((n - m, m)), np.eye(m)]) + 0.0
        C = rng.standard_normal((m, n))
        if np.linalg.matrix_rank(C @ B, tol=1e-9) == m:
            return AgentModel(A, B, C)


def planted_minphase_square(rng, n, scramble=True):
    """Square relative-degree-1 model with known stable zero dynamics.

    Built in split coordinates (zero dynamics = a planted Hurwitz block),
    then optionally disguised with a random similarity.  Returns the model
    and the planted block's eigenvalues, which are its invariant zeros.
    """
    n1 = n - 1
    A11 = rng.standard_normal((n1, n1))
    A11 -= (np.max(np.linalg.eigvals(A11).real) + 0.5) * np.eye(n1)
    A = np.zeros((n, n))
    A[:n1, :n1] = A11
    A[:n1, n1:] = rng.standard_normal((n1, 1))
    A[n1:, :] = rng.standard_normal((1, n))
    B = np.vstack([np.zeros((n1, 1)), np.eye(1)])
    C = np.hstack([np.zeros((1, n1)), np.eye(1)])
    if scramble:
        R = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        A, B, C = R @ A @ np.linalg.inv(R), R @ B, C @ np.linalg.inv(R)
    return AgentModel(A, B, C), np.linalg.eigvals(A11)


# ---------------------------------------------------------------------------
# model container


def test_model_validation():
    with pytest.raises(ValueError):
        AgentModel(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        AgentModel(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))  # B rank deficient
    with pytest.raises(ValueError):
        AgentModel(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))  # C rank deficient
    m = AgentModel(np.zeros((2, 2)), np.eye(2), np.eye(2))
    assert m.w == 0


# ---------------------------------------------------------------------------
# assumption checks


def test_scalar_integrator_flags():
    m = AgentModel([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    rep = check_assumptions(m)
    assert rep.stabilizable and rep.detectable and rep.observable
    assert rep.image_E_in_image_B
    assert rep.relative_degree_one
    assert rep.left_invertible and rep.right_invertible
    assert rep.invariant_zeros.size == 0
    assert rep.minimum_phase
    assert rep.uniform_rank is True


def test_demo_noncollab_flags():
    rep = check_assumptions(demo_noncollab())
    assert rep.stabilizable
    assert rep.detectable
    assert rep.image_E_in_image_B
    assert rep.relative_degree_one
    assert rep.left_invertible
    assert rep.minimum_phase
    # 1 input, 2 outputs: cannot be right-invertible
    assert not rep.right_invertible
    # every zero-candidate mode is observable through the split output, so
    # the model has no finite invariant zeros at all
    assert rep.invariant_zeros.size == 0


def test_demo_collab_flags():
    rep = check_assumptions(demo_collab())
    assert rep.stabilizable
    assert rep.observable
    assert rep.right_invertible
    assert rep.minimum_phase
    assert rep.uniform_rank is True
    # square 3-state single-in single-out: two finite zeros, both stable
    assert rep.invariant_zeros.size == 2
    assert np.all(rep.invariant_zeros.real < 0.0)


def test_unstabilizable_flagged():
    A = np.diag([1.0, -1.0])
    B = np.array([[0.0], [1.0]])
    C = np.eye(2)
    rep = check_assumptions(AgentModel(A, B, C))
    assert not rep.stabilizable
    assert rep.detectable


def test_undetectable_flagged():
    A = np.diag([1.0, -1.0])
    B = np.eye(2)
    C = np.array([[0.0, 1.0]])
    rep = check_assumptions(AgentModel(A, B, C))
    assert rep.stabilizable
    assert not rep.detectable
    assert not rep.observable


def test_image_condition():
    A = np.zeros((2, 2))
    B = np.array([[1.0], [0.0]])
    C = np.eye(2)
    good = AgentModel(A, B, C, E=np.array([[2.0], [0.0]]))
    bad = AgentModel(A, B, C, E=np.array([[0.0], [1.0]]))
    assert check_assumptions(good).image_E_in_image_B
    assert not check_assumptions(bad).image_E_in_image_B


def test_non_minimum_phase_flagged():
    # scalar system with transfer (s - 1)/(s + 1)^2
    A = np.array([[0.0, 1.0], [-1.0, -2.0]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[-1.0, 1.0]])
    rep = check_assumptions(AgentModel(A, B, C))
    assert rep.invariant_zeros.size == 1
    assert rep.invariant_zeros[0].real == pytest.approx(1.0, abs=1e-8)
    assert not rep.minimum_phase


def test_uniform_rank_double_integrator():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[1.0, 0.0]])
    rep = check_assumptions(AgentModel(A, B, C))
    assert rep.uniform_rank is True  # single chain of order 2
    assert not rep.relative_degree_one


# ---------------------------------------------------------------------------
# invariant zeros: the two routes


def _match_complex_sets(got, exp, tol):
    got = np.asarray(got, dtype=complex)
    exp = np.asarray(exp, dtype=complex)
    assert got.size == exp.size
    if got.size:
        g = got[np.lexsort((got.imag.round(6), got.real.round(6)))]
        e = exp[np.lexsort((exp.imag.round(6), exp.real.round(6)))]
        assert np.max(np.abs(g - e)) < tol


def test_zeros_square_match_a11_eigs_seeded():
    rng = np.random.default_rng(515)
    for k in range(20):
        n = int(rng.integers(2, 6))
        model, planted = planted_minphase_square(rng, n)
        tr = build_output_transform(model)
        zeros = invariant_zeros(model.A, model.B, model.C)
        a11_eigs = np.linalg.eigvals(tr.A11) if tr.n1 else np.zeros(0, complex)
        # pencil route vs transform route vs ground truth
        _match_complex_sets(zeros, a11_eigs, 1e-8)
        _match_complex_sets(zeros, planted, 1e-7)


def test_zeros_similarity_invariant():
    rng = np.random.default_rng(99)
    for _ in range(10):
        model = random_square_reldeg1(rng, 4)
        R = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        z1 = invariant_zeros(model.A, model.B, model.C)
        z2 = invariant_zeros(R @ model.A @ np.linalg.inv(R), R @ model.B, model.C @ np.linalg.inv(R))
        _match_complex_sets(z1, z2, 1e-8)


def test_zeros_tall_system_subset_of_a11():
    # with more outputs than inputs, zeros are the (C1, A11)-unobservable
    # modes, hence always a subset of eig(A11)
    model = demo_noncollab()
    tr = build_output_transform(model)
    zeros = invariant_zeros(model.A, model.B, model.C)
    a11_eigs = np.linalg.eigvals(tr.A11)
    for z in zeros:
        assert np.min(np.abs(a11_eigs - z)) < 1e-8


def test_zeros_planted_tall_system():
    # split-form model, 2 outputs, 1 input; the first zero-dynamics mode
    # (at -3) is invisible through C1 = [0, 1] while the second is seen,
    # so the invariant-zero set is exactly {-3}
    A = np.array(
        [
            [-3.0, 0.0, 1.0],
            [0.0, -2.0, 1.0],
            [0.5, 0.3, -1.0],
        ]
    )
    B = np.array([[0.0], [0.0], [1.0]])
    C = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    zeros = invariant_zeros(A, B, C)
    assert zeros.size == 1
    assert zeros[0] == pytest.approx(-3.0, abs=1e-8)


# ---------------------------------------------------------------------------
# output transform


def test_transform_with_override_reproduces_reference_blocks():
    model = demo_noncollab()
    tr = build_output_transform(model, s_override=golden.NONCOLLAB_S, t_override=golden.NONCOLLAB_T)
    A_tilde_ref = np.array(
        [
            [0.0, 0.0, 1.0, 1.0],
            [-1.0, -2.0, 1.0, 2.0],
            [0.0, -1.0, 0.0, 1.0],
            [-1.0, 0.0, 1.0, 0.0],
        ]
    )
    assert np.max(np.abs(tr.A_tilde - A_tilde_ref)) < 1e-12
    assert np.max(np.abs(tr.B_tilde - np.array([[0.0], [0.0], [0.0], [1.0]]))) < 1e-12
    assert np.max(np.abs(tr.C1 - np.array([[1.0, 0.0, 0.0]]))) < 1e-12
    assert tr.E2 is not None
    assert np.max(np.abs(tr.E2 - np.array([[1.0]]))) < 1e-12


def test_transform_auto_constructed_invariants():
    model = demo_noncollab()
    tr = build_output_transform(model)
    n1, m = tr.n1, tr.m
    SB = tr.S @ model.B
    assert np.max(np.abs(SB[:n1])) < 1e-10
    assert abs(np.linalg.det(tr.B2)) > 1e-9
    Cbar = tr.T @ model.C @ tr.S_inv
    assert np.max(np.abs(Cbar[: model.p - m, n1:])) < 1e-10
    assert np.max(np.abs(Cbar[model.p - m :, :n1])) < 1e-10
    assert np.max(np.abs(Cbar[model.p - m :, n1:] - np.eye(m))) < 1e-10
    # reassembly returns the original A
    assert np.max(np.abs(tr.S_inv @ tr.A_tilde @ tr.S - model.A)) < 1e-10
    # A11 spectrum agrees with the reference block's spectrum
    ref_tr = build_output_transform(model, s_override=golden.NONCOLLAB_S, t_override=golden.NONCOLLAB_T)
    got = np.sort_complex(np.linalg.eigvals(tr.A11))
    exp = np.sort_complex(np.linalg.eigvals(ref_tr.A11))
    assert np.max(np.abs(got - exp)) < 1e-8


def test_transform_fixed_point():
    # already in split form: B = [0; I], C = [[C1, 0], [0, I]]
    A = np.arange(9.0).reshape(3, 3)
    B = np.array([[0.0], [0.0], [1.0]])
    C = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    model = AgentModel(A, B, C)
    # identity overrides are accepted verbatim and expose the raw blocks
    tr2 = build_output_transform(model, s_override=np.eye(3), t_override=np.eye(2))
    assert np.max(np.abs(tr2.A11 - A[:2, :2])) < 1e-12
    assert np.max(np.abs(tr2.B2 - np.eye(1))) < 1e-12
    # the auto route picks its own basis but must agree up to similarity
    tr = build_output_transform(model)
    assert np.max(np.abs(tr.S_inv @ tr.A_tilde @ tr.S - A)) < 1e-10
    _match_complex_sets(np.linalg.eigvals(tr.A11), np.linalg.eigvals(A[:2, :2]), 1e-8)


def test_transform_square_output_gives_empty_c1():
    rng = np.random.default_rng(1)
    model, _ = planted_minphase_square(rng, 3)
    tr = build_output_transform(model)
    assert tr.C1.shape == (0, 2)
    assert tr.n1 == 2


def test_transform_rejects_bad_override():
    model = demo_noncollab()
    with pytest.raises(ValueError):
        build_output_transform(model, s_override=np.eye(4))  # does not annihilate B


def test_transform_requires_relative_degree_one():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[1.0, 0.0]])
    with pytest.raises(SolverError):
        build_output_transform(AgentModel(A, B, C))


# ---------------------------------------------------------------------------
# observer gain


def test_observer_gain_scalar():
    H1 = design_observer_gain(np.array([[-1.0]]), np.array([[1.0]]))
    assert (-1.0 + H1[0, 0]) < -1.0


def test_observer_gain_reference_block_and_paper_choice():
    model = demo_noncollab()
    tr = build_output_transform(model, s_override=golden.NONCOLLAB_S, t_override=golden.NONCOLLAB_T)
    # the shipped fixed gain stabilizes
    closed = tr.A11 + golden.NONCOLLAB_H1 @ tr.C1
    assert eigenvalues(closed).is_hurwitz
    # and so does the Riccati-designed one
    H1 = design_observer_gain(tr.A11, tr.C1)
    assert eigenvalues(tr.A11 + H1 @ tr.C1).is_hurwitz


def test_observer_gain_random_detectable():
    rng = np.random.default_rng(2718)
    for _ in range(5):
        A11 = rng.standard_normal((5, 5))
        C1 = rng.standard_normal((2, 5))
        H1 = design_observer_gain(A11, C1)
        assert eigenvalues(A11 + H1 @ C1).is_hurwitz


def test_observer_gain_empty_c1_requires_hurwitz():
    H1 = design_observer_gain(np.array([[-2.0]]), np.zeros((0, 1)))
    assert H1.shape == (1, 0)
    with pytest.raises(SolverError):
        design_observer_gain(np.array([[2.0]]), np.zeros((0, 1)))


def test_observer_gain_undetectable_rejected():
    A11 = np.diag([1.0, -1.0])
    C1 = np.array([[0.0, 1.0]])
    with pytest.raises(SolverError):
        design_observer_gain(A11, C1)


@pytest.mark.parametrize("design, model", [(design_noncollab, demo_noncollab), (design_collab, demo_collab)])
def test_both_designs_check_delta_and_d_with_one_set_of_texts(design, model):
    # agents.check_level, called by both designs: the same message for the
    # same bad level arguments, a NaN included.
    cases = [
        ((None, None), "provide delta, d_override, or both"),
        ((None, 0.0), "dead-zone level d must be positive"),
        ((None, -1.0), "dead-zone level d must be positive"),
        ((None, float("nan")), "dead-zone level d must be positive"),
        ((0.0, None), "delta must be positive"),
        ((-2.0, 0.1), "delta must be positive"),
        ((float("nan"), None), "delta must be positive"),
    ]
    for (delta, d), text in cases:
        with pytest.raises(ValueError) as excinfo:
            design(model(), delta=delta, d_override=d)
        assert str(excinfo.value) == text, (delta, d)
