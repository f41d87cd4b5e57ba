"""Simulation engine: disturbances, integration, recording."""

import numpy as np
import pytest

from cohsync.agents import AgentModel
from cohsync.collab import design_collab
from cohsync.graphs import (
    DirectedWeightedGraph,
    generate_circulant,
    generate_disconnected_composite,
    weakly_connected_components,
)
from cohsync.linalg import SolverError
from cohsync.noncollab import design_noncollab
from cohsync.simulate import (
    DisturbanceSpec,
    IntegrationBlowup,
    SimConfig,
    _disturbance_rows,
    detect_settling,
    gain_flatness,
    settling_metric,
    settling_report,
    simulate,
    write_trajectory_csv,
)

import golden


def pair_graph():
    return DirectedWeightedGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])


def scalar_model():
    return AgentModel([[0.0]], [[1.0]], [[1.0]], [[1.0]])


def demo_noncollab_design(**kwargs):
    kwargs.setdefault("delta", 2.0)
    model = AgentModel(golden.NONCOLLAB_A, golden.NONCOLLAB_B, golden.NONCOLLAB_C, golden.NONCOLLAB_E)
    return model, design_noncollab(
        model,
        s_override=golden.NONCOLLAB_S,
        t_override=golden.NONCOLLAB_T,
        h1_override=golden.NONCOLLAB_H1,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# disturbances


def one_agent(spec, agent_index, t):
    """Disturbance row of one agent, through a one-element index array."""
    return _disturbance_rows(spec, np.array([float(agent_index)]), t, spec.width)[0]


def test_disturbance_chirp():
    spec = DisturbanceSpec(kind="chirp")
    assert one_agent(spec, 1, 0.0) == pytest.approx([0.0])
    assert one_agent(spec, 3, 2.0)[0] == pytest.approx(np.sin(0.64), rel=1e-15)


def test_disturbance_sawtooth_rounds_half_to_even():
    spec = DisturbanceSpec(kind="sawtooth")
    assert one_agent(spec, 1, 0.25)[0] == pytest.approx(0.25)
    # 0.5 rounds to 0, 1.5 rounds to 2.
    assert one_agent(spec, 1, 0.5)[0] == pytest.approx(0.5)
    assert one_agent(spec, 1, 1.5)[0] == pytest.approx(-0.5)
    assert one_agent(spec, 2, 0.75)[0] == pytest.approx(-0.5)


def test_disturbance_zero_and_width():
    spec = DisturbanceSpec(kind="zero", width=3)
    assert one_agent(spec, 5, 1.0) == pytest.approx([0.0, 0.0, 0.0])
    chirp = DisturbanceSpec(kind="chirp", width=2)
    vals = one_agent(chirp, 2, 1.0)
    assert vals.shape == (2,)
    assert vals[0] == vals[1]


def test_disturbance_table_interpolates_and_rejects_out_of_range():
    spec = DisturbanceSpec(kind="table", width=1, times=[0.0, 1.0, 2.0], values=[[0.0], [2.0], [0.0]])
    assert one_agent(spec, 1, 0.5)[0] == pytest.approx(1.0)
    assert one_agent(spec, 4, 1.0)[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        one_agent(spec, 1, 2.5)
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="table", width=1, times=[0.0], values=[[1.0]])
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="nonsense")


# ---------------------------------------------------------------------------
# integration


def test_sync_manifold_is_invariant():
    model, design = demo_noncollab_design()
    g = DirectedWeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    ic = np.tile([0.3, -0.2, 0.5, 0.1], (3, 1))
    run = simulate(
        SimConfig(model=model, graph=g, design=design, dt=1e-3, t_end=1.0, initial_states=ic)
    )
    assert np.all(run.zeta == 0.0)
    assert np.all(run.rho == 0.0)
    assert np.all(run.controls == 0.0)
    assert np.all(run.coherency_proxy == 0.0)
    assert np.array_equal(run.outputs[:, 0], run.outputs[:, 1])
    assert np.array_equal(run.outputs[:, 0], run.outputs[:, 2])


def naive_pair_trajectory(design, x0, dt, n_steps):
    """Scalar two-agent closed loop via plain per-agent arithmetic."""
    d = design.d

    def f(t, s):
        x1, x2, r1, r2 = s
        out = np.empty(4)
        for i, (x, other, r) in enumerate(((x1, x2, r1), (x2, x1, r2))):
            z = x - other
            w = np.sin(0.1 * (i + 1) * t + 0.01 * t * t)
            out[i] = -r * z + w
            out[2 + i] = z * z if z * z >= d else 0.0
        return out

    s = np.array([x0[0], x0[1], 0.0, 0.0])
    states = [s.copy()]
    for k in range(n_steps):
        t = k * dt
        k1 = f(t, s)
        k2 = f(t + dt / 2, s + dt / 2 * k1)
        k3 = f(t + dt / 2, s + dt / 2 * k2)
        k4 = f(t + dt, s + dt * k3)
        s = s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(s.copy())
    return np.array(states)


def test_pair_matches_naive_closed_loop_oracle():
    model = scalar_model()
    design = design_noncollab(model, delta=1.0)
    assert design.d == pytest.approx(0.81, rel=1e-12)
    assert design.P[0, 0] == pytest.approx(1.0, abs=1e-10)

    dt, n_steps = 1e-3, 4000
    ics = np.array([[2.0], [-1.0]])
    run = simulate(
        SimConfig(
            model=model,
            graph=pair_graph(),
            design=design,
            disturbance=DisturbanceSpec(kind="chirp"),
            dt=dt,
            t_end=dt * n_steps,
            initial_states=ics,
        )
    )
    naive = naive_pair_trajectory(design, ics[:, 0], dt, n_steps)
    assert run.states.shape == (n_steps + 1, 2, 1)
    assert np.allclose(run.states[:, 0, 0], naive[:, 0], rtol=1e-9, atol=1e-11)
    assert np.allclose(run.states[:, 1, 0], naive[:, 1], rtol=1e-9, atol=1e-11)
    assert np.allclose(run.rho[:, 0], naive[:, 2], rtol=1e-9, atol=1e-11)
    assert np.allclose(run.rho[:, 1], naive[:, 3], rtol=1e-9, atol=1e-11)


def test_pair_settles_and_gains_freeze():
    model = scalar_model()
    design = design_noncollab(model, delta=1.0)
    run = simulate(
        SimConfig(
            model=model,
            graph=pair_graph(),
            design=design,
            dt=1e-3,
            t_end=10.0,
            initial_states=np.array([[2.0], [-1.0]]),
        )
    )
    # rho never decreases and is exactly frozen once the proxy is deep
    # inside the dead zone.
    assert np.all(np.diff(run.rho, axis=0) >= 0.0)
    assert np.all(run.coherency_proxy[-1] < design.d)
    late = run.times >= 8.0
    assert np.unique(run.rho[late, 0]).size == 1
    # Disagreement decays monotonically (up to float noise) once frozen.
    norms = run.coherency_norm[:, 0]
    assert np.all(np.diff(norms) <= 1e-12)

    report = settling_report(run, threshold=2 * design.d, trailing_window=5.0)
    assert all(T is not None for T in report)
    flat = gain_flatness(run)
    assert np.all(flat["rho"] < 1e-2)


def test_determinism_bitwise():
    model, design = demo_noncollab_design()
    g = generate_disconnected_composite((3, 3), seed=5)
    cfg = dict(
        model=model,
        graph=g,
        design=design,
        disturbance=DisturbanceSpec(kind="chirp"),
        dt=1e-3,
        t_end=0.5,
        seed=11,
    )
    a = simulate(SimConfig(**cfg))
    b = simulate(SimConfig(**cfg))
    for name in ("states", "protocol_states", "outputs", "controls", "zeta", "rho", "coherency_proxy"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.states.tobytes() == b.states.tobytes()


def test_components_simulate_identically_alone():
    model, design = demo_noncollab_design()
    g = generate_disconnected_composite((4, 5), seed=3)
    full = simulate(
        SimConfig(
            model=model,
            graph=g,
            design=design,
            disturbance=DisturbanceSpec(kind="chirp"),
            dt=1e-3,
            t_end=2.0,
            seed=7,
        )
    )
    blocks = [(0, 4), (4, 9)]
    for lo, hi in blocks:
        sub = DirectedWeightedGraph(g.adjacency[lo:hi, lo:hi])
        solo = simulate(
            SimConfig(
                model=model,
                graph=sub,
                design=design,
                disturbance=DisturbanceSpec(kind="chirp"),
                dt=1e-3,
                t_end=2.0,
                seed=7,
                disturbance_indices=tuple(range(lo + 1, hi + 1)),
            )
        )
        assert np.array_equal(full.states[:, lo:hi], solo.states)
        assert np.array_equal(full.rho[:, lo:hi], solo.rho)
        assert np.array_equal(full.controls[:, lo:hi], solo.controls)
        assert np.array_equal(full.coherency_proxy[:, lo:hi], solo.coherency_proxy)


def mixed_component_graph():
    """Components of 5, 7, 3, 1 and 1 nodes with different largest
    in-degrees (circulants with offsets (1, 2) and (1, 2, 3), a random
    3-node digraph, two isolated nodes), their nodes shuffled together."""
    rng = np.random.default_rng(4)
    blocks = [
        generate_circulant(5, (1, 2)).adjacency,
        generate_circulant(7, (1, 2, 3)).adjacency,
        rng.uniform(0.5, 2.0, (3, 3)) * [[0.0, 0.0, 0.7], [1.3, 0.0, 0.0], [0.4, 2.1, 0.0]],
        np.zeros((1, 1)),
        np.zeros((1, 1)),
    ]
    n = sum(b.shape[0] for b in blocks)
    A = np.zeros((n, n))
    lo = 0
    for b in blocks:
        A[lo : lo + b.shape[0], lo : lo + b.shape[0]] = b
        lo += b.shape[0]
    perm = rng.permutation(n)
    return DirectedWeightedGraph(A[np.ix_(perm, perm)])


def rotated_model(A, B, C, E, seed):
    """The model in random orthogonal coordinates: no entry is a small
    integer, so products round as they would for a general model."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(A), len(A))))
    return AgentModel(Q @ A @ Q.T, Q @ B, C @ Q.T, Q @ E)


@pytest.mark.parametrize("protocol", ["noncollaborative", "collaborative"])
def test_mixed_components_match_solo_runs_bitwise(protocol):
    if protocol == "noncollaborative":
        model = rotated_model(
            golden.NONCOLLAB_A, golden.NONCOLLAB_B, golden.NONCOLLAB_C, golden.NONCOLLAB_E, 1
        )
        design = design_noncollab(model, delta=2.0)
        gains = {}
    else:
        model = rotated_model(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, golden.COLLAB_E, 1)
        design = design_collab(model, delta=2.0)
        gains = dict(initial_rho=8.0, initial_alpha=4.0)
    g = mixed_component_graph()
    cfg = dict(
        model=model,
        design=design,
        disturbance=DisturbanceSpec(kind="chirp"),
        dt=1e-3,
        t_end=1.0,
        seed=3,
        record_stride=3,
        **gains,
    )
    full = simulate(SimConfig(graph=g, **cfg))
    components = weakly_connected_components(g)
    assert sorted(len(c) for c in components) == [1, 1, 3, 5, 7]
    names = ("states", "protocol_states", "outputs", "controls", "zeta", "rho", "alpha")
    names += ("coherency_proxy", "exchange_energy")
    for comp in components:
        sel = np.asarray(comp)
        solo = simulate(
            SimConfig(
                graph=DirectedWeightedGraph(g.adjacency[np.ix_(sel, sel)]),
                disturbance_indices=tuple(sel + 1),
                **cfg,
            )
        )
        for name in names:
            a, b = getattr(full, name), getattr(solo, name)
            if a is None:
                assert b is None and protocol == "noncollaborative", name
                continue
            # Bitwise, the sign of a zero included.
            assert np.array_equal(a[:, sel], b), (name, comp)
            assert np.array_equal(np.signbit(a[:, sel]), np.signbit(b)), (name, comp)


def test_recording_stride_and_final_sample():
    model = scalar_model()
    design = design_noncollab(model, delta=1.0)
    run = simulate(
        SimConfig(
            model=model,
            graph=pair_graph(),
            design=design,
            dt=1e-3,
            t_end=0.1,
            record_stride=7,
            initial_states=np.zeros((2, 1)),
        )
    )
    assert run.times.shape[0] == 16  # 0, 7dt, ..., 98dt, then the final 100dt
    assert run.times[-1] == pytest.approx(0.1, rel=1e-12)
    assert run.times[1] == pytest.approx(7e-3, rel=1e-12)
    assert run.record_stride == 7


def test_growth_warning_without_blowup():
    model = AgentModel([[-1.0]], [[1.0]], [[1.0]])
    design = design_noncollab(model, delta=1.0)
    g = DirectedWeightedGraph(np.zeros((1, 1)))
    run = simulate(
        SimConfig(
            model=model,
            graph=g,
            design=design,
            dt=20.0,
            t_end=600.0,
            initial_states=np.array([[1.0]]),
        )
    )
    assert run.warnings and "growth" in run.warnings[0]
    assert np.all(np.isfinite(run.states))


def test_growth_warning_kept_per_component():
    # Each isolated agent is its own component and grows about 5.5e3-fold
    # per step; the smaller start crosses the limit one step later.
    model = AgentModel([[-1.0]], [[1.0]], [[1.0]])
    design = design_noncollab(model, delta=1.0)
    starts = [1e-4, 1.0, 2e-4]
    cfg = dict(model=model, design=design, dt=20.0, t_end=600.0)
    full = simulate(
        SimConfig(
            graph=DirectedWeightedGraph(np.zeros((3, 3))),
            initial_states=np.array(starts)[:, None],
            **cfg,
        )
    )
    solo_warnings = []
    for i, x0 in enumerate(starts):
        solo = simulate(
            SimConfig(
                graph=DirectedWeightedGraph(np.zeros((1, 1))),
                initial_states=np.array([[x0]]),
                disturbance_indices=(i + 1,),
                **cfg,
            )
        )
        assert len(solo.warnings) == 1
        solo_warnings += solo.warnings
    assert "t=40" in solo_warnings[0] and "t=20" in solo_warnings[1]
    assert full.warnings == solo_warnings


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_blowup_in_one_component_aborts_the_run():
    model = AgentModel([[1.0]], [[1.0]], [[1.0]])
    design = design_noncollab(model, delta=1.0)
    cfg = dict(model=model, design=design, dt=5.0, t_end=100.0)
    with pytest.raises(IntegrationBlowup) as solo:
        simulate(SimConfig(graph=pair_graph(), initial_states=np.array([[1e3], [-1e3]]), **cfg))
    # An isolated agent at rest stays at 0; only the pair diverges.
    g = DirectedWeightedGraph.from_edges(3, [(0, 2, 1.0), (2, 0, 1.0)])
    with pytest.raises(IntegrationBlowup) as full:
        simulate(SimConfig(graph=g, initial_states=np.array([[1e3], [0.0], [-1e3]]), **cfg))
    assert str(full.value) == str(solo.value)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_blowup_aborts_with_diagnostic():
    model = AgentModel([[1.0]], [[1.0]], [[1.0]])
    design = design_noncollab(model, delta=1.0)
    with pytest.raises(IntegrationBlowup, match="non-finite") as excinfo:
        simulate(
            SimConfig(
                model=model,
                graph=pair_graph(),
                design=design,
                dt=5.0,
                t_end=100.0,
                initial_states=np.array([[1e3], [-1e3]]),
            )
        )
    # Callers that catch solver failures in general still see a blow-up.
    assert isinstance(excinfo.value, SolverError)


def test_halving_dt_barely_changes_trajectories():
    model = scalar_model()
    design = design_noncollab(model, delta=1.0)
    runs = {}
    for dt in (1e-2, 5e-3):
        runs[dt] = simulate(
            SimConfig(
                model=model,
                graph=pair_graph(),
                design=design,
                disturbance=DisturbanceSpec(kind="chirp"),
                dt=dt,
                t_end=1.0,
                initial_states=np.array([[2.0], [-1.0]]),
            )
        )
    coarse = runs[1e-2].states[-1]
    fine = runs[5e-3].states[-1]
    assert np.max(np.abs(coarse - fine)) < 1e-4 * max(1.0, np.max(np.abs(fine)))


def test_collab_run_smoke():
    model = AgentModel(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, golden.COLLAB_E)
    design = design_collab(model, delta=2.0)
    run = simulate(
        SimConfig(
            model=model,
            graph=pair_graph(),
            design=design,
            disturbance=DisturbanceSpec(kind="chirp"),
            dt=1e-3,
            t_end=3.0,
            seed=1,
        )
    )
    assert run.protocol == "collaborative"
    assert run.alpha is not None and run.exchange_energy is not None
    assert np.all(np.diff(run.rho, axis=0) >= 0.0)
    assert np.all(np.diff(run.alpha, axis=0) >= 0.0)
    # alpha grows at most at unit rate.
    assert np.all(np.diff(run.alpha, axis=0) <= (run.times[1] - run.times[0]) + 1e-12)
    assert np.all(run.controls[0] == 0.0)
    assert settling_metric(run).shape == run.rho.shape


def test_config_validation():
    model, design = demo_noncollab_design()
    g = pair_graph()
    with pytest.raises(ValueError):
        simulate(SimConfig(model=model, graph=g, design=design, dt=-1.0))
    with pytest.raises(ValueError):
        simulate(SimConfig(model=model, graph=g, design=design, dt=1.0, t_end=0.5))
    with pytest.raises(ValueError):
        simulate(SimConfig(model=model, graph=g, design=design, record_stride=0))
    with pytest.raises(ValueError):
        simulate(SimConfig(model=model, graph=g, design=design, initial_states=np.zeros((3, 4))))
    with pytest.raises(ValueError):
        simulate(
            SimConfig(
                model=model,
                graph=g,
                design=design,
                disturbance=DisturbanceSpec(kind="chirp", width=2),
            )
        )
    with pytest.raises(ValueError):
        simulate(SimConfig(model=model, graph=g, design=design, disturbance_indices=(1,)))
    other = scalar_model()
    with pytest.raises(ValueError):
        simulate(SimConfig(model=other, graph=g, design=design))
    empty = DirectedWeightedGraph(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="no agents"):
        simulate(SimConfig(model=model, graph=empty, design=design))


# ---------------------------------------------------------------------------
# settling detection


def test_detect_settling_cases():
    times = np.linspace(0.0, 10.0, 101)
    zero = np.zeros(101)
    assert detect_settling(times, zero, 0.5, 5.0) == 0.0
    ones = np.ones(101)
    assert detect_settling(times, ones, 0.5, 5.0) is None
    step = np.where(times < 3.0, 1.0, 0.1)
    assert detect_settling(times, step, 0.5, 5.0) == pytest.approx(3.0)
    assert detect_settling(times, step, 0.5, 7.5) is None
    with pytest.raises(ValueError):
        detect_settling(times, zero, 0.5, 11.0)


# ---------------------------------------------------------------------------
# trajectory files


def test_trajectory_csv_format(tmp_path):
    model = scalar_model()
    design = design_noncollab(model, delta=1.0)
    run = simulate(
        SimConfig(
            model=model,
            graph=pair_graph(),
            design=design,
            dt=1e-2,
            t_end=0.05,
            initial_states=np.array([[2.0], [-1.0]]),
        )
    )
    path = tmp_path / "traj.csv"
    write_trajectory_csv(run, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,agent,y1,coherency_norm,coherency_proxy,rho,u1"
    assert len(lines) == 1 + run.times.shape[0] * 2
    cells = lines[1].split(",")
    assert float(cells[0]) == run.times[0]
    assert cells[1] == "1"
    assert float(cells[2]) == run.outputs[0, 0, 0]
    assert float(cells[5]) == run.rho[0, 0]
    assert float(cells[6]) == run.controls[0, 0, 0]


def test_trajectory_csv_collab_has_alpha_column(tmp_path):
    model = AgentModel(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, golden.COLLAB_E)
    design = design_collab(model, delta=2.0)
    run = simulate(
        SimConfig(model=model, graph=pair_graph(), design=design, dt=1e-2, t_end=0.05, seed=2)
    )
    path = tmp_path / "traj.csv"
    write_trajectory_csv(run, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,agent,y1,coherency_norm,coherency_proxy,rho,alpha,u1"
