"""Simulation engine: disturbances, integration, recording."""

import math
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsync import _native
from cohsync import simulate as simulate_module
from cohsync.agents import AgentModel
from cohsync.collab import design_collab
from cohsync.graphs import (
    DirectedWeightedGraph,
    generate_circulant,
    generate_disconnected_composite,
    laplacian,
    weakly_connected_components,
)
from cohsync.linalg import SlotProduct, SolverError
from cohsync.noncollab import design_noncollab
from cohsync.simulate import (
    PROTOCOLS,
    DisturbanceSpec,
    IntegrationBlowup,
    SimConfig,
    SimulationRun,
    _decimal_digits,
    _disturbance_writer,
    _g17_records,
    _keyed_uniform,
    _numpy_stage,
    _stage,
    check_run,
    detect_settling,
    gain_flatness,
    settling_metric,
    settling_report,
    simulate,
    stage_matrix,
    write_trajectory_csv,
)

import golden


def step_paths(monkeypatch):
    """Sets each step path in turn, yielding its name: the compiled step,
    where a C compiler builds it, and the numpy path, taken as on a host
    without one."""
    if _native.library() is not None:
        yield "compiled"
    monkeypatch.setattr(_native, "library", lambda: None)
    yield "numpy"


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


def demo_collab_design(**kwargs):
    kwargs.setdefault("delta", 2.0)
    model = AgentModel(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, golden.COLLAB_E)
    return model, design_collab(model, **kwargs)


# ---------------------------------------------------------------------------
# disturbances


def one_agent(spec, agent_index, t):
    """Disturbance row of one agent, through a one-element index array."""
    out = np.zeros((1, spec.width))
    write = _disturbance_writer(spec, np.array([float(agent_index)]))
    if write is not None:  # the zero kind leaves the row at zero
        write(t, out)
    return out[0]


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
    with pytest.raises(ValueError, match="width must be nonnegative"):
        DisturbanceSpec(kind="chirp", width=-1)
    for missing in ("times", "values"):
        table = {"times": [0.0, 1.0], "values": [[0.0], [1.0]], missing: None}
        with pytest.raises(ValueError, match="table disturbance needs times and values"):
            DisturbanceSpec(kind="table", **table)


def test_a_table_covering_the_horizon_runs_to_its_end():
    # With dt 0.1 the last step ends at 29 * 0.1 + 0.1 = 3.0000000000000004,
    # an ulp past the horizon 30 * 0.1 = 3 that the table covers.
    model, design = demo_collab_design()
    graph = generate_circulant(3, (1,), directed=True)
    for end, ok in ((3.0, True), (2.9, False)):
        table = DisturbanceSpec(kind="table", times=[0.0, 1.0, end], values=[[0.0], [2.0], [-1.0]])
        config = SimConfig(model=model, graph=graph, design=design, disturbance=table, dt=0.1, t_end=3.0)
        if ok:
            assert check_run(model, table, 0.1, 3.0, 3, 1, "collaborative") == 30
            assert simulate(config).times[-1] == 3.0
        else:
            with pytest.raises(ValueError, match=r"covers \[0.0, 2.9\], not the run's \[0, 3.0\]"):
                simulate(config)



def test_a_recording_beyond_physical_memory_is_rejected_from_its_settings():
    # dt 0.001 over 1e9 s at stride 10 records 1e11 samples: terabytes of
    # states, refused by arithmetic on the settings, before any allocation.
    model = AgentModel(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, golden.COLLAB_E)
    zero = DisturbanceSpec(kind="zero")
    with pytest.raises(ValueError, match="physical memory; raise record_stride"):
        check_run(model, zero, 0.001, 1e9, 5, 10, "collaborative")
    assert check_run(model, zero, 0.001, 30.0, 5, 10, "collaborative") == 30000
    with pytest.raises(ValueError, match="record_stride must be at least 1"):
        check_run(model, zero, 0.001, 30.0, 5, 0, "collaborative")


def physical_memory(monkeypatch, n_bytes):
    """Make os.sysconf report n_bytes of physical memory in 1-byte pages."""
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": n_bytes}.__getitem__)


@pytest.mark.parametrize("protocol", ["noncollaborative", "collaborative"])
def test_the_memory_rule_counts_the_whole_record(monkeypatch, protocol):
    # The rule's bound is what a run holds at once at its end: the arrays
    # of the SimulationRun (states, rho and alpha are views of the one
    # state-row record) and the recorded L x block, n doubles a sample and
    # agent, from which simulate forms zeta.
    model, design = demo_noncollab_design() if protocol == "noncollaborative" else demo_collab_design()
    graph = generate_circulant(4, offsets=(1, 2))
    run = simulate(SimConfig(model=model, graph=graph, design=design, dt=0.01, t_end=0.2, record_stride=3))
    arrays = [v for v in vars(run).values() if isinstance(v, np.ndarray) and v.shape[0] == run.times.shape[0]]
    buffers = {id(a if a.base is None else a.base): (a if a.base is None else a.base).nbytes for a in arrays}
    x_block = run.states.nbytes  # as large as the L x block
    held = sum(buffers.values()) + x_block
    physical_memory(monkeypatch, held)
    assert check_run(model, DisturbanceSpec(), 0.01, 0.2, 4, 3, protocol) == 20
    physical_memory(monkeypatch, held - 1)
    with pytest.raises(ValueError, match="physical memory; raise record_stride"):
        check_run(model, DisturbanceSpec(), 0.01, 0.2, 4, 3, protocol)
    # The x block alone fits twice over; the old rule counted only it.
    assert 2 * x_block < held - 1
    with pytest.raises(ValueError, match="physical memory"):
        simulate(SimConfig(model=model, graph=graph, design=design, dt=0.01, t_end=0.2, record_stride=3))


# ---------------------------------------------------------------------------
# integration


TABLE = DisturbanceSpec(kind="table", times=[0.0, 1.0, 2.0], values=[[0.0], [2.0], [-1.0]])


@pytest.mark.parametrize("protocol", ["noncollaborative", "collaborative"])
@pytest.mark.parametrize("n_agents", [1, 2, 25])
@pytest.mark.parametrize(
    "spec", [DisturbanceSpec(), DisturbanceSpec(kind="chirp"), DisturbanceSpec(kind="sawtooth"), TABLE]
)
def test_fused_stage_matches_plant_and_law_oracle(protocol, n_agents, spec):
    # One stage of the integrator against A x + B u + E w, with u and the
    # protocol-state derivative from the law evaluated at x = 0 and w = 0
    # on the same network sums, taken through the dense Laplacian.
    model, design = demo_noncollab_design() if protocol == "noncollaborative" else demo_collab_design()
    n, sums = model.n, design.widths(model.n, model.m)[1]
    rng = np.random.default_rng(n_agents)
    edges = [(j, i, rng.random() + 0.5) for i in range(n_agents) for j in (i - 1, i - 3) if j >= 0]
    graph = DirectedWeightedGraph.from_edges(n_agents, edges)
    indices = np.arange(1.0, n_agents + 1.0)
    stage = _stage(model, design, graph, spec, indices)
    X, K, evaluate = stage.X, stage.K, _numpy_stage(stage)
    S = rng.standard_normal(X.shape)
    S[:, n:] = rng.random((n_agents, S.shape[1] - n)) * 3.0  # gains >= 0 ...
    if protocol == "collaborative":
        S[:, n : 2 * n] = rng.standard_normal((n_agents, n))  # ... observer states of either sign
        S[::3, -1] = 0.0  # alpha = 0: no feedback
    else:
        S[:, n:-1] = rng.standard_normal((n_agents, S.shape[1] - n - 1))
    X[...] = S
    t = 0.7
    w = None  # the zero kind's
    if stage.disturb is not None:  # w(t) as each of a step's three blocks
        w = np.empty((3, model.w, n_agents))
        stage.disturb(np.full((3, 1), t), w.transpose(0, 2, 1))
    # Each of the four RK4 stages writes its own derivative.
    for j in range(4):
        evaluate(w, j)
    assert all(np.array_equal(K[j], K[0]) for j in range(4))
    out = K[0].T
    lx, U, signal, exchange = stage.record()

    LS = laplacian(graph) @ S[:, :sums]
    PS = S[:, n:]
    W = np.hstack([np.zeros((n_agents, n)), PS, LS, np.zeros((n_agents, model.w))])
    law_out = np.empty(S.shape)
    rates, signals, _ = design.law(PS, SlotProduct(stage_matrix(model, design))(W), [law_out])
    rates(0)
    u, law_signal, law_exchange = signals()
    if spec.kind == "zero":
        w = np.zeros(n_agents)
    elif spec.kind == "chirp":
        w = np.sin(0.1 * indices * t + 0.01 * t * t)
    elif spec.kind == "sawtooth":
        w = indices * t - np.round(indices * t)
    else:
        w = np.full(n_agents, np.interp(t, spec.times, spec.values[:, 0]))
    dx = S[:, :n] @ model.A.T + u @ model.B.T + w[:, None] @ model.E.T

    def close(a, b):
        return np.allclose(a, b, rtol=1e-13, atol=1e-13 * np.max(np.abs(b)))

    assert close(lx, LS[:, :n])
    assert close(out[:, :n], dx)
    assert close(out[:, n:], law_out[:, n:])
    assert close(U, u) and close(signal, law_signal)
    assert (exchange is None) == (law_exchange is None) == (protocol == "noncollaborative")
    if exchange is not None:
        assert close(exchange, law_exchange)


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_each_protocol_declares_the_widths_its_run_and_law_use(protocol):
    model, design = demo_noncollab_design() if protocol == "noncollaborative" else demo_collab_design()
    assert type(design) is PROTOCOLS[protocol] and design.protocol == protocol
    n, rows = model.n, 3
    observer, sums, signals = design.widths(n, model.m)
    run = simulate(SimConfig(model=model, graph=generate_circulant(rows, (1,)), design=design, dt=0.01, t_end=0.05))
    assert run.protocol == protocol and run.protocol_states.shape[2] == observer
    assert [gain for gain in ("rho", "alpha") if getattr(run, gain) is not None] == list(design.gains)
    # The signals: u, the settling proxy and, where recorded, the exchange energy.
    assert run.controls.shape[2] + 1 + (run.exchange_energy is not None) == signals
    M = stage_matrix(model, design)
    state = observer + len(design.gains)
    assert M.shape[0] == n + state + sums + model.w
    # The law's shape check accepts the declared widths and no others.
    F = np.zeros((rows, M.shape[1]))
    design.law(np.zeros((rows, state)), F, [np.empty((rows, n + state))])
    with pytest.raises(ValueError, match="expected rows of widths"):
        design.law(np.zeros((rows, state + 1)), F, [np.empty((rows, n + state + 1))])


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

    report = settling_report(run, threshold=2 * design.d, trailing_window=5.0, metric=settling_metric(run))
    assert all(T is not None for T in report)
    flat = gain_flatness(run)
    assert np.all(flat["rho"] < 1e-2)
    for fraction in (0.0, -0.1, 1.5, np.nan):
        with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\]"):
            gain_flatness(run, fraction)


def test_determinism_bitwise(monkeypatch):
    # Repeatable on each path, and the same bytes on both.
    states = {}
    for path in step_paths(monkeypatch):
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
        states[path] = a.states.tobytes()
    assert len(set(states.values())) == 1


def test_components_simulate_identically_alone(monkeypatch):
    for path in step_paths(monkeypatch):
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
def test_mixed_components_match_solo_runs_bitwise(protocol, monkeypatch):
    for path in step_paths(monkeypatch):
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


@pytest.mark.parametrize("protocol", ["noncollaborative", "collaborative"])
def test_strided_recording_is_every_stride_th_sample_bitwise(protocol, monkeypatch):
    # The recorded signals are formed only at recorded steps; they must be
    # the ones every step would give, on either path.  50 steps: strides 3
    # and 7 end on a last sample off their grid.
    records = {}
    for path in step_paths(monkeypatch):
        model, design = demo_noncollab_design() if protocol == "noncollaborative" else demo_collab_design()
        runs = [
            simulate(
                SimConfig(
                    model=model,
                    graph=generate_circulant(5, (1, 2), directed=True),
                    design=design,
                    disturbance=DisturbanceSpec(kind="chirp"),
                    dt=1e-2,
                    t_end=0.5,
                    record_stride=stride,
                    initial_rho=1.0,
                    initial_alpha=0.5 if protocol == "collaborative" else 0.0,
                )
            )
            for stride in (1, 3, 7)
        ]
        every = vars(runs[0])
        arrays = [name for name, value in every.items() if isinstance(value, np.ndarray)]
        assert len(arrays) == (12 if protocol == "collaborative" else 10)
        assert np.any(every["controls"] != 0.0)
        for stride, run in zip((3, 7), runs[1:]):
            steps = list(range(0, 50, stride)) + [50]
            for name in arrays:
                a = every[name] if name == "agent_indices" else every[name][steps]
                b = vars(run)[name]
                assert a.shape == b.shape and np.array_equal(a, b), (stride, name)
                assert np.array_equal(np.signbit(a), np.signbit(b)), (stride, name)
        records[path] = tuple(v.tobytes() for run in runs for v in vars(run).values() if isinstance(v, np.ndarray))
    assert len(set(map(tuple, records.values()))) == 1


def test_growth_warning_without_blowup(monkeypatch):
    warnings = {}
    for path in step_paths(monkeypatch):
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
        warnings[path] = (run.warnings, run.states.tobytes())
    assert len(set(map(repr, warnings.values()))) == 1


def test_growth_warning_kept_per_component(monkeypatch):
    # Each isolated agent is its own component and grows about 5.5e3-fold
    # per step; the smaller start crosses the limit one step later.
    warnings = {}
    for path in step_paths(monkeypatch):
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
        warnings[path] = full.warnings
    assert len(set(map(repr, warnings.values()))) == 1


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_blowup_in_one_component_aborts_the_run(monkeypatch):
    messages = {}
    for path in step_paths(monkeypatch):
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
        messages[path] = str(full.value)
    assert len(set(messages.values())) == 1


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_blowup_aborts_with_diagnostic(monkeypatch):
    for path in step_paths(monkeypatch):
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


def test_collab_run_on_ten_thousand_agents():
    model = AgentModel(golden.COLLAB_A, golden.COLLAB_B, golden.COLLAB_C, golden.COLLAB_E)
    design = design_collab(model, delta=2.0)
    n = 10_000
    run = simulate(
        SimConfig(
            model=model,
            graph=generate_circulant(n, offsets=(1, 2)),
            design=design,
            disturbance=DisturbanceSpec(kind="chirp"),
            dt=1e-3,
            t_end=2e-3,
            seed=1,
        )
    )
    assert run.times.tolist() == [0.0, 1e-3, 2e-3]
    assert run.states.shape == (3, n, model.n)
    assert np.all(np.isfinite(run.states)) and np.all(np.isfinite(run.alpha))


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
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        simulate(SimConfig(model=model, graph=g, design=design, seed=-1))
    with pytest.raises(ValueError, match="below 2"):
        simulate(SimConfig(model=model, graph=g, design=design, disturbance_indices=(1, 2**32)))
    col_model, col_design = demo_collab_design()
    for key in ("initial_rho", "initial_alpha"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                simulate(SimConfig(model=col_model, graph=g, design=col_design, **{key: value}))


def test_simulate_refuses_a_design_that_does_not_fit_the_run():
    model, design = demo_noncollab_design()
    _, col_design = demo_collab_design()
    g = pair_graph()
    with pytest.raises(TypeError, match="design must be"):
        simulate(SimConfig(model=model, graph=g, design=SimpleNamespace(d=0.5, delta=2.0)))
    with pytest.raises(ValueError, match="design dimensions do not match the model"):
        simulate(SimConfig(model=scalar_model(), graph=g, design=design))
    with pytest.raises(ValueError, match="design was built for a different model"):
        simulate(SimConfig(model=model, graph=g, design=col_design))
    with pytest.raises(ValueError, match="initial_alpha applies only to the collaborative protocol"):
        simulate(SimConfig(model=model, graph=g, design=design, initial_alpha=1.0))


# ---------------------------------------------------------------------------
# keyed initial states


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 5, 2**70 + 3, 2**100 + 7])
def test_keyed_draw_matches_default_rng_bitwise(seed):
    rng = np.random.default_rng(7)
    keys = np.concatenate([np.arange(1, 2001), rng.integers(2001, 10**5 + 1, 50), [10**5, 2**32 - 1]])
    for n in range(1, 9):
        drawn = _keyed_uniform(seed, keys.astype(float), n)
        expected = np.stack([np.random.default_rng([seed, int(g)]).uniform(-1.0, 1.0, n) for g in keys])
        assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64)), n


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
    for t, v in ((times, zero[:-1]), ([], [])):
        with pytest.raises(ValueError, match="times and values must be matching nonempty 1-D arrays"):
            detect_settling(t, v, 0.5, 0.0)


@pytest.mark.parametrize("protocol", ["noncollaborative", "collaborative"])
def test_settling_report_equals_detect_settling_per_agent(protocol):
    rng = np.random.default_rng(12)
    times = np.cumsum(rng.uniform(0.05, 0.15, 120))
    threshold = 0.5
    window = times[-1] - times[70]  # a tail from sample 70 on is exactly one window long
    metric = np.where(rng.random((120, 60)) < 0.9, rng.uniform(0.0, 0.5, (120, 60)), rng.uniform(0.5, 2.0, (120, 60)))
    for agent in range(60):  # each agent's last bad sample at a random index, or none
        last = rng.integers(-1, 120)
        metric[last + 1 :, agent] = np.minimum(metric[last + 1 :, agent], threshold)
    metric[:, 0] = threshold  # exactly at the threshold throughout
    metric[-1, 1] = 1.0  # never settles: bad at the end
    metric[:, 2:5] = 0.1
    metric[69, 2] = 1.0  # settles at sample 70: a tail of exactly one window
    metric[70, 3] = 1.0  # settles at sample 71: a tail just short of it
    metric[0, 4] = 1.0  # only the first sample is bad
    metric[50, 5] = np.nan  # not at or below the threshold either
    if protocol == "collaborative":
        proxy, exchange = metric * rng.random(metric.shape), metric
    else:
        proxy, exchange = metric, None
    run = SimpleNamespace(protocol=protocol, times=times, coherency_proxy=proxy, exchange_energy=exchange, n_agents=60)
    expected = [detect_settling(times, metric[:, i], threshold, window) for i in range(60)]
    assert settling_report(run, threshold, window, settling_metric(run)) == expected
    assert expected[:5] == [times[0], None, times[70], None, times[1]]
    assert sum(t is None for t in expected) > 5 and sum(t is not None for t in expected) > 20
    with pytest.raises(ValueError, match="trailing window longer"):
        settling_report(run, threshold, times[-1] - times[0] + 0.1, metric)


# ---------------------------------------------------------------------------
# number text


def g17_texts(values) -> list[str]:
    """The texts of _g17_records: each record's bytes less its zero bytes."""
    records = _g17_records(np.asarray(values, dtype=float))
    records[:, 5] |= np.uint64(ord("\n")) << np.uint64(56)
    text = records.reshape(-1).view(np.uint8)
    return text[text != 0].tobytes().decode().split("\n")[:-1]


def test_g17_edge_cases():
    tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
    edges = [0.0, -0.0, tiny, -tiny, 3 * tiny, 2.2250738585072014e-308, 2.225073858507201e-308, huge, -huge]
    edges += [np.inf, -np.inf, np.nan, -np.nan, 0.5, -0.5, 123.0, 1230.0, 0.25, 1e-300, 1e300, 1e-270, 1e281]
    edges += [1 + 2.0**-17, 1 + 3 * 2.0**-17, 2.5, 0.125, 2.0**-24]  # exact ties at 17 digits, and exact values
    for v in (1e-5, 1e-4, 1e16, 1e17):
        edges += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf), -v]
    for k in range(-320, 309):  # powers of ten and their neighbours
        edges += [10.0**k, np.nextafter(10.0**k, 0.0), np.nextafter(10.0**k, np.inf)]
    edges += (2.0**53 + np.arange(-40.0, 40.0)).tolist() + (2.0**54 + 4 * np.arange(-5.0, 5.0)).tolist()
    edges += [k * 10.0**e for k in (1, 2, 5, 25, 125, 999, 1001) for e in range(-25, 25)]  # trailing zeros
    assert g17_texts(edges) == ["%.17g" % v for v in edges]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_g17_matches_percent_formatting(values):
    assert g17_texts(values) == ["%.17g" % v for v in values]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_g17_matches_percent_formatting_on_a_million_doubles(seed):
    # 20 examples of 50 000 doubles.
    values = many_doubles(seed)
    assert g17_texts(values) == ["%.17g" % v for v in values.tolist()]


def many_doubles(seed) -> np.ndarray:
    """50 000 doubles: every bit pattern as likely as any other (all
    exponents, subnormals, inf and nan), then decimal exponents from -330
    to 330 drawn evenly."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, 25_000, dtype=np.uint64, endpoint=False).view(float)
    with np.errstate(over="ignore"):  # past 1.8e308: inf
        spread = rng.uniform(1.0, 10.0, 25_000) * 10.0 ** rng.integers(-330, 331, 25_000) * rng.choice([-1, 1], 25_000)
    return np.concatenate([bits, spread])


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


def reference_csv(run) -> str:
    """trajectory.csv formatted one field at a time with "%.17g"."""
    columns = [run.outputs] + [v[:, :, None] for v in (run.coherency_norm, run.coherency_proxy, run.rho)]
    columns += [] if run.alpha is None else [run.alpha[:, :, None]]
    table = np.concatenate(columns + [run.controls], axis=2)
    lines = []
    for s, t in enumerate(run.times.tolist()):
        for i, agent in enumerate(run.agent_indices.tolist()):
            lines.append(",".join(["%.17g" % t, str(agent)] + ["%.17g" % v for v in table[s, i].tolist()]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "protocol, scale, alpha0, n_agents",
    [
        ("noncollaborative", 1.0, 0.0, 5),
        ("noncollaborative", 3e-6, 0.0, 5),
        ("collaborative", 1.0, 4.0, 5),
        ("collaborative", 2e-6, 0.0, 5),
        ("collaborative", 1.0, 4.0, 333),  # chunks end inside samples
    ],
)
def test_trajectory_csv_bytes_equal_per_field_formatting(monkeypatch, tmp_path, protocol, scale, alpha0, n_agents):
    model, design = demo_noncollab_design() if protocol == "noncollaborative" else demo_collab_design()
    graph = generate_circulant(n_agents, offsets=(1, 2))
    config = SimConfig(
        model=model,
        graph=graph,
        design=design,
        disturbance=DisturbanceSpec(kind="chirp"),
        dt=1e-2,
        t_end=0.2,
        seed=3,
        initial_states=scale * _keyed_uniform(3, np.arange(1, n_agents + 1), model.n),
        initial_rho=1.5,
        initial_alpha=alpha0,
    )
    for path in step_paths(monkeypatch):
        run = simulate(config)
        csv = tmp_path / f"{path}.csv"
        write_trajectory_csv(run, csv)
        header, body = csv.read_bytes().split(b"\n", 1)
        assert body == reference_csv(run).encode(), path
        fields = body.decode().replace("\n", ",").split(",")
        # Both %g styles occur, and a zero control of an alpha0 = 0 run is +0.
        assert any("e-" in f for f in fields) or scale == 1.0
        assert any("." in f and "e" not in f for f in fields)
        if protocol == "collaborative" and alpha0 == 0.0:
            assert "0" in fields


def table_run(values, n_agents=1) -> SimulationRun:
    """A noncollaborative run whose trajectory.csv holds values, five to a
    row (y1, coherency_norm, coherency_proxy, rho, u1) and padded with
    zeros, for n_agents agents a sample at times 0, 0.1, ..."""
    values = np.asarray(values, dtype=float)
    rows = -(-values.size // 5)
    samples = -(-rows // n_agents)
    table = np.zeros(samples * n_agents * 5)
    table[: values.size] = values
    table = table.reshape(samples, n_agents, 5)
    empty = np.zeros((samples, n_agents, 0))
    return SimulationRun(
        protocol="noncollaborative",
        times=np.arange(samples) * 0.1,
        agent_indices=np.arange(1, n_agents + 1),
        states=empty,
        protocol_states=empty,
        outputs=table[:, :, :1],
        controls=table[:, :, 4:],
        zeta=empty,
        rho=table[:, :, 3],
        coherency_norm=table[:, :, 1],
        coherency_proxy=table[:, :, 2],
        alpha=None,
        exchange_energy=None,
    )


def csv_fields(run, path) -> list[str]:
    """The number fields of run's trajectory.csv, row by row."""
    write_trajectory_csv(run, path)
    rows = path.read_text().splitlines()[1:]
    return [field for row in rows for field in row.split(",")[2:]]


# Values that no certified digits cover, which both writers leave to "%.17g"
# itself, and their neighbours: zeros, subnormals, inf, nan with either sign
# bit, values near the ends of the tables, near the switches between %g's
# styles and of the digits' range, and exact ties at 17 digits.
UNCERTIFIED = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308, np.inf, -np.inf]
UNCERTIFIED += [np.nan, np.copysign(np.nan, -1.0), 1e300, -1e-300, 1e-270, 1e281, np.finfo(float).max]
for _v in (1e-5, 1e16, 1e17):
    UNCERTIFIED += [_v, np.nextafter(_v, 0.0), np.nextafter(_v, np.inf), -_v]
UNCERTIFIED += [1 + 2.0**-17, 1 + 3 * 2.0**-17, -(1 + 5 * 2.0**-17), 2.0**53 + 2, 2.0**54 + 4]


def test_trajectory_csv_leaves_what_it_cannot_certify_to_percent_formatting(monkeypatch, tmp_path):
    # Chunks of four rows, 20 numbers: the values run once across the end of
    # the first chunk and again from the middle of the fourth on, among
    # others of every size.
    monkeypatch.setattr(simulate_module, "_CSV_CHUNK", 4 * 7)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(150) * 10.0 ** rng.integers(-8, 8, 150)
    values[17 : 17 + len(UNCERTIFIED)] = UNCERTIFIED
    values[66 : 66 + len(UNCERTIFIED)] = UNCERTIFIED
    run = table_run(values, n_agents=3)
    for path in step_paths(monkeypatch):
        assert csv_fields(run, tmp_path / f"{path}.csv") == ["%.17g" % v for v in values.tolist()], path


# Doubles |v| whose 17 digits at 10^(16 - E) lie within 1e-9 of a
# half-integer, but not on it: no error bound of the digits' product can
# tell which way they round, so neither writer certifies them.  Found
# offline as v = m 2^e with m 5^k, or m 2^e mod 5^j, solved to lie next to
# a half.
NEAR_TIES = [1.0000090481717197, 1.0000062106173428, -4.000013304503285, 0.003907503172388545]
NEAR_TIES += [1.584563338021277e29, 1.2676521225376556e30, 1.3526377417449112e36]


def test_near_ties_are_left_to_percent_formatting_by_both_writers(monkeypatch, tmp_path):
    for v in NEAR_TIES:
        x = Fraction(abs(v))
        E = math.floor(math.log10(abs(v)))
        assert Fraction(10) ** E <= x < Fraction(10) ** (E + 1)
        scaled = x * Fraction(10) ** (16 - E)
        assert 0 < abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 10**9), v
    # The numpy writer masks them out ...
    assert not _decimal_digits(np.array(NEAR_TIES))[2].any()
    # ... and the compiled one lists them in slow_at.
    run, slow, paths = table_run(NEAR_TIES), [], []
    for path in step_paths(monkeypatch):
        paths.append(path)
        with monkeypatch.context() as patch:
            if path == "compiled":
                lib = _native.library()
                csv = lib.cohsync_csv

                def counted(table, start, stop):
                    end = csv(table, start, stop)
                    slow.append(table._obj.slow)
                    return end

                patch.setattr(lib, "cohsync_csv", counted)
            fields = csv_fields(run, tmp_path / f"{path}.csv")[: len(NEAR_TIES)]
        assert fields == ["%.17g" % v for v in NEAR_TIES], path
    assert slow == ([len(NEAR_TIES)] if "compiled" in paths else [])


def compiled_fields(values) -> list[str]:
    """The number fields of trajectory.csv for values, written by the
    compiled writer."""
    if _native.library() is None:
        pytest.skip("no C compiler builds the compiled writer here")
    with tempfile.TemporaryDirectory() as tmp:
        return csv_fields(table_run(values, n_agents=4), Path(tmp) / "trajectory.csv")[: len(values)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_compiled_trajectory_csv_matches_percent_formatting(values):
    assert compiled_fields(values) == ["%.17g" % v for v in values]


@pytest.mark.parametrize("seed", range(4))
def test_compiled_trajectory_csv_matches_percent_formatting_on_many_doubles(seed):
    values = many_doubles(seed)
    assert compiled_fields(values) == ["%.17g" % v for v in values.tolist()]
