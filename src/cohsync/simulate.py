"""Fixed-step RK4 network integrator for either protocol.

The integrator owns what every protocol shares: the agents' plant dynamics,
the network sums through the graph Laplacian, the disturbance rows, the
classical fourth-order Runge-Kutta scheme on a fixed grid, blow-up and
growth detection, and recording.  The protocol itself enters only as its
batched runtime law (noncollab.noncollab_law or collab.collab_law),
evaluated on all agent rows at once; this module reads
none of a design's gains.  Each law evaluation takes one Laplacian
product (L y for the noncollaborative law, L [x, x_hat] for the
collaborative one) and writes its stage derivative into a preallocated
array.  Dead-zone branches in the gain laws are re-evaluated at every
substep; no event localization is attempted, since crossing a dead zone
only switches between nonnegative growth rates.

All agents are integrated as one batch of rows in node order, through
one sparse Laplacian of the whole graph (graphs.component_laplacians),
so a step costs time in proportion to the agents times the largest
in-degree, not to N^2.  A weakly connected component still evolves
bitwise as it would alone: a sparse product row adds only its own terms
in column order, then zero padding, and the dense products (law block,
plant rates, RK4 combination) round each row the same whatever the
number of rows (linalg.row_product); the BLAS kernels do this without
promising it, so the solo-run tests are the gate.  With per-agent seeded
initial states and globally indexed disturbances, component trajectories
are bit-identical whether or not the rest of the network is present;
growth warnings are kept per component to match.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .agents import AgentModel
from .collab import CollabDesign, collab_law
from .graphs import DirectedWeightedGraph, component_laplacians, weakly_connected_components
from .linalg import SolverError, row_product
from .noncollab import NoncollabDesign, noncollab_law

# A single RK4 step multiplying the state envelope by more than this is
# reported as a step-size warning.
_GROWTH_LIMIT = 1e3

_DISTURBANCE_KINDS = ("zero", "chirp", "sawtooth", "table")


class IntegrationBlowup(SolverError):
    """The integrated state stopped being finite (design or step size at fault)."""


@dataclass
class DisturbanceSpec:
    """Bounded per-agent disturbance signal.

    kinds:
      zero      w_i(t) = 0
      chirp     w_i(t) = sin(0.1 i t + 0.01 t^2), slowly sweeping frequency
      sawtooth  w_i(t) = i t - round(i t), round half to even
      table     shared piecewise-linear signal over (times, values)

    i is the agent's global 1-based index, so the same agent sees the same
    disturbance no matter which subnetwork it is simulated in.  width is
    the number of disturbance channels; the scalar kinds repeat their
    value across channels.
    """

    kind: str = "zero"
    width: int = 1
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _DISTURBANCE_KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.width < 0:
            raise ValueError("width must be nonnegative")
        if self.kind == "table":
            if self.times is None or self.values is None:
                raise ValueError("table disturbance needs times and values")
            self.times = np.asarray(self.times, dtype=float).reshape(-1)
            self.values = np.asarray(self.values, dtype=float)
            if self.values.ndim == 1:
                self.values = self.values.reshape(-1, 1)
            if self.values.shape != (self.times.shape[0], self.width):
                raise ValueError(
                    f"values must have shape {(self.times.shape[0], self.width)}, "
                    f"got {self.values.shape}"
                )
            if self.times.shape[0] < 2 or np.any(np.diff(self.times) <= 0.0):
                raise ValueError("table times must be strictly increasing, length >= 2")


def _disturbance_rows(spec: DisturbanceSpec, indices: np.ndarray, t: float, width: int) -> np.ndarray:
    """Vectorized disturbance block, one row per agent."""
    n_agents = indices.shape[0]
    if spec.kind == "zero" or width == 0:
        return np.zeros((n_agents, width))
    if spec.kind == "chirp":
        vals = np.sin(0.1 * indices * t + 0.01 * t * t)
        return np.repeat(vals[:, None], width, axis=1)
    if spec.kind == "sawtooth":
        s = indices * t
        vals = s - np.round(s)
        return np.repeat(vals[:, None], width, axis=1)
    if t < spec.times[0] or t > spec.times[-1]:
        raise ValueError(f"t={t} outside the disturbance table range")
    row = np.array([np.interp(t, spec.times, spec.values[:, j]) for j in range(width)])
    return np.tile(row, (n_agents, 1))


@dataclass
class SimConfig:
    """Everything one run needs; defaults follow the reference experiments."""

    model: AgentModel
    graph: DirectedWeightedGraph
    design: NoncollabDesign | CollabDesign
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    dt: float = 1e-3
    t_end: float = 30.0
    seed: int = 0
    record_stride: int = 1
    initial_states: np.ndarray | None = None
    initial_rho: float = 0.0
    initial_alpha: float = 0.0
    disturbance_indices: tuple[int, ...] | None = None


@dataclass
class SimulationRun:
    """Recorded trajectories; first axis is samples, second is agents.

    coherency_proxy holds the protocol's own settling quantity (the
    quadratic observer form for noncollaborative runs, the mismatch energy
    for collaborative ones); exchange_energy and alpha exist only for
    collaborative runs.
    """

    protocol: str
    times: np.ndarray
    agent_indices: np.ndarray
    states: np.ndarray
    protocol_states: np.ndarray
    outputs: np.ndarray
    controls: np.ndarray
    zeta: np.ndarray
    rho: np.ndarray
    coherency_norm: np.ndarray
    coherency_proxy: np.ndarray
    alpha: np.ndarray | None
    exchange_energy: np.ndarray | None
    dt: float
    t_end: float
    record_stride: int
    seed: int
    warnings: list[str] = field(default_factory=list)

    @property
    def n_agents(self) -> int:
        return self.agent_indices.shape[0]


def _integrate(model, law, S, L, spec, indices, dt, n_steps, stride, order, starts):
    """RK4 from the state rows S: the times, the recorded states and law
    signals, and the first growth warning of each component, whose rows are
    order[starts[c]:starts[c + 1]]."""
    n, w = model.n, model.w
    # The plant rates [x, u, w] -> x' in one product.
    plant = np.vstack([model.A.T, model.B.T, model.E.T])

    def rhs(t, S, out):
        """Write dS/dt into out; return a thunk for the recorded signals."""
        U, signals = law(S, L, out[:, n:])
        inputs = (S[:, :n], U, _disturbance_rows(spec, indices, t, w))
        out[:, :n] = row_product(np.concatenate(inputs, axis=1), plant)
        return signals

    def envelopes(S):
        """max |S| over each component's rows."""
        return np.maximum.reduceat(np.abs(S).max(axis=1)[order], starts)

    n_samples = n_steps // stride + 1 + (n_steps % stride > 0)
    times = np.empty(n_samples)
    states = np.empty((n_samples,) + S.shape)
    signals = None
    K = np.empty((4,) + S.shape)  # the four RK4 stage derivatives
    weights = np.array([1.0, 2.0, 2.0, 1.0]) * (dt / 6.0)

    first_growth: dict[int, str] = {}  # component -> its first growth warning
    half = 0.5 * dt

    sample = 0
    for k in range(n_steps + 1):
        t = k * dt
        recorded = rhs(t, S, K[0])
        if (k % stride == 0) or (k == n_steps):
            times[sample] = t
            states[sample] = S
            values = recorded()
            if signals is None:
                signals = [None if v is None else np.empty((n_samples,) + v.shape) for v in values]
            for into, value in zip(signals, values):
                if into is not None:
                    into[sample] = value
            sample += 1
        if k == n_steps:
            break
        rhs(t + half, S + half * K[0], K[1])
        rhs(t + half, S + half * K[1], K[2])
        rhs(t + dt, S + dt * K[2], K[3])
        S_new = S + (weights @ K.reshape(4, -1)).reshape(S.shape)
        # The maximum is NaN or infinite exactly when some entry is.
        envelope = float(np.max(np.abs(S_new)))
        if not math.isfinite(envelope):
            raise IntegrationBlowup(
                f"state became non-finite at t={t + dt:.6g}; "
                "the run blew up (check the design or reduce dt)"
            )
        # A component's growth reference, max(its envelope, 1), is at least
        # 1, so no component can grow past the limit while max |S| stays
        # within it.
        if envelope > _GROWTH_LIMIT:
            grown = envelopes(S_new) > _GROWTH_LIMIT * np.maximum(envelopes(S), 1.0)
            for c in np.flatnonzero(grown).tolist():
                first_growth.setdefault(
                    c,
                    f"single-step state growth exceeded {_GROWTH_LIMIT:g}x at "
                    f"t={t + dt:.6g}; dt={dt:g} may be too large",
                )
        S = S_new

    return times, states, signals, [first_growth[c] for c in sorted(first_growth)]


def simulate(config: SimConfig) -> SimulationRun:
    """Integrate one configured run and return its recorded trajectories.

    Deterministic: identical configs give bit-identical results.  The
    horizon is rounded to a whole number of steps of dt; recording happens
    every record_stride steps and always at the final step.

    Raises IntegrationBlowup when the state stops being finite.
    """
    model, graph, design = config.model, config.graph, config.design
    n, C_T = model.n, model.C.T

    def outputs(X):
        """C X[:, :n] for each row: the outputs, or their network sums."""
        return row_product(X[:, :n], C_T)

    if isinstance(design, NoncollabDesign):
        protocol = "noncollaborative"
        if design.n != model.n or design.p_out != model.p or design.m != model.m:
            raise ValueError("design dimensions do not match the model")
        obs_width = design.n1

        def law(S, L, out):
            Y = outputs(S)
            Z = L @ Y
            _, U, proxy, _ = noncollab_law(design, S[:, n:], Z, out)
            return U, lambda: (Y, Z, U, proxy, None)

    elif isinstance(design, CollabDesign):
        protocol = "collaborative"
        if not (
            np.array_equal(design.A, model.A)
            and np.array_equal(design.B, model.B)
            and np.array_equal(design.C, model.C)
        ):
            raise ValueError("design was built for a different model")
        obs_width = design.n

        def law(S, L, out):
            # Collaborating agents also exchange their observer states: one
            # product over the [x, x_hat] columns gives L x and L x_hat.
            LS = L @ S[:, : 2 * n]
            _, U, mismatch, exchange = collab_law(design, S[:, n:], LS, out)
            return U, lambda: (outputs(S), outputs(LS), U, mismatch, exchange)

    else:
        raise TypeError("design must be a NoncollabDesign or CollabDesign")
    collaborative = protocol == "collaborative"

    if not config.dt > 0.0:
        raise ValueError("dt must be positive")
    if config.t_end < config.dt:
        raise ValueError("t_end must be at least dt")
    stride = int(config.record_stride)
    if stride < 1:
        raise ValueError("record_stride must be at least 1")
    n_steps = int(round(config.t_end / config.dt))

    spec = config.disturbance
    if spec.kind != "zero" and spec.width != model.w:
        raise ValueError(
            f"disturbance width {spec.width} does not match the model's {model.w} channels"
        )

    n_agents = graph.n_nodes
    if n_agents == 0:
        raise ValueError("the graph has no agents")
    if config.disturbance_indices is None:
        indices = np.arange(1, n_agents + 1, dtype=float)
    else:
        indices = np.asarray([int(i) for i in config.disturbance_indices], dtype=float)
        if indices.shape[0] != n_agents or np.any(indices < 1):
            raise ValueError("disturbance_indices must list one 1-based index per agent")

    rho0 = float(config.initial_rho)
    alpha0 = float(config.initial_alpha)
    if rho0 < 0.0 or alpha0 < 0.0:
        raise ValueError("initial gains must be nonnegative")
    if alpha0 != 0.0 and not collaborative:
        raise ValueError("initial_alpha applies only to the collaborative protocol")
    ps0 = np.concatenate([np.zeros(obs_width), [rho0, alpha0] if collaborative else [rho0]])

    if config.initial_states is not None:
        x0 = np.asarray(config.initial_states, dtype=float)
        if x0.shape != (n_agents, model.n):
            raise ValueError(f"initial_states must have shape {(n_agents, model.n)}")
    else:
        # Seeded per agent by global index, so a subnetwork draws the same
        # starts as the full network.
        x0 = np.stack(
            [
                np.random.default_rng([int(config.seed), int(g)]).uniform(-1.0, 1.0, model.n)
                for g in indices
            ]
        )

    # State rows are [x, protocol state], in node order.
    S = np.concatenate([x0, np.broadcast_to(ps0, (n_agents, ps0.shape[0]))], axis=1)
    components = weakly_connected_components(graph)
    order = np.concatenate(components)
    starts = np.cumsum([0] + [len(comp) for comp in components[:-1]])
    (L,) = component_laplacians(graph, [range(n_agents)])
    # A diverging step is detected and raised inside the integration;
    # numpy's per-element overflow warnings on the way there are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        times, S, (y, z, u, proxy, exch), warnings = _integrate(
            model, law, S, L, spec, indices, config.dt, n_steps, stride, order, starts
        )

    rho_col = n + obs_width
    return SimulationRun(
        protocol=protocol,
        times=times,
        agent_indices=indices.astype(int),
        states=S[:, :, :n],
        protocol_states=S[:, :, n:rho_col],
        outputs=y,
        controls=u,
        zeta=z,
        rho=S[:, :, rho_col],
        coherency_norm=np.linalg.norm(z, axis=2),
        coherency_proxy=proxy,
        alpha=S[:, :, rho_col + 1] if collaborative else None,
        exchange_energy=exch,
        dt=config.dt,
        t_end=float(times[-1]),
        record_stride=stride,
        seed=int(config.seed),
        warnings=warnings,
    )


def detect_settling(times, values, threshold: float, trailing_window: float) -> float | None:
    """Earliest recorded time after which values stay at or below threshold.

    The tail from the returned time to the end must span at least
    trailing_window; None when the series never settles that long.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    values = np.asarray(values, dtype=float).reshape(-1)
    if times.shape != values.shape or times.size == 0:
        raise ValueError("times and values must be matching nonempty 1-D arrays")
    if trailing_window > times[-1] - times[0]:
        raise ValueError("trailing window longer than the recorded run")
    ok = values <= threshold
    if not ok[-1]:
        return None
    bad = np.nonzero(~ok)[0]
    first_ok = 0 if bad.size == 0 else int(bad[-1]) + 1
    if times[-1] - times[first_ok] < trailing_window:
        return None
    return float(times[first_ok])


def settling_metric(run: SimulationRun) -> np.ndarray:
    """Per-agent series compared against the 2d acceptance threshold.

    Collaborative runs must keep both the mismatch energy and the exchange
    energy small, so the metric is their pointwise maximum.
    """
    if run.protocol == "collaborative":
        return np.maximum(run.coherency_proxy, run.exchange_energy)
    return run.coherency_proxy


def settling_report(run: SimulationRun, threshold: float, trailing_window: float):
    """detect_settling per agent on the protocol's settling metric."""
    metric = settling_metric(run)
    return [
        detect_settling(run.times, metric[:, i], threshold, trailing_window)
        for i in range(run.n_agents)
    ]


def gain_flatness(run: SimulationRun, fraction: float = 0.1) -> dict:
    """Per-agent change of each adaptive gain over the trailing fraction."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    t0, t1 = float(run.times[0]), float(run.times[-1])
    tail = run.times >= t1 - fraction * (t1 - t0)
    out = {"rho": run.rho[tail].max(axis=0) - run.rho[tail].min(axis=0)}
    if run.alpha is not None:
        out["alpha"] = run.alpha[tail].max(axis=0) - run.alpha[tail].min(axis=0)
    return out


def write_trajectory_csv(run: SimulationRun, path) -> None:
    """One row per (sample, agent); 17 significant digits for round-tripping."""
    n_samples, n_agents, p = run.outputs.shape
    m = run.controls.shape[2]
    columns = ["t", "agent"]
    columns += [f"y{j + 1}" for j in range(p)]
    columns += ["coherency_norm", "coherency_proxy", "rho"]
    scalars = [run.coherency_norm, run.coherency_proxy, run.rho]
    if run.alpha is not None:
        columns.append("alpha")
        scalars.append(run.alpha)
    columns += [f"u{j + 1}" for j in range(m)]

    def column(values):
        return np.broadcast_to(values, (n_samples, n_agents))[:, :, None]

    blocks = [column(run.times[:, None]), column(run.agent_indices.astype(float)), run.outputs]
    blocks += [column(v) for v in scalars] + [run.controls]
    table = np.concatenate(blocks, axis=2)
    row = "%.17g,%d" + ",%.17g" * (len(columns) - 2) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        # One sample at a time: the text of the whole table, held at once,
        # raised the peak memory of a run by up to 9 MB.
        for sample in table:
            fh.write("".join([row % tuple(r) for r in sample.tolist()]))
