"""Fixed-step RK4 network integrator for either protocol.

The integrator owns what every protocol shares: the agents' plant dynamics,
the network sums through the graph Laplacian, the disturbance rows, the
classical fourth-order Runge-Kutta scheme on a fixed grid, blow-up and
growth detection, and recording.  The protocol itself enters only as its
batched runtime law (noncollab.noncollab_law or collab.collab_law),
evaluated on all agent rows of a component at once; this module reads
none of a design's gains.  Each law evaluation takes one Laplacian
product (L y for the noncollaborative law, L [x, x_hat] for the
collaborative one) and writes its stage derivative into a preallocated
array.  Dead-zone branches in the gain laws are re-evaluated at every
substep; no event localization is attempted, since crossing a dead zone
only switches between nonnegative growth rates.

The Laplacian is held as one sparse matrix per weakly connected component
(graphs.component_laplacians), built from the adjacency's nonzeros, so a
step costs time in proportion to the agents times their largest
in-degree, not to N^2.  Disconnected graphs are simulated one component
at a time, each component with exactly the arrays a standalone run of
that component would use: its sparse matrix holds the same entries in the
same slots either way, so its product is bitwise the same, and the dense
per-row products see the same array shapes.  Together with per-agent
seeding of initial states and globally indexed disturbances, this makes
component trajectories bit-identical whether or not the rest of the network is present.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .agents import AgentModel
from .collab import CollabDesign, collab_law
from .graphs import DirectedWeightedGraph, component_laplacians, weakly_connected_components
from .linalg import SolverError
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


def _simulate_component(model, law, ps0, L, spec, indices, x0, dt, n_steps, stride):
    n, w = model.n, model.w
    # The plant rates [x, u, w] -> x' in one product.
    plant = np.vstack([model.A.T, model.B.T, model.E.T])

    def rhs(t, S, out):
        """Write dS/dt into out; return a thunk for the recorded signals."""
        U, signals = law(S, L, out[:, n:])
        inputs = (S[:, :n], U, _disturbance_rows(spec, indices, t, w))
        np.matmul(np.concatenate(inputs, axis=1), plant, out=out[:, :n])
        return signals

    # State rows are [x, protocol state]; the protocol state starts at ps0.
    S = np.zeros((L.shape[0], n + ps0.shape[0]))
    S[:, :n] = x0
    S[:, n:] = ps0
    K = np.empty((4,) + S.shape)  # the four RK4 stage derivatives
    weights = np.array([1.0, 2.0, 2.0, 1.0]) * (dt / 6.0)

    times, rows, extras = [], [], []
    warnings: list[str] = []
    half = 0.5 * dt
    envelope_old = max(float(np.max(np.abs(S))), 1.0)

    for k in range(n_steps + 1):
        t = k * dt
        signals = rhs(t, S, K[0])
        if (k % stride == 0) or (k == n_steps):
            times.append(t)
            rows.append(S)  # never written to: each step makes a new S
            extras.append(signals())
        if k == n_steps:
            break
        rhs(t + half, S + half * K[0], K[1])
        rhs(t + half, S + half * K[1], K[2])
        rhs(t + dt, S + dt * K[2], K[3])
        S_new = S + (weights @ K.reshape(4, -1)).reshape(S.shape)
        # The maximum is NaN or infinite exactly when some entry is.
        envelope_new = float(np.max(np.abs(S_new)))
        if not math.isfinite(envelope_new):
            raise IntegrationBlowup(
                f"state became non-finite at t={t + dt:.6g}; "
                "the run blew up (check the design or reduce dt)"
            )
        if envelope_new > _GROWTH_LIMIT * envelope_old and not warnings:
            warnings.append(
                f"single-step state growth exceeded {_GROWTH_LIMIT:g}x at "
                f"t={t + dt:.6g}; dt={dt:g} may be too large"
            )
        S, envelope_old = S_new, max(envelope_new, 1.0)

    out = {"t": np.array(times), "S": np.stack(rows), "warnings": warnings}
    for key, column in zip(("y", "z", "u", "proxy", "exch"), zip(*extras)):
        if column[0] is not None:
            out[key] = np.stack(column)
    return out


def simulate(config: SimConfig) -> SimulationRun:
    """Integrate one configured run and return its recorded trajectories.

    Deterministic: identical configs give bit-identical results.  The
    horizon is rounded to a whole number of steps of dt; recording happens
    every record_stride steps and always at the final step.

    Raises IntegrationBlowup when the state stops being finite.
    """
    model, graph, design = config.model, config.graph, config.design
    n, C_T = model.n, model.C.T
    if isinstance(design, NoncollabDesign):
        protocol = "noncollaborative"
        if design.n != model.n or design.p_out != model.p or design.m != model.m:
            raise ValueError("design dimensions do not match the model")
        obs_width = design.n1

        def law(S, L, out):
            Y = S[:, :n] @ C_T
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
            return U, lambda: (S[:, :n] @ C_T, LS[:, :n] @ C_T, U, mismatch, exchange)

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

    components = weakly_connected_components(graph)
    pieces = []
    # A diverging step is detected and raised inside the component loop;
    # numpy's per-element overflow warnings on the way there are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for comp, L in zip(components, component_laplacians(graph, components)):
            sel = np.asarray(comp, dtype=int)
            piece = _simulate_component(
                model,
                law,
                ps0,
                L,
                spec,
                indices[sel],
                x0[sel],
                config.dt,
                n_steps,
                stride,
            )
            pieces.append((sel, piece))

    times = pieces[0][1]["t"]
    n_samples = times.shape[0]

    def merge(key, trailing_shape):
        out = np.zeros((n_samples, n_agents) + trailing_shape)
        for sel, piece in pieces:
            out[:, sel] = piece[key]
        return out

    warnings = []
    for sel, piece in pieces:
        warnings.extend(piece["warnings"])

    S = merge("S", (model.n + ps0.shape[0],))
    rho_col = model.n + obs_width
    zeta = merge("z", (model.p,))
    run = SimulationRun(
        protocol=protocol,
        times=times,
        agent_indices=indices.astype(int),
        states=S[:, :, : model.n],
        protocol_states=S[:, :, model.n : rho_col],
        outputs=merge("y", (model.p,)),
        controls=merge("u", (model.m,)),
        zeta=zeta,
        rho=S[:, :, rho_col],
        coherency_norm=np.linalg.norm(zeta, axis=2),
        coherency_proxy=merge("proxy", ()),
        alpha=S[:, :, rho_col + 1] if collaborative else None,
        exchange_energy=merge("exch", ()) if collaborative else None,
        dt=config.dt,
        t_end=float(times[-1]),
        record_stride=stride,
        seed=int(config.seed),
        warnings=warnings,
    )
    return run


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
