"""Fixed-step RK4 network integrator for either protocol.

The integrator owns what every protocol shares: the agents' plant dynamics,
the network sums through the graph Laplacian, the disturbance rows, the
classical fourth-order Runge-Kutta scheme on a fixed grid, blow-up and
growth detection, and recording.  The protocol itself enters only through
the declaration of its design class, found by name in PROTOCOLS: its
gains, its per-agent widths, its model check, its stage rows (law_rows),
its batched runtime law (law) and the series that must settle; this
module reads none of a design's gains and never asks which protocol it
runs.  Each stage fills one preallocated workspace, rows [x, protocol
state, network sums, w], and makes one sparse Laplacian product and one
dense product with a stage matrix composed once from A, E and the law's
rows; the law, bound to the workspace once per run, writes the stage
derivative in place.  What only recording reads (the noncollaborative
controls, C x and C (L x)) is formed only for recorded samples, and the
collaborative law's gain work (the P_alpha rows, the alpha > 0 mask,
-alpha) runs only when a bit of the alpha column moves.
Dead-zone branches in the gain laws are re-evaluated at every substep; no
event localization is attempted, since crossing a dead zone only switches
between nonnegative growth rates.

All agents are integrated as one batch of rows in node order, through
one sparse Laplacian of the whole graph (graphs.SparseLaplacian),
so a step costs time in proportion to the agents times the largest
in-degree, not to N^2.  A weakly connected component still evolves
bitwise as it would alone: a sparse product row adds only its own terms
in column order, then zero padding, and the dense products (the stage
product, the RK4 combination, the collaborative B u) round each row the
same whatever the number of rows (linalg.row_product); the BLAS kernels
do this without promising it, so the solo-run tests are the gate.  With
per-agent seeded initial states and globally indexed disturbances,
component trajectories are bit-identical whether or not the rest of the
network is present; growth warnings are kept per component to match.

The initial state of the agent with global index g is
np.random.default_rng([seed, g]).uniform(-1, 1, n), bit for bit, but all
agents are drawn in one vectorized pass (_keyed_uniform) that repeats
numpy's SeedSequence and PCG64 arithmetic on arrays of keys instead of
building one generator per agent, which cost 2 s at 10^5 agents.

trajectory.csv is written by an array formatter whose text is "%.17g" %
value, byte for byte, for every double (_g17_records): the 17 digits of
each value come from an error-free double-double product with a power of
ten (Dekker 1971), and the few values that product cannot certify, as in
Grisu3 (Loitsch 2010), go to "%.17g" itself.  The writer lays out at most
_CSV_CHUNK fields at a time as fixed-width records, with each row's time
and agent index formatted once per run, and one pass over the chunk's
bytes drops the records' zero padding before the chunk is written.  The per-agent
settling report is one pass over the (samples, agents) metric.
"""

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .agents import AgentModel
from .collab import CollabDesign
from .graphs import DirectedWeightedGraph, SparseLaplacian, weakly_connected_components
from .linalg import SolverError, row_product
from .noncollab import NoncollabDesign

# A single RK4 step multiplying the state envelope by more than this is
# reported as a step-size warning.
_GROWTH_LIMIT = 1e3

_DISTURBANCE_KINDS = ("zero", "chirp", "sawtooth", "table")

# Each protocol's design class by the protocol's name.  The class declares
# all that the integrator and the command line need of the protocol: its
# name (protocol); its adaptive gains, in state-row order (gains); the
# manifest overrides its design takes (overrides); the run series whose
# pointwise maximum must settle (settles); the attributes design.json holds
# after d and delta, by dotted path (payload); the (label, attribute) lines
# `cohsync design` prints after them (printed); its per-agent widths
# (widths); its model check (check_model); its stage rows (law_rows); and
# its runtime law (law), bound once per run.
PROTOCOLS = {cls.protocol: cls for cls in (NoncollabDesign, CollabDesign)}


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
            if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.values))):
                raise ValueError("table times and values must be finite")
            if self.times.shape[0] < 2 or np.any(np.diff(self.times) <= 0.0):
                raise ValueError("table times must be strictly increasing, length >= 2")


def _disturbance_writer(spec: DisturbanceSpec, indices: np.ndarray):
    """A function writing w(t) into an (agents, width) block, one row per
    agent; None for the zero kind, whose block stays as it is."""
    if spec.kind == "zero":
        return None
    rate = 0.1 * indices

    def write(t, out):
        if spec.kind == "chirp":
            out[:] = np.sin(rate * t + 0.01 * t * t)[:, None]
        elif spec.kind == "sawtooth":
            s = indices * t
            out[:] = (s - np.round(s))[:, None]
        elif spec.kind == "table":
            # The last step ends at (n - 1) dt + dt, which can round a few
            # ulps past n dt; np.interp reads the last value there.
            if t < spec.times[0] or t > spec.times[-1] + 4.0 * np.spacing(abs(spec.times[-1])):
                raise ValueError(f"t={t} outside the disturbance table range")
            out[:] = [np.interp(t, spec.times, spec.values[:, j]) for j in range(out.shape[1])]

    return write


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
    warnings: list[str] = field(default_factory=list)

    @property
    def n_agents(self) -> int:
        return self.agent_indices.shape[0]


# numpy's SeedSequence hash constants and the PCG64 multiplier (high, low).
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))


def _words(value: int) -> list[int]:
    """value as little-endian 32-bit words, as SeedSequence splits it."""
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hashes(init: int, mult: int):
    """SeedSequence's endless sequence of hash constants, each with the next."""
    while True:
        after = (init * mult) & _M32
        yield np.uint32(init), np.uint32(after)
        init = after


def _mul_hi(a, b):
    """High 64 bits of the 128-bit products a * b of uint64 arrays."""
    a_lo, a_hi, b_lo, b_hi = a & _M32, a >> 32, b & _M32, b >> 32
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> 32) + (lh & _M32) + (hl & _M32)
    return a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _keyed_uniform(seed: int, keys: np.ndarray, n: int) -> np.ndarray:
    """Row i is np.random.default_rng([seed, keys[i]]).uniform(-1, 1, n),
    bit for bit, for every key at once.

    Each row follows numpy's own recipe: SeedSequence mixes the 32-bit
    words of seed and key into a pool of four words and expands it into
    the 128-bit state and increment of PCG64, which steps as an LCG modulo
    2^128 and outputs XSL-RR; a double is the top 53 bits of an output.
    Here the 32-bit words are uint32 arrays and the 128-bit numbers pairs
    of uint64 arrays, one element per key.  seed >= 0 and 0 <= keys < 2^32,
    so that every key is one word.
    """
    key = np.asarray(keys).astype(np.uint32)
    words = [np.full(key.shape, w, np.uint32) for w in _words(seed)] + [key]
    hashes = _hashes(_INIT_A, _MULT_A)

    def hashmix(value):
        const, after = next(hashes)
        value = (value ^ const) * after
        return value ^ (value >> 16)

    def mix(x, y):
        value = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return value ^ (value >> 16)

    pool = [hashmix(words[i] if i < len(words) else np.zeros_like(key)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words cycling through the pool, read
    # in little-endian pairs.
    hashes = _hashes(_INIT_B, _MULT_B)
    state = []
    for i in range(8):
        const, after = next(hashes)
        value = (pool[i % 4] ^ const) * after
        state.append((value ^ (value >> 16)).astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = (state[j] | (state[j + 1] << 32) for j in (0, 2, 4, 6))
    # PCG64 seeding: inc = 2 i + 1; step, add the state, step.
    inc_hi, inc_lo = (i_hi << 1) | (i_lo >> 63), (i_lo << 1) | 1
    m_hi, m_lo = _PCG_MULT

    def step(hi, lo):
        new_lo = lo * m_lo + inc_lo
        return _mul_hi(lo, m_lo) + lo * m_hi + hi * m_lo + inc_hi + (new_lo < inc_lo), new_lo

    hi, lo = step(np.zeros_like(s_hi), np.zeros_like(s_lo))
    lo = lo + s_lo
    hi, lo = step(hi + s_hi + (lo < s_lo), lo)
    out = np.empty((key.shape[0], n))
    for j in range(n):
        hi, lo = step(hi, lo)
        x, r = hi ^ lo, hi >> 58
        raw = (x >> r) | (x << ((64 - r) & 63))
        out[:, j] = -1.0 + 2.0 * ((raw >> 11) * (1.0 / 9007199254740992.0))
    return out


def _sample_count(n_steps: int, stride: int) -> int:
    """Samples recorded: every stride steps from step 0, and the last step."""
    return n_steps // stride + 1 + (n_steps % stride > 0)


def _integrate(stage, record, S, X, K, dt, n_steps, stride, order, starts):
    """RK4 from the state rows S: the times, the recorded states and stage
    values, and the first growth warning of each component, whose rows are
    order[starts[c]:starts[c + 1]].

    stage(t, j) evaluates the stage whose state rows are in X and writes
    dS/dt into K[j].T, the j-th RK4 stage derivative; record() gives what a
    sample keeps of a recorded step's first stage, and is called only then.
    """

    def envelopes(S):
        """max |S| over each component's rows."""
        return np.maximum.reduceat(np.abs(S).max(axis=1)[order], starts)

    n_samples = _sample_count(n_steps, stride)
    times, states, recorded = np.empty(n_samples), np.empty((n_samples,) + S.shape), None
    KT = [Kj.T for Kj in K]
    weights = np.array([1.0, 2.0, 2.0, 1.0]) * (dt / 6.0)
    # Buffers for the weighted sum of the K[j], the next S and its |S|.
    K_flat, dS, S_next, magnitude = K.reshape(4, -1), np.empty(K[0].size), np.empty_like(S), np.empty_like(S)
    dS_T = dS.reshape(K.shape[1:]).T

    first_growth: dict[int, str] = {}  # component -> its first growth warning
    half = 0.5 * dt

    sample = 0
    for k in range(n_steps + 1):
        t = k * dt
        X[...] = S
        stage(t, 0)
        if (k % stride == 0) or (k == n_steps):
            times[sample] = t
            states[sample] = S
            values = record()
            if recorded is None:
                recorded = [None if v is None else np.empty((n_samples,) + v.shape) for v in values]
            for into, value in zip(recorded, values):
                if into is not None:
                    into[sample] = value
            sample += 1
        if k == n_steps:
            break
        for j, h in ((1, half), (2, half), (3, dt)):
            np.multiply(KT[j - 1], h, out=X)
            X += S
            stage(t + h, j)
        np.matmul(weights, K_flat, out=dS)
        np.add(S, dS_T, out=S_next)
        # The maximum is NaN or infinite exactly when some entry is.
        envelope = float(np.maximum.reduce(np.abs(S_next, out=magnitude), axis=None))
        if not math.isfinite(envelope):
            raise IntegrationBlowup(
                f"state became non-finite at t={t + dt:.6g}; "
                "the run blew up (check the design or reduce dt)"
            )
        # A component's growth reference, max(its envelope, 1), is at least
        # 1, so no component can grow past the limit while max |S| stays
        # within it.
        if envelope > _GROWTH_LIMIT:
            grown = envelopes(S_next) > _GROWTH_LIMIT * np.maximum(envelopes(S), 1.0)
            for c in np.flatnonzero(grown).tolist():
                first_growth.setdefault(
                    c,
                    f"single-step state growth exceeded {_GROWTH_LIMIT:g}x at "
                    f"t={t + dt:.6g}; dt={dt:g} may be too large",
                )
        S, S_next = S_next, S

    return times, states, recorded, [first_growth[c] for c in sorted(first_growth)]


def stage_matrix(model: AgentModel, design) -> np.ndarray:
    """The matrix of a stage's one dense product.

    Maps a workspace row [x, observer state, gains, network sums, w] to
    [A x + E w, the law's linear outputs]: the design's law_rows, those of
    the observer state and then those of the sums.  The gains only scale
    the law's outputs, so their rows are zero.
    """
    n = model.n
    observer, sums, _ = design.widths(n, model.m)
    law_rows = design.law_rows(model)
    x_hat, s0 = n + observer, n + observer + len(design.gains)
    w0 = s0 + sums
    M = np.zeros((w0 + model.w, n + law_rows.shape[1]))
    M[:n, :n] = model.A.T
    M[n:x_hat, n:] = law_rows[:observer]
    M[s0:w0, n:] = law_rows[observer:]
    M[w0:, :n] = model.E.T
    return M


def _stage(model, design, graph, spec, indices):
    """The integrator's stage, bound once per run: (stage, record, X, K).

    A stage fills the workspace rows [x, protocol state, network sums, w]:
    the caller writes the state rows into X, and stage(t, j) adds the
    Laplacian product of the first sums columns and w(t), multiplies by
    stage_matrix, and has the law's rates write dS/dt into K[j].T, the
    j-th RK4 stage derivative.  The product, w and the law are bound to
    the workspace here, so a stage takes no views and checks no shapes.
    Arrays are stored column by column, so that elementwise work runs
    along the agents.  A lone agent gets a zero second row, so that its
    product rounds as in any larger batch (linalg.row_product).  w(t) is
    written only when t changes (RK4 stages 2 and 3 share theirs), never
    for the zero kind.  record() gives the L x block and the law's signals.
    """
    n, n_agents = model.n, graph.n_nodes
    sums = design.widths(n, model.m)[1]
    M = stage_matrix(model, design)
    width = M.shape[0] - model.w - sums  # [x, protocol state]
    W = np.zeros((max(n_agents, 2), M.shape[0]), order="F")
    F = np.empty((W.shape[0], M.shape[1]), order="F")
    K = np.empty((4, width, n_agents))
    X, PS = W[:n_agents, :width], W[:n_agents, n:width]
    NS, WD = W[:n_agents, width : width + sums], W[:n_agents, width + sums :]
    laplacian_product = SparseLaplacian(graph).bind(X[:, :sums], NS)
    rates, signals = design.law(PS, F[:n_agents], [Kj.T for Kj in K])
    disturb = _disturbance_writer(spec, indices)
    MT, WT, FT, LX = M.T, W.T, F.T, NS[:, :n]
    w_time = None  # the time whose w the workspace holds

    def stage(t, j):
        nonlocal w_time
        laplacian_product()
        if disturb is not None and t != w_time:  # RK4 stages 2 and 3 share their time
            disturb(t, WD)
            w_time = t
        np.matmul(MT, WT, out=FT)  # F = W M, written column by column
        rates(j)

    def record():
        return (LX,) + signals()

    return stage, record, X, K


def check_run(
    model: AgentModel, spec: DisturbanceSpec, dt: float, t_end: float, n_agents: int, stride: int, protocol: str
) -> int:
    """The run's number of steps; ValueError unless there are agents,
    0 < dt <= t_end with t_end / dt finite, stride >= 1, a nonzero
    disturbance has one channel per column of E, a table covers the run's
    horizon [0, n_steps dt], and what a run of the named protocol records
    for n_agents agents fits in physical memory."""
    if n_agents == 0:
        raise ValueError("the graph has no agents")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not t_end >= dt:
        raise ValueError("t_end must be at least dt")
    if not t_end / dt < np.inf:
        raise ValueError(f"t_end / dt = {t_end:g} / {dt:g} is no finite number of steps")
    if stride < 1:
        raise ValueError("record_stride must be at least 1")
    if spec.kind != "zero" and spec.width != model.w:
        raise ValueError(f"disturbance width {spec.width} does not match the model's {model.w} channels")
    n_steps = int(round(t_end / dt))
    if spec.kind == "table" and not (spec.times[0] <= 0.0 and n_steps * dt <= spec.times[-1]):
        raise ValueError(
            f"the disturbance table covers [{float(spec.times[0])!r}, {float(spec.times[-1])!r}], "
            f"not the run's [0, {n_steps * dt!r}]"
        )
    # Per sample and agent a run keeps the state row, L x, the law's
    # signals, the outputs, the disagreements C L x and their norm.
    n, p, declared = model.n, model.p, PROTOCOLS[protocol]
    observer, _, signals = declared.widths(n, model.m)
    state = n + observer + len(declared.gains)
    n_samples = _sample_count(n_steps, stride)
    record_bytes = 8 * n_samples * (1 + n_agents * (state + n + signals + 2 * p + 1))  # 1: the time
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if record_bytes > memory:
        raise ValueError(
            f"the {n_samples:.3g} recorded samples of {n_agents} agents need {record_bytes / 2**30:.3g} GiB, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory; "
            "raise record_stride or shorten the run"
        )
    return n_steps


def simulate(config: SimConfig) -> SimulationRun:
    """Integrate one configured run and return its recorded trajectories.

    Deterministic: identical configs give bit-identical results.  The
    horizon is rounded to a whole number of steps of dt; recording happens
    every record_stride steps and always at the final step.

    Raises IntegrationBlowup when the state stops being finite.
    """
    model, graph, design = config.model, config.graph, config.design
    if type(design) not in PROTOCOLS.values():
        raise TypeError("design must be a NoncollabDesign or CollabDesign")
    design.check_model(model)
    n = model.n
    observer = design.widths(n, model.m)[0]

    spec = config.disturbance
    n_agents = graph.n_nodes
    stride = int(config.record_stride)
    n_steps = check_run(model, spec, config.dt, config.t_end, n_agents, stride, design.protocol)
    seed = int(config.seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    if config.disturbance_indices is None:
        indices = np.arange(1, n_agents + 1, dtype=float)
    else:
        indices = [int(i) for i in config.disturbance_indices]
        # An index keys the initial state as one 32-bit word (_keyed_uniform).
        if len(indices) != n_agents or not all(1 <= i < 2**32 for i in indices):
            raise ValueError("disturbance_indices must list one 1-based index per agent, below 2**32")
        indices = np.asarray(indices, dtype=float)

    gains0 = {"rho": float(config.initial_rho), "alpha": float(config.initial_alpha)}
    if not all(0.0 <= g < np.inf for g in gains0.values()):
        raise ValueError("initial gains must be nonnegative and finite")
    if gains0["alpha"] != 0.0 and "alpha" not in design.gains:
        raise ValueError("initial_alpha applies only to the collaborative protocol")
    ps0 = np.concatenate([np.zeros(observer), [gains0[g] for g in design.gains]])

    if config.initial_states is not None:
        x0 = np.asarray(config.initial_states, dtype=float)
        if x0.shape != (n_agents, model.n):
            raise ValueError(f"initial_states must have shape {(n_agents, model.n)}")
    else:
        # Seeded per agent by global index, so a subnetwork draws the same
        # starts as the full network.
        x0 = _keyed_uniform(seed, indices, model.n)

    # State rows are [x, protocol state], in node order, stored column by
    # column like the stage arrays.
    S = np.asfortranarray(np.concatenate([x0, np.broadcast_to(ps0, (n_agents, ps0.shape[0]))], axis=1))
    components = weakly_connected_components(graph)
    order = np.concatenate(components)
    starts = np.cumsum([0] + [len(comp) for comp in components[:-1]])
    stage, record, X, K = _stage(model, design, graph, spec, indices)

    # A diverging step is detected and raised inside the integration;
    # numpy's per-element overflow warnings on the way there are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        times, S, (LX, u, proxy, exch), warnings = _integrate(
            stage, record, S, X, K, config.dt, n_steps, stride, order, starts
        )
    # The outputs C x and the measured disagreements C (L x) of all samples
    # at once, from rows recorded one after another: each row rounds as in
    # any other batch (linalg.row_product).
    y, z = (row_product(V.reshape(-1, n), model.C.T).reshape(V.shape[:2] + (-1,)) for V in (S[:, :, :n], LX))

    gains = {g: S[:, :, n + observer + i] for i, g in enumerate(design.gains)}
    return SimulationRun(
        protocol=design.protocol,
        times=times,
        agent_indices=indices.astype(int),
        states=S[:, :, :n],
        protocol_states=S[:, :, n : n + observer],
        outputs=y,
        controls=u,
        zeta=z,
        rho=gains["rho"],
        coherency_norm=np.linalg.norm(z, axis=2),
        coherency_proxy=proxy,
        alpha=gains.get("alpha"),
        exchange_energy=exch,
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
    """Per-agent series compared against the 2d acceptance threshold: the
    pointwise maximum of the series the protocol declares must settle."""
    return functools.reduce(np.maximum, [getattr(run, series) for series in PROTOCOLS[run.protocol].settles])


def settling_report(run: SimulationRun, threshold: float, trailing_window: float):
    """detect_settling for every agent at once, on the protocol's settling
    metric: one pass over the (samples, agents) metric finds each agent's
    last sample not at or below threshold."""
    times = run.times
    if trailing_window > times[-1] - times[0]:
        raise ValueError("trailing window longer than the recorded run")
    n_samples = times.shape[0]
    # 1 + the index of each agent's last sample not at or below threshold, or 0.
    first_ok = np.where(settling_metric(run) <= threshold, 0, np.arange(1, n_samples + 1)[:, None]).max(axis=0)
    start = times[np.minimum(first_ok, n_samples - 1)]
    settled = (first_ok < n_samples) & ~(times[-1] - start < trailing_window)
    return [t if ok else None for t, ok in zip(start.tolist(), settled.tolist())]


def gain_flatness(run: SimulationRun, fraction: float = 0.1) -> dict:
    """Per-agent change of each adaptive gain over the trailing fraction."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    t0, t1 = float(run.times[0]), float(run.times[-1])
    tail = run.times >= t1 - fraction * (t1 - t0)
    tails = {gain: getattr(run, gain)[tail] for gain in PROTOCOLS[run.protocol].gains}
    return {gain: series.max(axis=0) - series.min(axis=0) for gain, series in tails.items()}


# The exact %.17g of whole arrays.  A value's text is a record of six
# uint64 words, 48 bytes, padded with zero bytes anywhere:
#   word 0    sign, the "0.000" of -4 <= E <= -1, the first digit and the
#             point after it;
#   words 1-4 the other 16 digits, four to a word at even bytes, each
#             followed by the point or a zero byte;
#   word 5    the exponent of E < -4 or E >= 17, then, in its last byte,
#             the separator that ends the field in the file.
# A compaction removes the padding.  Digits are exact, with no big-integer
# arithmetic, for 10^_E_LO <= |x| < 10^(_E_HI + 1).
_E_LO, _E_HI = -270, 280
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into 26-bit halves
_CSV_CHUNK = 2**13  # fields formatted and written at a time
_RECORD = np.dtype("<u8")  # words of a record, read byte by byte in this order


def _bytes_word(text: bytes, at: int = 0) -> int:
    """The word whose bytes from at on are text."""
    return int.from_bytes(text, "little") << (8 * at)


@functools.cache
def _g17_tables():
    """The formatter's tables, built on first use.

    For each exponent E from _E_LO - 1 to _E_HI + 1 (row E - _E_LO + 1):
    10^E, and 10^(16 - E) as a double-double, its head split in halves.
    The texts: word 0 of each (E, first digit, sign, digits follow);
    word 5 of each E; the words of every 4-digit group in five variants;
    and for each of words 1-4 and each (E, digits follow), its variant's
    offset and the point bits to add.
    """
    E = np.arange(_E_LO - 1, _E_HI + 2)
    head, tail = np.empty(E.size), np.empty(E.size)
    for row, k in enumerate((16 - E).tolist()):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        head[row] = num / den  # correctly rounded
        a, b = head[row].as_integer_ratio()
        tail[row] = (num * b - a * den) / (den * b)
    c = head * _SPLIT
    head_hi = c - (c - head)
    pow10 = np.array([float(10**e) if e >= 0 else 1 / 10**-e for e in E.tolist()])  # correctly rounded

    # Group variants: 0 strips the group's trailing zeros; 1 writes its four
    # digits, as does every group with a nonzero digit after it; 1 + v, for
    # v = 1..3, keeps v digits, strips trailing zeros after them and puts
    # the point after digit v if a nonzero digit follows in the group.
    # With a nonzero digit after the group, the point after digit v comes
    # from the point bits.
    g = np.arange(10000)
    strip = np.zeros((5, 10000), _RECORD)  # keeps the first v digits
    for j in range(4):
        digit = (48 + (g // 10 ** (3 - j)) % 10).astype(_RECORD) << (16 * j)
        for v in range(5):
            strip[v] |= np.where((j >= v) & (g % 10 ** (4 - j) == 0), 0, digit)
    point = [None] + [np.uint64(_bytes_word(b".", 2 * v - 1)) for v in range(1, 5)]
    groups = [strip[0], strip[4]]
    groups += [strip[v] | np.where(g % 10 ** (4 - v) != 0, point[v], np.uint64(0)) for v in (1, 2, 3)]

    word0 = np.zeros((E.size, 10, 2, 2), _RECORD)
    word5 = np.zeros(E.size, _RECORD)
    variant = np.zeros((4, E.size, 2), np.intp)
    variant[:, :, 1] = 1
    points = np.zeros((4, E.size, 2), _RECORD)
    for row, e in enumerate(E.tolist()):
        lead = _bytes_word(b"0." + b"0" * (-e - 1), 1) if -4 <= e <= -1 else 0
        for first in range(1, 10):
            for sign in (0, 1):
                word0[row, first, sign] = lead | _bytes_word(b"-" if sign else b"") | _bytes_word(b"%d" % first, 6)
        if e == 0 or not -4 <= e <= 16:
            word0[row, :, :, 1] |= _bytes_word(b".", 7)
        if not -4 <= e <= 16:
            word5[row] = _bytes_word(b"e%+03d" % e)
        for k in range(1, 5):  # word k holds digits 4k - 3 .. 4k; fixed notation's point follows digit e
            v = e - 4 * k + 4  # the word's digits before the point
            if 1 <= v <= 4:
                variant[k - 1, row, 0] = 1 + v if v < 4 else 1
                points[k - 1, row, 1] = point[v]
            elif v > 4 and e <= 16:
                variant[k - 1, row, 0] = 1
    variant, points = 10000 * variant.reshape(4, -1), points.reshape(4, -1)
    tables = head, head_hi, head - head_hi, tail, pow10, np.concatenate(groups), variant, points, word0.reshape(-1), word5
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _text_records(texts) -> np.ndarray:
    """The records of ASCII texts of at most 40 bytes."""
    return np.frombuffer(b"".join(t.ljust(48, b"\0") for t in texts), _RECORD).reshape(-1, 6)


def _decimal_digits(x: np.ndarray):
    """(row, D, certified) for every v of the 1-D float array x: the table
    row of the exponent E of %.17g, the 17 digits D of |v| 10^(16 - E),
    and whether D is certified exact.

    For 10^_E_LO <= |v| < 10^(_E_HI + 1), E = floor(log10 |v|), corrected
    by one against 10^E and 10^(E + 1), and |v| 10^(16 - E) = p + t with p
    the rounded product of |v| and the double-double power's head and t
    its exact error (Dekker 1971) plus |v| times the power's tail; p is an
    integer, since 10^16 > 2^53, and t is off by less than 1e-13.  D =
    p + rint(t), rounded half to even.  Not certified: t within 1e-9 of a
    tie, p + t outside [10^16, 10^17 - 1/2), and zeros, inf, nan,
    subnormals and values off the table.
    """
    head, head_hi, head_lo, tail, pow10, *_ = _g17_tables()
    ax = np.abs(x)
    certified = (ax >= 10.0**_E_LO) & (ax < 10.0 ** (_E_HI + 1))
    ax[~certified] = 1.0
    row = np.floor(np.log10(ax)).astype(np.intp) - (_E_LO - 1)
    row -= ax < pow10[row]
    row += ax >= pow10[row + 1]
    p = ax * head[row]
    c = ax * _SPLIT
    x_hi = c - (c - ax)
    x_lo = ax - x_hi
    h_hi, h_lo = head_hi[row], head_lo[row]
    t = ((x_hi * h_hi - p) + x_hi * h_lo + x_lo * h_hi) + x_lo * h_lo + ax * tail[row]
    r = np.rint(t)
    D = p.astype(np.int64) + r.astype(np.int64)
    # From 10^16 - 0.01 up, D = 10^16 is also the correct rounding of the
    # 17 digits at E - 1.
    certified &= (D < 10**17) & ((D > 10**16) | ((p - 1e16) + t >= -0.01)) & (np.abs(t - r) < 0.5 - 1e-9)
    return row, D, certified


def _g17_records(x: np.ndarray) -> np.ndarray:
    """The records of "%.17g" % v for every v of the 1-D float array x:
    digits from _decimal_digits where certified, zeros written as 0 and
    -0, and every other value by "%.17g" itself."""
    *_, groups, variant, points, word0, word5 = _g17_tables()
    row, D, certified = _decimal_digits(x)
    rec = np.empty((x.shape[0], 6), _RECORD)
    at = 2 * row  # (row, a nonzero digit follows) indexes the variant offsets
    later = np.zeros(x.shape[0], bool)
    for k in (4, 3, 2, 1):  # word k holds digits 4k - 3 .. 4k
        rest = D // 10**4
        group = D - rest * 10**4
        i = at + later
        rec[:, k] = groups[group + variant[k - 1][i]] | points[k - 1][i]
        later |= group != 0
        D = rest
    rec[:, 0] = word0[40 * row + 4 * D + 2 * np.signbit(x) + later]
    rec[:, 5] = word5[row]
    zero = x == 0.0
    rec[zero] = _text_records([b"0", b"-0"])[np.signbit(x[zero]).astype(np.intp)]
    slow = np.flatnonzero(~(certified | zero))
    if slow.size:
        rec[slow] = _text_records([b"%.17g" % v for v in x[slow].tolist()])
    return rec


def write_trajectory_csv(run: SimulationRun, path) -> None:
    """One row per (sample, agent), every number as "%.17g" % value, which
    round-trips.

    Rows are written _CSV_CHUNK fields at a time: the chunk's values as
    one array of records (_g17_records), beside the time's record of each
    row's sample and the agent's record, formatted once per run; deleting
    the zero bytes of the chunk's records leaves its text.
    """
    scalars = {"coherency_norm": run.coherency_norm, "coherency_proxy": run.coherency_proxy}
    scalars.update((gain, getattr(run, gain)) for gain in PROTOCOLS[run.protocol].gains)
    columns = ["t", "agent"] + [f"y{j + 1}" for j in range(run.outputs.shape[2])] + list(scalars)
    columns += [f"u{j + 1}" for j in range(run.controls.shape[2])]
    # (samples x agents, width) blocks, rows in file order.
    blocks = [run.outputs] + [v[:, :, None] for v in scalars.values()] + [run.controls]
    blocks = [b.reshape(-1, b.shape[2]) for b in blocks]
    n_agents, width = run.n_agents, len(columns)
    times = _g17_records(run.times)
    agents = _text_records([b"%d" % a for a in run.agent_indices.tolist()])
    separators = np.full(width, _bytes_word(b",", 7), _RECORD)
    separators[-1] = _bytes_word(b"\n", 7)
    step = max(1, _CSV_CHUNK // width)  # rows a chunk

    def chunk(start):
        """The text of the chunk's rows from start; a function, so that no
        array of one chunk is alive while the next is formatted."""
        values = np.concatenate([b[start : start + step] for b in blocks], axis=1)
        sample, agent = np.divmod(np.arange(start, start + values.shape[0]), n_agents)
        rec = np.empty((values.shape[0], width, 6), _RECORD)
        rec[:, 0] = times[sample]
        rec[:, 1] = agents[agent]
        rec[:, 2:] = _g17_records(values.reshape(-1)).reshape(values.shape + (6,))
        rec[:, :, 5] |= separators
        # One C pass deletes the padding.  np.compress would build an int64
        # index of every byte kept, 1.2 MB a chunk.
        return rec.tobytes().translate(None, b"\0")

    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        for start in range(0, blocks[0].shape[0], step):
            fh.write(chunk(start))
