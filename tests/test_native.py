"""The compiled RK4 step and trajectory.csv writer: the same bytes as the
numpy path, its fallback, its cache and its packaging."""

import dataclasses
import importlib.resources
import os
import shutil
import stat
import subprocess
import tempfile

import numpy as np
import pytest

from cohsync import _native
from cohsync import simulate as simulate_module
from cohsync.agents import AgentModel
from cohsync.cli import SETTLING_WINDOW, build_design, bundled_manifest_names, load_bundled_manifest, run_experiment
from cohsync.collab import design_collab
from cohsync.graphs import DirectedWeightedGraph, generate_circulant, generate_disconnected_composite
from cohsync.noncollab import design_noncollab
from cohsync.simulate import _GROWTH_LIMIT, DisturbanceSpec, IntegrationBlowup, SimConfig, simulate
from cohsync.verification import seeded_minimum_phase_model

ARTIFACTS = ("design.json", "trajectory.csv", "summary.json")


@pytest.fixture
def compiled():
    """The compiled step, which simulate takes unless told otherwise."""
    if _native.library() is None:
        pytest.skip("no C compiler builds the compiled step here")


def both_paths(monkeypatch):
    """The compiled run, and then the numpy path, taken as on a host
    without a C compiler: yields each path's name once it is set."""
    yield "compiled"
    monkeypatch.setattr(_native, "library", lambda: None)
    yield "numpy"


def no_compiler(monkeypatch, tmp_path):
    """Points the compiler lookup at a missing path and the cache at an
    empty directory."""
    monkeypatch.setattr(_native, "_CC", str(tmp_path / "no-such-compiler"))
    monkeypatch.setattr(_native, "_CACHE", tmp_path / "empty")
    (tmp_path / "empty").mkdir()


def test_both_paths_write_the_same_artifacts(monkeypatch, tmp_path, compiled):
    # Every bundled manifest, cut to the settling window, on the compiled
    # step and writer and on the numpy path that simulate and
    # write_trajectory_csv fall back to without a compiler: byte-identical
    # artifacts.
    artifacts, writes = {}, {"compiled": 0, "numpy": 0}
    compiled_csv = _native.compiled_csv

    def counted_csv(*args):
        writes[path] += 1
        return compiled_csv(*args)

    monkeypatch.setattr(_native, "compiled_csv", counted_csv)
    assert hasattr(_native.library(), "cohsync_csv")
    for path in ("compiled", "numpy"):
        if path == "numpy":
            no_compiler(monkeypatch, tmp_path)
            assert _native.library() is None
        for name in bundled_manifest_names():
            manifest = dataclasses.replace(load_bundled_manifest(name), t_end=SETTLING_WINDOW)
            run_experiment(manifest, tmp_path / path / name)
            artifacts.setdefault(name, []).append([(tmp_path / path / name / a).read_bytes() for a in ARTIFACTS])
    assert len(artifacts) == 16
    # Each trajectory.csv of the compiled side came from the compiled writer.
    assert writes == {"compiled": 16, "numpy": 0}
    for name, (on_compiled, on_numpy) in artifacts.items():
        for artifact, a, b in zip(ARTIFACTS, on_compiled, on_numpy):
            assert a == b, (name, artifact)
    assert list((tmp_path / "empty").iterdir()) == []


@pytest.mark.parametrize("name", ["noncol-vicsek-n25", "col-vicsek-n25"])
@pytest.mark.parametrize("n_agents", [1, 600])
@pytest.mark.parametrize("disturbance", ["chirp", "table"])
def test_both_paths_agree_bitwise_on_one_agent_and_on_several_blocks(
    monkeypatch, compiled, name, n_agents, disturbance
):
    # 600 agents make the compiled step work in three blocks, the last one
    # short, and make it write w for a few steps at a time, with the last
    # batch short; one agent is a lone row beside a zero one.  From the
    # bundled gains alpha moves at nearly every stage.
    manifest = load_bundled_manifest(name)
    spec = manifest.disturbance
    if disturbance == "table":
        spec = DisturbanceSpec(kind="table", times=[0.0, 0.1, 0.5], values=[[0.0], [2.0], [-1.0]])
    config = SimConfig(
        model=manifest.model,
        graph=(
            generate_circulant(n_agents, (1, 2), directed=True)
            if n_agents > 1
            else DirectedWeightedGraph(np.zeros((1, 1)))
        ),
        design=build_design(manifest),
        disturbance=spec,
        dt=0.005,
        t_end=0.5,
        record_stride=7,
        initial_rho=manifest.rho0,
        initial_alpha=manifest.alpha0,
    )
    assert_paths_agree(monkeypatch, config)


def assert_paths_agree(monkeypatch, config):
    """simulate(config) gives the same bits, and the same warnings, on the
    compiled run and on the numpy path."""
    runs = []
    for _ in both_paths(monkeypatch):
        runs.append(vars(simulate(config)))
    for key, value in runs[0].items():
        if isinstance(value, np.ndarray):
            assert value.tobytes() == runs[1][key].tobytes(), key
    assert runs[0]["warnings"] == runs[1]["warnings"]


def test_arrays_the_library_cannot_read_are_refused():
    with pytest.raises(ValueError, match="is not C-contiguous"):
        _native._address(np.zeros((4, 4))[:, ::2], "C")
    with pytest.raises(ValueError, match="is not F-contiguous"):
        _native._address(np.zeros((4, 4)), "F")
    with pytest.raises(ValueError, match="is not C-contiguous"):
        _native._address(np.zeros(4, np.float32), "C")
    # compiled_csv refuses before it calls the library.
    column, texts = np.zeros((2, 3)), ([b"0,", b"1,"], [b"1,", b"2,", b"3,"])
    for columns, times, agents, message in (
        ([column, column.astype(np.float32)], *texts, "float64 array"),
        ([column], texts[0][:1], texts[1], "one text is needed"),
        ([column], texts[0], texts[1] + [b"4,"], "one text is needed"),
    ):
        with pytest.raises(ValueError, match=message):
            next(_native.compiled_csv(None, columns, times, agents, None, 0, 1))


def seeded_design(protocol, n):
    """A seeded minimum-phase model of n states and its design."""
    model, _ = seeded_minimum_phase_model(np.random.default_rng([0, n]), n)
    design = {"noncollaborative": design_noncollab, "collaborative": design_collab}[protocol]
    return model, design(model, delta=1.0)


def hub_with_leaves(leaves):
    """Agent 0 observes each of the leaves, each leaf observes agent 0, at
    weights that differ: the hub's Laplacian row has leaves + 1 entries, a
    leaf's 2."""
    ends = np.arange(1, leaves + 1)
    weights = 0.5 + ends / leaves
    return DirectedWeightedGraph.from_flows(
        leaves + 1, np.concatenate([ends, 0 * ends]), np.concatenate([0 * ends, ends]), np.tile(weights, 2)
    )


GRAPHS = {
    "circulant": lambda: generate_circulant(11, (1, 3), directed=True),
    "hub": lambda: hub_with_leaves(14),
    "lone": lambda: DirectedWeightedGraph(np.zeros((1, 1))),
    # 301 agents: the first block of 256 rows holds all of the first two
    # components and part of the third.
    "components": lambda: generate_disconnected_composite((90, 110, 101), seed=3),
}


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("n", [5, 7, 12, 16])
@pytest.mark.parametrize("protocol", ["noncollaborative", "collaborative"])
def test_both_paths_agree_bitwise_on_many_summed_columns_and_any_graph(monkeypatch, compiled, protocol, n, graph):
    # 5 to 32 summed columns: one to four pairs of the Laplacian loop's
    # chunks of 4 columns, the last pair whole, with one chunk (12 and 10),
    # or with a second chunk of 1 to 3 columns (5, 7 and 14); rows of
    # unequal width, a lone agent and agent counts that leave a partial
    # group of rows in a block.
    model, design = seeded_design(protocol, n)
    config = SimConfig(
        model=model, graph=GRAPHS[graph](), design=design, dt=2e-4, t_end=0.01, record_stride=3, initial_rho=0.5
    )
    assert_paths_agree(monkeypatch, config)


def counted_calls(monkeypatch) -> list:
    """The library's cohsync_run, wrapped to count its calls: one entry
    each in the list returned."""
    lib, calls = _native.library(), []
    run = lib.cohsync_run

    def counted(*args):
        calls.append(None)
        return run(*args)

    monkeypatch.setattr(lib, "cohsync_run", counted)
    return calls


def counted_solves(monkeypatch, grid) -> list:
    """grid's gain_rows, wrapped to note of each call whether it solved a
    cell; the list returned holds those notes."""
    gain_rows, solved = grid.gain_rows, []

    def counted(alphas):
        before = grid.cached_indices()
        rows = gain_rows(alphas)
        solved.append(grid.cached_indices() != before)
        return rows

    monkeypatch.setattr(grid, "gain_rows", counted)
    return solved


def bundled_config(name, design, **changes) -> SimConfig:
    manifest = load_bundled_manifest(name)
    settings = dict(disturbance=manifest.disturbance, initial_rho=manifest.rho0, initial_alpha=manifest.alpha0)
    settings.update(changes)
    return SimConfig(model=manifest.model, graph=manifest.graph, design=design, **settings)


@pytest.mark.parametrize("name", ["noncol-vicsek-n25", "col-vicsek-n25"])
def test_a_run_without_events_makes_at_most_two_calls(monkeypatch, compiled, name):
    # No disturbance: 1500 steps in one call, and for the collaborative law,
    # whose alpha never moves here, one more after its one cell is solved.
    start = simulate(bundled_config(name, build_design(load_bundled_manifest(name)), dt=0.01, t_end=0.01))
    design = build_design(load_bundled_manifest(name))  # its own, empty cache
    config = bundled_config(
        name,
        design,
        disturbance=DisturbanceSpec(),
        dt=0.01,
        t_end=15.0,
        record_stride=2,
        initial_states=0.1 * start.states[0],
    )
    calls = counted_calls(monkeypatch)
    run = simulate(config)
    assert run.times.shape[0] == 751
    assert run.alpha is None or np.array_equal(run.alpha[0], run.alpha[-1])
    assert len(calls) == (1 if run.alpha is None else 2)


def counted_writes(monkeypatch) -> list:
    """The w(t) writers simulate binds, wrapped to count their calls: one
    entry each in the list returned."""
    writer, writes = simulate_module._disturbance_writer, []

    def counted_writer(*args):
        write = writer(*args)

        def counted(*args):
            writes.append(None)
            return write(*args)

        return counted

    monkeypatch.setattr(simulate_module, "_disturbance_writer", counted_writer)
    return writes


def test_a_chirp_run_calls_once_a_window_and_once_a_solved_cell(monkeypatch, compiled):
    # From alpha0 = 0.5 alpha moves at about every other sample and crosses
    # cells; C gathers every cached cell itself, and returns to Python only
    # at the end of a w(t) window and for a cell to solve.  Both paths write
    # w(t) once a window.
    calls, writes = counted_calls(monkeypatch), counted_writes(monkeypatch)
    counts = []
    for _ in both_paths(monkeypatch):
        design = build_design(load_bundled_manifest("col-vicsek-n25"))  # its own, empty cache
        config = bundled_config("col-vicsek-n25", design, dt=0.01, t_end=6.0, record_stride=2, initial_alpha=0.5)
        solved = counted_solves(monkeypatch, design.grid)
        run = simulate(config)
        counts.append((len(calls), len(writes), solved))
        del calls[:], writes[:]
    (n_calls, n_writes, solved), (numpy_calls, numpy_writes, _) = counts
    n_steps, rows = 600, run.n_agents
    ahead = simulate_module._W_AHEAD // (3 * config.model.w * rows)
    windows = -(-(n_steps + 1) // ahead)
    assert windows > 1 and len(solved) > 1 and all(solved)
    assert n_calls == windows + len(solved) and numpy_calls == 0
    assert n_writes == numpy_writes == windows
    # Each of these samples' steps would have gathered in Python before.
    assert np.count_nonzero((run.alpha[1:] != run.alpha[:-1]).any(axis=1)) > 100


def test_alpha_entering_an_uncached_cell_mid_run_gives_the_same_bits_and_cache(monkeypatch, compiled):
    # The compiled run makes a step again from its first stage after a cell
    # is solved; at stride 1 that step's sample is recorded again.
    for stride in (3, 1):
        runs, cached = [], []
        with monkeypatch.context() as patch:
            for _ in both_paths(patch):
                design = build_design(load_bundled_manifest("col-vicsek-n25"))  # its own, empty cache
                config = bundled_config(
                    "col-vicsek-n25", design, dt=0.01, t_end=3.0, record_stride=stride, initial_alpha=0.5
                )
                run = simulate(config)
                runs.append(vars(run))
                cached.append(design.grid.cached_indices())
        start, end = (set(design.grid.indices_for(run.alpha[i]).tolist()) for i in (0, -1))
        assert start != end and len(cached[0]) > len(start)
        assert cached[0] == cached[1]
        for key, value in runs[0].items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == runs[1][key].tobytes(), (stride, key)


def with_alpha_of_agent_0(monkeypatch, value):
    """Has simulate start agent 0 from the given alpha, which simulate's
    own checks would refuse."""
    integrate = simulate_module._integrate

    def integrate_from(steps, S, *args):
        S[0, -1] = value
        return integrate(steps, S, *args)

    monkeypatch.setattr(simulate_module, "_integrate", integrate_from)


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_nan_and_inf_alpha_gather_as_the_python_gather_does(monkeypatch, compiled, alpha):
    # NaN is no positive alpha: it reads cell 0, which C finds cached, and
    # its u is +0; the step then blows up on the NaN.  Infinity lies past
    # every grid point: Python's gather refuses it.
    outcomes, calls = [], counted_calls(monkeypatch)
    with_alpha_of_agent_0(monkeypatch, alpha)
    for _ in both_paths(monkeypatch):
        design = build_design(load_bundled_manifest("col-vicsek-n25"))
        design.grid.cell(0)
        config = bundled_config(
            "col-vicsek-n25", design, disturbance=DisturbanceSpec(), dt=0.01, t_end=0.01, initial_alpha=1.0
        )
        with pytest.raises((IntegrationBlowup, ValueError)) as error:
            simulate(config)
        outcomes.append((type(error.value), str(error.value), design.grid.cached_indices()))
    assert outcomes[0] == outcomes[1]
    if np.isnan(alpha):
        assert outcomes[0][0] is IntegrationBlowup
    else:
        assert outcomes[0][:2] == (ValueError, "alpha must be positive and finite")
    # One call: for NaN it ran to the blow-up without asking Python for a
    # cell, and for infinity it asked, and Python's gather raised.
    assert len(calls) == 1 and outcomes[0][2] == (0,)


def test_a_model_without_disturbance_channels_runs_on_both_paths(monkeypatch, compiled):
    model = AgentModel([[-1.0]], [[1.0]], [[1.0]])
    config = SimConfig(
        model=model,
        graph=generate_circulant(3, (1,)),
        design=design_noncollab(model, delta=1.0),
        disturbance=DisturbanceSpec(kind="chirp", width=0),
        dt=0.01,
        t_end=0.2,
    )
    states = []
    for _ in both_paths(monkeypatch):
        states.append(simulate(config).states.tobytes())
    assert states[0] == states[1]


def test_a_library_under_a_stale_key_is_never_loaded(monkeypatch, tmp_path, compiled):
    # Built into a cache directory of the test's own, under its key.
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    monkeypatch.setattr(_native, "_CACHE", cache)
    fresh = cache / _native.cache_name(_native.source())
    assert _native.library()._name == str(fresh) and fresh.is_file()
    # A library of other source or flags sits under another name, and a
    # file there is never opened: garbage there would fail to load.
    stale = [
        cache / _native.cache_name(_native.source() + b"\n"),
        cache / _native.cache_name(_native.source(), _native._FLAGS + ("-ffast-math",)),
    ]
    assert len({fresh, *stale}) == 3
    fresh.unlink()
    for path in stale:
        path.write_bytes(b"not a library")
    no_compiler(monkeypatch, tmp_path)
    monkeypatch.setattr(_native, "_CACHE", cache)
    assert _native.library() is None
    assert all(path.read_bytes() == b"not a library" for path in stale)


def test_a_library_another_user_could_have_written_is_never_loaded(monkeypatch, tmp_path, compiled):
    # Built into a private cache directory of the test's own, and loaded.
    compiler = _native._CC
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    monkeypatch.setattr(_native, "_CACHE", cache)
    built = cache / _native.cache_name(_native.source())
    assert _native.library()._name == str(built)
    assert stat.S_IMODE(built.stat().st_mode) == 0o700
    # With no compiler to build it again, the same library is not loaded
    # from a directory that others can write to ...
    no_compiler(monkeypatch, tmp_path)
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    shutil.copy2(built, shared / built.name)
    monkeypatch.setattr(_native, "_CACHE", shared)
    assert _native.library() is None
    # ... nor from a directory of another user's ...
    monkeypatch.setattr(_native, "_CACHE", cache)
    with monkeypatch.context() as other_user:
        other_user.setattr(os, "getuid", lambda: os.stat(cache).st_uid + 1)
        assert _native.library() is None
    # ... nor when others can write to the library itself ...
    built.chmod(0o722)
    assert _native.library() is None
    # ... which a compiler builds again in its place, private to the user.
    again = tmp_path / "again"
    again.mkdir(mode=0o700)
    shutil.copy2(built, again / built.name)
    monkeypatch.setattr(_native, "_CC", compiler)
    monkeypatch.setattr(_native, "_CACHE", again)
    assert _native.library()._name == str(again / built.name)
    assert stat.S_IMODE((again / built.name).stat().st_mode) == 0o700


def test_the_temporary_fallback_is_a_private_directory_of_the_users_own(monkeypatch, tmp_path):
    # The user's cache directory cannot be made, as its parent is a file:
    # cohsync-<uid> in the temporary directory is, with mode 0700.
    (tmp_path / "file").write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    fallback = tmp_path / "tmp" / f"cohsync-{os.getuid()}"
    assert _native._cache_dir() == fallback
    assert stat.S_IMODE(fallback.stat().st_mode) == 0o700
    # Where others can write to it, there is no cache directory and the
    # numpy path is taken: never the temporary directory itself.
    fallback.chmod(0o777)
    assert _native._cache_dir() is None
    assert _native.library() is None


def test_the_step_source_compiles_without_warnings(tmp_path):
    compiler = shutil.which("gcc")
    if compiler is None:
        pytest.skip("no gcc")
    build = subprocess.run(
        [compiler, *_native._FLAGS, "-Wall", "-Wextra", "-Werror", "-x", "c", "-", "-o", str(tmp_path / "step.so")],
        input=_native.source(),
        capture_output=True,
        timeout=300,
    )
    assert build.returncode == 0, build.stderr.decode()


def test_the_step_source_ships_with_the_package():
    source = importlib.resources.files("cohsync").joinpath("_step.c")
    assert source.is_file() and source.read_bytes() == _native.source()
    assert b"int cohsync_run(" in _native.source()
    assert b"int64_t cohsync_csv(" in _native.source()


def test_a_build_removes_the_users_libraries_of_other_sources(monkeypatch, tmp_path, compiled):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    monkeypatch.setattr(_native, "_CACHE", cache)
    stale = cache / _native.cache_name(_native.source() + b"\n")
    # A build's temporary (mkstemp's suffix after a library's name) and
    # a file under another name stay.
    kept = [cache / (stale.name + "k3x_9q2a"), cache / "notes.txt"]
    for path in [stale] + kept:
        path.write_bytes(b"not a library")
    built = cache / _native.cache_name(_native.source())
    assert _native.library()._name == str(built)
    assert sorted(cache.iterdir()) == sorted([built] + kept)


def test_pruning_keeps_the_files_of_another_user(monkeypatch, tmp_path):
    stale = tmp_path / f"cohsync-step-{'0' * 64}.so"
    stale.write_bytes(b"not a library")
    monkeypatch.setattr(os, "getuid", lambda: stale.stat().st_uid + 1)
    _native._prune(tmp_path, f"cohsync-step-{'1' * 64}.so")
    assert stale.exists()
    monkeypatch.undo()
    _native._prune(tmp_path, f"cohsync-step-{'1' * 64}.so")
    assert not stale.exists()


def first_stops(monkeypatch, config, agent, value):
    """Per path, compiled first: how a run whose agent starts with its last
    state column, a gain, at value ends: ("stop", step, envelope) where
    the path's steps first stop, or the error the run raises."""
    outcomes = []

    def integrate(steps, S, S_next, dt, n_steps, *rest):
        S[agent, -1] = value
        outcomes.append(("stop",) + steps(None, 0, n_steps + 1))
        return []

    monkeypatch.setattr(simulate_module, "_integrate", integrate)
    for _ in both_paths(monkeypatch):
        try:
            simulate(config)
        except ValueError as error:
            outcomes.append(("error", str(error)))
    return outcomes


ABOVE_LIMIT = float(np.nextafter(_GROWTH_LIMIT, np.inf))


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("agent", [0, 8], ids=["body", "remainder"])
@pytest.mark.parametrize("value", [np.nan, -np.nan, np.inf, -np.inf, ABOVE_LIMIT, -ABOVE_LIMIT])
@pytest.mark.parametrize("protocol, n", [("noncollaborative", 5), ("collaborative", 4)])
def test_the_combination_stops_at_the_numpy_paths_step_and_envelope(monkeypatch, compiled, protocol, n, value, agent):
    # 9 agents with no edges and 10 state columns: S_next holds 90 values,
    # 2 past the last full vector of 4 or 8.  Agent 0's gain is value 81,
    # in the vector body; agent 8's is the last value, in the remainder.
    model, design = seeded_design(protocol, n)
    config = SimConfig(model=model, graph=DirectedWeightedGraph(np.zeros((9, 9))), design=design, dt=0.01, t_end=0.05)
    assert len(design.gains) + model.n + design.widths(n, model.m)[0] == 10
    compiled_outcome, numpy_outcome = first_stops(monkeypatch, config, agent, value)
    if compiled_outcome[0] == "error":
        # A collaborative alpha of +inf lies past every P_alpha grid point.
        assert (protocol, value) == ("collaborative", np.inf)
        assert compiled_outcome == numpy_outcome == ("error", "alpha must be positive and finite")
        return
    (_, step, envelope), (_, numpy_step, numpy_envelope) = compiled_outcome, numpy_outcome
    assert step == numpy_step == 1
    assert np.isnan(envelope) == np.isnan(numpy_envelope)
    if not np.isnan(envelope):
        assert envelope == numpy_envelope
    # All but rho = +-inf or NaN, which the noncollaborative law multiplies
    # by a zero, stay in their lane: the lane alone sets the envelope.
    if protocol == "collaborative" or abs(value) == ABOVE_LIMIT:
        assert np.isnan(envelope) if np.isnan(value) else envelope == abs(value)
