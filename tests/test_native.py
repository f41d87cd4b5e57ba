"""The compiled RK4 step and trajectory.csv writer: the same bytes as the
numpy path, its fallback, its cache and its packaging."""

import dataclasses
import importlib.resources
import os
import shutil
import stat
import tempfile

import numpy as np
import pytest

from cohsync import _native
from cohsync.agents import AgentModel
from cohsync.cli import SETTLING_WINDOW, build_design, bundled_manifest_names, load_bundled_manifest, run_experiment
from cohsync.graphs import DirectedWeightedGraph, generate_circulant
from cohsync.noncollab import design_noncollab
from cohsync.simulate import DisturbanceSpec, SimConfig, simulate

ARTIFACTS = ("design.json", "trajectory.csv", "summary.json")


@pytest.fixture
def compiled():
    """The compiled step, which simulate takes unless told otherwise."""
    if _native.library() is None:
        pytest.skip("no C compiler builds the compiled step here")


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
    runs = []
    for path in (True, False):
        monkeypatch.setattr(_native, "_compiled", path)
        runs.append(vars(simulate(config)))
    for key, value in runs[0].items():
        if isinstance(value, np.ndarray):
            assert value.tobytes() == runs[1][key].tobytes(), key
    assert runs[0]["warnings"] == runs[1]["warnings"]


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
    for path in (True, False):
        monkeypatch.setattr(_native, "_compiled", path)
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


def test_the_step_source_ships_with_the_package():
    source = importlib.resources.files("cohsync").joinpath("_step.c")
    assert source.is_file() and source.read_bytes() == _native.source()
    assert b"int cohsync_step(" in _native.source()
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
