"""Manifest parsing, the experiment runner, and the command line surface."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohsync.cli import (
    _TOP_KEYS,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    OUT_ROOT_ENV,
    ExperimentManifest,
    _default_out_dir,
    build_design,
    bundled_manifest_names,
    design_payload,
    json_text,
    load_bundled_manifest,
    load_manifest,
    main,
    manifest_from_dict,
    run_experiment,
)
from cohsync import graphs
from cohsync.graphs import format_edge_list, generate_circulant

import golden


def noncollab_model_spec():
    return {
        "A": golden.NONCOLLAB_A.tolist(),
        "B": golden.NONCOLLAB_B.tolist(),
        "C": golden.NONCOLLAB_C.tolist(),
        "E": golden.NONCOLLAB_E.tolist(),
    }


def collab_model_spec():
    return {
        "A": golden.COLLAB_A.tolist(),
        "B": golden.COLLAB_B.tolist(),
        "C": golden.COLLAB_C.tolist(),
        "E": golden.COLLAB_E.tolist(),
    }


def noncollab_overrides():
    return {
        "S": golden.NONCOLLAB_S.tolist(),
        "T": golden.NONCOLLAB_T.tolist(),
        "H1": golden.NONCOLLAB_H1.tolist(),
    }


def tiny_manifest_dict(**extra):
    """Small noncollaborative run that settles well inside its horizon."""
    data = {
        "name": "tiny",
        "protocol": "noncollaborative",
        "model": noncollab_model_spec(),
        "graph": {"generator": "vicsek", "generation": 1},
        "d": 0.5,
        "dt": 1e-2,
        "t_end": 12.0,
        "record_stride": 5,
        "overrides": noncollab_overrides(),
    }
    data.update(extra)
    return data


def tiny_collab_dict(**extra):
    data = {
        "name": "tiny-col",
        "protocol": "collaborative",
        "model": collab_model_spec(),
        "graph": {"generator": "vicsek", "generation": 1},
        "d": 0.5,
        "dt": 1e-2,
        "t_end": 12.0,
        "record_stride": 5,
    }
    data.update(extra)
    return data


# ---------------------------------------------------------------------------
# manifest parsing


def test_manifest_round_trip_fields():
    m = manifest_from_dict(tiny_manifest_dict(seed=7, rho0=1.5))
    assert isinstance(m, ExperimentManifest)
    assert m.name == "tiny"
    assert m.protocol == "noncollaborative"
    assert m.d == 0.5 and m.delta is None
    assert m.dt == 1e-2 and m.t_end == 12.0
    assert m.seed == 7 and m.record_stride == 5
    assert m.rho0 == 1.5 and m.alpha0 == 0.0
    assert m.graph.n_nodes == 5
    assert m.model.n == 4


def test_manifest_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown fields.*typo"):
        manifest_from_dict(tiny_manifest_dict(typo=1))


def test_manifest_requires_name_protocol_model_graph():
    with pytest.raises(ValueError, match="'name' is required"):
        manifest_from_dict({"protocol": "noncollaborative"})
    with pytest.raises(ValueError, match="'protocol' must be one of"):
        manifest_from_dict({"name": "x", "protocol": "magic"})
    with pytest.raises(ValueError, match="'model' and 'graph' are required"):
        manifest_from_dict({"name": "x", "protocol": "noncollaborative"})


def test_manifest_requires_threshold():
    data = tiny_manifest_dict()
    del data["d"]
    with pytest.raises(ValueError, match="provide 'delta', 'd', or both"):
        manifest_from_dict(data)


def test_manifest_rejects_collab_overrides():
    data = tiny_collab_dict(overrides={"S": [[1.0]]})
    with pytest.raises(ValueError, match="noncollaborative design only"):
        manifest_from_dict(data)


def test_manifest_rejects_unknown_override_key():
    data = tiny_manifest_dict()
    data["overrides"] = {"S": golden.NONCOLLAB_S.tolist(), "Z": [[1.0]]}
    with pytest.raises(ValueError, match="unknown override fields"):
        manifest_from_dict(data)


def test_manifest_rejects_bad_initial_gains():
    with pytest.raises(ValueError, match="nonnegative"):
        manifest_from_dict(tiny_manifest_dict(rho0=-1.0))
    with pytest.raises(ValueError, match="collaborative protocol only"):
        manifest_from_dict(tiny_manifest_dict(alpha0=1.0))
    # and the collaborative protocol does take both
    m = manifest_from_dict(tiny_collab_dict(rho0=2.0, alpha0=1.0))
    assert m.rho0 == 2.0 and m.alpha0 == 1.0


def test_manifest_rejects_bad_matrix_and_missing_model_parts():
    data = tiny_manifest_dict()
    data["model"] = {"A": [[1.0, "x"]], "B": [[1.0]], "C": [[1.0]]}
    with pytest.raises(ValueError, match="not a numeric matrix"):
        manifest_from_dict(data)
    data["model"] = {"A": [[0.0]]}
    with pytest.raises(ValueError, match="missing.*B.*C"):
        manifest_from_dict(data)


def test_manifest_model_file_indirection(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(noncollab_model_spec()))
    data = tiny_manifest_dict(model={"file": "model.json"})
    m = manifest_from_dict(data, base_dir=tmp_path)
    assert np.array_equal(m.model.A, golden.NONCOLLAB_A)
    data = tiny_manifest_dict(model={"file": "nope.json"})
    with pytest.raises(ValueError, match="model file not found"):
        manifest_from_dict(data, base_dir=tmp_path)


def test_manifest_graph_specs(tmp_path):
    circ = manifest_from_dict(
        tiny_manifest_dict(graph={"generator": "circulant", "n_nodes": 7, "offsets": [1, 3]})
    )
    assert circ.graph.n_nodes == 7
    disc = manifest_from_dict(
        tiny_manifest_dict(graph={"generator": "disconnected", "component_sizes": [3, 4]})
    )
    assert disc.graph.n_nodes == 7

    edge_path = tmp_path / "ring.txt"
    edge_path.write_text(format_edge_list(generate_circulant(6, offsets=(1,))))
    from_file = manifest_from_dict(
        tiny_manifest_dict(graph={"edge_list": "ring.txt"}), base_dir=tmp_path
    )
    assert from_file.graph.n_nodes == 6

    with pytest.raises(ValueError, match="edge list file not found"):
        manifest_from_dict(tiny_manifest_dict(graph={"edge_list": "gone.txt"}), base_dir=tmp_path)
    with pytest.raises(ValueError, match="graph needs 'edge_list' or a generator"):
        manifest_from_dict(tiny_manifest_dict(graph={"generator": "torus"}))


def test_manifest_disturbance_validation():
    m = manifest_from_dict(tiny_manifest_dict(disturbance={"kind": "chirp", "width": 1}))
    assert m.disturbance.kind == "chirp"
    with pytest.raises(ValueError, match="'disturbance' must be an object"):
        manifest_from_dict(tiny_manifest_dict(disturbance="chirp"))
    with pytest.raises(ValueError, match="unknown disturbance kind"):
        manifest_from_dict(tiny_manifest_dict(disturbance={"kind": "static"}))


@pytest.mark.parametrize(
    "where, spec, unknown",
    [
        ("model", dict(collab_model_spec(), D=[[0.0]]), ["D"]),
        ("model", {"file": "model.json", "scale": 2.0}, ["scale"]),
        ("graph", {"edge_list": "ring.txt", "directed": False}, ["directed"]),
        ("graph", {"generator": "vicsek", "generation": 1, "n_nodes": 5}, ["n_nodes"]),
        ("graph", {"generator": "circulant", "n_nodes": 6, "ofsets": [1]}, ["ofsets"]),
        ("graph", {"generator": "disconnected", "component_sizes": [3, 3], "directed": True}, ["directed"]),
        ("disturbance", {"kind": "chirp", "width": 1, "amplitude": 5.0}, ["amplitude"]),
        ("disturbance", {"kind": "chirp", "width": 1, "times": [0.0, 20.0]}, ["times"]),
        ("disturbance", {"kind": "table", "width": 1, "times": [0.0, 20.0], "values": [0.0, 0.1], "by": 2}, ["by"]),
    ],
)
def test_nested_manifest_objects_refuse_unknown_fields(tmp_path, where, spec, unknown):
    (tmp_path / "model.json").write_text(json.dumps(collab_model_spec()))
    (tmp_path / "ring.txt").write_text(format_edge_list(generate_circulant(6, offsets=(1,))))
    with pytest.raises(ValueError, match=re.escape(f"{where}: unknown fields {unknown}")):
        manifest_from_dict(tiny_collab_dict(**{where: spec}), base_dir=tmp_path)


def test_undirected_flag_on_a_disconnected_graph_exits_two(tmp_path, capsys):
    # The disconnected generator has no undirected variant; the flag was
    # once checked to be a bool and then dropped, so the run was directed.
    data = json.loads(json.dumps(load_bundled_manifest("col-disconnected-n24").raw))
    data["graph"]["directed"] = False
    path = write_manifest(tmp_path, data)
    code = main(["simulate", "--manifest", str(path), "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: manifest 'col-disconnected-n24': graph: unknown fields ['directed']\n"
    )
    assert not (tmp_path / "run").exists()


def test_load_manifest_uses_file_directory(tmp_path):
    (tmp_path / "model.json").write_text(json.dumps(noncollab_model_spec()))
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(tiny_manifest_dict(model={"file": "model.json"})))
    m = load_manifest(path)
    assert m.model.n == 4


# ---------------------------------------------------------------------------
# bundled manifests


def test_bundled_manifests_exist_and_load():
    names = bundled_manifest_names()
    for expected in (
        "noncol-vicsek-n5",
        "noncol-vicsek-n25",
        "noncol-vicsek-n121",
        "noncol-vicsek-un-n25",
        "noncol-circulant-n25",
        "noncol-disconnected-n24",
        "noncol-vicsek-n25-sawtooth",
        "noncol-vicsek-n25-d02",
        "col-vicsek-n5",
        "col-vicsek-n25",
        "col-vicsek-n121",
        "col-vicsek-un-n25",
        "col-circulant-n25",
        "col-disconnected-n24",
        "col-vicsek-n25-sawtooth",
        "col-vicsek-n25-d02",
    ):
        assert expected in names
    for name in names:
        m = load_bundled_manifest(name)
        assert m.name == name
        assert m.graph.n_nodes >= 5


def test_bundled_lookup_tolerates_json_suffix(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["graph", "--manifest", "noncol-vicsek-n5.json"])
    assert code == EXIT_PASS
    assert "nodes 5" in capsys.readouterr().out


def test_unknown_manifest_lists_bundled_names(tmp_path, capsys):
    code = main(["design", "--manifest", str(tmp_path / "missing.json")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "no manifest file" in err
    assert "noncol-vicsek-n5" in err


# ---------------------------------------------------------------------------
# experiment runner


def test_run_experiment_artifacts_and_summary(tmp_path):
    m = manifest_from_dict(tiny_manifest_dict())
    res = run_experiment(m, tmp_path / "out")
    assert res.passed
    for p in (res.design_path, res.trajectory_path, res.summary_path):
        assert p.is_file()
    summary = json.loads(res.summary_path.read_text())
    assert summary["all_pass"] is True
    assert summary["settling_threshold"] == pytest.approx(1.0)
    assert len(summary["agents"]) == 5
    first = summary["agents"][0]
    for key in (
        "agent",
        "settling_time",
        "final_rho",
        "rho_flatness",
        "max_coherency_after_settling",
        "max_metric_after_settling",
        "pass",
    ):
        assert key in first
    design = json.loads(res.design_path.read_text())
    assert design["protocol"] == "noncollaborative"
    # json floats round-trip bit-exactly
    d = build_design(m)
    assert np.array_equal(np.array(design["P"]), d.P)
    assert np.array_equal(np.array(design["gain_row"]), d.gain_row)


@pytest.mark.parametrize("name", ["col-disconnected-n24", "noncol-vicsek-n25"])
def test_run_experiment_builds_no_dense_graph(tmp_path, monkeypatch, name):
    def dense(*args, **kwargs):
        raise AssertionError("a dense graph was built")

    monkeypatch.setattr(graphs, "laplacian", dense)
    monkeypatch.setattr(graphs.DirectedWeightedGraph, "__init__", dense)
    monkeypatch.setattr(graphs.DirectedWeightedGraph, "adjacency", property(dense))
    # The whole path from manifest to summary, over a run cut to 6 s.
    m = dataclasses.replace(load_bundled_manifest(name), t_end=6.0)
    res = run_experiment(m, tmp_path)
    assert res.trajectory_path.is_file()


@pytest.mark.parametrize("name", bundled_manifest_names())
def test_summary_json_is_the_indented_dump(tmp_path, name):
    # Every bundled manifest, over a run cut to 6 s: summary.json holds the
    # bytes of json.dumps(summary, indent=2) and a newline.
    res = run_experiment(dataclasses.replace(load_bundled_manifest(name), t_end=6.0), tmp_path)
    assert res.summary_path.read_text() == json.dumps(res.summary, indent=2) + "\n"
    assert json_text(res.summary) == json.dumps(res.summary, indent=2)


def test_json_text_equals_the_indented_dump_on_odd_values():
    agents = [
        {"agent": 1, "settling_time": None, "final_rho": np.inf, "rho_flatness": np.nan, "pass": False},
        {"agent": 2, "settling_time": 0.1, "final_rho": -np.inf, "rho_flatness": -0.0, "pass": True},
        {"agent": 3, "settling_time": 1e-300, "final_rho": 2.0**70, "rho_flatness": 5e-324, "pass": True},
    ]
    summary = {
        "name": "odd, \"quoted\"\n",
        "warnings": ["state of agent 3 grew, then settled", "caf\u00e9"],
        "all_pass": False,
        "agents": agents,
    }
    assert json_text(summary) == json.dumps(summary, indent=2)
    # Anything else, as json itself gives it.
    for payload in ({}, {"agents": agents}, {"agents": [], "n": 1}, {"n": 1, "agents": []}, {"n": 1, "agents": [{}]}):
        assert json_text(payload) == json.dumps(payload, indent=2)


def test_run_experiment_collab_summary_has_alpha(tmp_path):
    m = manifest_from_dict(tiny_collab_dict())
    res = run_experiment(m, tmp_path)
    assert res.passed
    agent = res.summary["agents"][0]
    assert "final_alpha" in agent and "alpha_flatness" in agent


def test_run_experiment_repeats_are_byte_identical(tmp_path):
    m = manifest_from_dict(tiny_manifest_dict())
    a = run_experiment(m, tmp_path / "a")
    b = run_experiment(m, tmp_path / "b")
    for pa, pb in (
        (a.design_path, b.design_path),
        (a.trajectory_path, b.trajectory_path),
        (a.summary_path, b.summary_path),
    ):
        assert pa.read_bytes() == pb.read_bytes()


def test_run_experiment_gain_head_start(tmp_path):
    m = manifest_from_dict(tiny_manifest_dict(rho0=2.0))
    res = run_experiment(m, tmp_path)
    for agent in res.summary["agents"]:
        assert agent["final_rho"] >= 2.0


def test_design_payload_echoes_manifest():
    m = manifest_from_dict(tiny_collab_dict())
    payload = design_payload(m, build_design(m))
    assert payload["manifest"] == m.raw
    assert payload["eta"] > 0.0
    assert np.array(payload["Q"]).shape == (3, 3)


# ---------------------------------------------------------------------------
# CLI surface


def write_manifest(tmp_path, data, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_cli_design_bundled(tmp_path, capsys):
    code = main(["design", "--manifest", "noncol-vicsek-n5", "--out", str(tmp_path)])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "d = 0.5" in out
    assert "lambda_min(P)" in out
    assert (tmp_path / "design.json").is_file()


def test_cli_design_rejects_impossible_model(tmp_path, capsys):
    # the double integrator meets the collaborative protocol's structural
    # conditions, but its observer Riccati pair (A, C') is not stabilizable
    data = tiny_collab_dict(
        model={"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
    )
    code = main(["design", "--manifest", str(write_manifest(tmp_path, data)), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "protocol, lines",
    [("noncollaborative", ("delta_1 = ", "lambda_min(P) = ")), ("collaborative", ("eta = ", "epsilon = "))],
)
def test_cli_design_prints_the_protocol_constants(tmp_path, capsys, protocol, lines):
    data = tiny_manifest_dict() if protocol == "noncollaborative" else tiny_collab_dict()
    code = main(["design", "--manifest", str(write_manifest(tmp_path, data)), "--out", str(tmp_path / "out")])
    assert code == EXIT_PASS
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"design written: {tmp_path / 'out' / 'design.json'}"
    assert printed[1:3] == [f"protocol: {protocol}", "d = 0.5"]
    labels = ("delta = ",) + lines
    assert len(printed) == 3 + len(labels)
    assert all(line.startswith(label) for line, label in zip(printed[3:], labels))


@pytest.mark.parametrize("protocol", [[1, 2], {}], ids=["list", "object"])
def test_unhashable_protocols_exit_two_without_traceback(tmp_path, capsys, protocol):
    path = write_manifest(tmp_path, tiny_collab_dict(protocol=protocol))
    code = main(["simulate", "--manifest", str(path), "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'protocol' must be one of" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["rho0", "alpha0"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_initial_gains_rejected_at_load(tmp_path, capsys, key, value):
    # json writes and reads the literals NaN and Infinity.
    path = write_manifest(tmp_path, tiny_collab_dict(**{key: value}))
    assert ("NaN" if value != value else "Infinity") in path.read_text()
    with pytest.raises(ValueError, match=f"'{key}' must be nonnegative and finite"):
        load_manifest(path)
    code = main(["simulate", "--manifest", str(path), "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_negative_seed_rejected_at_load(tmp_path):
    path = write_manifest(tmp_path, tiny_collab_dict(seed=-1))
    with pytest.raises(ValueError, match="'seed' must be an integer of at least 0, got -1"):
        load_manifest(path)


def test_negative_seed_flag_rejected_before_any_artifact(tmp_path, capsys):
    path = write_manifest(tmp_path, tiny_collab_dict())
    code = main(["simulate", "--manifest", str(path), "--out", str(tmp_path / "run"), "--seed", "-1"])
    assert code == EXIT_CONFIG
    assert "--seed: 'seed' must be an integer of at least 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "extra, flags, message",
    [
        ({"disturbance": {"kind": "chirp", "width": 2}}, [], "disturbance width 2 does not match"),
        ({}, ["--t-end", "0.001"], "t_end must be at least dt"),
        ({}, ["--dt", "1e-300", "--t-end", "1e300"], "is no finite number of steps"),
        (
            {"disturbance": {"kind": "table", "times": [0.0, 12.0], "values": [0.0, 1.0]}},
            ["--t-end", "13"],
            r"covers \[0.0, 12.0\], not the run's \[0, 13.0\]",
        ),
    ],
    ids=["width", "t-end-below-dt", "steps-overflow", "table-range"],
)
def test_run_settings_rejected_before_any_artifact(tmp_path, capsys, extra, flags, message):
    # These settings are checked after the flags apply and before the
    # design, so the output directory is never made.
    path = write_manifest(tmp_path, tiny_collab_dict(**extra))
    code = main(["simulate", "--manifest", str(path), "--out", str(tmp_path / "run"), *flags])
    assert code == EXIT_CONFIG
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_a_graph_without_agents_is_rejected_before_any_artifact(tmp_path, capsys):
    # The collaborative design of this model succeeds, so only a check made
    # before the design keeps design.json and its directory from being made.
    (tmp_path / "empty.txt").write_text("nodes 0\n")
    path = write_manifest(tmp_path, tiny_collab_dict(graph={"edge_list": "empty.txt"}))
    code = main(["simulate", "--manifest", str(path), "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    assert "the graph has no agents" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_simulate_pass(tmp_path, capsys):
    path = write_manifest(tmp_path, tiny_manifest_dict())
    code = main(["simulate", "--manifest", str(path), "--out", str(tmp_path / "run")])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert (tmp_path / "run" / "trajectory.csv").is_file()
    assert (tmp_path / "run" / "summary.json").is_file()


def test_cli_simulate_fail_when_horizon_too_short(tmp_path, capsys):
    # settling takes ~5 s here, so a 6 s run leaves no clean 5 s tail
    path = write_manifest(tmp_path, tiny_manifest_dict(t_end=6.0))
    code = main(["simulate", "--manifest", str(path), "--out", str(tmp_path / "run")])
    assert code == EXIT_FAIL
    assert "result: FAIL" in capsys.readouterr().out


def test_cli_simulate_window_overrun_is_config_error(tmp_path, capsys):
    # a 4 s run cannot contain the 5 s trailing window at all, which is
    # known before the design and the run
    path = write_manifest(tmp_path, tiny_manifest_dict(t_end=4.0))
    out = tmp_path / "run"
    code = main(["simulate", "--manifest", str(path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "trailing window" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_oversized_recording_exits_two(tmp_path, capsys):
    # 1e12 steps of dt 0.001 would record terabytes of states.
    out = tmp_path / "run"
    code = main(["simulate", "--manifest", "noncol-vicsek-n5", "--out", str(out), "--t-end", "1e9"])
    assert code == EXIT_CONFIG
    assert "record_stride" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_oversized_recording_message_stays_short(tmp_path, capsys):
    # About 1e301 samples: the count is printed to three digits, not as a
    # 301-digit integer.
    out = tmp_path / "run"
    code = main(["simulate", "--manifest", "col-vicsek-n5", "--out", str(out), "--dt", "1e-300"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "record_stride" in err and len(err) < 300
    assert not out.exists()


def test_cli_simulate_record_beyond_memory_exits_two(tmp_path, capsys, monkeypatch):
    # Physical memory for four times the recorded x block, less than the
    # whole record: exit 2 before the output directory exists.
    path = write_manifest(tmp_path, tiny_manifest_dict())
    manifest = load_manifest(path)
    samples = int(round(manifest.t_end / manifest.dt)) // manifest.record_stride + 1
    x_block = 8 * samples * manifest.graph.n_nodes * manifest.model.n
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 4 * x_block}.__getitem__)
    out = tmp_path / "run"
    code = main(["simulate", "--manifest", str(path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "physical memory; raise record_stride" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_blowup_exits_one(tmp_path, capsys):
    data = tiny_manifest_dict(dt=10.0, t_end=1300.0, record_stride=1)
    path = write_manifest(tmp_path, data)
    code = main(["simulate", "--manifest", str(path), "--out", str(tmp_path / "run")])
    assert code == EXIT_FAIL
    assert "simulation blew up" in capsys.readouterr().err
    # the design was fine, so its artifact is still written
    assert (tmp_path / "run" / "design.json").is_file()


def test_cli_simulate_names_an_unsolvable_palpha_cell(tmp_path, capsys):
    # No P_alpha cell near alpha = 1e43 of this model has a stabilizing
    # solution: the run exits 2 with the cell of alpha0 and its alpha,
    # after design.json.
    manifest = load_bundled_manifest("col-vicsek-n25")
    path = write_manifest(tmp_path, dict(manifest.raw, alpha0=1e43))
    code = main(["simulate", "--manifest", str(path), "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG
    grid = build_design(manifest).grid
    k = grid.index_for(1e43)
    assert f"error: P_alpha cell {k} (alpha {grid.alpha_at(k):.6g}) has no solution" in capsys.readouterr().err
    assert (tmp_path / "run" / "design.json").is_file()


def test_cli_simulate_overrides_seed_dt_tend(tmp_path):
    path = write_manifest(tmp_path, tiny_manifest_dict())
    code = main(
        [
            "simulate",
            "--manifest",
            str(path),
            "--out",
            str(tmp_path / "run"),
            "--seed",
            "3",
            "--dt",
            "0.02",
            "--t-end",
            "14.0",
        ]
    )
    assert code == EXIT_PASS
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    design = json.loads((tmp_path / "run" / "design.json").read_text())
    # the echoed manifest keeps the file values; the run itself used the flags
    assert design["manifest"]["t_end"] == 12.0
    assert summary["samples"] == 14.0 / 0.02 / 5 + 1


def test_cli_graph_stdout_and_file(tmp_path, capsys):
    code = main(["graph", "--manifest", "noncol-vicsek-n5"])
    assert code == EXIT_PASS
    text = capsys.readouterr().out
    assert text.startswith("nodes 5")
    assert len(text.strip().splitlines()) == 1 + 4  # header + edges

    code = main(["graph", "--manifest", "noncol-vicsek-n5", "--out", str(tmp_path)])
    assert code == EXIT_PASS
    assert (tmp_path / "graph.txt").read_text() == text


def test_cli_verify_writes_report(tmp_path, capsys):
    code = main(["verify", "--out", str(tmp_path)])
    assert code == EXIT_PASS
    report = (tmp_path / "report.txt").read_text()
    assert "verification suite (seed=0)" in report
    assert "overall: PASS" in report
    assert capsys.readouterr().out.count("PASS") >= 5


def test_cli_verify_negative_seed_names_the_flag(tmp_path, capsys):
    code = main(["verify", "--seed", "-1", "--out", str(tmp_path / "verify")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --seed: 'seed' must be an integer of at least 0, got -1\n"
    assert not (tmp_path / "verify").exists()


def test_importing_cli_leaves_the_verification_suite_unloaded():
    # A fresh interpreter, so that no other test has imported the suite.
    src = str(Path(graphs.__file__).resolve().parents[1])
    code = "import sys, cohsync.cli; print('cohsync.verification' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_out_dir_precedence(tmp_path, monkeypatch):
    assert _default_out_dir("x", explicit=tmp_path / "e", manifest_dir="m") == tmp_path / "e"
    assert _default_out_dir("x", explicit=None, manifest_dir="m") == Path("m")
    monkeypatch.setenv(OUT_ROOT_ENV, str(tmp_path / "root"))
    assert _default_out_dir("x", None, None) == tmp_path / "root" / "x"
    monkeypatch.delenv(OUT_ROOT_ENV)
    assert _default_out_dir("x", None, None) == Path("cohsync-out") / "x"


def test_out_root_env_used_by_simulate(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_ROOT_ENV, str(tmp_path / "envroot"))
    path = write_manifest(tmp_path, tiny_manifest_dict())
    code = main(["simulate", "--manifest", str(path)])
    assert code == EXIT_PASS
    assert (tmp_path / "envroot" / "tiny" / "summary.json").is_file()


# ---------------------------------------------------------------------------
# fuzzed manifests: every malformed one is a configuration error

_NOT_NUMBERS = st.sampled_from([None, True, False, "", "1", [], [1.0], {}, {"x": 1}])
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_NEGATIVE = st.one_of(
    st.integers(max_value=-1), st.floats(max_value=-1e-6, allow_nan=False, allow_infinity=False)
)
_NOT_COUNTS = st.one_of(_NOT_NUMBERS, _NON_FINITE, _NEGATIVE, st.floats(0.1, 0.9), st.floats(1.1, 1.9))
_NOT_REALS = st.one_of(_NOT_NUMBERS, _NON_FINITE, _NEGATIVE, st.just(10**400))  # beyond any float
_NOT_POSITIVE = st.one_of(_NOT_REALS, st.sampled_from([0, 0.0]))
_NOT_LISTS = st.one_of(
    _NOT_NUMBERS.filter(lambda v: not isinstance(v, list)), st.lists(_NOT_COUNTS, min_size=1, max_size=3)
)
_NOT_OBJECTS = st.sampled_from([3, "x", [1, 2], True])
_NOT_STRINGS = st.sampled_from([3, 2.5, [1, 2], True, {}])
_NOT_MATRICES = st.one_of(
    _NOT_OBJECTS,
    st.sampled_from([[[1.0, "x"]], [[1.0], [1.0, 2.0]], [[float("nan")]], [[float("inf"), 0.0]], [], {}]),
)
# Bad disturbance table columns, against times [0, 20] and values [0, 0.1].
_NOT_TABLES = st.sampled_from(
    [None, "x", {}, [], [0.0, "x"], [0.0, float("nan")], [float("-inf"), 20.0], [0.0, 20.0, 30.0]]
)


def _not_one_of(*valid):
    return st.one_of(_NOT_STRINGS, st.none(), st.text(max_size=10)).filter(lambda v: v not in valid)


# (where, key, graph to start from, bad values); where is None for top-level keys.
_MUTATIONS = [
    (None, "delta", None, _NOT_POSITIVE.filter(lambda v: v is not None)),  # null: no delta
    (None, "d", None, _NOT_POSITIVE),
    (None, "dt", None, _NOT_POSITIVE),
    (None, "t_end", None, _NOT_POSITIVE),
    (None, "rho0", None, _NOT_REALS),
    (None, "alpha0", None, _NOT_REALS),
    (None, "seed", None, _NOT_COUNTS),
    (None, "record_stride", None, st.one_of(_NOT_COUNTS, st.just(0))),
    (None, "name", None, st.one_of(_NOT_STRINGS, st.sampled_from([None, "", "  "]))),
    (None, "protocol", None, _not_one_of("noncollaborative", "collaborative")),
    (None, "model", None, st.one_of(_NOT_OBJECTS, st.none())),
    (None, "graph", None, st.one_of(_NOT_OBJECTS, st.none())),
    (None, "disturbance", None, _NOT_OBJECTS),
    (None, "overrides", None, _NOT_OBJECTS),
    (None, "out_dir", None, _NOT_STRINGS),
    ("model", "A", None, st.one_of(_NOT_MATRICES, st.none())),
    ("model", "B", None, st.one_of(_NOT_MATRICES, st.none())),
    ("model", "C", None, st.one_of(_NOT_MATRICES, st.none())),
    ("model", "E", None, _NOT_MATRICES),
    ("graph", "generation", {"generator": "vicsek"}, st.one_of(_NOT_COUNTS, st.integers(4, 10))),
    ("graph", "directed", {"generator": "vicsek"}, _not_one_of(True, False)),
    ("graph", "n_nodes", {"generator": "circulant", "n_nodes": 6}, _NOT_COUNTS),
    ("graph", "offsets", {"generator": "circulant", "n_nodes": 6}, _NOT_LISTS),
    ("graph", "component_sizes", {"generator": "disconnected"}, _NOT_LISTS),
    ("graph", "seed", {"generator": "disconnected", "component_sizes": [3, 3]}, _NOT_COUNTS),
    ("graph", "generator", {}, _not_one_of("vicsek", "circulant", "disconnected")),
    ("disturbance", "kind", None, _not_one_of("zero", "chirp", "sawtooth", "table")),
    ("disturbance", "width", None, st.one_of(_NOT_COUNTS, st.integers(2, 5))),
    ("disturbance", "times", None, _NOT_TABLES),
    ("disturbance", "values", None, _NOT_TABLES),
]


# The fields each object of malformed_manifests' base manifest may hold;
# None stands for the top level.
_KNOWN_FIELDS = {
    None: _TOP_KEYS,
    "model": {"A", "B", "C", "E"},
    "graph": {"generator", "generation", "directed"},
    "disturbance": {"kind", "width", "times", "values"},
}


@st.composite
def malformed_manifests(draw):
    """A small valid collaborative manifest with one key made bad or one
    unknown key added, at the top level or to a nested object."""
    table = {"kind": "table", "width": 1, "times": [0.0, 20.0], "values": [0.0, 0.1]}
    data = tiny_collab_dict(disturbance=table)
    if draw(st.booleans()):
        where = draw(st.sampled_from(list(_KNOWN_FIELDS)))
        key = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in _KNOWN_FIELDS[where]))
        (data if where is None else data[where])[key] = draw(st.one_of(_NOT_OBJECTS, _NOT_NUMBERS))
        return data
    where, key, graph, bad = draw(st.sampled_from(_MUTATIONS))
    if graph is not None:
        data["graph"] = dict(graph)
    (data if where is None else data[where])[key] = draw(bad)
    return data


@settings(max_examples=200, deadline=1000, suppress_health_check=[HealthCheck.too_slow])
@given(malformed_manifests())
def test_malformed_manifests_exit_two_without_traceback(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(data))  # json writes NaN and Infinity literals
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--manifest", str(path), "--out", str(Path(tmp) / "run")])
    assert code == EXIT_CONFIG, data
    assert err.getvalue().startswith("error: ")
