"""Manifest-driven command line harness.

A manifest is a JSON file naming a model, a graph, a protocol and its
threshold, a disturbance, and integration settings.  Running one produces
three artifacts in an output directory: design.json (every designed
constant, numerics echoed bit-exactly), trajectory.csv (the recorded run)
and summary.json (per-agent settling and gain-flatness verdicts).  The
bundled manifests under cohsync/manifests cover both protocols on the
fractal, circulant and disconnected benchmark networks.

Exit codes are a stable contract: 0 all checks passed, 1 a property
failed (including integration blow-up), 2 the configuration or the design
itself was rejected.
"""

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from operator import attrgetter
from pathlib import Path

import numpy as np

from .agents import AgentModel
from .collab import design_collab
from .graphs import (
    DirectedWeightedGraph,
    format_edge_list,
    generate_circulant,
    generate_disconnected_composite,
    generate_vicsek_fractal,
    read_edge_list,
)
from .linalg import SolverError
from .noncollab import design_noncollab
from .simulate import (
    PROTOCOLS,
    DisturbanceSpec,
    IntegrationBlowup,
    SimConfig,
    SimulationRun,
    check_run,
    gain_flatness,
    settling_metric,
    settling_report,
    simulate,
    write_trajectory_csv,
)

OUT_ROOT_ENV = "COHSYNC_OUT_ROOT"
SETTLING_WINDOW = 5.0
FLATNESS_FRACTION = 0.1
FLATNESS_TOL = 1e-2

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


@dataclass
class ExperimentManifest:
    """Parsed and validated experiment description."""

    name: str
    protocol: str
    model: AgentModel
    graph: DirectedWeightedGraph
    delta: float | None
    d: float | None
    disturbance: DisturbanceSpec
    dt: float
    t_end: float
    seed: int
    record_stride: int
    rho0: float
    alpha0: float
    overrides: dict
    out_dir: str | None
    raw: dict


_TOP_KEYS = {f.name for f in dataclasses.fields(ExperimentManifest)} - {"raw"}
# The fields of each graph generator.
_GRAPH_KEYS = {
    "vicsek": ("generator", "generation", "directed"),
    "circulant": ("generator", "n_nodes", "offsets", "directed"),
    "disconnected": ("generator", "component_sizes", "seed"),
}


def _known_fields(spec: dict, allowed, where: str) -> None:
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ValueError(f"{where}: unknown fields {unknown}")


def _as_integer(value, minimum: int):
    """value as an int of at least minimum, or None; json writes 3 as 3.0
    at times, but a bool is no count."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool) and value >= minimum:
        return value
    return None


def _integer(data, key, context, default, minimum: int) -> int:
    value = data.get(key, default)
    count = _as_integer(value, minimum)
    if count is None:
        raise ValueError(f"{context}: '{key}' must be an integer of at least {minimum}, got {value!r}")
    return count


def _integers(data, key, context, default, minimum: int) -> tuple[int, ...]:
    values = data.get(key, default)
    counts = [_as_integer(v, minimum) for v in values] if isinstance(values, list | tuple) else [None]
    if None in counts:
        raise ValueError(
            f"{context}: '{key}' must be a list of integers of at least {minimum}, got {values!r}"
        )
    return tuple(counts)


def _real(data, key, context, default, positive: bool) -> float:
    """data[key] as a finite float, positive or nonnegative; json reads
    NaN and Infinity, and integers beyond any float."""
    value = data.get(key, default)
    ok = isinstance(value, int | float) and not isinstance(value, bool)
    if not (ok and (0.0 < value if positive else 0.0 <= value) and value <= sys.float_info.max):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{context}: '{key}' must be {sign} and finite, got {value!r}")
    return float(value)


def _matrix(data, key, context):
    try:
        M = np.array(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{context}: field '{key}' is not a numeric matrix: {exc}") from None
    if M.ndim != 2 or not np.all(np.isfinite(M)):
        raise ValueError(f"{context}: field '{key}' must be a finite 2-D matrix")
    return M


def _model_from_spec(spec, base_dir, context):
    if isinstance(spec, dict) and "file" in spec:
        _known_fields(spec, ("file",), f"{context}: model")
        path = Path(base_dir) / str(spec["file"])
        if not path.is_file():
            raise ValueError(f"{context}: model file not found: {path}")
        with open(path) as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"{context}: 'model' must be an object")
    _known_fields(spec, ("A", "B", "C", "E"), f"{context}: model")
    missing = [k for k in ("A", "B", "C") if k not in spec]
    if missing:
        raise ValueError(f"{context}: model is missing {missing}")
    E = _matrix(spec["E"], "E", context) if spec.get("E") is not None else None
    return AgentModel(
        _matrix(spec["A"], "A", context),
        _matrix(spec["B"], "B", context),
        _matrix(spec["C"], "C", context),
        E,
    )


def _graph_from_spec(spec, base_dir, context):
    if not isinstance(spec, dict):
        raise ValueError(f"{context}: 'graph' must be an object")
    where = f"{context}: graph"
    if "edge_list" in spec:
        _known_fields(spec, ("edge_list",), where)
        path = Path(base_dir) / str(spec["edge_list"])
        if not path.is_file():
            raise ValueError(f"{context}: edge list file not found: {path}")
        return read_edge_list(path.read_text())
    generator = spec.get("generator")
    if generator not in tuple(_GRAPH_KEYS):  # a tuple: a list or an object is unhashable
        raise ValueError(
            f"{context}: graph needs 'edge_list' or a generator in "
            "{'vicsek', 'circulant', 'disconnected'}"
        )
    _known_fields(spec, _GRAPH_KEYS[generator], where)
    directed = spec.get("directed", True)
    if not isinstance(directed, bool):
        raise ValueError(f"{where}: 'directed' must be true or false, got {directed!r}")
    if generator == "vicsek":
        return generate_vicsek_fractal(_integer(spec, "generation", where, 1, 1), directed=directed)
    if generator == "circulant":
        return generate_circulant(
            _integer(spec, "n_nodes", where, None, 1),
            offsets=_integers(spec, "offsets", where, (1, 2), 1),
            directed=directed,
        )
    return generate_disconnected_composite(
        component_sizes=_integers(spec, "component_sizes", where, (8, 8, 8), 2),
        seed=_integer(spec, "seed", where, 0, 0),
    )


def _disturbance_from_spec(spec, context):
    if spec is None:
        return DisturbanceSpec(kind="zero")
    if not isinstance(spec, dict):
        raise ValueError(f"{context}: 'disturbance' must be an object")
    where = f"{context}: disturbance"
    kind = spec.get("kind", "zero")
    _known_fields(spec, ("kind", "width") + (("times", "values") if kind == "table" else ()), where)
    arrays = {}
    for key in ("times", "values"):
        try:
            arrays[key] = np.asarray(spec[key], dtype=float) if key in spec else None
        except (TypeError, ValueError):
            raise ValueError(f"{where}: '{key}' must be numeric, got {spec[key]!r}") from None
    width = _integer(spec, "width", where, 1, 0)
    return DisturbanceSpec(kind=kind, width=width, **arrays)


def manifest_from_dict(data, base_dir=".") -> ExperimentManifest:
    if not isinstance(data, dict):
        raise ValueError("manifest must be a JSON object")
    name = data.get("name", "")
    name = name.strip() if isinstance(name, str) else ""
    context = f"manifest '{name}'" if name else "manifest"
    _known_fields(data, _TOP_KEYS, context)
    if not name:
        raise ValueError("manifest: 'name' is required, a nonempty string")
    protocol, names = data.get("protocol"), tuple(PROTOCOLS)
    if protocol not in names:  # a tuple: a list or an object is unhashable
        raise ValueError(f"{context}: 'protocol' must be one of {names}")
    declared = PROTOCOLS[protocol]
    if "model" not in data or "graph" not in data:
        raise ValueError(f"{context}: 'model' and 'graph' are required")
    delta, d = (
        None if data.get(key) is None else _real(data, key, context, None, True) for key in ("delta", "d")
    )
    if delta is None and d is None:
        raise ValueError(f"{context}: provide 'delta', 'd', or both")
    overrides_spec = data.get("overrides") or {}
    if not isinstance(overrides_spec, dict):
        raise ValueError(f"{context}: 'overrides' must be an object")
    if overrides_spec and not declared.overrides:
        raise ValueError(f"{context}: 'overrides' apply to the noncollaborative design only")
    bad = sorted(set(overrides_spec) - set(declared.overrides))
    if bad:
        raise ValueError(f"{context}: unknown override fields {bad}")
    overrides = {k: _matrix(v, k, context) for k, v in overrides_spec.items()}
    dt, t_end = (_real(data, key, context, value, True) for key, value in (("dt", 1e-3), ("t_end", 30.0)))
    rho0, alpha0 = (_real(data, key, context, 0.0, False) for key in ("rho0", "alpha0"))
    if alpha0 != 0.0 and "alpha" not in declared.gains:
        raise ValueError(f"{context}: 'alpha0' applies to the collaborative protocol only")
    out_dir = data.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ValueError(f"{context}: 'out_dir' must be a string, got {out_dir!r}")
    return ExperimentManifest(
        name=name,
        protocol=protocol,
        model=_model_from_spec(data["model"], base_dir, context),
        graph=_graph_from_spec(data["graph"], base_dir, context),
        delta=delta,
        d=d,
        disturbance=_disturbance_from_spec(data.get("disturbance"), context),
        dt=dt,
        t_end=t_end,
        seed=_integer(data, "seed", context, 0, 0),
        record_stride=_integer(data, "record_stride", context, 1, 1),
        rho0=rho0,
        alpha0=alpha0,
        overrides=overrides,
        out_dir=out_dir,
        raw=data,
    )


def load_manifest(path) -> ExperimentManifest:
    path = Path(path)
    with open(path) as fh:
        data = json.load(fh)
    return manifest_from_dict(data, base_dir=path.parent)


def bundled_manifest_names() -> list[str]:
    root = resources.files("cohsync").joinpath("manifests")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled_manifest(name: str) -> ExperimentManifest:
    entry = resources.files("cohsync").joinpath("manifests").joinpath(f"{name}.json")
    with resources.as_file(entry) as path:
        return load_manifest(path)


def _resolve_manifest(arg: str) -> ExperimentManifest:
    path = Path(arg)
    if path.is_file():
        return load_manifest(path)
    name = arg[: -len(".json")] if arg.endswith(".json") else arg
    if name in bundled_manifest_names():
        return load_bundled_manifest(name)
    raise ValueError(
        f"no manifest file '{arg}' and no bundled manifest of that name; "
        f"bundled: {', '.join(bundled_manifest_names())}"
    )


# ---------------------------------------------------------------------------
# experiment runner


def build_design(manifest: ExperimentManifest):
    design_for = design_noncollab if manifest.protocol == "noncollaborative" else design_collab
    # Each manifest override X is the design function's x_override.
    overrides = {f"{key.lower()}_override": value for key, value in manifest.overrides.items()}
    return design_for(manifest.model, delta=manifest.delta, d_override=manifest.d, **overrides)


def design_payload(manifest: ExperimentManifest, design) -> dict:
    payload = {"name": manifest.name, "protocol": manifest.protocol}
    for path in ("d", "delta") + design.payload:  # arrays as nested lists, scalars as floats
        value = attrgetter(path)(design)
        payload[path.split(".")[-1]] = value.tolist() if isinstance(value, np.ndarray) else float(value)
    payload["manifest"] = manifest.raw
    return payload


@dataclass
class ExperimentResult:
    passed: bool
    out_dir: Path
    summary: dict
    design_path: Path
    trajectory_path: Path
    summary_path: Path


def json_text(payload: dict) -> str:
    """json.dumps(payload, indent=2), byte for byte.

    With indent set, json runs its pure-Python encoder, about 10 ms on an
    800-agent summary.  So when the last key is "agents", a list of dicts
    of scalars that share the first's keys in its order (what
    agent_summaries gives), the array is rendered from one column per key,
    each encoded at once by json's C encoder with a newline between items;
    an encoded scalar never holds a raw newline, so splitting there gives
    each value's text, which the indented form then places.
    """
    keys, agents = list(payload), payload.get("agents")
    if keys[-1:] != ["agents"] or len(keys) < 2 or not agents or not agents[0]:
        return json.dumps(payload, indent=2)
    head = json.dumps({key: payload[key] for key in keys[:-1]}, indent=2)
    fields = []
    for key in agents[0]:
        prefix = f"      {json.dumps(key)}: "
        texts = json.dumps([a[key] for a in agents], separators=("\n", ": "))[1:-1].split("\n")
        fields.append([prefix + text for text in texts])
    body = "\n    },\n    {\n".join(map(",\n".join, zip(*fields)))
    return f'{head[:-2]},\n  "agents": [\n    {{\n{body}\n    }}\n  ]\n}}'


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json_text(payload) + "\n")


def agent_summaries(run: SimulationRun, threshold: float) -> list[dict]:
    """summary.json's verdict of each agent: its settling time at threshold
    over SETTLING_WINDOW, its final gains and their flatness, and its
    maxima after settling, each column from one whole-array reduction."""
    times = settling_report(run, threshold, SETTLING_WINDOW)
    settled = np.array([t is not None for t in times])
    flat = gain_flatness(run, FLATNESS_FRACTION)
    flat_ok = True
    columns = {
        "agent": run.agent_indices.tolist(),
        "settling_time": times,
    }
    for gain, change in flat.items():
        columns[f"final_{gain}"] = getattr(run, gain)[-1].tolist()
        columns[f"{gain}_flatness"] = change.tolist()
        flat_ok &= change < FLATNESS_TOL
    # Each agent's maxima from its settling time on, or over the whole run.
    after = run.times[:, None] >= np.array([run.times[0] if t is None else t for t in times])
    for key, series in (("max_coherency_after_settling", run.coherency_norm), ("max_metric_after_settling", settling_metric(run))):
        columns[key] = np.where(after, series, -np.inf).max(axis=0).tolist()
    columns["pass"] = (settled & flat_ok).tolist()
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def run_experiment(manifest: ExperimentManifest, out_dir) -> ExperimentResult:
    """Design, simulate, and judge one manifest; writes the three artifacts.

    Raises ValueError (check_run, or a run shorter than the settling
    window) before making out_dir, and SolverError from the design phase
    before writing any artifact; a blow-up during integration leaves
    design.json in place: the design was fine, the run was not.
    """
    n_steps = check_run(
        manifest.model,
        manifest.disturbance,
        manifest.dt,
        manifest.t_end,
        manifest.graph.n_nodes,
        manifest.record_stride,
        manifest.protocol,
    )
    if n_steps * manifest.dt < SETTLING_WINDOW:
        raise ValueError(f"trailing window longer than the recorded run, which ends at {n_steps * manifest.dt!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    design = build_design(manifest)
    design_path = out_dir / "design.json"
    _write_json(design_path, design_payload(manifest, design))

    run = simulate(
        SimConfig(
            model=manifest.model,
            graph=manifest.graph,
            design=design,
            disturbance=manifest.disturbance,
            dt=manifest.dt,
            t_end=manifest.t_end,
            seed=manifest.seed,
            record_stride=manifest.record_stride,
            initial_rho=manifest.rho0,
            initial_alpha=manifest.alpha0,
        )
    )
    trajectory_path = out_dir / "trajectory.csv"
    write_trajectory_csv(run, trajectory_path)

    threshold = 2.0 * float(design.d)
    agents = agent_summaries(run, threshold)
    all_pass = all(a["pass"] for a in agents)
    summary = {
        "name": manifest.name,
        "protocol": manifest.protocol,
        "n_agents": run.n_agents,
        "d": float(design.d),
        "delta": float(design.delta),
        "settling_threshold": threshold,
        "trailing_window": SETTLING_WINDOW,
        "flatness_fraction": FLATNESS_FRACTION,
        "flatness_tolerance": FLATNESS_TOL,
        "samples": int(run.times.shape[0]),
        "warnings": list(run.warnings),
        "all_pass": all_pass,
        "agents": agents,
    }
    summary_path = out_dir / "summary.json"
    _write_json(summary_path, summary)
    return ExperimentResult(
        passed=all_pass,
        out_dir=out_dir,
        summary=summary,
        design_path=design_path,
        trajectory_path=trajectory_path,
        summary_path=summary_path,
    )


def _demo_collab_model() -> AgentModel:
    return load_bundled_manifest("col-vicsek-n5").model


def run_verification_suite(seed: int = 0, self_test: bool = False):
    """All theory checks plus solver oracle equivalences; returns (text, ok)."""
    # Imported here, so that the other commands never load the suite.
    from . import verification

    text, ok, _ = verification.run_suite(
        seed=seed, demo_model=_demo_collab_model(), self_test=self_test
    )
    return text, ok


# ---------------------------------------------------------------------------
# argparse plumbing


def _default_out_dir(name: str, explicit=None, manifest_dir=None) -> Path:
    if explicit:
        return Path(explicit)
    if manifest_dir:
        return Path(manifest_dir)
    root = os.environ.get(OUT_ROOT_ENV, "cohsync-out")
    return Path(root) / name


def _apply_cli_overrides(manifest: ExperimentManifest, args) -> ExperimentManifest:
    flags = {"seed": args.seed, "dt": args.dt, "t_end": args.t_end}
    updates = {key: value for key, value in flags.items() if value is not None}
    if "seed" in updates:
        _integer(updates, "seed", "--seed", None, 0)
    for key in ("dt", "t_end"):
        if key in updates:
            _real(updates, key, f"--{key.replace('_', '-')}", None, True)
    return dataclasses.replace(manifest, **updates) if updates else manifest


def _cmd_design(args) -> int:
    manifest = _resolve_manifest(args.manifest)
    design = build_design(manifest)
    out_dir = _default_out_dir(manifest.name, args.out, manifest.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "design.json", design_payload(manifest, design))
    print(f"design written: {out_dir / 'design.json'}")
    print(f"protocol: {manifest.protocol}")
    for label, attr in (("d", "d"), ("delta", "delta")) + design.printed:
        print(f"{label} = {getattr(design, attr)!r}")
    return EXIT_PASS


def _cmd_simulate(args) -> int:
    manifest = _apply_cli_overrides(_resolve_manifest(args.manifest), args)
    result = run_experiment(manifest, _default_out_dir(manifest.name, args.out, manifest.out_dir))
    print(f"design written: {result.design_path}")
    print(f"trajectory written: {result.trajectory_path}")
    print(f"summary written: {result.summary_path}")
    if not result.passed:
        failing = [a["agent"] for a in result.summary["agents"] if not a["pass"]]
        print(f"result: FAIL (agents {failing})")
        return EXIT_FAIL
    print("result: PASS")
    return EXIT_PASS


def _cmd_graph(args) -> int:
    manifest = _resolve_manifest(args.manifest)
    text = format_edge_list(manifest.graph)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "graph.txt").write_text(text)
        print(f"graph written: {out_dir / 'graph.txt'}")
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    seed = _integer(vars(args), "seed", "--seed", 0, 0)
    text, ok = run_verification_suite(seed=seed, self_test=args.self_test)
    out_dir = _default_out_dir("verify", args.out, None)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(text)
    sys.stdout.write(text)
    print(f"report written: {out_dir / 'report.txt'}")
    return EXIT_PASS if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohsync",
        description="Design, simulate and verify adaptive output-synchronization protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_sim_flags=False):
        p.add_argument("--manifest", required=True, help="manifest file or bundled manifest name")
        p.add_argument("--out", default=None, help="output directory")
        if with_sim_flags:
            p.add_argument("--seed", type=int, default=None, help="override manifest seed")
            p.add_argument("--dt", type=float, default=None, help="override integration step")
            p.add_argument("--t-end", type=float, default=None, help="override run length")

    p_design = sub.add_parser("design", help="compute and dump the protocol constants")
    add_common(p_design)
    p_design.set_defaults(func=_cmd_design)

    p_sim = sub.add_parser("simulate", help="run a manifest end to end")
    add_common(p_sim, with_sim_flags=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_graph = sub.add_parser("graph", help="emit the manifest's communication graph")
    add_common(p_graph)
    p_graph.set_defaults(func=_cmd_graph)

    p_verify = sub.add_parser("verify", help="run the theory verification suites")
    p_verify.add_argument("--seed", type=int, default=0, help="suite seed")
    p_verify.add_argument("--out", default=None, help="output directory")
    p_verify.add_argument(
        "--self-test",
        action="store_true",
        help="also run the corrupted-solution negative control",
    )
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command; its exceptions map to exit codes here alone."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IntegrationBlowup as exc:  # a SolverError, so caught first
        print(f"error: simulation blew up: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
