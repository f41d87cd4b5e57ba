"""Benchmark of the cohsync toolkit, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small-networks --seed 1 --seconds 30 --trace 0

One process, one client, one operation at a time (a closed loop).  The run
repeats whole rounds of the workload's operations, round-robin, until
--seconds have passed, checks every output, and prints as its last line a
JSON object with correct / attempted / failed / metrics.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 every other round is
traced and the metrics are the per-layer ones.  See README.md.
"""

import os

# BLAS threads are fixed before numpy is first imported, here and in the
# import-timing subprocesses, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("small-networks", "large-network", "design-sweep")
MODULES = ("cli", "graphs", "agents", "noncollab", "collab", "linalg", "simulate", "verification")
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
MIN_ROUNDS = 3  # byte-identity needs two rounds; medians need a few
TRACE_MIN_ROUNDS = 4  # at least two untraced and two traced rounds
LOOP_DEADLINE_S = 140.0  # no round starts if it could end after this
MIB = 1024.0 * 1024.0

# Median time of ReferenceKernel on the build host (see README.md).  Every
# reported time is the measured time divided by the reference kernel's
# time around it, times this constant: the host switches between a fast
# and a ~1.7x slower state for seconds to tens of seconds, and the ratio
# cancels that while a change in cohsync's speed still moves it in full.
REFERENCE_S = 0.040


class ReferenceKernel:
    """A fixed loop of small numpy calls plus dense 800 x 800 products.

    The two halves resemble the two kinds of work in cohsync: per-call
    overhead on tiny arrays (the RK4 step at small N, the designs) and
    dense Laplacian products (the large network).  It runs no cohsync code,
    so no change to the program moves it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.X0 = rng.standard_normal((25, 6))
        self.M = 0.1 * rng.standard_normal((6, 6))
        self.D = rng.standard_normal((800, 800)) / 800.0
        self.Y0 = rng.standard_normal((800, 3))

    def __call__(self, steps=800, products=20):
        t0 = time.perf_counter()
        X = self.X0.copy()
        for _ in range(steps):
            Y = X @ self.M
            s = np.einsum("ij,ij->i", Y, Y)
            X = np.hstack([X[:, :3] + 1e-3 * Y[:, :3], np.where(s[:, None] > 1e9, 0.0, X[:, 3:])])
        Y = self.Y0.copy()
        for _ in range(products):
            Y = Y + 1e-3 * (self.D @ Y)
        return time.perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def setup_median(reference, timed_call):
    """(median normalized seconds, last value) over SETUP_REPEATS calls of timed_call.

    timed_call returns (seconds, value); each time is normalized by the
    reference kernel timed right before and right after it.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        ref0 = reference()
        seconds, value = timed_call()
        times.append(seconds * REFERENCE_S / (0.5 * (ref0 + reference())))
    return statistics.median(times), value


def measure_import():
    """Median normalized time of `import cohsync.cli` over IMPORT_REPEATS fresh interpreters.

    numpy and scipy.linalg are imported first and not timed: they take about
    0.4 s whatever cohsync does, and that time drifted by 17 % between two
    sets of ten runs, more than cohsync's own import of about 0.06 s.  Each
    interpreter times the reference kernel itself, right before and after
    the import: it may run on the other vCPU, whose fast and slow states
    come and go independently of this one's.
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:3]; import numpy, scipy.linalg; "
        "from run import REFERENCE_S, ReferenceKernel; ref = ReferenceKernel(); ref(); r0 = ref(); "
        "t = time.perf_counter(); import cohsync.cli; t = time.perf_counter() - t; "
        "print(t * REFERENCE_S / (0.5 * (r0 + ref())))"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(HERE)], capture_output=True, text=True, timeout=60, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Context:
    """What operations reach the program through: its modules and the tracer around them."""

    def __init__(self):
        import importlib

        import tracing

        self._modules = {name: importlib.import_module(f"cohsync.{name}") for name in MODULES}
        self.cli = self._modules["cli"]
        self.tracer = tracing.Tracer()
        self.tracer.install(core=True)

    def modules(self, *names):
        return tuple(self._modules[n] for n in names)


def pass_total(samples, key, traced=False):
    """Sum over operations of each operation's median normalized time."""
    total = 0.0
    for rows in samples.values():
        vals = [m[key] * REFERENCE_S / m["ref"] for m in rows if key in m and m["traced"] == traced]
        if vals:
            total += statistics.median(vals)
    return total


def first_pass(samples, key, reduce=sum):
    vals = [rows[0][key] for rows in samples.values() if key in rows[0]]
    return reduce(vals) if vals else 0


def end_to_end(workload, samples, import_s, generate_s):
    if workload == "design-sweep":
        setup_s = import_s + generate_s
    else:
        setup_s = import_s + pass_total(samples, "setup")
    return {
        "wall_s": (pass_total(samples, "total"), "s"),
        "agent_steps_per_s": (first_pass(samples, "agent_steps") / pass_total(samples, "simulate"), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_totals(tracer, samples):
    """{op: {round: {span name: [normalized seconds, calls, max bytes]}}} over traced rounds."""
    refs = {(m["round"], name): m["ref"] for name, rows in samples.items() for m in rows if m["traced"]}
    out = {}
    for _sid, _parent, op, name, start, end, nbytes in tracer.spans:
        if op is None or tuple(op) not in refs:
            continue
        rnd, op_name = op
        slot = out.setdefault(op_name, {}).setdefault(rnd, {}).setdefault(name, [0.0, 0, 0])
        slot[0] += (end - start) * REFERENCE_S / refs[(rnd, op_name)]
        slot[1] += 1
        slot[2] = max(slot[2], nbytes or 0)
    return out


def per_layer(samples, tracer):
    totals = layer_totals(tracer, samples)

    def seconds(*names):
        """Per pass: each operation's median over traced rounds, summed."""
        return sum(
            statistics.median(sum(r.get(n, [0.0])[0] for n in names) for r in rounds.values())
            for rounds in totals.values()
        )

    def calls(name):
        return sum(next(iter(rounds.values())).get(name, [0, 0])[1] for rounds in totals.values())

    def max_bytes(name):
        return max((r.get(name, [0, 0, 0])[2] for rounds in totals.values() for r in rounds.values()), default=0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    cells = first_pass(samples, "palpha_cells")
    used = [(rows[0]["palpha_used"], rows[0]["palpha_cells"]) for rows in samples.values() if "palpha_used" in rows[0]]
    lyapunov = "linalg.solve_lyapunov"
    care = "linalg.solve_care"
    # name: (value, unit, traced names it needs)
    metrics = {
        "cli.load_s": (seconds("cli.load_manifest"), "s", ["cli.load_manifest"]),
        "graphs.laplacian_s": (seconds("graphs.laplacian"), "s", ["graphs.laplacian"]),
        "graphs.laplacian_mb": (max_bytes("graphs.laplacian") / MIB, "MB", ["graphs.laplacian"]),
        "graphs.components_s": (
            seconds("graphs.weakly_connected_components"),
            "s",
            ["graphs.weakly_connected_components"],
        ),
        "agents.assumptions_s": (seconds("agents.check_assumptions"), "s", ["agents.check_assumptions"]),
        "agents.transform_s": (seconds("agents.build_output_transform"), "s", ["agents.build_output_transform"]),
        "noncollab.design_s": (seconds("noncollab.design_noncollab"), "s", ["noncollab.design_noncollab"]),
        "collab.design_s": (seconds("collab.design_collab"), "s", ["collab.design_collab"]),
        "collab.eta_trials": (calls("collab.eta_trial"), "count", ["collab.eta_trial"]),
        "collab.palpha_cells": (cells, "count", []),
        "collab.palpha_used_ratio": (ratio(sum(u for u, _ in used), sum(c for _, c in used)), "ratio", []),
        "collab.palpha_cell_ms": (ratio(seconds("collab.PAlphaGrid.cell"), cells, 1e3), "ms", ["collab.PAlphaGrid.cell"]),
        "linalg.lyapunov_calls": (calls(lyapunov), "count", [lyapunov]),
        "linalg.lyapunov_us": (ratio(seconds(lyapunov), calls(lyapunov), 1e6), "us", [lyapunov]),
        "linalg.care_calls": (calls(care), "count", [care]),
        "linalg.care_ms": (ratio(seconds(care), calls(care), 1e3), "ms", [care]),
        "simulate.step_us": (
            ratio(seconds("simulate.simulate"), first_pass(samples, "steps"), 1e6),
            "us",
            ["simulate.simulate"],
        ),
        "simulate.record_mb": (first_pass(samples, "record_bytes", max) / MIB, "MB", ["simulate.simulate"]),
        "simulate.csv_s": (seconds("simulate.write_trajectory_csv"), "s", ["simulate.write_trajectory_csv"]),
        "simulate.csv_mb": (first_pass(samples, "csv_bytes") / MIB, "MB", ["simulate.write_trajectory_csv"]),
        "simulate.summary_s": (
            seconds("simulate.settling_report", "simulate.gain_flatness"),
            "s",
            ["simulate.settling_report", "simulate.gain_flatness"],
        ),
        "verification.suite_s": (seconds("verification.run_suite"), "s", ["verification.run_suite"]),
        "trace.overhead_s": (pass_total(samples, "total", traced=True) - pass_total(samples, "total"), "s", []),
    }
    gone = [k for k, (_, _, needs) in metrics.items() if set(tracer.absent).intersection(needs)]
    if gone:
        print(f"absent (a traced name no longer exists): {', '.join(gone)}")
    return {k: (v, unit) for k, (v, unit, _) in metrics.items() if k not in gone}


def run(args):
    if not (SRC / "cohsync" / "__init__.py").is_file():
        print(f"error: no cohsync sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    OUT.mkdir(exist_ok=True)
    reference = ReferenceKernel()
    reference()  # the first call pays the page faults of the dense matrix
    import_s = measure_import()
    cb = Context()
    out_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"

    def generate():
        t0 = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, ROOT, out_dir, cb)
        return time.perf_counter() - t0, ops

    generate_s, ops = setup_median(reference, generate)
    tracer = cb.tracer
    min_rounds = TRACE_MIN_ROUNDS if args.trace else MIN_ROUNDS

    samples = {op.name: [] for op in ops}
    attempted = failed = 0
    correct = True
    rounds = 0
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        traced = args.trace == 1 and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in ops:
                attempted += 1
                ref0 = reference()
                tracer.op = [rounds, op.name]
                try:
                    m, design = op.run(cb)
                except Exception:
                    failed += 1
                    correct = False
                    print(f"round {rounds} {op.name}: the program raised", file=sys.stderr)
                    traceback.print_exc()
                    continue
                finally:
                    tracer.op = None
                m.update(ref=0.5 * (ref0 + reference()), traced=traced, round=rounds)
                # The operation ran to its end, so its times count whatever
                # the checks find: the pass measures the same work before
                # and after a fault is mended.
                samples[op.name].append(m)
                try:
                    op.check(design)
                except checks.ObserverNotHurwitz as exc:
                    # A known fault of the program (README.md) on an input
                    # that fails in every round on every seed: counted in
                    # failed; correct speaks of the operations that did not fail.
                    failed += 1
                    print(f"round {rounds} {op.name}: check failed (known fault): {exc}", file=sys.stderr)
                except checks.CheckFailed as exc:
                    failed += 1
                    correct = False
                    print(f"round {rounds} {op.name}: check failed: {exc}", file=sys.stderr)
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and (
            now - t_start >= args.seconds or now - t_start + (now - t_round) > LOOP_DEADLINE_S
        ):
            break
    tracer.results.clear()
    shutil.rmtree(out_dir, ignore_errors=True)

    # Raw figures for reference; the metrics are the normalized ones.
    for name, rows in samples.items():
        totals = [m["total"] for m in rows if not m["traced"]]
        refs = [m["ref"] for m in rows if not m["traced"]]
        if totals:
            print(
                f"{name}: {len(totals)} untraced rounds, raw total s min {min(totals):.4f} "
                f"median {statistics.median(totals):.4f} max {max(totals):.4f}, "
                f"reference kernel median {statistics.median(refs):.5f} s, "
                f"normalized median {pass_total({name: rows}, 'total'):.4f} s"
            )
    print(f"rounds {rounds}, loop {time.perf_counter() - t_start:.2f} s, normalized import {import_s:.4f} s")

    samples = {name: rows for name, rows in samples.items() if rows}
    metrics = {}
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"spans written: {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        if samples:
            metrics = per_layer(samples, tracer)
    elif samples:
        metrics = end_to_end(args.workload, samples, import_s, generate_s)
    result = {
        "correct": correct and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
