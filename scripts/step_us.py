"""Per-step and per-recorded-sample time of simulate for both protocols,
the time of one call of the collaborative law, and the time of the
artifact layer.

The graph is a directed circulant with offsets (1, 2) of each size in
SIZES; each row of ROWS runs the design of a bundled n25 manifest (chirp
disturbance, rho0 and alpha0 as bundled) for STEPS steps of dt, from the
run's own seeded initial states scaled by the row's factor.  At factor 1
the collaborative gains adapt on nearly every step; at FROZEN_SCALE both
stay at their initial values, which the script asserts for alpha (the
gains never decrease, so equal ends mean a constant alpha), and the row
times the collaborative law with frozen gains.  A step's
figure is the minimum over REPEATS runs of the run's wall time divided by
its steps, in microseconds, for a run that records only its two ends.  A
recorded sample's figure, at RECORD_AGENTS agents, is the minimum time
over RECORD_REPEATS runs that record every step less that of as many runs
recording only the ends, divided by the STEPS - 1 samples more.

The collaborative law alone is timed at each size in LAW_SIZES: the
rates of the law that simulate bound to the workspace of a run of
LAW_RUN, called LAW_CALLS times on the workspace as the run's last stage
left it, with the RK4 stage index cycling 0..3.  "alpha frozen" keeps the
alpha column, so every call reuses the gathered gain rows; "alpha moving"
writes, before each call, the column or its next float up in turn, so
every call gathers and lays out the rows again (the write of the column is
timed with it).  A call's figure is the minimum over REPEATS rounds of the
round's time divided by LAW_CALLS, in microseconds.

The artifact layer is timed on one collaborative run of ARTIFACT_RUN at
each size in ARTIFACT_SIZES: write_trajectory_csv in nanoseconds per
field of the file, and cli.agent_summaries (settling, gain flatness and
the maxima after settling of every agent) in milliseconds, each the
minimum over REPEATS calls.

Every minimum is normalized as perfbench does: divided by the mean time
of its reference kernel (perfbench/run.py's ReferenceKernel, which runs
no cohsync code) right before and right after the repeats it is taken
over, times REFERENCE_S, so that the host's switches between a fast and
a ~1.7x slower state cancel.  The kernel is not run between repeats: its
800 x 800 products would leave every timed call a cold cache.  Importing
perfbench/run.py also fixes BLAS at one thread, before numpy is imported.

    PYTHONPATH=src python3 scripts/step_us.py
"""

import json
import math
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import REFERENCE_S, ReferenceKernel  # noqa: E402

import numpy as np  # noqa: E402

from cohsync.cli import agent_summaries, build_design, load_bundled_manifest  # noqa: E402
from cohsync.graphs import generate_circulant  # noqa: E402
from cohsync.simulate import SimConfig, simulate, write_trajectory_csv  # noqa: E402

SIZES = (5, 6, 25, 121, 800, 3000)  # 6: the design sweep's closed-loop runs
RECORD_AGENTS = 25
STEPS = 200
REPEATS = 3
RECORD_REPEATS = 7
FROZEN_SCALE = 0.1
ROWS = (
    ("noncollaborative", "noncol-vicsek-n25", 1.0),
    ("collaborative, adapting", "col-vicsek-n25", 1.0),
    ("collaborative, frozen", "col-vicsek-n25", FROZEN_SCALE),
)
LAW_SIZES = (5, 25, 121, 800, 3000)
LAW_RUN = "col-vicsek-n25"
LAW_CALLS = 200
ARTIFACT_SIZES = (25, 800)
ARTIFACT_RUN = ("col-vicsek-n25", {"t_end": 6.0, "dt": 0.01, "record_stride": 2})  # 301 samples

REFERENCE = ReferenceKernel()


def normalized_min(calls, repeats):
    """Each call's minimum wall time over repeats rounds of the calls, in
    seconds, normalized by the reference kernel around the rounds."""
    before = REFERENCE()
    best = [math.inf] * len(calls)
    for _ in range(repeats):
        for j, call in enumerate(calls):
            t = time.perf_counter()
            call()
            best[j] = min(best[j], time.perf_counter() - t)
    scale = REFERENCE_S / (0.5 * (before + REFERENCE()))
    return [seconds * scale for seconds in best]


def config(manifest, design, n_agents, scale=1.0, **changes):
    settings = dict(dt=manifest.dt, t_end=STEPS * manifest.dt, record_stride=STEPS)
    settings.update(changes)
    if scale != 1.0:
        start = config(manifest, design, n_agents, t_end=manifest.dt)
        settings["initial_states"] = scale * simulate(start).states[0]
    return SimConfig(
        model=manifest.model,
        graph=generate_circulant(n_agents, (1, 2), directed=True),
        design=design,
        disturbance=manifest.disturbance,
        initial_rho=manifest.rho0,
        initial_alpha=manifest.alpha0,
        **settings,
    )


def bound_rates(run):
    """(rates, PS) of the law simulate binds to the workspace of run's
    stage, after the run."""
    design, bound = run.design, []

    def law(PS, F, outs):
        rates, signals = type(design).law(design, PS, F, outs)
        bound.append((rates, PS))
        return rates, signals

    object.__setattr__(design, "law", law)  # a frozen dataclass
    try:
        simulate(run)
    finally:
        object.__delattr__(design, "law")
    (rates_ps,) = bound  # one component, one binding
    return rates_ps


def law_layer():
    """{alpha case: {agents: us per rates call}} for LAW_RUN."""
    manifest = load_bundled_manifest(LAW_RUN)
    design = build_design(manifest)
    figures = {"alpha frozen": {}, "alpha moving": {}}
    for n in LAW_SIZES:
        rates, PS = bound_rates(config(manifest, design, n))
        AL = PS[:, -1]
        columns = (AL.copy(), np.nextafter(AL, np.inf))

        def frozen():
            for k in range(LAW_CALLS):
                rates(k % 4)

        def moving():
            for k in range(LAW_CALLS):
                AL[...] = columns[k % 2]
                rates(k % 4)

        for case, calls_s in zip(figures, normalized_min([frozen, moving], REPEATS)):
            figures[case][str(n)] = round(1e6 * calls_s / LAW_CALLS, 2)
    return figures


def artifact_layer():
    """{agents: (CSV ns per field, summary ms)} for ARTIFACT_RUN."""
    name, changes = ARTIFACT_RUN
    manifest = load_bundled_manifest(name)
    design = build_design(manifest)
    threshold = 2.0 * float(design.d)
    figures = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        for n in ARTIFACT_SIZES:
            run = simulate(config(manifest, design, n, **changes))
            csv_s, summary_s = normalized_min(
                [lambda: write_trajectory_csv(run, path), lambda: agent_summaries(run, threshold)], REPEATS
            )
            with open(path) as fh:
                fields = run.times.shape[0] * n * len(fh.readline().split(","))
            figures[str(n)] = (round(1e9 * csv_s / fields, 1), round(1e3 * summary_s, 2))
    return figures


def main():
    REFERENCE()  # warm up
    table = {"step_us": {}, f"record_us_n{RECORD_AGENTS}": {}}
    for label, name, scale in ROWS:
        manifest = load_bundled_manifest(name)
        design = build_design(manifest)
        step = {}
        for n in SIZES:
            run = config(manifest, design, n, scale)
            if scale == FROZEN_SCALE:
                alpha = simulate(run).alpha
                assert np.array_equal(alpha[0], alpha[-1]), f"alpha moved at N = {n}"
            (step[n],) = normalized_min([lambda: simulate(run)], REPEATS)
        table["step_us"][label] = {str(n): round(1e6 * s / STEPS, 1) for n, s in step.items()}
        ends = config(manifest, design, RECORD_AGENTS, scale)
        every = config(manifest, design, RECORD_AGENTS, scale, record_stride=1)
        # alternating, so that both see the host alike
        ends_s, every_s = normalized_min([lambda: simulate(ends), lambda: simulate(every)], RECORD_REPEATS)
        table[f"record_us_n{RECORD_AGENTS}"][label] = round(1e6 * (every_s - ends_s) / (STEPS - 1), 1)
    table["collab_law_us"] = law_layer()
    layer = artifact_layer()
    table["csv_ns_per_field"] = {n: csv for n, (csv, _) in layer.items()}
    table["summary_ms"] = {n: summary for n, (_, summary) in layer.items()}
    print(json.dumps(table, indent=1))


if __name__ == "__main__":
    main()
