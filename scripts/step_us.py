"""Per-step and per-recorded-sample time of simulate for both protocols.

The graph is a directed circulant with offsets (1, 2) of each size in
SIZES; each protocol runs the design of its bundled n25 manifest (chirp
disturbance, rho0 and alpha0 as bundled) for STEPS steps of dt.  A step's
figure is the minimum over REPEATS runs of the run's wall time divided by
its steps, in microseconds, for a run that records only its two ends.  A
recorded sample's figure, at RECORD_AGENTS agents, is the minimum time
over RECORD_REPEATS runs that record every step less that of as many runs
recording only the ends, divided by the STEPS - 1 samples more.  Set
OPENBLAS_NUM_THREADS=1 for figures comparable across hosts.

    PYTHONPATH=src python3 scripts/step_us.py
"""

import json
import time

from cohsync.cli import build_design, load_bundled_manifest
from cohsync.graphs import generate_circulant
from cohsync.simulate import SimConfig, simulate

SIZES = (5, 6, 25, 121, 800, 3000)  # 6: the design sweep's closed-loop runs
RECORD_AGENTS = 25
STEPS = 200
REPEATS = 3
RECORD_REPEATS = 7
PROTOCOLS = (("noncollaborative", "noncol-vicsek-n25"), ("collaborative", "col-vicsek-n25"))


def run_seconds(manifest, design, n_agents, stride):
    """The wall time of one run of STEPS steps, in seconds."""
    config = SimConfig(
        model=manifest.model,
        graph=generate_circulant(n_agents, (1, 2), directed=True),
        design=design,
        disturbance=manifest.disturbance,
        dt=manifest.dt,
        t_end=STEPS * manifest.dt,
        record_stride=stride,
        initial_rho=manifest.rho0,
        initial_alpha=manifest.alpha0,
    )
    t = time.perf_counter()
    simulate(config)
    return time.perf_counter() - t


def main():
    table = {"step_us": {}, f"record_us_n{RECORD_AGENTS}": {}}
    for protocol, name in PROTOCOLS:
        manifest = load_bundled_manifest(name)
        design = build_design(manifest)
        step = {n: min(run_seconds(manifest, design, n, STEPS) for _ in range(REPEATS)) for n in SIZES}
        table["step_us"][protocol] = {str(n): round(1e6 * s / STEPS, 1) for n, s in step.items()}
        ends, every = [], []
        for _ in range(RECORD_REPEATS):  # alternating, so that both see the host alike
            ends.append(run_seconds(manifest, design, RECORD_AGENTS, STEPS))
            every.append(run_seconds(manifest, design, RECORD_AGENTS, 1))
        table[f"record_us_n{RECORD_AGENTS}"][protocol] = round(1e6 * (min(every) - min(ends)) / (STEPS - 1), 1)
    print(json.dumps(table, indent=1))


if __name__ == "__main__":
    main()
