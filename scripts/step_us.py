"""Per-step time of simulate for both protocols on directed circulants.

The graph is a directed circulant with offsets (1, 2) of each size in
SIZES; each protocol runs the design of its bundled n25 manifest (chirp
disturbance, rho0 and alpha0 as bundled) for STEPS steps of dt.  The figure
is the minimum over REPEATS runs of the run's wall time divided by its
steps, in microseconds.  Set OPENBLAS_NUM_THREADS=1 for figures comparable
across hosts.

    PYTHONPATH=src python3 scripts/step_us.py
"""

import json
import time

from cohsync.cli import build_design, load_bundled_manifest
from cohsync.graphs import generate_circulant
from cohsync.simulate import SimConfig, simulate

SIZES = (5, 25, 121, 800, 3000)
STEPS = 200
REPEATS = 3


def step_us(name, n_agents):
    manifest = load_bundled_manifest(name)
    design = build_design(manifest)
    graph = generate_circulant(n_agents, (1, 2), directed=True)
    config = SimConfig(
        model=manifest.model,
        graph=graph,
        design=design,
        disturbance=manifest.disturbance,
        dt=manifest.dt,
        t_end=STEPS * manifest.dt,
        record_stride=STEPS,
        initial_rho=manifest.rho0,
        initial_alpha=manifest.alpha0,
    )
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        simulate(config)
        best = min(best, time.perf_counter() - t)
    return 1e6 * best / STEPS


def main():
    table = {
        protocol: {str(n): round(step_us(name, n), 1) for n in SIZES}
        for protocol, name in (("noncollaborative", "noncol-vicsek-n25"), ("collaborative", "col-vicsek-n25"))
    }
    print(json.dumps(table, indent=1))


if __name__ == "__main__":
    main()
