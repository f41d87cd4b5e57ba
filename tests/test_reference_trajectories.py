"""Frozen trajectory references for both protocols' runtime laws.

Short runs of the bundled `noncol-vicsek-n5` and `col-vicsek-n5`
manifests, with their chirp disturbance, sampled at a few times and
agents.  The collaborative run keeps the manifest's alpha0 = 4 and
starts from ten times the seeded initial states, so that the exchanged
signal drives alpha through P_alpha cells 28 to 30 within the window.

The values in reference_trajectories.json were frozen from the
simulator as it stood before each protocol law moved into its own
module as one batched function.  Any change that moves trajectories
must agree with them at rtol 1e-9, in the style of
test_pair_matches_naive_closed_loop_oracle.  To re-freeze after a
deliberate, justified change of the dynamics:

    PYTHONPATH=src python3 tests/test_reference_trajectories.py
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from cohsync.cli import build_design, load_bundled_manifest
from cohsync.simulate import SimConfig, simulate

REFERENCE_PATH = Path(__file__).with_name("reference_trajectories.json")
T_END = 3.0
SAMPLES = (5, 30, 100, 300)  # recorded rows: t = 0.05, 0.3, 1, 3 at stride 10
AGENTS = (1, 3, 4)
START_SCALE = {"noncol-vicsek-n5": 1.0, "col-vicsek-n5": 10.0}


def sampled_run(name):
    manifest = dataclasses.replace(load_bundled_manifest(name), t_end=T_END)
    n = manifest.model.n
    x0 = START_SCALE[name] * np.stack(
        [
            np.random.default_rng([manifest.seed, g]).uniform(-1.0, 1.0, n)
            for g in range(1, manifest.graph.n_nodes + 1)
        ]
    )
    run = simulate(
        SimConfig(
            model=manifest.model,
            graph=manifest.graph,
            design=build_design(manifest),
            disturbance=manifest.disturbance,
            dt=manifest.dt,
            t_end=manifest.t_end,
            seed=manifest.seed,
            record_stride=manifest.record_stride,
            initial_states=x0,
            initial_rho=manifest.rho0,
            initial_alpha=manifest.alpha0,
        )
    )
    rows, cols = np.ix_(SAMPLES, AGENTS)
    out = {
        "times": run.times[list(SAMPLES)],
        "states": run.states[rows, cols],
        "rho": run.rho[rows, cols],
        "controls": run.controls[rows, cols],
    }
    if run.alpha is not None:
        out["alpha"] = run.alpha[rows, cols]
    return out


@pytest.mark.parametrize("name", sorted(START_SCALE))
def test_matches_frozen_reference(name):
    frozen = json.loads(REFERENCE_PATH.read_text())[name]
    fresh = sampled_run(name)
    assert sorted(fresh) == sorted(frozen)
    for key, values in fresh.items():
        assert np.allclose(values, np.array(frozen[key]), rtol=1e-9, atol=1e-11), key


def test_collab_reference_walks_several_palpha_cells():
    manifest = load_bundled_manifest("col-vicsek-n5")
    grid = build_design(manifest).grid
    alpha = np.array(json.loads(REFERENCE_PATH.read_text())["col-vicsek-n5"]["alpha"])
    assert len(set(grid.indices_for(alpha).ravel().tolist())) >= 3


if __name__ == "__main__":
    payload = {
        name: {key: values.tolist() for key, values in sampled_run(name).items()}
        for name in sorted(START_SCALE)
    }
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
