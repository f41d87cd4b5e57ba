"""Time of the design solves on minimum-phase models of growing dimension.

For each dimension n in SIZES the models are the first DRAWS draws of
verification.seeded_minimum_phase_model (generator keys [n, 0], [n, 1],
...) whose A has Frobenius norm at most MAX_NORM, as in the benchmark's
design sweep.  On each model it times:

  lyapunov   solve_lyapunov(A - (max Re lambda(A) + 1) I, I)
  care       solve_care(A, B), identity weight
  cell       cell 0 of a fresh P_alpha grid of (A, B, C), epsilon 0.1
  gather     the first gain_rows([4.0]) on such a grid with cell 0 seeded,
             as design_collab leaves it: the first gather of every bundled
             collaborative run (alpha0 = 4), timed without the grid's set-up
  walk       cell(WALK_END) of a fresh such grid, the walk that solves cells
             0..WALK_END in one stacked Riccati solve, per cell
  exact      solve_exact(EXACT_ALPHAS) on a fresh such grid: the off-grid
             alphas of the verification suite's demo-model scaling check,
             solved as one family, per call
  noncollab  design_noncollab(model, delta=DELTA)
  collab     design_collab(model, delta=DELTA)

A figure is the minimum over REPEATS calls on one model, in microseconds
(for walk, divided by the WALK_END + 1 cells); the table gives its median
over the models, and "failed" counts the models on which a call raised
SolverError.  Set OPENBLAS_NUM_THREADS=1 for figures comparable across
hosts.

The gather row is the one that shows which P_alpha cells a run's first
gather solves.  scripts/step_us.py cannot show that: its minimum over
repeats is taken on runs that share one design, so every repeat after the
first gathers from a warm grid.

    PYTHONPATH=src python3 scripts/design_us.py
"""

import json
import statistics
import time

import numpy as np

from cohsync.collab import design_collab, p_alpha_family
from cohsync.linalg import SolverError, solve_care, solve_lyapunov
from cohsync.noncollab import design_noncollab
from cohsync.verification import seeded_minimum_phase_model

SIZES = (4, 8, 12, 16, 24)
DRAWS = 5
MAX_NORM = 200.0
REPEATS = 5
DELTA = 1.0
WALK_END = 40
EXACT_ALPHAS = np.logspace(0.5, 4, 15)


def models(n):
    found, key = [], 0
    while len(found) < DRAWS:
        model, _ = seeded_minimum_phase_model(np.random.default_rng([n, key]), n)
        if np.linalg.norm(model.A) <= MAX_NORM:
            found.append(model)
        key += 1
    return found


def operations(model):
    """name -> (call, prepare, per): call(prepare()) is timed, prepare() is
    not, and the time is divided by per."""
    n = model.n
    A_stable = model.A - (np.max(np.linalg.eigvals(model.A).real) + 1.0) * np.eye(n)

    def seeded_grid():
        grid = p_alpha_family(model.A, model.B, model.C, 0.1)
        grid.cell(0)
        return grid

    def fresh_grid():
        return p_alpha_family(model.A, model.B, model.C, 0.1)

    first_alpha = np.array([4.0])
    return {
        "lyapunov": (lambda _: solve_lyapunov(A_stable, np.eye(n)), None, 1),
        "care": (lambda _: solve_care(model.A, model.B), None, 1),
        "cell": (lambda _: fresh_grid().cell(0), None, 1),
        "gather": (lambda grid: grid.gain_rows(first_alpha), seeded_grid, 1),
        "walk": (lambda grid: grid.cell(WALK_END), fresh_grid, WALK_END + 1),
        "exact": (lambda grid: grid.solve_exact(EXACT_ALPHAS), fresh_grid, 1),
        "noncollab": (lambda _: design_noncollab(model, delta=DELTA), None, 1),
        "collab": (lambda _: design_collab(model, delta=DELTA), None, 1),
    }


def best_us(call, prepare, per):
    best = float("inf")
    for _ in range(REPEATS):
        arg = prepare() if prepare else None
        t = time.perf_counter()
        call(arg)
        best = min(best, time.perf_counter() - t)
    return 1e6 * best / per


def main():
    table = {}
    for n in SIZES:
        times = {}
        for model in models(n):
            for name, (call, prepare, per) in operations(model).items():
                try:
                    us = best_us(call, prepare, per)
                except SolverError:
                    us = None
                times.setdefault(name, []).append(us)
        table[str(n)] = {}
        for name, ts in times.items():
            ok = [us for us in ts if us is not None]
            median = round(statistics.median(ok), 1) if ok else None
            table[str(n)][name] = {"us": median, "failed": len(ts) - len(ok)}
    print(json.dumps(table, indent=1))


if __name__ == "__main__":
    main()
