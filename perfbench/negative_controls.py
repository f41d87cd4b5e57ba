"""Negative controls for the benchmark's output checks.

Run from the root of a checkout:

    python3 perfbench/negative_controls.py

Runs one noncollaborative and one collaborative operation of the
small-networks workload, checks that the untouched artifacts pass, then
corrupts one artifact at a time and checks that the checks catch each
corruption.  Exits 0 only if every corruption is caught.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def _edit_csv_column(path, first_row, step, column, change):
    """Apply change to column in rows first_row, first_row + step, ..."""
    lines = path.read_text().splitlines(keepends=True)
    j = lines[0].rstrip("\n").split(",").index(column)
    for row in range(first_row, len(lines), step):
        cells = lines[row].rstrip("\n").split(",")
        cells[j] = repr(change(float(cells[j])))
        lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _edit_json(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def _mid_row(path, agents):
    """A row of agent 1 halfway through the run."""
    n_rows = len(path.read_text().splitlines()) - 1
    return 1 + (n_rows // agents // 2) * agents


class _PerturbedGrid:
    """A P_alpha grid whose cell 0 is off by a relative 1e-6."""

    def __init__(self, grid):
        self.ratio = grid.ratio
        self._grid = grid

    def cached_indices(self):
        return self._grid.cached_indices()

    def cell(self, k):
        P, BtP = self._grid.cell(k)
        return (P * (1.0 + 1e-6) if k == 0 else P), BtP


def main():
    base = HERE / "out" / f"negative-controls-{os.getpid()}"
    cb = bench.Context()
    runs = {}
    for source, changes in workloads.SMALL_NETWORKS[:2]:
        raw = workloads.derived_manifest(ROOT, source, changes, seed=0, name=source)
        op = workloads.SimulationOp(raw, base)
        _, design = op.run(cb)
        runs[raw["protocol"]] = (op.dir, design, raw)

    def rho_decreases(d, protocol):
        path = d / "trajectory.csv"
        _edit_csv_column(path, _mid_row(path, 25), len(path.read_text()), "rho", lambda v: v - 1e-3)

    def alpha_too_fast(d, protocol):
        # Every later sample of agent 1 moves up by 1, so alpha still never
        # decreases but jumps by more than one sample interval.
        path = d / "trajectory.csv"
        _edit_csv_column(path, _mid_row(path, 25), 25, "alpha", lambda v: v + 1.0)

    def truncated_csv(d, protocol):
        lines = (d / "trajectory.csv").read_text().splitlines(keepends=True)
        (d / "trajectory.csv").write_text("".join(lines[:-3]))

    def perturbed_p(d, protocol):
        _edit_json(d / "design.json", lambda j: j["P"][0].__setitem__(0, j["P"][0][0] * (1.0 + 1e-6)))

    def perturbed_q(d, protocol):
        _edit_json(d / "design.json", lambda j: j["Q"][0].__setitem__(0, j["Q"][0][0] * (1.0 + 1e-6)))

    def wrong_settling(d, protocol):
        def shift(j):
            agent = j["agents"][3]
            agent["settling_time"] = (agent["settling_time"] or 0.0) + 0.125

        _edit_json(d / "summary.json", shift)

    def wrong_verdict(d, protocol):
        _edit_json(d / "summary.json", lambda j: j.__setitem__("all_pass", False))

    controls = [
        ("noncollaborative", rho_decreases),
        ("collaborative", rho_decreases),
        ("collaborative", alpha_too_fast),
        ("noncollaborative", truncated_csv),
        ("collaborative", truncated_csv),
        ("noncollaborative", perturbed_p),
        ("collaborative", perturbed_q),
        ("noncollaborative", wrong_settling),
        ("collaborative", wrong_verdict),
    ]
    missed = 0
    for protocol, (d, _, _) in runs.items():
        checks.check_artifacts(d, protocol)
        print(f"untouched {protocol} artifacts: pass")
    for protocol, corrupt in controls:
        d = runs[protocol][0]
        copy = base / f"{corrupt.__name__}-{protocol}"
        shutil.copytree(d, copy)
        corrupt(copy, protocol)
        try:
            checks.check_artifacts(copy, protocol)
        except checks.CheckFailed as exc:
            print(f"{corrupt.__name__} ({protocol}): caught: {exc}")
        else:
            missed += 1
            print(f"{corrupt.__name__} ({protocol}): MISSED")

    _, design, raw = runs["collaborative"]
    model = raw["model"]
    direct = [
        (
            "perturbed_palpha_cell",
            lambda: checks.check_palpha_cells(
                _PerturbedGrid(design.grid), model["A"], model["B"], model["C"], design.epsilon
            ),
        ),
        ("unstable_observer", lambda: checks.check_observer_hurwitz(model["A"], model["C"], -design.Q)),
    ]
    for name, check in direct:
        try:
            check()
        except checks.CheckFailed as exc:
            print(f"{name} (collaborative): caught: {exc}")
        else:
            missed += 1
            print(f"{name} (collaborative): MISSED")

    shutil.rmtree(base, ignore_errors=True)
    print(f"{missed} corruption(s) missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
