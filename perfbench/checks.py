"""Output checks made apart from cohsync.

Every check recomputes its expectation with scipy or with this file's own
code, or tests a property the method must have; none compares against a
stored copy.  A failed check raises CheckFailed.
"""

import csv
import hashlib
import json

import numpy as np
import scipy.linalg

HURWITZ_RHOS = (1.0, 10.0, 100.0)
RICCATI_RTOL = 1e-8


class CheckFailed(AssertionError):
    pass


class ObserverNotHurwitz(CheckFailed):
    """The observer error matrix is unstable: a known fault of the program (see README.md)."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def file_digest(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def array_digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _close(got, expected, rtol, label):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    require(got.shape == expected.shape, f"{label}: shape {got.shape} != {expected.shape}")
    err = float(np.max(np.abs(got - expected)))
    scale = 1.0 + float(np.max(np.abs(expected)))
    require(err <= rtol * scale, f"{label}: max deviation {err:.3e} > {rtol:g} x {scale:.3g}")


# ---------------------------------------------------------------------------
# designs


def check_noncollab_riccati(A, B, S, P):
    """P solves the CARE of (S A S^-1, S B) with unit weights, as scipy finds it."""
    S = np.asarray(S, dtype=float)
    A_t = S @ np.asarray(A, dtype=float) @ np.linalg.inv(S)
    B_t = S @ np.asarray(B, dtype=float)
    n, m = B_t.shape
    expected = scipy.linalg.solve_continuous_are(A_t, B_t, np.eye(n), np.eye(m))
    _close(P, expected, RICCATI_RTOL, "noncollaborative P vs scipy")


def check_observer_riccati(A, C, Q, eta):
    """Q solves A'Q + QA - QC'CQ + eta I = 0, the equation collab documents, as scipy finds it."""
    A, C = np.asarray(A, dtype=float), np.atleast_2d(np.asarray(C, dtype=float))
    n, p = A.shape[0], C.shape[0]
    expected = scipy.linalg.solve_continuous_are(A, C.T, eta * np.eye(n), np.eye(p))
    _close(Q, expected, RICCATI_RTOL, "observer Q vs scipy")


def check_observer_hurwitz(A, C, Q):
    """A - rho Q C'C, the observer error matrix the collaborative law runs, is Hurwitz."""
    A, C, Q = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, C, Q))
    for rho in HURWITZ_RHOS:
        worst = float(np.max(np.linalg.eigvals(A - rho * Q @ C.T @ C).real))
        if worst >= 0.0:
            raise ObserverNotHurwitz(f"A - {rho:g} Q C'C is not Hurwitz (max real part {worst:+.3f})")


def check_palpha_cells(grid, A, B, C, epsilon):
    """Every cached P_alpha cell matches scipy's CARE with R = I / alpha_k."""
    A, B, C = (np.asarray(M, dtype=float) for M in (A, B, C))
    n, m = B.shape
    cells = grid.cached_indices()
    require(len(cells) > 0, "P_alpha grid holds no cell")
    for k in cells:
        alpha = grid.ratio**k
        expected = scipy.linalg.solve_continuous_are(
            A + epsilon * np.eye(n), B, C.T @ C, np.eye(m) / alpha
        )
        _close(grid.cell(k)[0], expected, RICCATI_RTOL, f"P_alpha cell {k} vs scipy")
    return len(cells)


# ---------------------------------------------------------------------------
# trajectories


def check_gain_series(times, rho, alpha=None):
    """Gains never decrease; alpha grows at rate at most 1."""
    require(np.all(np.isfinite(rho)), "rho is not finite")
    require(np.all(np.diff(rho, axis=0) >= 0.0), "a rho sample decreases")
    if alpha is not None:
        require(np.all(np.isfinite(alpha)), "alpha is not finite")
        step = np.diff(alpha, axis=0)
        require(np.all(step >= 0.0), "an alpha sample decreases")
        limit = np.diff(times)[:, None] * (1.0 + 1e-9) + 1e-12
        require(np.all(step <= limit), "alpha grows faster than rate 1")


def read_trajectory(path):
    """Parse trajectory.csv with the standard library; arrays are samples x agents."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    require(len(rows) > 0, "trajectory.csv has no rows")
    col = {name: j for j, name in enumerate(header)}
    for name in ("t", "agent", "coherency_proxy", "rho"):
        require(name in col, f"trajectory.csv lacks column {name}")
    data = np.array(rows)
    times = np.unique(data[:, col["t"]])
    agents = list(dict.fromkeys(int(a) for a in data[:, col["agent"]]))
    n_s, n_a = times.size, len(agents)
    require(data.shape[0] == n_s * n_a, f"trajectory.csv has {data.shape[0]} rows, expected {n_s} x {n_a}")
    require(np.array_equal(data[:, col["t"]], np.repeat(times, n_a)), "trajectory.csv rows out of order")

    def series(name):
        return data[:, col[name]].reshape(n_s, n_a) if name in col else None

    return {
        "times": times,
        "agents": agents,
        "rho": series("rho"),
        "alpha": series("alpha"),
        "proxy": series("coherency_proxy"),
    }


def _settling_time(times, values, threshold, window):
    """Earliest sample after which values stay <= threshold for at least window."""
    above = np.nonzero(values > threshold)[0]
    if above.size and above[-1] == values.size - 1:
        return None
    first = 0 if above.size == 0 else int(above[-1]) + 1
    return float(times[first]) if times[-1] - times[first] >= window else None


def check_artifacts(out_dir, protocol):
    """Summary verdict plus an independent re-derivation of it from the CSV."""
    summary = json.load(open(out_dir / "summary.json"))
    design = json.load(open(out_dir / "design.json"))
    require(summary["all_pass"] is True, "summary.json: all_pass is not true")
    require(summary["warnings"] == [], f"summary.json: warnings {summary['warnings']}")

    traj = read_trajectory(out_dir / "trajectory.csv")
    times, rho, alpha = traj["times"], traj["rho"], traj["alpha"]
    require(times.size == summary["samples"], f"{times.size} samples in CSV, summary says {summary['samples']}")
    agents = summary["agents"]
    require([a["agent"] for a in agents] == traj["agents"], "agent lists of CSV and summary differ")
    check_gain_series(times, rho, alpha)

    t0, t1 = times[0], times[-1]
    tail = times >= t1 - summary["flatness_fraction"] * (t1 - t0)
    threshold = 2.0 * design["d"]
    require(summary["settling_threshold"] == threshold, "settling threshold is not 2 d")
    for i, a in enumerate(agents):
        require(a["final_rho"] == rho[-1, i], f"agent {a['agent']}: final rho differs from CSV")
        flat = float(np.ptp(rho[tail, i]))
        require(abs(a["rho_flatness"] - flat) <= 1e-12, f"agent {a['agent']}: rho flatness differs")
        if alpha is not None:
            require(a["final_alpha"] == alpha[-1, i], f"agent {a['agent']}: final alpha differs from CSV")
            flat = float(np.ptp(alpha[tail, i]))
            require(abs(a["alpha_flatness"] - flat) <= 1e-12, f"agent {a['agent']}: alpha flatness differs")
        if protocol == "noncollaborative":
            expected = _settling_time(times, traj["proxy"][:, i], threshold, summary["trailing_window"])
            require(a["settling_time"] == expected, f"agent {a['agent']}: settling time differs from CSV")

    model = design["manifest"]["model"]
    if protocol == "noncollaborative":
        check_noncollab_riccati(model["A"], model["B"], design["S"], design["P"])
    else:
        check_observer_riccati(model["A"], model["C"], design["Q"], design["eta"])
        check_observer_hurwitz(model["A"], model["C"], design["Q"])
    return summary
