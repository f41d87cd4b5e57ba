"""Which artifacts and bitwise tests move with OpenBLAS's CPU kernel.

OpenBLAS picks its CPU kernel at run time; OPENBLAS_CORETYPE forces one.
For the host's own choice and then for each kernel of CORETYPES, this
script runs, in a child process with BLAS threads at 1 and the variables
set for that child alone:

- scripts/artifact_digests.py, once on each step path a checkout has (the
  compiled step and the numpy path; a checkout without cohsync._native
  has one), and
- the simulation-path bitwise tests of TESTS, which run both step paths
  themselves where test_simulate.py's step_paths does.

It prints, per kernel and path, the digest lines that differ from the
host's own kernel on the same path and those that differ between the two
paths, and the tests that fail, then a table of the counts.

    PYTHONPATH=src python3 scripts/kernel_matrix.py [--root CHECKOUT]

--root runs another checkout's sources, tests and digest script (default:
the checkout holding this script).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

CORETYPES = ("SkylakeX", "Haswell", "Zen", "Sandybridge", "Prescott")
# Mixed components against solo runs, batched rows against single agents,
# strided recording, determinism, criterion 5, and the fixed-order sums
# they rest on.  Node ids a checkout lacks are left out.
TESTS = (
    "tests/test_simulate.py::test_mixed_components_match_solo_runs_bitwise",
    "tests/test_simulate.py::test_components_simulate_identically_alone",
    "tests/test_noncollab.py::test_batched_rows_match_single_agent_calls",
    "tests/test_collab.py::test_batched_rows_match_single_agent_calls",
    "tests/test_collab.py::test_law_bits_do_not_depend_on_layout_or_batch",
    "tests/test_simulate.py::test_strided_recording_is_every_stride_th_sample_bitwise",
    "tests/test_simulate.py::test_determinism_bitwise",
    "tests/test_acceptance.py::test_criterion_5_disconnected_components_run_independently",
    "tests/test_linalg.py::test_row_product_rows_do_not_depend_on_batch_size",
    "tests/test_native.py::test_both_paths_agree_bitwise_on_one_agent_and_on_several_blocks",
)

# Runs a script with the step path set first, where the checkout has one:
# the numpy path is taken as on a host without a C compiler.
_ON_PATH = (
    "import runpy, sys\n"
    "try:\n"
    "    from cohsync import _native\n"
    "    if sys.argv[1] == 'numpy':\n"
    "        _native.library = lambda: None\n"
    "except ImportError:\n"
    "    pass\n"
    "sys.argv = sys.argv[2:]\n"
    "runpy.run_path(sys.argv[0], run_name='__main__')\n"
)


def child_env(root: Path, coretype: str | None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    return env


def digests(root: Path, coretype: str | None, path: str) -> dict:
    """{artifact: sha256} of artifact_digests.py on one kernel and path."""
    done = subprocess.run(
        [sys.executable, "-c", _ON_PATH, path, str(root / "scripts" / "artifact_digests.py")],
        cwd=root,
        env=child_env(root, coretype),
        capture_output=True,
        text=True,
        check=True,
    )
    return {name: digest for digest, name in (line.split() for line in done.stdout.splitlines())}


def failing_tests(root: Path, coretype: str | None, tests: list) -> list:
    """The node ids of the tests that fail on one kernel."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=root,
        env=child_env(root, coretype),
        capture_output=True,
        text=True,
    )
    if done.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited with {done.returncode}:\n{done.stdout}\n{done.stderr}")
    return [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    root = parser.parse_args(argv).root.resolve()
    paths = ("compiled", "numpy") if (root / "src" / "cohsync" / "_native.py").is_file() else ("one",)
    tests = []
    for test in TESTS:
        path, name = test.split("::")
        if (root / path).is_file() and name in (root / path).read_text():
            tests.append(test)
    rows = []
    base = {}
    for coretype in (None,) + CORETYPES:
        label = coretype or "host's own"
        found = {path: digests(root, coretype, path) for path in paths}
        if coretype is None:
            base = found
        moved = {path: sorted(k for k, v in found[path].items() if base[path][k] != v) for path in paths}
        apart = sorted(k for k, v in found[paths[0]].items() if found[paths[-1]][k] != v)
        failed = failing_tests(root, coretype, tests)
        print(f"== {label}", flush=True)
        for path in paths:
            names = " ".join(moved[path])
            print(f"  digests moved against the host's own kernel ({path}): {len(moved[path])}: {names}")
        if len(paths) > 1:
            print(f"  digests that differ between the paths: {len(apart)}: {' '.join(apart)}")
        print(f"  tests failed: {len(failed)} of {len(tests)} selections: {' '.join(failed)}", flush=True)
        rows.append((label, *(len(moved[path]) for path in paths), len(apart), len(failed)))
    total = len(base[paths[0]])
    header = ["kernel"] + [f"moved ({path}, of {total})" for path in paths] + ["paths apart", "tests failed"]
    print()
    print(" | ".join(header))
    for row in rows:
        print(" | ".join(str(v) for v in row))


if __name__ == "__main__":
    main()
