"""sha256 of the three artifacts of every bundled manifest and of the
verification report.

Runs each bundled manifest end to end (cli.run_experiment) into a
temporary directory and prints one line per artifact,

    <sha256>  <manifest>/<artifact>

in manifest-name order: 16 manifests, 48 lines.  A last line,

    <sha256>  verify/report.txt

digests the report text of cli.run_verification_suite(seed=0,
self_test=True), 49 lines in all.  Two checkouts produce byte-identical
artifacts and reports exactly when their outputs diff clean:

    PYTHONPATH=src python3 scripts/artifact_digests.py > after.txt
    diff before.txt after.txt
"""

import hashlib
import tempfile
from pathlib import Path

from cohsync.cli import (
    bundled_manifest_names,
    load_bundled_manifest,
    run_experiment,
    run_verification_suite,
)

ARTIFACTS = ("design.json", "trajectory.csv", "summary.json")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name in bundled_manifest_names():
            out = Path(tmp) / name
            run_experiment(load_bundled_manifest(name), out)
            for artifact in ARTIFACTS:
                digest = hashlib.sha256((out / artifact).read_bytes()).hexdigest()
                print(f"{digest}  {name}/{artifact}", flush=True)
    text, _ = run_verification_suite(seed=0, self_test=True)
    print(f"{hashlib.sha256(text.encode()).hexdigest()}  verify/report.txt", flush=True)


if __name__ == "__main__":
    main()
