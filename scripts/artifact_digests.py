"""sha256 of the three artifacts of every bundled manifest.

Runs each bundled manifest end to end (cli.run_experiment) into a
temporary directory and prints one line per artifact,

    <sha256>  <manifest>/<artifact>

in manifest-name order: 16 manifests, 48 lines.  Two checkouts produce
byte-identical artifacts exactly when their outputs diff clean:

    PYTHONPATH=src python3 scripts/artifact_digests.py > after.txt
    diff before.txt after.txt
"""

import hashlib
import tempfile
from pathlib import Path

from cohsync.cli import bundled_manifest_names, load_bundled_manifest, run_experiment

ARTIFACTS = ("design.json", "trajectory.csv", "summary.json")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name in bundled_manifest_names():
            out = Path(tmp) / name
            run_experiment(load_bundled_manifest(name), out)
            for artifact in ARTIFACTS:
                digest = hashlib.sha256((out / artifact).read_bytes()).hexdigest()
                print(f"{digest}  {name}/{artifact}", flush=True)


if __name__ == "__main__":
    main()
