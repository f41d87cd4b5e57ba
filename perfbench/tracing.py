"""Spans around calls into cohsync's public functions.

A span is recorded by replacing a public name with a timing wrapper in
every cohsync module that holds it (the defining module and each module
that imported it), so calls made inside the package are seen as well as
calls made by the benchmark.  Nothing inside the program is edited.
Spans are kept in memory and written out once, when the run ends.

The CORE names stay wrapped for the whole run: operations read their
design and simulation times, and what those calls returned, from them.
The other names are wrapped only in traced rounds.
"""

import json
import sys
import time

# (span name, defining module, attribute, patch only in these modules or None)
TRACED_FUNCTIONS = (
    ("cli.build_design", "cohsync.cli", "build_design", None),
    ("simulate.simulate", "cohsync.simulate", "simulate", None),
    ("cli.run_experiment", "cohsync.cli", "run_experiment", None),
    ("cli.load_manifest", "cohsync.cli", "load_manifest", None),
    ("graphs.laplacian", "cohsync.graphs", "laplacian", None),
    ("graphs.weakly_connected_components", "cohsync.graphs", "weakly_connected_components", None),
    ("agents.check_assumptions", "cohsync.agents", "check_assumptions", None),
    ("agents.build_output_transform", "cohsync.agents", "build_output_transform", None),
    ("noncollab.design_noncollab", "cohsync.noncollab", "design_noncollab", None),
    ("collab.design_collab", "cohsync.collab", "design_collab", None),
    # Only the calls collab makes count as eta trials.
    ("collab.eta_trial", "cohsync.linalg", "solve_dual_care_shifted", ("cohsync.collab",)),
    ("linalg.solve_lyapunov", "cohsync.linalg", "solve_lyapunov", None),
    ("linalg.solve_care", "cohsync.linalg", "solve_care", None),
    ("simulate.write_trajectory_csv", "cohsync.simulate", "write_trajectory_csv", None),
    ("simulate.settling_report", "cohsync.simulate", "settling_report", None),
    ("simulate.gain_flatness", "cohsync.simulate", "gain_flatness", None),
    ("verification.run_suite", "cohsync.verification", "run_suite", None),
)

# (span name, defining module, class, method)
TRACED_METHODS = (("collab.PAlphaGrid.cell", "cohsync.collab", "PAlphaGrid", "cell"),)

CORE = ("cli.build_design", "simulate.simulate")


class Tracer:
    """In-memory span recorder with install/uninstall of its wrappers.

    Each span is [id, parent id or None, operation label, name, start, end,
    bytes returned or None].  `results` maps a span name to what its last
    call returned.
    """

    def __init__(self):
        self.spans = []
        self.absent = set()
        self.results = {}
        self.op = None
        self._stack = []
        self._patches = {True: [], False: []}

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, self.op, name, time.perf_counter(), None, None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[5] = time.perf_counter()
            self.results[name] = result
            nbytes = getattr(result, "nbytes", None)
            if nbytes is not None:
                span[6] = int(nbytes)
            return result

        traced.__wrapped__ = fn
        return traced

    def seconds(self, name, since):
        """Total time of the spans called name from span index since on."""
        return sum(s[5] - s[4] for s in self.spans[since:] if s[3] == name)

    def install(self, core=False):
        """Wrap the CORE names (core=True) or every other traced name that still exists.

        Names that no longer exist are remembered as absent.
        """
        patches = self._patches[core]
        for name, module, attr, only in TRACED_FUNCTIONS:
            if (name in CORE) != core:
                continue
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("cohsync") or (only and mod_name not in only):
                    continue
                if getattr(mod, attr, None) is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for name, module, cls_name, attr in TRACED_METHODS if not core else ():
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.absent.add(name)
                continue
            patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self, core=False):
        patches = self._patches[core]
        while patches:
            owner, attr, original = patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        keys = ("id", "parent", "op", "name", "start", "end", "bytes")
        with open(path, "w") as fh:
            json.dump({"keys": keys, "spans": self.spans, "absent": sorted(self.absent)}, fh)
