"""The compiled RK4 step: _step.c, built on first use and driven through
ctypes.

library() compiles the package's _step.c with _FLAGS into a shared
library in the user's cache directory ($XDG_CACHE_HOME or ~/.cache, then
cohsync/), or in cohsync-<uid>/ of the temporary directory when that
cannot be written.  Either directory is made with mode 0700, and a
library is built into and loaded from it only while it, and then the
library, belong to the user and no one else can write to them: a shared
temporary directory never holds a library that another user could have
put there.  The file's name holds the SHA-256 of the source, the flags
and the machine, so a library built from another source or with other
flags is never loaded.  It is written under a temporary name and renamed
into place, so no process loads a half-written file.  simulate imports
this module on its first run, never at import, and compiled_step binds
the library to one run's arrays.

library() gives None when there is no such directory, no compiler, or
the build or the load fails; simulate then takes its numpy path, which
gives the same bytes.
"""

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

# What cohsync_step returns.
DONE, RECORD, GAINS = 0, 1, 2

# No -ffast-math and no -march=native: the step must round as numpy does,
# with no product fused into a sum and no sum reordered.
_FLAGS = ("-O3", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
_CC = "gcc"  # the compiler looked up on PATH
_CACHE = None  # the cache directory; None for the user's
_compiled = True  # False: simulate takes its numpy path

# Disturbance values written ahead for the compiled step, at most this many
# per call of the writer.
_W_AHEAD = 2**14


def _private(path: Path) -> bool:
    """Whether path exists, belongs to this user and is writable by no
    one else."""
    try:
        info = path.stat()
    except OSError:
        return False
    return info.st_uid == os.getuid() and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)


def _cache_dir() -> Path | None:
    """The user's cache directory for cohsync, else cohsync-<uid> in the
    temporary directory: the first that can be made and is private and
    writable; None when neither is."""
    if not hasattr(os, "getuid"):
        return None  # no owner to check
    if _CACHE is not None:
        candidates = [Path(_CACHE)]
    else:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
        candidates = [Path(base) / "cohsync", Path(tempfile.gettempdir()) / f"cohsync-{os.getuid()}"]
    for directory in candidates:
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue
        if _private(directory) and os.access(directory, os.W_OK | os.X_OK):
            return directory
    return None


def source() -> bytes:
    return resources.files(__package__).joinpath("_step.c").read_bytes()


def cache_name(text: bytes, flags=_FLAGS) -> str:
    """The library's file name for a source text and compiler flags."""
    key = hashlib.sha256(b"\0".join([text, " ".join(flags).encode(), platform.machine().encode()]))
    return f"cohsync-step-{key.hexdigest()}.so"


def library():
    """The loaded step library, built on first use; None when the numpy
    path is to be taken."""
    return _load(_CC, _cache_dir()) if _compiled else None


@functools.cache
def _load(cc: str, directory: Path | None):
    if directory is None:
        return None
    text = source()
    path = directory / cache_name(text)
    # A library that is missing, or that someone else could have written,
    # is built again in its place.
    if not (path.is_file() and _private(path)):
        compiler = shutil.which(cc)
        if compiler is None:
            return None
        fd, tmp = tempfile.mkstemp(prefix=path.name, dir=directory)
        os.close(fd)
        try:
            subprocess.run(
                [compiler, *_FLAGS, "-x", "c", "-", "-o", tmp], input=text, capture_output=True, check=True, timeout=300
            )
            os.chmod(tmp, 0o700)  # the linker's mode follows the umask
            os.replace(tmp, path)
        except (OSError, subprocess.SubprocessError):
            return None
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    lib.cohsync_step.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
    lib.cohsync_step.restype = ctypes.c_int
    return lib


class _Run(ctypes.Structure):
    """The mirror of _step.c's struct run, field by field."""

    _fields_ = (
        [
            (name, ctypes.c_int64)
            for name in ("rows", "span", "state", "sums", "wd", "fcols", "lap_width", "slots")
            + ("law", "n", "m", "k", "keyed", "stage", "phase")
        ]
        + [(name, ctypes.c_double) for name in ("d", "half", "dt", "envelope")]
        + [("weights", ctypes.c_double * 4)]
        + [
            (name, ctypes.c_void_p)
            for name in ("W", "F", "K", "S", "S_next", "lap_cols", "lap_vals", "idx", "val")
            + ("sums_buf", "u", "gain", "B", "key")
        ]
    )


def _address(a: np.ndarray, order: str) -> int:
    """The address of a's data, after checking that it is float64 or
    int64 laid out in order ("C" or "F"), as _step.c reads it."""
    if a.dtype not in (np.float64, np.int64) or not a.flags[f"{order}_CONTIGUOUS"]:
        raise ValueError(f"a {a.dtype} array of shape {a.shape} is not {order}-contiguous")
    return a.ctypes.data


def compiled_step(lib, stage, S, S_next, dt: float, n_steps: int, weights):
    """simulate._integrate's step through _step.c: one call per step on the
    arrays of stage (simulate._Stage), which the numpy path binds, and on
    S and S_next, which the library swaps at the end of each step as
    _integrate does; weights are RK4's.

    A call returns after the first stage of a recorded step (keep records
    it), before a law that asks for its gains to be gathered again
    (stage.native["regather"]), and at the step's end with max |S_next|.
    w(t) is written by the numpy writer, for the stage times of up to
    _W_AHEAD values' worth of steps at once.
    """
    rows, state = stage.X.shape
    native = dict(stage.native)
    regather = native.pop("regather", None)
    wd = stage.W.shape[1] - state - stage.sums
    # The step below keeps run alive, and stage the arrays run points at,
    # for as long as it can be called.
    run = _Run(
        rows=rows,
        span=stage.W.shape[0],
        state=state,
        sums=stage.sums,
        wd=wd,
        fcols=stage.F.shape[1],
        lap_width=stage.laplacian.cols.shape[0],
        slots=stage.product.idx.shape[1],
        half=0.5 * dt,
        dt=dt,
        weights=tuple(weights),
        W=_address(stage.W, "F"),
        F=_address(stage.F, "F"),
        K=_address(stage.K, "C"),
        S=_address(S, "F"),
        S_next=_address(S_next, "F"),
        lap_cols=_address(stage.laplacian.cols, "C"),
        lap_vals=_address(stage.laplacian.vals, "C"),
        idx=_address(stage.product.idx, "C"),
        val=_address(stage.product.val, "C"),
        **{k: v if np.isscalar(v) else _address(v, "C") for k, v in native.items()},
    )
    call = functools.partial(lib.cohsync_step, ctypes.addressof(run))
    at, disturb, half = None, stage.disturb, 0.5 * dt
    if disturb is not None:
        ahead = max(1, min(n_steps + 1, _W_AHEAD // (3 * max(wd, 1) * rows)))
        w = np.empty((ahead, 3, wd, rows))  # per step, the blocks at t, t + dt/2 and t + dt
        w_rows, w_address, block = w.transpose(0, 1, 3, 2), w.ctypes.data, w[0].nbytes

    def step(k, S, S_next, keep):
        nonlocal at
        if disturb is None:
            address = None
        else:
            if at is None or k - at >= ahead:
                at = k
                t = np.arange(k, min(k + ahead, n_steps + 1)) * dt
                T = np.stack([t, t + half, t + dt], axis=1)
                if k + T.shape[0] > n_steps:
                    T[-1, 1:] = T[-1, 0]  # the last step has its first stage alone
                disturb(T[..., None], w_rows[: T.shape[0]])
            address = w_address + (k - at) * block
        record = keep is not None
        code = call(address, record)
        while code != DONE:
            if code == GAINS:
                regather()
                run.keyed = 1
            elif keep():
                return None
            code = call(address, record)
        return run.envelope

    return step
