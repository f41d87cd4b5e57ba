"""The compiled library: _step.c, built on first use and driven through
ctypes.  It holds the RK4 step kernel that simulate._integrate drives
(compiled_run) and trajectory.csv's row writer (compiled_csv).

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
into place, so no process loads a half-written file.  After a build, the
user's other libraries in the directory, those of older sources, are
removed (never a build's temporary, nor another user's file): so two
cohsync versions that share a cache directory each build their library
again, a second or so, on the first run after a switch between them.
simulate imports this module on its first run, never at import;
compiled_run binds the library to one run's arrays, and
write_trajectory_csv calls compiled_csv.  A caller that replaces
library() by a function giving None has simulate and
write_trajectory_csv take their numpy paths, as a host without a
compiler does.

library() gives None when there is no such directory, no compiler, or
the build or the load fails; simulate and write_trajectory_csv then take
their numpy paths, which give the same bytes.
"""

import ctypes
import functools
import hashlib
import os
import platform
import re
import shutil
import stat
import subprocess
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

# What cohsync_run returns.
DONE, GAINS, ENVELOPE = 0, 1, 2

# No -ffast-math and no -march=native: the step must round as numpy does,
# with no product fused into a sum and no sum reordered.
_FLAGS = ("-O3", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
_CC = "gcc"  # the compiler looked up on PATH
_CACHE = None  # the cache directory; None for the user's

# _step.c's LANES: an agent's row of agent_x is its network-sum columns
# padded to a multiple of this many.
_LANES = 4

# A complete library's file name; a build in progress writes under this
# name and a suffix of mkstemp's.
_LIBRARY_NAME = re.compile(r"cohsync-step-[0-9a-f]{64}\.so")

# The most bytes a number certified by _step.c takes in trajectory.csv,
# "-d.dddddddddddddddde-270" and its separator; and the bytes _step.c may
# write past a row's text.
_FIELD_BYTES, _CSV_SLACK = 25, 64


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
    return _load(_CC, _cache_dir())


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
        _prune(directory, path.name)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    lib.cohsync_run.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
    lib.cohsync_run.restype = ctypes.c_int
    lib.cohsync_csv.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
    lib.cohsync_csv.restype = ctypes.c_int64
    return lib


def _prune(directory: Path, keep: str) -> None:
    """Removes the user's libraries other than keep from directory: only
    complete files under a library's name, never a build's temporary and
    never a file of another user."""
    for entry in os.scandir(directory):
        if entry.name == keep or not _LIBRARY_NAME.fullmatch(entry.name):
            continue
        try:
            if entry.is_file(follow_symlinks=False) and entry.stat(follow_symlinks=False).st_uid == os.getuid():
                os.remove(entry.path)
        except OSError:
            pass  # removed by another process, or not ours to remove


class _Run(ctypes.Structure):
    """The mirror of _step.c's struct run, field by field."""

    _fields_ = (
        [
            (name, ctypes.c_int64)
            for name in ("rows", "span", "state", "sums", "wd", "fcols", "lap_width", "slots")
            + ("law", "n", "m", "k", "keyed", "step", "n_steps", "stride", "points", "pitch")
        ]
        + [(name, ctypes.c_double) for name in ("d", "half", "dt", "envelope", "limit")]
        + [("weights", ctypes.c_double * 4)]
        + [
            (name, ctypes.c_void_p)
            for name in ("W", "F", "K", "S", "S_next", "agent_x", "lap_cols", "lap_vals", "idx", "val", "count")
            + ("sums_buf", "u", "gain", "B", "key", "point", "solved", "table")
            + ("states", "lx", "controls", "energy", "exchange")
        ]
    )


def _address(a: np.ndarray, order: str) -> int:
    """The address of a's data, after checking that it is float64, int64
    or bool laid out in order ("C" or "F"), as _step.c reads it."""
    if a.dtype not in (np.float64, np.int64, np.bool_) or not a.flags[f"{order}_CONTIGUOUS"]:
        raise ValueError(f"a {a.dtype} array of shape {a.shape} is not {order}-contiguous")
    return a.ctypes.data


def compiled_run(lib, stage, S, S_next, dt: float, n_steps: int, stride: int, weights, limit: float, record):
    """simulate._integrate's steps(w, first, stop) through _step.c, on the
    arrays of stage (simulate._Stage), which the numpy path binds, and on S
    and S_next, which the library swaps at the end of each step as the
    numpy path does; weights are RK4's, limit the growth limit, and record
    the state rows' and the first stage's record arrays (simulate), which
    the library fills at steps 0, stride, 2 stride, ... and n_steps.

    steps calls the library until it stops at stop or after a step whose
    max |S_next| is non-finite or above limit.  In between, the library
    returns only when a stage of the collaborative law finds its alpha
    column on a P_alpha cell not cached: the law's regather solves (or
    raises on) the cell, the run is pointed at the grid's new arrays, and
    the library makes the step again from its first stage.
    """
    rows, state = stage.X.shape
    native = dict(stage.native)
    regather, lookup = native.pop("regather", None), native.pop("lookup", None)
    states, (lx, controls, energy, exchange) = record
    # The first sums columns of the stage's X, agent by agent, which
    # _step.c writes and reads as aligned vectors: the rows start on 64
    # bytes, and the pad lanes stay zero.
    pitch = -(-stage.sums // _LANES) * _LANES
    buffer = np.zeros(rows * pitch + 8)
    at = -buffer.ctypes.data % 64 // 8
    agent_x = buffer[at : at + rows * pitch].reshape(rows, pitch)
    # The steps below keep run alive, and stage and record, the arrays run
    # points at, for as long as they can be called.
    run = _Run(
        rows=rows,
        span=stage.W.shape[0],
        state=state,
        sums=stage.sums,
        wd=stage.W.shape[1] - state - stage.sums,
        fcols=stage.F.shape[1],
        lap_width=stage.laplacian.cols.shape[0],
        slots=stage.product.idx.shape[1],
        pitch=agent_x.shape[1],
        n_steps=n_steps,
        stride=stride,
        half=0.5 * dt,
        dt=dt,
        limit=limit,
        weights=tuple(weights),
        W=_address(stage.W, "F"),
        F=_address(stage.F, "F"),
        K=_address(stage.K, "C"),
        S=_address(S, "F"),
        S_next=_address(S_next, "F"),
        agent_x=_address(agent_x, "C"),
        lap_cols=_address(stage.laplacian.cols, "C"),
        lap_vals=_address(stage.laplacian.vals, "C"),
        idx=_address(stage.product.idx, "C"),
        val=_address(stage.product.val, "C"),
        count=_address(stage.product.count, "C"),
        states=_address(states, "C"),
        lx=_address(lx, "C"),
        controls=_address(controls, "C"),
        energy=_address(energy, "C"),
        exchange=None if exchange is None else _address(exchange, "C"),
        **{k: v if np.isscalar(v) else _address(v, "C") for k, v in native.items()},
    )
    run.agent_x_array = agent_x  # held while run points at it
    grid = None  # the gather's arrays, held while run points at them

    def point():
        nonlocal grid
        grid = lookup()
        run.points = grid[0].shape[0]
        run.point, run.solved, run.table = (_address(a, "C") for a in grid)

    if lookup is not None:
        point()
    call = functools.partial(lib.cohsync_run, ctypes.addressof(run))

    def steps(w, first, stop):
        address = None if w is None else w.ctypes.data
        while (code := call(address, first, stop)) == GAINS:
            regather()
            run.keyed = 1
            point()
        return run.step, run.envelope if code == ENVELOPE else None

    return steps


class _Csv(ctypes.Structure):
    """The mirror of _step.c's struct csv, field by field."""

    _fields_ = [(name, ctypes.c_int64) for name in ("agents", "cols", "size", "e_lo", "slow")] + [
        (name, ctypes.c_void_p)
        for name in ("col", "sample_step", "agent_step", "text", "time_at", "agent_at")
        + ("head", "head_hi", "head_lo", "tail", "pow10", "out", "slow_at", "slow_value")
    ]


def compiled_csv(lib, columns, times, agents, tables, e_lo: int, step: int):
    """trajectory.csv's rows through _step.c, step rows at a time, as the
    pieces of bytes to write in turn; each piece is valid until the next
    is asked for.

    columns are the (samples, agents) float arrays of a row's numbers, in
    order; times and agents the texts "t," of each sample and "i," of each
    agent; tables the head, head_hi, head_lo, tail and pow10 of
    simulate._g17_powers, whose row 1 is for 10^e_lo.  A value _step.c
    leaves to Python is written by "%.17g" here.
    """
    samples, n_agents = columns[0].shape
    if any(c.dtype != np.float64 or c.shape != (samples, n_agents) or any(s % 8 for s in c.strides) for c in columns):
        raise ValueError("every column must be a (samples, agents) float64 array")
    if (len(times), len(agents)) != (samples, n_agents):
        raise ValueError("one text is needed for each sample and each agent")
    # Every array the table points at stays alive in this frame.
    addresses = np.array([c.ctypes.data for c in columns], np.int64)
    sample_step, agent_step = (np.array([c.strides[axis] // 8 for c in columns], np.int64) for axis in (0, 1))
    text = np.frombuffer(b"".join(times + agents), np.uint8)
    at = np.cumsum([0] + [len(t) for t in times + agents], dtype=np.int64)  # the agents' texts follow the times'
    time_at, agent_at = at[: samples + 1], at[samples:]
    row_bytes = max(map(len, times)) + max(map(len, agents)) + _FIELD_BYTES * len(columns)
    out = np.empty(step * row_bytes + _CSV_SLACK, np.uint8)
    slow_at, slow_value = np.empty(step * len(columns), np.int64), np.empty(step * len(columns))
    table = _Csv(
        agents=n_agents,
        cols=len(columns),
        size=tables[-1].shape[0],
        e_lo=e_lo,
        col=_address(addresses, "C"),
        sample_step=_address(sample_step, "C"),
        agent_step=_address(agent_step, "C"),
        text=text.ctypes.data,
        time_at=_address(time_at, "C"),
        agent_at=_address(agent_at, "C"),
        out=out.ctypes.data,
        slow_at=_address(slow_at, "C"),
        slow_value=_address(slow_value, "C"),
        **{name: _address(a, "C") for name, a in zip(("head", "head_hi", "head_lo", "tail", "pow10"), tables)},
    )
    view = memoryview(out)
    for start in range(0, samples * n_agents, step):
        end = lib.cohsync_csv(ctypes.byref(table), start, min(start + step, samples * n_agents))
        done = 0
        for offset, value in zip(slow_at[: table.slow].tolist(), slow_value[: table.slow].tolist()):
            yield view[done:offset]
            yield b"%.17g" % value
            done = offset
        yield view[done:end]
