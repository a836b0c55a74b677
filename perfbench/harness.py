"""Drive `qlrc.cli.main` in-process, one op at a time, and check its stdout
against the golden SHA-256 digests recorded beside the benchmark."""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
import traceback
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# The machine's speed is measured with a fixed pure-Python loop run between
# commands; times are reported scaled to a machine on which the loop takes
# REFERENCE_S, about what it takes on an unloaded 2-core x86-64 VM.
REFERENCE_LOOPS = 100_000
REFERENCE_S = 0.008


class MissingSource(RuntimeError):
    pass


def reference() -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def make_hermetic() -> None:
    """Pin what the environment could change before numpy or qlrc load.

    QLRC_BUDGET would change how many sweep rows run brute-force oracles.
    """
    os.environ.pop("QLRC_BUDGET", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_cli():
    """Import qlrc.cli from this checkout's src/, never from site-packages."""
    if not (SRC / "qlrc" / "cli.py").is_file():
        raise MissingSource(f"no qlrc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qlrc.cli
    return qlrc.cli


def load_golden() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


class _Capture(io.TextIOBase):
    """A text stream that keeps what is written and when writing began."""

    def __init__(self):
        super().__init__()
        self.parts: list[str] = []
        self.first: float | None = None

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if self.first is None:
            self.first = time.perf_counter()
        self.parts.append(s)
        return len(s)

    def text(self) -> str:
        return "".join(self.parts)


class Result(NamedTuple):
    rc: int | None  # None when main raised
    start: float
    first: float | None  # first stdout write
    end: float
    stdout: str
    stderr: str

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def first_output(self) -> float | None:
        return None if self.first is None else self.first - self.start


def invoke(cli, argv) -> Result:
    """Call cli.main(argv) with stdout and stderr captured.

    main is looked up on every call so that a wrapped main is the one timed.
    """
    out, err = _Capture(), _Capture()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        rc = cli.main(list(argv))
    except Exception:  # the op fails; the run goes on and reports it
        rc = None
        err.write(traceback.format_exc())
    finally:
        end = time.perf_counter()
        sys.stdout, sys.stderr = saved
    return Result(rc, start, out.first, end, out.text(), err.text())


def digests(op, stdout: str) -> list[str]:
    """SHA-256 of each stdout line (sweep rows) or of the whole stdout."""
    if not op.per_line:
        return [hashlib.sha256(stdout.encode()).hexdigest()]
    lines = stdout.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [hashlib.sha256((line + "\n").encode()).hexdigest() for line in lines]


def failures(op, result: Result, golden: dict[str, str]) -> list[tuple[str, str]]:
    """(key, reason) for each output unit of op that is wrong.

    Keys name the instance, as in `construct 19,19,19,3,2`.
    """
    if result.rc != 0:
        last = result.stderr.strip().splitlines()[-1:] or [""]
        return [(key, f"exit {result.rc}: {last[0]}") for key in op.keys]
    out = []
    for i, (key, digest) in enumerate(zip_longest(op.keys, digests(op, result.stdout))):
        if key is None:
            out.append((f"{' '.join(op.argv)} line {i + 1}", "unexpected output line"))
        elif digest is None:
            out.append((key, "missing from output"))
        elif golden.get(key) != digest:
            out.append((key, "stdout differs from the golden digest"))
    return out
