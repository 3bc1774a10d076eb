"""Process lifecycle of a benchmark run: deadline, scratch space, leak checks.

A benchmark that leaves a thread, a child process, a socket file or a
temp dir behind poisons the next run's numbers (and got the first attempt
at this benchmark rejected), so the end-of-run check here is part of the
result: a leak fails the run like a wrong answer does.
"""

from __future__ import annotations

import faulthandler
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import List, NoReturn, Optional, Set

#: Repository (or checkout) root: this file is ``<root>/benchmarks/e2e/``.
ROOT = Path(__file__).resolve().parents[2]

#: Everything the benchmark writes goes under here (named in .gitignore).
SCRATCH = ROOT / ".bench_tmp"

#: Threads of process-wide executors inside ``repro`` that have no public
#: shutdown (``repro.smb.memory``'s accumulate pool).  They idle on a
#: queue and ``concurrent.futures`` joins them at interpreter exit.
_PROCESS_WIDE_THREAD_PREFIXES = ("smb-accum",)

_DEADLINE_THREAD = "bench-deadline"

_SHM_DIR = Path("/dev/shm")


def make_tmp(label: str) -> Path:
    """A fresh directory under :data:`SCRATCH`; the caller removes it."""
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-{label}-", dir=SCRATCH))


def remove_tmp(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()  # only succeeds once the last run dir is gone
    except OSError:
        pass


def short_path(path: Path) -> str:
    """``path`` spelled to fit a UNIX socket address (108 bytes).

    A checkout can live arbitrarily deep; relative to the working
    directory the same file is usually a few dozen characters.
    """
    absolute = str(path)
    relative = os.path.relpath(absolute)
    return relative if len(relative) < len(absolute) else absolute


class Deadline:
    """Hard wall-clock limit for the whole process.

    At ``seconds`` every thread's stack is dumped to stderr and the
    process exits with status 2 without running any clean-up — a hung
    benchmark must never outlive its slot.  :meth:`cancel` disarms it.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self._timer = threading.Timer(seconds + 0.5, os._exit, args=(2,))
        self._timer.daemon = True
        self._timer.name = _DEADLINE_THREAD

    def __enter__(self) -> "Deadline":
        faulthandler.dump_traceback_later(self.seconds, exit=False)
        self._timer.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.cancel()

    def cancel(self) -> None:
        faulthandler.cancel_dump_traceback_later()
        self._timer.cancel()
        self._timer.join()


def shm_blocks() -> Set[str]:
    """Names of the shared-memory blocks Python processes have created."""
    try:
        return {p.name for p in _SHM_DIR.iterdir() if p.name.startswith("psm_")}
    except OSError:
        return set()


def _stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing.shared_memory`` spawns.

    Before Python 3.13 attaching to a block registers it with the
    resource tracker, which is a child process that otherwise outlives
    ``main`` by a moment.  ``_stop`` closes its pipe and reaps it.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _child_pids() -> List[int]:
    pids: List[int] = []
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(int(pid) for pid in children.read_text().split())
        except OSError:
            continue  # a thread that just exited
    return pids


def _stray_threads() -> List[threading.Thread]:
    return [
        t for t in threading.enumerate()
        if t is not threading.main_thread()
        and t.is_alive()
        and t.name != _DEADLINE_THREAD  # the check runs under the deadline
        and not t.name.startswith(_PROCESS_WIDE_THREAD_PREFIXES)
    ]


def leaks(shm_before: Optional[Set[str]] = None, grace: float = 5.0) -> List[str]:
    """What this process would leave behind if it exited now.

    Connection-handler threads of the servers end on their own once the
    peer closes, so stragglers get ``grace`` seconds before they count.
    Returns one line per leak; empty means clean.
    """
    _stop_resource_tracker()
    deadline = time.monotonic() + grace
    while _stray_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    found = [
        f"thread still alive: {t.name} (daemon={t.daemon})"
        for t in _stray_threads()
    ]
    found += [f"child process left: pid {pid}" for pid in _child_pids()]
    if SCRATCH.exists():
        mine = [p.name for p in SCRATCH.glob(f"{os.getpid()}-*")]
        found += [f"temp dir left: {SCRATCH / name}" for name in mine]
    if shm_before is not None:
        found += [
            f"shared-memory block left: {name}"
            for name in sorted(shm_blocks() - shm_before)
        ]
    return found


def fail(message: str, code: int = 2) -> NoReturn:
    """Exit without printing a result line."""
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(code)
