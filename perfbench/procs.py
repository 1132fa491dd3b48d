"""Fresh child processes, timed one at a time, with their resource usage."""

from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CHILD_TIMEOUT_S = 120.0


@dataclass
class ChildRun:
    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float        # user + sys, from wait4
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], *, env: dict, cwd: Path, scratch: Path,
              timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run argv to completion; stdout and stderr go through files in scratch.

    The wall time spans process creation to reaping.  A child that outlives
    the timeout is killed and reported with its signal exit code.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(argv=list(argv), code=proc.returncode, wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    maxrss_mb=usage.ru_maxrss / 1024.0,
                    stdout=out_path.read_bytes(), stderr=err_path.read_bytes())
