"""Child processes of the benchmark, and what ``/proc`` says about them.

Every process the benchmark starts leads its own session, so the whole
tree it spawns (replica processes, index-build workers) shares one
process group that :func:`reap` can wait on and, if needed, kill.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for one run; listed in ``.gitignore``.
WORK = ROOT / ".bench_work"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def child_env() -> dict[str, str]:
    """Environment for every child: the source tree on the path, temp
    files inside the checkout, no inherited profiling or fault plans."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["TMPDIR"] = str(WORK / "tmp")
    # a fixed hash seed keeps set/dict layouts, and so timings, alike
    # between runs; the program's outputs do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    for name in ("REPRO_PROFILE", "REPRO_SERVE_FAULTS"):
        env.pop(name, None)
    return env


def spawn(args: list[str], **kwargs: Any) -> subprocess.Popen:
    """Start ``python args…`` from the checkout root in a new session."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    return subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        start_new_session=True, **kwargs,
    )


def _group_members(pgid: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # fields after the command name: state, ppid, pgrp, …
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def reap(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """Wait for ``proc`` and every process in its group to end.

    Past ``timeout`` the group is killed.  Returns ``proc``'s exit code.
    """
    deadline = time.monotonic() + timeout
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    while _group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    if proc.poll() is None or _group_members(proc.pid):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        while _group_members(proc.pid):
            time.sleep(0.02)
    return proc.returncode


def stop(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """SIGTERM ``proc`` (a clean drain), then :func:`reap` its group."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    return reap(proc, timeout)


def run_json(args: list[str], timeout: float = 170.0) -> dict[str, Any]:
    """Run a child that prints one JSON object as its last stdout line."""
    proc = spawn(
        args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        reap(proc, 0.0)
        raise RuntimeError(f"child {args[:3]} timed out after {timeout}s")
    finally:
        reap(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"child {args[:3]} exited {proc.returncode}: {err.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of one live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of stat (11 and 12 after comm)
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")
