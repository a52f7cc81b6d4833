"""CPU time, memory and lifetime of one process group, read from /proc.

The benchmark's Ray session runs in a child process that leads its own
process group; ``ray.init`` starts the GCS, the raylet and the workers
inside that group, so the group is the session's whole process tree.
``run.py`` is also a child subreaper: a process whose parent ends is
re-parented to it rather than to init, so :func:`reap_descendants` can end
and reap everything the run started before the run exits.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def _group(pgid: int) -> dict[int, tuple[int, float]]:
    """pid -> (utime+stime ticks, RSS MB) of every live process in the group."""
    out = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                s = f.read()
            # fields after the parenthesised command name, which may hold spaces
            fields = s[s.rindex(")") + 2 :].split()
            # a zombie has ended; whoever reaps it is outside the group
            if int(fields[2]) != pgid or fields[0] == "Z":
                continue
            with open(f"/proc/{pid}/statm") as f:
                rss = int(f.read().split()[1]) * _PAGE_MB
        except (OSError, IndexError, ValueError):  # ended while being read
            continue
        out[int(pid)] = (int(fields[11]) + int(fields[12]), rss)
    return out


class GroupMeter:
    """CPU seconds and peak resident memory of a process group over an
    interval. The raylet does not collect the CPU time of workers that exit
    (their time never reaches its cutime), so CPU is tracked per process
    from periodic samples: a process that ends inside the interval counts
    up to its last sample."""

    def __init__(self, pgid: int) -> None:
        self.pgid = pgid
        now = _group(pgid)
        self.base = {pid: ticks for pid, (ticks, _) in now.items()}
        self.last = dict(self.base)
        self.rss_peak_mb = sum(rss for _, rss in now.values())

    def sample(self) -> None:
        now = _group(self.pgid)
        for pid, (ticks, _) in now.items():
            self.last[pid] = ticks
        self.rss_peak_mb = max(self.rss_peak_mb, sum(rss for _, rss in now.values()))

    def cpu_s(self) -> float:
        self.sample()
        return sum(t - self.base.get(pid, 0) for pid, t in self.last.items()) / _TICK


def kill_group(pgid: int, timeout: float = 20.0) -> bool:
    """SIGKILL every process of the group and wait until none is left.
    Returns False if some process outlived ``timeout``."""
    end = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if not _group(pgid):
            return True
        if time.monotonic() > end:
            return False
        time.sleep(0.05)


_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def _prctl(option: int, arg: int) -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(option, arg, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), f"prctl({option}, {arg})")


def become_subreaper() -> None:
    """Orphaned descendants of this process are re-parented to it."""
    _prctl(_PR_SET_CHILD_SUBREAPER, 1)


def die_with_parent() -> None:
    """This process is SIGKILLed when its parent ends."""
    _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def descendants(root: int) -> list[int]:
    """Every process below ``root`` in the process tree, zombies included."""
    children: dict[int, list[int]] = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                s = f.read()
            ppid = int(s[s.rindex(")") + 2 :].split()[1])
        except (OSError, IndexError, ValueError):  # ended while being read
            continue
        children.setdefault(ppid, []).append(int(pid))
    out, todo = [], [root]
    while todo:
        for pid in children.get(todo.pop(), ()):
            out.append(pid)
            todo.append(pid)
    return out


def reap_descendants(timeout: float = 20.0) -> bool:
    """SIGKILL every descendant of this process and reap it, until this
    process has no child left, zombies included. Returns False if some
    descendant outlived ``timeout``."""
    end = time.monotonic() + timeout
    while True:
        for pid in descendants(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:  # no child left
            return True
        if time.monotonic() > end:
            return False
        time.sleep(0.05)
