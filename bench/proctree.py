"""CPU time and peak memory of a process and its live descendants (Linux /proc)."""

from __future__ import annotations

import os
import resource

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:  # the process ended between listing and reading
        return None
    # the command name may hold spaces and parentheses; fields resume after the last ')'
    return text[text.rindex(")") + 2 :].split()


def descendants(root: int) -> list[int]:
    """Live processes below ``root``, found through their parent ids.

    Only pids above ``root`` are read, which keeps a scan well under a
    millisecond: a process started after ``root`` has a larger pid unless
    pid numbers wrapped around in between.
    """
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit() and int(entry) > root:
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def tree_cpu_s() -> float:
    """User+sys seconds of this process, its reaped children and its live descendants.

    Live workers count too, so a pool that outlives an operation is still charged.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    for pid in descendants(os.getpid()):
        fields = _stat_fields(pid)
        if fields is not None:  # utime, stime, cutime, cstime
            total += sum(int(v) for v in fields[11:15]) / _TICK
    return total


def hwm_kib(pid: int) -> int:
    """Resident high-water mark (VmHWM) of a live process in KiB, 0 if unknown."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
