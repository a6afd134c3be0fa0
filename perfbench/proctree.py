"""CPU and resident memory of a process tree, read from ``/proc``.

The warm worker pool keeps its workers alive until the coordinator
exits, so ``getrusage(RUSAGE_CHILDREN)`` sees none of their work while a
run is being measured.  These helpers read every live descendant
directly instead: CPU from ``/proc/<pid>/stat`` (own plus reaped
children) and peak RSS from ``VmHWM`` in ``/proc/<pid>/status``.
"""

import os

_TICK = float(os.sysconf("SC_CLK_TCK"))


def _stat_fields(pid):
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            raw = fh.read()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2:].split()


def descendants(pid):
    """Pids of every live descendant of ``pid``."""
    children = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(name))
    found, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), ()):
            found.append(child)
            todo.append(child)
    return found


def cpu_seconds(pid):
    """User + system CPU of ``pid`` and of its reaped children."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # utime, stime, cutime, cstime are fields 14-17 of stat(5); the
    # slice starts at field 3 (state)
    return sum(int(v) for v in fields[11:15]) / _TICK


def peak_rss_mb(pid):
    """``VmHWM`` (peak resident set) of ``pid`` in MiB, 0 if gone."""
    try:
        with open("/proc/%d/status" % pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree(pid):
    """``(cpu_s, peak_rss_mb)`` summed over ``pid`` and its descendants."""
    pids = [pid] + descendants(pid)
    return (sum(cpu_seconds(p) for p in pids),
            sum(peak_rss_mb(p) for p in pids))
