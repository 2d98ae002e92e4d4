"""Lean process that starts the benchmark's children one at a time.

A child's peak RSS as ``wait4`` reports it is at least the peak RSS of the
process that started it, because the child runs in (a copy of) its parent's
memory until ``exec``.  The benchmark process holds reference digits and
request lists, so it would set that floor above the program's own peak;
this spawner runs under ``python -S -I`` with the standard library only and
keeps the floor well below it.

Protocol, one JSON line each way per child: the request is
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``;
the reply is ``{"code": int or null, "cpu_s": float, "rss_kb": int}``,
``code`` null when the child was killed at the timeout.  Children inherit
this process's environment and working directory.
"""

import json
import os
import select
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
            proc = subprocess.Popen(job["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], max(job["timeout"], 0.0))
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode if exited else None,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
