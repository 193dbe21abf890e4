"""Runs the benchmark's commands in a process that stays small.

On Linux a child's peak RSS (ru_maxrss) also counts the memory high-water
mark of the process that spawned it, taken when the child calls exec.  The
harness grows while it checks large outputs and runs the traced commands in
process, so it hands every command to this process instead, which holds
little memory, and gets back the command's exit code, wall time and peak RSS
from os.wait4 on that one child.

Protocol: one JSON request per line on stdin with argv, env, cwd, stdout,
stderr (file paths) and timeout (seconds); one JSON reply per line on stdout
with wall, code and maxrss_kb.  Run with ``python3 -S``.
"""

import json
import os
import signal
import sys
import time


def run(request: dict) -> dict:
    os.chdir(request["cwd"])
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], create, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], create, 0o600),
    ]
    argv = request["argv"]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    # Wait without reaping, so the alarm can never signal a reused pid.
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {"wall": wall, "code": os.waitstatus_to_exitcode(status),
            "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
