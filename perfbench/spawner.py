"""Start child processes on request; report their wall time and peak RSS.

Reads one JSON request per line on stdin,
    {"argv": [...], "stdin": PATH, "stdout": PATH, "stderr": PATH}
and answers each with one JSON line,
    {"rc": EXIT_CODE, "wall_s": SECONDS, "maxrss_kib": KIB}
until stdin closes.

The peak RSS that wait4 reports for a child includes the high-water mark
of the process that started it (Linux carries it over at exec). The
benchmark process holds the inputs and expected outputs, so children are
started from this small process instead.
"""

import json
import os
import signal
import sys
import time


def spawn(argv: list[str], stdin: str, stdout: str, stderr: str) -> dict:
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, stdin, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, write, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return {"rc": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kib": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(spawn(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
