"""Start each case process from a small parent, and report its own usage.

A child's max RSS counts the memory of the process that spawned it, since
the child runs in its parent's address space until it execs.  Spawned from
the harness, every case would report at least the harness's size.  This
script imports only what it needs to stay small.  It reads one JSON argv
list per line from stdin, runs ``python -m pluckerpush`` with it, and writes
one JSON line back: [exit code, stdout, wall seconds, user+sys CPU seconds,
max RSS in KiB].  It exits at the end of its input.
"""

import json
import os
import sys
import time


def run(argv: list[str]) -> list:
    read_end, write_end = os.pipe()
    actions = [
        (os.POSIX_SPAWN_DUP2, write_end, 1),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_CLOSE, read_end),
        (os.POSIX_SPAWN_CLOSE, write_end),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "pluckerpush", *argv], os.environ, file_actions=actions)
    os.close(write_end)
    chunks = []
    while chunk := os.read(read_end, 1 << 16):
        chunks.append(chunk)
    os.close(read_end)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    out = b"".join(chunks).decode()
    return [os.waitstatus_to_exitcode(status), out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]


for line in sys.stdin:
    sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
    sys.stdout.flush()
