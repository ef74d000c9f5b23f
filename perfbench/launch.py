"""Starts the benchmark's child processes, times them and reads their peak RSS.

Linux keeps a process's peak RSS at least as high as the peak of the memory
image it replaced at exec, which for a freshly spawned child is the image of
the process that spawned it.  Children started by the benchmark itself would
therefore report the benchmark's peak, not their own.  This launcher holds
only a few megabytes, so the peak that ``wait4`` reports for one of its
children is that child's own.

Protocol: one JSON request per stdin line,
``[argv, stdout path, stderr path, timeout seconds]``, answered by one JSON
line ``[seconds from spawn to exit, peak RSS in KiB, exit code, timed out]``.
The launcher exits when stdin closes.
"""

import json
import os
import select
import signal
import sys
import time


def run(argv, stdout_path, stderr_path, timeout):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], timeout)
        if not exited:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
    finally:
        os.close(pidfd)
    return [seconds, usage.ru_maxrss, os.waitstatus_to_exitcode(status), not exited]


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(*json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
