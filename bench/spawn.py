"""Process launcher kept small, so that child RSS is the child's own.

Linux counts a child's resident set from before ``exec`` in its peak RSS, so
children forked by a process holding numpy, scipy and the references would
report that process's memory. run.py therefore starts every timed command
through this stdlib-only process: one JSON argv list per stdin line in, one
JSON line ``[wall_s, exit_code, cpu_s, peak_rss_mb]`` per command out, where
CPU is the child's user + system time and peak RSS the largest over all
children so far (``RUSAGE_CHILDREN``).

Usage: python3 bench/spawn.py STDERR_FILE
"""

import json
import resource
import subprocess
import sys
import threading
import time

TIMEOUT_S = 30  # a command of the benchmark's workloads takes about 2 s at most


def main(stderr_path):
    with open(stderr_path, "ab") as stderr:
        for line in sys.stdin:
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            proc = subprocess.Popen(json.loads(line), stdout=subprocess.DEVNULL, stderr=stderr)
            # A blocking wait: Popen.wait(timeout=...) polls in steps of up to 50 ms.
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
            print(json.dumps([wall, code, cpu, after.ru_maxrss / 1024]), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
