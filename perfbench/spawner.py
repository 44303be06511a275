"""Starts the benchmark's child processes from a small interpreter.

On Linux the peak RSS that wait4 reports for a child includes the peak of
the address space it was forked from, because exec records the old space's
high-water mark.  The benchmark process holds numpy, the generated inputs
and, in a traced run, the CLI's row lists, so children are started from
here instead: this process imports neither numpy nor the package.

Protocol: one JSON array (an argv) per stdin line; for each, one JSON
object per stdout line with the child's start and exit times (monotonic
ns), exit code, own peak RSS, stdout and stderr.  Ends when stdin closes.

    python3 spawner.py <cwd for children> <directory for output files>
"""

import json
import os
import subprocess
import sys
import tempfile
import time


def run(argv: list, cwd: str, workdir: str) -> dict:
    # output goes to files, so a chatty child cannot block on a full pipe
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "start_ns": start,
            "end_ns": end,
            "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out.read().decode(errors="replace"),
            "stderr": err.read().decode(errors="replace"),
        }


def main() -> int:
    cwd, workdir = sys.argv[1], sys.argv[2]
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line), cwd, workdir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
