"""Child-process launcher with a small memory footprint.

Linux carries a parent's peak RSS into the ``ru_maxrss`` of a child it
forks, so a benchmark process that has imported numpy would report its own
peak for every CLI process it starts. This launcher imports only the
standard library and is started before anything heavy is imported; it runs
each command it is sent and replies with the command's wall time, exit code
and the peak RSS from the child's own rusage.

Protocol: one JSON object per line on stdin, ``{"argv": [...], "env":
{...}, "stdout": path, "stderr": path}``; one JSON reply per line on
stdout, ``{"seconds": s, "peak_rss_mb": mb, "returncode": rc}``. The
launcher exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                env=dict(os.environ, **req["env"]))
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "returncode": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
