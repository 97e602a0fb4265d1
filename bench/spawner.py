"""Start the CLI processes of the `cli` workload from a small process.

    python3 -S bench/spawner.py

Reads one JSON object per line on standard input, {"cmd": [...], "cwd": ...},
runs the command and answers with one JSON line: its return code, standard
output and standard error, and the largest ``ru_maxrss`` (KiB) of any
command run so far.  Exits at the end of its input.

Linux counts the resident set a child has at fork, which is its parent's,
in the child's ``ru_maxrss``.  The worker holds numpy, scipy and the
reference outputs, more than a CLI process needs, so commands started from
it would report the worker's size.  This process imports only the standard
library.
"""

import json
import resource
import subprocess
import sys


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        out = subprocess.run(req["cmd"], cwd=req["cwd"], capture_output=True, text=True)
        reply = {"returncode": out.returncode, "stdout": out.stdout, "stderr": out.stderr,
                 "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
