"""Child launcher for run.py: starts one command at a time and times it.

Reads one JSON list (an argv) per line on stdin, runs it in this process's
working directory and environment, and answers with one JSON line:
[launch-to-exit seconds, peak RSS in KiB, exit status, output].

The peak RSS that wait4 reports for a child also counts the memory of the
process that forked it, up to the exec.  Children are therefore started
from this small process, not from run.py, which holds the references and
the parsed CSVs.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    while line := sys.stdin.readline():
        argv = json.loads(line)
        begin = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        with proc.stdout:
            output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - begin
        proc.returncode = os.waitstatus_to_exitcode(status)
        answer = [seconds, usage.ru_maxrss, proc.returncode, output.decode("utf-8", "replace")]
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
