"""Runs the benchmark's timed commands on behalf of run.py.

A child's peak RSS (ru_maxrss) starts at the RSS of the process it was forked
from, so commands are forked from this small process rather than from run.py,
which holds generated inputs.  Protocol: one JSON request per stdin line,
{"argv": [...], "out": PATH, "timeout": SECONDS}; one JSON reply per stdout
line, {"seconds", "rss_kb", "code"}.  stdout goes to PATH, stderr to
PATH.err.  A command still running after `timeout` seconds is killed.
"""
import json
import os
import signal
import sys
import time


def run(argv, out_path, timeout):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out = os.open(out_path, flags, 0o644)
    err = os.open(out_path + ".err", flags, 0o644)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    os.close(out)
    os.close(err)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    signal.alarm(0)
    return {"seconds": seconds, "rss_kb": usage.ru_maxrss,
            "code": os.waitstatus_to_exitcode(status)}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["out"], int(request["timeout"]))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
