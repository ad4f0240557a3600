"""Run one pass of a workload in a fresh interpreter.

Usage (from the directory holding jobs.json and the input files):

    python3 worker.py TRACE SPANS_FILE SPAWNED_AT

Imports qsteane from the checkout's src/ and runs one trivial CLI call;
the time from SPAWNED_AT (the parent's time.time() just before the
spawn) to the end of that call is the set-up time. Then it runs every
job of jobs.json in order through `qsteane.cli.main(argv)` with stdout
and stderr captured, and writes pass.json: the set-up call and time,
per-job exit code, output and seconds, the process's peak resident
memory, the speed probe's scale factor (calibrate.py; the time spent in
the probe is left out of the set-up and job times), and, with TRACE=1,
the span summary (the spans themselves go to SPANS_FILE). A fresh
interpreter per pass means no pass inherits a cache filled by an
earlier one.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from calibrate import SpeedProbe

# The probe runs from the start, so the set-up's time can be scaled too.
PROBE = SpeedProbe()
PROBE.start()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qsteane.cli  # noqa: E402

SETUP_ARGV = ["family", "F3", "3", "0"]  # parameters only: prints [[8,3,3]]


def run_job(argv):
    out, err = io.StringIO(), io.StringIO()
    exception = None
    spent, start = PROBE.spent, time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qsteane.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed job, not a failed benchmark
            rc, exception = None, traceback.format_exc()
    seconds = time.perf_counter() - start - (PROBE.spent - spent)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": seconds, "exception": exception}


def peak_rss_kb():
    """Peak resident memory of this process image. (getrusage's ru_maxrss
    would also hold the parent's peak: Linux carries it across exec.)"""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    trace, spans_file, spawned_at = sys.argv[1] == "1", sys.argv[2], float(sys.argv[3])
    trivial = run_job(SETUP_ARGV)
    setup_s = time.time() - spawned_at - PROBE.spent
    jobs = json.loads(Path("jobs.json").read_text())
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = [run_job(job["argv"]) for job in jobs]
    PROBE.stop()
    report = {"setup": trivial, "setup_s": setup_s, "jobs": results,
              "scale": PROBE.scale(), "rss_kb": peak_rss_kb()}
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write_spans(spans_file)
    Path("pass.json").write_text(json.dumps(report))


if __name__ == "__main__":
    try:
        main()
    finally:
        PROBE.stop()
