"""End-to-end benchmark of the qsteane CLI.

    python3 perfbench/run.py --workload table1|quantum|classical|algebra|all
                             [--seed N] [--seconds S] [--trace 0|1] [--record]

Run from the root of a checkout. The benchmark writes seeded input files
to perfbench/.work/<workload>-<seed>/, then runs a closed loop: one
client, one job at a time, a pass being one run through the workload's
job list (see workloads.py). Each pass runs in a fresh interpreter
(worker.py) that calls `qsteane.cli.main(argv)` in-process, so no pass
inherits a cache filled by an earlier one, as no user's `qsteane` call
does. Passes start until the next one would end after --seconds.

With --trace 0 it reports the end-to-end metrics:
  pass_s       median wall time of one pass (import excluded)
  pass_tail_s  highest percentile of pass time with at least ten passes
               beyond it; in runs of fewer than 100 passes, the 90th
               percentile (see tail())
  setup_s      median time to start a pass's fresh interpreter, import
               qsteane and run one trivial CLI call
  peak_rss_mb  peak resident memory of the pass processes
and error_rate (failed jobs / attempted jobs) in the text report and as
the result's `failed` / `attempted`. A job fails on a wrong output, an
unexpected exit code, an exception or a cap refusal.

Every time reported is scaled to a fixed machine speed. The host is
shared and its speed swings by up to 2x, so a speed probe (calibrate.py,
no qsteane code) samples the speed all through each pass, and the pass's
times are scaled by it. A change to qsteane moves them as it moves the
wall time; the host's swings do not. The text report shows the unscaled
wall time too. Span times still hold the probe's own share, under 1%.

With --trace 1 passes alternate untraced and traced (tracer.py); it
reports the per-layer counts and self times of the traced passes, each
module's share of self time, and the tracing overhead (traced pass_s
minus untraced pass_s).

--record runs one pass at the default seed and stores its outputs in
expected.json; later default-seed runs must reproduce them exactly.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected.json"
# Every run, set-up included, ends well inside three minutes.
RUN_LIMIT_S = 160.0


class BenchError(RuntimeError):
    pass


def tail(samples):
    """(value, label) of the tail pass time.

    The highest percentile with at least ten samples beyond it, once a
    run holds 100 passes or more. Below that, that percentile falls under
    p90 (to the fastest pass at 11 passes), so the 90th percentile by
    nearest rank is taken instead: the slowest pass for up to nine.
    """
    s = sorted(samples)
    i = max(math.ceil(0.9 * len(s)) - 1, len(s) - 11)
    return s[i], f"p{100 * (i + 1) / len(s):.0f} of {len(s)} passes, {len(s) - 1 - i} beyond it"


def run_pass(workdir, trace, index, started):
    left = RUN_LIMIT_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("run time limit reached")
    (workdir / "pass.json").unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "1" if trace else "0",
                               f"spans-{index}.tsv", repr(time.time())],
                              cwd=workdir, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("pass did not finish within the run time limit") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads((workdir / "pass.json").read_text())
    if report["setup"]["rc"] != 0 or report["setup"]["stdout"] != "[[8,3,3]]\n":
        raise BenchError(f"set-up call failed: {report['setup']}")
    report["wall"] = wall
    report["seconds"] = sum(job["seconds"] for job in report["jobs"])
    report["scaled"] = report["seconds"] * report["scale"]
    report["setup_scaled"] = report["setup_s"] * report["scale"]
    report["traced"] = trace
    return report


def layer_values(summary):
    """Per-layer metrics of one traced pass: {name: (value, unit, better)}."""
    names, counts, under = summary["names"], summary["counts"], summary["under"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    v = {}
    for fn in ("LinearCode.init", "rref_ints", "dual", "is_subcode", "in_rowspan", "parse_matrix"):
        v[f"gf2.{fn}.calls"] = (get(f"gf2.{fn}", "calls"), "count", "lower")
        v[f"gf2.{fn}.self_s"] = (get(f"gf2.{fn}", "self_s"), "s", "lower")
    v["gf2.lex_key.calls"] = (counts.get("gf2.lex_key", 0), "count", "lower")
    v["gf2.enumerate_span.words"] = (counts.get("gf2.enumerate_span", 0), "count", "lower")
    for fn in ("min_distance", "second_gdw", "quantum_distance_exact"):
        name = f"distances.{fn}"
        v[f"{name}.calls"] = (get(name, "calls"), "count", "lower")
        v[f"{name}.self_s"] = (get(name, "self_s"), "s", "lower")
        v[f"{name}.visited"] = (get(name, "extra"), "count", "lower")
        v[f"{name}.visited_per_s"] = (ratio(get(name, "extra"), get(name, "total_s")), "1/s", "higher")
    fsd = "steane.find_self_dual_subcode"
    yielded = counts.get("steane.rref_subspaces", 0)
    isotropic = under.get(f"{fsd}>distances.min_distance", 0)
    v[f"{fsd}.self_s"] = (get(fsd, "self_s"), "s", "lower")
    v["steane.rref_subspaces.yielded"] = (yielded, "count", "lower")
    v[f"{fsd}.isotropic"] = (isotropic, "count", "lower")
    v[f"{fsd}.useful_ratio"] = (ratio(isotropic, yielded), "ratio", "higher")
    ce = "steane.certified_enlarge"
    candidates = under.get(f"{ce}>distances.quantum_distance_exact", 0)
    v[f"{ce}.calls"] = (get(ce, "calls"), "count", "lower")
    v[f"{ce}.self_s"] = (get(ce, "self_s"), "s", "lower")
    v[f"{ce}.candidates"] = (candidates, "count", "lower")
    v[f"{ce}.useful_ratio"] = (ratio(get(ce, "extra"), candidates), "ratio", "higher")
    v["steane.steane_enlarge.self_s"] = (get("steane.steane_enlarge", "self_s"), "s", "lower")
    v["steane.is_stabilizer_code.self_s"] = (get("steane.is_stabilizer_code", "self_s"), "s", "lower")
    for name in ("bch.build_family_code", "bch.extended_bch", "bch.coset_extend", "table1.check_row"):
        v[f"{name}.calls"] = (get(name, "calls"), "count", "lower")
        v[f"{name}.self_s"] = (get(name, "self_s"), "s", "lower")
    for name in ("bounds.emit_curve", "bounds.write_curve_csv", "cli.main"):
        v[f"{name}.self_s"] = (get(name, "self_s"), "s", "lower")
    total = sum(summary["modules"].values())
    for module in ("gf2", "distances", "steane", "bch", "table1", "bounds", "cli"):
        v[f"{module}.self_share"] = (ratio(summary["modules"].get(module, 0.0), total), "ratio", "lower")
    return v


def run_workload(name, seed, seconds, trace, record=False):
    started = time.monotonic()
    if not (ROOT / "src" / "qsteane" / "cli.py").is_file():
        raise BenchError(f"no qsteane sources under {ROOT / 'src'}; run from the root of a checkout")
    files, jobs = workloads.generate(name, seed)
    digest = workloads.input_digest(files, jobs)
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    expected = recorded.get(name)
    if expected is None and not record:
        raise BenchError(f"no recorded outputs for {name} in {EXPECTED.name}; run with --record")
    # The same seed gives the same bytes, here and (through the recorded
    # digest of the default seed) in any other process; another seed does not.
    deterministic = workloads.input_digest(*workloads.generate(name, seed)) == digest
    if expected is not None:
        deterministic &= (digest == expected["inputs_sha256"]) == (seed == workloads.DEFAULT_SEED)
    goldens = expected["jobs"] if seed == workloads.DEFAULT_SEED and not record else None
    workdir = WORK / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for fname, text in files.items():
        (workdir / fname).write_text(text)
    (workdir / "jobs.json").write_text(json.dumps(jobs))

    passes, failures = [], []
    t_measure = time.monotonic()
    while True:
        # Untraced, traced, traced, untraced, ...: a drift in machine speed
        # during the run then biases neither side of the overhead.
        traced = trace and len(passes) % 4 in (1, 2)
        report = run_pass(workdir, traced, len(passes), started)
        for job, result in zip(jobs, report["jobs"]):
            reason = workloads.check_job(job, result, workdir, goldens and goldens[job["id"]])
            if reason:
                failures.append(f"{job['id']}: {reason}")
        passes.append(report)
        if record:
            break
        elapsed = time.monotonic() - t_measure
        typical = median([p["wall"] for p in passes])
        have_both = not trace or (any(p["traced"] for p in passes) and not all(p["traced"] for p in passes))
        if have_both and elapsed + typical > seconds:
            break

    if record:
        if failures:
            raise BenchError("not recording outputs that fail their checks: " + "; ".join(failures[:5]))
        recorded[name] = {"inputs_sha256": digest,
                          "jobs": {job["id"]: workloads.output_record(job, result, workdir)
                                   for job, result in zip(jobs, passes[0]["jobs"])}}
        EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    plain = [p["scaled"] for p in passes if not p["traced"]]
    attempted = len(jobs) * len(passes)
    result = {
        "workload": name, "seed": seed, "passes": len(plain), "jobs": len(jobs),
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "deterministic": deterministic, "pass_times": plain,
        "wall_s": median([p["seconds"] for p in passes if not p["traced"]]),
        "scale": median([p["scale"] for p in passes if not p["traced"]]),
        "job_times": {job["id"]: median([p["jobs"][i]["seconds"] for p in passes if not p["traced"]])
                      for i, job in enumerate(jobs)},
    }
    metrics = {}
    if trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [{k: (v * p["scale"] if unit == "s" else v / p["scale"] if unit == "1/s" else v, unit, better)
                     for k, (v, unit, better) in layer_values(p["trace"]).items()} for p in traced]
        for key, (_, unit, better) in per_pass[0].items():
            metrics[key] = (median([pp[key][0] for pp in per_pass]), unit, better)
        traced_s = median([p["scaled"] for p in traced])
        metrics["trace.pass_s"] = (traced_s, "s", "lower")
        metrics["trace.overhead_s"] = (traced_s - median(plain), "s", "lower")
        metrics["trace.overhead_ratio"] = ((traced_s - median(plain)) / median(plain), "ratio", "lower")
    else:
        tail_value, result["tail_label"] = tail(plain)
        metrics["pass_s"] = (median(plain), "s", "lower")
        metrics["pass_tail_s"] = (tail_value, "s", "lower")
        metrics["setup_s"] = (median([p["setup_scaled"] for p in passes]), "s", "lower")
        metrics["peak_rss_mb"] = (max(p["rss_kb"] for p in passes) / 1024, "MB", "lower")
    result["metrics"] = metrics
    return result


def print_report(r):
    print(f"== {r['workload']} (seed {r['seed']}): {r['passes']} untraced passes of {r['jobs']} jobs, "
          f"inputs {'deterministic' if r['deterministic'] else 'NOT DETERMINISTIC'}")
    print(f"  stresses: {workloads.WORKLOADS[r['workload']]['stresses']}")
    print(f"  measured: median pass {r['wall_s']:.3f} s wall; times below are scaled to the nominal "
          f"speed (median scale {r['scale']:.3f}, calibrate.py)")
    print("  pass times (s, scaled): " + " ".join(f"{t:.3f}" for t in r["pass_times"]))
    print("  median job times (s, wall): " + " ".join(f"{k}={t:.3f}" for k, t in r["job_times"].items()))
    m = r["metrics"]
    for key in ("pass_s", "pass_tail_s", "setup_s", "peak_rss_mb"):
        if key in m:
            note = f"  ({r['tail_label']})" if key == "pass_tail_s" else ""
            print(f"  {key:<13} {m[key][0]:12.6f} {m[key][1]}{note}")
    print(f"  {'error_rate':<13} {r['failed'] / r['attempted']:12.6f} ratio  ({r['failed']}/{r['attempted']} jobs failed)")
    layers = [k for k in m if k not in ("pass_s", "pass_tail_s", "setup_s", "peak_rss_mb")]
    for key in layers:
        print(f"  {key:<48} {m[key][0]:16.6f} {m[key][1]}")
    shares = {k.split(".")[0]: m[k][0] for k in layers if k.endswith(".self_share")}
    if shares:
        print(f"  largest self-time share: {max(shares, key=shares.get)}")
    for failure in r["failures"][:10]:
        print(f"  FAILED {failure}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store default-seed outputs in expected.json")
    args = parser.parse_args()
    if args.record and args.seed != workloads.DEFAULT_SEED:
        parser.error(f"--record needs the default seed {workloads.DEFAULT_SEED}")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace == 1, args.record) for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for r in results:
        print_report(r)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 and r["deterministic"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": v[0], "unit": v[1]}
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
