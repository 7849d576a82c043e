"""Seeded benchmark of the liaison package, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload colon_lift --seed 0 \\
        --seconds 50 --trace 0

The package is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2 and prints no result.

With ``--trace 0`` one run times the set-up (importing the package and
building the inputs) in several fresh interpreters (``setup_s`` is the
median), then repeats passes over the workload's fixed instance list for
about ``--seconds`` seconds (at least two passes) and reports
``wall_s`` (median pass), ``op_p50_s`` (median operation) and
``peak_rss_mb``.  With ``--trace 1`` it runs one untraced pass, sets the
inputs up again, and runs one traced pass; it reports the
per-layer metrics of the traced pass and ``trace.overhead_ratio``, the
traced pass time over the untraced one.

Every operation's output is checked.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it is a JSON record of the seed, the machine,
the samples and the failed checks; the same record, and the spans of a
traced run, are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import prepare
import tracer
import workloads

SETUP_REPEATS = 21
MIN_PASSES = 2

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("peak_rss_mb", "MB"))


def calibration_s():
    """Time of a fixed pure-Python loop, to show host speed drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def machine_record():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "loadavg_start": list(os.getloadavg()),
        "calibration_start_s": calibration_s(),
    }


def run_pass(instances, trace=None):
    """Run every instance once: (pass seconds, [op result dicts]).

    An operation may hand back a recheck; ``settle`` runs it later, off the
    clock and outside any trace.
    """
    results = []
    start = time.perf_counter()
    for op_id, inst in enumerate(instances):
        if trace is not None:
            trace.op = op_id
        t0 = time.perf_counter()
        try:
            checks, output, recheck = inst.run()
            error = None
        except Exception as exc:  # an operation that raises is a failure
            checks, output, recheck = {}, None, None
            error = "%s: %s" % (type(exc).__name__, exc)
        dt = time.perf_counter() - t0
        if trace is not None and output is not None:
            trace.count("cli.output_bytes", len(output.encode()))
        results.append({"label": inst.label, "s": dt, "checks": checks,
                        "recheck": recheck, "error": error,
                        "output": output})
    return time.perf_counter() - start, results


def settle(results):
    """Run the rechecks and list each operation's failed checks."""
    for r in results:
        checks, recheck = r.pop("checks"), r.pop("recheck")
        if recheck is not None:
            checks = recheck(checks)
        r["failed"] = sorted(k for k, ok in checks.items() if not ok)
        error = r.pop("error")
        if error is not None:
            r["failed"].append("raised " + error)


def outputs_repeat(passes):
    """True when every operation's text output is identical on each pass."""
    first = [r["output"] for r in passes[0][1]]
    return all([r["output"] for r in p[1]] == first for p in passes[1:])


def verdict(passes):
    """(attempted, failed, correct, {failed check: count})."""
    attempted = failed = 0
    tally = {}
    for _, results in passes:
        for r in results:
            attempted += 1
            failed += bool(r["failed"])
            for name in r["failed"]:
                key = "%s: %s" % (r["label"], name)
                tally[key] = tally.get(key, 0) + 1
    unexpected = [k for k in tally
                  if k.split(": ", 1)[1] not in workloads.KNOWN_DEFECTS]
    repeat = outputs_repeat(passes)
    if not repeat:
        tally["outputs differ between passes"] = 1
    return attempted, failed, not unexpected and repeat, tally


def setup_sample(workload, seed, size):
    """Seconds one fresh interpreter takes to import the package and build
    the inputs (``prepare.py``)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(prepare.HERE, "prepare.py"), workload,
         str(seed), size],
        cwd=prepare.ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("set-up sample failed: %s" % proc.stderr.strip())
    return float(proc.stdout)


def timed_run(workload, seed, size, seconds, record):
    _, instances = prepare.build(workload, seed, size)
    setups = [setup_sample(workload, seed, size)
              for _ in range(SETUP_REPEATS)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(instances))
        settle(passes[-1][1])
        elapsed = time.perf_counter() - start
        # start another pass only if it should end within half a pass
        # of the budget, so a run measures about `seconds` on average
        typical = statistics.median(p[0] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical / 2 > seconds:
            break
    op_times = [r["s"] for _, results in passes for r in results]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p[0] for p in passes),
        "op_p50_s": statistics.median(op_times),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    by_label = {}
    for _, results in passes:
        for r in results:
            by_label.setdefault(r["label"], []).append(r["s"])
    record.update({
        "op_median_s": {k: statistics.median(v) for k, v in by_label.items()},
        "setup_samples_s": setups,
        "pass_samples_s": [p[0] for p in passes],
        "op_samples": len(op_times),
        "measured_s": time.perf_counter() - start,
    })
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return passes, metrics, None


def traced_run(workload, seed, size, record):
    _, instances = prepare.build(workload, seed, size)
    plain = run_pass(instances)
    settle(plain[1])
    _, instances = prepare.build(workload, seed, size)
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = run_pass(instances, trace)
    finally:
        trace.uninstall()
    settle(traced[1])
    values = trace.layer_metrics()
    values["trace.overhead_ratio"] = traced[0] / plain[0]
    record.update({"untraced_pass_s": plain[0], "traced_pass_s": traced[0]})
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracer.LAYER_METRICS}
    return [plain, traced], metrics, trace


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="'small' runs each workload at its smallest size")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    record = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "trace": args.trace,
              "machine": machine_record()}
    try:
        if args.trace:
            passes, metrics, trace = traced_run(args.workload, args.seed,
                                                args.size, record)
        else:
            passes, metrics, trace = timed_run(args.workload, args.seed,
                                               args.size, args.seconds,
                                               record)
    except prepare.SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    attempted, failed, correct, tally = verdict(passes)
    record["machine"]["calibration_end_s"] = calibration_s()
    record.update({
        "passes": len(passes),
        "ops_per_pass": len(passes[0][1]),
        "failed_ratio": failed / attempted,
        "failed_checks": tally,
        "known_defects": sorted(workloads.KNOWN_DEFECTS),
    })
    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-44s %14.6g %s" % ("failed_ratio", failed / attempted, "1"))
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(prepare.OUT, stem + ".json"), "w") as fh:
        dump = dict(record, metrics=metrics)
        if trace is not None:
            dump["trace"] = trace.spans_json()
        json.dump(dump, fh)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
