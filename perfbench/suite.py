"""Run the benchmark on every workload and report metrics and their spread.

From the root of a checkout:

    python3 perfbench/suite.py                  # seed 0, every workload
    python3 perfbench/suite.py --seeds 0-9      # ten seeds: quartile spreads
    python3 perfbench/suite.py --trace          # also one traced run each

Each run is a separate ``perfbench/run.py`` process, one after another.
For every workload the suite prints each end-to-end metric with its unit:
the median over the seeds, the quartiles and the spread (distance between
the quartiles over the median) next to the metric's bound from
``BENCHMARK.json``, plus the correctness verdicts.  With ``--trace`` it
prints each per-layer metric of one traced run and the tracing overhead.
The summary is also written to ``perfbench/out/suite.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(workload, seed, seconds, trace, size="full", env=None):
    """One benchmark process; returns (exit code, record, result) parsed
    from its last two output lines (None when absent)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=900)
    lines = proc.stdout.strip().splitlines()
    record = result = None
    if proc.returncode == 0 and len(lines) >= 2:
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
    return proc.returncode, record, result


def spread(values):
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="0", help="e.g. 0-9 or 3,7")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            code, record, result = run_one(workload, seed,
                                           spec["run_seconds"], False)
            if result is None:
                print("%s seed %d: exit code %d, no result"
                      % (workload, seed, code))
                ok = False
                continue
            runs.append((seed, record, result))
        if not runs:
            continue
        print("== %s (%d runs)" % (workload, len(runs)))
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for _, _, r in runs]
            med, q1, q3, rel = spread(values)
            rows[name] = {"values": values, "median": med, "q1": q1,
                          "q3": q3, "spread": rel, "bound": metric["bound"]}
            print("  %-12s %12.6g %-3s  q1 %-10.6g q3 %-10.6g spread %.3f "
                  "(bound %.2f)" % (name, med, metric["unit"], q1, q3, rel,
                                    metric["bound"]))
        for seed, record, result in runs:
            print("  seed %-3d correct %-5s attempted %-3d failed %-3d "
                  "passes %d  calibration %.3fs  load %.2f"
                  % (seed, result["correct"], result["attempted"],
                     result["failed"], record["passes"],
                     record["machine"]["calibration_start_s"],
                     record["machine"]["loadavg_start"][0]))
            ok &= result["correct"]
        entry = {"end_to_end": rows,
                 "runs": [{"seed": s, "record": rec, "result": res}
                          for s, rec, res in runs]}
        if args.trace:
            seed = runs[0][0]
            code, record, result = run_one(workload, seed,
                                           spec["run_seconds"], True)
            if result is None:
                print("  traced run: exit code %d, no result" % code)
                ok = False
            else:
                print("  traced run, seed %d:" % seed)
                for metric in spec["per_layer"]:
                    m = result["metrics"][metric["name"]]
                    print("    %-44s %14.6g %s"
                          % (metric["name"], m["value"], m["unit"]))
                entry["traced"] = {"record": record, "result": result}
        summary[workload] = entry
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "suite.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
