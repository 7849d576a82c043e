"""Self-test of the benchmark itself.

From the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at its smallest size and checks that

- the result line has exactly the keys the contract names, and every
  end-to-end and per-layer metric of ``BENCHMARK.json`` appears with its
  unit;
- the record carries the seed and the machine;
- two traced runs, under different ``PYTHONHASHSEED`` values, give
  identical per-layer counts;
- the tracer leaves no binding of a traced function unpatched;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits with a nonzero code and prints no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import prepare
import suite
import tracer

MACHINE_KEYS = {"nproc", "cpu_model", "python", "loadavg_start",
                "calibration_start_s", "calibration_end_s"}


def check(ok, what, failures):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def units(entries):
    return {e["name"]: e["unit"] for e in entries}


def check_result(result, expected, what, failures):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s: result keys" % what, failures)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == expected, "%s: every metric with its unit" % what, failures)
    check(result["correct"] and result["attempted"] >= 1,
          "%s: correct, %d attempted, %d failed"
          % (what, result["attempted"], result["failed"]), failures)


def check_bindings(failures):
    """After install, no module of the package still names an original."""
    lib = prepare.import_liaison()
    trace = tracer.Tracer()
    trace.install()
    try:
        originals = {id(entry[2]) for entry in trace.patched}
        stale = [(m.__name__, k) for m in vars(lib).values()
                 for k, v in vars(m).items() if id(v) in originals]
        wanted = {e[0] for e in tracer.SPANS + tracer.COUNTS}
        missing = wanted - {entry[3] for entry in trace.patched}
        bindings = len(trace.patched)
    finally:
        trace.uninstall()
    check(not stale, "tracer patched all %d bindings %s"
          % (bindings, stale or ""), failures)
    # _sweep_crossings may go away; every other traced function must exist
    check(missing <= {"fatpoints.sweep_crossings"},
          "tracer found the traced functions %s" % (missing or ""), failures)


def check_bare_directory(failures):
    bare = os.path.join(prepare.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(prepare.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(prepare.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "colon_lift",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/ the benchmark exits %d and prints no result"
          % proc.returncode, failures)


def main():
    spec = suite.load_spec()
    e2e = units(spec["end_to_end"])
    layer = units(spec["per_layer"])
    counted = [n for n, u in layer.items() if u in ("count", "B")]
    failures = []
    check_bindings(failures)
    for w in spec["workloads"]:
        name = w["name"]
        code, record, result = suite.run_one(name, 0, 1, False, "small")
        check(result is not None, "%s: exit %d with a result" % (name, code),
              failures)
        if result is None:
            continue
        check_result(result, e2e, name, failures)
        check(record["seed"] == 0 and MACHINE_KEYS <= set(record["machine"]),
              "%s: record has the seed and the machine" % name, failures)
        traced = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            code, record, result = suite.run_one(name, 0, 1, True, "small",
                                                 env)
            check(result is not None, "%s traced: exit %d with a result"
                  % (name, code), failures)
            if result is None:
                break
            check_result(result, layer, name + " traced", failures)
            traced.append({n: result["metrics"][n]["value"]
                           for n in counted})
        if len(traced) == 2:
            diff = [n for n in counted if traced[0][n] != traced[1][n]]
            check(not diff, "%s: traced counts repeat %s"
                  % (name, diff or ""), failures)
    check_bare_directory(failures)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
