"""The benchmark's self-test, run as part of the suite.

The tracer patches functions of the package by name, so a change that
renames or deletes one of them breaks the benchmark; this test makes it
break the suite too.  The self-test writes only under the git-ignored
``perfbench/out/``.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
