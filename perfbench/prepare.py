"""Set-up of a run: import the liaison package and build a workload's inputs.

``run.py`` imports this module.  Run as a script, it takes one set-up
sample in its own, fresh interpreter and prints the seconds it took:

    python3 perfbench/prepare.py <workload> <seed> <full|small>

The clock starts before anything of the package, or of the benchmark's
workloads, is imported, so a sample pays every import the package needs.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

LAYERS = ("rings", "modp", "groebner", "ideals", "links", "lifting",
          "fatpoints", "cli")


class SetupError(Exception):
    """The checkout holds no liaison sources to benchmark."""


def import_liaison():
    """Import every layer of the package from ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "liaison", "__init__.py")):
        raise SetupError("no liaison package under %s" % SRC)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    lib = types.SimpleNamespace()
    for layer in LAYERS:
        setattr(lib, layer, importlib.import_module("liaison." + layer))
    where = os.path.dirname(os.path.abspath(lib.rings.__file__))
    if where != os.path.join(SRC, "liaison"):
        raise SetupError("liaison imported from %s, not %s" % (where, SRC))
    return lib


def build(workload, seed, size):
    """Import the package and build the inputs: (lib, instances)."""
    lib = import_liaison()
    import workloads
    os.makedirs(OUT, exist_ok=True)
    return lib, workloads.build(workload, lib, seed, size, OUT)


def main(argv):
    workload, seed, size = argv
    start = time.perf_counter()
    try:
        build(workload, int(seed), size)
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
