"""The two seeded workloads: their inputs, operations and checks.

Each workload is made of two groups of operations; a group turns the seed
into a fixed instance list, and ``build`` joins a workload's groups.  One
pass runs every instance once as one timed operation.  An operation returns its
checks as {name: bool}; a check that is False marks the operation failed.
It may also return a recheck, a function that the runner calls off the clock
to revise the checks.
``KNOWN_DEFECTS`` names the checks that fail because of a known defect of
the program: they still count as failed operations, but do not turn the
run's ``correct`` verdict false.

Inputs are polynomials, points and files.  Every ``Ideal`` is created inside
an operation, so no Groebner basis cached by one pass is reused by the next.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random

P = 32003
VARS4 = ("x0", "x1", "x2", "x3")

KNOWN_DEFECTS = frozenset({
    # the double-step verdict of Theorem 3.2 fails these two clauses, as
    # acceptance criterion 3 does
    "double-step-verdict.no_components_at_Rk",
    "double-step-verdict.residue_reduced",
    # Ideal.is_reduced_zero_dim answers "not reduced" when both of its random
    # multipliers take one value at two points; the chance grows with the
    # number of points (seed 128 on (x^10, y^18)).  Claimed only when another
    # seed proves the scheme reduced.
    "points_reduced_false_negative",
})


def _degree_monomials(n, d):
    if n == 1:
        yield (d,)
        return
    for e in range(d + 1):
        for rest in _degree_monomials(n - 1, d - e):
            yield (e,) + rest


def _random_form(ring, degree, rng):
    """Dense random homogeneous form of the given degree."""
    return ring.from_dict({m: rng.randrange(1, P)
                           for m in _degree_monomials(ring.nvars, degree)})


def _random_coords(rng):
    return [rng.randrange(1, P) for _ in range(4)]


def _step_checks(steps):
    """Flatten report steps into {"<kind>.<check>": bool}."""
    out = {}
    for step in steps:
        for name, ok in step["checks"].items():
            out["%s.%s" % (step["kind"], name)] = bool(ok)
    return out


class Instance:
    """One operation: a label and a callable returning
    (checks, output, recheck).

    ``output`` is None or text that must repeat byte for byte on every pass;
    ``recheck`` is None or a function from the checks to revised checks.
    """

    def __init__(self, label, run):
        self.label = label
        self.run = run


# ---------------------------------------------------------------------------
# colon_identity

# (generator degrees of the complete intersection I, degree of the extra
# generator of J).  Criterion 5 draws degrees 2-3 and extra degree 1-2;
# here the degree patterns are fixed, so the load does not change with the
# seed.  Five of the seven slots share one pattern, so the median operation
# is always one of them and does not jump between patterns of different cost.
COLON_SLOTS = {
    "full": (((2, 2, 2), 1),) * 5 + (((3, 3), 2), ((2, 2, 3), 2)),
    "small": (((2, 2), 1), ((2, 2, 2), 1)),
}


def build_colon_identity(lib, seed, size, workdir):
    ring = lib.rings.PolyRing(VARS4, P)
    out = []
    for i, (degs, extra) in enumerate(COLON_SLOTS[size]):
        rng = random.Random("colon_identity:%d:%d" % (seed, i))
        gens = [_random_form(ring, d, rng) for d in degs]
        more = _random_form(ring, extra, rng)
        f = _random_form(ring, 1, rng)
        label = "ci%s+%d_%d" % ("".join(map(str, degs)), extra, i)
        out.append(Instance(label, _colon_op(lib, ring, gens, more, f)))
    return out


def _colon_op(lib, ring, gens, more, f):
    Ideal = lib.ideals.Ideal

    def run():
        ideal = Ideal(ring, gens)
        other = ideal + Ideal(ring, [more])
        _, step = lib.links.lemma_key_link(ideal, f, other)
        checks = {"identity.%s" % k: bool(v) for k, v in step.checks.items()}
        checks["complete_intersection"] = ideal.codim() == len(gens)
        return checks, None, None

    return run


# ---------------------------------------------------------------------------
# ci_links

# Five pairs of points and two pairs of skew lines per pass: the point
# links are the majority, so the median operation is always a point link.
CI_SLOTS = {"full": ("points",) * 5 + ("lines",) * 2,
            "small": ("points", "lines")}


def build_ci_links(lib, seed, size, workdir):
    ring = lib.rings.PolyRing(VARS4, P)
    out = []
    for i, kind in enumerate(CI_SLOTS[size]):
        rng = random.Random("ci_links:%d:%d" % (seed, i))
        if kind == "points":
            pts = [lib.fatpoints.PointP3.make(_random_coords(rng))
                   for _ in range(2)]
            run = _ci_points_op(lib, ring, pts, i)
        else:
            lines = [[ring.linear_form(_random_coords(rng))
                      for _ in range(2)] for _ in range(2)]
            run = _ci_lines_op(lib, ring, lines, i)
        out.append(Instance("%s%d" % (kind, i), run))
    return out


def _ci_points_op(lib, ring, pts, link_seed):
    def run():
        a, b = (lib.fatpoints.point_ideal(ring, q) for q in pts)
        checks = _ci_link_checks(lib, a.intersect(b), (1, 2, 2), link_seed)
        return checks, None, None
    return run


def _ci_lines_op(lib, ring, lines, link_seed):
    Ideal = lib.ideals.Ideal

    def run():
        a, b = (Ideal(ring, forms) for forms in lines)
        checks = _ci_link_checks(lib, a.intersect(b), (2, 2), link_seed)
        checks["lines_skew"] = (a + b).codim() == 4
        return checks, None, None
    return run


def _ci_link_checks(lib, ideal, degrees, link_seed):
    links = lib.links
    ci, residual = links.proper_ci_intersection_link(ideal, degrees,
                                                     seed=link_seed)
    involution, _, _ = links.link_involution_check(ci, ideal)
    geometric = links.is_geometric_link(ci, ideal.saturate_irrelevant(),
                                        residual)
    return {
        "involution": involution,
        "geometric": geometric,
        "degree_sum": ideal.degree() + residual.degree() == ci.degree(),
    }


# ---------------------------------------------------------------------------
# fatpoint_links

FATPOINT_PLAN = {
    # a single link at a = 3; double steps through the CLI on
    # {[1:0:0:0]^2, [0:1:0:0]} (the a = 2 branch) and {[1:0:0:0]^3, [0:1:0:0]}
    # (the larger line arrangement)
    "full": (("single", 3), ("double", (2, 1)), ("double", (3, 1))),
    "small": (("single", 2), ("double", (2, 1))),
}


def build_fatpoint_links(lib, seed, size, workdir):
    ring = lib.fatpoints.default_ring()
    origin = lib.fatpoints.PointP3.make([1, 0, 0, 0])
    out = []
    for kind, arg in FATPOINT_PLAN[size]:
        if kind == "single":
            out.append(Instance("single_a%d" % arg,
                                _single_op(lib, ring, origin, arg, seed)))
            continue
        a, b = arg
        path = os.path.join(workdir, "scheme_%d_%d.json" % (a, b))
        with open(path, "w") as fh:
            json.dump({"points": [{"coords": [1, 0, 0, 0], "mult": a},
                                  {"coords": [0, 1, 0, 0], "mult": b}]}, fh)
        out.append(Instance("cli_double_%d_%d" % (a, b),
                            _cli_double_op(lib, path, seed)))
    return out


def _single_op(lib, ring, origin, a, seed):
    def run():
        rep = lib.fatpoints.single_fatpoint_link_step(ring, origin, a,
                                                      seed=seed)
        checks = _step_checks([s.to_json() for s in rep.steps])
        checks["chain_ok"] = rep.ok()
        return checks, None, None
    return run


def _cli_double_op(lib, path, seed):
    argv = ["fatpoints", path, "--double-step", "--seed", str(seed)]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(argv)
        text = buf.getvalue()
        report = json.loads(text)
        steps = report["chain"]["steps"]
        checks = _step_checks(steps)
        verdict_ok = report["verdict"] == "ok"
        checks["exit_code_matches_verdict"] = code == (0 if verdict_ok else 2)
        checks["seed_echoed"] = report["seed"] == seed
        checks["verdict_is_last_step"] = (
            steps[-1]["kind"] == "double-step-verdict")
        return checks, text, None
    return run


# ---------------------------------------------------------------------------
# lift_points

# Artinian monomial ideals (x^a, y^b) and (x^a, y^b, z^c) of colength
# 96-100.  Five two-variable cases against two three-variable ones, so the
# median operation is always a two-variable case.  The certificate uses
# verify_lifting's default seed, not one drawn from the workload seed: the
# reducedness test is random, and a seed-dependent false negative (see
# KNOWN_DEFECTS) would make the failed count differ between runs.  So the
# workload has no random input; every run does the same work.
LIFT_SHAPES = {
    "full": ((10, 10), (9, 11), (11, 9), (8, 12), (12, 8),
             (4, 5, 5), (4, 4, 6)),
    "small": ((3, 4), (2, 2, 3)),
}

CERT_CLAUSES = ("t_zero_recovers_input", "t_regular", "plus_t_matches",
                "hilbert_matches", "cm_matches_input", "points_reduced",
                "degree_matches_colength")


LIFT_SEED = 0


def build_lift_points(lib, seed, size, workdir):
    out = []
    for exps in LIFT_SHAPES[size]:
        n = len(exps)
        ring = lib.rings.PolyRing(tuple("xyz"[:n]), P)
        gens = [ring.monomial(tuple(e if j == i else 0 for j in range(n)))
                for i, e in enumerate(exps)]
        out.append(Instance("lift_%s" % "_".join(map(str, exps)),
                            _lift_op(lib, ring, gens, exps, LIFT_SEED)))
    return out


def _lift_op(lib, ring, gens, exps, lift_seed):
    colength = math.prod(exps)

    def run():
        ideal = lib.ideals.Ideal(ring, gens)
        lifted = lib.lifting.lift_ideal(ideal)
        ok, cert = lib.lifting.verify_lifting(ideal, lifted, seed=lift_seed)
        checks = {"certificate." + k: cert.get(k) is True
                  for k in CERT_CLAUSES}
        checks["certificate_ok"] = ok
        checks["point_count_is_colength"] = cert.get("point_count") == colength
        checks["grid_points_on_lift"] = _vanishes_on_grid(lifted, exps)
        recheck = None
        if (not checks["certificate.points_reduced"]
                and all(v for k, v in checks.items()
                        if k not in ("certificate.points_reduced",
                                     "certificate_ok"))):
            recheck = lambda c: _recheck_reduced(c, lifted, lift_seed + 1)
        return checks, None, recheck
    return run


def _recheck_reduced(checks, lifted, seed):
    """A "reduced" answer under another seed is a proof: a squarefree
    characteristic polynomial of a multiplier with as many roots as the
    degree.  Only then is the first "not reduced" the known defect."""
    if not lifted.is_reduced_zero_dim(seed=seed):
        return checks
    checks = dict(checks)
    del checks["certificate.points_reduced"], checks["certificate_ok"]
    checks["points_reduced_false_negative"] = False
    return checks


def _vanishes_on_grid(lifted, exps):
    """Every lifted generator vanishes at the points (j_1, ..., j_n, 1),
    0 <= j_i < a_i, evaluated here without the package."""
    for point in itertools.product(*(range(a) for a in exps), (1,)):
        for g in lifted.generators:
            total = 0
            for mono, c in g.terms.items():
                term = c
                for v, e in zip(point, mono):
                    term = term * pow(v, e, P) % P
                total += term
            if total % P:
                return False
    return True


# Two workloads of two groups each, rather than one workload per group: on a
# shared 2-vCPU host the speed swings by up to a quarter for 5-10 s at a
# time, so a run must measure about 50 s for its medians to average several
# swings, and four workloads of that length do not fit the time budget of
# all runs.  colon_lift never saturates and builds no line arrangement;
# links_fatpoints does both.
WORKLOADS = {
    "colon_lift": (build_colon_identity, build_lift_points),
    "links_fatpoints": (build_ci_links, build_fatpoint_links),
}


def build(workload, lib, seed, size, workdir):
    """The instance list of a workload: its groups' instances in order."""
    return [inst for group in WORKLOADS[workload]
            for inst in group(lib, seed, size, workdir)]
