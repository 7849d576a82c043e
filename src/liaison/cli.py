"""Command-line front-end: parse input files, dispatch, emit reports.

Exit codes: 0 success, 2 verification failure, 3 genericity/budget
exhaustion, 4 parse or configuration error, or arguments that the library
refuses (`InputError`).  The seed and prime are echoed into every report,
and the same input with the same seed and prime produces byte-identical
JSON output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .fatpoints import (DEFAULT_PRIME, FatPointScheme, ResourceLimitError,
                        default_ring, reduce_to_reduced,
                        theorem32_double_step)
from .ideals import GenericityError, Ideal
from .lifting import lift_ideal, verify_lifting
from .links import (embed_and_link, is_geometric_link, lemma_key_link,
                    link_involution_check)
from .rings import AlgebraError, InputError, PolyRing

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_GENERICITY = 3
EXIT_PARSE = 4


class CliError(Exception):
    """Bad input file or configuration."""


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc))
    except ValueError as exc:
        raise CliError("bad JSON in %s: %s" % (path, exc))


def _load_ideal(data, prime):
    """Ideal from a JSON object with a ring block and generators."""
    ring_data = data.get("ring") if isinstance(data, dict) else None
    if not isinstance(ring_data, dict):
        raise CliError("ideal object needs a 'ring' block")
    ring_data = dict(ring_data)
    if prime is not None:
        ring_data["prime"] = prime
    if "vars" not in ring_data:
        raise CliError("ring block needs 'vars'")
    try:
        ring = PolyRing(ring_data["vars"],
                        ring_data.get("prime", DEFAULT_PRIME))
    except (AlgebraError, TypeError) as exc:
        raise CliError("bad ring: %s" % exc)
    gens = data.get("generators")
    if gens is None and "monomials" in data:
        try:
            gens = [ring.monomial(e) for e in data["monomials"]]
        except (AlgebraError, TypeError) as exc:
            raise CliError("bad monomial: %s" % exc)
        return Ideal(ring, gens)
    if gens is None:
        raise CliError("ideal object needs 'generators' or 'monomials'")
    if not isinstance(gens, list) or not all(isinstance(g, str)
                                             for g in gens):
        raise CliError("'generators' must be a list of strings")
    try:
        return Ideal.from_strings(ring, gens)
    except AlgebraError as exc:
        raise CliError("bad generator: %s" % exc)


def _emit(report, args):
    if args.format == "json":
        text = _json_text(report)
    else:
        text = _as_text(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(report):
    """The report as indented, key-sorted JSON plus a newline.

    Same text as json.dumps(report, indent=2, sort_keys=True) + "\n", but
    joined in slices: json.dumps with an indent holds every small chunk
    until the end, about six times the text, and for a large double-step
    report that is the memory peak of the whole run.
    """
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
    parts = []
    while batch := list(itertools.islice(chunks, 4096)):
        parts.append("".join(batch))
    parts.append("\n")
    return "".join(parts)


def _as_text(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k in obj:
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (pad, k))
                lines.append(_as_text(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v))
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(_as_text(v, indent) if isinstance(v, (dict, list))
                         else "%s- %s" % (pad, v) for v in obj)
    return "%s%s" % (pad, obj)


def _base_report(args, command, prime):
    return {"command": command, "prime": prime, "seed": args.seed}


def cmd_hvector(args):
    data = _load_json(args.input)
    ideal = _load_ideal(data, args.prime)
    if ideal.is_unit():
        raise CliError("unit ideal has no scheme")
    report = _base_report(args, "hvector", ideal.ring.prime)
    cm_ok, cm_cert = ideal.cm_test(seed=args.seed)
    hv = ideal.h_vector()
    report.update({
        "h_vector": list(hv),
        # a negative entry: R/I is not Cohen-Macaulay
        "h_vector_clean": min(hv) >= 0,
        "degree": ideal.degree(),
        "dim": ideal.krull_dim(),
        "codim": ideal.codim(),
        # a negative test is not a proof
        "cohen_macaulay": cm_ok if cm_cert["conclusive"] else "inconclusive",
    })
    _emit(report, args)
    return EXIT_OK


def cmd_link(args):
    data = _load_json(args.input)
    if not isinstance(data, dict) or "ideal" not in data:
        raise CliError("link input needs an 'ideal' object")
    ideal = _load_ideal(data["ideal"], args.prime)
    report = _base_report(args, "link", ideal.ring.prime)
    if "f" in data and "other" in data:
        other = _load_ideal(data["other"], args.prime)
        if other.ring != ideal.ring:
            raise CliError("'other' must be over the ring of the ideal")
        try:
            f = ideal.ring.parse(data["f"])
        except (AlgebraError, TypeError) as exc:
            raise CliError("bad multiplier: %s" % exc)
        _, step = lemma_key_link(ideal, f, other)
        report["identity"] = step.to_json()
        report["verdict"] = ("identity holds" if step.passed()
                             else "identity FAILED")
        _emit(report, args)
        return EXIT_OK if step.passed() else EXIT_VERIFY
    if "linking" not in data:
        raise CliError("link input needs 'linking' or ('f', 'other')")
    ci = _load_ideal(data["linking"], args.prime)
    if ci.ring != ideal.ring:
        raise CliError("'linking' must be over the ring of the ideal")
    ok, residual, _ = link_involution_check(ci, ideal)
    geometric = is_geometric_link(ci, ideal.saturate_irrelevant(), residual)
    report.update({
        "residual": [str(g) for g in residual.generators],
        "involution": ok,
        "geometric": geometric,
        "degrees": {"ideal": ideal.degree(), "residual": residual.degree(),
                    "linking": ci.degree()},
    })
    _emit(report, args)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_fatpoints(args):
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise CliError("point scheme must be a JSON object")
    prime = (args.prime if args.prime is not None
             else data.get("prime", DEFAULT_PRIME))
    try:
        ring = default_ring(prime)
    except (AlgebraError, TypeError) as exc:
        raise CliError("bad ring: %s" % exc)
    try:
        scheme = FatPointScheme.from_json(data, prime)
    except AlgebraError as exc:
        raise CliError("bad point scheme: %s" % exc)
    report = _base_report(args, "fatpoints", prime)
    report["input_degree"] = scheme.degree()
    if args.double_step:
        chain = theorem32_double_step(scheme, seed=args.seed, ring=ring)
    else:
        chain = reduce_to_reduced(scheme, seed=args.seed, ring=ring)
    report["chain"] = chain.to_json()
    result = getattr(chain, "result", None)
    report["final_scheme"] = result.to_json() if result else None
    report["final_reduced"] = bool(result and result.is_reduced())
    report["verdict"] = "ok" if chain.ok() else "verification failed"
    _emit(report, args)
    return EXIT_OK if chain.ok() else EXIT_VERIFY


def cmd_lift(args):
    data = _load_json(args.input)
    ideal = _load_ideal(data, args.prime)
    try:
        lifted = lift_ideal(ideal)
    except AlgebraError as exc:
        raise CliError(str(exc))
    ok, cert = verify_lifting(ideal, lifted, seed=args.seed)
    report = _base_report(args, "lift", ideal.ring.prime)
    report["certificate"] = cert
    report["verdict"] = "ok" if ok else "verification failed"
    _emit(report, args)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_embed(args):
    data = _load_json(args.input)
    if isinstance(data, dict) and "ideal" in data:
        ideal = _load_ideal(data["ideal"], args.prime)
        witness_data = data.get("witness")
    else:
        ideal = _load_ideal(data, args.prime)
        witness_data = None
    witness = None
    try:
        ext0 = ideal.extend_ring(args.var)
    except AlgebraError as exc:
        raise CliError("bad --var: %s" % exc)
    if witness_data is not None:
        witness = _load_ideal(witness_data, args.prime)
        if witness.ring.variables != ext0.ring.variables:
            raise CliError("witness must use the extended variable list")
        if witness.ring.prime != ext0.ring.prime:
            raise CliError("witness must use the prime of the ideal")
    _, _, step = embed_and_link(ideal, witness=witness, var=args.var)
    report = _base_report(args, "embed", ideal.ring.prime)
    report["step"] = step.to_json()
    report["verdict"] = "ok" if step.passed() else "verification failed"
    _emit(report, args)
    return EXIT_OK if step.passed() else EXIT_VERIFY


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=None,
                        help="field characteristic (default from input, "
                             "else %d)" % DEFAULT_PRIME)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all general choices")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", default=None, help="write output here")
    parser = argparse.ArgumentParser(
        prog="liaison",
        description="Exact liaison computations over a prime field.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("hvector", parents=[common],
                       help="h-vector, degree, dim, CM verdict")
    p.add_argument("input")
    p.set_defaults(func=cmd_hvector)

    p = sub.add_parser("link", parents=[common], help="direct CI link or the colon identity")
    p.add_argument("input")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("fatpoints", parents=[common], help="reduce a fat point scheme by links")
    p.add_argument("input")
    p.add_argument("--double-step", action="store_true",
                   help="run a single two-link step instead of the full "
                        "reduction")
    p.set_defaults(func=cmd_fatpoints)

    p = sub.add_parser("lift", parents=[common], help="lift a monomial ideal and verify")
    p.add_argument("input")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("embed", parents=[common], help="extend the ring and link off a witness")
    p.add_argument("input")
    p.add_argument("--var", default="t", help="name of the new variable")
    p.set_defaults(func=cmd_embed)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CliError, InputError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except (GenericityError, ResourceLimitError) as exc:
        print("genericity/budget exhausted: %s" % exc, file=sys.stderr)
        return EXIT_GENERICITY
    except AlgebraError as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
