"""Liaison machinery: direct links, Gorenstein sums, the key colon identity.

A link is always computed as a literal ideal quotient (see
`Ideal.quotient`), and every claimed property is verified on the nose
rather than assumed from theory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .ideals import GenericityError, Ideal
from .rings import AlgebraError

# seeded draws of a general CI before proper_ci_intersection_link gives up
CI_LINK_TRIES = 24


@dataclass
class LinkStep:
    """One verified step in a liaison chain."""

    kind: str                    # "ci-link", "gorenstein-link", "double-link", ...
    description: str
    data: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    def passed(self):
        return all(self.checks.values())

    def to_json(self):
        return {
            "kind": self.kind,
            "description": self.description,
            "data": self.data,
            "checks": self.checks,
        }


@dataclass
class LinkChainReport:
    """Ordered record of link steps with an overall verdict."""

    steps: list = field(default_factory=list)

    def add(self, step):
        self.steps.append(step)
        return step

    def ok(self):
        return all(s.passed() for s in self.steps)

    def to_json(self):
        return {"ok": self.ok(), "steps": [s.to_json() for s in self.steps]}


def is_complete_intersection_gens(ideal):
    """True when the listed generators form a homogeneous regular sequence.

    Checked via codimension: c generators cutting codimension c.
    """
    if ideal.is_zero() or ideal.is_unit():
        return False
    return ideal.codim() == len(ideal.generators)


def ci_link(c_ideal, ideal):
    """Direct link c : I by a complete intersection c contained in I.

    Returns the residual ideal; raises when c is not a CI inside I.
    """
    if not is_complete_intersection_gens(c_ideal):
        raise AlgebraError("linking ideal is not a complete intersection")
    if not ideal.contains_ideal(c_ideal):
        raise AlgebraError("complete intersection not contained in the ideal")
    if c_ideal.codim() != ideal.codim():
        raise AlgebraError("linking CI must share the codimension of the ideal")
    return c_ideal.quotient(ideal)


def is_geometric_link(c_ideal, ideal, residual):
    """True when the link c: I is geometric: I and J share no component.

    Tested by the saturated-intersection criterion c^sat = (I ∩ J)^sat
    together with I + J cutting strictly larger codimension.
    """
    meet = ideal.intersect(residual)
    if meet.saturate_irrelevant() != c_ideal.saturate_irrelevant():
        return False
    top = ideal + residual
    if top.is_unit():
        return True
    return top.codim() > ideal.codim()


def link_involution_check(c_ideal, ideal):
    """Verify c : (c : I) = I^sat, returning (bool, residual, back)."""
    residual = ci_link(c_ideal, ideal)
    back = ci_link(c_ideal, residual)
    return back == ideal.saturate_irrelevant(), residual, back


def gorenstein_sum(cm1, cm2, seed=0):
    """Sum of two linked CM ideals one codimension down.

    Given geometrically CI-linked ideals of codimension c, their sum has
    codimension c+1 and is arithmetically Gorenstein.  Returns
    (sum ideal, certificate dict); the certificate records the necessary
    conditions actually verified: codimension jump, the CM test, and
    symmetry of the h-vector.
    """
    if cm1.ring != cm2.ring:
        raise AlgebraError("summands live in different rings")
    total = cm1 + cm2
    cert = {"codim_1": cm1.codim(), "codim_2": cm2.codim(),
            "codim_sum": total.codim()}
    cert["codim_jump"] = (cm1.codim() == cm2.codim()
                          and total.codim() == cm1.codim() + 1)
    cm_ok, cm_cert = total.cm_test(seed=seed)
    cert["cm"] = cm_ok
    cert["cm_certificate"] = cm_cert
    hv = total.h_vector()
    cert["h_vector"] = list(hv)
    cert["h_symmetric"] = hv == hv[::-1] and min(hv) >= 0
    cert["gorenstein"] = bool(cert["codim_jump"] and cm_ok
                              and cert["h_symmetric"])
    return total, cert


def lemma_key_link(ideal, f, other):
    """Verify the colon identity (I + f·J) : (I, f) = J step by step.

    Requires f a homogeneous non-constant element regular on R/I with
    I ⊆ J.  Checks the full chain
        (I + f·J) : (I, f)  =  (I + f·J) : f  =  (I : f) + J  =  J
    and returns (combined ideal I + f·J, LinkStep).

    I : f is decided first; when it is I, f is regular on R/I.  With a
    linear f last, in(I + f·J) = in(I) + f·in(J) (Bayer-Stillman), so the
    bases of I and of J times f, interreduced, are the basis of I + f·J,
    J computes no other basis, and each equality compares reduced bases
    under f (`Ideal.__eq__`); any other f gives I + f·J its Hilbert
    numerator (`Ideal.plus_regular_multiple`).
    """
    if isinstance(f, str):
        f = ideal.ring.parse(f)
    if not f or f.is_constant():
        raise AlgebraError("multiplier must be a non-constant form")
    if f.degree() == 1 and f.is_homogeneous():
        other.groebner_basis_with_last(f)
    if not other.contains_ideal(ideal):
        raise AlgebraError("identity needs I contained in J")
    colon = ideal.quotient(f)
    regular = colon == ideal
    combined = (ideal.plus_regular_multiple(f, other) if regular
                else ideal + f * other)
    denom = ideal + Ideal(ideal.ring, [f])

    q_full = combined.quotient(denom)
    q_by_f = combined.quotient(f)
    # I is inside J, so (I : f) + J is J itself when I : f is I
    colon_plus = other if regular else colon + other

    checks = {
        "f_regular_on_I": regular,
        "colon_by_pair_eq_colon_by_f": q_full == q_by_f,
        "colon_by_f_eq_colon_plus_J": q_by_f == colon_plus,
        "equals_J": q_full == other,
    }
    step = LinkStep(
        kind="colon-identity",
        description="(I + f*J) : (I, f) = J with f = %s" % f,
        data={"f": str(f), "combined": [str(g) for g in combined.generators]},
        checks=checks,
    )
    return combined, step


def embed_and_link(ideal, witness=None, var="t"):
    """Extend the ring by one variable and link off a Gorenstein witness.

    The input ideal is re-read in R[t]; `witness` must be an arithmetically
    Gorenstein ideal of the same codimension contained in the extension.
    When the input is a complete intersection and no witness is given, the
    witness used is the extended CI itself (a CI is Gorenstein).  Returns
    (extended ideal, residual, LinkStep).

    "hilbert_preserved" compares Hilbert numerators: Series(S/IS) is
    Series(R/I)/(1-z), and S has one variable more, so the Hilbert function
    of R/I is the first difference of that of S/IS in every degree exactly
    when the two numerators are equal.
    """
    ext = ideal.extend_ring(var)
    if witness is None:
        if not is_complete_intersection_gens(ideal):
            raise AlgebraError("Gorenstein witness required")
        witness = ext
    if witness.ring != ext.ring:
        raise AlgebraError("witness must live in the extended ring")
    if not ext.contains_ideal(witness):
        raise AlgebraError("witness not contained in the extended ideal")
    residual = witness.quotient(ext)
    checks = {
        "codim_preserved": ext.codim() == ideal.codim(),
        "hilbert_preserved": (ext.hilbert_numerator()
                              == ideal.hilbert_numerator()),
        "witness_codim": witness.codim() == ext.codim(),
    }
    step = LinkStep(
        kind="embed-link",
        description="extend by %s, link off a Gorenstein witness" % var,
        data={"residual": [str(g) for g in residual.generators]},
        checks=checks,
    )
    return ext, residual, step


def proper_ci_intersection_link(ideal, degrees, seed=0):
    """Link by a general CI of the given degrees inside the ideal.

    Draws random homogeneous combinations of the generators until the
    chosen forms cut a complete intersection whose link is geometric.
    Returns (ci ideal, residual); raises GenericityError after
    CI_LINK_TRIES draws.
    """
    ring = ideal.ring
    c = ideal.codim()
    if len(degrees) != c:
        raise AlgebraError("need one degree per codimension")
    gens = list(ideal.generators)
    for attempt in range(CI_LINK_TRIES):
        rng = random.Random("cilink:%d:%d" % (seed, attempt))
        forms = []
        ok = True
        for d in degrees:
            f = _random_combination(ring, gens, d, rng)
            if f is None:
                ok = False
                break
            forms.append(f)
        if not ok:
            raise AlgebraError(
                "no generator combinations exist in the requested degrees")
        ci = Ideal(ring, forms)
        if not is_complete_intersection_gens(ci):
            continue
        residual = ci.quotient(ideal)
        if residual.is_unit():
            continue
        if is_geometric_link(ci, ideal.saturate_irrelevant(), residual):
            return ci, residual
    raise GenericityError("no geometric CI link found within the retry budget")


def _random_combination(ring, gens, degree, rng):
    """Random degree-`degree` combination of the generators, or None."""
    total = ring.zero()
    for g in gens:
        gap = degree - g.degree()
        if gap < 0:
            continue
        mult = _random_form(ring, gap, rng)
        total = total + mult * g
    return total if total and total.degree() == degree else None


def _random_form(ring, degree, rng):
    """Random homogeneous form of the given degree (dense)."""
    if degree == 0:
        return ring.constant(rng.randrange(1, ring.prime))
    out = ring.zero()
    for m in _degree_monomials(ring.nvars, degree):
        c = rng.randrange(ring.prime)
        if c:
            out = out + ring.monomial(m, c)
    return out


def _degree_monomials(n, d):
    if n == 1:
        yield (d,)
        return
    for e in range(d + 1):
        for rest in _degree_monomials(n - 1, d - e):
            yield (e,) + rest
