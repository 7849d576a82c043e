"""Lifting monomial ideals to reduced ideals in one more variable.

Each generator x_i^{a_i}... is replaced by the product of shifted factors
(x_i - j*t) for j = 0..a_i-1, a polynomial of the same degree in the
extended ring.  Setting t = 0 recovers the monomial, t stays regular
modulo the lifted ideal, and the Hilbert function is preserved; for an
artinian monomial ideal the lift cuts out a reduced set of points.
"""

from __future__ import annotations

from .groebner import minimalize
from .ideals import Ideal
from .rings import AlgebraError


def minimal_monomial_generators(ideal):
    """Exponent vectors of a minimal generating set of a monomial ideal.

    Raises when some generator is not a single term.
    """
    for g in ideal.generators:
        if len(g.terms) != 1:
            raise AlgebraError("generator %s is not a monomial" % g)
    return minimalize(g.leading_monomial() for g in ideal.generators)


def lift_monomial(ring, exps, var="t"):
    """Product of shifted linear factors replacing one monomial.

    `ring` is the extended ring containing `var`; `exps` indexes the
    remaining variables in order.  x_i^a contributes
    prod_{j=0}^{a-1} (x_i - j*t); the result is homogeneous of the same
    total degree.
    """
    p = ring.prime
    top = max(exps, default=0)
    if p <= top:
        raise AlgebraError(
            "prime %d too small to lift exponent %d: the shifts collide"
            % (p, top))
    if var not in ring.variables:
        raise AlgebraError("no lifting variable %r in the ring" % (var,))
    ti = ring.variables.index(var)
    plain = [i for i in range(ring.nvars) if i != ti]
    if len(exps) != len(plain):
        raise AlgebraError("exponent vector does not match the base ring")
    out = ring.one()
    for i, a in zip(plain, exps):
        for j in range(a):
            coeffs = [0] * ring.nvars
            coeffs[i] = 1
            coeffs[ti] = (-j) % p
            out = out * ring.linear_form(coeffs)
    return out


def lift_ideal(ideal, var="t"):
    """Lift of a monomial ideal: every minimal generator distracted.

    Returns the ideal of the lifted generators in the extended ring.
    """
    monos = minimal_monomial_generators(ideal)
    ring2 = ideal.ring.extend(var)
    return Ideal(ring2, [lift_monomial(ring2, m, var) for m in monos])


def verify_lifting(ideal, lifted=None, var="t", bound=None, seed=0):
    """Full verification certificate for a lifted monomial ideal.

    Checks, in order: setting t = 0 recovers the input; t is regular
    modulo the lift (J : t = J); (J, t) equals (I S, t); the Hilbert
    functions of S/(J, t) and R/I agree up to the bound; the lift is
    Cohen-Macaulay exactly when the input is; and a one-dimensional lift
    (points) is reduced.  The CM clause is derived, not tested: with t
    regular on S/J and S/(J, t) = R/I, S/J has the depth and dimension of
    R/I plus one, so S/J is CM exactly when R/I is.  So the CM test runs
    on the input only, and "cm_lifted" repeats its answer when the clause
    holds (None when it does not).  Returns (ok, certificate dict).
    """
    if lifted is None:
        lifted = lift_ideal(ideal, var)
    ring = ideal.ring
    ext = lifted.ring
    if bound is None:
        bound = 2 * max([g.degree() for g in ideal.generators if g],
                        default=1) + 4
    t = ext.parse(var)
    cert = {"prime": ring.prime, "seed": seed, "bound": bound,
            "lifted_generators": [str(g) for g in lifted.generators]}

    back = lifted.contract_set_zero(var)
    cert["t_zero_recovers_input"] = back == ideal
    cert["t_regular"] = lifted.quotient(t) == lifted

    ideal_ext = ideal.extend_ring(var)
    t_ideal = Ideal(ext, [t])
    with_t = lifted + t_ideal
    cert["plus_t_matches"] = with_t == (ideal_ext + t_ideal)

    cert["hilbert_matches"] = all(
        with_t.hilbert_function(d) == ideal.hilbert_function(d)
        for d in range(bound + 1))

    cm_in, _ = ideal.cm_test(seed=seed)
    derived = cert["t_regular"] and cert["plus_t_matches"]
    cert["cm_input"] = cm_in
    cert["cm_lifted"] = cm_in if derived else None
    cert["cm_matches_input"] = derived

    if lifted.krull_dim() == 1:
        cert["points_reduced"] = lifted.is_reduced_zero_dim(seed=seed)
        cert["point_count"] = lifted.degree()
        if ideal.krull_dim() == 0:
            total = 0
            d = 0
            while True:
                h = ideal.hilbert_function(d)
                if h == 0:
                    break
                total += h
                d += 1
            cert["degree_matches_colength"] = lifted.degree() == total

    ok = all(v for k, v in cert.items()
             if k in ("t_zero_recovers_input", "t_regular", "plus_t_matches",
                      "hilbert_matches", "cm_matches_input", "points_reduced",
                      "degree_matches_colength"))
    return ok, cert
