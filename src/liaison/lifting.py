"""Lifting monomial ideals to reduced ideals in one more variable.

Each generator x_i^{a_i}... is replaced by the product of shifted factors
(x_i - j*t) for j = 0..a_i-1, a polynomial of the same degree in the
extended ring.  Setting t = 0 recovers the monomial, t stays regular
modulo the lifted ideal, and the Hilbert function is preserved; for an
artinian monomial ideal the lift cuts out a reduced set of points.
"""

from __future__ import annotations

from itertools import zip_longest

from .groebner import minimalize, num_mul_one_minus_zd
from .ideals import Ideal
from .rings import AlgebraError, Polynomial

# the lifting variable, appended to the base ring
VAR = "t"


def minimal_monomial_generators(ideal):
    """Exponent vectors of a minimal generating set of a monomial ideal.

    Raises when some generator is not a single term.
    """
    for g in ideal.generators:
        if len(g.terms) != 1:
            raise AlgebraError("generator %s is not a monomial" % g)
    return minimalize(g.leading_monomial() for g in ideal.generators)


def lift_monomial(ring, exps):
    """Product of shifted linear factors replacing one monomial.

    `ring` is the extended ring containing VAR; `exps` indexes the
    remaining variables in order.  x_i^a contributes
    prod_{j=0}^{a-1} (x_i - j*t), built at once from the coefficients of
    the falling factorial X(X-1)...(X-a+1) mod p; the result is
    homogeneous of the same total degree.
    """
    p = ring.prime
    top = max(exps, default=0)
    if p <= top:
        raise AlgebraError(
            "prime %d too small to lift exponent %d: the shifts collide"
            % (p, top))
    if VAR not in ring.variables:
        raise AlgebraError("no lifting variable %r in the ring" % (VAR,))
    ti = ring.variables.index(VAR)
    plain = [i for i in range(ring.nvars) if i != ti]
    if len(exps) != len(plain):
        raise AlgebraError("exponent vector does not match the base ring")
    out = ring.one()
    for i, a in zip(plain, exps):
        if not a:
            continue
        # X(X-1)...(X-a+1) = sum c_k X^k, lowest degree first, so
        # prod_j (x_i - j*t) = sum c_k x_i^k t^(a-k)
        c = [1]
        for j in range(a):
            c = [(lo - j * hi) % p for lo, hi in zip([0] + c, c + [0])]
        terms = {}
        for k, ck in enumerate(c):
            if ck:
                m = [0] * ring.nvars
                m[i], m[ti] = k, a - k
                terms[tuple(m)] = ck
        out = out * Polynomial(ring, terms)
    return out


def lift_ideal(ideal):
    """Lift of a monomial ideal: every minimal generator distracted.

    Returns the ideal of the lifted generators in the extended ring.
    """
    monos = minimal_monomial_generators(ideal)
    ring2 = ideal.ring.extend(VAR)
    return Ideal(ring2, [lift_monomial(ring2, m) for m in monos])


def verify_lifting(ideal, lifted=None, seed=0):
    """Full verification certificate for a lifted monomial ideal.

    Checks, in order: setting t = 0 recovers the input; t is regular
    modulo the lift (J : t = J); (J, t) equals (I S, t); the Hilbert
    functions of S/(J, t) and R/I agree; the lift is Cohen-Macaulay exactly
    when the input is; and a one-dimensional lift (points) is reduced, with
    as many points as the colength of an Artinian input.  Hilbert data are
    read off Hilbert numerators: the colength of an Artinian R/I is its
    degree, and the series N(z)/(1-z)^(n+1) of S/(J, t) and N_I(z)/(1-z)^n
    of R/I agree in every degree exactly when N = (1-z)·N_I, compared
    whole.  The CM clause is derived, not tested: with t regular on S/J
    and S/(J, t) = R/I, S/J has the depth and dimension of R/I plus one,
    so S/J is CM exactly when R/I is.  So the CM test runs on the input
    only, and "cm_lifted" repeats its answer when the clause holds (None
    when it does not).  Returns (ok, certificate dict).
    """
    if lifted is None:
        lifted = lift_ideal(ideal)
    ring = ideal.ring
    ext = lifted.ring
    t = ext.parse(VAR)
    cert = {"prime": ring.prime, "seed": seed,
            "lifted_generators": [str(g) for g in lifted.generators]}

    back = lifted.contract_set_zero(VAR)
    cert["t_zero_recovers_input"] = back == ideal
    cert["t_regular"] = lifted.is_regular_element(t)

    ideal_ext = ideal.extend_ring(VAR)
    t_ideal = Ideal(ext, [t])
    with_t = lifted + t_ideal
    cert["plus_t_matches"] = with_t == (ideal_ext + t_ideal)

    theirs = num_mul_one_minus_zd(ideal.hilbert_numerator(), 1)
    cert["hilbert_matches"] = all(
        a == b for a, b in zip_longest(with_t.hilbert_numerator(), theirs,
                                       fillvalue=0))

    cm_in, _ = ideal.cm_test(seed=seed)
    derived = cert["t_regular"] and cert["plus_t_matches"]
    cert["cm_input"] = cm_in
    cert["cm_lifted"] = cm_in if derived else None
    cert["cm_matches_input"] = derived

    if lifted.krull_dim() == 1:
        cert["points_reduced"] = lifted.is_reduced_zero_dim(seed=seed)
        cert["point_count"] = lifted.degree()
        if ideal.krull_dim() == 0:
            cert["degree_matches_colength"] = (lifted.degree()
                                               == ideal.degree())

    ok = all(v for k, v in cert.items()
             if k in ("t_zero_recovers_input", "t_regular", "plus_t_matches",
                      "hilbert_matches", "cm_matches_input", "points_reduced",
                      "degree_matches_colength"))
    return ok, cert
