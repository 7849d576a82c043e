"""Independent cross-checks used by several test modules.

Everything here takes a different route from the code under test:
normal forms by plain division in Polynomial arithmetic, instead of the
prepared reducers of the Groebner engine, membership by degree-truncated
linear algebra, equality by fresh reduced bases, Hilbert functions by
monomial counting, instead of Hilbert numerators, and so colengths,
degrees, Hilbert numerators and the dimension of an affine algebra by
counting standard monomials, sympy as an external basis oracle,
intersections by sympy's lex elimination basis, instead of a colon in two
more variables, quotients through an intersection, saturation as an iterated
quotient, instead of one stripped Groebner basis, the geometric test of a
link by saturating I meet J and c, instead of comparing Hilbert
polynomials of numerators, the affine chart of a
scheme by Buchberger on the dehomogenized generators, instead of the
dehomogenized projective basis, and reducedness by the characteristic
polynomial of a random multiplier, instead of the minimal polynomials of
the coordinates, lines as the RREF rows of their two planes, instead of
their Plucker vectors, the ideal of a union of lines as the intersection of
the ideals of its lines, instead of the staircase products of a grid, and
the crossings of two line sets by testing every pair of lines, instead of
reading them off the planes through each point, and substitution term by
term, each term the product of the powers of its images, instead of by
Horner's rule.
"""

import math
import random

from liaison import modp
from liaison.groebner import buchberger, reducer
from liaison.ideals import (GenericityError, Ideal, _exact_div,
                            _random_linear_form, normalize_point)
from liaison.rings import Polynomial, mono_div, mono_divides, mono_lcm


def degree_monomials(n, d):
    """All exponent tuples of total degree d in n variables."""
    if n == 1:
        yield (d,)
        return
    for e in range(d + 1):
        for rest in degree_monomials(n - 1, d - e):
            yield (e,) + rest


def monomials_up_to(n, d):
    for k in range(d + 1):
        yield from degree_monomials(n, k)


def membership_by_linear_algebra(f, generators, bound):
    """f in (generators) in degrees <= bound, by row reduction only.

    Spans {m * g} for every generator g and monomial m with
    deg(m * g) <= bound, then compares ranks with and without f.  Exact
    for homogeneous f of degree <= bound when the ideal is homogeneous.
    """
    ring = f.ring
    p = ring.prime
    cols = {m: i for i, m in enumerate(monomials_up_to(ring.nvars, bound))}

    def vec(poly):
        row = [0] * len(cols)
        for m, c in poly.terms.items():
            row[cols[m]] = c
        return row

    rows = []
    for g in generators:
        if not g:
            continue
        gap = bound - g.degree()
        if gap < 0:
            continue
        for m in monomials_up_to(ring.nvars, gap):
            rows.append(vec(g * ring.monomial(m)))
    base = rank([r[:] for r in rows], p)
    return rank(rows + [vec(f)], p) == base


def divide(f, divisors):
    """Remainder of f on plain division by the nonzero divisors.

    The leading term of what is left is cancelled by the first divisor whose
    leading monomial divides it, or else moved to the remainder; every step
    is Polynomial arithmetic, with no prepared reducers.
    """
    ring = f.ring
    p = ring.prime
    rest, remainder = f, ring.zero()
    while rest:
        m, c = rest.leading_monomial(), rest.leading_coeff()
        for g in divisors:
            lt = g.leading_monomial()
            if mono_divides(lt, m):
                q = c * pow(g.leading_coeff(), p - 2, p)
                rest = rest - ring.monomial(mono_div(m, lt), q) * g
                break
        else:
            lead = ring.monomial(m, c)
            remainder = remainder + lead
            rest = rest - lead
    return remainder


def s_polynomial(f, g):
    """lcm/lt(f) f / lc(f) - lcm/lt(g) g / lc(g), for nonzero f and g."""
    ring = f.ring
    p = ring.prime
    lcm = mono_lcm(f.leading_monomial(), g.leading_monomial())

    def scaled(h):
        return ring.monomial(mono_div(lcm, h.leading_monomial()),
                             pow(h.leading_coeff(), p - 2, p)) * h

    return scaled(f) - scaled(g)


def substitute_termwise(f, assignment, ring):
    """f with the polynomials (or ints) of `ring` in `assignment` put for
    its variables, and every other variable kept by name: the sum over the
    terms of f of the coefficient times the power of each image."""
    out = ring.zero()
    for m, c in f.terms.items():
        term = ring.constant(c)
        for v, e in zip(f.ring.variables, m):
            img = assignment.get(v)
            if img is None:
                img = ring.variable(v)
            elif isinstance(img, int):
                img = ring.constant(img)
            term = term * power(img, e)
        out = out + term
    return out


def power(f, e):
    """f^e by repeated squaring."""
    out = f.ring.one()
    while e:
        if e & 1:
            out = out * f
        e >>= 1
        if e:
            f = f * f
    return out


def equal_by_reduced_bases(a, b):
    """a == b by comparing reduced Groebner bases computed afresh from the
    generators, whatever either ideal has cached."""
    return (a.ring == b.ring
            and buchberger(a.generators) == buchberger(b.generators))


def hilbert_by_counting(lead_monomials, n, d):
    """dim of degree-d part of R/(monomial ideal) by direct enumeration."""
    count = 0
    for m in degree_monomials(n, d):
        if not any(mono_divides(g, m) for g in lead_monomials):
            count += 1
    return count


def fresh_leading_monomials(ideal):
    """Leading monomials of a reduced basis computed afresh from the
    generators, whatever the ideal has cached."""
    return [g.leading_monomial() for g in buchberger(ideal.generators)]


def numerator_degree_bound(lead_monomials):
    """A degree past every coefficient of the Hilbert numerator of the
    monomial ideal: the degree of the lcm of its generators, since the
    numerator is the alternating sum of z^deg lcm(S) over the subsets S
    (Taylor's resolution).  From that degree on, the Hilbert function is
    the Hilbert polynomial."""
    return sum(max(e) for e in zip(*lead_monomials)) if lead_monomials else 0


def hilbert_functions_by_counting(ideal, top):
    """[dim (R/I)_d for d = 0..top], counted on fresh leading monomials."""
    lts = fresh_leading_monomials(ideal)
    return [hilbert_by_counting(lts, ideal.ring.nvars, d)
            for d in range(top + 1)]


def colength_by_counting(ideal):
    """dim_K R/I for an Artinian R/I: its Hilbert function, counted on
    fresh leading monomials, summed up to the first degree where it is 0."""
    lts = fresh_leading_monomials(ideal)
    total, d = 0, 0
    while True:
        h = hilbert_by_counting(lts, ideal.ring.nvars, d)
        if not h:
            return total
        total += h
        d += 1


def degree_by_counting(ideal):
    """deg(I) for dim(R/I) = 1: the Hilbert function, counted on fresh
    leading monomials, at a degree where it is the (constant) Hilbert
    polynomial."""
    lts = fresh_leading_monomials(ideal)
    return hilbert_by_counting(lts, ideal.ring.nvars,
                               numerator_degree_bound(lts))


def standard_monomials(lead_monomials, n, cap=None):
    """The monomials in n variables that no leading monomial divides, in
    increasing tuple order, enumerated upward from 1 one variable at a
    time; None once there are more than `cap`.  Without a cap they must be
    finitely many."""
    start = (0,) * n
    seen = {start}
    queue = [start]
    out = []
    while queue:
        m = queue.pop()
        if any(mono_divides(lt, m) for lt in lead_monomials):
            continue
        out.append(m)
        if cap is not None and len(out) > cap:
            return None
        for i in range(n):
            m2 = m[:i] + (m[i] + 1,) + m[i + 1:]
            if m2 not in seen:
                seen.add(m2)
                queue.append(m2)
    return sorted(out)


def sympy_groebner(ring, texts):
    """Reduced degrevlex Groebner basis as a set of strings, via sympy."""
    import sympy

    syms = sympy.symbols(list(ring.variables))
    polys = [sympy.sympify(t.replace("^", "**"), dict(zip(ring.variables,
                                                          syms)))
             for t in texts]
    gb = sympy.groebner(polys, *syms, order="grevlex",
                        modulus=ring.prime, symmetric=False)
    out = set()
    for e in gb.exprs:
        out.add(str(ring.parse(str(e).replace("**", "^").replace(" ", ""))))
    return out


def ci_hilbert_numerator(degrees):
    """Koszul numerator prod (1 - z^d) of a complete intersection."""
    num = [1]
    for d in degrees:
        out = [0] * (len(num) + d)
        for i, a in enumerate(num):
            out[i] += a
            out[i + d] -= a
        while out and out[-1] == 0:
            out.pop()
        num = out
    return num


def numerator_by_counting(gens):
    """Hilbert numerator of the ideal homogeneous generators span, as a
    list: N(z) = (1-z)^n sum HF(d) z^d, with HF counted on the leading
    monomials of a fresh basis up to the degree bound of Taylor's
    resolution (`numerator_degree_bound`), past which N has no term."""
    n = gens[0].ring.nvars
    lts = [g.leading_monomial() for g in buchberger(gens)]
    top = numerator_degree_bound(lts)
    hf = [hilbert_by_counting(lts, n, d) for d in range(top + 1)]
    num = [sum((-1) ** j * math.comb(n, j) * hf[k - j]
               for j in range(min(n, k) + 1)) for k in range(top + 1)]
    while num and num[-1] == 0:
        num.pop()
    return num


def hint_kind(gens, numerator):
    """What a Hilbert hint for a basis of `gens` is: None when there is
    none, "ci" for the complete-intersection bound prod (1 - z^deg g) of at
    most nvars generators, "exact" for the numerator of the ideal they
    span (`numerator_by_counting`), else "other"."""
    if numerator is None:
        return None
    num = list(numerator)
    while num and num[-1] == 0:
        num.pop()
    if (len(gens) <= gens[0].ring.nvars
            and num == ci_hilbert_numerator([g.degree() for g in gens])):
        return "ci"
    return "exact" if num == numerator_by_counting(gens) else "other"


def random_homogeneous(ring, degree, rng):
    """Dense random homogeneous form of the given degree."""
    out = ring.zero()
    for m in degree_monomials(ring.nvars, degree):
        c = rng.randrange(ring.prime)
        if c:
            out = out + ring.monomial(m, c)
    return out


def random_form_through(ring, point, rng):
    """Random linear form vanishing at the projective point."""
    p = ring.prime
    j = next(i for i, c in enumerate(point) if c % p)
    while True:
        coeffs = [rng.randrange(p) for _ in ring.variables]
        s = sum(c * x for i, (c, x) in enumerate(zip(coeffs, point))
                if i != j) % p
        coeffs[j] = (-s * pow(point[j], p - 2, p)) % p
        if any(coeffs):
            return ring.linear_form(coeffs)


def intersection_by_elimination(ideal, other):
    """The elements of ideal meet other that sympy's lex basis of
    t·I + (1 - t)·J over GF(p), with t a new variable first, holds free of
    t, as strings in the ring of the ideals.  They are a Groebner basis of
    the intersection; `sympy_groebner` of them is its reduced basis."""
    import sympy

    ring = ideal.ring
    syms = sympy.symbols(list(ring.variables))
    names = dict(zip(ring.variables, syms))
    t = sympy.Dummy("t")

    def expr(g):
        return sympy.sympify(str(g).replace("^", "**"), names)

    polys = ([t * expr(g) for g in ideal.generators]
             + [(1 - t) * expr(g) for g in other.generators])
    gb = sympy.groebner(polys, t, *syms, order="lex", modulus=ring.prime,
                        symmetric=False)
    return [str(ring.parse(str(e).replace("**", "^").replace(" ", "")))
            for e in gb.exprs if t not in e.free_symbols]


def quotient_by_elimination(ideal, by):
    """ideal : by for a form or an ideal, as (ideal meet (f)) / f.

    The intersection is `Ideal.intersect`'s; by an ideal, the quotients by
    its generators are intersected.
    """
    forms = [by] if isinstance(by, Polynomial) else list(by.generators)
    out = None
    for f in forms:
        meet = ideal.intersect(Ideal(ideal.ring, [f]))
        q = Ideal(ideal.ring,
                  [_exact_div(g, f) for g in meet.groebner_basis()])
        out = q if out is None else out.intersect(q)
    return out


def irrelevant_ideal(ring):
    """The ideal of the variables of the ring."""
    return Ideal(ring, ring.gens())


def saturate_by_quotients(ideal, by):
    """ideal : by^infinity as the stable value of ideal : by : by : ...,
    each quotient by elimination."""
    current = ideal
    while True:
        nxt = quotient_by_elimination(current, by)
        if nxt == current:
            return current
        current = nxt


def geometric_link_by_saturation(c_ideal, ideal, residual):
    """The geometric-link criterion built literally: c^sat = (I meet J)^sat,
    both saturations iterated quotients by m, and I + J of codimension
    above that of I."""
    m = irrelevant_ideal(ideal.ring)
    meet = ideal.intersect(residual)
    if saturate_by_quotients(meet, m) != saturate_by_quotients(c_ideal, m):
        return False
    top = ideal + residual
    return top.is_unit() or top.codim() > ideal.codim()


def affine_basis_by_dehomogenizing(ideal, coeffs):
    """(affine ring, reduced basis) of ideal on the chart sum c_i x_i = 1.

    x_j, for the last nonzero c_j, is solved for and substituted into every
    generator; the inhomogeneous generators get one Buchberger run in the
    degrevlex ring of the other variables.
    """
    ring = ideal.ring
    p = ring.prime
    j = max(i for i, c in enumerate(coeffs) if c % p)
    aff = ring.with_variables(ring.variables[:j] + ring.variables[j + 1:])
    # x_j = (1 - sum_{i != j} c_i x_i) / c_j
    acc = aff.one()
    for i, v in enumerate(ring.variables):
        if i != j:
            acc = acc - coeffs[i] * aff.variable(v)
    assignment = {v: aff.variable(v) for v in aff.variables}
    assignment[ring.variables[j]] = pow(coeffs[j], p - 2, p) * acc
    return aff, buchberger([g.substitute(assignment, aff)
                            for g in ideal.generators])


def rank(rows, p):
    return len(modp.rref(rows, p)[1])


def mult_matrix(g, gb, std, ring):
    """Matrix of multiplication by g on the quotient, in the basis std."""
    index = {m: i for i, m in enumerate(std)}
    nf = reducer(gb, ring)
    cols = []
    for m in std:
        col = [0] * len(std)
        for mm, c in nf(g * ring.monomial(m)).terms.items():
            col[index[mm]] = c
        cols.append(col)
    # cols[j][i] is entry (i, j)
    return [[cols[j][i] for j in range(len(std))] for i in range(len(std))]


def reduced_by_charpoly(ideal, seed):
    """Reducedness of a zero-dimensional scheme, one-sided: True when a
    random linear multiplier on the chart `_affine_algebra(seed)` picks has
    a squarefree characteristic polynomial of degree deg(I), which proves
    the scheme reduced; False after two multipliers fail, which proves
    nothing, since a multiplier may take one value at two points.  The
    algebra's basis of standard monomials is counted here."""
    aff, gb = ideal._affine_algebra(seed)
    std = standard_monomials([g.leading_monomial() for g in gb], aff.nvars)
    for attempt in range(2):
        rng = random.Random("red:%d:%d" % (seed, attempt))
        lam = _random_linear_form(aff, rng)
        chi = modp.charpoly(mult_matrix(lam, gb, std, aff), aff.prime)
        if modp.is_squarefree(chi, aff.prime):
            return True
    return False


def det4(r0, r1, r2, r3):
    a0, a1, a2, a3 = r0
    b0, b1, b2, b3 = r1
    c0, c1, c2, c3 = r2
    d0, d1, d2, d3 = r3
    m01 = a0 * b1 - a1 * b0
    m02 = a0 * b2 - a2 * b0
    m03 = a0 * b3 - a3 * b0
    m12 = a1 * b2 - a2 * b1
    m13 = a1 * b3 - a3 * b1
    m23 = a2 * b3 - a3 * b2
    n01 = c0 * d1 - c1 * d0
    n02 = c0 * d2 - c2 * d0
    n03 = c0 * d3 - c3 * d0
    n12 = c1 * d2 - c2 * d1
    n13 = c1 * d3 - c3 * d1
    n23 = c2 * d3 - c3 * d2
    return (m01 * n23 - m02 * n13 + m03 * n12
            + m12 * n03 - m13 * n02 + m23 * n01)


def line_rows(u, v, p):
    """The line cut by the planes u and v, as the two RREF rows of the
    pair; raises GenericityError when the planes are proportional."""
    red, pivots = modp.rref([list(u), list(v)], p)
    if len(pivots) != 2:
        raise GenericityError("proportional forms do not cut a line")
    return tuple(red[0]), tuple(red[1])


_MINORS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def plucker_rows(key):
    """The reduced row echelon basis of the planes through a line, read off
    its Plucker vector (the six 2x2 minors 01, 02, 03, 12, 13, 23 of two of
    its planes, scaled so that the first nonzero one is 1).

    The pivot columns (a, b) of the echelon rows r, s are the first pair
    with a nonzero minor, and their (a, b) minor is 1, as in the scaled
    vector.  With w_ij the minor of columns i, j (w_ji = -w_ij), row r is
    (w_cb)_c and row s is (w_ac)_c.
    """
    w = {}
    for (i, j), c in zip(_MINORS, key):
        w[i, j], w[j, i] = c, -c
    a, b = next(ij for ij, c in zip(_MINORS, key) if c)
    return (tuple(w.get((c, b), 0) for c in range(4)),
            tuple(w.get((a, c), 0) for c in range(4)))


def lines_ideal(ring, keys):
    """Ideal of a union of lines, each given by its Plucker vector: the
    intersection of the ideals of the lines, one at a time."""
    out = None
    for key in keys:
        li = Ideal(ring, [ring.linear_form(r) for r in plucker_rows(key)])
        out = li if out is None else out.intersect(li)
    return out


def meet_point(y, w, p):
    """Common point of two crossing lines (row pairs), or None when skew."""
    ker = modp.nullspace([list(r) for r in y + w], p)
    if not ker:
        return None
    if len(ker) != 1:
        raise GenericityError("overlapping lines in a crossing test")
    return tuple(normalize_point(ker[0], p))


def sweep_crossings(lines_y, lines_w, special, p):
    """Classify every crossing of a Y-line with a W-line, pair by pair.

    The lines are `line_rows` pairs.  Returns (counts at special points,
    {other crossing point: pair count}), the latter in the order the sweep
    first meets each point.  Every pair is tested exactly (4x4
    determinant).
    """
    special_counts = {k: 0 for k in special}
    elsewhere = {}
    for y in lines_y:
        r0, r1 = y
        for w in lines_w:
            r2, r3 = w
            if det4(r0, r1, r2, r3) % p:
                continue
            pt = meet_point(y, w, p)
            if pt in special_counts:
                special_counts[pt] += 1
            else:
                elsewhere[pt] = elsewhere.get(pt, 0) + 1
    return special_counts, elsewhere
