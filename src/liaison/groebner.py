"""Buchberger Groebner engine with full reduction, and Hilbert numerators.

Works on the dict representation from :mod:`liaison.rings`.  A basis
element, for Buchberger and for every reducer, has one form: the pair
(leading monomial, monic tail dict), split once when the element joins.
An S-polynomial then multiplies only the two tails, and a normal form
reads each divisor's leading monomial off the pair.  Splits and the
reduction heap find the largest monomial as the one of least
`degrevlex_rank`; the order key sorts only the pair queue and the
ascending sorts of basis elements.

Pairs are pruned only where they are made, when an element joins: old
pairs by the chain criterion (Gebauer and Moeller, J. Symbolic Comput. 6,
1988), new pairs by the product (coprimality) criterion and by keeping
only those with minimal lcm.  Skipping a pair is never needed for
correctness.  The pair queue is degree-by-degree (normal strategy), so
homogeneous inputs are processed degreewise.

A caller that knows a lower bound N on the Hilbert function of R/I,
for I spanned by homogeneous generators, may pass it as a numerator:
HF_N(d) <= HF(R/I)(d) in every degree (Traverso, J. Symbolic Comput. 22,
1996).  The exact numerator is its sharpest case.  Once every pair below
degree d is done, in(G)_d lies in in(I)_d, so
dim (R/in(G))_d >= HF(R/I)(d) >= HF_N(d), and G is complete in degree d as
soon as the first equals the last: the remaining pairs of degree d are
dropped unreduced.  The Hilbert function of in(G) is computed once a
degree, when its first pair is popped; after that the deficit
dim (R/in(G))_d - HF_N(d) is counted down, since a nonzero reduction in
degree d is reduced against G and adds exactly one leading monomial of
degree d.  A negative deficit shows a hint above the Hilbert function,
and raises.  For c <= n forms of degrees d_1..d_c, prod (1 - z^d_i) is
such a bound: HF(R/I)(d) = dim R_d - rank(+ R_(d-d_i) -> R_d), the rank
is largest at a general point of the space of such forms, and a general
point is a regular sequence, whose quotient has that series.  The hint is
refused for inhomogeneous generators, whose reductions do not stay in one
degree.  Numerators of monomial ideals come from the pivot-variable
recursion below.  The numerator is the one stored form of Hilbert data in
the package: the arithmetic on numerators, and the factoring by (1-z) that
reads off dimension, degree and h-vector, live here too.
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations
from operator import le

from .rings import (
    AlgebraError,
    Polynomial,
    degrevlex_rank,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


# ---------------------------------------------------------------------------
# Hilbert numerators: arithmetic, and those of monomial ideals
# (pivot-variable recursion)

def minimalize(gens):
    """The minimal generators of the monomial ideal that exponent vectors
    span, without repeats, lowest degree first."""
    out = []
    for g in sorted(set(gens), key=sum):
        if not any(all(map(le, h, g)) for h in out):
            out.append(g)
    return out


def num_add(a, b):
    """a(z) + b(z), trailing zeros cut."""
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
           for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def num_shift(a, k):
    """z^k a(z)."""
    return [0] * k + list(a)


def num_mul_one_minus_zd(a, d):
    """(1 - z^d) a(z)."""
    out = list(a) + [0] * d
    for i, c in enumerate(a):
        out[i + d] -= c
    return out


def strip_one_minus_z(num):
    """Factor N = (1-z)^k * M with M(1) != 0; returns (k, M), or (None, [])
    for N = 0.

    For N the Hilbert numerator of R/I in n variables, n - k is the Krull
    dimension of R/I, M its h-vector and M(1) its degree.
    """
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return None, []
    k = 0
    while sum(num) == 0:
        # synthetic division by (1 - z): q_i = sum of first i+1 coefficients
        acc = 0
        q = []
        for c in num[:-1]:
            acc += c
            q.append(acc)
        num = q
        while num and num[-1] == 0:
            num.pop()
        k += 1
        if not num:
            return None, []
    return k, num


def same_hilbert_polynomial(a, b, nvars):
    """True when a(z)/(1-z)^nvars and b(z)/(1-z)^nvars differ by a
    polynomial, that is when (1-z)^nvars divides a - b: the two Hilbert
    functions then agree in high degrees."""
    k, _ = strip_one_minus_z(num_add(a, [-c for c in b]))
    return k is None or k >= nvars


def monomial_hilbert_numerator(gens, nvars):
    """Numerator N(z) with Series = N(z)/(1-z)^nvars, as an int list."""
    gens = minimalize(tuple(g) for g in gens)
    memo = {}

    def rec(gs):
        key = frozenset(gs)
        if key in memo:
            return memo[key]
        if not gs:
            res = [1]
        elif any(sum(g) == 0 for g in gs):
            res = [0]
        elif not any(any(map(min, a, b)) for a, b in combinations(gs, 2)):
            # pairwise coprime generators: a complete intersection
            res = [1]
            for g in gs:
                res = num_mul_one_minus_zd(res, sum(g))
        else:
            counts = [0] * nvars
            for g in gs:
                for i, e in enumerate(g):
                    if e:
                        counts[i] += 1
            v = counts.index(max(counts))
            pivot = tuple(1 if i == v else 0 for i in range(nvars))
            plus = minimalize([g for g in gs if g[v] == 0] + [pivot])
            quot = minimalize([tuple(e - 1 if i == v and e else e
                                      for i, e in enumerate(g))
                                for g in gs])
            res = num_add(rec(tuple(plus)), num_shift(rec(tuple(quot)), 1))
        memo[key] = res
        return res

    out = rec(tuple(gens))
    while out and out[-1] == 0:
        out.pop()
    return out


def hilbert_function_from_numerator(numerator, nvars, d):
    """dim_K (R/I)_d, for Series(R/I) = N(z)/(1-z)^nvars."""
    if d < 0:
        return 0
    return sum(c * math.comb(d - i + nvars - 1, nvars - 1)
               for i, c in enumerate(numerator) if i <= d)


# ---------------------------------------------------------------------------
# normal forms and Buchberger

def _split(d, ring):
    """The basis element of a nonzero dict: (leading monomial, monic tail)."""
    lt = min(d, key=degrevlex_rank)
    inv = ring.field.inv(d[lt])
    p = ring.prime
    return lt, {m: (c * inv) % p for m, c in d.items() if m != lt}


def _reduce_dict(f, basis, ring):
    """Full normal form of dict `f` against the basis elements `basis`.

    Deterministic: always reduces the largest reducible monomial, by the
    first listed divisor.  Returns a new dict.
    """
    p = ring.prime
    work = dict(f)
    # heap of (degrevlex rank, monomial), largest monomial on top; lazy
    # deletion
    heap = [(degrevlex_rank(m), m) for m in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        for lt, tail in basis:
            if mono_divides(lt, m):
                break
        else:
            out[m] = c
            continue
        shift = mono_div(m, lt)
        for mm, cc in tail.items():
            t = mono_mul(mm, shift)
            s = (work.get(t, 0) - c * cc) % p
            if s:
                if t not in work:
                    heapq.heappush(heap, (degrevlex_rank(t), t))
                work[t] = s
            elif t in work:
                del work[t]
    return out


def normal_form(f, reducers):
    """Remainder of `f` on division by the listed polynomials.

    Every monomial of the result is outside the leading-term ideal of the
    reducers; f - result lies in the ideal they generate.
    """
    if not isinstance(f, Polynomial):
        raise AlgebraError("normal_form expects a Polynomial")
    return reducer(reducers, f.ring)(f)


def reducer(reducers, ring):
    """The map f -> normal_form(f, reducers) on `ring`, with the reducers
    split into basis elements once, for normal forms that are not known in
    advance."""
    for g in reducers:
        if g.ring != ring:
            raise AlgebraError("polynomials and reducers must share a ring")
    basis = [_split(g.terms, ring) for g in reducers if g]

    def nf(f):
        if f.ring != ring:
            raise AlgebraError("polynomials and reducers must share a ring")
        if not basis or not f:
            return f
        return Polynomial(ring, _reduce_dict(f.terms, basis, ring))

    return nf


def _spoly_data(a, b, ring):
    """S-polynomial of two basis elements as a dict.

    Both are monic, so their leading terms cancel and only the tails are
    multiplied.
    """
    p = ring.prime
    (lta, taila), (ltb, tailb) = a, b
    lcm = mono_lcm(lta, ltb)
    sa = mono_div(lcm, lta)
    sb = mono_div(lcm, ltb)
    out = {mono_mul(m, sa): c for m, c in taila.items()}
    for m, c in tailb.items():
        t = mono_mul(m, sb)
        s = (out.get(t, 0) - c) % p
        if s:
            out[t] = s
        else:
            del out[t]
    return out


def buchberger(generators, numerator=None):
    """The unique reduced Groebner basis of the generated ideal.

    Zero generators are dropped; the empty ideal yields [].  Output
    polynomials are monic, fully auto-reduced, and sorted by increasing
    leading monomial.  `numerator`, when given, is a lower bound on the
    Hilbert function of R/I: HF_N(d) <= HF(R/I)(d) in every degree, for
    HF_N the function of N(z)/(1-z)^nvars.  The exact numerator is its
    sharpest case, and prod (1 - z^deg g) over c <= nvars generators is
    always one (see the module notes).  The generators must then be
    homogeneous, and the pairs of a degree whose part of the basis is
    already complete are dropped unreduced.  The Hilbert function of
    in(G) is computed once a degree and then counted down, one per
    nonzero reduction.  A hint above the Hilbert function raises
    AlgebraError when a degree shows it, and may else give a wrong basis.
    """
    gens = [g for g in generators if g]
    if not gens:
        return []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise AlgebraError("generators must share one ring")
    if numerator is not None and not all(g.is_homogeneous() for g in gens):
        raise AlgebraError("a Hilbert numerator needs homogeneous generators")
    key = ring.order.key
    n = ring.nvars

    basis = []      # basis elements (lt, monic tail)
    pairs = []      # heap of (deg lcm, key(lcm), i, j, lcm)

    def add(element):
        lt = element[0]
        t = len(basis)
        # chain criterion: drop old pairs strictly superseded by the newcomer
        keep = []
        for entry in pairs:
            _, _, i, j, lcm = entry
            if (mono_divides(lt, lcm)
                    and mono_lcm(basis[i][0], lt) != lcm
                    and mono_lcm(basis[j][0], lt) != lcm):
                continue
            keep.append(entry)
        if len(keep) < len(pairs):
            # a filtered heap need not be a heap
            pairs[:] = keep
            heapq.heapify(pairs)
        # new pairs, pruned by the product criterion and mutual redundancy
        fresh = {}
        for i, (lti, _) in enumerate(basis):
            lcm = mono_lcm(lti, lt)
            if lcm == mono_mul(lti, lt):   # coprime leading terms
                continue
            fresh[i] = lcm
        # among the new pairs keep only those with minimal lcm's
        for i, lcm in list(fresh.items()):
            for i2, lcm2 in fresh.items():
                if i2 != i and lcm2 != lcm and mono_divides(lcm2, lcm):
                    del fresh[i]
                    break
        for i, lcm in fresh.items():
            heapq.heappush(pairs, (sum(lcm), key(lcm), i, t, lcm))
        basis.append(element)

    for element in sorted((_split(g.terms, ring) for g in gens),
                          key=lambda e: key(e[0])):
        add(element)

    top = None      # the degree whose deficit is being counted
    deficit = 0     # dim (R/in(G))_top - HF_N(top)
    while pairs:
        d = pairs[0][0]
        if numerator is not None:
            if d != top:
                top = d
                deficit = (hilbert_function_from_numerator(
                    monomial_hilbert_numerator([e[0] for e in basis], n), n, d)
                    - hilbert_function_from_numerator(numerator, n, d))
                if deficit < 0:
                    raise AlgebraError("the Hilbert hint exceeds the Hilbert "
                                       "function in degree %d" % d)
            if not deficit:
                # G is complete in degree d: its pairs reduce to zero
                while pairs and pairs[0][0] == d:
                    heapq.heappop(pairs)
                continue
        _, _, i, j, _ = heapq.heappop(pairs)
        r = _reduce_dict(_spoly_data(basis[i], basis[j], ring), basis, ring)
        if r:
            add(_split(r, ring))
            # r is reduced against G: one new leading monomial of degree d
            deficit -= 1

    return _interreduce(basis, ring)


def interreduce(basis):
    """The reduced Groebner basis of an ideal, from any Groebner basis of it.

    Minimalizes and tail-reduces, with no S-pairs: the output is the one
    `buchberger` returns for the same ideal and ring.
    """
    gens = [g for g in basis if g]
    if not gens:
        return []
    ring = gens[0].ring
    return _interreduce([_split(g.terms, ring) for g in gens], ring)


def _interreduce(basis, ring):
    """Minimalize and tail-reduce a list of basis elements, in one pass in
    increasing order of leading monomial; return monic polynomials sorted
    that way.

    `basis` is a list of (leading monomial, monic tail) pairs in any
    order.  A divisor of a leading monomial sorts no later than it, so an
    element is kept when no leading monomial kept before it divides its
    own; of equal leading monomials the first listed stays.  A tail term
    lies below its lt, and a divisor of it below that again, so only the
    elements kept before it can reduce it, and they are already reduced:
    the tail is reduced against them, and only when one of their leading
    monomials divides one of its terms.
    """
    key = ring.order.key
    kept = []       # (lt, reduced tail), increasing lt
    lts = []
    for lt, tail in sorted(basis, key=lambda e: key(e[0])):
        if any(mono_divides(h, lt) for h in lts):
            continue
        if any(mono_divides(h, m) for m in tail for h in lts):
            tail = _reduce_dict(tail, kept, ring)
        kept.append((lt, tail))
        lts.append(lt)
    # the reduction makes terms below lt only, so lt keeps coefficient 1
    return [Polynomial(ring, {lt: 1, **tail}) for lt, tail in kept]
