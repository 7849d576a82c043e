"""Buchberger Groebner engine with full reduction, and Hilbert numerators.

Works on the dict representation from :mod:`liaison.rings`.  A basis
element, for Buchberger and for every reducer, has one form: the pair
(leading monomial, monic tail dict), split once when the element joins.
An S-polynomial then multiplies only the two tails, and a normal form
reads each divisor's leading monomial off the pair.

Pairs are pruned only where they are made, when an element joins: old
pairs by the chain criterion (Gebauer and Moeller, J. Symbolic Comput. 6,
1988), new pairs by the product (coprimality) criterion and by keeping
only those with minimal lcm.  Skipping a pair is never needed for
correctness.  The pair queue is degree-by-degree (normal strategy), so
homogeneous inputs are processed degreewise.

A caller that knows the Hilbert numerator of the ideal spanned by
homogeneous generators may pass it (Traverso, J. Symbolic Comput. 22,
1996).  Once every pair below degree d is done, the basis G is complete
in degree d exactly when dim (R/in(G))_d equals the known value, and the
remaining pairs of degree d are dropped unreduced.  The numerator of in(G)
is recomputed only after G grows.  The hint must be exact, and it is
refused for inhomogeneous generators, whose reductions do not stay in one
degree.  Numerators of monomial ideals come from the pivot-variable
recursion below, which :mod:`liaison.ideals` shares.
"""

from __future__ import annotations

import heapq
import math

from .rings import (
    AlgebraError,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


# ---------------------------------------------------------------------------
# Hilbert numerator of a monomial ideal (pivot-variable recursion)

def minimalize(gens):
    """The minimal generators of the monomial ideal that exponent vectors
    span, without repeats, lowest degree first."""
    out = []
    for g in sorted(set(gens), key=sum):
        if not any(all(x <= y for x, y in zip(h, g)) for h in out):
            out.append(g)
    return out


def _num_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _num_shift(a, k):
    return [0] * k + list(a)


def _num_mul_one_minus_zd(a, d):
    out = list(a) + [0] * d
    for i, c in enumerate(a):
        out[i + d] -= c
    return out


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
        else:
            coprime = True
            for i in range(len(gs)):
                for j in range(i + 1, len(gs)):
                    if any(min(x, y) for x, y in zip(gs[i], gs[j])):
                        coprime = False
                        break
                if not coprime:
                    break
            if coprime:
                res = [1]
                for g in gs:
                    res = _num_mul_one_minus_zd(res, sum(g))
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
                res = _num_add(rec(tuple(plus)), _num_shift(rec(tuple(quot)), 1))
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
    lt = max(d, key=ring.order.key)
    inv = ring.field.inv(d[lt])
    p = ring.prime
    return lt, {m: (c * inv) % p for m, c in d.items() if m != lt}


def _reduce_dict(f, basis, ring):
    """Full normal form of dict `f` against the basis elements `basis`.

    Deterministic: always reduces the largest reducible monomial, by the
    first listed divisor.  Returns a new dict.
    """
    key = ring.order.key
    p = ring.prime
    work = dict(f)
    # heap of (negated order key, monomial); lazy deletion
    heap = [(_neg_key(key(m)), m) for m in work]
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
                    heapq.heappush(heap, (_neg_key(key(t)), t))
                work[t] = s
            elif t in work:
                del work[t]
    return out


def _neg_key(k):
    """Negate an order key so the min-heap pops the largest monomial first."""
    return tuple(-x if isinstance(x, int) else tuple(-y for y in x) for x in k)


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
    leading monomial.  `numerator`, when given, is the Hilbert numerator
    of the ideal (Series(R/I) = N(z)/(1-z)^nvars) and the generators must
    be homogeneous: the pairs of a degree whose part of the basis is
    already complete are then dropped unreduced (see the module notes).
    A wrong numerator gives a wrong basis.
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

    g_num = None    # Hilbert numerator of in(G); None once G has grown
    while pairs:
        d = pairs[0][0]
        if numerator is not None:
            if g_num is None:
                g_num = monomial_hilbert_numerator([e[0] for e in basis], n)
            if (hilbert_function_from_numerator(g_num, n, d)
                    == hilbert_function_from_numerator(numerator, n, d)):
                # G is complete in degree d: its pairs reduce to zero
                while pairs and pairs[0][0] == d:
                    heapq.heappop(pairs)
                continue
        _, _, i, j, _ = heapq.heappop(pairs)
        r = _reduce_dict(_spoly_data(basis[i], basis[j], ring), basis, ring)
        if r:
            add(_split(r, ring))
            g_num = None

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
    """Minimalize and tail-reduce a list of basis elements; return monic
    polynomials sorted by increasing leading monomial."""
    minimal = [(lt, tail) for i, (lt, tail) in enumerate(basis)
               if not any(mono_divides(lt2, lt) and (lt2 != lt or j < i)
                          for j, (lt2, _) in enumerate(basis) if j != i)]
    minimal.sort(key=lambda e: ring.order.key(e[0]))
    # no other minimal leading monomial divides lt, and every term the
    # reduction makes is below lt, so lt keeps coefficient 1
    return [Polynomial(ring, {lt: 1, **_reduce_dict(
                tail, minimal[:i] + minimal[i + 1:], ring)})
            for i, (lt, tail) in enumerate(minimal)]
