"""Buchberger Groebner engine with full reduction, and Hilbert numerators.

Works on the dict representation from :mod:`liaison.rings`.  Pair handling
uses the product (coprimality) criterion and the chain criterion, with a
degree-by-degree (normal strategy) pair queue, so homogeneous inputs are
processed degreewise.

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

def _minimalize(gens):
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
    gens = _minimalize(tuple(g) for g in gens)
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
                plus = _minimalize([g for g in gs if g[v] == 0] + [pivot])
                quot = _minimalize([tuple(e - 1 if i == v and e else e
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

def _reduce_dict(f, basis, ring):
    """Full normal form of dict `f` against [(lt, terms)] monic `basis`.

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
    lts = [b[0] for b in basis]
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if not c:
            continue
        red = None
        for i, lt in enumerate(lts):
            if mono_divides(lt, m):
                red = i
                break
        if red is None:
            out[m] = c
            del work[m]
            continue
        shift = mono_div(m, lts[red])
        del work[m]
        for mm, cc in basis[red][1].items():
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


def _make_basis(polys, ring):
    """[(leading monomial, tail-inclusive monic dict)] for reducers."""
    field = ring.field
    out = []
    for g in polys:
        if not g:
            continue
        lt = max(g, key=ring.order.key)
        inv = field.inv(g[lt])
        monic = {m: (c * inv) % ring.prime for m, c in g.items()}
        tail = {m: c for m, c in monic.items() if m != lt}
        out.append((lt, tail))
    return out


def normal_form(f, reducers):
    """Remainder of `f` on division by the listed polynomials.

    Every monomial of the result is outside the leading-term ideal of the
    reducers; f - result lies in the ideal they generate.
    """
    if not isinstance(f, Polynomial):
        raise AlgebraError("normal_form expects a Polynomial")
    return normal_forms([f], reducers)[0]


def normal_forms(polys, reducers):
    """[normal_form(f, reducers) for f in polys], with the reducers
    prepared once for the whole batch."""
    polys = list(polys)
    if not polys:
        return []
    return list(map(reducer(reducers, polys[0].ring), polys))


def reducer(reducers, ring):
    """The map f -> normal_form(f, reducers) on `ring`, with the reducers
    prepared once, for normal forms that are not known in advance."""
    for g in reducers:
        if g.ring != ring:
            raise AlgebraError("polynomials and reducers must share a ring")
    basis = _make_basis([g.terms for g in reducers if g], ring)

    def nf(f):
        if f.ring != ring:
            raise AlgebraError("polynomials and reducers must share a ring")
        if not basis or not f:
            return f
        return Polynomial(ring, _reduce_dict(f.terms, basis, ring))

    return nf


def _spoly_data(gi, gj, ring):
    """S-polynomial of two monic dicts as a dict."""
    p = ring.prime
    lti = max(gi, key=ring.order.key)
    ltj = max(gj, key=ring.order.key)
    lcm = mono_lcm(lti, ltj)
    si = mono_div(lcm, lti)
    sj = mono_div(lcm, ltj)
    ci = ring.field.inv(gi[lti])
    cj = ring.field.inv(gj[ltj])
    out = {}
    for m, c in gi.items():
        t = mono_mul(m, si)
        out[t] = (out.get(t, 0) + c * ci) % p
    for m, c in gj.items():
        t = mono_mul(m, sj)
        s = (out.get(t, 0) - c * cj) % p
        if s:
            out[t] = s
        elif t in out:
            del out[t]
    return {m: c for m, c in out.items() if c}


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

    G = []          # list of monic dicts
    lts = []        # leading monomials, parallel to G
    tails = []      # (lt, tail dict) reducers, parallel to G
    pairs = []      # heap of (deg lcm, key(lcm), i, j, lcm)

    def add_poly(d):
        lt = max(d, key=key)
        inv = ring.field.inv(d[lt])
        d = {m: (c * inv) % ring.prime for m, c in d.items()}
        t = len(G)
        # chain criterion: drop old pairs strictly superseded by the newcomer
        keep = []
        for entry in pairs:
            _, _, i, j, lcm = entry
            if (mono_divides(lt, lcm)
                    and mono_lcm(lts[i], lt) != lcm
                    and mono_lcm(lts[j], lt) != lcm):
                continue
            keep.append(entry)
        if len(keep) < len(pairs):
            # a filtered heap need not be a heap
            pairs[:] = keep
            heapq.heapify(pairs)
        # new pairs, pruned by the product criterion and mutual redundancy
        fresh = {}
        for i in range(t):
            lcm = mono_lcm(lts[i], lt)
            if lcm == mono_mul(lts[i], lt):   # coprime leading terms
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
        G.append(d)
        lts.append(lt)
        tails.append((lt, {m: c for m, c in d.items() if m != lt}))

    for g in sorted(gens, key=lambda g: key(g.leading_monomial())):
        add_poly(dict(g.terms))

    g_num = None    # Hilbert numerator of in(G); None once G has grown
    while pairs:
        d = pairs[0][0]
        if numerator is not None:
            if g_num is None:
                g_num = monomial_hilbert_numerator(lts, n)
            if (hilbert_function_from_numerator(g_num, n, d)
                    == hilbert_function_from_numerator(numerator, n, d)):
                # G is complete in degree d: its pairs reduce to zero
                while pairs and pairs[0][0] == d:
                    heapq.heappop(pairs)
                continue
        _, _, i, j, lcm = heapq.heappop(pairs)
        # chain criterion at selection time
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mono_divides(lts[k], lcm):
                if (mono_lcm(lts[i], lts[k]) != lcm
                        and mono_lcm(lts[j], lts[k]) != lcm):
                    skip = True
                    break
        if skip:
            continue
        s = _spoly_data(G[i], G[j], ring)
        if not s:
            continue
        r = _reduce_dict(s, tails, ring)
        if r:
            add_poly(r)
            g_num = None

    return _interreduce(G, ring)


def _interreduce(G, ring):
    """Minimalize and tail-reduce a basis of monic dicts; sort ascending."""
    key = ring.order.key
    lts = [max(g, key=key) for g in G]
    keep = []
    for i, lt in enumerate(lts):
        redundant = False
        for j, lt2 in enumerate(lts):
            if i == j:
                continue
            if mono_divides(lt2, lt) and (lt2 != lt or j < i):
                redundant = True
                break
        if redundant:
            continue
        keep.append(i)
    minimal = [(lts[i], G[i]) for i in keep]
    reduced = []
    for idx, (lt, g) in enumerate(minimal):
        others = [(lt2, {m: c for m, c in g2.items() if m != lt2})
                  for k, (lt2, g2) in enumerate(minimal) if k != idx]
        r = _reduce_dict(dict(g), others, ring) if others else dict(g)
        inv = ring.field.inv(r[lt])
        r = {m: (c * inv) % ring.prime for m, c in r.items()}
        reduced.append(Polynomial(ring, r))
    reduced.sort(key=lambda f: key(f.leading_monomial()))
    return reduced
