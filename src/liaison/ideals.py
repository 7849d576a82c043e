"""Ideal-level algebra: quotients, saturations, Hilbert data, scheme tests.

Ideals are immutable; the reduced Groebner basis and the numeric invariants
derived from it are cached on first use.  All ideals handed to users are
homogeneous; dehomogenized (affine) computations happen internally only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import modp
from .groebner import (buchberger, hilbert_function_from_numerator,
                       interreduce, monomial_hilbert_numerator, reducer)
from .rings import (AlgebraError, RingMismatchError, MonomialOrder,
                    Polynomial, PolyRing, mono_div, mono_divides)


class GenericityError(AlgebraError):
    """A randomized 'general' choice failed repeatedly."""


@dataclass(frozen=True)
class HVector:
    """h-vector: iterated difference of a Hilbert function, trailing zeros cut.

    clean is False when a negative entry showed up (input not ACM or not
    saturated); the entries are still reported as computed.
    """

    entries: tuple
    clean: bool = True

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def is_symmetric(self):
        return self.entries == tuple(reversed(self.entries))

    def to_json(self):
        return list(self.entries)

    def __str__(self):
        return "(%s)" % ", ".join(str(v) for v in self.entries)


def binom(n, k):
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def _strip_one_minus_z(num):
    """Factor N = (1-z)^k * M with M(1) != 0; returns (k, M)."""
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


class Ideal:
    """Homogeneous ideal with cached Groebner data and numeric invariants.

    An ideal computes its reduced degrevlex basis at most once, and keeps
    one reduced basis in coordinates with a linear form last: the latest
    one it computed (`_basis_with_last`), or, for a linear colon, the
    stripped basis it was made from (`_colon_linear`).  That basis also
    fixes the Hilbert numerator, since a linear change of coordinates keeps
    the Hilbert function.  A caller that knows the numerator beforehand may
    pass it, and the ideal's bases are then Hilbert-driven.  Yes/no
    questions are answered from what is in hand, and every answer is exact:
    zero and unit from the generators (`is_unit`), membership from either
    basis (`contains`), and equality from one containment and the Hilbert
    numerators (`__eq__`).  "In hand" means a cached basis or a kept basis
    with a form last.
    """

    def __init__(self, ring, generators, _gb=None, _numerator=None):
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = ring.parse(g)
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
            if not g.is_homogeneous():
                raise AlgebraError("ideal generators must be homogeneous: %s" % g)
            if g:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb = _gb
        self._numerator = _numerator
        self._dim_deg = None
        self._colons = None
        # (coeffs, work ring, image map, reduced basis): the kept basis with
        # a linear form last, see `_basis_with_last` and `_colon_linear`
        self._shifted = None

    @classmethod
    def from_strings(cls, ring, texts):
        return cls(ring, [ring.parse(t) for t in texts])

    # -- basics --------------------------------------------------------------

    def groebner_basis(self):
        """The reduced Groebner basis, computed once.  A linear colon
        (`_colon_linear`) knows its Hilbert numerator beforehand, and the
        computation is then Hilbert-driven."""
        if self._gb is None:
            self._gb = tuple(buchberger(self.generators, self._numerator))
        return self._gb

    def is_zero(self):
        """True for the zero ideal: zero generators are dropped on entry."""
        return not self.generators

    def is_unit(self):
        """True for the unit ideal, read off the generators.

        The degree-0 part of a homogeneous ideal is spanned by its degree-0
        generators, since every other product has positive degree.  So the
        ideal holds 1 exactly when one generator is a nonzero constant.
        """
        return any(g.is_constant() for g in self.generators)

    def contains(self, f):
        """f in I, by one normal form against the basis in hand.

        That is the cached basis, or else the kept basis with a linear form
        last (`_basis_with_last`, `_colon_linear`).  The change of
        coordinates that basis was computed in is a ring automorphism, so f
        lies in I exactly when its image reduces to zero against that basis.
        With neither in hand, the cached basis is computed.
        """
        if isinstance(f, str):
            f = self.ring.parse(f)
        if f.ring != self.ring:
            raise RingMismatchError("membership test across rings")
        if not f:
            return True
        return self._member()(f)

    def contains_ideal(self, other):
        """Every generator of `other` in I, with the reducer prepared once."""
        if other.ring != self.ring:
            raise RingMismatchError("membership test across rings")
        member = self._member()
        return all(member(g) for g in other.generators)

    def _member(self):
        """The test f -> (f in I) that `contains` describes."""
        if self._gb is None and self._shifted is not None:
            _, work, image, gb = self._shifted
            nf = reducer(gb, work)
            return lambda f: not nf(image(f))
        nf = reducer(self.groebner_basis(), self.ring)
        return lambda f: not nf(f)

    def __eq__(self, other):
        """Equality of ideals, with at most one new basis when either side
        has a basis or a Hilbert numerator in hand.

        For homogeneous ideals A contained in B, A = B exactly when their
        Hilbert series agree, since dim A_d <= dim B_d in every degree
        (Traverso, J. Symbolic Comput. 22, 1996; Kreuzer-Robbiano,
        Computational Commutative Algebra 2, Sec. 5.1).  So two known
        numerators that differ decide at once.  Otherwise the generators of
        one side are tested against the other side, the one with a basis in
        hand when there is one (see `contains`), and the numerators decide.
        """
        if not isinstance(other, Ideal):
            return NotImplemented
        if self is other:
            return True
        if self.ring != other.ring:
            return False
        mine, theirs = self._known_numerator(), other._known_numerator()
        if mine is not None and theirs is not None and mine != theirs:
            return False
        # the container: a side with a basis in hand, else one whose basis
        # also yields the numerator not yet known
        if self._in_hand() or (not other._in_hand() and mine is None):
            big, small = self, other
        else:
            big, small = other, self
        return (big.contains_ideal(small)
                and small.hilbert_numerator() == big.hilbert_numerator())

    def _in_hand(self):
        """True when a basis of I is in hand: cached, or with a form last."""
        return self._gb is not None or self._shifted is not None

    def _known_numerator(self):
        """The Hilbert numerator when no new basis is needed for it."""
        if self._numerator is None and self._gb is None:
            return None
        return self.hilbert_numerator()

    def __hash__(self):
        return hash((self.ring, self.groebner_basis()))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators[:6])
        if len(self.generators) > 6:
            gens += ", ..."
        return "Ideal(%s)" % gens

    def max_gen_degree(self):
        return max((g.degree() for g in self.generators), default=0)

    # -- sums, products ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Ideal(self.ring, [other * g for g in self.generators])
        other = self._coerce(other)
        return Ideal(self.ring, [g * h for g in self.generators
                                 for h in other.generators])

    def __rmul__(self, other):
        return self.__mul__(other)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            other = Ideal(self.ring, [other])
        if not isinstance(other, Ideal):
            raise AlgebraError("expected an Ideal or Polynomial")
        if other.ring != self.ring:
            raise RingMismatchError("ideals from different rings")
        return other

    # -- intersection, quotient, saturation, elimination ---------------------

    def intersect(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_unit():
            return self
        if other.is_zero() or self.is_unit():
            return other
        aux = self.ring.fresh_variable("u")
        ring_u = self.ring.with_variables((aux,) + self.ring.variables,
                                          MonomialOrder("elim", 1))
        u = ring_u.variable(aux)
        one = ring_u.one()
        lifted = [u * g.map_to(ring_u) for g in self.generators]
        lifted += [(one - u) * g.map_to(ring_u) for g in other.generators]
        gb = buchberger(lifted)
        kept = [g.map_to(self.ring) for g in gb
                if g.terms and all(m[0] == 0 for m in g.terms)]
        return Ideal(self.ring, kept)

    def quotient(self, by):
        """I : f or I : J.

        By a linear form, from one stripped degrevlex basis (see
        `_colon_linear`); by any other form f, the unit ideal when f lies
        in I (one normal form against the basis in hand, see `contains`),
        else (I meet (f)) / f through an elimination basis.  I : J is the
        intersection of the quotients by the generators of J, and the unit
        ideal when J is zero.  Linear generators go first: the basis with
        such a form last, which their colon computes, then answers the
        membership tests of the others, and no basis of I itself is needed.
        """
        if isinstance(by, str):
            by = self.ring.parse(by)
        if isinstance(by, Polynomial):
            return self._quotient_poly(by)
        by = self._coerce(by)
        out = None
        for g in sorted(by.generators, key=lambda g: g.degree() != 1):
            q = self._quotient_poly(g)
            out = q if out is None else out.intersect(q)
        return _unit_ideal(self.ring) if out is None else out

    def _quotient_poly(self, f):
        if not f:
            raise AlgebraError("quotient by the zero polynomial")
        if f.is_constant():
            return self
        if f.degree() == 1 and f.is_homogeneous():
            return self._colon_linear(f, 1)
        if self.contains(f):
            return _unit_ideal(self.ring)
        meet = self.intersect(Ideal(self.ring, [f]))
        gens = [_exact_div(g, f) for g in meet.groebner_basis()]
        return Ideal(self.ring, gens)

    def saturate(self, by):
        """I : by^infinity for a linear form or an ideal of linear forms.

        For a linear form l this is `_colon_linear(l, infinity)`.  For an
        ideal J = (l_1, ..., l_r), I : J^infinity is the intersection of
        the I : l_i^infinity, and it is I as soon as one l_i strips nothing:
        that l_i is a nonzerodivisor on R/I, so no associated prime
        contains J.  The last variable goes first, on the cached basis.
        """
        if isinstance(by, str):
            by = self.ring.parse(by)
        forms = [by] if isinstance(by, Polynomial) else list(
            self._coerce(by).generators)
        for f in forms:
            if f.ring != self.ring:
                raise RingMismatchError("saturation across rings")
            if f.degree() != 1 or not f.is_homogeneous():
                raise AlgebraError(
                    "saturate needs a linear form or an ideal of linear "
                    "forms, got %s" % f)
        # a multiple of the last variable first: it needs no new basis
        last = self.ring.nvars - 1
        forms.sort(key=lambda f: any(m[last] == 0 for m in f.terms))
        out = None
        for f in forms:
            sat = self._colon_linear(f, math.inf)
            if sat is self:
                return self
            out = sat if out is None else out.intersect(sat)
        return _unit_ideal(self.ring) if out is None else out

    def _colon_linear(self, ell, cap):
        """I : ell^cap for a linear form ell and cap = 1 or math.inf.

        Bayer-Stillman (Eisenbud, Commutative Algebra, Prop. 15.12): in
        coordinates where ell is the last variable x, a degrevlex Groebner
        basis of I, with min(cap, k) powers of x divided out of each element
        divisible by exactly x^k, is a Groebner basis of I : x^cap.  The
        basis is reduced, so it strips nothing exactly when I : ell = I, and
        then self itself is returned.  Results are kept per ideal, keyed by
        ell up to a scalar and by cap.

        A new result keeps the stripped basis, interreduced, as its own
        basis with ell last, under the same change of coordinates: it is
        the reduced basis of the image of I : ell^cap.  So its membership
        and equality tests, and a later colon by ell, need no basis of it.
        It also carries the Hilbert numerator of those leading terms, since
        a linear change of coordinates keeps the Hilbert function, so a
        basis of it in the original coordinates is Hilbert-driven.
        """
        ring = self.ring
        if ell.ring != ring:
            raise RingMismatchError("colon across rings")
        coeffs = [0] * ring.nvars
        for m, c in ell.terms.items():
            coeffs[m.index(1)] = c
        j = max(i for i, c in enumerate(coeffs) if c)
        # ell / c_j: the key, and the form the work is done with
        inv = ring.field.inv(coeffs[j])
        coeffs = tuple((c * inv) % ring.prime for c in coeffs)
        if self._colons is None:
            self._colons = {}
        key = (coeffs, cap)
        if key in self._colons:
            # None stands for self, which is not stored in its own memo
            return self._colons[key] or self
        ell, work, image, gb = self._basis_with_last(coeffs)
        stripped = []
        for g in gb:
            k = min(cap, min(m[-1] for m in g.terms))
            if k:
                g = Polynomial(work, {m[:-1] + (m[-1] - k,): c
                                      for m, c in g.terms.items()})
            stripped.append(g)
        if all(g is h for g, h in zip(stripped, gb)):
            out = self
        else:
            if len(ell.terms) == 1:
                gens = [g.map_to(ring) for g in stripped]
            else:
                x = work.variables[-1]
                gens = [g.substitute({x: ell}, ring) for g in stripped]
            # reduced, so that a later colon by ell strips nothing exactly
            # when it is the same ideal
            basis = interreduce(stripped)
            # a linear change of coordinates keeps the Hilbert function
            out = Ideal(ring, gens, _numerator=tuple(
                monomial_hilbert_numerator(
                    [g.leading_monomial() for g in basis], ring.nvars)))
            out._shifted = (coeffs, work, image, basis)
        self._colons[key] = None if out is self else out
        return out

    def _basis_with_last(self, coeffs):
        """Reduced degrevlex basis of I with a linear form as last variable.

        `coeffs` are the coefficients of the form ell, its last nonzero
        one, on x, equal to 1.  Returns (ell, work, image, gb): `work` is
        the degrevlex ring with x moved last, `image` the map from the ring
        to `work` by x -> 2x - ell, which sends ell to x (a renaming when
        ell is x), and gb the reduced basis of the image of I.

        The kept basis is used when it has ell last: the one a linear colon
        made this ideal from (`_colon_linear`), or the latest one computed
        here.  Else, when ell is the ring's last variable, gb is the cached
        basis.  Else a new basis is computed and kept (see `contains`); it
        is Hilbert-driven when the numerator of I is known, and it records
        that numerator when not: a linear change of coordinates keeps the
        Hilbert function.
        """
        ring = self.ring
        ell = ring.linear_form(coeffs)
        if self._shifted is not None and self._shifted[0] == coeffs:
            return (ell,) + self._shifted[1:]
        x = ring.variables[max(i for i, c in enumerate(coeffs) if c)]
        work = ring.with_variables(
            tuple(v for v in ring.variables if v != x) + (x,))
        if len(ell.terms) == 1:
            def image(g):
                return g.map_to(work)
            if work == ring:
                return ell, work, image, self.groebner_basis()
        else:
            xw = work.variable(x)
            xw = xw + xw - ell.map_to(work)

            def image(g):
                return g.substitute({x: xw}, work)
        # the numerator is free once the basis of I is known
        known = self._numerator is not None or self._gb is not None
        gb = buchberger([image(g) for g in self.generators],
                        self.hilbert_numerator() if known else None)
        if not known:
            self._numerator = tuple(monomial_hilbert_numerator(
                [g.leading_monomial() for g in gb], ring.nvars))
        self._shifted = (coeffs, work, image, gb)
        return ell, work, image, gb

    def irrelevant_ideal(self):
        return Ideal(self.ring, self.ring.gens())

    def saturate_irrelevant(self):
        return self.saturate(self.irrelevant_ideal())

    # -- Hilbert data --------------------------------------------------------

    def hilbert_numerator(self):
        """Coefficients of N(z) with Series(R/I) = N(z)/(1-z)^nvars."""
        if self._numerator is None:
            lts = [g.leading_monomial() for g in self.groebner_basis()]
            self._numerator = tuple(
                monomial_hilbert_numerator(lts, self.ring.nvars))
        return self._numerator

    def hilbert_function(self, d):
        """dim_K (R/I)_d."""
        return hilbert_function_from_numerator(self.hilbert_numerator(),
                                               self.ring.nvars, d)

    def _dim_degree(self):
        if self._dim_deg is None:
            k, m = _strip_one_minus_z(self.hilbert_numerator())
            if k is None:  # unit ideal
                self._dim_deg = (0, None)
            else:
                self._dim_deg = (self.ring.nvars - k, sum(m))
        return self._dim_deg

    def krull_dim(self):
        """Krull dimension of R/I (the affine cone); 0 for the unit ideal."""
        return self._dim_degree()[0]

    def codim(self):
        return self.ring.nvars - self.krull_dim()

    def degree(self):
        d = self._dim_degree()[1]
        if d is None:
            raise AlgebraError("the unit ideal has no degree")
        return d

    def h_vector(self):
        """dim(R/I)-fold first difference of the Hilbert function."""
        k, m = _strip_one_minus_z(self.hilbert_numerator())
        if k is None:
            raise AlgebraError("the unit ideal has no h-vector")
        entries = tuple(m)
        clean = all(c >= 0 for c in entries)
        return HVector(entries, clean)

    # -- regularity / CM / reducedness ---------------------------------------

    def is_regular_element(self, f):
        if isinstance(f, str):
            f = self.ring.parse(f)
        if not f:
            return False
        if f.degree() == 1 and f.is_homogeneous():
            return self._colon_linear(f, 1) is self
        return self.quotient(f) == self

    def cm_test(self, seed=0):
        """Randomized Cohen-Macaulay test via a linear system of parameters.

        Up to three attempts each try dim(R/I) linear forms, every one
        regular modulo I and the forms before it.  An attempt that succeeds
        proves R/I Cohen-Macaulay.  The first attempt starts with the ring's
        last variable when that strips nothing from the cached basis (see
        `_colon_linear`), which costs no further basis; every other form is
        seeded and random.  False is not a proof, since a random form can
        lie in an associated prime by chance: its certificate records
        "conclusive": False.  The certificate also records the seed and
        every attempt with its forms.
        """
        d = self.krull_dim()
        cert = {"seed": seed, "dim": d, "attempts": [], "conclusive": True}
        if self.is_unit() or d == 0:
            return True, cert
        last = self.ring.gens()[-1]
        # the first form of the first attempt, when it is regular
        given = [last] if self._colon_linear(last, 1) is self else []
        for attempt in range(3):
            rng = random.Random("cm:%d:%d" % (seed, attempt))
            forms = []
            current = self
            ok = True
            for _ in range(d):
                if given:
                    ell = given.pop()
                else:
                    ell = _random_linear_form(self.ring, rng)
                forms.append(str(ell))
                if current._colon_linear(ell, 1) is not current:
                    ok = False
                    break
                current = current + Ideal(self.ring, [ell])
            cert["attempts"].append({"forms": forms, "regular": ok})
            if ok:
                cert["forms"] = forms
                return True, cert
        cert["conclusive"] = False
        return False, cert

    # -- zero-dimensional scheme machinery ------------------------------------

    def _affine_algebra(self, seed):
        """The affine algebra of dim(R/I) = 1 on a chart holding every point.

        Tries the chart x_n = 1 of the ring's last variable, then seeded
        random charts ell = 1 (`_chart_forms`).  In coordinates where ell
        is the last variable x, the degrevlex basis of I, each element
        divided by the largest power of x dividing it, is a Groebner basis
        of I : x^infinity in which no leading term involves x
        (Bayer-Stillman; see `_colon_linear`).  So setting x = 1 in it,
        which is setting x = 1 in the basis of I, gives a Groebner basis of
        the affine ideal.  For the chart x_n = 1 that basis is the cached
        one, reduced when x_n is a nonzerodivisor.  A chart is taken when
        its algebra has dimension deg(I), that is when no point lies on
        ell = 0.

        Returns (affine ring, GB, standard monomials, coordinate map) where
        the coordinate map sends each original variable to its affine image.
        """
        deg = self.degree()
        for coeffs in _chart_forms(self.ring, seed):
            ell, work, _, gb = self._basis_with_last(coeffs)
            x = work.variables[-1]
            aff = work.drop(x)
            gb = [_dehomogenize(g, aff) for g in gb]
            std = _standard_monomials(gb, aff, deg)
            if std is not None and len(std) == deg:
                coords = {v: aff.variable(v) for v in aff.variables}
                # x is 2x - ell in the new coordinates, taken at x = 1
                xw = work.variable(x)
                coords[x] = _dehomogenize(xw + xw - ell.map_to(work), aff)
                return aff, gb, std, coords
        raise GenericityError("no chart holds all %d points" % deg)

    def is_reduced_zero_dim(self, seed=0):
        """Radical test for zero-dimensional subschemes of projective space.

        Seidenberg's lemma (Kreuzer-Robbiano, Computational Commutative
        Algebra 1, Prop. 3.7.15; GF(p) is perfect): on a chart that holds
        every point (`_affine_algebra`), the affine ideal is radical exactly
        when the minimal polynomial of each affine variable on the affine
        algebra is squarefree.  Both answers are proofs, whether or not the
        points are rational over GF(p); `seed` only picks the chart.
        """
        if self.krull_dim() != 1:
            raise AlgebraError("is_reduced_zero_dim needs dim(R/I) = 1")
        aff, gb, _, _ = self._affine_algebra(seed)
        nf = reducer(gb, aff)
        return all(modp.is_squarefree(_minimal_polynomial(x, nf), aff.prime)
                   for x in aff.gens())

    # -- ring movement -------------------------------------------------------

    def extend_ring(self, name="t"):
        ring2 = self.ring.extend(name)
        return Ideal(ring2, [g.map_to(ring2) for g in self.generators])

    def contract_set_zero(self, name):
        ring2 = self.ring.drop(name)
        out = []
        for g in self.generators:
            img = g.substitute({name: 0})
            if img:
                out.append(img.map_to(ring2))
        return Ideal(ring2, out)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {
            "ring": {
                "vars": list(self.ring.variables),
                "prime": self.ring.prime,
                "order": self.ring.order.kind,
            },
            "generators": [str(g) for g in self.generators],
        }

    @classmethod
    def from_json(cls, data):
        order = MonomialOrder(data["ring"].get("order", "degrevlex"))
        ring = PolyRing(data["ring"]["vars"], data["ring"].get("prime", 32003),
                        order)
        return cls.from_strings(ring, data["generators"])


# ---------------------------------------------------------------------------
# helpers

def _exact_div(g, f):
    """g / f when f divides g exactly."""
    ring = g.ring
    q = ring.zero()
    rem = g
    flt = f.leading_monomial()
    finv = ring.field.inv(f.leading_coeff())
    while rem:
        rlt = rem.leading_monomial()
        if not mono_divides(flt, rlt):
            raise AlgebraError("inexact polynomial division")
        c = (rem.leading_coeff() * finv) % ring.prime
        t = ring.monomial(mono_div(rlt, flt), c)
        q = q + t
        rem = rem - t * f
    return q


def _unit_ideal(ring):
    one = ring.one()
    return Ideal(ring, [one], _gb=(one,))


def _dehomogenize(g, aff):
    """Homogeneous g at last variable 1, in the ring `aff` of the others.

    No two terms of a homogeneous polynomial meet when that variable goes.
    """
    return Polynomial(aff, {m[:-1]: c for m, c in g.terms.items()})


def _chart_forms(ring, seed):
    """Coefficients of the chart forms `_affine_algebra` tries: the last
    variable, then six seeded random forms with last coefficient 1."""
    n = ring.nvars
    yield (0,) * (n - 1) + (1,)
    rng = random.Random("deh:%d" % seed)
    for _ in range(6):
        yield tuple(rng.randrange(1, ring.prime) for _ in range(n - 1)) + (1,)


def _random_linear_form(ring, rng):
    while True:
        coeffs = [rng.randrange(ring.prime) for _ in ring.variables]
        if any(coeffs):
            return ring.linear_form(coeffs)


def normalize_point(point, p):
    """Scale so the first nonzero coordinate is 1."""
    point = [c % p for c in point]
    for c in point:
        if c:
            inv = pow(c, p - 2, p)
            return tuple((v * inv) % p for v in point)
    raise AlgebraError("zero vector is not a projective point")


def _standard_monomials(gb, ring, max_dim):
    """Monomials outside the leading-term ideal; None if more than max_dim."""
    if any(g.is_constant() for g in gb):
        return []
    lts = [g.leading_monomial() for g in gb]
    n = ring.nvars
    start = (0,) * n
    seen = {start}
    queue = [start]
    out = []
    while queue:
        m = queue.pop()
        if any(mono_divides(lt, m) for lt in lts):
            continue
        out.append(m)
        if len(out) > max_dim:
            return None
        for i in range(n):
            m2 = tuple(e + 1 if j == i else e for j, e in enumerate(m))
            if m2 not in seen:
                seen.add(m2)
                queue.append(m2)
    out.sort(key=ring.order.key)
    return out


def _minimal_polynomial(x, nf):
    """Minimal polynomial of x on a finite-dimensional affine algebra, as a
    monic coefficient list, lowest degree first.

    `nf` is the normal form map of a Groebner basis of the algebra's ideal.
    The powers NF(x^k) = NF(x * NF(x^(k-1))) are eliminated against the
    earlier ones as they come; the first that reduces to zero gives the
    relation.
    """
    p = x.ring.prime
    rows = []                   # (pivot, row with pivot 1, its combination)
    power = nf(x.ring.one())
    k = 0
    while True:
        vec = dict(power.terms)
        comb = [0] * k + [1]    # vec = sum comb[i] * NF(x^i)
        for pivot, row, rcomb in rows:
            c = vec.get(pivot)
            if not c:
                continue
            for m, a in row.items():
                v = (vec.get(m, 0) - c * a) % p
                if v:
                    vec[m] = v
                else:
                    vec.pop(m, None)
            for i, a in enumerate(rcomb):
                comb[i] = (comb[i] - c * a) % p
        if not vec:
            return comb
        pivot = next(iter(vec))
        inv = pow(vec[pivot], p - 2, p)
        rows.append((pivot, {m: v * inv % p for m, v in vec.items()},
                     [c * inv % p for c in comb]))
        power = nf(power * x)
        k += 1
