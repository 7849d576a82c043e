"""Ideal-level algebra: quotients, saturations, Hilbert data, scheme tests.

Ideals are immutable and live in degrevlex rings; their Groebner bases, one
per linear form taken last, and the numeric invariants derived from them
are kept once computed.  All ideals handed to users are homogeneous;
dehomogenized (affine) computations happen internally only.
"""

from __future__ import annotations

import math
import random

from . import modp
from .groebner import (buchberger, interreduce, monomial_hilbert_numerator,
                       num_add, num_mul_one_minus_zd, num_shift, reducer,
                       strip_one_minus_z)
from .rings import (AlgebraError, RingMismatchError, MonomialOrder,
                    Polynomial, mono_div, mono_divides)


class GenericityError(AlgebraError):
    """A randomized 'general' choice failed repeatedly."""


class Ideal:
    """Homogeneous ideal in a degrevlex ring, with a table of Groebner bases.

    The table maps a linear form ell, given by its coefficients with the
    last nonzero one 1, to (work ring, image map, the reduced degrevlex
    basis of the image of I with ell last); `_basis_with_last` fills it,
    and an entry, once made, is kept.  The ring's own basis is the entry
    for the last variable.  A linear colon enters the basis it stripped,
    and makes its generators on first read (`_colon_linear`).  For ell
    regular on R/I and I ⊆ J, in(I + ell·J) = in(I) + ell·in(J) with ell
    last (Bayer-Stillman), so I + ell·J enters the entry of I and ell times
    that of J, interreduced (`plus_regular_multiple`).  Any entry fixes the
    Hilbert numerator, since a linear change of coordinates keeps the
    Hilbert function, so every later basis is Hilbert-driven; a caller that
    knows the numerator may pass it.  Every yes/no answer is exact: zero
    and unit from the generators (`is_unit`), membership from any entry
    (`contains`), equality from an entry both sides hold, else from one
    containment and the Hilbert numerators (`__eq__`).
    """

    def __init__(self, ring, generators, _numerator=None):
        if ring.order.kind != "degrevlex":
            raise AlgebraError("ideals live in degrevlex rings, not %r"
                               % (ring.order,))
        self.ring = ring
        self._generators = (generators if callable(generators)
                            else self._checked(generators))
        self._numerator = _numerator
        self._colons = None
        # coefficients of ell -> (work ring, image map, reduced basis with
        # ell last), see `_basis_with_last`
        self._bases = {}

    def _checked(self, generators):
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = self.ring.parse(g)
            if g.ring != self.ring:
                raise RingMismatchError("generator from a different ring")
            if not g.is_homogeneous():
                raise AlgebraError("ideal generators must be homogeneous: %s" % g)
            if g:
                gens.append(g)
        return tuple(gens)

    @property
    def generators(self):
        if callable(self._generators):
            self._generators = self._checked(self._generators())
        return self._generators

    @classmethod
    def from_strings(cls, ring, texts):
        return cls(ring, [ring.parse(t) for t in texts])

    # -- basics --------------------------------------------------------------

    def groebner_basis(self):
        """The reduced Groebner basis: the entry for the last variable."""
        return self._basis_with_last(_last_key(self.ring))[2]

    @property
    def _gb(self):
        """The reduced Groebner basis when in the table, else None; read by
        perfbench's tracer only, to count `groebner_basis` calls it answers."""
        entry = self._bases.get(_last_key(self.ring))
        return None if entry is None else entry[2]

    def is_zero(self):
        """True for the zero ideal: zero generators are dropped on entry."""
        return not self._spanning_set()

    def is_unit(self):
        """True for the unit ideal: the degree-0 part of a homogeneous ideal
        is spanned by its degree-0 generators, so it holds 1 exactly when
        one generator (or element of a basis) is a nonzero constant."""
        return any(g.is_constant() for g in self._spanning_set())

    def _spanning_set(self):
        """The generators, or a basis in the table before they are made."""
        return (self._any_basis()[2] if callable(self._generators)
                else self._generators)

    def contains(self, f):
        """f in I, by one normal form against a basis in the table
        (`_any_basis`).  The change of coordinates of an entry is a ring
        automorphism, so f lies in I exactly when its image reduces to zero.
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
        work, image, gb = self._any_basis()
        nf = reducer(gb, work)
        return lambda f: not nf(image(f))

    def _any_basis(self):
        """An entry of the table: the ring's own basis when made, else any
        other, else the ring's own basis, computed."""
        last = _last_key(self.ring)
        return (self._bases.get(last) or next(iter(self._bases.values()), None)
                or self._basis_with_last(last))

    def __eq__(self, other):
        """Equality of ideals, with at most one new basis when either side
        has a basis or a Hilbert numerator in hand.

        An entry both sides hold decides at once: reduced bases are unique.
        Else, for homogeneous ideals A contained in B, A = B exactly when
        their Hilbert series agree, as dim A_d <= dim B_d (Traverso, J.
        Symbolic Comput. 22, 1996; Kreuzer-Robbiano, CCA 2, Sec. 5.1).
        So two known numerators that differ decide at once; otherwise the
        generators of one side are tested against the other, one with a
        basis in its table when there is one, and the numerators decide.
        """
        if not isinstance(other, Ideal):
            return NotImplemented
        if self is other:
            return True
        if self.ring != other.ring:
            return False
        key = next(iter(self._bases.keys() & other._bases.keys()), None)
        if key is not None:
            return self._bases[key][2] == other._bases[key][2]
        mine, theirs = self._known_numerator(), other._known_numerator()
        if mine is not None and theirs is not None and mine != theirs:
            return False
        # the container: a side with a basis, else one whose basis also
        # yields the numerator not yet known
        if self._bases or (not other._bases and mine is None):
            big, small = self, other
        else:
            big, small = other, self
        return (big.contains_ideal(small)
                and small.hilbert_numerator() == big.hilbert_numerator())

    def _known_numerator(self):
        """The Hilbert numerator when no new basis is needed for it."""
        if self._numerator is None and not self._bases:
            return None
        return self.hilbert_numerator()

    def __hash__(self):
        return hash((self.ring, self.groebner_basis()))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators[:6])
        if len(self.generators) > 6:
            gens += ", ..."
        return "Ideal(%s)" % gens

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

        By a linear form, from one stripped basis (`_colon_linear`); by any
        other form f, the unit ideal when f lies in I (`contains`), else
        (I meet (f)) / f through an elimination basis.  I : J intersects
        the quotients by the generators of J, the unit ideal when J is
        zero.  Linear generators go first: the basis their colon computes
        then answers the membership tests of the others.
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

        By J = (l_1, ..., l_r), it intersects the I : l_i^infinity
        (`_colon_linear`), and it is I as soon as one l_i strips nothing:
        that l_i is a nonzerodivisor on R/I, so no associated prime
        contains J.  The last variable goes first, on the ring's own basis.
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
        basis is the table's entry for ell; it is reduced, so it strips
        nothing exactly when I : ell = I, and then self is returned.
        Results are kept per ideal, keyed by ell up to a scalar and by cap.

        A new result enters the stripped basis, interreduced, under ell in
        its own table: the reduced basis of the image of I : ell^cap.  Its
        yes/no tests, its numerator and a later colon by ell need no new
        basis, nor its generators: the stripped basis mapped back to the
        original coordinates, made on first read.
        """
        ring = self.ring
        if ell.ring != ring:
            raise RingMismatchError("colon across rings")
        coeffs = _linear_key(ell)
        if self._colons is None:
            self._colons = {}
        key = (coeffs, cap)
        if key in self._colons:
            # None stands for self, which is not stored in its own memo
            return self._colons[key] or self
        work, image, gb = self._basis_with_last(coeffs)
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
            ell = ring.linear_form(coeffs)
            x = work.variables[-1]
            back = ((lambda g: g.map_to(ring)) if len(ell.terms) == 1
                    else (lambda g: g.substitute({x: ell}, ring)))
            out = Ideal(ring, lambda: [back(g) for g in stripped])
            # reduced, so that a later colon by ell strips nothing exactly
            # when it is the same ideal
            out._bases[coeffs] = (work, image, tuple(interreduce(stripped)))
        self._colons[key] = None if out is self else out
        return out

    def _basis_with_last(self, coeffs):
        """The table's entry (work, image, gb) for the linear form ell with
        key `coeffs`, the last nonzero one on x.  `work` is the ring with x
        moved last, `image` the map x -> 2x - ell, which sends ell to x (a
        renaming when ell is x, the identity when x is also last).  This is
        the one place a basis of I is computed, Hilbert-driven when the
        numerator is known or another entry is in the table.
        """
        entry = self._bases.get(coeffs)
        if entry is not None:
            return entry
        ring = self.ring
        j = max(i for i, c in enumerate(coeffs) if c)
        x = ring.variables[j]
        work = ring if j == ring.nvars - 1 else ring.with_variables(
            tuple(v for v in ring.variables if v != x) + (x,))
        ell = ring.linear_form(coeffs)
        if len(ell.terms) > 1:
            xw = work.variable(x)
            xw = xw + xw - ell.map_to(work)

            def image(g):
                return g.substitute({x: xw}, work)
        elif work is ring:
            image = _identity
        else:
            def image(g):
                return g.map_to(work)
        known = self._numerator is not None or self._bases
        gb = tuple(buchberger([image(g) for g in self.generators],
                              self.hilbert_numerator() if known else None))
        entry = self._bases[coeffs] = (work, image, gb)
        return entry

    def groebner_basis_with_last(self, ell):
        """The basis in the table's entry for the linear form ell."""
        return self._basis_with_last(_linear_key(ell))[2]

    def plus_regular_multiple(self, f, other):
        """K = I + f·J, for a form f regular on R/I and an ideal J ⊇ I.

        For f = x last, in(K) : x = in(K : x) = in(J) and in(K) + (x) =
        in(K + (x)) = in(I) + (x) (Bayer-Stillman), and x divides no leading
        term of I, so in(K) = in(I) + x·in(J): K's entry for f is I's and x
        times J's, interreduced, with I's work ring and image map.  For f
        of degree e != 1, f·J ∩ I = f·(J ∩ (I : f)) = f·I, so K/I is
        (J/I)(-e), and K gets the numerator N(I) - z^e·(N(I) - N(J)).
        """
        gens = self.generators + (f * other).generators
        e = f.degree()
        if e != 1:
            return Ideal(self.ring, gens, tuple(num_add(num_mul_one_minus_zd(
                self.hilbert_numerator(), e), num_shift(
                    other.hilbert_numerator(), e))))
        key = _linear_key(f)
        work, image, gb = self._basis_with_last(key)
        x = work.variable(work.variables[-1])
        out = Ideal(self.ring, gens)
        out._bases[key] = (work, image, tuple(interreduce(
            gb + tuple(x * g for g in other._basis_with_last(key)[2]))))
        return out

    def irrelevant_ideal(self):
        return Ideal(self.ring, self.ring.gens())

    def saturate_irrelevant(self):
        return self.saturate(self.irrelevant_ideal())

    # -- Hilbert data --------------------------------------------------------

    def hilbert_numerator(self):
        """Coefficients of N(z) with Series(R/I) = N(z)/(1-z)^nvars, read
        off the leading terms of any basis in the table."""
        if self._numerator is None:
            lts = [g.leading_monomial() for g in self._any_basis()[2]]
            self._numerator = tuple(
                monomial_hilbert_numerator(lts, self.ring.nvars))
        return self._numerator

    def krull_dim(self):
        """Krull dimension of R/I (the affine cone); 0 for the unit ideal."""
        k, _ = strip_one_minus_z(self.hilbert_numerator())
        return 0 if k is None else self.ring.nvars - k

    def codim(self):
        return self.ring.nvars - self.krull_dim()

    def degree(self):
        """deg(R/I): the h-vector's sum; the colength when R/I is Artinian."""
        k, m = strip_one_minus_z(self.hilbert_numerator())
        if k is None:
            raise AlgebraError("the unit ideal has no degree")
        return sum(m)

    def h_vector(self):
        """The h-vector as a tuple: N(z) = (1-z)^codim * h(z), for N the
        Hilbert numerator.  It is the dim(R/I)-fold first difference of the
        Hilbert function, cut at its last nonzero entry; a negative entry
        shows that R/I is not Cohen-Macaulay."""
        k, m = strip_one_minus_z(self.hilbert_numerator())
        if k is None:
            raise AlgebraError("the unit ideal has no h-vector")
        return tuple(m)

    # -- regularity / CM / reducedness ---------------------------------------

    def is_regular_element(self, f):
        if isinstance(f, str):
            f = self.ring.parse(f)
        if not f:
            return False
        return self.quotient(f) == self

    def cm_test(self, seed=0):
        """Randomized Cohen-Macaulay test via a linear system of parameters.

        Up to three attempts each try dim(R/I) linear forms, every one
        regular modulo I and the forms before it.  An attempt that succeeds
        proves R/I Cohen-Macaulay.  The first attempt starts with the ring's
        last variable when that strips nothing from the ring's own basis (see
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
        the affine ideal.  For the chart x_n = 1 that basis is the ring's
        own, reduced when x_n is a nonzerodivisor.  A chart is taken when
        its algebra has dimension deg(I), that is when no point lies on
        ell = 0.  That dimension is read off the leading terms: in the
        n - 1 affine variables their numerator is (1-z)^(n-1)·M exactly
        when the algebra is finite, and then M(1) is its dimension.

        Returns (affine ring, GB).
        """
        deg = self.degree()
        for coeffs in _chart_forms(self.ring, seed):
            work, _, gb = self._basis_with_last(coeffs)
            aff = work.drop(work.variables[-1])
            gb = [_dehomogenize(g, aff) for g in gb]
            k, m = strip_one_minus_z(monomial_hilbert_numerator(
                [g.leading_monomial() for g in gb], aff.nvars))
            if k == aff.nvars and sum(m) == deg:
                return aff, gb
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
        aff, gb = self._affine_algebra(seed)
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
    out = Ideal(ring, [one])
    out._bases[_last_key(ring)] = (ring, _identity, (one,))
    return out


def _identity(g):
    return g


def _last_key(ring):
    """The table key of the ring's last variable (see `Ideal._bases`)."""
    return (0,) * (ring.nvars - 1) + (1,)


def _linear_key(ell):
    """Table key of a linear form: its coefficients, last nonzero one 1."""
    ring = ell.ring
    coeffs = [0] * ring.nvars
    for m, c in ell.terms.items():
        coeffs[m.index(1)] = c
    inv = ring.field.inv(next(c for c in reversed(coeffs) if c))
    return tuple((c * inv) % ring.prime for c in coeffs)


def _dehomogenize(g, aff):
    """Homogeneous g at last variable 1, in the ring `aff` of the others.

    No two terms of a homogeneous polynomial meet when that variable goes.
    """
    return Polynomial(aff, {m[:-1]: c for m, c in g.terms.items()})


def _chart_forms(ring, seed):
    """Coefficients of the chart forms `_affine_algebra` tries: the last
    variable, then six seeded random forms with last coefficient 1."""
    yield _last_key(ring)
    rng = random.Random("deh:%d" % seed)
    for _ in range(6):
        yield tuple(rng.randrange(1, ring.prime)
                    for _ in range(ring.nvars - 1)) + (1,)


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
