"""Exact multivariate polynomial arithmetic over a prime field.

Monomials are plain exponent tuples; polynomials are immutable wrappers
around a dict mapping exponent tuples to nonzero residues mod p.  All
heavier machinery (division, Groebner bases) lives in :mod:`liaison.groebner`
and works on the same dict representation.

Degrevlex is the one monomial order, and the kernel encodes it once, as
`degrevlex_rank`: leading monomials, sorted terms and the reduction heap
take the monomial of least rank.  `MonomialOrder.key`, its negation,
orders only Buchberger's pair queue and its ascending sorts.
"""

from __future__ import annotations

import re

_EXP_LIMIT = 1 << 62  # exponent overflow is an error, not wraparound


class AlgebraError(Exception):
    """Base class for all errors raised by the algebra kernel."""


class RingMismatchError(AlgebraError):
    pass


class ParseError(AlgebraError):
    pass


class InputError(AlgebraError):
    """Arguments that the called construction does not accept."""


# Miller-Rabin to the twelve prime bases 2..37 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic primality for n below 3.3e24; AlgebraError above."""
    if n >= _PRIME_TEST_LIMIT:
        raise AlgebraError("%d is too large to test for primality" % n)
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    # n - 1 = d * 2^s with d odd
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic in GF(p) on plain int residues in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p):
        if not isinstance(p, int) or not is_prime(p):
            raise AlgebraError("field characteristic %r is not prime" % (p,))
        self.p = p

    def normalize(self, a):
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("division by zero in field")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


# ---------------------------------------------------------------------------
# monomials (exponent tuples)

def mono_mul(a, b):
    out = tuple(x + y for x, y in zip(a, b))
    if any(x >= _EXP_LIMIT for x in out):
        raise AlgebraError("monomial exponent overflow")
    return out


def _mul_terms(a, b, p):
    """The product of two term dicts, as a new dict."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            s = (out.get(m, 0) + c1 * c2) % p
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


def _add_terms(out, b, p):
    """Add the term dict b into the term dict out, in place."""
    for m, c in b.items():
        s = (out.get(m, 0) + c) % p
        if s:
            out[m] = s
        elif m in out:
            del out[m]


def mono_divides(a, b):
    """True if a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b, assuming b | a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def degrevlex_rank(m):
    """Degrevlex rank of a monomial: the smaller the rank, the larger the
    monomial.  Higher degree first; in one degree, the smaller exponent of
    the last variable, then of the one before.  The reduction kernel finds
    leading monomials and pops its heap by this rank."""
    return (-sum(m), m[::-1])


class MonomialOrder:
    """Degree reverse lexicographic order on exponent tuples, the one
    monomial order of the package.  Its key orders Buchberger's pair
    queue and the ascending sorts of basis elements; everything else
    ranks monomials by `degrevlex_rank`."""

    def key(self, m):
        """Sort key; larger key = larger monomial."""
        return (sum(m), tuple(-e for e in reversed(m)))


DEGREVLEX = MonomialOrder()


class PolyRing:
    """Graded polynomial ring descriptor: variables and prime, ordered by
    degrevlex with the variables in the order listed."""

    __slots__ = ("variables", "field", "_index", "_hash")

    order = DEGREVLEX

    def __init__(self, variables, prime=32003):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise AlgebraError("ring variables must be distinct")
        if not variables:
            raise AlgebraError("ring needs at least one variable")
        for v in variables:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", v):
                raise AlgebraError("bad variable name %r" % (v,))
        self.variables = variables
        self.field = PrimeField(prime)
        self._index = {v: i for i, v in enumerate(variables)}
        self._hash = hash((variables, prime))

    @property
    def nvars(self):
        return len(self.variables)

    @property
    def prime(self):
        return self.field.p

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and self.variables == other.variables
                and self.field == other.field)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "PolyRing(%s, prime=%d)" % (",".join(self.variables),
                                           self.prime)

    # -- element constructors ------------------------------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = self.field.normalize(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, name):
        i = self._index[name]
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: 1})

    def gens(self):
        return [self.variable(v) for v in self.variables]

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise AlgebraError("bad exponent vector %r" % (exps,))
        c = self.field.normalize(coeff)
        if c == 0:
            return self.zero()
        return Polynomial(self, {exps: c})

    def linear_form(self, coeffs):
        """sum(coeffs[i] * variables[i])."""
        if len(coeffs) != self.nvars:
            raise AlgebraError("need one coefficient per variable")
        terms = {}
        for i, c in enumerate(coeffs):
            c = self.field.normalize(c)
            if c:
                terms[tuple(1 if j == i else 0 for j in range(self.nvars))] = c
        return Polynomial(self, terms)

    def from_dict(self, d):
        """Build a polynomial from {exps: coeff}, normalizing coefficients."""
        terms = {}
        for m, c in d.items():
            c = self.field.normalize(c)
            if c:
                terms[tuple(m)] = c
        return Polynomial(self, terms)

    # -- ring surgery --------------------------------------------------------

    def extend(self, name):
        """Ring with one appended variable."""
        if name in self._index:
            raise AlgebraError("variable %r already present" % (name,))
        return PolyRing(self.variables + (name,), self.prime)

    def drop(self, name):
        """Ring without the named variable."""
        if name not in self._index:
            raise AlgebraError("no variable %r" % (name,))
        rest = tuple(v for v in self.variables if v != name)
        return PolyRing(rest, self.prime)

    def with_variables(self, variables):
        return PolyRing(variables, self.prime)

    def fresh_variable(self, stem="u"):
        """A variable name not already used in this ring."""
        if stem not in self._index:
            return stem
        i = 0
        while "%s%d" % (stem, i) in self._index:
            i += 1
        return "%s%d" % (stem, i)

    # -- parsing -------------------------------------------------------------

    _TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_']*)|(\^)|(\*)|(\+)|(-)|(\()|(\)))")

    def parse(self, text):
        """Parse the term-sum text format, e.g. ``3*x0^2*x1 + 31999*x2^3``."""
        pos = 0
        tokens = []
        while pos < len(text):
            m = self._TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip() == "":
                    break
                raise ParseError("unexpected character %r at position %d"
                                 % (text[pos], pos))
            pos = m.end()
            tokens.append(m)
        terms = {}
        n = self.nvars
        i = 0

        def flush(sign, coeff, exps):
            if coeff is None and not any(exps):
                raise ParseError("empty term in %r" % (text,))
            c = self.field.normalize((coeff if coeff is not None else 1) * sign)
            key = tuple(exps)
            c = self.field.add(terms.get(key, 0), c)
            if c:
                terms[key] = c
            elif key in terms:
                del terms[key]

        while i < len(tokens):
            sign = 1
            while i < len(tokens) and (tokens[i].group(5) or tokens[i].group(6)):
                if tokens[i].group(6):
                    sign = -sign
                i += 1
            if i >= len(tokens):
                raise ParseError("dangling sign in %r" % (text,))
            coeff = None
            exps = [0] * n
            expect_factor = True
            while i < len(tokens):
                tok = tokens[i]
                if tok.group(5) or tok.group(6):
                    break
                if tok.group(4):  # '*'
                    i += 1
                    expect_factor = True
                    continue
                if not expect_factor:
                    raise ParseError("missing '*' near position %d in %r"
                                     % (tok.start(), text))
                if tok.group(1):
                    coeff = (1 if coeff is None else coeff) * int(tok.group(1))
                    i += 1
                elif tok.group(2):
                    name = tok.group(2)
                    if name not in self._index:
                        raise ParseError("unknown variable %r" % (name,))
                    e = 1
                    if i + 1 < len(tokens) and tokens[i + 1].group(3):
                        if i + 2 >= len(tokens) or not tokens[i + 2].group(1):
                            raise ParseError("missing exponent after '^'")
                        e = int(tokens[i + 2].group(1))
                        i += 2
                    exps[self._index[name]] += e
                    i += 1
                else:
                    raise ParseError("unexpected token at position %d in %r"
                                     % (tok.start(), text))
                expect_factor = False
            flush(sign, coeff, exps)
        return Polynomial(self, terms)


class Polynomial:
    """Immutable polynomial: dict of exponent tuple -> nonzero residue."""

    __slots__ = ("ring", "terms", "_lead", "_sorted")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._lead = None
        self._sorted = None

    # -- basic queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def sorted_terms(self):
        """Terms as (monomial, coeff), strictly descending in the ring order."""
        if self._sorted is None:
            # distinct monomials have distinct ranks
            self._sorted = sorted(self.terms.items(),
                                  key=lambda t: degrevlex_rank(t[0]))
        return self._sorted

    def leading_monomial(self):
        if not self.terms:
            raise AlgebraError("zero polynomial has no leading term")
        if self._lead is None:
            self._lead = min(self.terms, key=degrevlex_rank)
        return self._lead

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check(other)
        out = dict(self.terms)
        _add_terms(out, other.terms, self.ring.prime)
        return Polynomial(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        p = self.ring.prime
        return Polynomial(self.ring, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.ring.constant(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            c = self.ring.field.normalize(other)
            if c == 0:
                return self.ring.zero()
            p = self.ring.prime
            return Polynomial(self.ring,
                              {m: (v * c) % p for m, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial(self.ring,
                          _mul_terms(self.terms, other.terms, self.ring.prime))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == self.ring.constant(other).terms
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- substitution / ring movement ----------------------------------------

    def map_to(self, ring):
        """Reinterpret in `ring`, matching variables by name.

        Variables missing from `ring` must not occur in the polynomial.
        """
        src = self.ring.variables
        positions = []
        for i, v in enumerate(src):
            positions.append(ring._index.get(v))
        out = {}
        p = ring.prime
        for m, c in self.terms.items():
            exps = [0] * ring.nvars
            for i, e in enumerate(m):
                if not e:
                    continue
                j = positions[i]
                if j is None:
                    raise AlgebraError(
                        "variable %r not present in target ring" % (src[i],))
                exps[j] = e
            key = tuple(exps)
            s = (out.get(key, 0) + c) % p
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return Polynomial(ring, out)

    def substitute(self, assignment, target_ring=None):
        """Substitute polynomials (or ints) for variables.

        `assignment` maps variable names to elements of `target_ring`
        (defaults to this ring).  Unmentioned variables map to themselves.
        All variables are substituted at once, so an image may mention
        another substituted variable.

        The polynomial is read as one in the substituted variables, with
        coefficients in the others, and evaluated by Horner's rule in each
        substituted variable in turn: one product by its image per step of
        exponent, or by a power of it across a gap.  Terms with a variable
        sent to zero are dropped first.
        """
        ring = target_ring if target_ring is not None else self.ring
        p = ring.prime
        subs = []       # images of the substituted variables, in order
        sub_pos = []
        kept = []       # (position here, position in ring) of the others
        for i, v in enumerate(self.ring.variables):
            if v in assignment:
                img = assignment[v]
                if isinstance(img, int):
                    img = ring.constant(img)
                elif img.ring != ring:
                    raise RingMismatchError(
                        "image of %r is not in the target ring" % (v,))
                subs.append(img)
                sub_pos.append(i)
            else:
                kept.append((i, ring._index[v]))
        zero_pos = [i for i, img in zip(sub_pos, subs) if not img]
        # the terms grouped by their exponents in the substituted variables;
        # the map is one to one, so no two terms meet
        groups = {}
        n = ring.nvars
        for m, c in self.terms.items():
            if any(m[i] for i in zero_pos):
                continue
            exps = [0] * n
            for i, j in kept:
                exps[j] = m[i]
            key = tuple(m[i] for i in sub_pos)
            groups.setdefault(key, {})[tuple(exps)] = c
        powers = [{1: img.terms} for img in subs]

        def power(level, e):
            # by squaring, through the powers already made
            cache = powers[level]
            if e not in cache:
                half = power(level, e // 2)
                out = _mul_terms(half, half, p)
                cache[e] = _mul_terms(out, cache[1], p) if e % 2 else out
            return cache[e]

        def horner(part, level):
            if level == len(subs):
                return part[()]
            by_exp = {}
            for key, terms in part.items():
                by_exp.setdefault(key[0], {})[key[1:]] = terms
            degs = sorted(by_exp, reverse=True)
            out = horner(by_exp[degs[0]], level + 1)
            for hi, lo in zip(degs, degs[1:]):
                out = _mul_terms(out, power(level, hi - lo), p)
                _add_terms(out, horner(by_exp[lo], level + 1), p)
            if degs[-1]:
                out = _mul_terms(out, power(level, degs[-1]), p)
            return out

        return Polynomial(ring, horner(groups, 0) if groups else {})

    def evaluate(self, point):
        """Evaluate at a tuple of field elements; returns an int residue."""
        if len(point) != self.ring.nvars:
            raise AlgebraError("point has wrong length")
        p = self.ring.prime
        total = 0
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v = (v * pow(x, e, p)) % p
            total = (total + v) % p
        return total

    # -- output --------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            if c != 1 or not any(m):
                factors.append(str(c))
            for v, e in zip(self.ring.variables, m):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append("%s^%d" % (v, e))
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "Polynomial(%s)" % str(self)
