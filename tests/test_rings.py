"""Kernel tests: field, monomials, orders, polynomial arithmetic."""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liaison import groebner
from liaison.rings import (_EXP_LIMIT, DEGREVLEX, AlgebraError,
                           MonomialOrder, PolyRing, PrimeField,
                           degrevlex_rank, is_prime, mono_divides, mono_div,
                           mono_mul)

from .oracles import substitute_termwise

P = 32003
FIELD = PrimeField(P)
RING = PolyRing(("x", "y", "z"), P)

scalars = st.integers(min_value=0, max_value=P - 1)
exponents = st.tuples(*[st.integers(min_value=0, max_value=6)] * 3)


def poly_strategy(ring=RING, max_terms=5, max_exp=4):
    term = st.tuples(
        st.tuples(*[st.integers(min_value=0, max_value=max_exp)]
                  * ring.nvars),
        st.integers(min_value=0, max_value=ring.prime - 1))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((ring.monomial(m, c) for m, c in ts), ring.zero()))


# -- field -------------------------------------------------------------------

def test_field_inverse():
    for a in (1, 2, 17, P - 1, 31337):
        assert FIELD.mul(a, FIELD.inv(a)) == 1


def test_field_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        FIELD.inv(0)


@given(a=scalars, b=scalars)
def test_field_subtraction_consistent(a, b):
    assert FIELD.add(FIELD.sub(a, b), b) == a % P


# -- monomials ---------------------------------------------------------------

@given(a=exponents, b=exponents)
def test_mono_mul_then_div(a, b):
    assert mono_div(mono_mul(a, b), b) == a


@given(a=exponents, b=exponents)
def test_mono_divides_matches_div(a, b):
    m = mono_mul(a, b)
    assert mono_divides(a, m)
    assert mono_divides(b, m)


def test_degrevlex_classic_order():
    # x > y > z and x*z < y^2 under degrevlex (the standard discriminator)
    key = DEGREVLEX.key
    assert key((1, 0, 0)) > key((0, 1, 0)) > key((0, 0, 1))
    assert key((0, 2, 0)) > key((1, 0, 1))


@st.composite
def monomial_lists(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    mono = st.tuples(*[st.integers(min_value=0, max_value=4)] * n)
    return draw(st.lists(mono, min_size=1, max_size=12, unique=True))


@seed(22)
@settings(max_examples=200)
@given(monos=monomial_lists())
def test_rank_orders_as_the_key_reversed(monos):
    key = DEGREVLEX.key
    assert min(monos, key=degrevlex_rank) == max(monos, key=key)
    assert (sorted(monos, key=degrevlex_rank)
            == sorted(monos, key=key, reverse=True))


def test_kernel_finds_leading_monomials_without_the_order_key(monkeypatch):
    ring = PolyRing(("x", "y", "z"), P)
    gens = [ring.parse("x*y - z^2"), ring.parse("y^2 - x*z")]

    def refuse(self, m):
        raise AssertionError("the order key was called")

    monkeypatch.setattr(MonomialOrder, "key", refuse)
    f = ring.parse("x*z^2 + y^3 + x^2*y + z")
    assert f.leading_monomial() == (2, 1, 0)
    assert str(f) == "x^2*y + y^3 + x*z^2 + z"
    # x^2*y -> x*z^2, y^3 -> x*y*z -> z^3, and x*z^2 + x*z^2 = 2*x*z^2
    assert str(groebner.reducer(gens, ring)(f)) == "2*x*z^2 + z^3 + z"


# -- primes ------------------------------------------------------------------

def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20000) if is_prime(n)] == [
        n for n in range(20000) if trial_division_is_prime(n)]


def test_is_prime_on_strong_pseudoprimes_and_mersenne_primes():
    # the least strong pseudoprimes to every prime base up to 7, 13 and 23
    for n in (3215031751, 3474749660383, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2 ** 31 - 1) and is_prime(2 ** 61 - 1)


def test_is_prime_refuses_numbers_past_its_exact_range():
    with pytest.raises(AlgebraError):
        is_prime((2 ** 31 - 1) * (2 ** 61 - 1))


# -- polynomials -------------------------------------------------------------

def test_parse_round_trip():
    for text in ("x^2 + 3*y*z", "x*y*z", "31*z^4 + x + 1"):
        f = RING.parse(text)
        assert RING.parse(str(f)) == f


def test_parse_rejects_garbage():
    with pytest.raises(AlgebraError):
        RING.parse("x^")
    with pytest.raises(AlgebraError):
        RING.parse("w + 1")


@settings(max_examples=60)
@given(f=poly_strategy(), g=poly_strategy(), h=poly_strategy())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60)
@given(f=poly_strategy())
def test_additive_inverse(f):
    assert f - f == RING.zero()
    assert f + (-f) == RING.zero()


@settings(max_examples=40)
@given(f=poly_strategy(), g=poly_strategy())
def test_leading_monomial_multiplicative(f, g):
    if f and g:
        lt = (f * g).leading_monomial()
        assert lt == mono_mul(f.leading_monomial(), g.leading_monomial())


def test_substitute_and_evaluate():
    f = RING.parse("x^2*y + z^3")
    assert f.evaluate((2, 3, 1)) == (4 * 3 + 1) % P
    g = f.substitute({"z": 0})
    assert g == RING.parse("x^2*y")


# the ring a basis with y last lives in (see Ideal._basis_with_last)
Y_LAST = RING.with_variables(("x", "z", "y"))


@st.composite
def substitutions(draw):
    """(target ring or None, assignment): one variable into the ring with
    the variables permuted, one variable to 0 in the same ring, or two
    variables at once, each image free to mention the other."""
    kind = draw(st.sampled_from(["permuted", "zero", "two"]))
    if kind == "permuted":
        return Y_LAST, {"y": draw(poly_strategy(Y_LAST, max_exp=2))}
    if kind == "zero":
        return None, {draw(st.sampled_from(RING.variables)): 0}
    names = draw(st.lists(st.sampled_from(RING.variables), min_size=2,
                          max_size=2, unique=True))
    return None, {v: draw(poly_strategy(max_terms=3, max_exp=2))
                  for v in names}


@settings(max_examples=80, deadline=None)
@given(f=poly_strategy(), case=substitutions())
def test_substitute_matches_termwise_expansion(f, case):
    target, assignment = case
    expected = substitute_termwise(f, assignment, target or RING)
    assert f.substitute(assignment, target) == expected


@settings(max_examples=40, deadline=None)
@given(exps=exponents, coeff=scalars, big=st.sampled_from(RING.variables),
       gap=st.integers(min_value=1, max_value=8),
       images=st.dictionaries(st.sampled_from(RING.variables), exponents,
                              min_size=1, max_size=2))
def test_substitute_overflow_matches_termwise_expansion(exps, coeff, big, gap,
                                                         images):
    # one term with an exponent near the limit and monomial images, so no
    # two products meet: the overflow error comes exactly when one product
    # reaches the limit
    exps = list(exps)
    exps[RING.variables.index(big)] = _EXP_LIMIT - gap
    f = RING.monomial(exps, coeff)
    assignment = {v: RING.monomial(e) for v, e in images.items()}
    try:
        expected = substitute_termwise(f, assignment, RING)
    except AlgebraError:
        with pytest.raises(AlgebraError, match="overflow"):
            f.substitute(assignment)
    else:
        assert f.substitute(assignment) == expected


def test_homogeneous_degree():
    f = RING.parse("x^2*y + z^3")
    assert f.degree() == 3
    assert f.is_homogeneous()
    assert not RING.parse("x + y^2").is_homogeneous()
