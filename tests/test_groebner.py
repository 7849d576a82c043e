"""Groebner engine tests: reduced bases, normal forms, external oracles."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liaison import groebner
from liaison.groebner import buchberger, interreduce, normal_form
from liaison.ideals import Ideal
from liaison.rings import AlgebraError, PolyRing, mono_divides

from .oracles import (ci_hilbert_numerator, divide,
                      membership_by_linear_algebra, random_homogeneous,
                      s_polynomial, sympy_groebner)

P = 32003
R3 = PolyRing(("x", "y", "z"), P)
R4 = PolyRing(("x", "y", "z", "w"), P)


def gb_strings(ring, texts):
    return {str(g) for g in buchberger([ring.parse(t) for t in texts])}


def test_principal_ideal_is_monic_generator():
    assert gb_strings(R3, ["7*x^2*y"]) == {"x^2*y"}


def test_classic_two_generator_basis():
    # lex-free example with a known degrevlex basis
    got = gb_strings(R3, ["x^2 + y^2", "x*y"])
    assert got == {"x*y", "x^2 + y^2", "y^3"}


def test_twisted_cubic_basis():
    got = gb_strings(R4, ["x*z - y^2", "x*w - y*z", "y*w - z^2"])
    assert got == {"y^2 + 32002*x*z", "y*z + 32002*x*w",
                   "z^2 + 32002*y*w"}


def test_basis_independent_of_generator_order():
    texts = ["x^2*y - z^3", "x*y^2 + y*z^2", "y^3 - x*z^2", "x^3 + z^3"]
    polys = [R3.parse(t) for t in texts]
    reference = {str(g) for g in buchberger(polys)}
    rng = random.Random(5)
    for _ in range(6):
        rng.shuffle(polys)
        scaled = [p * rng.randrange(1, P) for p in polys]
        assert {str(g) for g in buchberger(scaled)} == reference


def test_redundant_generators_collapse():
    f = R3.parse("x + y")
    g = R3.parse("z^2")
    basis = buchberger([f, g, f * g, f * f])
    assert {str(b) for b in basis} == {"x + y", "z^2"}


def test_normal_form_is_zero_exactly_on_members():
    gens = [R3.parse(t) for t in ("x^2 - y*z", "y^3 + z^3")]
    gb = buchberger(gens)
    member = gens[0] * R3.parse("z + y") + gens[1] * R3.parse("x")
    assert not normal_form(member, gb)
    assert normal_form(R3.parse("x^2"), gb)


def test_normal_form_is_linear():
    gens = buchberger([R3.parse("x^2 - y*z"), R3.parse("x*y - z^2")])
    rng = random.Random(11)
    for _ in range(10):
        f = random_homogeneous(R3, 3, rng)
        g = random_homogeneous(R3, 3, rng)
        assert (normal_form(f + g, gens)
                == normal_form(f, gens) + normal_form(g, gens))


@pytest.mark.parametrize("seed", range(6))
def test_sympy_agrees_on_random_ideals(seed):
    rng = random.Random(seed)
    texts = []
    for _ in range(rng.randrange(2, 4)):
        f = random_homogeneous(R3, rng.randrange(1, 4), rng)
        if f:
            texts.append(str(f))
    if not texts:
        return
    assert gb_strings(R3, texts) == sympy_groebner(R3, texts)


GENERATOR_RING = PolyRing(("u", "x", "y"), 7)


@st.composite
def generator_sets(draw):
    """A ring and one to three generators of one to three terms each, with
    exponents up to 2, so that many are inhomogeneous."""
    ring = GENERATOR_RING
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * ring.nvars),
                     st.integers(1, ring.prime - 1))
    polys = st.lists(term, min_size=1, max_size=3).map(
        lambda ts: ring.from_dict(dict(ts)))
    return ring, draw(st.lists(polys, min_size=1, max_size=3))


def assert_reduced_basis_of(gb, gens):
    """gb is the reduced basis of the ideal `gens` span, by plain division:
    monic, sorted by leading monomial, no term divisible by another leading
    monomial, and every S-polynomial and generator reducing to zero."""
    key = gens[0].ring.order.key
    lts = [g.leading_monomial() for g in gb]
    assert lts == sorted(lts, key=key)
    for g, lt in zip(gb, lts):
        assert g.leading_coeff() == 1
        others = [h for h in lts if h != lt]
        assert not any(mono_divides(h, m) for h in others for m in g.terms)
    for i, g in enumerate(gb):
        for h in gb[i + 1:]:
            assert not divide(s_polynomial(g, h), gb)
    for f in gens:
        assert not divide(f, gb)


@settings(max_examples=120, deadline=None)
@given(case=generator_sets())
def test_buchberger_output_is_a_reduced_basis_of_its_input(case):
    _, gens = case
    assert_reduced_basis_of(buchberger(gens), gens)


BOUND_RINGS = [PolyRing(("x", "y", "z", "w")[:n], p)
               for n in (2, 3, 4) for p in (7, P)]


@st.composite
def bounded_form_lists(draw):
    """At most nvars forms of degrees 1 to 3, in 2 to 4 variables over
    GF(7) or GF(32003): general ones, or ones that are no regular sequence
    -- with a common linear factor, with a generator repeated, monomials,
    or with a second form that is a zerodivisor modulo the first."""
    ring = draw(st.sampled_from(BOUND_RINGS))
    kind = draw(st.sampled_from(["general", "common factor", "repeated",
                                 "monomials", "zerodivisor"]))
    c = draw(st.integers(1, ring.nvars))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))

    def form(degree):
        while True:
            f = random_homogeneous(ring, degree, rng)
            if f:
                return f

    def monomial(degree):
        exps = [0] * ring.nvars
        for _ in range(degree):
            exps[rng.randrange(ring.nvars)] += 1
        return ring.monomial(tuple(exps))

    degrees = [rng.randrange(1, 4) for _ in range(c)]
    if kind == "monomials":
        return [monomial(d) for d in degrees]
    if kind == "common factor":
        h = form(1)
        return [h * form(min(d, 2)) for d in degrees]
    gens = [form(d) for d in degrees]
    if kind == "repeated" and c > 1:
        gens[-1] = gens[0] * rng.randrange(1, ring.prime)
    if kind == "zerodivisor":
        a = form(1)
        gens[0] = a * form(1)
        if c > 1:
            gens[1] = a * form(degrees[1])
    return gens


@settings(max_examples=150, deadline=None)
@given(gens=bounded_form_lists())
def test_complete_intersection_bound_gives_the_unhinted_basis(gens):
    # c <= n forms of degrees d_i: HF(R/I) >= HF of a complete intersection
    # of those degrees in every degree, whether or not they form a regular
    # sequence, so the hint prod (1 - z^d_i) is sound
    hint = ci_hilbert_numerator([g.degree() for g in gens])
    gb = buchberger(gens, hint)
    assert gb == buchberger(gens)
    assert_reduced_basis_of(gb, gens)


def test_a_hint_above_the_hilbert_function_raises():
    # the bound of one quadric, for two: in degree 3, R/(x*y, x*z) has
    # dimension 5, and R/(a quadric) has 7
    with pytest.raises(AlgebraError, match="exceeds"):
        buchberger([R3.parse("x*y"), R3.parse("x*z")],
                   ci_hilbert_numerator([2]))


INTERREDUCE_RINGS = [PolyRing(("x", "y", "z", "w")[:n], p)
                     for n in (3, 4) for p in (7, P)]


@st.composite
def redundant_bases(draw):
    """Generators, and a shuffled Groebner basis of their ideal with
    redundant elements: the reduced basis, multiples of its elements,
    elements with an equal leading monomial and another tail, and elements
    whose tails are perturbed by combinations of earlier elements."""
    ring = draw(st.sampled_from(INTERREDUCE_RINGS))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    key = ring.order.key
    gens = [g for g in (random_homogeneous(ring, rng.randrange(1, 4), rng)
                        for _ in range(rng.randrange(1, 4))) if g]
    if not gens:
        gens = [ring.gens()[0]]
    gb = buchberger(gens)
    out = []
    for i, g in enumerate(gb):
        lt = g.leading_monomial()
        # the element, a scalar multiple of a copy with the same leading
        # monomial and a perturbed tail, or both
        perturbed = g
        for h in gb[:i]:
            gap = g.degree() - h.degree()
            if gap < 0:
                continue
            term = h * random_homogeneous(ring, gap, rng)
            if term and key(term.leading_monomial()) < key(lt):
                perturbed = perturbed + term
        choice = rng.randrange(3)
        if choice != 1:
            out.append(g)
        if choice != 0 or perturbed is g:
            out.append(perturbed * rng.randrange(1, ring.prime))
        for _ in range(rng.randrange(2)):
            multiple = g * random_homogeneous(ring, rng.randrange(1, 3), rng)
            if multiple:
                out.append(multiple)
    rng.shuffle(out)
    return gens, out


@settings(max_examples=120, deadline=None)
@given(case=redundant_bases())
def test_interreduce_returns_the_reduced_basis(case):
    gens, basis = case
    got = interreduce(basis)
    assert got == buchberger(gens)
    assert_reduced_basis_of(got, gens)


def test_interreduce_reduces_only_tails_that_need_it(monkeypatch):
    # a reduced basis passes with no normal form; an element whose tail an
    # earlier leading monomial divides is reduced once, against the
    # elements before it
    gb = buchberger([R3.parse(t) for t in ("x*y", "x^2 + y*z", "z^3")])
    assert [str(g) for g in gb] == ["x*y", "x^2 + y*z", "z^3", "y^2*z"]
    calls = []
    real = groebner._reduce_dict

    def counting(f, basis, ring):
        calls.append(len(basis))
        return real(f, basis, ring)

    monkeypatch.setattr(groebner, "_reduce_dict", counting)
    assert interreduce(list(reversed(gb))) == gb and calls == []
    # x^2 + 5*x*y + y*z: its term x*y is the first leading monomial
    messy = gb[1] + gb[0] * 5
    assert interreduce([gb[3], messy, gb[2], gb[0]]) == gb
    assert calls == [1]


@pytest.mark.parametrize("seed", range(5))
def test_membership_matches_linear_algebra(seed):
    rng = random.Random(100 + seed)
    gens = [random_homogeneous(R3, rng.randrange(1, 4), rng)
            for _ in range(3)]
    gens = [g for g in gens if g]
    ideal = Ideal(R3, gens)
    for _ in range(8):
        if rng.random() < 0.5 and gens:
            f = sum((g * random_homogeneous(R3, 4 - g.degree(), rng)
                     for g in gens if g.degree() <= 4), R3.zero())
        else:
            f = random_homogeneous(R3, rng.randrange(1, 5), rng)
        if not f or not f.is_homogeneous():
            continue
        assert ideal.contains(f) == membership_by_linear_algebra(
            f, gens, f.degree())


def test_pair_queue_stays_a_heap(monkeypatch):
    # the chain criterion filters the pair queue when a polynomial joins
    # the basis; the filtered list must be a heap again before the next pop
    pops = []

    class CheckedHeapq:
        heappush = staticmethod(heapq.heappush)
        heapify = staticmethod(heapq.heapify)

        @staticmethod
        def heappop(heap):
            if heap and len(heap[0]) == 5:      # the S-pair queue
                pops.append(all(heap[(i - 1) // 2] <= heap[i]
                                for i in range(1, len(heap))))
            return heapq.heappop(heap)

    monkeypatch.setattr(groebner, "heapq", CheckedHeapq)
    texts = ["17245*x^3", "12783*y*z^2", "19752*y^2",
             "13354*x*y + 11295*x*z + 24463*z^2", "21204*x^2*y + 10059*x*y^2"]
    gb_strings(R3, texts)
    assert pops and all(pops)
