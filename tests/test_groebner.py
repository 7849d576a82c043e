"""Groebner engine tests: reduced bases, normal forms, external oracles."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liaison import groebner
from liaison.groebner import buchberger, normal_form
from liaison.ideals import Ideal
from liaison.rings import MonomialOrder, PolyRing, mono_divides

from .oracles import (divide, membership_by_linear_algebra,
                      random_homogeneous, s_polynomial, sympy_groebner)

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


# degrevlex, and the ring Ideal.intersect builds: an elimination order with
# one extra variable first
ORDERED_RINGS = [PolyRing(("u", "x", "y"), 7, MonomialOrder(*order))
                 for order in (("degrevlex",), ("elim", 1))]


@st.composite
def generator_sets(draw):
    """A ring and one to three generators of one to three terms each, with
    exponents up to 2, so that many are inhomogeneous."""
    ring = draw(st.sampled_from(ORDERED_RINGS))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * ring.nvars),
                     st.integers(1, ring.prime - 1))
    polys = st.lists(term, min_size=1, max_size=3).map(
        lambda ts: ring.from_dict(dict(ts)))
    return ring, draw(st.lists(polys, min_size=1, max_size=3))


@settings(max_examples=120, deadline=None)
@given(case=generator_sets())
def test_buchberger_output_is_a_reduced_basis_of_its_input(case):
    ring, gens = case
    gb = buchberger(gens)
    key = ring.order.key
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
