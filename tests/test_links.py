"""Liaison engine tests: direct links, sums, the colon identity, embedding."""

import random

import pytest

from liaison import ideals, links
from liaison.ideals import GenericityError, Ideal
from liaison.links import (ci_link, embed_and_link, gorenstein_sum,
                           is_complete_intersection_gens, is_geometric_link,
                           lemma_key_link, link_involution_check,
                           proper_ci_intersection_link)
from liaison.rings import AlgebraError, PolyRing

from .oracles import random_homogeneous

P = 32003
R4 = PolyRing(("x0", "x1", "x2", "x3"), P)


def I4(*texts):
    return Ideal.from_strings(R4, list(texts))


TWISTED_CUBIC = I4("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")


def test_ci_recognition():
    assert is_complete_intersection_gens(I4("x0^2 + x1*x2", "x3^3"))
    assert not is_complete_intersection_gens(TWISTED_CUBIC)
    assert not is_complete_intersection_gens(I4("x0", "x0*x1"))


def test_ci_link_twisted_cubic_to_line():
    # the classical (2,2)-link of the twisted cubic is a line
    c = I4("x0*x2 - x1^2", "x0*x3 - x1*x2")
    residual = ci_link(c, TWISTED_CUBIC)
    assert residual == I4("x0", "x1")
    assert c.degree() == TWISTED_CUBIC.degree() + residual.degree()
    assert is_geometric_link(c, TWISTED_CUBIC, residual)


def test_ci_link_preconditions():
    with pytest.raises(AlgebraError):
        ci_link(TWISTED_CUBIC, TWISTED_CUBIC)       # linking ideal not a CI
    with pytest.raises(AlgebraError):
        ci_link(I4("x0^2", "x3^2"), TWISTED_CUBIC)  # not contained


def test_involution_on_the_cubic():
    c = I4("x0*x2 - x1^2", "x0*x3 - x1*x2")
    ok, residual, back = link_involution_check(c, TWISTED_CUBIC)
    assert ok
    assert back == TWISTED_CUBIC


def test_non_geometric_link_detected():
    c = I4("x0^2*x1", "x2")
    ideal = I4("x0", "x2")
    residual = c.quotient(ideal)
    assert not is_geometric_link(c, ideal, residual)


def test_gorenstein_sum_of_linked_lines():
    line1 = I4("x0", "x1")
    line2 = I4("x0", "x2")
    total, cert = gorenstein_sum(line1, line2, seed=1)
    assert cert["gorenstein"]
    assert total == I4("x0", "x1", "x2")
    assert list(total.h_vector()) == [1]


def test_gorenstein_sum_certificate_fails_for_skew_lines():
    skew1 = I4("x0", "x1")
    skew2 = I4("x2", "x3")
    total, cert = gorenstein_sum(skew1, skew2, seed=1)
    assert not cert["gorenstein"]


def test_colon_identity_basic():
    ideal = I4("x0*x1")
    other = I4("x0", "x1")
    combined, step = lemma_key_link(ideal, "x2", other)
    assert step.passed()
    assert combined == ideal + Ideal(R4, [R4.parse("x2") * g
                                          for g in other.generators])


def test_colon_identity_preconditions():
    with pytest.raises(AlgebraError):
        lemma_key_link(I4("x0*x1"), "x2", I4("x2", "x3"))  # I not inside J
    with pytest.raises(AlgebraError):
        lemma_key_link(I4("x0*x1"), "1", I4("x0", "x1"))   # constant f


@pytest.mark.parametrize("seed", range(4))
def test_colon_identity_random_instances(seed):
    rng = random.Random(7000 + seed)
    while True:
        f1 = random_homogeneous(R4, 2, rng)
        f2 = random_homogeneous(R4, 2, rng)
        ideal = Ideal(R4, [f1, f2])
        if f1 and f2 and ideal.codim() == 2:
            break
    other = ideal + Ideal(R4, [random_homogeneous(R4, 2, rng)])
    f = random_homogeneous(R4, 1, rng)
    combined, step = lemma_key_link(ideal, f, other)
    assert step.passed()


def _numerator_minus_shifted(a, b, e):
    """Coefficients of a(z) - z^e * (a(z) - b(z)), trailing zeros cut."""
    out = [0] * (max(len(a), len(b)) + e)
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i + e] += c
    for i, c in enumerate(a):
        out[i + e] -= c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_regular_sum_numerator_matches_its_basis(seed, degree, monkeypatch):
    # f regular on R/I and I inside J: the numerator of I + f*J, computed
    # from its own basis with no hint, is N(I) - z^e (N(I) - N(J)), and
    # lemma_key_link hands that numerator to the basis of I + f*J
    rng = random.Random(7100 + seed)
    while True:
        ideal = Ideal(R4, [random_homogeneous(R4, 2, rng) for _ in range(2)])
        if ideal.codim() == 2:
            break
    other = ideal + Ideal(R4, [random_homogeneous(R4, 2, rng)])
    f = random_homogeneous(R4, degree, rng)
    assert ideal.is_regular_element(f)
    expected = _numerator_minus_shifted(
        ideal.hilbert_numerator(), other.hilbert_numerator(), degree)
    fresh = Ideal(R4, (ideal + f * other).generators)
    assert fresh.hilbert_numerator() == expected
    hints = []
    real = ideals.buchberger

    def recording(gens, numerator=None):
        gens = list(gens)
        hints.append((len(gens), numerator))
        return real(gens, numerator)

    monkeypatch.setattr(ideals, "buchberger", recording)
    combined, step = lemma_key_link(Ideal(R4, ideal.generators), f, other)
    assert step.passed()
    assert (len(combined.generators), expected) in hints


@pytest.mark.parametrize("degree", [1, 2])
def test_colon_identity_tests_each_containment_once(degree, monkeypatch):
    # for f linear and regular, (I + f*J) : (I, f) is the colon by f and
    # (I : f) + J is J, so two checks share one equality: J is tested
    # against the colon's basis once
    rng = random.Random(7200 + degree)
    while True:
        ideal = Ideal(R4, [random_homogeneous(R4, 2, rng) for _ in range(2)])
        if ideal.codim() == 2:
            break
    other = ideal + Ideal(R4, [random_homogeneous(R4, 2, rng)])
    f = random_homogeneous(R4, degree, rng)
    tested = []
    real = Ideal.contains_ideal

    def recording(big, small):
        tested.append((big, small))     # kept alive, so ids stay unique
        return real(big, small)

    monkeypatch.setattr(Ideal, "contains_ideal", recording)
    _, step = lemma_key_link(ideal, f, other)
    assert step.passed()
    assert len({(id(a), id(b)) for a, b in tested}) == len(tested)


def test_embed_and_link_preserves_hilbert_function():
    ci = I4("x0^2 + x1*x3", "x2^3")
    ext, residual, step = embed_and_link(ci)
    assert step.passed()
    assert ext.ring.variables == ("x0", "x1", "x2", "x3", "t")
    assert residual.is_unit()          # self-link leaves nothing


def test_embed_requires_witness_for_non_ci():
    with pytest.raises(AlgebraError, match="witness"):
        embed_and_link(TWISTED_CUBIC)


def test_embed_with_explicit_witness():
    ext0 = TWISTED_CUBIC.extend_ring("t")
    witness = Ideal(ext0.ring, [ext0.generators[0], ext0.generators[1]])
    ext, residual, step = embed_and_link(TWISTED_CUBIC, witness=witness)
    assert step.passed()
    assert residual.saturate_irrelevant() == Ideal.from_strings(
        ext0.ring, ["x0", "x1"])


def test_proper_ci_intersection_link_on_cubic():
    ci, residual = proper_ci_intersection_link(TWISTED_CUBIC, (2, 2), seed=0)
    assert is_complete_intersection_gens(ci)
    assert residual.degree() == 1
    assert ci.degree() == TWISTED_CUBIC.degree() + residual.degree()


def test_proper_ci_link_exhaustion_raises(monkeypatch):
    # a plane has codim 1; degree-1 combinations of one generator can never
    # give a geometric link (the residual is always the plane itself)
    monkeypatch.setattr(links, "CI_LINK_TRIES", 3)
    with pytest.raises((GenericityError, AlgebraError)):
        proper_ci_intersection_link(I4("x0^2"), (2,), seed=0)
