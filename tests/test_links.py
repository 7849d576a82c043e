"""Liaison engine tests: direct links, sums, the colon identity, embedding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liaison import ideals, links
from liaison.groebner import buchberger
from liaison.ideals import GenericityError, Ideal
from liaison.links import (ci_link, embed_and_link, gorenstein_sum,
                           is_complete_intersection_gens, is_geometric_link,
                           lemma_key_link, link_involution_check,
                           proper_ci_intersection_link)
from liaison.rings import AlgebraError, PolyRing

from .oracles import (equal_by_reduced_bases, fresh_leading_monomials,
                      hilbert_functions_by_counting, numerator_degree_bound,
                      quotient_by_elimination, random_homogeneous)

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
    # from its own basis with no hint, is N(I) - z^e (N(I) - N(J)); for a
    # quadric f lemma_key_link hands that numerator to the basis of I + f*J,
    # and for a linear f it builds that basis from those of I and J, here
    # fresh copies, with no hinted run
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
    if degree == 2:
        combined, step = lemma_key_link(Ideal(R4, ideal.generators), f, other)
        assert step.passed()
        assert (len(combined.generators), expected) in hints
        return
    combined, step = lemma_key_link(Ideal(R4, ideal.generators), f,
                                    Ideal(R4, other.generators))
    assert step.passed()
    assert hints and all(numerator is None for _, numerator in hints)
    _, image, gb = combined._bases[ideals._linear_key(f)]
    assert gb == tuple(real([image(g) for g in combined.generators]))
    assert combined.hilbert_numerator() == expected


def _minors_ideal(ring, rng):
    """The 2x2 minors of a random 2x3 matrix of linear forms: three
    generators, and codimension 2 for a general matrix."""
    a, b = ([random_homogeneous(ring, 1, rng) for _ in range(3)]
            for _ in range(2))
    return Ideal(ring, [a[i] * b[j] - a[j] * b[i]
                        for i, j in ((0, 1), (0, 2), (1, 2))])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6), ci=st.booleans(),
       kind=st.sampled_from(["variable", "sparse", "dense", "zerodivisor",
                             "quadric"]))
def test_colon_identity_bases_and_verdicts_match_fresh_ideals(seed, ci, kind):
    # I a complete intersection or not, J strictly larger, f a variable, a
    # sparse or a dense linear form, a linear zerodivisor on R/I or a
    # quadric: every basis I + f*J holds is the reduced basis of the image
    # of its generators, and the checks are what elimination and the
    # reduced bases of fresh ideals give.  Only a linear f regular on R/I
    # gets that basis with no run; a zerodivisor or a quadric gets a run
    # on the generators of I + f*J, hinted only for the quadric
    rng = random.Random(seed)
    while True:
        ideal = (Ideal(R4, [random_homogeneous(R4, 2, rng) for _ in range(2)])
                 if ci else _minors_ideal(R4, rng))
        if ideal.codim() == 2:
            break
    if kind == "variable":
        f = rng.choice(R4.gens())
    elif kind == "sparse":
        i, j = rng.sample(range(4), 2)
        f = R4.gens()[i] + R4.gens()[j] * rng.randrange(1, P)
    else:
        f = random_homogeneous(R4, 2 if kind == "quadric" else 1, rng)
    gens = ideal.generators
    if kind == "zerodivisor":
        gens = (f * gens[0],) + gens[1:]
    while True:
        extra = random_homogeneous(R4, 2, rng)
        if not Ideal(R4, gens).contains(extra):
            break
    ideal, other = Ideal(R4, gens), Ideal(R4, gens + (extra,))
    runs = []
    real = ideals.buchberger
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ideals, "buchberger", lambda g, numerator=None: (
            runs.append((list(g), numerator)) or real(g, numerator)))
        combined, step = lemma_key_link(ideal, f, other)
    images = [[image(g) for g in combined.generators]
              for _, image, _ in combined._bases.values()]
    for gens_in, (_, _, gb) in zip(images, combined._bases.values()):
        assert gb == tuple(buchberger(gens_in))
    fresh = Ideal(R4, combined.generators)
    by_f, by_pair = fresh.quotient(f), fresh.quotient(ideal + Ideal(R4, [f]))
    colon = quotient_by_elimination(Ideal(R4, gens), f)
    regular = equal_by_reduced_bases(colon, ideal)
    assert step.checks == {
        "f_regular_on_I": regular,
        "colon_by_pair_eq_colon_by_f": equal_by_reduced_bases(by_pair, by_f),
        "colon_by_f_eq_colon_plus_J": equal_by_reduced_bases(
            by_f, colon + other),
        "equals_J": equal_by_reduced_bases(by_pair, other),
    }
    on_sum = [numerator for gens_in, numerator in runs if gens_in in images]
    if kind == "quadric":
        assert regular and on_sum == [fresh.hilbert_numerator()]
    elif kind == "zerodivisor":
        assert not regular and on_sum == [None]
    else:
        assert on_sum == ([] if regular else [None])


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


def _first_differences(values):
    return [b - a for a, b in zip([0] + values, values)]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_hilbert_preserved_matches_counting(seed):
    # hilbert_preserved against the Hilbert functions of the extension,
    # counted on fresh bases up to a degree past both numerators; and the
    # same comparison of numerators for an ideal of S that is not the
    # extension, which it tells apart exactly when counting does
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z"), P)
    while True:
        ideal = Ideal(ring, [random_homogeneous(ring, rng.randrange(1, 4),
                                                rng) for _ in range(2)])
        if is_complete_intersection_gens(ideal):
            break
    ext, _, step = embed_and_link(ideal)
    other = ext + Ideal(ext.ring, [random_homogeneous(
        ext.ring, rng.randrange(2, 5), rng)])
    for big in (ext, other):
        top = max(numerator_degree_bound(fresh_leading_monomials(i))
                  for i in (ideal, big))
        counted = (_first_differences(hilbert_functions_by_counting(big, top))
                   == hilbert_functions_by_counting(ideal, top))
        assert (big.hilbert_numerator() == ideal.hilbert_numerator()) \
            == counted
    assert step.checks["hilbert_preserved"]
