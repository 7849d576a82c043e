"""Lifting tests: distraction of monomial ideals and its certificates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liaison.ideals import Ideal
from liaison.lifting import (lift_ideal, lift_monomial,
                             minimal_monomial_generators, verify_lifting)
from liaison.rings import AlgebraError, PolyRing

from .oracles import (colength_by_counting, fresh_leading_monomials,
                      hilbert_functions_by_counting, numerator_degree_bound,
                      reduced_by_charpoly)

P = 32003
R2 = PolyRing(("x", "y"), P)
R3 = PolyRing(("x", "y", "z"), P)


def test_minimal_generators_drop_redundant():
    ideal = Ideal.from_strings(R2, ["x^2", "x^3", "x*y", "x^2*y"])
    assert minimal_monomial_generators(ideal) == [(1, 1), (2, 0)]


def test_minimal_generators_reject_binomials():
    with pytest.raises(AlgebraError):
        minimal_monomial_generators(Ideal.from_strings(R2, ["x^2 - y^2"]))


def test_lift_monomial_examples():
    ext = R2.extend("t")
    assert str(lift_monomial(ext, (2, 0))) == str(
        ext.parse("x^2 - x*t"))
    assert str(lift_monomial(ext, (1, 1))) == "x*y"
    got = lift_monomial(ext, (3, 0))
    assert got == ext.parse("x") * ext.parse("x - t") * ext.parse("x - 2*t")
    assert got.degree() == 3 and got.is_homogeneous()


def test_lift_requires_large_prime():
    small = PolyRing(("x", "y"), 2).extend("t")
    with pytest.raises(AlgebraError):
        lift_monomial(small, (3, 0))
    # the ring must hold the lifting variable
    with pytest.raises(AlgebraError, match="lifting variable"):
        lift_monomial(R2, (1, 0))


def test_lift_square_of_maximal_ideal_gives_three_points():
    ideal = Ideal.from_strings(R2, ["x^2", "x*y", "y^2"])
    lifted = lift_ideal(ideal)
    assert lifted.degree() == 3
    assert lifted.is_reduced_zero_dim(seed=1)
    # a reduced scheme of degree 3 inside the ideals of three points is
    # those points: (0:0:1), (1:0:1) and (0:1:1)
    for point in (["x", "y"], ["x - t", "y"], ["x", "y - t"]):
        assert Ideal.from_strings(lifted.ring, point).contains_ideal(lifted)


def test_setting_t_zero_recovers_input():
    ideal = Ideal.from_strings(R3, ["x^2*y", "y^3", "z^2"])
    lifted = lift_ideal(ideal)
    assert lifted.contract_set_zero("t") == ideal


def test_verify_lifting_full_certificate():
    ideal = Ideal.from_strings(R2, ["x^2", "x*y", "y^2"])
    ok, cert = verify_lifting(ideal)
    assert ok
    for key in ("t_zero_recovers_input", "t_regular", "plus_t_matches",
                "hilbert_matches", "cm_matches_input", "points_reduced",
                "degree_matches_colength"):
        assert cert[key], key
    assert cert["point_count"] == 3


def test_verify_lifting_reports_non_cm_input():
    # (x^2, x*y) has an embedded point; the lift mirrors the failure
    ideal = Ideal.from_strings(R2, ["x^2", "x*y"])
    ok, cert = verify_lifting(ideal)
    assert ok
    assert not cert["cm_input"]
    assert not cert["cm_lifted"]
    assert cert["cm_matches_input"]


def test_cm_clause_is_derived_from_the_section_by_t(monkeypatch):
    # t is a zerodivisor on J = (x^2, x*y, y^2, x*t), though (J, t) = (I, t):
    # nothing carries the CM status of R/I over to S/J
    tested = []
    real = Ideal.cm_test

    def counted(self, seed=0):
        tested.append(self.ring.nvars)
        return real(self, seed=seed)

    monkeypatch.setattr(Ideal, "cm_test", counted)
    ideal = Ideal.from_strings(R2, ["x^2", "x*y", "y^2"])
    bad = Ideal.from_strings(R2.extend("t"), ["x^2", "x*y", "y^2", "x*t"])
    ok, cert = verify_lifting(ideal, bad)
    assert not ok
    assert not cert["t_regular"] and cert["plus_t_matches"]
    assert cert["cm_input"] and cert["cm_lifted"] is None
    assert not cert["cm_matches_input"]
    ok, cert = verify_lifting(ideal)
    assert ok and cert["cm_input"] and cert["cm_lifted"]
    assert tested == [2, 2]         # the input's test, once per certificate


def test_lift_reducedness_needs_no_lucky_multiplier():
    # (x^10, y^10) lifts to the 10 x 10 grid of points; at seed 118751 both
    # random multipliers of the characteristic-polynomial test take one
    # value at two grid points, so that test answers "not reduced"
    ideal = Ideal.from_strings(R2, ["x^10", "y^10"])
    lifted = lift_ideal(ideal)
    assert not reduced_by_charpoly(lifted, 118751)
    ok, cert = verify_lifting(ideal, lifted, seed=118751)
    assert ok and cert["points_reduced"] and cert["point_count"] == 100


@pytest.mark.parametrize("seed", range(4))
def test_random_artinian_monomial_ideals(seed):
    rng = random.Random(400 + seed)
    n = rng.choice((2, 3))
    ring = PolyRing(tuple("xyz"[:n]), P)
    pures = [tuple(rng.randrange(1, 4) if j == i else 0 for j in range(n))
             for i in range(n)]
    extras = [tuple(rng.randrange(0, 3) for _ in range(n))
              for _ in range(rng.randrange(0, 3))]
    gens = [ring.monomial(m) for m in pures + extras if sum(m)]
    ok, cert = verify_lifting(Ideal(ring, gens), seed=seed)
    assert ok, cert


def _artinian_monomial_ideal(ring, rng):
    """A pure power of every variable, exponents 1..3, and up to two more
    monomials."""
    n = ring.nvars
    exps = [tuple(rng.randrange(1, 4) if j == i else 0 for j in range(n))
            for i in range(n)]
    exps += [tuple(rng.randrange(3) for _ in range(n))
             for _ in range(rng.randrange(3))]
    return Ideal(ring, [ring.monomial(e) for e in exps if any(e)])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       same=st.booleans())
def test_numerator_checks_match_counting(seed, same):
    # degree_matches_colength against the summed Hilbert function, and
    # hilbert_matches against the Hilbert functions, both counted on fresh
    # bases; the lift may be of another ideal, which can have another
    # colength and Hilbert function.  Both quotients are Artinian, so
    # their Hilbert functions vanish past the last term of their
    # numerators, and counting up to there compares them in every degree
    rng = random.Random(seed)
    ring = (R2, R3)[rng.randrange(2)]
    ideal = _artinian_monomial_ideal(ring, rng)
    lifted = lift_ideal(ideal if same else _artinian_monomial_ideal(ring,
                                                                     rng))
    _, cert = verify_lifting(ideal, lifted, seed=seed)
    colength = colength_by_counting(ideal)
    assert ideal.degree() == colength
    assert cert["degree_matches_colength"] == (lifted.degree() == colength)
    with_t = lifted + Ideal(lifted.ring, [lifted.ring.parse("t")])
    top = max(numerator_degree_bound(fresh_leading_monomials(i))
              for i in (with_t, ideal))
    assert cert["hilbert_matches"] == (
        hilbert_functions_by_counting(with_t, top)
        == hilbert_functions_by_counting(ideal, top))
    if same:
        assert cert["degree_matches_colength"] and cert["hilbert_matches"]
