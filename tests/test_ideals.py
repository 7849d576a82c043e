"""Ideal toolbox tests: operations, Hilbert data, zero-dimensional tools."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liaison import groebner, ideals, modp
from liaison.groebner import (buchberger, monomial_hilbert_numerator,
                              normal_form)
from liaison.ideals import GenericityError, Ideal, normalize_point
from liaison.lifting import lift_ideal, verify_lifting
from liaison.links import lemma_key_link
from liaison.rings import AlgebraError, MonomialOrder, PolyRing, Polynomial

from .oracles import (affine_basis_by_dehomogenizing, ci_hilbert_numerator,
                      degree_by_counting, equal_by_reduced_bases,
                      hilbert_by_counting, membership_by_linear_algebra,
                      quotient_by_elimination, mult_matrix,
                      random_form_through, random_homogeneous,
                      reduced_by_charpoly, saturate_by_quotients,
                      standard_monomials, substitute_termwise)

P = 32003
R3 = PolyRing(("x", "y", "z"), P)
R4 = PolyRing(("x0", "x1", "x2", "x3"), P)


def I3(*texts):
    return Ideal.from_strings(R3, list(texts))


def I4(*texts):
    return Ideal.from_strings(R4, list(texts))


small_seeds = st.integers(min_value=0, max_value=10 ** 6)


def random_ideal(ring, rng, max_gens=3, max_deg=3):
    gens = [random_homogeneous(ring, rng.randrange(1, max_deg + 1), rng)
            for _ in range(rng.randrange(1, max_gens + 1))]
    return Ideal(ring, [g for g in gens if g])


# -- basic operations --------------------------------------------------------

def test_intersection_of_two_lines_in_plane():
    meet = I3("x").intersect(I3("y"))
    assert meet == I3("x*y")


def test_intersection_of_point_ideals():
    # [0:0:1] and [0:1:0] in P^2
    meet = I3("x", "y").intersect(I3("x", "z"))
    assert meet == I3("x", "y*z")


def test_quotient_splits_a_product():
    assert I3("x*y").quotient(R3.parse("x")) == I3("y")
    assert I3("x*y").quotient(I3("x")) == I3("y")


def test_quotient_by_comaximal_is_identity():
    ideal = I3("x^2 + y*z")
    assert ideal.quotient(R3.parse("z")) == ideal


def test_saturate_removes_embedded_power():
    # (x^2, x*y) = (x) meet (x^2, y): saturating by y leaves the line
    assert I3("x^2", "x*y").saturate(R3.parse("y")) == I3("x")


def test_saturate_irrelevant_removes_irrelevant_component():
    fat = I3("x", "y", "z")
    ideal = Ideal(R3, [f * g for f in fat.generators
                       for g in fat.generators])  # (x,y,z)^2
    line = I3("x", "y")
    mixed = Ideal(R3, [a * b for a in ideal.generators
                       for b in line.generators])
    assert mixed.saturate_irrelevant() == line


def _counting_buchberger(monkeypatch):
    """Record (generators, numerator hint) of every basis an ideal computes."""
    calls = []
    real = ideals.buchberger

    def counting(gens, numerator=None):
        gens = list(gens)
        calls.append((gens, numerator))
        return real(gens, numerator)

    monkeypatch.setattr(ideals, "buchberger", counting)
    return calls


def test_saturate_when_no_variable_is_a_nonzerodivisor():
    # {[1:0:0:0], [0:1:0:0]} times m: every variable lies in an associated
    # prime, so the saturation intersects the saturations by each variable
    points = I4("x1", "x2", "x3").intersect(I4("x0", "x2", "x3"))
    ideal = points * points.irrelevant_ideal()
    assert all(ideal.saturate(v) != ideal for v in R4.gens())
    sat = ideal.saturate_irrelevant()
    assert sat == points
    assert sat == saturate_by_quotients(ideal, ideal.irrelevant_ideal())


def test_saturating_a_saturated_ideal_reuses_its_basis(monkeypatch):
    # x3 is a nonzerodivisor on the twisted cubic: its own basis strips
    # nothing, so no further Groebner basis is computed
    calls = _counting_buchberger(monkeypatch)
    cubic = I4("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")
    assert cubic.saturate_irrelevant() is cubic
    assert cubic.saturate(R4.parse("x3")) is cubic
    assert len(calls) == 1


@pytest.mark.parametrize("by", ["x^2", "1", "x*y + z^2"])
def test_saturate_rejects_nonlinear_forms(by):
    with pytest.raises(AlgebraError):
        I3("x*y").saturate(R3.parse(by))
    with pytest.raises(AlgebraError):
        I3("x*y").saturate(I3("x", by))


def test_linear_colons_are_memoised(monkeypatch):
    calls = _counting_buchberger(monkeypatch)
    # z is a zerodivisor: (x*z, y*z^2) : z = (x, y*z)
    ideal = I3("x*z", "y*z^2")
    ell = R3.parse("x + 2*y + 3*z")
    q = ideal.quotient(ell)
    assert ideal.quotient(ell) is q
    assert ideal.quotient(ell * 5) is q
    assert ideal.is_regular_element(ell * 7) == (q is ideal)
    sat = ideal.saturate(ell)
    assert ideal.saturate(ell * 3) is sat
    assert len(calls) == 1          # one basis with l last, for both caps
    z = R3.parse("z")
    qz = ideal.quotient(z)
    assert ideal.quotient(z * 4) is qz
    assert not ideal.is_regular_element(z)
    assert len(calls) == 2          # the cached basis of I itself
    assert qz == I3("x", "y*z")


def test_regular_linear_form_strips_nothing(monkeypatch):
    calls = _counting_buchberger(monkeypatch)
    cubic = I4("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")
    x3 = R4.parse("x3")
    assert cubic.quotient(x3) is cubic
    assert cubic.is_regular_element(x3 * 2)
    cubic.groebner_basis()
    assert len(calls) == 1          # the cubic's own basis, cached
    assert cubic.is_regular_element(R4.parse("x0 + x3"))
    assert len(calls) == 2


def test_unit_and_zero_flags():
    assert I3("x").quotient(R3.parse("x")).is_unit()
    assert Ideal(R3, []).is_zero()


# -- Hilbert data ------------------------------------------------------------

@pytest.mark.parametrize("degs", [(2,), (2, 3), (2, 2, 2), (1, 2, 4)])
def test_ci_hilbert_numerator_koszul(degs):
    rng = random.Random(str(degs))
    gens = []
    while True:
        gens = [random_homogeneous(R4, d, rng) for d in degs]
        ideal = Ideal(R4, gens)
        if ideal.codim() == len(degs):
            break
    assert list(ideal.hilbert_numerator()) == ci_hilbert_numerator(degs)


def test_hilbert_function_matches_counting():
    texts = ["x^2*y", "y^3", "x*z^2"]
    ideal = I3(*texts)
    leads = [R3.parse(t).leading_monomial() for t in texts]
    for d in range(8):
        assert (groebner.hilbert_function_from_numerator(
            ideal.hilbert_numerator(), 3, d)
            == hilbert_by_counting(leads, 3, d))


def test_dimension_degree_twisted_cubic():
    cubic = I4("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")
    assert cubic.krull_dim() == 2          # a curve in P^3 (cone dim 2)
    assert cubic.codim() == 2
    assert cubic.degree() == 3
    assert cubic.h_vector() == (1, 2)


def test_degree_of_unit_ideal_rejected():
    unit = I3("x").quotient(R3.parse("x"))
    with pytest.raises(AlgebraError):
        unit.degree()


# -- CM / reducedness / points ----------------------------------------------

def test_cm_test_accepts_aci_and_rejects_mixed():
    cubic = I4("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")
    ok, cert = cubic.cm_test(seed=1)
    assert ok and cert["conclusive"]
    # a plane union a non-incident line is not ACM; a random form can be a
    # zerodivisor by chance, so the answer is not a proof
    mixed = I4("x0").intersect(I4("x1", "x2"))
    ok, cert = mixed.cm_test(seed=1)
    assert not ok and not cert["conclusive"]
    assert len(cert["attempts"]) == 3


def test_reducedness_of_point_sets():
    pts = I4("x1", "x2", "x3").intersect(I4("x0", "x2", "x3"))
    assert pts.is_reduced_zero_dim(seed=3)
    fat = Ideal(R4, [a * b for a in I4("x0", "x1", "x2").generators
                     for b in I4("x0", "x1", "x2").generators])
    assert not fat.is_reduced_zero_dim(seed=3)


def test_reducedness_of_conjugate_points():
    # x^2 + y^2 is irreducible over GF(32003), as 32003 = 3 mod 4: the
    # scheme is two reduced points, neither of them rational
    assert I3("x^2 + y^2", "z").is_reduced_zero_dim(seed=0)
    assert not I3("x^2", "z").is_reduced_zero_dim(seed=0)


@pytest.mark.parametrize("texts", [("y", "x^2"), ("x", "y^2")])
def test_reducedness_sees_a_double_point_in_one_coordinate(texts):
    # on the chart z = 1 the tangent of the double point is a coordinate
    # axis: only one coordinate's minimal polynomial is a square
    fat = I3(*texts)
    aff, gb = fat._affine_algebra(0)
    nf = groebner.reducer(gb, aff)
    mus = [ideals._minimal_polynomial(x, nf) for x in aff.gens()]
    assert sorted(mus) == [[0, 0, 1], [0, 1]]
    assert not fat.is_reduced_zero_dim(seed=0)
    assert not reduced_by_charpoly(fat, 0)


@settings(max_examples=12, deadline=None)
@given(seed=small_seeds, kind=st.sampled_from(["reduced", "fat", "conjugate"]))
def test_reducedness_matches_charpoly_oracle(seed, kind):
    # random points, with a double point, or with two conjugate points; the
    # oracle's True is a proof, its False is not
    rng = random.Random(seed)
    pts = sorted({normalize_point([rng.randrange(P) for _ in range(2)]
                                  + [1], P) for _ in range(rng.randrange(1, 4))})
    ideal = _points_ideal(R3, pts)
    if kind == "fat":
        # a double point at the first point, in a random direction
        ell, tangent = (random_form_through(R3, pts[0], rng)
                        for _ in range(2))
        double = Ideal(R3, [ell, tangent * tangent])
        if double.krull_dim() != 1:
            return
        ideal = ideal.intersect(double)
    elif kind == "conjugate":
        # x^2 + y^2 has no root mod 32003, which is 3 mod 4
        ideal = ideal.intersect(I3("x^2 + y^2", "x + y + z"))
    reduced = ideal.is_reduced_zero_dim(seed=seed)
    assert reduced == (kind != "fat")
    if reduced_by_charpoly(ideal, seed):
        assert reduced


def _points_ideal(ring, points):
    """The reduced scheme of the points: an intersection of 2x2 minors."""
    out = None
    for pt in points:
        gens = [pt[i] * ring.gens()[j] - pt[j] * ring.gens()[i]
                for i in range(ring.nvars) for j in range(i + 1, ring.nvars)]
        q = Ideal(ring, [g for g in gens if g])
        out = q if out is None else out.intersect(q)
    return out


def test_charts_skip_points_on_their_hyperplanes():
    # one point on z = 0 and one on the first random chart's hyperplane:
    # both charts miss a point, and the second random chart holds all three
    seed = 0
    charts = list(ideals._chart_forms(R3, seed))
    a = charts[1][0]
    pts = sorted(normalize_point(pt, P)
                 for pt in ([1, 2, 0], [1, 0, -a], [3, 1, 5]))
    assert [any(sum(c * x for c, x in zip(chart, pt)) % P == 0
                for pt in pts) for chart in charts[:3]] == [True, True, False]
    ideal = _points_ideal(R3, pts)
    aff, gb = ideal._affine_algebra(seed)
    assert len(_standard(gb, aff)) == 3
    assert (aff, buchberger(gb)) == affine_basis_by_dehomogenizing(ideal,
                                                                  charts[2])
    assert ideal.is_reduced_zero_dim(seed=seed)


def _standard(gb, aff):
    """The standard monomials of a finite affine algebra, counted."""
    return standard_monomials([g.leading_monomial() for g in gb], aff.nvars)


@settings(max_examples=12, deadline=None)
@given(seed=small_seeds, on_last=st.booleans(), embedded=st.booleans())
def test_chart_basis_matches_dehomogenized_generators(seed, on_last,
                                                      embedded):
    rng = random.Random(seed)
    pts = {normalize_point([rng.randrange(1, P) for _ in range(3)], P)
           for _ in range(rng.randrange(2, 5))}
    if on_last:
        pts.add(normalize_point([rng.randrange(1, P), 1, 0], P))
    pts = sorted(pts)
    ideal = _points_ideal(R3, pts)
    if embedded:
        # every chart form is then a zerodivisor
        ideal = ideal * ideal.irrelevant_ideal()
    aff, gb = ideal._affine_algebra(seed)
    assert len(_standard(gb, aff)) == ideal.degree() == len(pts)
    # the first chart form that vanishes at none of the points
    chart = next(c for c in ideals._chart_forms(R3, seed)
                 if all(sum(a * x for a, x in zip(c, pt)) % P for pt in pts))
    assert (chart == (0, 0, 1)) != on_last
    ref_aff, ref = affine_basis_by_dehomogenizing(ideal, chart)
    assert ref_aff == aff
    # a Groebner basis of the chart's ideal, reduced when the chart form is
    # a nonzerodivisor
    assert (gb if not embedded else buchberger(gb)) == ref


@settings(max_examples=12, deadline=None)
@given(seed=small_seeds, saturated=st.booleans(),
       on_chart=st.sampled_from([None, 0, 1]))
def test_chart_acceptance_matches_counted_standard_monomials(seed, saturated,
                                                             on_chart):
    # on every chart form, the affine algebra's dimension read off the
    # numerator of its leading terms is the count of its standard
    # monomials, and the chart taken is the first with deg(I) of them; a
    # point may lie on the first or the second chart's hyperplane, and the
    # ideal may not be saturated
    rng = random.Random(seed)
    charts = list(ideals._chart_forms(R3, seed))
    pts = {normalize_point([rng.randrange(1, P) for _ in range(3)], P)
           for _ in range(rng.randrange(1, 4))}
    if on_chart is not None:
        a, b, _ = charts[on_chart]
        y = rng.randrange(P)
        pts.add(normalize_point([1, y, -(a + b * y)], P))
    pts = sorted(pts)
    ideal = _points_ideal(R3, pts)
    if not saturated:
        ideal = ideal * ideal.irrelevant_ideal()
    deg = degree_by_counting(ideal)
    assert ideal.degree() == deg == len(pts)
    taken = None
    for chart in charts:
        aff, ref = affine_basis_by_dehomogenizing(ideal, chart)
        lts = [g.leading_monomial() for g in ref]
        std = standard_monomials(lts, aff.nvars)
        k, m = groebner.strip_one_minus_z(
            monomial_hilbert_numerator(lts, aff.nvars))
        assert k == aff.nvars and sum(m) == len(std)
        if taken is None and len(std) == deg:
            taken = (chart, aff, ref)
    if taken is None:
        with pytest.raises(GenericityError):
            ideal._affine_algebra(seed)
        return
    assert on_chart is None or taken[0] != charts[on_chart]
    aff, gb = ideal._affine_algebra(seed)
    assert (aff, buchberger(gb)) == taken[1:]


@settings(max_examples=40, deadline=None)
@given(seed=small_seeds)
def test_numerator_counts_standard_monomials(seed):
    # a monomial ideal in n variables has finitely many standard monomials
    # exactly when its numerator is (1-z)^n·M, and M(1) counts them; with
    # exponents below 4, a finite count is at most 27
    rng = random.Random(seed)
    n = rng.randrange(1, 4)
    lts = [tuple(rng.randrange(4) for _ in range(n))
           for _ in range(rng.randrange(1, 6))]
    std = standard_monomials(lts, n, cap=64)
    k, m = groebner.strip_one_minus_z(monomial_hilbert_numerator(lts, n))
    assert (k == n) == (std is not None and len(std) > 0)
    if k == n:
        assert sum(m) == len(std)


def test_lift_certificate_reuses_the_lift_basis(monkeypatch):
    # t, the last variable, is regular on the lift, so t = 1 is a chart
    # whose basis is the lift's own; the CM test runs on the input only
    calls = _counting_buchberger(monkeypatch)
    spent = []
    for name in ("cm_test", "_affine_algebra"):
        real = getattr(Ideal, name)

        def counted(self, *args, _real=real, _name=name, **kwargs):
            before = len(calls)
            out = _real(self, *args, **kwargs)
            spent.append((_name, self.ring.nvars, len(calls) - before))
            return out

        monkeypatch.setattr(Ideal, name, counted)
    ideal = I3("x^2", "y^3", "z^2", "x*y*z")
    assert verify_lifting(ideal, lift_ideal(ideal))[0]
    assert sorted(spent) == [("_affine_algebra", 4, 0), ("cm_test", 3, 0)]


def _zero_dim_algebra(seed):
    rng = random.Random("mult:%d" % seed)
    while True:
        ideal = Ideal(R3, [random_homogeneous(R3, d, rng) for d in (2, 3)])
        if ideal.krull_dim() == 1:
            return ideal._affine_algebra(seed), rng


@pytest.mark.parametrize("seed", range(3))
def test_mult_matrix_matches_columnwise_normal_forms(seed):
    (aff, gb), rng = _zero_dim_algebra(seed)
    std = _standard(gb, aff)
    lam = ideals._random_linear_form(aff, rng)
    matrix = mult_matrix(lam, gb, std, aff)
    index = {m: i for i, m in enumerate(std)}
    assert len(std) == 6
    for j, m in enumerate(std):
        col = [0] * len(std)
        for mm, c in normal_form(lam * aff.monomial(m), gb).terms.items():
            col[index[mm]] = c
        assert [row[j] for row in matrix] == col


# -- ring surgery ------------------------------------------------------------

def test_extend_then_contract_round_trip():
    ideal = I3("x^2 + y*z", "z^3")
    ext = ideal.extend_ring("t")
    assert ext.ring.variables == ("x", "y", "z", "t")
    assert ext.contract_set_zero("t") == ideal


# -- algebraic laws (property-based) ----------------------------------------

@settings(max_examples=15, deadline=None)
@given(seed=small_seeds)
def test_intersection_contains_product(seed):
    rng = random.Random(seed)
    a, b = random_ideal(R3, rng), random_ideal(R3, rng)
    if a.is_zero() or b.is_zero():
        return
    meet = a.intersect(b)
    assert a.contains_ideal(meet)
    assert b.contains_ideal(meet)
    assert meet.contains_ideal(a * b)


@settings(max_examples=15, deadline=None)
@given(seed=small_seeds)
def test_quotient_law(seed):
    rng = random.Random(seed)
    a = random_ideal(R3, rng)
    f = random_homogeneous(R3, rng.randrange(1, 3), rng)
    if a.is_zero() or not f:
        return
    q = a.quotient(f)
    assert a.contains_ideal(Ideal(R3, [g * f for g in q.generators]))
    assert q.contains_ideal(a)


@settings(max_examples=10, deadline=None)
@given(seed=small_seeds)
def test_saturation_idempotent(seed):
    rng = random.Random(seed)
    a = random_ideal(R3, rng)
    f = random_homogeneous(R3, 1, rng)
    if a.is_zero() or not f:
        return
    s = a.saturate(f)
    assert s.saturate(f) == s


@settings(max_examples=10, deadline=None)
@given(seed=small_seeds)
def test_saturation_matches_iterated_quotients(seed):
    # a random ideal times a power of m is not saturated
    rng = random.Random(seed)
    a = random_ideal(R3, rng, max_deg=2)
    m = a.irrelevant_ideal()
    ideal = a * (m if rng.randrange(2) else m * m)
    assert ideal.saturate_irrelevant() == saturate_by_quotients(ideal, m)
    for f in (random_homogeneous(R3, 1, rng), rng.choice(R3.gens())):
        if f:
            assert ideal.saturate(f) == saturate_by_quotients(ideal, f)


def _forms_of_each_kind(ring, rng):
    """The last variable, another variable, a general linear form and one
    with zero coefficient on the last variable."""
    n = ring.nvars
    general = [rng.randrange(1, P) for _ in range(n)]
    no_last = [rng.randrange(1, P) for _ in range(n - 1)] + [0]
    return [ring.gens()[-1], ring.gens()[rng.randrange(n - 1)],
            ring.linear_form(general), ring.linear_form(no_last)]


def _check_cm_test_against_elimination(ideal, seed):
    # each attempt is a run of regular forms, ended early by a zerodivisor
    ok, cert = ideal.cm_test(seed=seed)
    for attempt in cert["attempts"]:
        current = ideal
        forms = attempt["forms"]
        for i, text in enumerate(forms):
            ell = ideal.ring.parse(text)
            regular = quotient_by_elimination(current, ell) == current
            assert regular == (attempt["regular"] or i < len(forms) - 1)
            current = current + Ideal(ideal.ring, [ell])
    if cert["attempts"]:
        assert ok == cert["attempts"][-1]["regular"]


@settings(max_examples=12, deadline=None)
@given(seed=small_seeds)
def test_linear_colon_matches_elimination(seed):
    # a random ideal, and the same times m or m^2, on which every form is
    # a zerodivisor
    rng = random.Random(seed)
    a = random_ideal(R3, rng, max_deg=2)
    if a.is_zero():
        return
    m = a.irrelevant_ideal()
    embedded = a * (m if rng.randrange(2) else m * m)
    for ideal in (a, embedded):
        for ell in _forms_of_each_kind(R3, rng):
            ref = quotient_by_elimination(ideal, ell)
            assert ideal.quotient(ell) == ref
            assert ideal.is_regular_element(ell) == (ref == ideal)
        _check_cm_test_against_elimination(ideal, seed)
    assert not embedded.is_regular_element(
        rng.choice(_forms_of_each_kind(R3, rng)))


@settings(max_examples=10, deadline=None)
@given(seed=small_seeds)
def test_quotient_by_a_member_is_the_unit_ideal(seed):
    rng = random.Random(seed)
    a = random_ideal(R3, rng)
    top = max([2] + [g.degree() for g in a.generators]) + rng.randrange(2)
    f = sum((random_homogeneous(R3, top - g.degree(), rng) * g
             for g in a.generators), R3.zero())
    if not f:
        return
    q = a.quotient(f)
    assert q.is_unit()
    assert q == quotient_by_elimination(a, f)


@settings(max_examples=10, deadline=None)
@given(seed=small_seeds)
def test_cm_test_starts_with_the_last_variable_when_regular(seed):
    # a random ideal, and the same met with a point on z = 0, on which z is
    # a zerodivisor (the point is the annihilator of an element of the
    # ideal outside it), so every form is drawn at random
    rng = random.Random(seed)
    a = random_ideal(R3, rng, max_deg=2)
    point = I3("z", str(R3.linear_form([rng.randrange(1, P), 1, 0])))
    z = R3.parse("z")
    for ideal in (a, a.intersect(point)):
        regular = quotient_by_elimination(ideal, z) == ideal
        if ideal is not a and not point.contains_ideal(a):
            assert not regular
        ok, cert = ideal.cm_test(seed=seed)
        if cert["attempts"]:
            assert (cert["attempts"][0]["forms"][0] == "z") == regular
        assert cert["conclusive"] == ok
        _check_cm_test_against_elimination(ideal, seed)


# -- Hilbert-driven bases ---------------------------------------------------

def _normalized_coeffs(ell):
    """Coefficients of a linear form scaled so the last nonzero one is 1."""
    coeffs = [0] * ell.ring.nvars
    for m, c in ell.terms.items():
        coeffs[m.index(1)] = c
    inv = pow(next(c for c in reversed(coeffs) if c), P - 2, P)
    return tuple(c * inv % P for c in coeffs)


@settings(max_examples=12, deadline=None)
@given(seed=small_seeds)
def test_hinted_bases_match_unhinted(seed):
    # a random ideal, and the same times m: its basis with each kind of form
    # last, hinted by its ring's own basis, and each linear colon (cap 1 and
    # infinity), whose bases are hinted by the stripped basis in its table,
    # against the same computations on fresh ideals that know no numerator
    rng = random.Random(seed)
    a = random_ideal(R3, rng, max_deg=2)
    if a.is_zero():
        return
    for ideal in (a, a * a.irrelevant_ideal()):
        ideal.groebner_basis()
        for ell in _forms_of_each_kind(R3, rng):
            coeffs = _normalized_coeffs(ell)
            fresh = Ideal(R3, ideal.generators)
            assert (ideal._basis_with_last(coeffs)[2]
                    == fresh._basis_with_last(coeffs)[2])
            for cap in (1, math.inf):
                q = ideal._colon_linear(ell, cap)
                if q is ideal:
                    continue
                assert list(q._bases) == [coeffs]
                _check_kept_colon_basis(q, ell, cap, rng)
                other = _normalized_coeffs(rng.choice(
                    _forms_of_each_kind(R3, rng)))
                assert q._basis_with_last(other)[2] == Ideal(
                    R3, q.generators)._basis_with_last(other)[2]
                gb = q.groebner_basis()
                assert gb == tuple(buchberger(q.generators))
                assert q.hilbert_numerator() == tuple(
                    monomial_hilbert_numerator(
                        [g.leading_monomial() for g in gb], R3.nvars))
                _check_table(q)
        _check_table(ideal)


def _check_table(ideal):
    """Every entry of the table is the reduced basis of the image of the
    generators in its work ring, and each gives the numerator a fresh ideal
    computes."""
    expected = Ideal(ideal.ring, ideal.generators).hilbert_numerator()
    for work, image, gb in ideal._bases.values():
        assert gb == tuple(buchberger([image(g) for g in ideal.generators]))
        assert all(g.ring == work for g in gb)
        assert tuple(monomial_hilbert_numerator(
            [g.leading_monomial() for g in gb], work.nvars)) == expected
    assert ideal.hilbert_numerator() == expected


def _check_kept_colon_basis(q, ell, cap, rng):
    """The basis a colon q = I : ell^cap entered from its stripping: the
    reduced basis of the image of q, which answers membership, regularity
    and later colons as a fresh ideal on the same generators does."""
    work, image, kept = q._bases[_normalized_coeffs(ell)]
    assert kept == tuple(buchberger([image(g) for g in q.generators]))
    fresh = Ideal(R3, q.generators)
    top = (max((g.degree() for g in q.generators), default=0)
           + rng.randrange(2))
    member = sum((random_homogeneous(R3, top - g.degree(), rng) * g
                  for g in q.generators), R3.zero())
    others = [random_homogeneous(R3, d, rng) for d in (1, 2, top)]
    tests = [member] + others + [member + others[-1]]
    assert [q.contains(f) for f in tests] == [fresh.contains(f)
                                             for f in tests]
    assert len(q._bases) == 1
    # the colon's own form first, on the kept basis; a colon by ell to the
    # infinity strips nothing more
    for form in [ell] + _forms_of_each_kind(R3, rng):
        assert q.is_regular_element(form) == fresh.is_regular_element(form)
        for cap2 in (1, math.inf):
            assert ((q._colon_linear(form, cap2) is q)
                    == (fresh._colon_linear(form, cap2) is fresh))
    if cap == math.inf:
        assert q._colon_linear(ell, cap) is q


def test_the_table_keeps_every_basis(monkeypatch):
    # forms A, B, A, B of one ideal: two bases, each computed once
    calls = _counting_buchberger(monkeypatch)
    ideal = I3("x^2 + y*z", "y^3 - x*z^2", "x*y*z")
    forms = [_normalized_coeffs(R3.parse(t)) for t in ("x + 2*y + 3*z",
                                                        "y + 5*z")]
    entries = [ideal._basis_with_last(c) for c in forms + forms]
    assert len(calls) == 2
    assert entries[0] is entries[2] and entries[1] is entries[3]
    # the second basis knew the numerator the first one fixed
    assert calls[0][1] is None and calls[1][1] == ideal.hilbert_numerator()
    assert list(ideal._bases) == forms and ideal._gb is None


def test_ideals_live_in_degrevlex_rings():
    ring = PolyRing(("x", "y", "z"), P, MonomialOrder("elim", 1))
    with pytest.raises(AlgebraError):
        Ideal(ring, [ring.parse("x*y")])


def test_hinted_colon_basis_reduces_fewer_pairs(monkeypatch):
    # the colon of the twisted cubic times m by a general form is the cubic;
    # mapped back to the original coordinates, its basis knows when it is
    # complete
    spolys = []
    real = groebner._spoly_data

    def counting(*args):
        spolys.append(1)
        return real(*args)

    monkeypatch.setattr(groebner, "_spoly_data", counting)
    cubic = I4("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")
    embedded = cubic * cubic.irrelevant_ideal()
    q = embedded._colon_linear(R4.parse("x0 + 2*x1 + 3*x2 + 5*x3"), 1)
    spolys.clear()
    hinted = q.groebner_basis()
    n_hinted = len(spolys)
    spolys.clear()
    unhinted = tuple(buchberger(q.generators))
    assert n_hinted < len(spolys)
    assert hinted == unhinted == cubic.groebner_basis()


def test_hint_needs_homogeneous_generators():
    with pytest.raises(AlgebraError):
        buchberger([R3.parse("x^2 - y"), R3.parse("y*z")], (1, 0, -1))


def test_reducedness_computes_no_characteristic_polynomial(monkeypatch):
    def forbidden(*args):
        raise AssertionError("not on the reducedness route")

    monkeypatch.setattr(modp, "charpoly", forbidden)
    lifted = lift_ideal(I3("x^3", "y^2", "z^2"))
    assert lifted.is_reduced_zero_dim(seed=0)
    assert not I3("y", "x^2").is_reduced_zero_dim(seed=0)


# -- answers from the basis or numerator in hand ------------------------------

def _prepare(ideal, state, rng):
    """Give the ideal what it knows before a question: nothing, its cached
    basis, a basis with a general linear form last, or only its Hilbert
    numerator (taken from a basis computed elsewhere)."""
    if state == "basis":
        ideal.groebner_basis()
    elif state == "shifted":
        ideal._basis_with_last(_normalized_coeffs(
            _forms_of_each_kind(ideal.ring, rng)[2]))
    elif state == "numerator":
        ideal._numerator = Ideal(ideal.ring,
                                 ideal.generators).hilbert_numerator()
    return ideal


def _partner(a, kind, rng):
    """An ideal equal to a with other generators, a with one generator more,
    a with two variables swapped (often the same Hilbert series, another
    ideal), or an unrelated random ideal."""
    ring = a.ring
    if kind == "equal":
        top = max((g.degree() for g in a.generators), default=0) + 1
        extra = sum((random_homogeneous(ring, top - g.degree(), rng) * g
                     for g in a.generators), ring.zero())
        return Ideal(ring, list(reversed(a.generators)) + [extra])
    if kind == "larger":
        return a + Ideal(ring, [random_homogeneous(ring, 2, rng)])
    if kind == "swapped":
        return Ideal(ring, [g.substitute({"x": ring.variable("z"),
                                          "z": ring.variable("x")})
                            for g in a.generators])
    return random_ideal(ring, rng)


STATES = ["none", "basis", "shifted", "numerator"]


@settings(max_examples=40, deadline=None)
@given(seed=small_seeds, kind=st.sampled_from(["equal", "larger", "swapped",
                                              "random"]),
       states=st.tuples(st.sampled_from(STATES), st.sampled_from(STATES)))
def test_equality_matches_reduced_bases(seed, kind, states):
    rng = random.Random(seed)
    a = random_ideal(R3, rng, max_deg=2)
    b = _partner(a, kind, rng)
    expected = equal_by_reduced_bases(a, b)
    if kind == "equal":
        assert expected
    a, b = (_prepare(i, s, rng) for i, s in zip((a, b), states))
    with pytest.MonkeyPatch.context() as patch:
        calls = _counting_buchberger(patch)
        assert (a == b) == expected
        assert (b == a) == expected
    # the container's basis, unless one side has a basis in hand, and the
    # other side's, unless it knows its numerator
    in_hand = any(s in ("basis", "shifted") for s in states)
    unknown = states.count("none")
    assert len(calls) <= (unknown if in_hand else 1 + max(unknown - 1, 0))


@pytest.mark.parametrize("texts", [(("x", "y"), ("x", "z")),
                                   (("x^2",), ("x*y",)),
                                   (("x^2", "x*y"), ("y^2", "x*y"))])
@pytest.mark.parametrize("states", [("none", "none"), ("basis", "basis"),
                                    ("shifted", "numerator"),
                                    ("numerator", "numerator")])
def test_equal_hilbert_series_is_not_equality(texts, states):
    # the numerators agree, so the containment test has to decide
    rng = random.Random(str(texts))
    a, b = (_prepare(I3(*t), s, rng) for t, s in zip(texts, states))
    assert a.hilbert_numerator() == b.hilbert_numerator()
    assert a != b and b != a
    assert not equal_by_reduced_bases(a, b)
    assert a == _prepare(I3(*texts[0]), states[1], rng)


@settings(max_examples=20, deadline=None)
@given(seed=small_seeds, kind=st.sampled_from(["equal", "larger", "swapped",
                                              "random"]))
def test_equality_by_a_shared_key_matches_containment(seed, kind):
    # both sides hold an entry under one key: the two reduced bases decide,
    # with no reducer made, as containment and numerators decide on copies
    # that hold no entry
    rng = random.Random(seed)
    a = random_ideal(R3, rng, max_deg=2)
    b = _partner(a, kind, rng)
    expected = Ideal(R3, a.generators) == Ideal(R3, b.generators)
    assert expected == equal_by_reduced_bases(a, b)
    key = _normalized_coeffs(rng.choice(_forms_of_each_kind(R3, rng)))
    for side in (a, b):
        side._basis_with_last(key)
    made = []
    real = ideals.reducer
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ideals, "reducer",
                      lambda *args: made.append(args) or real(*args))
        assert (a == b) == expected
        assert (b == a) == expected
    assert not made


def _strip(g, cap):
    """g divided by the largest power x^k, k <= cap, of its ring's last
    variable x dividing it."""
    k = min(cap, min(m[-1] for m in g.terms))
    return g.ring.from_dict({m[:-1] + (m[-1] - k,): c
                             for m, c in g.terms.items()})


@settings(max_examples=15, deadline=None)
@given(seed=small_seeds, cap=st.sampled_from([1, math.inf]))
def test_colon_generators_are_made_on_first_read(seed, cap):
    # a colon's zero and unit tests, and its meet with the unit ideal, read
    # the basis it keeps; its generators, once read, are the stripped basis
    # of I with ell last, mapped back to the original coordinates
    rng = random.Random(seed)
    a = random_ideal(R3, rng)
    ideal = a * a.irrelevant_ideal()
    ell = rng.choice(_forms_of_each_kind(R3, rng))
    q = ideal._colon_linear(ell, cap)
    assert q is not ideal
    zero, unit = q.is_zero(), q.is_unit()
    one = I3("1")
    assert q.intersect(one) is q
    assert one.intersect(q) is (one if unit else q)
    assert callable(q._generators)
    key = _normalized_coeffs(ell)
    work, _, gb = ideal._bases[key]
    back = {work.variables[-1]: R3.linear_form(key)}
    assert q.generators == tuple(substitute_termwise(_strip(g, cap), back, R3)
                                 for g in gb)
    truth = buchberger(q.generators)
    assert zero == (not truth)
    assert unit == (bool(truth) and truth[0].is_constant())
    _check_table(q)


@pytest.mark.parametrize("kind", range(3))
def test_colon_identity_reads_no_colon_generators(kind, monkeypatch):
    # with f the last variable, another variable or a general form, regular
    # on R/I, no colon lemma_key_link makes has its generators read, so no
    # stripped basis is mapped back to the original coordinates
    rng = random.Random(7300 + kind)
    while True:
        ideal = Ideal(R4, [random_homogeneous(R4, 2, rng) for _ in range(2)])
        if ideal.codim() == 2:
            break
    ideal = Ideal(R4, ideal.generators)
    other = ideal + Ideal(R4, [random_homogeneous(R4, 2, rng)])
    f = _forms_of_each_kind(R4, rng)[kind]
    made, sent = [], []
    real_colon, real_substitute = Ideal._colon_linear, Polynomial.substitute

    def colon(self, ell, cap):
        out = real_colon(self, ell, cap)
        if out is not self:
            made.append(out)
        return out

    def substitute(g, assignment, target_ring=None):
        sent.extend(assignment.values())
        return real_substitute(g, assignment, target_ring)

    monkeypatch.setattr(Ideal, "_colon_linear", colon)
    monkeypatch.setattr(Polynomial, "substitute", substitute)
    _, step = lemma_key_link(ideal, f, other)
    assert step.passed()
    assert made and all(callable(q._generators) for q in made)
    ell = R4.linear_form(_normalized_coeffs(f))
    assert all(value != ell for value in sent)


@settings(max_examples=20, deadline=None)
@given(seed=small_seeds, kind=st.sampled_from(["random", "zero", "constant",
                                              "member", "colon"]))
def test_zero_and_unit_from_generators_match_the_basis(seed, kind):
    rng = random.Random(seed)
    a = random_ideal(R3, rng)
    if kind == "zero":
        a = Ideal(R3, [R3.zero()])
    elif kind == "constant":
        a = a + Ideal(R3, [R3.constant(rng.randrange(1, P))])
    elif kind == "member":
        # a quotient by a member of the ideal is the unit ideal
        a = a.quotient(a.generators[0] * random_homogeneous(R3, 1, rng))
    elif kind == "colon":
        a = a.quotient(Ideal(R3, [random_homogeneous(R3, 1, rng),
                                  rng.choice(R3.gens())]))
    gb = buchberger(a.generators)
    assert a.is_zero() == (not gb)
    assert a.is_unit() == (bool(gb) and gb[0].is_constant())


@settings(max_examples=15, deadline=None)
@given(seed=small_seeds)
def test_membership_through_a_shifted_basis(seed):
    # the basis with a general form, or another variable, last answers
    # membership without the cached basis
    rng = random.Random(seed)
    a = random_ideal(R3, rng)
    ell = rng.choice(_forms_of_each_kind(R3, rng)[1:])
    a._basis_with_last(_normalized_coeffs(ell))
    top = (max((g.degree() for g in a.generators), default=0)
           + rng.randrange(2))
    members = [sum((random_homogeneous(R3, top - g.degree(), rng) * g
                    for g in a.generators), R3.zero())]
    others = [random_homogeneous(R3, d, rng) for d in (1, 2, top)]
    tests = members + others + [m + o for m, o in zip(members, others[2:])]
    got = [a.contains(f) for f in tests]
    assert a.contains_ideal(Ideal(R3, members))
    assert list(a._bases) == [_normalized_coeffs(ell)]
    for f, answer in zip(tests, got):
        assert answer == membership_by_linear_algebra(
            f, a.generators, max(f.degree(), 0))


def test_zero_ideal_has_a_shifted_basis_too():
    zero = Ideal(R3, [])
    zero._basis_with_last(_normalized_coeffs(R3.parse("x + y + z")))
    assert zero.contains(R3.zero()) and not zero.contains(R3.parse("x"))
    assert zero == Ideal(R3, []) and zero != I3("x")


def test_colon_identity_computes_two_bases(monkeypatch):
    # the basis of J with f last (is I inside J?), then of I with f last;
    # f is regular on R/I, so the basis of I + f*J with f last is the union
    # of those two, J's times f, interreduced, with no S-pairs; equality,
    # unit and zero tests, and the codimension of I after it, read what
    # those left
    rng = random.Random(5)
    while True:
        ideal = Ideal(R4, [random_homogeneous(R4, 2, rng) for _ in range(3)])
        if ideal.codim() == 3:
            break
    ideal = Ideal(R4, ideal.generators)     # a copy with nothing cached
    other = ideal + Ideal(R4, [random_homogeneous(R4, 1, rng)])
    f = random_homogeneous(R4, 1, rng)
    calls = _counting_buchberger(monkeypatch)
    combined, step = lemma_key_link(ideal, f, other)
    assert step.passed()
    assert ideal.codim() == 3
    key = _normalized_coeffs(f)
    image = ideal._bases[key][1]
    assert calls == [([image(g) for g in source.generators], None)
                     for source in (other, ideal)]
    assert combined._bases[key][2] == tuple(buchberger(
        [image(g) for g in combined.generators]))


def test_colon_identity_with_a_zerodivisor_reports_it(monkeypatch):
    # f = x0 is a zerodivisor: I : f = (x1) is not inside J, so
    # (I : f) + J = (x1, x2) is built, and the identity fails; I + f*J gets
    # no numerator, since its Hilbert series does not follow from I and J,
    # and no other basis here has one either
    calls = _counting_buchberger(monkeypatch)
    combined, step = lemma_key_link(I4("x0*x1"), "x0", I4("x0*x1", "x2"))
    assert calls and all(numerator is None for _, numerator in calls)
    assert step.checks == {"f_regular_on_I": False,
                           "colon_by_pair_eq_colon_by_f": True,
                           "colon_by_f_eq_colon_plus_J": True,
                           "equals_J": False}
