"""Fat point machinery: formulas, grids, link steps, full reduction."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liaison import fatpoints, ideals, modp
from liaison.fatpoints import (MAX_REDRAW_ROUNDS, ROLES, FatPointScheme,
                               GridCurveSelection, PointP3,
                               ResourceLimitError,
                               default_ring, fat_point_ideal,
                               fatpoint_hvector_formula,
                               general_forms_through,
                               gorenstein_X_hvector_formula, grid_curves,
                               point_ideal, reduce_to_reduced,
                               single_fatpoint_link_step,
                               theorem32_double_step)
from liaison.ideals import GenericityError, Ideal, normalize_point
from liaison.links import LinkChainReport
from liaison.rings import AlgebraError, PolyRing

from .oracles import line_rows, sweep_crossings

P = 32003
RING = default_ring()
ORIGIN = PointP3.make([1, 0, 0, 0])
OTHER = PointP3.make([0, 1, 0, 0])


# -- points, lines, schemes --------------------------------------------------

def test_point_normalization():
    assert PointP3.make([0, 2, 4, 6]).coords == (0, 1, 2, 3)
    assert PointP3.make([3, 0, 0, 0]) == ORIGIN


def test_line_requires_independent_forms():
    with pytest.raises(GenericityError):
        fatpoints._ci_lines([(1, 0, 0, 0)], [(2, 0, 0, 0)], P)
    # x0 = x1 = 0 twice
    with pytest.raises(GenericityError):
        fatpoints._ci_lines([(1, 0, 0, 0), (1, 1, 0, 0)], [(0, 1, 0, 0)], P)


def test_scheme_rejects_duplicates_and_bad_multiplicities():
    with pytest.raises(AlgebraError):
        FatPointScheme(((ORIGIN, 1), (ORIGIN, 2)))
    with pytest.raises(AlgebraError):
        FatPointScheme(((ORIGIN, 0),))


def test_scheme_degree_and_json():
    scheme = FatPointScheme(((ORIGIN, 2), (OTHER, 1)))
    assert scheme.degree() == 4 + 1
    assert not scheme.is_reduced()
    again = FatPointScheme.from_json(scheme.to_json())
    assert again == scheme


def test_point_and_fat_ideals():
    p1 = point_ideal(RING, ORIGIN)
    assert p1.degree() == 1 and p1.codim() == 3
    p2 = fat_point_ideal(RING, ORIGIN, 2)
    assert p2 == p1 * p1
    assert p2.degree() == 4


# -- formulas ----------------------------------------------------------------

@pytest.mark.parametrize("n,a", [(2, 2), (3, 2), (3, 3), (3, 4)])
def test_fatpoint_hvector_formula_matches_ideal(n, a):
    ring = PolyRing(tuple("x%d" % i for i in range(n + 1)), P)
    power = Ideal(ring, [ring.variable(v) for v in ring.variables[1:]])
    acc = power
    for _ in range(a - 1):
        acc = acc * power
    assert acc.h_vector() == fatpoint_hvector_formula(n, a)


def test_gorenstein_formula_is_symmetric():
    for a in (2, 3, 4):
        hv = gorenstein_X_hvector_formula(3, a)
        assert hv == hv[::-1]
        assert hv[a - 1] == max(hv)


# -- general forms and grids -------------------------------------------------

def test_general_forms_through_point():
    forms = general_forms_through(RING, ORIGIN, 3, seed=9, avoid=[OTHER])
    assert len(forms) == 3
    for v in forms:
        f = RING.linear_form(v)
        assert f.evaluate(ORIGIN.coords) == 0
        assert f.evaluate(OTHER.coords) != 0
    again = general_forms_through(RING, ORIGIN, 3, seed=9, avoid=[OTHER])
    assert forms == again


@pytest.mark.parametrize("a", [2, 3])
def test_grid_curves_h_vector_and_containment(a):
    sel = grid_curves(RING, ORIGIN, a, a + 1, seed=0)
    expected = tuple(range(1, min(a, a + 1) + 1))
    assert sel.ideal_c.h_vector() == expected
    assert sel.ideal_d.h_vector() == expected
    power = fat_point_ideal(RING, ORIGIN, a)
    assert power.contains_ideal(sel.ideal_c)
    assert power.contains_ideal(sel.ideal_d)


# -- link steps --------------------------------------------------------------

def test_single_step_multiplicity_two():
    report = single_fatpoint_link_step(RING, ORIGIN, 2, seed=0)
    assert report.ok()
    assert report.result == point_ideal(RING, ORIGIN)


def test_single_step_multiplicity_three():
    report = single_fatpoint_link_step(RING, ORIGIN, 3, seed=0)
    assert report.ok()
    assert report.result == fat_point_ideal(RING, ORIGIN, 2)


def test_double_step_single_fat_point():
    scheme = FatPointScheme(((ORIGIN, 2),))
    report = theorem32_double_step(scheme, seed=0)
    assert report.ok()
    assert report.result is not None
    assert report.result.is_reduced()


def test_reduce_single_fat_point_takes_two_links():
    scheme = FatPointScheme(((ORIGIN, 2),))
    report = reduce_to_reduced(scheme, seed=0)
    assert report.ok()
    summary = report.steps[-1]
    assert summary.kind == "reduction-summary"
    assert summary.data["links"] == 2
    assert report.result.is_reduced()


def test_auxiliary_planes_fill_only_open_roles():
    x0, x1, x2, x3 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    # reused planes of the other fat point [0:1:0:0]
    fat_forms = {OTHER: ([x2, x3], [x0], [(1, 0, 1, 1)])}
    on_m = PointP3.make([0, 0, 1, 5])      # on the M plane only
    on_none = PointP3.make([1, 0, 3, 7])   # on no reused plane
    tracked = [ORIGIN, OTHER, on_m, on_none]
    aux = fatpoints._auxiliary_planes(RING, [on_m, on_none], fat_forms,
                                      tracked, seed=5)
    assert [len(forms) for forms in aux[on_m]] == [1, 0, 1]
    assert [len(forms) for forms in aux[on_none]] == [1, 1, 1]
    for q, triple in aux.items():
        for forms in triple:
            for f in map(RING.linear_form, forms):
                assert f.evaluate(q.coords) == 0
                assert all(f.evaluate(r.coords) != 0
                           for r in tracked if r != q)
    # a concurrence is redrawn on the first fresh plane through it, and
    # must lie on one: [0:1:0:0] lies on reused planes only
    sel = GridCurveSelection([x1], [(0, 1, 1, 2)], [])
    planes, fresh = fatpoints._link_planes(sel, fat_forms, aux)
    arr = fatpoints._Arrangement(planes, [], P)
    key = fatpoints._fresh_plane_at(fresh, arr.planes_through(on_none.coords),
                                    on_none.coords)
    assert fresh[key] == (1, 0, on_none)
    with pytest.raises(GenericityError):
        fatpoints._fresh_plane_at(fresh, arr.planes_through(OTHER.coords),
                                  OTHER.coords)
    # two reused L planes through one point
    with pytest.raises(GenericityError):
        fatpoints._auxiliary_planes(RING, [PointP3.make([1, 0, 0, 0])],
                                    fat_forms, tracked, seed=5)


def test_double_step_redraws_are_recorded():
    scheme = FatPointScheme(((ORIGIN, 2), (OTHER, 1)))
    report = theorem32_double_step(scheme, seed=0)
    assert report.ok()
    links = [s for s in report.steps if s.kind == "gorenstein-link"]
    assert links[0].data["redraw_rounds"] == 0
    second = links[1].data
    assert second["concurrent"] == 0
    assert 0 < second["redraw_rounds"] <= MAX_REDRAW_ROUNDS
    assert len(second["redrawn"]) >= second["redraw_rounds"]
    assert all(r["role"] in ROLES for r in second["redrawn"])
    # every auxiliary point R_k is a reduced point of Gor' and drops
    rk = [k for k, deg in second["local_degrees"].items()
          if k not in (str(ORIGIN), str(OTHER))]
    assert rk and all(second["local_degrees"][k] == 1 for k in rk)
    kept = {str(pt) for pt, _ in report.result.points}
    assert not kept & set(rk)


def test_double_step_colons_only_where_z_has_a_component(monkeypatch):
    colons = []
    quotient = Ideal.quotient

    def counted(ideal, by):
        colons.append(by)
        return quotient(ideal, by)

    monkeypatch.setattr(Ideal, "quotient", counted)
    scheme = FatPointScheme(((ORIGIN, 2), (OTHER, 1)))
    report = theorem32_double_step(scheme, seed=0)
    assert report.ok()
    # the first link's colons at the focus and at [0:1:0:0], and the
    # second link's at the focus; Gor' and Z' are the reduced point at
    # each of the 14 R_k, and Z' has no component at [0:1:0:0]
    assert len(colons) == 3


def test_double_step_builds_no_ideal_at_the_auxiliary_points(monkeypatch):
    bases, saturations = [], []
    buchberger, saturate = ideals.buchberger, Ideal.saturate

    def counted_basis(gens, numerator=None):
        bases.append(gens)
        return buchberger(gens, numerator)

    def counted_saturation(ideal):
        saturations.append(ideal)
        return saturate(ideal)

    monkeypatch.setattr(ideals, "buchberger", counted_basis)
    monkeypatch.setattr(Ideal, "saturate", counted_saturation)
    scheme = FatPointScheme(((ORIGIN, 2), (OTHER, 1)))
    report = theorem32_double_step(scheme, seed=0)
    assert report.ok()
    # each R_k is certified by its single crossing: no line ideal,
    # saturation or point ideal is built there
    assert len(saturations) == 6
    assert len(bases) == 45


def test_auxiliary_point_on_two_planes_of_one_role_fails_at_once(
        monkeypatch):
    auxiliary_planes = fatpoints._auxiliary_planes

    def doubled(ring, rk_objs, fat_forms, tracked, seed):
        aux = auxiliary_planes(ring, rk_objs, fat_forms, tracked, seed)
        # a second M plane through the first R_k: two crossing pairs there
        q = rk_objs[0]
        aux[q][1].extend(general_forms_through(
            ring, q, 1, seed + 1, [r for r in tracked if r != q]))
        return aux

    calls = []
    crossings = fatpoints._Arrangement.crossings

    def recording(arr, special):
        calls.append(arr)
        return crossings(arr, special)

    monkeypatch.setattr(fatpoints, "_auxiliary_planes", doubled)
    monkeypatch.setattr(fatpoints._Arrangement, "crossings", recording)
    monkeypatch.setattr(fatpoints, "DOUBLE_STEP_TRIES", 1)
    scheme = FatPointScheme(((ORIGIN, 2), (OTHER, 1)))
    with pytest.raises(GenericityError, match="is not the reduced point"):
        theorem32_double_step(scheme, seed=0)
    # one classification per link: no redraw round was spent on the R_k
    assert len(calls) == 2


@pytest.mark.parametrize("points,focus_index", [
    ((), 0),
    (((ORIGIN, 2),), 3),
    (((ORIGIN, 2),), -1),
    (((ORIGIN, 1), (OTHER, 2)), 0),
])
def test_double_step_refuses_a_focus_it_cannot_step(monkeypatch, points,
                                                    focus_index):
    def no_step(*args):
        raise AssertionError("a step tried before the focus check")
    monkeypatch.setattr(fatpoints, "_double_step_once", no_step)
    scheme = FatPointScheme(points)
    with pytest.raises(AlgebraError, match="focus") as info:
        theorem32_double_step(scheme, focus_index=focus_index, seed=0)
    assert type(info.value) is AlgebraError


# Z at the focus of the seed-0 (2, 1) first link: a subscheme of Gor, the
# scheme the double step links, or one that Gor does not contain
FIRST_LINK_FOCUS = [
    (1, {"scheme_inside_Gor": True, "additivity_at_[1:0:0:0]": True}),
    (2, {"scheme_inside_Gor": True, "additivity_at_[1:0:0:0]": True}),
    (3, {"scheme_inside_Gor": False, "additivity_at_[1:0:0:0]": False}),
]


@pytest.mark.parametrize("power,expected", FIRST_LINK_FOCUS)
def test_first_link_checks_see_the_focus_piece(monkeypatch, power, expected):
    calls = []
    tracked_link = fatpoints._tracked_link

    def recording(*args):
        calls.append(args)
        return tracked_link(*args)

    monkeypatch.setattr(fatpoints, "_tracked_link", recording)
    theorem32_double_step(FatPointScheme(((ORIGIN, 2), (OTHER, 1))), seed=0)
    ring, focus, sel, fat_forms, aux, z_local, _, stage = calls[0]
    z_local = {**z_local, focus.coords: fat_point_ideal(ring, focus, power)}
    report = LinkChainReport()
    tracked_link(ring, focus, sel, fat_forms, aux, z_local, report, stage)
    checks = {k: v for step in report.steps for k, v in step.checks.items()}
    assert {k: checks[k] for k in expected} == expected
    # the other checks of the link do not read Z
    assert all(v for k, v in checks.items() if k not in expected)


def test_double_step_budget_fails_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("forms drawn before the budget check")
    monkeypatch.setattr(fatpoints, "general_forms_through", no_draws)
    monkeypatch.setattr(fatpoints, "grid_curves", no_draws)
    # the first link's CI(F, G) has (2 + 1) * (2 * 1 + 2 + 1) = 15 lines
    monkeypatch.setattr(fatpoints, "MAX_CROSSING_PAIRS", 14)
    scheme = FatPointScheme(((ORIGIN, 2), (OTHER, 1)))
    with pytest.raises(ResourceLimitError):
        theorem32_double_step(scheme, seed=0)


# -- the incidence table against the pairwise sweep --------------------------

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_two_lines_through_a_point_cut_out_the_point(data):
    # the certificate at a single crossing: one Y line and one W line
    # through q, distinct, and their saturated sum is the reduced point q
    q = PointP3.make(data.draw(PLANE), P)
    basis = modp.nullspace([list(q.coords)], P)

    def plane():
        c = data.draw(st.tuples(*[st.integers(0, SMALL - 1)] * 3).filter(any))
        return normalize_point([sum(a * v[j] for a, v in zip(c, basis))
                                for j in range(4)], P)

    try:
        y, w = (fatpoints._ci_lines([plane()], [plane()], P)[0, 0]
                for _ in range(2))
    except GenericityError:
        assume(False)
    assume(y != w)
    piece = (fatpoints._lines_ideal(RING, [y])
             + fatpoints._lines_ideal(RING, [w])).saturate_irrelevant()
    assert piece == point_ideal(RING, q)


def _sweep_lines(planes, cone, p):
    """Y and W as line lists in sweep order, built from the planes alone:
    CI(F, Q) row-major and the cone lines, then the rest of CI(F, G)."""
    f_vecs, q_vecs, n_vecs = planes
    lines_y = ([line_rows(f, q, p) for f in f_vecs for q in q_vecs]
               + [line_rows(f_vecs[i], n_vecs[j], p) for i, j in cone])
    in_y = set(lines_y)
    lines_w = [ln for ln in (line_rows(f, n, p)
                             for f in f_vecs for n in n_vecs)
               if ln not in in_y]
    return lines_y, lines_w


def _assert_matches_sweep(arr, cone, special, found):
    counts, elsewhere, _ = found
    ref_counts, ref_elsewhere = sweep_crossings(
        *_sweep_lines(arr.planes, cone, arr.p), special, arr.p)
    assert counts == ref_counts
    assert list(elsewhere.items()) == list(ref_elsewhere.items())


@pytest.mark.parametrize("a", [2, 3])
def test_crossings_match_the_pairwise_sweep(monkeypatch, a):
    calls = []
    crossings = fatpoints._Arrangement.crossings

    def recording(arr, special):
        found = crossings(arr, special)
        calls.append((arr, dict(special), found))
        return found

    monkeypatch.setattr(fatpoints._Arrangement, "crossings", recording)
    scheme = FatPointScheme(((ORIGIN, a), (OTHER, 1)))
    report = theorem32_double_step(scheme, seed=0)
    assert report.ok()
    rounds = [s.data["redraw_rounds"] for s in report.steps
              if s.kind == "gorenstein-link"]
    assert len(calls) == len(rounds) + sum(rounds)
    for arr, special, found in calls:
        first_cone = len(arr.planes[0]) * arr.nq
        cone = [(i, g - arr.nq) for i, g in arr.y[first_cone:]]
        _assert_matches_sweep(arr, cone, special, found)
    assert any(n > 1 for _, _, (_, elsewhere, _) in calls
               for n in elsewhere.values())


SMALL = 7
PLANE = st.tuples(*[st.integers(0, SMALL - 1)] * 4).filter(any)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_crossings_match_the_pairwise_sweep_at_a_small_prime(data):
    # over GF(7) four planes through one point, and crossings on the cone
    # lines, are common
    planes = (data.draw(st.lists(PLANE, min_size=1, max_size=4)),
              data.draw(st.lists(PLANE, max_size=3)),
              data.draw(st.lists(PLANE, min_size=1, max_size=4)))
    nf, nn = len(planes[0]), len(planes[2])
    cone = data.draw(st.lists(st.tuples(st.integers(0, nf - 1),
                                        st.integers(0, nn - 1)),
                              unique=True, max_size=3))
    # special points: where three of the planes meet
    special = {}
    every = [v for vecs in planes for v in vecs]
    for three in data.draw(st.lists(st.lists(st.sampled_from(every),
                                             min_size=3, max_size=3),
                                    max_size=3)):
        ker = modp.nullspace([list(v) for v in three], SMALL)
        if len(ker) == 1:
            pt = normalize_point(ker[0], SMALL)
            special[pt] = PointP3(pt)
    try:
        arr = fatpoints._Arrangement(planes, cone, SMALL)
    except GenericityError:
        assume(False)
    _assert_matches_sweep(arr, cone, special, arr.crossings(special))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_plucker_keys_match_the_rref_rows(data):
    f_vecs = data.draw(st.lists(PLANE, min_size=1, max_size=3))
    g_vecs = data.draw(st.lists(PLANE, min_size=1, max_size=3))
    # planes spanned by the first pair: each cuts its line with the other
    # plane of the pair, or is proportional to it
    u, v = f_vecs[0], g_vecs[0]
    for side in data.draw(st.lists(st.sampled_from((f_vecs, g_vecs)),
                                   max_size=2)):
        a, b = data.draw(st.tuples(*[st.integers(0, SMALL - 1)] * 2))
        mix = tuple((a * x + b * y) % SMALL for x, y in zip(u, v))
        if any(mix):
            side.append(mix)
    rows = {}
    for (i, f), (g, w) in itertools.product(enumerate(f_vecs),
                                            enumerate(g_vecs)):
        try:
            rows[i, g] = line_rows(f, w, SMALL)
        except GenericityError:
            with pytest.raises(GenericityError):
                fatpoints._ci_lines([f], [w], SMALL)
    every = len(f_vecs) * len(g_vecs)
    if len(rows) < every or len(set(rows.values())) < len(rows):
        with pytest.raises(GenericityError):
            fatpoints._ci_lines(f_vecs, g_vecs, SMALL)
    else:
        assert list(fatpoints._ci_lines(f_vecs, g_vecs, SMALL)) == list(rows)
    # pair by pair, equal keys are equal lines, and a key gives the rows
    keys = {(i, g): fatpoints._ci_lines([f_vecs[i]], [g_vecs[g]], SMALL)[0, 0]
            for i, g in rows}
    for x, y in itertools.combinations(rows, 2):
        assert (keys[x] == keys[y]) == (rows[x] == rows[y])
    for ij, key in keys.items():
        assert rows[ij] == tuple(tuple(c % SMALL for c in r)
                                 for r in fatpoints._line_rows(key))
