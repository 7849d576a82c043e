"""Fat point schemes in P^3 and the exact two-link reduction pipeline.

Zero-dimensional schemes are unions of fat points; the link machinery
reduces a chosen fat point two multiplicities at a time via a pair of
Gorenstein links built from unions of lines.  Small objects (cone curves,
local pieces) are handled by Groebner bases.  The large line arrangements
of the links are tracked exactly in a plane-incidence table
(`_Arrangement`).  A plane is its canonical coefficient 4-vector from the
moment it is drawn, and a polynomial is built only where an ideal is made.
A line is a pair of planes of the products, keyed by its Plucker vector;
the lines through a point are the pairs of planes through it, and every
crossing is found by one 3x4 solve of a line against a plane, without
testing the line pairs one by one.  Every genericity assumption is verified
exactly and every claimed local ideal computed by an actual (small)
Groebner calculation.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from . import modp
from .ideals import GenericityError, Ideal, normalize_point
from .links import LinkChainReport, LinkStep, gorenstein_sum
from .rings import AlgebraError, PolyRing


class ResourceLimitError(AlgebraError):
    """A construction exceeded the configured size budget."""


DEFAULT_PRIME = 32003
MAX_CROSSING_PAIRS = 4_000_000
# rounds of redrawing fresh planes at accidental concurrences in one link
MAX_REDRAW_ROUNDS = 10
# fresh draws of a grid's forms, and fresh seeds of a double step
GRID_TRIES = 6
DOUBLE_STEP_TRIES = 4
# the three roles of a plane through a point: a factor of F, of Q, or of G
# outside Q
ROLES = ("L", "M", "N")


def default_ring(prime=DEFAULT_PRIME):
    return PolyRing(("x0", "x1", "x2", "x3"), prime)


# ---------------------------------------------------------------------------
# points and schemes

@dataclass(frozen=True)
class PointP3:
    """Projective point, stored with the first nonzero coordinate = 1."""

    coords: tuple

    @classmethod
    def make(cls, coords, prime=DEFAULT_PRIME):
        if len(coords) != 4:
            raise AlgebraError("a point needs 4 coordinates")
        return cls(normalize_point(list(coords), prime))

    def __str__(self):
        return "[%s]" % ":".join(str(c) for c in self.coords)


@dataclass(frozen=True)
class FatPointScheme:
    """Union of fat points: pairwise distinct points with multiplicities."""

    points: tuple  # of (PointP3, mult)

    def __post_init__(self):
        seen = set()
        for pt, mult in self.points:
            if mult < 1:
                raise AlgebraError("multiplicities must be positive")
            if pt.coords in seen:
                raise AlgebraError("duplicate point %s" % pt)
            seen.add(pt.coords)

    def degree(self):
        return sum(math.comb(m + 2, 3) for _, m in self.points)

    def is_reduced(self):
        return all(m == 1 for _, m in self.points)

    def to_json(self):
        return {"points": [{"coords": list(pt.coords), "mult": m}
                           for pt, m in self.points]}

    @classmethod
    def from_json(cls, data, prime=DEFAULT_PRIME):
        entries = data.get("points")
        if not isinstance(entries, list):
            raise AlgebraError("a point scheme needs a 'points' list")
        pts = []
        for e in entries:
            coords = e.get("coords") if isinstance(e, dict) else None
            if not isinstance(coords, list) or not all(
                    isinstance(c, int) for c in coords):
                raise AlgebraError("a point needs 'coords', a list of "
                                   "integers: %s" % (e,))
            try:
                mult = int(e.get("mult", 1))
            except (TypeError, ValueError):
                raise AlgebraError("bad multiplicity: %s" % (e,))
            pts.append((PointP3.make(coords, prime), mult))
        return cls(tuple(pts))


@dataclass
class GridCurveSelection:
    """Cone curves C and D inside the line grid cut by two form products."""

    a_forms: list           # plane vectors
    b_forms: list
    selected: list          # (i, j) index pairs defining C
    ideal_c: Ideal = None
    ideal_d: Ideal = None


# ---------------------------------------------------------------------------
# basic constructions

def point_ideal(ring, point):
    """Ideal of three independent linear forms vanishing at the point."""
    vecs = modp.nullspace([list(point.coords)], ring.prime)
    return Ideal(ring, [ring.linear_form(v) for v in vecs])


def fat_point_ideal(ring, point, k):
    """The saturated power ideal of a point."""
    if k < 1:
        raise AlgebraError("multiplicity must be at least 1")
    forms = point_ideal(ring, point).generators
    gens = []
    for combo in itertools.combinations_with_replacement(forms, k):
        g = ring.one()
        for f in combo:
            g = g * f
        gens.append(g)
    return Ideal(ring, gens)


def _on(v, point, p):
    """True when the plane with coefficient vector v passes through the
    point (a coordinate 4-tuple)."""
    return (v[0] * point[0] + v[1] * point[1] + v[2] * point[2]
            + v[3] * point[3]) % p == 0


def general_forms_through(ring, point, count, seed, avoid=()):
    """Seeded random planes through the point, as canonical vectors.

    Each is the coefficient 4-vector of a linear form vanishing at the
    point, scaled so that its first nonzero entry is 1.  Pairwise distinct,
    off every point in `avoid`; raises GenericityError when the retry
    budget runs out.
    """
    if count < 1:
        raise AlgebraError("need at least one form")
    rng = random.Random("forms:%s:%d" % (point, seed))
    p = ring.prime
    out = []
    for _ in range(count):
        for _attempt in range(40):
            v = _random_plane_at(point.coords, rng, p)
            if v in out or any(_on(v, q.coords, p) for q in avoid):
                continue
            out.append(v)
            break
        else:
            raise GenericityError(
                "could not draw %d independent forms at %s (seed %d)"
                % (count, point, seed))
    return out


def _random_plane_at(pt, rng, p):
    """Canonical vector of a random plane through the point pt."""
    j = next(i for i, c in enumerate(pt) if c % p)
    while True:
        coeffs = [rng.randrange(p) for _ in range(4)]
        s = sum(c * x for i, (c, x) in enumerate(zip(coeffs, pt)) if i != j) % p
        coeffs[j] = (-s * pow(pt[j], p - 2, p)) % p
        if any(coeffs):
            return normalize_point(coeffs, p)


# ---------------------------------------------------------------------------
# h-vector formulas (closed-form oracles)

def fatpoint_hvector_formula(n, a):
    """h-vector of the a-th power of a point ideal in P^n, as a tuple."""
    if n < 1 or a < 1:
        raise AlgebraError("need n >= 1 and a >= 1")
    return tuple(math.comb(n - 1 + i, i) for i in range(a))


def gorenstein_X_hvector_formula(n, a):
    """h-vector of the Gorenstein scheme linking the fat point one step
    down, as a tuple."""
    if n < 1 or a < 1:
        raise AlgebraError("need n >= 1 and a >= 1")
    up = [math.comb(n - 1 + i, i) for i in range(a)]
    return tuple(up + up[-2::-1])


# ---------------------------------------------------------------------------
# grid curves

def grid_curves(ring, point, na, nb, seed=0, avoid=()):
    """Cone curves C, D inside the complete intersection of two products.

    Builds products of `na` and `nb` general planes through the point,
    selects the triangular index pattern {(i, j) : i + j <= m - 1} with
    m = min(na, nb) as C, and verifies h_vector(I_C) = h_vector(I_D) =
    (1, 2, ..., m) and I_C, I_D inside the m-th power of the point ideal,
    retrying with fresh forms on failure.
    """
    if na < 1 or nb < 1:
        raise AlgebraError("need positive form counts")
    m = min(na, nb)
    target = tuple(range(1, m + 1))
    power = fat_point_ideal(ring, point, m)
    for attempt in range(GRID_TRIES):
        forms = general_forms_through(ring, point, na + nb,
                                      seed + 7919 * attempt, avoid)
        a_forms, b_forms = forms[:na], forms[na:]
        try:
            lines = _ci_lines(a_forms, b_forms, ring.prime)
        except GenericityError:
            continue
        selected = [(i, j) for i, j in lines if i + j <= m - 1]
        ideal_c = _lines_ideal(ring, [lines[ij] for ij in selected])
        ideal_d = _lines_ideal(ring, [key for (i, j), key in lines.items()
                                      if i + j > m - 1])
        if ideal_c.h_vector() != target or ideal_d.h_vector() != target:
            continue
        if not (power.contains_ideal(ideal_c)
                and power.contains_ideal(ideal_d)):
            continue
        return GridCurveSelection(a_forms, b_forms, selected, ideal_c,
                                  ideal_d)
    raise GenericityError(
        "no grid selection passed the h-vector check (this should not "
        "happen; the triangular pattern is always admissible)")


def _lines_ideal(ring, keys):
    """Ideal of a union of lines, each given by its Plucker vector."""
    out = None
    for key in keys:
        li = Ideal(ring, [ring.linear_form(r) for r in _line_rows(key)])
        out = li if out is None else out.intersect(li)
    return out


# ---------------------------------------------------------------------------
# single fat point reduction (one Gorenstein link)

def single_fatpoint_link_step(ring, point, a, seed=0):
    """One link from a fat point of multiplicity a down to a - 1.

    Builds the cone curves C, D of the (a, a+1) grid, forms the Gorenstein
    scheme X = C meet D, verifies X inside the a-th power, links, and
    verifies the residual equals the (a-1)-st power exactly.  Returns a
    LinkChainReport with the residual ideal in `result`.
    """
    if a < 2:
        raise AlgebraError("reduction step needs multiplicity >= 2")
    report = LinkChainReport()
    sel = grid_curves(ring, point, a, a + 1, seed=seed)
    pa = fat_point_ideal(ring, point, a)
    report.add(LinkStep(
        kind="grid-curves",
        description="C and D from the (%d, %d) grid at %s" % (a, a + 1, point),
        data={"h_vector": list(sel.ideal_c.h_vector())},
        checks={"h_vectors": True, "containment_in_power": True},
    ))

    gor, cert = gorenstein_sum(sel.ideal_c, sel.ideal_d, seed=seed)
    gor = gor.saturate_irrelevant()
    expected = gorenstein_X_hvector_formula(3, a)
    hv = gor.h_vector()
    checks = {
        "gorenstein_certificate": cert["gorenstein"],
        "h_vector_matches_formula": hv == expected,
        "contained_in_power": pa.contains_ideal(gor),
    }
    report.add(LinkStep(
        kind="gorenstein-sum",
        description="X = C meet D, h-vector (%s)" % ", ".join(map(str, hv)),
        data={"h_vector": list(hv), "degree": gor.degree()},
        checks=checks,
    ))

    residual = gor.quotient(pa)
    lower = (fat_point_ideal(ring, point, a - 1) if a > 2
             else point_ideal(ring, point))
    checks = {
        "residual_is_lower_power": residual == lower,
        "degree_additivity": gor.degree() == pa.degree() + residual.degree(),
    }
    report.add(LinkStep(
        kind="fatpoint-link",
        description="X : (power %d) = power %d at %s" % (a, a - 1, point),
        data={"residual_degree": residual.degree()},
        checks=checks,
    ))
    report.result = residual
    return report


# ---------------------------------------------------------------------------
# tracked line arrangements

def _check_budget(nf, nq, ng, nc):
    """Refuse a line arrangement beyond MAX_CROSSING_PAIRS, before building
    it.

    With nf, nq and ng planes in the products F, Q and G (Q inside G), the
    complete intersection CI(F, G) has nf * ng lines; Y is CI(F, Q) plus nc
    cone lines, W is the rest of CI(F, G), and every (Y, W) pair may
    cross.
    """
    n = nf * ng
    if n > MAX_CROSSING_PAIRS:
        raise ResourceLimitError(
            "line arrangement of %d lines exceeds the budget" % n)
    ny = nf * nq + nc
    if ny * (n - ny) > MAX_CROSSING_PAIRS:
        raise ResourceLimitError(
            "%d x %d line pairs exceed the crossing budget" % (ny, n - ny))


def _ci_lines(f_vecs, g_vecs, p):
    """Lines of the complete intersection of two products of planes.

    Returns {(F index, G index): Plucker vector}, row-major.  The Plucker
    vector of planes u, v is their six 2x2 minors (01, 02, 03, 12, 13, 23),
    scaled so that the first nonzero entry is 1.  It is the wedge u ^ v, so
    it is zero exactly when u and v are proportional; otherwise it fixes
    the span of u and v, the linear forms vanishing on the line they cut,
    so two pairs get the same vector exactly when they cut the same line.

    Raises GenericityError unless every pair cuts a line and the lines are
    pairwise distinct, which certifies that CI(F, G) is the reduced union
    of its lines: no F plane is a G plane, so F and G share no factor and
    (F, G) is a complete intersection of degree |F| * |G|, unmixed, inside
    the ideal of the union of the |F| * |G| distinct lines, which has the
    same degree; so the two are equal.
    """
    out, seen = {}, set()
    for i, u in enumerate(f_vecs):
        for g, v in enumerate(g_vecs):
            m = (u[0] * v[1] - u[1] * v[0], u[0] * v[2] - u[2] * v[0],
                 u[0] * v[3] - u[3] * v[0], u[1] * v[2] - u[2] * v[1],
                 u[1] * v[3] - u[3] * v[1], u[2] * v[3] - u[3] * v[2])
            if not any(c % p for c in m):
                raise GenericityError("proportional forms do not cut a line")
            key = normalize_point(m, p)
            if key in seen:
                raise GenericityError("coincident lines in the intersection")
            seen.add(key)
            out[i, g] = key
    return out


_MINORS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _line_rows(key):
    """The reduced row echelon basis of the planes through a line, read off
    its Plucker vector (see `_ci_lines`).

    The pivot columns (a, b) of the echelon rows r, s are the first pair
    with a nonzero minor, and their (a, b) minor is 1, as in the scaled
    vector.  With w_ij the minor of columns i, j (w_ji = -w_ij), row r is
    (w_cb)_c and row s is (w_ac)_c; so the ideal of a line gets the same
    generators, and the same Groebner work, however its planes were drawn.
    """
    w = {}
    for (i, j), c in zip(_MINORS, key):
        w[i, j], w[j, i] = c, -c
    a, b = next(ij for ij, c in zip(_MINORS, key) if c)
    return (tuple(w.get((c, b), 0) for c in range(4)),
            tuple(w.get((a, c), 0) for c in range(4)))


def _meet(m, w, p):
    """The point where a line meets a plane w, by one 3x4 solve.

    m holds the 2x2 minors (01, 02, 03, 12, 13, 23) of the line's two
    planes, so the coordinates are the signed 3x3 minors of the three
    planes.  They all vanish when the three planes have rank 2.
    """
    m01, m02, m03, m12, m13, m23 = m
    w0, w1, w2, w3 = w
    x = ((w1 * m23 - w2 * m13 + w3 * m12) % p,
         (w2 * m03 - w0 * m23 - w3 * m02) % p,
         (w0 * m13 - w1 * m03 + w3 * m01) % p,
         (w1 * m02 - w0 * m12 - w2 * m01) % p)
    if not any(x):
        raise GenericityError("coincident lines in the intersection")
    return normalize_point(x, p)


class _Arrangement:
    """Plane-incidence table of one link: Y and W as lines of CI(F, G).

    `planes` are the F, Q and N' vectors of `_link_planes`, and G is Q then
    N'.  A line is the pair (F index, G index) of its planes, and `lines`
    maps it to its Plucker vector (`_ci_lines`).  Y is the (F, Q) lines
    row-major, then the cone lines (a_i, b_j) for the grid's `selected`
    (i, j), in that order; W is the rest of CI(F, G), row-major.  The lines
    through a point are the pairs of planes through it.
    """

    def __init__(self, planes, selected, p):
        f_vecs, q_vecs, n_vecs = planes
        self.nq = nq = len(q_vecs)
        self.planes = planes
        self.p = p
        self.lines = _ci_lines(f_vecs, q_vecs + n_vecs, p)
        self.y = ([(i, k) for i in range(len(f_vecs)) for k in range(nq)]
                  + [(i, nq + j) for i, j in selected])
        self.ypos = {ln: n for n, ln in enumerate(self.y)}
        self.w = [ln for ln in self.lines if ln not in self.ypos]
        self.wpos = {ln: n for n, ln in enumerate(self.w)}

    def planes_through(self, point):
        """(F, Q, N') index sets of the planes through the point."""
        return tuple({n for n, v in enumerate(vecs) if _on(v, point, self.p)}
                     for vecs in self.planes)

    def lines_through(self, on):
        """Ascending Y and W positions of the lines through a point that
        lies on the (F, Q, N') planes `on` and on no other."""
        fs, qs, ns = on
        nq = self.nq
        ys, ws = [], []
        for i in fs:
            for g in itertools.chain(qs, (nq + l for l in ns)):
                n = self.ypos.get((i, g))
                if n is None:
                    ws.append(self.wpos[i, g])
                else:
                    ys.append(n)
        return sorted(ys), sorted(ws)

    def crossings(self, special):
        """Classify every crossing of a Y-line with a W-line.

        Returns (pair counts at the special points, {other crossing point:
        pair count}, {point: its (F, Q, N') planes} for the special points
        and the points with several pairs).

        Two distinct lines meet exactly when their four planes have a
        common point.  So a Y line y meets a W line (F_j, N'_l) at the point
        y meet N'_l, unless N'_l is a plane of y; then y is a cone line,
        F_j is not its F plane, and the point is y meet F_j.  Hence every
        crossing is among the points y meet pi, for every Y line y and N'
        plane pi and, for a cone line, every F plane pi: one 3x4 solve each.
        Each such point x lies on an N' plane nu of the triple that gave it
        (pi, or b_j for a cone line), and it collects the planes of every
        triple that gives it, which are all the planes through x: another
        N' plane through x gives y meet N', a Q plane Q_k gives
        (F_i, Q_k) meet nu for the F plane F_i of y, and another F plane
        F_a gives (F_a, Q_k) meet nu when y = (F_i, Q_k), or y meet F_a when
        y is a cone line.  The lines through x are the pairs of planes
        through it, and two distinct lines through x meet only there, so x
        has |Y_x| * |W_x| crossing pairs.  A triple of rank 2 would mean two
        coincident lines and raises GenericityError, so the skewness of
        every other pair is verified, not assumed.  At a special point the
        planes are found directly, one dot product each.

        Three planes through a point give at most one crossing pair there,
        so a point collecting several pairs away from the special locus
        lies on four or more planes and its local Gorenstein piece is not a
        reduced point.  General forms avoid such concurrences, but over
        GF(p) some turn up by chance once the arrangement is large; the
        caller redraws a plane through each one.  The other crossing points
        come in the order in which a sweep of Y against W, both in order,
        meets them first: by the least Y position, then the least W
        position, of the lines through them.
        """
        p, nq = self.p, self.nq
        n_cuts = [(2, l) for l in range(len(self.planes[2]))]
        cone_cuts = n_cuts + [(0, a) for a in range(len(self.planes[0]))]
        # the (role, index) planes of every triple through each point; a
        # flat tuple, not sets, to keep the table small
        cut_by = {}
        for i, g in self.y:
            own = ((0, i), (1, g) if g < nq else (2, g - nq))
            m = self.lines[i, g]
            for cut in (cone_cuts if own[1][0] == 2 else n_cuts):
                if cut not in own:
                    x = _meet(m, self.planes[cut[0]][cut[1]], p)
                    cut_by[x] = cut_by.get(x, ()) + own + (cut,)
        counts, on = {}, {}
        for key in special:
            on[key] = self.planes_through(key)
            ys, ws = self.lines_through(on[key])
            counts[key] = len(ys) * len(ws)
        found = []
        for x, cuts in cut_by.items():
            if x in special:
                continue
            at = (set(), set(), set())
            for role, n in cuts:
                at[role].add(n)
            ys, ws = self.lines_through(at)
            if ys and ws:
                pairs = len(ys) * len(ws)
                found.append((ys[0], ws[0], x, pairs))
                if pairs > 1:
                    on[x] = at
        found.sort()
        return counts, {x: n for _, _, x, n in found}, on


def _product(ring, vecs):
    out = ring.one()
    for v in vecs:
        out = out * ring.linear_form(v)
    return out


# ---------------------------------------------------------------------------
# one tracked Gorenstein link (shared by both halves of the double step)

def _link_planes(sel, fat_forms, aux):
    """Coefficient vectors of the plane products F, Q and N' of one link.

    F holds the grid's a-forms and the L planes, Q the M planes, and N' the
    grid's b-forms and the N planes; G is Q then N'.  Also returns the
    fresh planes: {(role, index): (position of R_k in aux, role, R_k)}.
    """
    planes = (list(sel.a_forms), [], list(sel.b_forms))
    for triple in fat_forms.values():
        for role, vecs in enumerate(triple):
            planes[role].extend(vecs)
    fresh = {}
    for pos, (q, triple) in enumerate(aux.items()):
        for role, vecs in enumerate(triple):
            for v in vecs:
                fresh[role, len(planes[role])] = (pos, role, q)
                planes[role].append(v)
    return planes, fresh


def _fresh_plane_at(fresh, on, point):
    """Key in `fresh` of the first fresh plane, in aux order, among the
    (F, Q, N') planes `on` through the point."""
    keys = [(role, n) for role, ns in enumerate(on) for n in ns
            if (role, n) in fresh]
    if not keys:
        raise GenericityError(
            "several crossing pairs meet at %s on no fresh plane"
            % PointP3(point))
    return min(keys, key=fresh.get)


def _tracked_link(ring, focus, sel, fat_forms, aux, z_local, report,
                  stage, seed=0):
    """One link of the two-link procedure, on tracked line sets.

    focus: the PointP3 being reduced; sel: its GridCurveSelection;
    fat_forms: {point: (L planes, M planes, N planes)} for the other fat
    points, as plane vectors; aux: the same for the auxiliary reduced points R_k, listing
    only their fresh planes (see _auxiliary_planes); z_local: {point key:
    Ideal} local pieces of the scheme being linked (absent key = no
    component).  Returns the local pieces of the residual, the points of
    its reduced residue and its degree.

    Off the tracked points, every point of Gor must be a single crossing,
    so a reduced point.  A point where several crossing pairs meet is a
    concurrence of planes that general forms avoid; one fresh plane through
    it is redrawn (from `seed`), for at most MAX_REDRAW_ROUNDS rounds, and
    the incidence table is built again.  A concurrence on no fresh plane,
    or one left after the last round, raises GenericityError.  The rounds
    and the seed of every redrawn plane are recorded in the
    gorenstein-link step.

    Local Gorenstein pieces are computed from the lines actually incident
    to each tracked point, never from the generic expectations; the latter
    appear only as audit checks.  At each R_k the local piece must be the
    reduced point itself, which is the statement that R_k drops from the
    residual; otherwise GenericityError.
    """
    p = ring.prime
    label = "'" if stage == 2 else ""
    special = {focus.coords: focus}
    for pt in itertools.chain(fat_forms, aux):
        special[pt.coords] = pt
    aux = {q: tuple(list(forms) for forms in triple)
           for q, triple in aux.items()}
    redrawn = []
    for rounds in range(MAX_REDRAW_ROUNDS + 1):
        planes, fresh = _link_planes(sel, fat_forms, aux)
        f_vecs, q_vecs, n_vecs = planes
        nq = len(q_vecs)
        _check_budget(len(f_vecs), nq, nq + len(n_vecs), len(sel.selected))
        # plane vectors are canonical, so equal planes have equal vectors
        set_f, set_g = set(f_vecs), set(q_vecs + n_vecs)
        checks = {
            "factor_planes_distinct": (len(set_f) == len(f_vecs)
                                       and len(set_g) == nq + len(n_vecs)
                                       and not (set_f & set_g)),
        }
        if not checks["factor_planes_distinct"]:
            raise GenericityError("coincident planes among the products")

        # Y = cone curve C plus the complete intersection of F and Q
        arr = _Arrangement(planes, sel.selected, p)
        checks["Y_inside_CI"] = all((i, nq + j) in arr.lines
                                    for i, j in sel.selected)
        checks["degree_partition"] = (
            len(arr.y) + len(arr.w) == len(arr.lines))

        # crossings classify the support of Gor = Y meet W
        counts, elsewhere, on = arr.crossings(special)
        concurrent = [pt for pt, n in elsewhere.items() if n > 1]
        if not concurrent:
            break
        if rounds == MAX_REDRAW_ROUNDS:
            raise GenericityError(
                "%d concurrent crossing points left after %d redraw rounds"
                % (len(concurrent), rounds))
        # a new plane through a crossing point would make it concurrent
        crossings = list(special.values()) + [PointP3(pt) for pt in elsewhere]
        for pt in concurrent:
            # popped: the redrawn plane passes through no crossing point
            _, role, q = fresh.pop(_fresh_plane_at(fresh, on[pt], pt))
            s = seed + 3 * (rounds + 1) + role
            avoid = [r for r in crossings if r != q]
            aux[q][role][:] = general_forms_through(ring, q, 1, s, avoid)
            redrawn.append({"point": str(q), "role": ROLES[role], "seed": s})
    report.add(LinkStep(
        kind="basic-double-link",
        description=("Y%s = C%s plus CI(F%s, Q%s): %d lines; "
                     "W%s = complement in CI(F%s, G%s): %d lines"
                     % (label, label, label, label, len(arr.y),
                        label, label, label, len(arr.w))),
        data={"deg_Y": len(arr.y), "deg_W": len(arr.w),
              "deg_CI": len(arr.lines)},
        checks=dict(checks),
    ))
    simple = list(elsewhere)

    # local Gorenstein pieces at the tracked points, from the incident lines
    gor_local = {}
    gcheck = {}
    for key in special:
        if counts[key] == 0:
            continue
        ys, ws = arr.lines_through(on[key])
        piece = (_lines_ideal(ring, [arr.lines[arr.y[n]] for n in ys])
                 + _lines_ideal(ring, [arr.lines[arr.w[n]] for n in ws])
                 ).saturate_irrelevant()
        gor_local[key] = piece
    for q in aux:
        if gor_local.get(q.coords) != point_ideal(ring, q):
            raise GenericityError(
                "local Gor%s at %s is not the reduced point" % (label, q))
    # audits against the generic local descriptions
    focus_piece = gor_local.get(focus.coords)
    m = min(len(sel.a_forms), len(sel.b_forms))
    formula = gorenstein_X_hvector_formula(3, m)
    gcheck["focus_piece_is_C_meet_D"] = (
        focus_piece == (sel.ideal_c + sel.ideal_d).saturate_irrelevant())
    gcheck["focus_h_vector"] = (
        focus_piece is not None
        and focus_piece.h_vector() == formula)
    for pt, (lf, mf, nf) in fat_forms.items():
        tri = Ideal(ring, [_product(ring, lf), _product(ring, mf),
                           _product(ring, nf)])
        b = len(lf)
        gcheck["ci_at_%s" % pt] = (
            gor_local.get(pt.coords) == tri and tri.degree() == b ** 3)
    tau = len(simple)
    deg_gor = sum(i.degree() for i in gor_local.values()) + tau

    # Gor must contain the scheme being linked (componentwise)
    contain = all(k in gor_local and z_local[k].contains_ideal(gor_local[k])
                  for k in z_local)
    gcheck["scheme_inside_Gor"] = contain
    report.add(LinkStep(
        kind="gorenstein-link",
        description=("Gor%s = Y%s + W%s: degree %d with %d simple auxiliary "
                     "crossing points after %d redraw rounds"
                     % (label, label, label, deg_gor, tau, rounds)),
        data={"degree": deg_gor, "tau": tau,
              "concurrent": len(concurrent),
              "redraw_rounds": rounds, "redrawn": redrawn,
              "local_degrees": {str(special[k]): gor_local[k].degree()
                                for k in gor_local}},
        checks=gcheck,
    ))

    # residual: componentwise colon, with degree additivity per component
    res_local = {}
    rcheck = {}
    deg_res = tau
    for k, gor_piece in gor_local.items():
        z_piece = z_local.get(k)
        if z_piece is None:
            res = gor_piece
        else:
            res = gor_piece.quotient(z_piece)
        zdeg = 0 if z_piece is None else z_piece.degree()
        rdeg = 0 if res.is_unit() else res.degree()
        rcheck["additivity_at_%s" % special[k]] = (
            gor_piece.degree() == zdeg + rdeg)
        if not res.is_unit():
            res_local[k] = res
            deg_res += rdeg
    for pt in simple:
        res_local[pt] = "reduced"
    report.add(LinkStep(
        kind="residual",
        description=("Z%s = Gor%s : Z%s: degree %d"
                     % ("'" * stage, label, "'" * (stage - 1), deg_res)),
        data={"degree": deg_res},
        checks=rcheck,
    ))
    return res_local, simple, deg_res


def _auxiliary_planes(ring, rk_objs, fat_forms, tracked, seed):
    """Fresh planes at each first-link crossing R_k: {R_k: (L, M, N)}.

    Every R_k already lies on one or more planes of the other fat points,
    and the second link reuses those planes in the same roles (L, M, N) to
    restore the fat points.  R_k gets a fresh plane, avoiding every other
    tracked point, only for a role that no reused plane through it fills,
    so exactly one plane of each role passes through R_k and the local
    Gor' there is the reduced point.  Two reused planes of one role through
    R_k raise GenericityError.
    """
    p = ring.prime
    reused = [[v for triple in fat_forms.values() for v in triple[role]]
              for role in range(3)]
    out = {}
    for q in rk_objs:
        through = [sum(1 for v in vecs if _on(v, q.coords, p))
                   for vecs in reused]
        if max(through) > 1:
            raise GenericityError(
                "two reused %s planes meet at %s"
                % (ROLES[through.index(max(through))], q))
        triple = ([], [], [])
        open_roles = [role for role in range(3) if not through[role]]
        if open_roles:
            vecs = general_forms_through(ring, q, len(open_roles), seed,
                                         [r for r in tracked if r != q])
            for role, v in zip(open_roles, vecs):
                triple[role].append(v)
        out[q] = triple
    return out


def _scheme_data(scheme, focus_index):
    focus, a = scheme.points[focus_index]
    others = [(pt, b) for i, (pt, b) in enumerate(scheme.points)
              if i != focus_index]
    return focus, a, others


def theorem32_double_step(scheme, focus_index=0, seed=0, ring=None):
    """Two Gorenstein links reducing the focus multiplicity by two.

    Reduces the focus fat point from multiplicity a to a - 2 (gone when
    a = 2), restores every other fat point exactly, drops all auxiliary
    points created by the first link, and leaves a large reduced residue.
    Returns a LinkChainReport whose `result` is the final FatPointScheme.

    A genericity failure of either link (a concurrence of planes in the
    first link, a failed certificate, redraw rounds run out) starts over
    with every form drawn from the next seed, at most DOUBLE_STEP_TRIES
    times; the verdict step records the seed that succeeded.  A line
    arrangement beyond MAX_CROSSING_PAIRS raises ResourceLimitError before
    it is built; for the first link, whose size the scheme fixes, before
    any form is drawn.
    """
    if ring is None:
        ring = default_ring()
    last = None
    for attempt in range(DOUBLE_STEP_TRIES):
        try:
            return _double_step_once(scheme, focus_index,
                                     seed + 811 * attempt, ring)
        except GenericityError as exc:
            last = exc
    raise GenericityError("double step failed after %d seeds: %s"
                          % (DOUBLE_STEP_TRIES, last))


def _double_step_once(scheme, focus_index, seed, ring):
    focus, a, others = _scheme_data(scheme, focus_index)
    if a < 2:
        raise AlgebraError("focus point must have multiplicity >= 2")
    report = LinkChainReport()
    all_points = [pt for pt, _ in scheme.points]
    # the first link's plane counts are known before any form is drawn
    nb = sum(b for _, b in others)
    _check_budget(a + nb, nb, 2 * nb + a + 1, a * (a + 1) // 2)

    # ---- first link -------------------------------------------------------
    sel1 = grid_curves(ring, focus, a, a + 1, seed=seed,
                       avoid=[pt for pt, _ in others])
    report.add(LinkStep(
        kind="grid-curves",
        description="C, D from the (%d, %d) grid at %s" % (a, a + 1, focus),
        data={"h_vector": list(sel1.ideal_c.h_vector())},
        checks={"h_vectors": True},
    ))
    fat_forms = {}
    for pt, b in others:
        avoid = [q for q in all_points if q != pt]
        fat_forms[pt] = (
            general_forms_through(ring, pt, b, seed + 11, avoid),
            general_forms_through(ring, pt, b, seed + 23, avoid),
            general_forms_through(ring, pt, b, seed + 37, avoid),
        )
    z_local = {focus.coords: fat_point_ideal(ring, focus, a)}
    for pt, b in others:
        z_local[pt.coords] = fat_point_ideal(ring, pt, b)
    res1, rk_points, _ = _tracked_link(
        ring, focus, sel1, fat_forms, {}, z_local, report, 1)

    # the focus component of Z' must be exactly the (a-1)-st power
    zp_focus = res1.get(focus.coords)
    ok_focus = (zp_focus is not None
                and zp_focus == fat_point_ideal(ring, focus, a - 1))
    report.add(LinkStep(
        kind="first-residual-check",
        description="component of Z' at %s equals power %d" % (focus, a - 1),
        data={},
        checks={"focus_component": ok_focus},
    ))

    # ---- second link ------------------------------------------------------
    rk_objs = [PointP3(pt) for pt in rk_points]
    sel2 = grid_curves(ring, focus, a, a - 1, seed=seed + 101,
                       avoid=[pt for pt, _ in others] + rk_objs)
    aux = _auxiliary_planes(ring, rk_objs, fat_forms, all_points + rk_objs,
                            seed + 53)
    z2_local = dict()
    for k, piece in res1.items():
        if piece == "reduced":
            z2_local[k] = point_ideal(ring, PointP3(k))
        else:
            z2_local[k] = piece
    res2, new_points, deg_z2 = _tracked_link(
        ring, focus, sel2, fat_forms, aux, z2_local, report, 2, seed + 53)

    # ---- final verification (the expected description of Z'') -------------
    checks = {}
    zpp_focus = res2.get(focus.coords)
    if a == 2:
        checks["focus_component_gone"] = zpp_focus is None
    else:
        checks["focus_is_power_a_minus_2"] = (
            zpp_focus == fat_point_ideal(ring, focus, a - 2))
    restored = {pt: res2.get(pt.coords) == fat_point_ideal(ring, pt, b)
                for pt, b in others}
    for pt, ok in restored.items():
        checks["original_fat_point_at_%s" % pt] = ok
    # the R_k that keep a component; _tracked_link certifies that every R_k
    # drops, so none does, and no leftover is counted as reduced
    leftovers = [q for q in rk_objs if q.coords in res2]
    checks["no_components_at_Rk"] = not leftovers
    checks["residue_reduced"] = not leftovers
    report.add(LinkStep(
        kind="double-step-verdict",
        description=("Z'' = focus power %d, original fat points, %d "
                     "leftover auxiliary points (0 reduced), and %d new "
                     "reduced points"
                     % (a - 2, len(leftovers), len(new_points))),
        data={"degree": deg_z2, "new_reduced_points": len(new_points),
              "auxiliary_leftovers": len(leftovers), "seed": seed},
        checks=checks,
    ))

    # Z'' fails to assemble only when another fat point is not restored
    assembled = all(restored.values())
    points = [(focus, a - 2)] if a > 2 else []
    points += others
    points += [(PointP3(k), 1) for k in new_points]
    report.result = FatPointScheme(tuple(points)) if assembled else None
    return report


def reduce_to_reduced(scheme, seed=0, ring=None):
    """Iterate double steps until every point is reduced.

    Each fat point is reduced in place by pairs of links; every auxiliary
    point produced along the way joins the scheme as a reduced point.  The
    total link count is even.  Degrees grow very quickly with the number of
    points, so MAX_CROSSING_PAIRS bounds each line arrangement; exceeding
    it raises ResourceLimitError.
    """
    if ring is None:
        ring = default_ring()
    report = LinkChainReport()
    current = scheme
    links = 0
    rounds = 0
    while True:
        focus_index = next((i for i, (_, m) in enumerate(current.points)
                            if m >= 2), None)
        if focus_index is None:
            break
        sub = theorem32_double_step(current, focus_index,
                                    seed=seed + 1009 * rounds, ring=ring)
        report.steps.extend(sub.steps)
        if sub.result is None:
            raise AlgebraError(
                "double step did not restore every other fat point; "
                "the reduction loop cannot continue")
        current = sub.result
        links += 2
        rounds += 1
    report.add(LinkStep(
        kind="reduction-summary",
        description="%d links; final degree %d" % (links, current.degree()),
        data={"links": links, "degree": current.degree(),
              "points": len(current.points)},
        checks={"final_reduced": current.is_reduced(),
                "even_link_count": links % 2 == 0},
    ))
    report.result = current
    return report
