"""Property tests for subcurves: one encoding, whatever way it is built,
and the closed-form diameter against an exhaustive lattice search."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lattice_diameter
from tropbn import (Divisor, Point, Subcurve, TropicalCurve, loopless_model,
                    neighborhood)
from tropbn.io import subcurve_from_json, subcurve_to_json
from tropbn.models import subcurve_diameter
from tropbn.transport import (_pull_to_subcurve, _subcurve_rds,
                              subcurves_disjoint)

LENGTHS = st.sampled_from([F(1), F(2), F(1, 2), F(3, 2), F(2, 3)])
FRACTIONS = st.sampled_from([F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2),
                             F(2, 3), F(1)])
# how far a growth step runs along its edge: often to the far end
REACH = st.sampled_from([F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(1), F(1), F(1)])


@st.composite
def curves(draw, lengths=LENGTHS):
    """Connected curves of 1-4 vertices, often with loops and parallel edges."""
    n = draw(st.integers(1, 4))
    ends = [(f"v{draw(st.integers(0, i - 1))}", f"v{i}") for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=0 if n > 1 else 1, max_size=3))
    ends += [(f"v{u}", f"v{w}") for u, w in extra]
    edges = [(f"e{i}", uv, draw(lengths)) for i, uv in enumerate(ends)]
    return TropicalCurve({f"v{i}": draw(st.integers(0, 1)) for i in range(n)},
                         edges)


@st.composite
def subcurves(draw, curve):
    """A point grown along its exits, sometimes thickened to a neighbourhood,
    plus overlapping intervals inside."""
    if draw(st.booleans()) or not curve.edges():
        sub = Subcurve(curve, [draw(st.sampled_from(curve.vertices()))])
    else:
        e = draw(st.sampled_from(curve.edges()))
        x = curve.length(e) * draw(FRACTIONS)
        sub = Subcurve(curve, segments={e: [(x, x)]})
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 4, 6]))):
        exits = sub.exits()
        if not exits:
            break
        e, t, d = draw(st.sampled_from(exits))
        far = t + d * curve.length(e) * draw(REACH)
        far = min(max(far, F(0)), curve.length(e))
        sub = sub.grown({e: [(t, far)]})
    if draw(st.integers(0, 3)) == 0:
        sub = neighborhood(curve, sub, draw(FRACTIONS))
    for e, ivs in list(sub.intervals.items()):
        a, b = draw(st.sampled_from(ivs))
        if draw(st.booleans()):
            sub = sub.grown({e: [(a, a + (b - a) * draw(FRACTIONS))]})
    return sub


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_subcurve_properties(data):
    c = data.draw(curves())
    a = data.draw(subcurves(c))
    b = data.draw(subcurves(c))

    if c.edges():
        e = data.draw(st.sampled_from(c.edges()))
        assert (Subcurve(c, whole_edges=[e])
                == Subcurve(c, segments={e: [(0, c.length(e))]}))
    assert subcurve_from_json(subcurve_to_json(a), c) == a

    try:
        segs = {}
        for part in (a, b):
            for e, ivs in part.intervals.items():
                segs.setdefault(e, []).extend(ivs)
        both = Subcurve(c, a.vertices | b.vertices, segments=segs)
    except ValueError:
        # two disjoint closed pieces are not connected
        assert subcurves_disjoint(a, b)
    else:
        assert both.contains_subcurve(a) and both.contains_subcurve(b)

    assert neighborhood(c, a, 0) == a
    assert a.boundary_points() == list(dict.fromkeys(
        c.point(e, t) for e, t, _ in a.exits()))
    for e, t, d in a.exits():
        # the base lies on a, and a short step along the exit leaves it
        stops = {F(0), c.length(e)} | {x for iv in a.covered_intervals(e)
                                         for x in iv}
        step = min(abs(x - t) for x in stops if x != t) / 2
        assert a.contains_point(c.point(e, t))
        assert not a.contains_point(c.point(e, t + d * step))

    extracted, pull = a.as_curve()
    assert extracted.betti() == a.betti()
    assert Subcurve.whole(c).betti() == c.betti()

    # the points concentration aims at are the vertices of the loopless
    # model of the extracted subcurve (compared on the extracted curve,
    # where the pull map puts them)
    model, _, to_extracted = loopless_model(extracted)
    assert {pull(p) for p in _subcurve_rds(a)} == {
        to_extracted(Point(vertex=v)) for v in model.vertices()}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_pull_map_onto_extracted_curve(data):
    c = data.draw(curves())
    lam = data.draw(subcurves(c))
    sub, pull = lam.as_curve()

    # Λ's vertices and each interval's ends and midpoint land on the
    # extracted curve, distinct points on distinct points
    on = {Point(vertex=v) for v in lam.vertices}
    on.update(c.point(e, t) for e, ivs in lam.intervals.items()
              for a, b in ivs for t in (a, (a + b) / 2, b))
    images = {pull(p) for p in on}
    assert len(images) == len(on)
    assert all(sub.point(q) == q for q in images)

    # a partly covered edge's interval [a, b] is the edge e[a..b], offsets
    # shifted by a, with its ends on that edge's end vertices
    for e, ivs in lam.segments.items():
        for a, b in ivs:
            if a == b:
                assert pull(c.point(e, a)).is_vertex
                continue
            piece = f"{e}[{a}..{b}]"
            assert sub.length(piece) == b - a
            for t, end in ((a, 0), ((a + b) / 2, None), (b, 1)):
                q = pull(c.point(e, t))
                if end is None:
                    assert q == Point(edge=piece, offset=t - a)
                else:
                    assert q == Point(vertex=sub.ends(piece)[end])

    assert sum(sub.length(f) for f in sub.edges()) == sum(
        b - a for ivs in lam.intervals.values() for a, b in ivs)

    # every other vertex, and the middle of every gap between intervals,
    # lies off Λ and is refused
    off = [Point(vertex=v) for v in c.vertices() if v not in lam.vertices]
    for e in c.edges():
        stops = [F(0), *(t for iv in lam.covered_intervals(e) for t in iv),
                 c.length(e)]
        off.extend(c.point(e, (s + t) / 2)
                   for s, t in zip(stops[::2], stops[1::2]) if s < t)
    for p in off:
        assert not lam.contains_point(p)
        with pytest.raises(ValueError, match="lies outside the subcurve"):
            pull(p)


# -- diameter ----------------------------------------------------------------

MIXED_LENGTHS = st.sampled_from([F(1), F(2), F(1, 2), F(3, 4), F(5, 3), F(7, 2)])
RADII = st.integers(0, 20).map(lambda k: F(k, 8))


def bridges(c):
    """Edges whose removal disconnects the curve."""
    out = []
    for e in c.edges():
        try:
            TropicalCurve(c.weights(), [(f, c.ends(f), c.length(f))
                                        for f in c.edges() if f != e])
        except ValueError:
            out.append(e)
    return out


def test_pull_checks_each_point_once(monkeypatch):
    """Carrying a divisor of one vertex chip and two interior chips onto
    the extracted Λ makes 5 `TropicalCurve.point` calls: the pull map
    checks each of the 3 parent points once, and the 2 interior images are
    made on the extracted curve."""
    c = TropicalCurve({"u": 0, "v": 0, "w": 0},
                      [("e", ("u", "v"), 2), ("f", ("v", "w"), 1)])
    lam = Subcurve(c, whole_edges=["e"])
    D = Divisor(c, [("u", 1), (c.point("e", F(1, 2)), 1),
                    (c.point("e", F(3, 2)), 1)])
    calls = []
    point = TropicalCurve.point

    def counted(self, *args):
        calls.append(self is c)
        return point(self, *args)

    monkeypatch.setattr(TropicalCurve, "point", counted)
    sc, (moved,) = _pull_to_subcurve(lam, [D])
    assert calls.count(True) == 3 and calls.count(False) == 2
    assert moved.degree() == 3 and len(moved.support()) == 3


@st.composite
def diameter_subcurves(draw, c):
    """The whole curve, a vertex, an interior point, an arc of a loop, an
    interval of a bridge, or a neighbourhood of a point (loop arcs and
    bridge intervals fall back to any edge when the curve has none)."""
    kind = draw(st.sampled_from(["whole", "vertex", "point", "loop arc",
                                 "bridge interval", "neighbourhood"]))
    if kind == "whole":
        return Subcurve.whole(c)
    if kind == "vertex":
        return Subcurve(c, [draw(st.sampled_from(c.vertices()))])
    pool = {"loop arc": [e for e in c.edges() if c.is_loop(e)],
            "bridge interval": bridges(c)}.get(kind) or c.edges()
    e = draw(st.sampled_from(pool))
    # [x, y] is often longer than half the edge yet misses both its ends
    x = c.length(e) * F(draw(st.integers(0, 4)), 8)
    y = c.length(e) * F(draw(st.integers(4, 8)), 8)
    if kind == "point":
        x = c.length(e) * draw(st.sampled_from([F(1, 4), F(1, 3), F(1, 2)]))
        return Subcurve(c, segments={e: [(x, x)]})
    if kind == "neighbourhood":
        return neighborhood(c, Subcurve(c, segments={e: [(x, x)]}),
                            draw(RADII))
    return Subcurve(c, segments={e: [(x, y)]})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_diameter_matches_lattice_search(data):
    c = data.draw(curves(MIXED_LENGTHS))
    sub = data.draw(diameter_subcurves(c))
    assert subcurve_diameter(sub) == lattice_diameter(sub)


def loop(ell):
    return TropicalCurve({"v": 0}, [("l", ("v", "v"), ell)])


def dumbbell(bar):
    return TropicalCurve({"x": 0, "y": 0},
                         [("l1", ("x", "x"), 1), ("l2", ("y", "y"), 1),
                          ("b", ("x", "y"), bar)])


K4 = TropicalCurve({v: 0 for v in "abcd"},
                   [(u + v, (u, v), 1) for u, v in
                    ["ab", "ac", "ad", "bc", "bd", "cd"]])
BANANA = TropicalCurve({"u": 0, "v": 0},
                       [("e", ("u", "v"), 1), ("f", ("u", "v"), 2)])
BRIDGE = TropicalCurve({"u": 0, "v": 0}, [("e", ("u", "v"), 1)])
FIGURE_EIGHT = TropicalCurve({"v": 0}, [("l0", ("v", "v"), F(1, 2)),
                                        ("l1", ("v", "v"), F(1, 2))])


@pytest.mark.parametrize("sub, expected", [
    (Subcurve.whole(loop(F(5, 3))), F(5, 6)),
    # midpoints of opposite edges
    (Subcurve.whole(K4), F(2)),
    (Subcurve.whole(BANANA), F(3, 2)),
    (Subcurve(BRIDGE, segments={"e": [(F(1, 4), F(3, 4))]}), F(1, 2)),
    # the ambient metric, not the arc's own length
    (Subcurve(loop(1), segments={"l": [(0, F(3, 4))]}), F(1, 2)),
    # an arc that misses the vertex: |s − t| meets the way round inside
    (Subcurve(loop(2), segments={"l": [(F(1, 4), F(7, 4))]}), F(1)),
    (Subcurve.whole(dumbbell(1000)), F(1001)),
    # one loop and the two end arcs of another: the farthest pair is the
    # middle of the first and a tip of the second, where two paths tie
    (Subcurve(FIGURE_EIGHT, whole_edges=["l0"],
              segments={"l1": [(0, F(1, 8)), (F(3, 8), F(1, 2))]}), F(3, 8)),
    (Subcurve(BANANA, segments={"f": [(F(1, 3), F(1, 3))]}), F(0)),
], ids=["loop", "K4", "banana", "bridge-segment", "loop-arc", "inner-arc",
        "dumbbell", "figure-eight", "point"])
def test_diameter_known_answers(sub, expected):
    assert sub.diameter() == expected


def test_diameter_needs_no_lattice():
    """Both subcurves would need a scale-2 lattice above the size cap."""
    assert Subcurve(dumbbell(600000), whole_edges=["l1"]).diameter() == F(1, 2)
    assert (Subcurve.whole(loop(F(3000001, 1000))).diameter()
            == F(3000001, 2000))
