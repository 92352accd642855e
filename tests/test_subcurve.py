"""Property tests for subcurves: one encoding, whatever way it is built."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from tropbn import Subcurve, TropicalCurve, neighborhood
from tropbn.io import subcurve_from_json, subcurve_to_json
from tropbn.transport import subcurves_disjoint

LENGTHS = st.sampled_from([F(1), F(2), F(1, 2), F(3, 2), F(2, 3)])
FRACTIONS = st.sampled_from([F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2),
                             F(2, 3), F(1)])
# how far a growth step runs along its edge: often to the far end
REACH = st.sampled_from([F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(1), F(1), F(1)])


@st.composite
def curves(draw):
    """Connected curves of 1-4 vertices, often with loops and parallel edges."""
    n = draw(st.integers(1, 4))
    ends = [(f"v{draw(st.integers(0, i - 1))}", f"v{i}") for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=0 if n > 1 else 1, max_size=3))
    ends += [(f"v{u}", f"v{w}") for u, w in extra]
    edges = [(f"e{i}", uv, draw(LENGTHS)) for i, uv in enumerate(ends)]
    return TropicalCurve({f"v{i}": draw(st.integers(0, 1)) for i in range(n)},
                         edges)


@st.composite
def subcurves(draw, curve):
    """A point grown along its exits, sometimes thickened to a neighbourhood,
    plus overlapping intervals inside."""
    if draw(st.booleans()) or not curve.edges():
        start = draw(st.sampled_from(curve.vertices()))
    else:
        e = draw(st.sampled_from(curve.edges()))
        start = curve.point(e, curve.length(e) * draw(FRACTIONS))
    sub = Subcurve.single_point(curve, start)
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
        both = a.union(b)
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

    extracted, _ = a.as_curve()
    assert extracted.betti() == a.betti()
    assert Subcurve.whole(c).betti() == c.betti()
