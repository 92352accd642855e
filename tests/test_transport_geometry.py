"""The transport geometry on integer ticks against its `Fraction` references.

`neighborhood`, `Subcurve.exits`, `PLFunction.min_const`, `clamp` and
`transport._descent_region` work in integers at one scale per call; the
references in `tests/oracles.py` do the same work in `Fraction`s through
the public constructors.  The draws cover curves with loops and mixed
length denominators; subcurves that are a vertex, whole edges, segments or
isolated interior points; and radii of 0, small ones, and ones that cover
whole edges.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (reference_clamp, reference_descent_region,
                     reference_exits, reference_min_const,
                     reference_neighborhood)
from tropbn import Divisor, Subcurve, TropicalCurve, clamp, neighborhood
from tropbn.models import reduced_divisor, subcurve_diameter
from tropbn.transport import _descent_region

LENGTHS = st.sampled_from([F(1), F(2), F(1, 2), F(2, 3), F(3, 4), F(5, 7),
                           F(3, 2)])
SHARES = st.sampled_from([F(0), F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(3, 5),
                          F(1)])
RADII = st.sampled_from([F(0), F(0), F(1, 12), F(1, 5), F(2, 7), F(1), F(2),
                         F(3)])


@st.composite
def curves(draw):
    """Connected curves of 1-4 vertices with 1-3 extra edges (loops and
    parallel edges among them) and mixed length denominators."""
    n = draw(st.integers(1, 4))
    ends = [(f"v{draw(st.integers(0, i - 1))}", f"v{i}") for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          min_size=1, max_size=3))
    ends += [(f"v{u}", f"v{w}") for u, w in extra]
    return TropicalCurve({f"v{i}": 0 for i in range(n)},
                         [(f"e{i}", uv, draw(LENGTHS))
                          for i, uv in enumerate(ends)])


@st.composite
def subcurves(draw, c):
    """A single vertex, whole edges at a vertex, a segment, or an isolated
    interior point, sometimes grown along one of its exits."""
    kind = draw(st.sampled_from(["vertex", "edges", "segment", "point"]))
    if kind in ("vertex", "edges"):
        v = draw(st.sampled_from(c.vertices()))
        at = sorted({e for e, _ in c.incident(v)})
        whole = draw(st.lists(st.sampled_from(at), max_size=2)) if at else []
        sub = Subcurve(c, [v], whole if kind == "edges" else [])
    else:
        e = draw(st.sampled_from(c.edges()))
        a = c.length(e) * draw(SHARES)
        b = a if kind == "point" else a + (c.length(e) - a) * draw(SHARES)
        if kind == "point" and not 0 < a < c.length(e):
            a = b = c.length(e) / 2
        sub = Subcurve(c, segments={e: [(a, b)]})
    if draw(st.booleans()) and sub.exits():
        e, t, d = draw(st.sampled_from(sub.exits()))
        far = min(max(t + d * c.length(e) * draw(SHARES), F(0)), c.length(e))
        sub = sub.grown({e: [(t, far)]})
    return sub


@st.composite
def witnesses(draw, c):
    """The witness of a reduction of a random divisor: a PL function with
    knots inside edges and integer slopes."""
    points = st.one_of(
        st.sampled_from(c.vertices()).map(c.point),
        st.builds(lambda e, k: c.point(e, c.length(e) * k),
                  st.sampled_from(c.edges()),
                  st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(2, 3)])))
    D = Divisor(c, draw(st.lists(st.tuples(points, st.integers(-3, 3)),
                                 min_size=1, max_size=4)))
    return reduced_divisor(c, D, draw(points))[1]


def _raised(fn, *args):
    """fn's result, or the type and text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_neighborhood_matches_the_fraction_reference(data):
    c = data.draw(curves())
    lam = data.draw(subcurves(c))
    delta = data.draw(RADII)
    got = neighborhood(c, lam, delta)
    want = reference_neighborhood(c, lam, delta)
    assert got == want
    assert got.exits() == reference_exits(got)
    assert lam.exits() == reference_exits(lam)
    # the cached diameter is the closed form, worked out once
    assert got.diameter() == subcurve_diameter(want)
    assert got.diameter() is got.diameter()
    assert lam.diameter() == subcurve_diameter(lam)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_clamp_and_min_match_the_fraction_references(data):
    c = data.draw(curves())
    f = data.draw(witnesses(c))
    level = (f.value(data.draw(st.sampled_from(c.vertices())))
             + data.draw(st.sampled_from([F(0), F(1, 3), F(-1, 2), F(5, 7)])))
    assert f.min_const(level) == reference_min_const(f, level)
    lam = data.draw(subcurves(c))
    region = neighborhood(c, lam, data.draw(RADII))
    bps = region.boundary_points()
    # push's level (the least value on the region's boundary), or one
    # that may lie above it, where clamp refuses
    mu = (min(f.value(p) for p in bps) if bps else level) - data.draw(
        st.sampled_from([F(0), F(1, 2), F(-1, 3)]))
    assert _raised(clamp, f, mu, region) == _raised(reference_clamp, f, mu,
                                                    region)
    assert _raised(clamp, f, mu, lam) == _raised(reference_clamp, f, mu, lam)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_descent_region_matches_the_fraction_reference(data):
    c = data.draw(curves())
    f = data.draw(witnesses(c))
    lam = data.draw(subcurves(c))
    bps = neighborhood(c, lam, data.draw(RADII)).boundary_points()
    mu = (min(f.value(p) for p in bps) if bps else f.value(c.vertices()[0])
          ) - data.draw(st.sampled_from([F(0), F(1, 2), F(7, 3)]))
    got = _descent_region(c, f, lam, mu)
    assert got == reference_descent_region(c, f, lam, mu)
    assert got.contains_subcurve(lam)


@pytest.mark.parametrize("delta", [F(0), F(1, 1000), F(1, 2), F(999), F(2000)])
def test_neighborhood_of_a_dumbbell_loop(delta):
    """The `lattice-dumbbell` geometry: a loop at the end of a long bar."""
    c = TropicalCurve({"x": 0, "y": 0},
                      [("l1", ("x", "x"), 1), ("l2", ("y", "y"), 1),
                       ("br", ("x", "y"), 1000)])
    lam = Subcurve(c, whole_edges=["l1"])
    assert neighborhood(c, lam, delta) == reference_neighborhood(c, lam, delta)
