"""Curves, models, scaling maps, and subcurves."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropbn import (
    CombinatorialType,
    Point,
    Subcurve,
    TropicalCurve,
    attach_loops,
    contract,
    deformation_retracts,
    genus,
    loopless_model,
    neighborhood,
    realize,
    rescale,
    subdivide,
    underlying_pure,
)
from tropbn.curve import rat


def theta(w1=0, w2=0, lengths=(1, 1, 1)):
    return TropicalCurve({"v1": w1, "v2": w2},
                         [(f"e{i}", ("v1", "v2"), ell)
                          for i, ell in enumerate(lengths, 1)])


def triangle():
    return TropicalCurve({"a": 0, "b": 0, "c": 0},
                         [("ab", ("a", "b"), 1), ("bc", ("b", "c"), 1),
                          ("ca", ("c", "a"), 1)])


def theta_type(w1=0, w2=0):
    return CombinatorialType([("v1", w1), ("v2", w2)],
                             [(f"e{i}", ("v1", "v2")) for i in (1, 2, 3)])


def triangle_type():
    return CombinatorialType([("a", 0), ("b", 0), ("c", 0)],
                             [("ab", ("a", "b")), ("bc", ("b", "c")),
                              ("ca", ("c", "a"))])


def rose(g):
    return TropicalCurve({"v": g}, [])


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        TropicalCurve({"a": 0, "b": 0}, [])          # disconnected
    with pytest.raises(ValueError):
        TropicalCurve({"a": -1}, [])                 # negative weight
    with pytest.raises(ValueError):
        TropicalCurve({"a": 0}, [("e", ("a", "a"), 0)])
    with pytest.raises(ValueError):
        TropicalCurve({"a": 0}, [("e", ("a", "a"), 1),
                                 ("e", ("a", "a"), 1)])


def test_genus():
    assert genus(theta()) == 2
    assert genus(rose(5)) == 5
    tree = TropicalCurve({"a": 0, "b": 0, "c": 0},
                         [("e1", ("a", "b"), 1), ("e2", ("b", "c"), 2)])
    assert genus(tree) == 0
    assert genus(theta(1, 2)) == 5


def test_underlying_pure():
    assert underlying_pure(rose(3)).weights() == {"v": 0}
    pure = theta()
    assert underlying_pure(pure) == pure
    assert underlying_pure(theta(1, 2)) == theta()


def test_attach_loops_preserves_genus():
    rosy = attach_loops(rose(4), 1)
    assert genus(rosy) == 4
    assert rosy.total_weight() == 0
    assert len(rosy.edges()) == 4
    mixed = attach_loops(theta(1, 0), F(1, 2))
    assert genus(mixed) == 3
    assert sorted(mixed.length(e) for e in mixed.edges()
                  if mixed.is_loop(e)) == [F(1, 2)]


def test_attach_loops_pure_noop():
    assert attach_loops(theta(), 1) == theta()


def test_loopless_model_splits_loops():
    rosy = attach_loops(rose(2), 1)
    model, to_model = loopless_model(rosy)
    assert len(model.vertices()) == 3
    assert len(model.edges()) == 4
    assert all(model.length(e) == F(1, 2) for e in model.edges())
    single = TropicalCurve({"v": 0}, [("l", ("v", "v"), F(2, 3))])
    model, _ = loopless_model(single)
    assert sorted(model.length(e) for e in model.edges()) == [F(1, 3), F(1, 3)]
    # vertex-supported points survive the map unchanged in location
    assert to_model(rosy.point("v")).vertex == "v"


def test_subdivide_lengths_add_up():
    seg = TropicalCurve({"a": 0, "b": 0}, [("e", ("a", "b"), 1)])
    marked, fwd = subdivide(seg, [seg.point("e", F(1, 3))])
    assert sorted(marked.length(e) for e in marked.edges()) == [F(1, 3), F(2, 3)]
    img = fwd(seg.point("e", F(1, 3)))
    assert img.is_vertex
    tri, _ = subdivide(triangle(), [triangle().point(e, F(1, 2))
                                    for e in ("ab", "bc", "ca")])
    assert len(tri.vertices()) == 6
    assert genus(tri) == 1


def test_contract_loop_and_bridge():
    looped = TropicalCurve({"v": 0, "u": 2},
                           [("l", ("v", "v"), 1), ("b", ("v", "u"), 1)])
    no_loop, _ = contract(looped, ["l"])
    assert no_loop.weight("v") == 1
    merged, back = contract(looped, ["b"])
    assert len(merged.vertices()) == 1
    [(vid, w)] = merged.weights().items()
    assert w == 2
    assert back(looped.point("u")).vertex == vid


def test_contract_refuses_a_string_of_ids():
    """Read character by character, "e1" would name e and 1, "e" would work."""
    c = TropicalCurve({"a": 0, "b": 0},
                      [("e", ("a", "b"), 1), ("e1", ("a", "b"), 1)])
    for ids in ("e1", "e"):
        with pytest.raises(TypeError, match="collection of ids"):
            contract(c, ids)


def test_realize_all_zero_gives_weighted_point():
    ctype = theta_type()
    limit, _ = realize(ctype, [0, 0, 0])
    assert len(limit.vertices()) == 1
    assert limit.total_weight() == 2
    assert not limit.edges()


def test_rescale_scales_offsets():
    seg = CombinatorialType([("a", 0), ("b", 0)], [("e", ("a", "b"))])
    scaled, alpha = rescale(seg, [F(3, 2)])
    assert scaled.length("e") == F(3, 2)
    assert alpha(seg.ones().point("e", F(1, 2))).offset == F(3, 4)
    tri = triangle_type()
    doubled, _ = rescale(tri, [2, 2, 2])
    assert [doubled.length(e) for e in doubled.edges()] == [2, 2, 2]
    same, ident = rescale(tri, [1, 1, 1])
    assert same == triangle()


def test_point_canonicalization():
    c = theta()
    assert c.point("e1", 0) == c.point("v1")
    assert c.point("e1", 1) == c.point("v2")
    with pytest.raises(ValueError):
        c.point("e1", 2)
    assert c.distance("v1", "v2") == 1
    assert c.distance(c.point("e1", F(1, 4)), "v1") == F(1, 4)


def test_point_returns_canonical_points_as_they_are():
    c = theta(lengths=(1, 2, F(3, 2)))
    p = Point(edge="e2", offset=F(1, 3))
    assert c.point(p) is p
    r = c.point("e3", F(1, 2))
    assert c.point(r) is r
    # offsets 0 and ℓ still collapse to the edge's ends
    assert c.point(Point(edge="e2", offset=F(0))) == Point(vertex="v1")
    assert c.point(Point(edge="e2", offset=F(2))) == Point(vertex="v2")
    for bad in (Point(edge="e2", offset=F(5, 2)), Point(edge="e2", offset=F(-1, 2)),
                Point(edge="zz", offset=F(1, 2)), Point(edge=["e2"], offset=F(1, 2))):
        with pytest.raises(ValueError):
            c.point(bad)
    # an int offset is coerced to a Fraction in a new point
    q = c.point(Point(edge="e2", offset=1))
    assert q == Point(edge="e2", offset=F(1)) and type(q.offset) is F


RAT_STRINGS = ["007", "0/5", "1/0", "1/00", "²", "١", " 3", "-1/2", "1.5",
               "1e3", "", "/", "3/", "/3", "1/2/3", "+4", "1_000", "06/004"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(s=st.one_of(st.sampled_from(RAT_STRINGS),
                   st.text(alphabet="0123456789/-+ ._e²١", max_size=8)))
def test_rat_agrees_with_fraction(s):
    """rat(s) is Fraction(s), and raises ValueError exactly where it fails,
    with Fraction's message, or rat's own for a zero denominator."""
    try:
        want = F(s)
    except (ValueError, ZeroDivisionError) as exc:
        message = (f"not a rational: {s!r}" if isinstance(exc, ZeroDivisionError)
                   else str(exc))
        with pytest.raises(ValueError) as got:
            rat(s)
        assert str(got.value) == message
    else:
        got = rat(s)
        assert type(got) is F and got == want


def test_subcurve_merging_and_closure():
    c = triangle()
    lam = Subcurve(c, segments={"ab": [(0, F(1, 3)), (F(1, 4), F(1, 2))]})
    assert lam.covered_intervals("ab") == [(F(0), F(1, 2))]
    assert "a" in lam.vertices            # closure pulled in the endpoint
    full = Subcurve(c, segments={"ab": [(0, 1)]})
    assert "ab" in full.whole_edges
    with pytest.raises(ValueError):
        Subcurve(c, vertices=["a", "c"], segments={"ab": [(F(1, 4), F(1, 2))]})


@pytest.mark.parametrize("kwargs, name", [
    ({"vertices": "ab"}, "vertices"),
    ({"whole_edges": "ab"}, "whole_edges"),
])
def test_subcurve_refuses_a_string_of_ids(kwargs, name):
    """A string is not read character by character as a list of ids."""
    with pytest.raises(TypeError, match=name):
        Subcurve(triangle(), **kwargs)


def test_subcurve_whole_and_point():
    c = triangle()
    assert Subcurve.whole(c).is_whole_curve()
    pt = Subcurve(c, segments={"ab": [(F(1, 2), F(1, 2))]})
    assert pt.contains_point(c.point("ab", F(1, 2)))
    assert not pt.contains_point("a")
    assert pt.diameter() == 0


def test_subcurve_genus_counts_weights():
    mixed = theta(1, 0)
    assert Subcurve.whole(mixed).genus() == 3
    assert Subcurve(mixed, ["v1"]).genus() == 1


def test_neighborhood_star_and_retract():
    c = triangle()
    v = Subcurve(c, ["a"])
    near = neighborhood(c, v, F(1, 4))
    covered = sum((b - a) for e in c.edges()
                  for a, b in near.covered_intervals(e))
    assert covered == F(1, 2)
    assert deformation_retracts(near, v)
    # radius 1 reaches b and c but not the far edge: still a tree, retracts
    path = neighborhood(c, v, 1)
    assert path.whole_edges == {"ab", "ca"}
    assert deformation_retracts(path, v)
    # the cycle closes once the opposite edge is fully covered
    whole = neighborhood(c, v, F(3, 2))
    assert whole.is_whole_curve()
    assert not deformation_retracts(whole, v)
    assert neighborhood(c, v, 0) == v
    # the rest of the triangle is a tree touching the arc ab at both ends
    arc = Subcurve(c, whole_edges=["ab"])
    assert not deformation_retracts(whole, arc)
    assert deformation_retracts(path, arc)
    # n must contain lam
    assert not deformation_retracts(near, Subcurve(c, ["b"]))
    assert not deformation_retracts(v, near)


def test_combinatorial_type_roundtrip():
    again, _ = rescale(theta_type(1, 2), [1, 1, 1])
    assert again == theta(1, 2)


def test_combinatorial_type_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate vertex id 'a'"):
        CombinatorialType([("a", 0), ("a", 1)], [])
    with pytest.raises(ValueError, match="duplicate edge id 'e'"):
        CombinatorialType([("a", 0)], [("e", ("a", "a")), ("e", ("a", "a"))])
    with pytest.raises(ValueError, match="weight of 'b' must be a non-negative"):
        CombinatorialType([("a", 0), ("b", -1)], [("e", ("a", "b"))])
    with pytest.raises(ValueError, match="edge 'e' has unknown endpoint"):
        CombinatorialType([("a", 0)], [("e", ("a", "z"))])
    with pytest.raises(ValueError, match="must be connected"):
        CombinatorialType([("a", 0), ("b", 0)], [("e", ("a", "a"))])


def test_cone_vector_mapping_needs_every_edge():
    ct = theta_type()
    with pytest.raises(ValueError, match="no length for edge 'e2'"):
        realize(ct, {"e1": 1, "e3": 2})


def test_cone_vector_mapping_refuses_unknown_edge():
    ct = theta_type()
    with pytest.raises(ValueError, match="unknown edge 'typo'"):
        realize(ct, {"e1": 1, "e2": 2, "e3": 1, "typo": 0})
    assert realize(ct, {"e3": 3, "e1": 1, "e2": 2})[0] == theta(lengths=(1, 2, 3))


def test_subcurve_inverse_refuses_points_off_it():
    c = triangle()
    _, to_parent = Subcurve(c, whole_edges=["ab"]).as_curve()
    assert to_parent.inverse(c.point("ab", F(1, 3))) == Point(edge="ab",
                                                              offset=F(1, 3))
    for p in ("c", c.point("bc", F(1, 2))):
        with pytest.raises(ValueError, match="lies outside the subcurve"):
            to_parent.inverse(p)


@st.composite
def types_and_lengths(draw):
    """Connected types of 1-4 vertices (loops, parallel edges, shuffled ids)
    and a cone vector that is often zero on some edges."""
    n = draw(st.integers(1, 4))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    ends = [(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          min_size=0 if n > 1 else 1, max_size=3))
    ends = [uv if draw(st.booleans()) else uv[::-1] for uv in ends + extra]
    ct = CombinatorialType([(v, draw(st.integers(0, 2))) for v in names],
                           [(f"e{i}", uv) for i, uv in enumerate(ends)])
    s = [draw(st.sampled_from([F(0), F(0), F(1), F(1, 2), F(2), F(5, 3)]))
         for _ in ends]
    return ct, s


def _components(ct, s):
    """Smallest vertex id of each vertex's component of zero-length edges."""
    comp = {v: {v} for v in ct.vertices()}
    for e, x in zip(ct.edge_order, s):
        u, v = ct.edge_ends[e]
        if x == 0 and comp[u] is not comp[v]:
            merged = comp[u] | comp[v]
            for w in merged:
                comp[w] = merged
    return {v: min(c) for v, c in comp.items()}


OFFSETS = [F(1, 4), F(1, 3), F(1, 2), F(5, 6)]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(case=types_and_lengths())
def test_realize_rescale_contract_agree(case):
    ct, s = case
    ones = ct.ones()
    curve, beta = realize(ct, s)
    assert genus(curve) == ct.genus()
    rep = _components(ct, s)
    for v in ct.vertices():
        assert beta(v) == Point(vertex=rep[v])
    for e, x in zip(ct.edge_order, s):
        for t in OFFSETS:
            if x == 0:
                assert beta(ones.point(e, t)) == beta(ct.edge_ends[e][0])
            else:
                assert beta(ones.point(e, t)) == Point(edge=e, offset=t * x)

    # contract: the same collapse, with the map from the curve itself
    positive = [x or F(7, 4) for x in s]
    full, alpha = rescale(ct, positive)
    dead = [e for e, x in zip(ct.edge_order, s) if x == 0]
    small, gamma = contract(full, dead)
    # rescaling keeps the type, so `ct` is the type of `full` too
    again, beta2 = realize(ct,
                           [0 if e in dead else full.length(e) for e in full.edges()])
    assert small == again
    for v in full.vertices():
        assert gamma(v) == beta2(v)
    for e in full.edges():
        for t in OFFSETS:
            assert gamma(full.point(e, t * full.length(e))) == beta2(ones.point(e, t))

    # rescale is realize for positive lengths and refuses a zero
    same, beta3 = realize(ct, positive)
    assert full == same
    for e in ct.edge_order:
        for t in OFFSETS:
            assert alpha(ones.point(e, t)) == beta3(ones.point(e, t))
    if dead:
        with pytest.raises(ValueError, match="strictly positive"):
            rescale(ct, s)
