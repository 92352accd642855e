"""Divisors, PL functions, div(f), star, restriction, clamp, equivalence."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropbn import (
    Divisor,
    PLFunction,
    Subcurve,
    TropicalCurve,
    clamp,
    is_equivalent,
    reduced_divisor,
    restrict,
    star,
)

from oracles import reference_divisor, reference_slopes


def segment(length=1):
    return TropicalCurve({"a": 0, "b": 0}, [("e", ("a", "b"), length)])


def circle(l1=1, l2=1):
    return TropicalCurve({"a": 0, "b": 0},
                         [("e1", ("a", "b"), l1), ("e2", ("a", "b"), l2)])


def loop_curve():
    return TropicalCurve({"v": 0}, [("l", ("v", "v"), 1)])


def test_divisor_arithmetic():
    c = segment()
    D = Divisor(c, [("a", 2), (c.point("e", F(1, 2)), -1)])
    assert D.degree() == 1
    assert not D.is_effective()
    assert (D + D).degree() == 2
    assert (D - D).is_zero()
    assert (3 * D).multiplicity("a") == 6
    with pytest.raises(ValueError):
        Divisor(c, [("a", F(1, 2))])


@pytest.mark.parametrize("other", [1, "a", None])
def test_divisor_arithmetic_with_a_non_divisor_is_a_type_error(other):
    D = Divisor(segment(), [("a", 1)])
    with pytest.raises(TypeError):
        D + other
    with pytest.raises(TypeError):
        D - other


def test_divisor_zero_chips_vanish():
    c = segment()
    D = Divisor(c, [("a", 1), ("a", -1), ("b", 2)])
    assert D.support() == [c.point("b")]


def test_div_counts_incoming_slopes():
    # slope 3 along a segment: +3 where f tops out, -3 where it starts
    c = segment()
    f = PLFunction(c, {"a": 0, "b": 3})
    d = f.divisor()
    assert d.multiplicity("b") == 3
    assert d.multiplicity("a") == -3
    assert d.degree() == 0


def test_div_tent_on_loop():
    # tent rising from the base vertex both ways: the peak is a local max,
    # so it carries +2 and the base -2
    c = loop_curve()
    f = PLFunction(c, {"v": 0}, {"l": [(F(1, 2), F(1, 2))]})
    d = f.divisor()
    assert d.multiplicity("v") == -2
    assert d.multiplicity(c.point("l", F(1, 2))) == 2
    assert d.degree() == 0


def test_plfunction_validates_slopes():
    c = segment()
    with pytest.raises(ValueError):
        PLFunction(c, {"a": 0, "b": F(1, 2)})
    with pytest.raises(ValueError):
        PLFunction(c, {"a": 0})
    f = PLFunction(c, {"a": 0, "b": 1}, {"e": [(F(1, 2), F(1, 2))]})
    assert not f.knots("e")           # spurious knot pruned
    assert f.max_abs_slope() == 1


def test_plfunction_min_and_value():
    c = segment()
    f = PLFunction(c, {"a": 0, "b": 2})
    h = f.min_const(1)
    assert h.value("a") == 0
    assert h.value("b") == 1
    assert h.value(c.point("e", F(1, 2))) == 1
    assert h.knots("e") == ((F(1, 2), F(1)),)


def test_star_adds_weights():
    c = TropicalCurve({"v1": 1, "v2": 3}, [("e", ("v1", "v2"), 1)])
    E = Divisor(c, [("v1", 1), ("v2", 2)])
    Es = star(E)
    assert Es.multiplicity("v1") == 2
    assert Es.multiplicity("v2") == 4
    pure = segment()
    D = Divisor(pure, [("a", 2)])
    assert star(D) == D


def test_star_of_two_chips_single_weighted_vertex():
    c = TropicalCurve({"v": 1}, [("l", ("v", "v"), 1)])
    assert star(Divisor(c, [("v", 2)])).multiplicity("v") == 3


def test_restrict():
    c = circle()
    lam = Subcurve(c, vertices=["a"])
    D = Divisor(c, [("a", 1), (c.point("e1", F(1, 2)), 4)])
    assert restrict(D, lam).degree() == 1
    assert restrict(D, Subcurve.whole(c)) == D
    mid = Subcurve(c, segments={"e1": [(F(1, 4), F(3, 4))]})
    assert restrict(D, mid).degree() == 4


def test_clamp_cuts_at_threshold():
    c = segment()
    f = PLFunction(c, {"a": 0, "b": 1})
    region = Subcurve(c, ["a"])
    g = clamp(f, F(1, 2), region)
    assert g.value("a") == 0
    assert g.value("b") == F(1, 2)
    assert g.value(c.point("e", F(1, 2))) == F(1, 2)
    assert g.knots("e") == ((F(1, 2), F(1, 2)),)
    # constant above the threshold collapses to the threshold
    h = clamp(PLFunction.constant(c, 2), 1, region)
    assert h.value("b") == 1


def test_equivalence_tree():
    tree = TropicalCurve({"a": 0, "b": 0, "c": 0},
                         [("e1", ("a", "b"), 1), ("e2", ("b", "c"), F(3, 2))])
    D1 = Divisor(tree, [("a", 2)])
    D2 = Divisor(tree, [("c", 1), (tree.point("e1", F(1, 2)), 1)])
    ok, f = is_equivalent(D1, D2)
    assert ok
    assert (D2 + f.divisor() - D1).is_zero()


def test_equivalence_circle_offset_third():
    c = TropicalCurve({"v0": 0}, [("l", ("v0", "v0"), 1)])
    D1 = Divisor(c, [("v0", 1)])
    D2 = Divisor(c, [(c.point("l", F(1, 3)), 1)])
    ok, f = is_equivalent(D1, D2)
    assert not ok
    assert f is None


def test_equivalence_self():
    c = circle()
    D = Divisor(c, [("a", 1), ("b", 1)])
    ok, f = is_equivalent(D, D)
    assert ok
    assert f.divisor().is_zero()


def test_pushforward_collapses_chips():
    from tropbn import contract, pushforward
    c = circle()
    target, pm = contract(c, ["e1"])
    D = Divisor(c, [("a", 1), (c.point("e1", F(1, 2)), 2), ("b", 1)])
    img = pushforward(pm, D)
    assert img.degree() == 4
    assert len(img.support()) == 1


def test_constant_functions_differ_on_a_one_vertex_curve():
    c = TropicalCurve({"v": 0}, [])
    assert PLFunction.constant(c, 0) != PLFunction.constant(c, 1)
    assert PLFunction.constant(c, 1) == PLFunction.constant(c, 1)


def test_restrict_and_star_check_no_point(monkeypatch):
    """A divisor's points are canonical, so restricting it and starring it
    make no `TropicalCurve.point` call."""
    c = TropicalCurve({"a": 1, "b": 0},
                      [("f", ("a", "b"), 1), ("g", ("a", "b"), 2)])
    D = Divisor(c, [("a", 2), (c.point("f", F(1, 2)), 1),
                    (c.point("g", F(1)), 3)])
    lam = Subcurve(c, whole_edges=["f"])
    calls = []
    point = TropicalCurve.point

    def counted(self, *args):
        calls.append(args)
        return point(self, *args)

    monkeypatch.setattr(TropicalCurve, "point", counted)
    kept = restrict(D, lam)
    starred = star(D)
    assert calls == []
    monkeypatch.undo()
    assert kept == Divisor(c, [("a", 2), (c.point("f", F(1, 2)), 1)])
    assert starred == D + Divisor(c, [("a", 1)])   # b + min(b, w(p))


@st.composite
def pl_function_pairs(draw):
    """Two PL functions on a curve with a loop and a parallel edge and mixed
    lengths: witnesses of `reduced_divisor`, then sums, negations, integer
    multiples, `min_const` and `clamp` of them."""
    n = draw(st.integers(1, 3))
    names = [f"v{i}" for i in range(n)]
    lengths = st.sampled_from([F(1), F(2), F(1, 2), F(3, 2)])
    edges = [(f"t{i}", (names[draw(st.integers(0, i - 1))], names[i]), draw(lengths))
             for i in range(1, n)]
    loop_at = draw(st.sampled_from(names))
    edges.append(("l", (loop_at, loop_at), draw(lengths)))
    # parallel to a bridge, or a second loop on a one-vertex curve
    edges.append(("p", edges[0][1], draw(lengths)))
    for j in range(draw(st.integers(0, 1))):
        uv = (draw(st.sampled_from(names)), draw(st.sampled_from(names)))
        edges.append((f"x{j}", uv, draw(lengths)))
    c = TropicalCurve({v: 0 for v in names}, edges)
    points = st.one_of(
        st.sampled_from(names).map(c.point),
        st.builds(lambda e, k: c.point(e, c.length(e) * k),
                  st.sampled_from(c.edges()),
                  st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(2, 3)])))

    def witness():
        D = Divisor(c, draw(st.lists(st.tuples(points, st.integers(-3, 3)),
                                     max_size=4)))
        return reduced_divisor(c, D, draw(points))[1]

    def build():
        f = witness()
        for op in draw(st.lists(st.sampled_from(
                ["add", "neg", "mul", "min", "clamp"]), max_size=3)):
            if op == "add":
                f = f + witness()
            elif op == "neg":
                f = -f
            elif op == "mul":
                f = draw(st.integers(-3, 3)) * f
            elif op == "min":
                f = f.min_const(f.value(draw(points)) + draw(st.sampled_from(
                    [F(0), F(1, 3), F(-1, 2)])))
            else:
                e = draw(st.sampled_from(c.edges()))
                a, b = sorted(draw(st.lists(st.sampled_from(
                    [F(0), F(1, 4), F(1, 2), F(1)]), min_size=2, max_size=2,
                    unique=True)))
                region = Subcurve(c, segments={e: [(a * c.length(e),
                                                    b * c.length(e))]})
                bps = region.boundary_points()
                if bps:
                    f = clamp(f, min(f.value(p) for p in bps)
                              - draw(st.sampled_from([F(0), F(1, 2)])), region)
        return f

    return c, build(), build()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=pl_function_pairs())
def test_divisor_and_slope_bound_from_the_pieces(case):
    """div(f) and the largest |slope| read from the stored pieces equal
    what one-sided difference quotients of f's values give, and div is
    additive with degree 0."""
    c, f, g = case
    assert f.divisor() == reference_divisor(f)
    assert f.max_abs_slope() == max(
        (abs(s) for ss in reference_slopes(f).values() for s in ss), default=0)
    assert (f + g).divisor() == f.divisor() + g.divisor()
    assert f.divisor().degree() == 0
