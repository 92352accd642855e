"""Divisors, PL functions, div(f), star, restriction, clamp, equivalence."""

from fractions import Fraction as F

import pytest

from tropbn import (
    Divisor,
    PLFunction,
    Subcurve,
    TropicalCurve,
    clamp,
    is_equivalent,
    restrict,
    star,
)


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
