"""Abel-Jacobi map, cycle bases, and universal Picard coordinates."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropbn import (
    CombinatorialType,
    CycleBasis,
    Divisor,
    TorusPoint,
    TropicalCurve,
    abel_jacobi,
    is_equivalent,
    pushforward_class,
    realize,
    reduced_divisor,
    scale_cycles,
    universal_coords,
)


def circle(l1=1, l2=1):
    return TropicalCurve({"a": 0, "b": 0},
                         [("e1", ("a", "b"), l1), ("e2", ("a", "b"), l2)])


def theta():
    return TropicalCurve({"u": 0, "v": 0},
                         [("e1", ("u", "v"), 1), ("e2", ("u", "v"), 1),
                          ("e3", ("u", "v"), 2)])


def two_loops():
    return TropicalCurve({"x": 0},
                         [("l1", ("x", "x"), 1), ("l2", ("x", "x"), F(3, 2))])


def dumbbell_type():
    return CombinatorialType(
        [("x", 0), ("y", 0)],
        [("l1", ("x", "x")), ("l2", ("y", "y")), ("br", ("x", "y"))])


def random_deg0(rng, curve, size=3):
    pos, neg = [], []
    for _ in range(rng.randint(1, size)):
        if rng.random() < 0.4:
            pos.append((rng.choice(curve.vertices()), 1))
        else:
            e = rng.choice(curve.edges())
            off = curve.length(e) * rng.choice([F(1, 4), F(1, 3), F(2, 3)])
            pos.append((curve.point(e, off), 1))
    for _ in range(len(pos)):
        neg.append((rng.choice(curve.vertices()), -1))
    return Divisor(curve, pos + neg)


def test_torus_point_algebra():
    t = TorusPoint((F(5, 3), F(-1, 4)))
    assert t.entries == (F(2, 3), F(3, 4))
    assert t.genus == 2
    assert (t - t).is_zero()
    assert (t + (-t)).is_zero()
    s = TorusPoint((F(1, 3), F(1, 4)))
    assert (t + s).entries == (F(0), F(0))
    with pytest.raises(ValueError):
        t + TorusPoint((F(1),))


def test_zero_divisor_maps_to_zero():
    c = theta()
    assert abel_jacobi(c, Divisor.zero(c), "u").is_zero()
    tree = TropicalCurve({"a": 0, "b": 0}, [("e", ("a", "b"), 1)])
    img = abel_jacobi(tree, Divisor(tree, [("a", 1), ("b", -1)]), "a")
    assert img.genus == 0 and img.is_zero()


def test_circle_torsion():
    # circumference 2: 2(b - a) integrates to 2, a full lap, hence trivial
    c = circle()
    b_minus_a = Divisor(c, [("b", 1), ("a", -1)])
    assert not abel_jacobi(c, b_minus_a, "a").is_zero()
    assert abel_jacobi(c, 2 * b_minus_a, "a").is_zero()
    assert is_equivalent(2 * Divisor(c, [("b", 1)]),
                         2 * Divisor(c, [("a", 1)]))[0]
    half = Divisor(c, [(c.point("e1", F(1, 2)), 1), ("a", -1)])
    assert not abel_jacobi(c, 2 * half, "a").is_zero()


def test_loop_coordinates():
    c = two_loops()
    basis = CycleBasis(c)
    assert basis.genus == 2
    assert basis.gram() == [[F(1), F(0)], [F(0), F(3, 2)]]
    D = Divisor(c, [(c.point("l1", F(1, 2)), 1), ("x", -1)])
    assert abel_jacobi(c, D, "x").entries == (F(1, 2), F(0))
    D2 = Divisor(c, [(c.point("l2", F(1, 2)), 1), ("x", -1)])
    assert abel_jacobi(c, D2, "x").entries == (F(0), F(1, 3))


def test_additive_in_the_divisor():
    rng = random.Random(7)
    c = theta()
    for _ in range(25):
        D1 = random_deg0(rng, c)
        D2 = random_deg0(rng, c)
        lhs = abel_jacobi(c, D1 + D2, "u")
        assert lhs == abel_jacobi(c, D1, "u") + abel_jacobi(c, D2, "u")


def test_basepoint_independent():
    rng = random.Random(8)
    c = theta()
    for _ in range(10):
        D = random_deg0(rng, c)
        assert abel_jacobi(c, D, "u") == abel_jacobi(c, D, "v")
        assert abel_jacobi(c, D, "u") == \
            abel_jacobi(c, D, c.point("e3", F(1, 3)))


def test_image_vanishes_iff_equivalent():
    rng = random.Random(9)
    for make in (circle, theta, two_loops):
        c = make()
        base = c.vertices()[0]
        for _ in range(50):
            D1 = random_deg0(rng, c)
            D2 = random_deg0(rng, c)
            eq, f = is_equivalent(D1, D2)
            assert abel_jacobi(c, D1 - D2, base).is_zero() == eq


def test_domain_errors():
    c = theta()
    with pytest.raises(ValueError, match="degree-0"):
        abel_jacobi(c, Divisor(c, [("u", 1)]), "u")
    w = TropicalCurve({"a": 1, "b": 0}, [("e", ("a", "b"), 1)])
    with pytest.raises(ValueError, match="pure"):
        abel_jacobi(w, Divisor.zero(w), "a")


def test_cycle_basis_structure():
    c = theta()
    basis = CycleBasis(c)
    assert basis.genus == 2
    assert len(basis.tree_edges) == 1
    for chord, cyc in zip(basis.chords, basis.cycles):
        assert cyc[chord] == 1
    Q = basis.gram()
    assert Q == [list(row) for row in zip(*Q)]
    assert all(Q[i][i] > 0 for i in range(2))


def test_scale_cycles_rows():
    c = theta()
    basis = CycleBasis(c)
    rows = scale_cycles(basis, [2, 3, 5])
    order = c.edges()
    s = {"e1": 2, "e2": 3, "e3": 5}
    for cyc, row in zip(basis.cycles, rows):
        assert row == [s[e] * cyc.get(e, 0) for e in order]
    with pytest.raises(ValueError):
        scale_cycles(basis, [1, 2])


def test_universal_coords_interior():
    ct = dumbbell_type()
    s = {"l1": F(2), "l2": F(1), "br": F(3)}
    realized, beta = realize(ct, s)
    p = realized.point("l2", F(1, 2))
    uc = universal_coords(ct, s, Divisor(realized, [(p, 1)]), "x")
    assert uc.s == (F(2), F(1), F(3))
    assert uc.degree == 1
    direct = abel_jacobi(realized, Divisor(realized, [(p, 1), ("x", -1)]), "x")
    assert uc.t == direct


def test_universal_coords_separate_classes():
    ct = dumbbell_type()
    s = [F(2), F(1), F(3)]
    realized, _ = realize(ct, s)
    rng = random.Random(11)
    divs = [random_deg0(rng, realized) + Divisor(realized, [("x", 2)])
            for _ in range(8)]
    for i in range(len(divs)):
        for j in range(i + 1, len(divs)):
            ti = universal_coords(ct, s, divs[i], "x").t
            tj = universal_coords(ct, s, divs[j], "x").t
            assert (ti == tj) == is_equivalent(divs[i], divs[j])[0]


def test_universal_coords_boundary_contraction():
    # l1 -> 0 swallows one cycle into a vertex weight; one coordinate is left
    ct = dumbbell_type()
    s = {"l1": F(0), "l2": F(2), "br": F(1)}
    realized, beta = realize(ct, s)
    assert realized.weight("x") == 1
    uc = universal_coords(ct, s, Divisor(realized, [("x", 2)]), "x")
    assert uc.t.genus == 1 and uc.t.is_zero()
    q = realized.point("l2", F(1, 2))
    uc2 = universal_coords(ct, s, Divisor(realized, [(q, 1), ("x", 1)]), "x")
    assert uc2.t.genus == 1 and not uc2.t.is_zero()


@st.composite
def coordinate_cases(draw):
    """A type, a point s of its cone, a basepoint and two divisors of one
    degree on Γ_s.

    The type has 1-3 vertices on a path, its edges oriented either way,
    plus up to two more edges (loops allowed) and weights 0 or 1; about a
    third of the entries of s are 0,
    so s often lies on the boundary of the cone and whole cycles collapse
    into weights.  D2 is D1 reduced at a vertex (equivalent), D1 with one
    chip moved to another spot, or a fresh divisor of the same degree.
    """
    n = draw(st.integers(1, 3))
    vs = [f"v{i}" for i in range(n)]
    pairs = st.tuples(st.sampled_from(vs), st.sampled_from(vs))
    # path edges run either way, so tree paths also go against orientation
    ends = [(vs[i], vs[i + 1])[::draw(st.sampled_from([1, -1]))]
            for i in range(n - 1)]
    ends += draw(st.lists(pairs, min_size=1 if n == 1 else 0, max_size=2))
    es = [f"e{i}" for i in range(len(ends))]
    ct = CombinatorialType([(v, draw(st.integers(0, 1))) for v in vs],
                           list(zip(es, ends)))
    s = [draw(st.sampled_from([F(0), F(0), F(1), F(1, 2), F(3, 2), F(2, 3)]))
         for _ in es]
    gamma, _ = realize(ct, s)
    spots = gamma.vertices() + [gamma.point(e, gamma.length(e) * x)
                                for e in gamma.edges()
                                for x in (F(1, 4), F(1, 3), F(1, 2), F(2, 3))]
    chips = st.lists(st.tuples(st.sampled_from(spots),
                               st.sampled_from([1, 1, 2, -1])),
                     min_size=1, max_size=3)
    D1 = Divisor(gamma, draw(chips))
    how = draw(st.sampled_from(["reduce", "move", "fresh"]))
    if how == "reduce":
        D2, _ = reduced_divisor(gamma, D1, draw(st.sampled_from(gamma.vertices())))
    elif how == "move" and not D1.is_zero():
        p = draw(st.sampled_from(D1.support()))
        D2 = D1 - Divisor(gamma, [(p, 1)]) \
            + Divisor(gamma, [(draw(st.sampled_from(spots)), 1)])
    else:
        D2 = Divisor(gamma, draw(chips))
        D2 = D2 + Divisor(gamma, [(draw(st.sampled_from(spots)),
                                   D1.degree() - D2.degree())])
    return ct, s, draw(st.sampled_from(vs)), D1, D2


def test_coordinates_agree_iff_equivalent():
    """Equal universal coordinates exactly when the divisors are linearly
    equivalent on Γ_s, inside the cone and on its boundary."""
    seen = []

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=coordinate_cases())
    def check(case):
        ct, s, p, D1, D2 = case
        t1 = universal_coords(ct, s, D1, p).t
        equivalent = is_equivalent(D1, D2)[0]
        assert (t1 == universal_coords(ct, s, D2, p).t) == equivalent
        seen.append((0 in s and t1.genus > 0, equivalent, D1 != D2))

    check()
    # on the boundary, with cycles left in Γ_s, both answers come up
    # between distinct divisors
    assert seen.count((True, True, True)) >= 15, seen.count((True, True, True))
    assert seen.count((True, False, True)) >= 15, seen.count((True, False, True))


def test_pushforward_class_collapses_loop():
    ct = dumbbell_type()
    ones = ct.ones()
    s = {"l1": F(0), "l2": F(1), "br": F(1)}
    tent = Divisor(ones, [(ones.point("l1", F(1, 2)), 2), ("x", -2)])
    assert pushforward_class(ct, s, tent).is_zero()
    mixed = Divisor(ones, [(ones.point("l1", F(1, 2)), 1),
                           (ones.point("l2", F(1, 2)), -1)])
    img = pushforward_class(ct, s, mixed)
    assert img.degree() == 0
    assert img.multiplicity("x") == 1
    realized, _ = realize(ct, s)
    with pytest.raises(ValueError):
        pushforward_class(ct, s, Divisor(realized, [("x", 1)]))
