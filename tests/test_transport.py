"""Transport operations: push, concentrate, dilute, confinement, arrange."""

from fractions import Fraction as F

import pytest

from tropbn import (
    Divisor,
    PLFunction,
    Subcurve,
    TropicalCurve,
    arrange_multi,
    concentrate,
    confinement_search,
    dilute,
    push_single,
    rank_weighted,
    restrict,
    slope_bound_check,
)
from tropbn.transport import (check_arrange, check_concentrate, check_dilute,
                              check_push, r_lambda, subcurves_disjoint)


def path(*lengths):
    names = [f"v{i}" for i in range(len(lengths) + 1)]
    edges = [(f"e{i}", (names[i], names[i + 1]), l)
             for i, l in enumerate(lengths)]
    return TropicalCurve({v: 0 for v in names}, edges)


def dumbbell(bar=1, loop=1):
    return TropicalCurve({"x": 0, "y": 0},
                         [("l1", ("x", "x"), loop), ("l2", ("y", "y"), loop),
                          ("br", ("x", "y"), bar)])


def circle_with_tail():
    return TropicalCurve({"u": 0, "b": 0, "z": 0},
                         [("c1", ("u", "b"), 1), ("c2", ("u", "b"), 1),
                          ("t", ("u", "z"), 1)])


def theta_with_tail():
    return TropicalCurve({"u": 0, "v": 0, "z": 0},
                         [("e1", ("u", "v"), 1), ("e2", ("u", "v"), 1),
                          ("e3", ("u", "v"), 2), ("t", ("u", "z"), 1)])


def test_slope_bound_check():
    c = path(1, 1)
    assert slope_bound_check(PLFunction.constant(c), 0)
    tent = PLFunction(c, {"v0": 0, "v1": 0, "v2": 0},
                      {"e0": [(F(1, 2), F(1))]})
    assert slope_bound_check(tent, 2)
    assert not slope_bound_check(tent, 1)
    steep = PLFunction(c, {"v0": 0, "v1": 3, "v2": 3}, {})
    assert not slope_bound_check(steep, 2)
    assert slope_bound_check(steep, 3)


def test_r_lambda():
    c = dumbbell()
    loop = Subcurve(c, whole_edges=["l1"])
    assert loop.genus() == 1
    assert r_lambda(0, loop) == 0
    assert r_lambda(1, loop) == 2
    assert r_lambda(3, loop) == 4
    pt = Subcurve(c, ["x"])
    assert r_lambda(2, pt) == 2


def test_subcurves_disjoint():
    c = path(1, 1)
    a = Subcurve(c, whole_edges=["e0"])
    b = Subcurve(c, whole_edges=["e1"])
    assert not subcurves_disjoint(a, b)   # both are closed at v1
    inner = Subcurve(c, segments={"e1": [(F(1, 4), F(3, 4))]})
    assert subcurves_disjoint(a, inner)


def test_subcurves_disjoint_refuses_two_curves():
    # vertex names alone would read {a} and {b} disjoint and {a}, {a} not
    c = banana(1, 2)
    c2 = TropicalCurve({"a": 0, "b": 0}, [("e", ("a", "b"), 1)])
    for other in (["a"], ["b"]):
        with pytest.raises(ValueError, match="curve mismatch"):
            subcurves_disjoint(Subcurve(c, ["a"]), Subcurve(c2, other))


def test_push_trivial_cases():
    c = path(1, 1)
    D = Divisor(c, [("v0", 2)])
    whole = Subcurve.whole(c)
    res = push_single(c, D, whole, Divisor(c, [("v1", 1)]))
    assert res.divisor == D and res.witness.divisor().is_zero()
    lam = Subcurve(c, whole_edges=["e1"])
    res0 = push_single(c, D, lam, Divisor.zero(c))
    assert res0.divisor == D
    already = push_single(c, Divisor(c, [("v2", 1), ("v0", 1)]), lam,
                          Divisor(c, [("v2", 1)]))
    assert already.divisor.multiplicity("v2") == 1
    assert already.witness.divisor().is_zero()


def test_push_moves_chips_to_dominate():
    c = path(1, 1)
    D = Divisor(c, [("v0", 2)])
    lam = Subcurve(c, whole_edges=["e1"])
    E = Divisor(c, [("v2", 1)])
    res = push_single(c, D, lam, E)
    checks = check_push(c, D, lam, E, res)
    assert all(checks.values()), checks


def test_push_checks_only_the_points_it_makes(monkeypatch):
    """One push on a dumbbell passes through `TropicalCurve.point` only the
    points it makes: the three boundary points of the neighborhood and
    the far end of the one descent step.  The chips of D, E and E*, the
    base point of the reduction, the model's marks and the points where
    the witness is read are canonical already."""
    c = dumbbell(bar=3)
    D = Divisor(c, [("x", 1), ("y", 1)])
    lam = Subcurve(c, whole_edges=["l1"])
    E = Divisor(c, [(c.point("l1", F(1, 2)), 1)])
    calls = []
    point = TropicalCurve.point

    def counted(self, *args):
        calls.append(args)
        return point(self, *args)

    monkeypatch.setattr(TropicalCurve, "point", counted)
    res = push_single(c, D, lam, E, rank_checked=True)
    assert len(calls) == 4, calls
    monkeypatch.undo()
    checks = check_push(c, D, lam, E, res)
    assert all(checks.values()), checks


def test_push_respects_rank_precondition():
    c = circle_with_tail()
    D = Divisor(c, [("z", 1)])
    lam = Subcurve(c, whole_edges=["c1"])
    E = Divisor(c, [(c.point("c1", F(1, 2)), 1)])
    # a single chip has rank 0 on a genus-1 curve: cannot dominate E
    with pytest.raises(ValueError, match="rank precondition"):
        push_single(c, D, lam, E)


def test_concentrate_rank_zero_is_identity():
    c = dumbbell()
    D = Divisor(c, [("x", 1)])
    lam = Subcurve(c, whole_edges=["l1"])
    res = concentrate(c, D, lam, 0)
    assert res.divisor == D and res.region is lam


def test_concentrate_on_vertex():
    c = path(1, 1)
    D = Divisor(c, [("v0", 2)])
    lam = Subcurve(c, ["v2"])
    res = concentrate(c, D, lam, 1)
    checks = check_concentrate(c, D, lam, 1, res)
    assert all(checks.values()), checks
    assert res.divisor.multiplicity("v2") >= 1


def test_concentrate_on_loop_gains_genus_surcharge():
    # restriction must reach degree r + min(r, g) = 2 with rank 1 on the loop
    c = dumbbell(bar=1000)
    D = Divisor(c, [("y", 3)])
    assert rank_weighted(c, D) == 1
    lam = Subcurve(c, whole_edges=["l1"])
    res = concentrate(c, D, lam, 1)
    checks = check_concentrate(c, D, lam, 1, res)
    assert all(checks.values()), checks
    assert restrict(res.divisor, res.region).degree() >= 2


def test_concentrate_rejects_bad_neighborhood():
    # the loop l2 sits inside the huge neighborhood: no retraction onto l1
    c = dumbbell(bar=1)
    D = Divisor(c, [("y", 3)])
    lam = Subcurve(c, whole_edges=["l1"])
    with pytest.raises(ValueError, match="retract"):
        concentrate(c, D, lam, 1)


def test_dilute_identity_and_errors():
    c = path(1, 1, 1)
    lam = Subcurve(c, whole_edges=["e1"])
    E = Divisor(c, [("v1", 1)])
    res = dilute(c, E, lam, 1, F=E)
    assert res.divisor == E and res.witness.divisor().is_zero()
    with pytest.raises(ValueError, match="below k"):
        dilute(c, E, lam, 2, F=E)
    with pytest.raises(ValueError, match="needs F"):
        dilute(c, 3 * E, lam, 1)
    other = Divisor(c, [("v0", 2)])
    with pytest.raises(ValueError, match="not equivalent"):
        dilute(c, 3 * E, lam, 1, F=other)


def test_dilute_drains_a_segment():
    c = path(1, 1, 1)
    lam = Subcurve(c, whole_edges=["e1"])
    p = c.point("e1", F(1, 2))
    E = Divisor(c, [(p, 3)])
    # on a tree the whole pile can sit at v0, so the class drops to zero
    Fdiv = Divisor(c, [("v0", 3)])
    res = dilute(c, E, lam, 1, F=Fdiv)
    checks = check_dilute(c, E, lam, 1, res)
    assert all(checks.values()), checks
    assert slope_bound_check(res.witness, E.degree())


def test_dilute_partial_slope_ramp():
    # both chips would leave through one germ; k = 1 keeps half the flow
    c = path(1, 1, 1)
    lam = Subcurve(c, whole_edges=["e1"])
    p = c.point("e1", F(1, 2))
    E = Divisor(c, [(p, 2)])
    Fdiv = Divisor(c, [("v0", 2)])
    res = dilute(c, E, lam, 1, F=Fdiv)
    checks = check_dilute(c, E, lam, 1, res)
    assert all(checks.values()), checks
    kept = restrict(res.divisor, res.region)
    assert kept.degree() == 1


def test_dilute_radius_caps_stubs():
    c = path(1, 1, 1)
    lam = Subcurve(c, whole_edges=["e1"])
    E = Divisor(c, [(c.point("e1", F(1, 2)), 3)])
    Fdiv = Divisor(c, [("v0", 1), ("v3", 2)])
    res = dilute(c, E, lam, 2, F=Fdiv, radius=F(1, 8))
    checks = check_dilute(c, E, lam, 2, res)
    assert all(checks.values()), checks
    with pytest.raises(ValueError, match="radius"):
        dilute(c, E, lam, 2, F=Fdiv, radius=0)


def test_confinement_on_cycle():
    c = circle_with_tail()
    lam = Subcurve(c, whole_edges=["c1", "c2"])
    V = confinement_search(c, lam, 1)
    # a cycle point is confined iff it cannot slide to the tail: V - u must
    # have no effective representative
    assert rank_weighted(c, V - Divisor(c, [("u", 1)])) == -1
    # the first candidate, the attachment vertex u, is evacuated through
    # the tail, so the search returns the next one
    assert V == Divisor(c, [("b", 1)])


def test_confinement_k0_and_range():
    c = circle_with_tail()
    lam = Subcurve(c, whole_edges=["c1", "c2"])
    assert confinement_search(c, lam, 0) == Divisor.zero(c)
    with pytest.raises(ValueError, match="out of range"):
        confinement_search(c, lam, 2)


def banana(l1, l2):
    return TropicalCurve({"a": 0, "b": 0},
                         [("f", ("a", "b"), l1), ("g", ("a", "b"), l2)])


def test_subcurve_of_another_curve_is_refused():
    # same ids, other lengths: Λ lies on the 3-5 banana, not on the 1-1 one
    c = banana(1, 1)
    lam = Subcurve.whole(banana(3, 5))
    D = Divisor(c, [("a", 2)])
    with pytest.raises(ValueError, match="curve mismatch"):
        confinement_search(c, lam, 1)
    with pytest.raises(ValueError, match="curve mismatch"):
        push_single(c, D, lam, Divisor(c, [("a", 1)]))
    with pytest.raises(ValueError, match="curve mismatch"):
        dilute(c, D, lam, 1, F=D)
    # checked before the r == 0 return, which gives D back unchanged
    for r in (0, 1):
        with pytest.raises(ValueError, match="curve mismatch"):
            concentrate(c, D, lam, r)


def test_confinement_pair_on_theta():
    # theta block with a tail: evacuating a pair below degree 2 means the
    # class of V - u is effective, which the search must have ruled out
    c = theta_with_tail()
    lam = Subcurve(c, whole_edges=["e1", "e2", "e3"])
    V = confinement_search(c, lam, 2, budget=20000)
    assert V.degree() == 2
    assert restrict(V, lam).degree() == 2
    assert rank_weighted(c, V - Divisor(c, [("u", 1)])) == -1


def test_confinement_budget_runs_out():
    c = theta_with_tail()
    lam = Subcurve(c, whole_edges=["e1", "e2", "e3"])
    # a survivor must withstand every attack, which takes more than one
    # reduction; with none, no candidate is tried
    assert confinement_search(c, lam, 2, budget=1) is None
    assert confinement_search(c, lam, 1, budget=0) is None


def test_arrange_refuses_when_the_budget_runs_out():
    c = theta_with_tail()
    lam = Subcurve(c, whole_edges=["e1", "e2", "e3"])
    D = Divisor(c, [("u", 2), ("v", 2)])
    assert rank_weighted(c, D) >= 2
    with pytest.raises(ValueError, match="exhausted its budget"):
        arrange_multi(c, D, [lam], [2], budget=1)


def test_arrange_on_path_endpoints():
    c = path(1, 1)
    D = Divisor(c, [("v1", 4)])
    lams = [Subcurve(c, ["v0"]), Subcurve(c, ["v2"])]
    res = arrange_multi(c, D, lams, [1, 1])
    checks = check_arrange(c, D, lams, [1, 1], res)
    assert all(checks.values()), checks
    assert len(res.pinned) == 2
    assert all(U.degree() == 1 for U in res.pinned)


def test_arrange_validates_inputs():
    c = path(1, 1)
    D = Divisor(c, [("v1", 4)])
    lams = [Subcurve(c, ["v0"]), Subcurve(c, ["v2"])]
    with pytest.raises(ValueError, match="one target"):
        arrange_multi(c, D, lams, [1])
    with pytest.raises(ValueError, match="rank precondition"):
        arrange_multi(c, Divisor(c, [("v1", 1)]), lams, [1, 1])
    clash = [Subcurve(c, ["v0"]), Subcurve(c, ["v0"])]
    with pytest.raises(ValueError, match="overlap"):
        arrange_multi(c, D, clash, [1, 1])


def test_arrange_on_dumbbell_loops():
    # bar longer than twice the concentration radius 1 * (3*4)^4 keeps the
    # two loop neighborhoods disjoint
    c = dumbbell(bar=41473, loop=2)
    D = Divisor(c, [("x", 2), ("y", 2)])
    assert rank_weighted(c, D) == 2
    lams = [Subcurve(c, whole_edges=["l1"]), Subcurve(c, whole_edges=["l2"])]
    res = arrange_multi(c, D, lams, [1, 1])
    checks = check_arrange(c, D, lams, [1, 1], res)
    ext = {k: v for k, v in checks.items() if k != "equivalent"}
    assert all(ext.values()), checks
    assert checks["equivalent"]
    for reg in res.regions:
        assert restrict(res.divisor, reg).degree() >= 2
