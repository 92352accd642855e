"""Brill-Noether rank on the lattice and the degeneration experiments."""

import itertools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from tropbn import (
    BNQuery,
    CombinatorialType,
    DegenerationSpec,
    Divisor,
    TropicalCurve,
    bn_rank,
    run_closedness_experiment,
    run_usc_experiment,
    wdr_member,
)
from tropbn import kernel
from tropbn.brill_noether import BNResult, _BNEngine, bn_rank_detail
from tropbn.rank import _RankEngine


def rose(g):
    return TropicalCurve({"v": g}, [])


def circle():
    return TropicalCurve({"a": 0, "b": 0},
                         [("e1", ("a", "b"), 1), ("e2", ("a", "b"), 1)])


def k4():
    vs = ["a", "b", "c", "d"]
    edges = [(f"{u}{v}", (u, v), 1) for u, v in itertools.combinations(vs, 2)]
    return TropicalCurve({v: 0 for v in vs}, edges)


def dumbbell_type():
    return CombinatorialType(
        [("x", 0), ("y", 0)],
        [("l1", ("x", "x")), ("l2", ("y", "y")), ("br", ("x", "y"))])


def test_query_validation():
    with pytest.raises(ValueError):
        BNQuery(d=2, r=1, resolution=0)
    with pytest.raises(ValueError):
        BNQuery(d=2, r=-1)
    with pytest.raises(ValueError):
        BNQuery(d=-1, r=0)


def test_wdr_member_weighted_point():
    c = rose(3)
    D = Divisor(c, [("v", 4)])
    assert wdr_member(c, D, 0)
    assert wdr_member(c, D, 2)
    assert not wdr_member(c, D, 3)


def test_rank_zero_shortcut():
    res = bn_rank_detail(circle(), BNQuery(d=7, r=0, resolution=5))
    assert res.rho == 7
    assert res.counterexample is None


def test_degree_below_rank_target():
    assert bn_rank(circle(), BNQuery(d=1, r=2)) == -1


def test_class_ok_reduces_each_class_once():
    """`_class_ok` hands the engine the q-reduced vector it made, and the
    engine does not reduce it again: no vector that `_class_ok` reduced at
    q reaches the kernel at q from inside `rank_at_least`."""
    own, engine_inputs = set(), []
    inside = {"_class_ok": 0, "rank_at_least": 0}
    real_reduce = kernel.reduce_divisor

    def reduce_divisor(indptr, nbrs, div, q, **kwargs):
        if inside["rank_at_least"]:
            engine_inputs.append((tuple(div), q))
        out = real_reduce(indptr, nbrs, div, q, **kwargs)
        if inside["_class_ok"] and not inside["rank_at_least"]:
            own.add((tuple(out[0]), q))
        return out

    def counted(cls, name):
        real = getattr(cls, name)

        def method(*args):
            inside[name] += 1
            try:
                return real(*args)
            finally:
                inside[name] -= 1
        return method

    with mock.patch.object(kernel, "reduce_divisor", reduce_divisor), \
            mock.patch.object(_BNEngine, "_class_ok",
                              counted(_BNEngine, "_class_ok")), \
            mock.patch.object(_RankEngine, "rank_at_least",
                              counted(_RankEngine, "rank_at_least")):
        res = bn_rank_detail(k4(), BNQuery(d=2, r=1, resolution=2))
    assert res.rho == -1
    assert res.counterexample == Divisor(res.counterexample.curve, [("a", 1)])
    assert own and engine_inputs
    assert not own.intersection(engine_inputs)


def test_rank_memo_answers_a_repeated_class():
    """A class that `_class_ok` meets again costs one kernel call, its own
    reduction: the rank engine's memo, keyed by the q-reduced form, answers
    it, for the same vector and for another vector of the class."""
    eng = _BNEngine(k4(), BNQuery(d=2, r=1, resolution=2))
    model = eng.engine.model
    vec = [0] * model.n
    vec[model.vertex_index("a")] = vec[model.vertex_index("b")] = 1
    # fire vertex a once: another vector of the same class
    a = model.vertex_index("a")
    fired = list(vec)
    for j in model.nbrs[model.indptr[a]:model.indptr[a + 1]]:
        fired[a] -= 1
        fired[j] += 1
    real_reduce, calls = kernel.reduce_divisor, []

    def reduce_divisor(*args, **kwargs):
        calls.append(args)
        return real_reduce(*args, **kwargs)

    with mock.patch.object(kernel, "reduce_divisor", reduce_divisor):
        first = eng._class_ok(vec)
        assert len(calls) > 1   # the reduction, then the rank search
        for again in (vec, fired):
            del calls[:]
            assert eng._class_ok(again) == first
            assert len(calls) == 1


def test_rose_consistency():
    # on R_g every divisor is a multiple of v, so the answer is closed-form:
    # d - r when d >= r + min(r, g), otherwise -1
    for g in range(4):
        c = rose(g)
        for d in range(7):
            for r in range(4):
                expected = d - r if d >= r + min(r, g) else -1
                assert bn_rank(c, BNQuery(d=d, r=r)) == expected, (g, d, r)


def test_circle_values():
    c = circle()
    assert bn_rank(c, BNQuery(d=2, r=1, resolution=2)) == 1
    detail = bn_rank_detail(c, BNQuery(d=1, r=1, resolution=4))
    assert detail.rho == -1
    assert detail.resolution == 4
    assert detail.counterexample is not None
    assert detail.counterexample.degree() == 1


def test_k4_degree_three():
    c = k4()
    assert bn_rank(c, BNQuery(d=3, r=0, resolution=2)) == 3
    assert bn_rank(c, BNQuery(d=3, r=1, resolution=2)) == 1
    assert bn_rank(c, BNQuery(d=3, r=2, resolution=2)) == -1


@st.composite
def small_curves(draw):
    """1-3 vertices on a path, 0-2 extra edges (loops allowed), mixed
    lengths, some vertices of weight 1."""
    n = draw(st.integers(1, 3))
    vs = [f"v{i}" for i in range(n)]
    ends = [(vs[i], vs[i + 1]) for i in range(n - 1)]
    ends += draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)),
                          max_size=2))
    lengths = st.sampled_from([F(1), F(2), F(1, 2), F(3, 2)])
    edges = [(f"e{i}", uv, draw(lengths)) for i, uv in enumerate(ends)]
    weights = {v: draw(st.integers(0, 1)) for v in vs}
    return TropicalCurve(weights, edges)


def enumerated(curve, query, f_search=False):
    """The lattice enumeration, run without the Riemann-Roch answers of
    `bn_rank_detail`; with `f_search`, every E is extended by the F search."""
    eng = _BNEngine(curve, query)
    if f_search:
        eng.canonical = None
    for level in range(query.d - query.r + 1):
        bad = eng.first_failure(level)
        if bad is not None:
            return level - 1, eng.divisor_of(bad)
    return query.d - query.r, None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(curve=small_curves(), d=st.integers(1, 5), r=st.integers(1, 3),
       resolution=st.integers(1, 2))
def test_riemann_roch_answer_matches_enumeration(curve, d, r, resolution):
    """Where d - g >= r, the closed form d - r is the enumeration."""
    assume(d - (curve.betti() + curve.total_weight()) >= r)
    query = BNQuery(d=d, r=r, resolution=resolution)
    res = bn_rank_detail(curve, query)
    assert (res.rho, res.counterexample) == enumerated(curve, query)
    assert (res.rho, res.counterexample) == (d - r, None)
    event(f"weighted={bool(curve.total_weight())}")


def first_failure_result(curve, query):
    """`BNResult` of the enumeration when its first level already fails."""
    eng = _BNEngine(curve, query)
    return BNResult(-1, query.resolution, eng.divisor_of(eng.first_failure(0)))


@pytest.mark.parametrize("curve, d, r", [
    (k4(), 3, 2),                                    # Clifford: 2r > d
    (TropicalCurve({"a": 1, "b": 0},
                   [("e1", ("a", "b"), 1), ("e2", ("a", "b"), F(1, 2))]), 1, 1),
    (TropicalCurve({"a": 1, "b": 0},
                   [("e1", ("a", "b"), 1), ("e2", ("a", "b"), F(1, 2))]), 3, 2),
], ids=["k4-clifford", "weighted-clifford", "weighted-above-canonical"])
@pytest.mark.parametrize("resolution", [1, 2])
def test_empty_brill_noether_locus_is_the_enumerations_answer(curve, d, r,
                                                              resolution):
    """Where no class of degree d has rank r, the answer built without a
    lattice is the one the enumeration finds: rho = -1 and r times the
    least vertex, a divisor of the curve that was asked about, weighted or
    not."""
    query = BNQuery(d=d, r=r, resolution=resolution)
    res = bn_rank_detail(curve, query)
    assert res == first_failure_result(curve, query)
    assert res.counterexample.curve is curve
    assert (res.rho, res.counterexample.degree()) == (-1, r)


def test_empty_brill_noether_locus_builds_no_engine():
    """d - g < r above 2g - 2: every class has rank d - g, so W^r_d is
    empty whatever d is, and nothing is enumerated."""
    c = k4()
    with mock.patch("tropbn.brill_noether._BNEngine",
                    side_effect=AssertionError("enumerated")):
        res = bn_rank_detail(c, BNQuery(d=10 ** 6, r=10 ** 6 - 2))
    assert res == BNResult(-1, 1, Divisor(c, [("a", 10 ** 6 - 2)]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(curve=small_curves(), d=st.integers(1, 5), r=st.integers(1, 3),
       resolution=st.integers(1, 2))
def test_empty_brill_noether_locus_matches_enumeration(curve, d, r, resolution):
    """Where r exceeds d // 2 (d <= 2g - 2) or d - g (above), the answer is
    the enumeration's, counterexample included."""
    g = curve.betti() + curve.total_weight()
    assume(d >= r > (d // 2 if d <= 2 * g - 2 else d - g))
    query = BNQuery(d=d, r=r, resolution=resolution)
    res = bn_rank_detail(curve, query)
    assert (res.rho, res.counterexample) == enumerated(curve, query)
    event(f"weighted={bool(curve.total_weight())}")


def chain_of_loops(arcs):
    """Loop i joins a_i and b_i by arcs of lengths 1 and arcs[i]; bridges
    b_{i-1}-a_i have length 1."""
    weights, edges = {}, []
    for i, ell in enumerate(arcs):
        weights[f"a{i}"] = weights[f"b{i}"] = 0
        edges += [(f"u{i}", (f"a{i}", f"b{i}"), 1),
                  (f"l{i}", (f"a{i}", f"b{i}"), ell)]
        if i:
            edges.append((f"br{i}", (f"b{i - 1}", f"a{i}"), 1))
    return TropicalCurve(weights, edges)


@pytest.mark.parametrize("resolution", [1, 2])
def test_riemann_roch_family_on_a_chain_of_loops(resolution):
    """With r = d - g + 1 on a pure curve the value is 2g - 2 - d: an
    extension exists for each E of degree g - 1, off the grid too."""
    c = chain_of_loops([F(7, 3), F(11, 5), F(13, 4)])
    assert bn_rank(c, BNQuery(d=4, r=2, resolution=resolution)) == 0
    assert bn_rank(c, BNQuery(d=3, r=1, resolution=resolution)) == 1


def test_riemann_roch_family_on_a_genus_four_chain():
    c = chain_of_loops([F(7, 3), F(11, 5), F(13, 4), F(17, 6)])
    assert bn_rank(c, BNQuery(d=5, r=2, resolution=1)) == 1


def test_riemann_roch_family_keeps_k4_counterexamples():
    a2b = Divisor(k4(), [("a", 2), ("b", 1)])
    for d, r, n, rho in [(4, 2, 2, 0), (3, 1, 3, 1)]:
        res = bn_rank_detail(k4(), BNQuery(d=d, r=r, resolution=n))
        assert (res.rho, res.counterexample) == (rho, a2b)


def test_riemann_roch_family_stops_at_the_canonical_degree():
    """Above 2g - 2 no class has rank d - g + 1, although K - E can be
    effective: on a bouquet of two loops at N = 1 the grid is the vertex v,
    K = 2v, and for d = 3, r = 2 the only E of degree 2 is K itself."""
    c = TropicalCurve({"v": 0}, [("x", ("v", "v"), 1), ("y", ("v", "v"), 2)])
    assert bn_rank(c, BNQuery(d=3, r=2, resolution=1)) == -1


@pytest.mark.parametrize("resolution", [1, 2])
def test_weighted_curves_keep_the_f_search(resolution):
    """A weighted curve with r = d - g + 1 is outside the Riemann-Roch
    family: its E and F live on the metric graph, while K - E may need
    chips on the virtual loops."""
    c = TropicalCurve({"v0": 0, "v1": 1},
                      [("e0", ("v0", "v1"), 1), ("e1", ("v0", "v0"), 1),
                       ("e2", ("v1", "v0"), F(1, 2))])
    query = BNQuery(d=4, r=2, resolution=resolution)
    res = bn_rank_detail(c, query)
    assert (res.rho, res.counterexample) == enumerated(c, query, f_search=True)
    if resolution == 1:   # a divisor of c, not of its loop presentation
        assert res.rho == 0
        assert res.counterexample == Divisor(c, [("v0", 3)])


@st.composite
def pure_curves(draw, lengths):
    """Pure curves of genus 2 or 3: 1-3 vertices on a path and g more
    edges (loops allowed), with lengths drawn from `lengths`."""
    n = draw(st.integers(1, 3))
    vs = [f"v{i}" for i in range(n)]
    ends = [(vs[i], vs[i + 1]) for i in range(n - 1)]
    ends += draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)),
                          min_size=2, max_size=3))
    edges = [(f"e{i}", uv, draw(lengths)) for i, uv in enumerate(ends)]
    return TropicalCurve({v: 0 for v in vs}, edges)


MIXED = st.sampled_from([F(1), F(2), F(1, 2), F(3, 2), F(2, 3), F(5, 3),
                         F(3, 4)])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(curve=pure_curves(MIXED), data=st.data())
def test_riemann_roch_family_reaches_the_metric_value(curve, data):
    """For r = d - g + 1 and d <= 2g - 2 the answer is at least 2g - 2 - d
    at N = 1 and 2, whatever the edge lengths."""
    g = curve.betti()
    d = data.draw(st.integers(g, 2 * g - 2), label="d")
    for resolution in (1, 2):
        got = bn_rank(curve, BNQuery(d=d, r=d - g + 1, resolution=resolution))
        assert got >= 2 * g - 2 - d, (d, resolution, got)
    event(f"g={g}")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(curve=pure_curves(st.just(F(1))), data=st.data())
def test_riemann_roch_family_matches_the_f_search_on_unit_lengths(curve, data):
    """On unit lengths at N = 2 the one-reduction test gives the F search's
    answer and counterexample (measured, not proven)."""
    g = curve.betti()
    d = data.draw(st.integers(g, 2 * g - 2), label="d")
    query = BNQuery(d=d, r=d - g + 1, resolution=2)
    res = bn_rank_detail(curve, query)
    assert (res.rho, res.counterexample) == enumerated(curve, query,
                                                       f_search=True)
    event(f"g={g}")


def test_monotone_in_r():
    c = circle()
    vals = [bn_rank(c, BNQuery(d=3, r=r, resolution=2)) for r in range(3)]
    assert vals == sorted(vals, reverse=True)


def test_spec_validation():
    ct = dumbbell_type()
    with pytest.raises(ValueError, match="unknown contracted"):
        DegenerationSpec(ct, contracted=("zz",))
    with pytest.raises(ValueError, match="one step"):
        DegenerationSpec(ct, steps=0)
    with pytest.raises(ValueError, match="rate"):
        DegenerationSpec(ct, rate=1)
    with pytest.raises(ValueError, match="unknown edge"):
        DegenerationSpec(ct, base={"zz": 2})
    with pytest.raises(ValueError, match="positive"):
        DegenerationSpec(ct, base={"l1": 0})
    spec = DegenerationSpec(ct, contracted=("l1",))
    with pytest.raises(ValueError):
        spec.lengths_at(0)


def test_spec_family_geometry():
    ct = dumbbell_type()
    spec = DegenerationSpec(ct, contracted=("l1",), steps=3,
                            base={"br": 2})
    assert spec.lengths_at(2) == [spec.rate ** 2, 1, 2]
    assert spec.limit_lengths() == [0, 1, 2]
    limit, beta = spec.limit()
    assert limit.weight("x") == 1
    assert "l1" not in limit.edges()


def test_closedness_on_dumbbell():
    # contracting one loop: the limit vertex picks up weight 1 and the
    # pattern 2x keeps rank 1 there
    ct = dumbbell_type()
    spec = DegenerationSpec(ct, contracted=("l1",),
                            pattern=(("x", 2),), steps=4)
    report = run_closedness_experiment(spec, d=2, r=1)
    assert report["pass"] and not report["vacuous"]
    assert [s["rank"] for s in report["steps"]] == [1, 1, 1, 1]
    assert report["limit"]["weights"] == {"x": 1, "y": 0}
    assert report["limit"]["rank"] == 1
    with pytest.raises(ValueError, match="degree"):
        run_closedness_experiment(spec, d=3, r=1)


def test_closedness_without_contraction():
    ct = dumbbell_type()
    spec = DegenerationSpec(ct, pattern=(("x", 2),), steps=2)
    report = run_closedness_experiment(spec, d=2, r=1)
    assert report["pass"]
    assert report["limit"]["lengths"] == {"l1": 1, "l2": 1, "br": 1}


def test_closedness_vacuous_run():
    # a single chip has rank 0 along the family, so nothing is claimed
    ct = dumbbell_type()
    spec = DegenerationSpec(ct, contracted=("l1",),
                            pattern=(("x", 1),), steps=2)
    report = run_closedness_experiment(spec, d=1, r=1)
    assert report["vacuous"] and report["pass"]


@st.composite
def closedness_cases(draw):
    """A family over a random type and a pattern of degree d <= 4.

    The type has 1-3 vertices on a path plus up to two more edges (loops
    allowed) and weights 0 or 1; base lengths are mixed, a random edge set
    is contracted, and the pattern puts chips on vertices and edge interiors
    of the all-ones curve.  r runs from min(d, 1) to d, so some runs are
    vacuous.
    """
    n = draw(st.integers(1, 3))
    vs = [f"v{i}" for i in range(n)]
    ends = [(vs[i], vs[i + 1]) for i in range(n - 1)]
    ends += draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)),
                          max_size=2))
    es = [f"e{i}" for i in range(len(ends))]
    ct = CombinatorialType([(v, draw(st.integers(0, 1))) for v in vs],
                           list(zip(es, ends)))
    lengths = st.sampled_from([F(1), F(2), F(1, 2), F(3, 2), F(2, 3)])
    base = {e: draw(lengths) for e in es}
    contracted = tuple(e for e in es if draw(st.booleans()))
    spots = vs + [(e, x) for e in es for x in (F(1, 3), F(1, 2))]
    pattern = draw(st.lists(st.tuples(st.sampled_from(spots),
                                      st.sampled_from([1, 1, 2, -1])),
                            min_size=1, max_size=4))
    d = sum(m for _, m in pattern)
    assume(0 <= d <= 4)
    spec = DegenerationSpec(ct, contracted=contracted, pattern=pattern,
                            steps=3, base=base)
    return spec, d, draw(st.integers(min(d, 1), d))


def test_closedness_on_random_families():
    """The paper's closedness theorem: a class of rank >= r along the
    family keeps rank >= r in the limit.

    The USC driver is not drawn at random yet: the lattice Brill-Noether
    rank can fall below the true one on mixed lengths, which can make its
    premise false (ROADMAP direction 1).
    """
    claims = []

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=closedness_cases())
    def check(case):
        spec, d, r = case
        report = run_closedness_experiment(spec, d, r)
        assert report["pass"]
        claims.append(not report["vacuous"] and r >= 1 and bool(spec.contracted))

    check()
    # runs whose premise holds, with r >= 1 and an edge contracted, are
    # the ones that test the theorem
    assert claims.count(True) >= 60, claims.count(True)


def test_usc_circle_to_weighted_point():
    ct = CombinatorialType([("a", 0), ("b", 0)],
                           [("e1", ("a", "b")), ("e2", ("a", "b"))])
    spec = DegenerationSpec(ct, contracted=("e1", "e2"), steps=3)
    report = run_usc_experiment(spec, d=2, r=1, rho=1, resolution=3)
    assert report["premise"] and report["pass"]
    assert all(s["bn_rank"] == 1 for s in report["steps"])
    assert report["limit"]["bn_rank"] == 1
    assert report["limit"]["weights"] == {"a": 1}


def test_usc_two_loops_to_genus_two_point():
    ct = dumbbell_type()
    spec = DegenerationSpec(ct, contracted=("l1", "l2", "br"), steps=3)
    report = run_usc_experiment(spec, d=2, r=1, rho=0, resolution=2)
    assert report["pass"] and report["premise"]
    assert all(s["bn_rank"] == 0 for s in report["steps"])
    # the limit is a weight-2 point where 2v has rank 1: the rank jumps up
    assert report["limit"]["weights"] == {"x": 2}
    assert report["limit"]["bn_rank"] == 1
