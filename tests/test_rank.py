"""Reduced divisors and the rank zoo: pure, weighted, loops, A-rank."""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import tropbn as tb
from tropbn import (
    Divisor,
    TropicalCurve,
    canonical,
    genus,
    loopless_model,
    rank_pure,
    rank_weighted,
    rank_weighted_loops,
    reduced_divisor,
    rose_rank,
    weighted_A_rank,
)
from tropbn import _kernel_py, kernel
from tropbn import rank as rank_module
from tropbn.models import IntegerModel
from tropbn.rank import _RankEngine, _bounded_sums

from oracles import GraphRankOracle, reference_rank, small_multigraphs

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def triangle():
    return TropicalCurve({"v1": 0, "v2": 0, "v3": 0},
                         [("a", ("v1", "v2"), 1), ("b", ("v2", "v3"), 1),
                          ("c", ("v3", "v1"), 1)])


def circle():
    return TropicalCurve({"a": 0, "b": 0},
                         [("e1", ("a", "b"), 1), ("e2", ("a", "b"), 1)])


def rose(g):
    return TropicalCurve({"v": g}, [])


def random_curve(rng, max_v=5, max_extra=3, max_w=2):
    n = rng.randint(1, max_v)
    names = [f"v{i}" for i in range(n)]
    weights = {v: rng.randint(0, max_w) for v in names}
    lengths = [F(1), F(2), F(1, 2), F(3, 4)]
    edges = []
    for i in range(1, n):
        edges.append((f"t{i}", (names[rng.randrange(i)], names[i]),
                      rng.choice(lengths)))
    for j in range(rng.randint(0, max_extra)):
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append((f"x{j}", (names[u], names[v]), rng.choice(lengths)))
    return TropicalCurve(weights, edges)


def random_divisor(rng, curve, span=4):
    chips = []
    for _ in range(rng.randint(0, span)):
        v = rng.choice(curve.vertices())
        chips.append((v, rng.choice([-1, 1, 1, 2])))
    if rng.random() < 0.5 and curve.edges():
        e = rng.choice(curve.edges())
        chips.append((curve.point(e, curve.length(e) / 3), 1))
    return Divisor(curve, chips)


def test_reduce_fixed_point():
    c = triangle()
    D = Divisor(c, [("v2", 3)])
    red, f = reduced_divisor(c, D, "v2")
    assert red == D
    assert f.divisor().is_zero()


def test_reduce_tree_collects_everything():
    tree = TropicalCurve({"a": 0, "b": 0, "c": 0},
                         [("e1", ("a", "b"), 1), ("e2", ("b", "c"), F(1, 2))])
    D = Divisor(tree, [("a", 1), ("c", 2)])
    red, f = reduced_divisor(tree, D, "b")
    assert red == Divisor(tree, [("b", 3)])
    assert (D + f.divisor() - red).is_zero()


def test_reduce_triangle_brute_force():
    """2·v1 reduced at v2, cross-checked against the lattice oracle."""
    c = triangle()
    red, _ = reduced_divisor(c, Divisor(c, [("v1", 2)]), "v2")
    assert red.degree() == 2
    # q-reduced: effective away from q here since deg > 0 and rank >= 0
    assert red.is_effective()
    assert GraphRankOracle(3, [(0, 1), (1, 2), (2, 0)]).rank([2, 0, 0]) \
        == rank_pure(c, Divisor(c, [("v1", 2)]))


def test_reduced_form_is_stable():
    rng = random.Random(7)
    for _ in range(25):
        c = random_curve(rng, max_w=0)
        D = random_divisor(rng, c)
        q = rng.choice(c.vertices())
        once, _ = reduced_divisor(c, D, q)
        twice, _ = reduced_divisor(c, once, q)
        assert once == twice


def test_rank_negative_degree():
    assert rank_pure(circle(), Divisor(circle(), [("a", -1)])) == -1


def test_rank_circle_degree_two():
    c = circle()
    assert rank_pure(c, Divisor(c, [("a", 2)])) == 1
    assert rank_pure(c, Divisor(c, [("a", 1)])) == 0
    assert rank_pure(c, Divisor(c, [("a", 1), ("b", 1)])) == 1


def test_rank_is_class_invariant():
    c = circle()
    D = Divisor(c, [(c.point("e1", F(1, 3)), 1), (c.point("e2", F(2, 3)), 1)])
    red, _ = reduced_divisor(c, D, "a")
    assert rank_pure(c, D) == rank_pure(c, red)


def test_rose_formula():
    for g in range(6):
        for d in range(-1, 13):
            want = -1 if d < 0 else (d - g if d > 2 * g else d // 2)
            assert rose_rank(g, d) == want
            assert rank_weighted(rose(g), Divisor(rose(g), {"v": d})) == want


def test_rose_specific_values():
    assert rose_rank(3, 7) == 4
    assert rose_rank(3, 5) == 2
    assert rose_rank(0, 9) == 9


def test_weighted_equals_pure_when_unweighted():
    rng = random.Random(3)
    for _ in range(20):
        c = random_curve(rng, max_w=0)
        D = random_divisor(rng, c)
        assert rank_weighted(c, D) == rank_pure(c, D)


def test_weighted_equals_loop_presentation():
    rng = random.Random(11)
    for _ in range(25):
        c = random_curve(rng, max_v=4, max_extra=2)
        D = random_divisor(rng, c)
        w = rank_weighted(c, D)
        for eps in (F(1), F(1, 2)):
            assert rank_weighted_loops(c, D, eps) == w


def test_weighted_theta_example():
    c = TropicalCurve({"v1": 1, "v2": 0},
                      [("e1", ("v1", "v2"), 1), ("e2", ("v1", "v2"), 1),
                       ("e3", ("v1", "v2"), 1)])
    D = Divisor(c, [("v1", 2)])
    assert rank_weighted(c, D) == rank_weighted_loops(c, D, 1)


def test_canonical_degree_and_values():
    K = canonical(circle())
    assert K.is_zero()
    assert K.degree() == 2 * genus(circle()) - 2
    th = TropicalCurve({"v1": 0, "v2": 0},
                       [(f"e{i}", ("v1", "v2"), 1) for i in range(1, 4)])
    assert canonical(th) == Divisor(th, [("v1", 1), ("v2", 1)])
    assert canonical(rose(4)) == Divisor(rose(4), [("v", 6)])


def test_riemann_roch_weighted_sample():
    rng = random.Random(20)
    for _ in range(40):
        c = random_curve(rng)
        D = random_divisor(rng, c)
        K = canonical(c)
        assert rank_weighted(c, D) - rank_weighted(c, K - D) \
            == D.degree() - genus(c) + 1


def model_vertex_points(c):
    """Vertices of the loopless model, as points of the original curve."""
    pts = [c.point(v) for v in c.vertices()]
    for e in c.edges():
        if c.is_loop(e):
            pts.append(c.point(e, c.length(e) / 2))
    return pts


def test_a_rank_vertex_set_matches_weighted():
    rng = random.Random(5)
    for _ in range(25):
        c = random_curve(rng, max_v=4, max_extra=2)
        D = random_divisor(rng, c)
        model, _, _ = loopless_model(c)
        A = model_vertex_points(c)
        assert len(A) == len(model.vertices())
        assert weighted_A_rank(c, D, A) == rank_weighted(c, D)


def test_a_rank_on_rose():
    g, d = 3, 5
    c = rose(g)
    D = Divisor(c, {"v": d})
    assert weighted_A_rank(c, D, ["v"]) == rose_rank(g, d)
    assert weighted_A_rank(c, D, ["v"]) == rank_weighted(c, D)


def test_a_rank_with_a_bare_loop(monkeypatch):
    """A on loop l1 and at both vertices, while loop l2 at the weight-1
    vertex y holds no mark: the model leaves l2 out, the A-rank agrees with
    `rank_weighted`, and each A point passes through `TropicalCurve.point`
    once."""
    c = TropicalCurve({"x": 0, "y": 1},
                      [("l1", ("x", "x"), 1), ("l2", ("y", "y"), F(3, 2)),
                       ("br", ("x", "y"), 1)])
    p, p2 = c.point("l1", F(1, 3)), c.point("l1", F(1, 2))
    A = ["x", p, p2, "y"]
    divisors = [canonical(c), Divisor(c, [("y", 3)]), Divisor(c, [("x", 1), (p, 1)]),
                Divisor(c, [("y", 2)]), Divisor(c, [(p, 2), ("y", -1)]),
                Divisor(c, [("x", 2), ("y", 1)]), Divisor(c, [(p2, 1), (p, 1)])]
    want = [rank_weighted(c, D) for D in divisors]
    calls = []
    point = TropicalCurve.point

    def counted(self, *args):
        calls.append(args)
        return point(self, *args)

    monkeypatch.setattr(TropicalCurve, "point", counted)
    for D, r in zip(divisors, want):
        calls.clear()
        assert weighted_A_rank(c, D, A) == r, D
        assert len(calls) == len(A)
        assert "l2" not in c._lattice_slot[1]["_paths"]


def test_rank_matches_oracle_spot_checks():
    shapes = [
        (3, [(0, 1), (1, 2), (2, 0), (0, 1)]),
        (2, [(0, 1), (0, 1), (0, 0)]),
        (4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]),
    ]
    for n, edges in shapes:
        names = [f"v{i}" for i in range(n)]
        c = TropicalCurve({v: 0 for v in names},
                          [(f"e{k}", (names[u], names[v]), 1)
                           for k, (u, v) in enumerate(edges)])
        oracle = GraphRankOracle(n, edges)
        for d in range(4):
            for combo in itertools.combinations_with_replacement(range(n), d):
                vec = [0] * n
                for i in combo:
                    vec[i] += 1
                D = Divisor(c, {names[i]: m for i, m in enumerate(vec) if m})
                assert rank_pure(c, D) == oracle.rank(vec)


def test_rank_far_above_canonical_degree():
    """deg 1200 on the banana: a search would recurse once per chip."""
    c = circle()
    D = Divisor(c, [("a", 1200)])
    assert rank_pure(c, D) == rank_weighted(c, D) == 1199


def test_rank_above_canonical_degree_matches_oracle():
    """Degrees 2g - 1 .. 2g + 1, where Riemann-Roch answers without a search."""
    rng = random.Random(11)
    for n, edges in small_multigraphs(max_vertices=4, max_edges=4):
        g = len(edges) - n + 1
        names = [f"v{i}" for i in range(n)]
        c = TropicalCurve({v: 0 for v in names},
                          [(f"e{k}", (names[u], names[v]), 1)
                           for k, (u, v) in enumerate(edges)])
        oracle = GraphRankOracle(n, edges, max_degree=0)
        for d in (2 * g - 1, 2 * g, 2 * g + 1):
            vec = [rng.randint(-1, 2) for _ in range(n)]
            vec[rng.randrange(n)] += d - sum(vec)
            D = Divisor(c, {names[i]: m for i, m in enumerate(vec) if m})
            assert rank_pure(c, D) == oracle.rank(vec)


def test_weighted_rank_above_canonical_degree_matches_search():
    """rank_weighted answers deg > 2g_w - 2 by weighted Riemann-Roch
    (g_w = b1 + Σ w) without building a model; the engine still searches."""
    rng = random.Random(12)
    for n, edges in small_multigraphs(max_vertices=3, max_edges=3):
        names = [f"v{i}" for i in range(n)]
        for weights in itertools.product(range(3), repeat=n):
            if sum(weights) > 2:
                continue
            c = TropicalCurve(dict(zip(names, weights)),
                              [(f"e{k}", (names[u], names[v]), 1)
                               for k, (u, v) in enumerate(edges)])
            g = c.betti() + c.total_weight()
            # degree 2g - 2 still searches; K is where rank g - 1 shows
            assert rank_weighted(c, canonical(c)) == g - 1
            for d in (2 * g - 1, 2 * g, 2 * g + 1):
                chips = [(rng.choice(names), rng.choice([-1, 1, 2]))
                         for _ in range(rng.randint(0, 3))]
                if edges:
                    chips.append((c.point("e0", F(1, 2)), rng.randint(-1, 1)))
                D = Divisor(c, chips)
                D = D + Divisor(c, [(names[0], d - D.degree())])
                engine = _RankEngine(c, marks=D.support())
                assert rank_weighted(c, D) == engine.weighted_rank(D) == d - g


LENGTHS = (F(1), F(2), F(1, 2), F(3, 4))


@st.composite
def curves_and_divisors(draw):
    """A curve of weighted genus at most 3 with mixed edge lengths, loops
    and vertex weights, and a divisor of degree -1 .. 2g - 1 with chips at
    vertices and inside edges."""
    n = draw(st.integers(1, 3))
    names = [f"v{i}" for i in range(n)]
    b1 = draw(st.integers(0, 3))
    weights = [0] * n
    for _ in range(draw(st.integers(0, 3 - b1))):
        weights[draw(st.integers(0, n - 1))] += 1
    edges = [(f"t{i}", (names[draw(st.integers(0, i - 1))], names[i]),
              draw(st.sampled_from(LENGTHS))) for i in range(1, n)]
    for j in range(b1):
        # u == v makes a loop
        ends = (draw(st.sampled_from(names)), draw(st.sampled_from(names)))
        edges.append((f"x{j}", ends, draw(st.sampled_from(LENGTHS))))
    c = TropicalCurve(dict(zip(names, weights)), edges)
    g = genus(c)
    d = draw(st.integers(-1, max(-1, 2 * g - 1)))
    chips = [(draw(st.sampled_from(names)), draw(st.integers(-1, 2)))
             for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0, 2)) if edges else 0):
        e = draw(st.sampled_from([e for e, _, _ in edges]))
        at = c.length(e) * draw(st.sampled_from((F(1, 4), F(1, 2), F(3, 4))))
        chips.append((c.point(e, at), draw(st.integers(-1, 1))))
    D = Divisor(c, chips)
    return c, D + Divisor(c, [(draw(st.sampled_from(names)), d - D.degree())])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(curves_and_divisors())
def test_search_agrees_with_the_reference_search(kernel_backend, case):
    """`rank_vector`, `rank_at_least` and `weighted_rank`, with their
    Clifford cap and debt-free child tests, answer as the plain search of
    `oracles.reference_rank` on the unit-graph kernel, on either kernel."""
    c, D = case
    with mock.patch.object(kernel, "reduce_divisor",
                           kernel_backend.reduce_divisor):
        engine = _RankEngine(c, marks=D)
        model = engine.model
        vec = model.divisor_vector(D)
        want = reference_rank(model, vec)
        assert engine.rank_vector(vec) == want
        red = tuple(model.reduce_vector(vec, engine.q)[0])
        for r in range(-1, D.degree() + 2):
            assert engine.rank_at_least(red, r) == (want >= r)
        assert engine.weighted_rank(D) == reference_weighted_rank(c, model, vec)


def reference_weighted_rank(c, model, vec):
    """min over 0 <= F <= W of deg F + rank(vec - 2F) on the pure curve,
    each rank by `reference_rank`."""
    weighted = [(model.vertex_index(v), w) for v, w in c.weights().items()
                if w]

    def minus_twice(t):
        out = list(vec)
        for (i, _), f in zip(weighted, t):
            out[i] -= 2 * f
        return out
    return min(
        sum(t) + reference_rank(model, minus_twice(t))
        for t in itertools.product(*(range(w + 1) for _, w in weighted)))


def theta():
    """Genus 2, pure: two vertices joined by edges of lengths 1, 2, 1/2."""
    return TropicalCurve({"a": 0, "b": 0},
                         [("e1", ("a", "b"), 1), ("e2", ("a", "b"), 2),
                          ("e3", ("a", "b"), F(1, 2))])


def weighted_circle():
    """b1 = 1 and weighted genus 2: a circle with a weight-1 vertex."""
    return TropicalCurve({"a": 1, "b": 0},
                         [("e1", ("a", "b"), 1), ("e2", ("a", "b"), F(1, 2))])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(curves_and_divisors())
@example((theta(), canonical(theta())))
@example((theta(), Divisor(theta(), [("a", 1), ("b", -1)])))
@example((theta(), Divisor(theta(), [])))
@example((weighted_circle(), Divisor(weighted_circle(), [("b", 1)])))
def test_public_ranks_agree_with_the_reference_search(case):
    """`rank_pure` and `rank_weighted`, forced ranks included, answer as
    the plain search of `oracles.reference_rank`.  The examples: K in
    genus 2 (degree 2, rank 1), a - b (degree 0, rank -1), D = 0, and one
    point on a weighted curve."""
    c, D = case
    model = IntegerModel(c, marks=D)
    vec = model.divisor_vector(D)
    assert rank_pure(c, D) == reference_rank(model, vec)
    assert rank_weighted(c, D) == reference_weighted_rank(c, model, vec)


def test_forced_rank_touches_no_lattice():
    """An effective class of degree 0 or 1 with d <= 2g - 2 has rank 0
    (rank >= 0, and Clifford: rank <= d/2), so `rank_pure` and
    `rank_weighted` build no model and make no reduction for it.  A
    degree-1 divisor with a negative chip still builds one and reduces on
    the pure curve; on the weighted circle the pure rank of every
    weighting is forced, so it builds none."""
    def counted(rank, c, chips):
        with mock.patch.object(rank_module, "IntegerModel",
                               wraps=IntegerModel) as build, \
                mock.patch.object(kernel, "reduce_divisor",
                                  wraps=kernel.reduce_divisor) as reduce:
            r = rank(c, Divisor(c, chips))
        return r, build.call_count, reduce.call_count

    pure, weighted = theta(), weighted_circle()
    for rank, c in ((rank_pure, pure), (rank_weighted, pure),
                    (rank_weighted, weighted)):
        for chips in ([], [("b", 1)], [(c.point("e1", F(1, 3)), 1)]):
            assert counted(rank, c, chips) == (0, 0, 0)
    for rank, c in ((rank_pure, pure), (rank_weighted, pure),
                    (rank_weighted, weighted)):
        chips = [("a", -1), (c.point("e2", F(1, 4)), 2)]
        r, builds, reductions = counted(rank, c, chips)
        # on the weighted circle the engine's pure genus is 1, so its
        # Riemann-Roch answers every weighting without a model
        if c is weighted:
            assert (builds, reductions) == (0, 0)
        else:
            assert builds == 1 and reductions >= 1
        D = Divisor(c, chips)
        model = IntegerModel(c, marks=D)
        assert r == reference_weighted_rank(c, model, model.divisor_vector(D))


def test_huge_pile_with_debt_reduces_in_few_burns():
    """D = 2^62·a - 2^62·b on the banana with edges 1, 2 and 1/2: the
    root vector of the rank search carries a debt next to a huge pile,
    and `rank_weighted` answers -1 within 10,000 burns of the pure
    kernel.  A reduction whose run time grows with the chip counts would
    need about as many burns as chips."""
    c = theta()
    pile = 2 ** 62
    burns = []
    real_burn = _kernel_py._burn

    def burn(*args):
        burns.append(1)
        if len(burns) > 10_000:
            raise AssertionError("more than 10,000 burns")
        return real_burn(*args)

    with mock.patch.object(kernel, "reduce_divisor",
                           _kernel_py.reduce_divisor), \
            mock.patch.object(_kernel_py, "_burn", burn):
        assert rank_weighted(c, Divisor(c, [("a", pile), ("b", -pile)])) == -1
    assert burns


def test_bounded_sums_lists_every_weighting_by_degree():
    """Degree by degree, `_bounded_sums` makes the weightings in the order
    in which sorting all of them by (degree, tuple) would."""
    for caps in ([0], [3], [1, 2], [2, 0, 3], [1, 1, 1, 2]):
        every = itertools.product(*(range(c + 1) for c in caps))
        got = [t for k in range(sum(caps) + 1) for t in _bounded_sums(k, caps)]
        assert got == sorted(every, key=lambda t: (sum(t), t))


def test_weighted_rank_makes_its_weightings_lazily():
    """A weight of 10⁶ on one end of an edge, or 10⁴ on both, with
    D = 3·b: the weightings F come degree by degree and the search stops
    at deg F = 3, so the answer, 1, comes at once and the peak memory does
    not grow with the weights.  Run in a fresh process, whose ru_maxrss
    no earlier test has raised."""
    code = """
import json, resource, time
from tropbn import Divisor, TropicalCurve, rank_weighted
out = []
for wa, wb in ((10**6, 0), (10**4, 10**4)):
    c = TropicalCurve({"a": wa, "b": wb}, [("e", ("a", "b"), 1)])
    D = Divisor(c, [("b", 3)])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t = time.perf_counter()
    r = rank_weighted(c, D)
    s = time.perf_counter() - t
    grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    out.append((r, s, grew))
print(json.dumps(out))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    for r, seconds, grew_kb in json.loads(done.stdout):
        assert r == 1
        assert seconds < 1
        assert grew_kb < 20 * 1024   # ru_maxrss is in KB on Linux


def test_search_reductions_carry_no_debt(tmp_path):
    """Every vector the search hands the kernel is effective away from its
    base point.  On 50 `rank-rr` queries the only reductions with debt are
    those of the root vectors in `rank_vector`."""
    queries = workloads.setup_rank_rr(tb, 5, str(tmp_path), size=2)[:50]
    calls = []   # (has debt, inside _minfail, inside rank_vector)
    depth = {"_minfail": 0, "rank_vector": 0}
    real_reduce = kernel.reduce_divisor

    def reduce_divisor(indptr, nbrs, div, q, **kwargs):
        debt = min(div[:q] + div[q + 1:], default=0) < 0
        calls.append((debt, depth["_minfail"] > 0, depth["rank_vector"] > 0))
        return real_reduce(indptr, nbrs, div, q, **kwargs)

    def counted(name):
        real = getattr(_RankEngine, name)

        def method(*args):
            depth[name] += 1
            try:
                return real(*args)
            finally:
                depth[name] -= 1
        return method

    with mock.patch.object(kernel, "reduce_divisor", reduce_divisor), \
            mock.patch.object(_RankEngine, "_minfail", counted("_minfail")), \
            mock.patch.object(_RankEngine, "rank_vector",
                              counted("rank_vector")):
        for query in queries:
            assert query.check(query.run())
    search = [debt for debt, in_search, _ in calls if in_search]
    roots = [debt for debt, in_search, in_rank in calls
             if in_rank and not in_search]
    assert search and not any(search)
    assert any(roots)
    assert all(in_rank and not in_search
               for debt, in_search, in_rank in calls if debt)
