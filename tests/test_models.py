"""The arithmetic lattice model against the subdivided-curve construction.

The reference model below is built the long way, with the public curve
operations: promote the marks to vertices (`subdivide`), split the loops
(`loopless_model`), subdivide every piece into unit steps, and chain the
three backward point maps.  `IntegerModel` must number, connect and convert
lattice points exactly as that construction does.  Models rebuilt on one
curve object through its lattice slot must equal fresh builds, and no
library call, through the slot or a point map, may keep a curve alive.
The divisor-level entry points, `reduced_divisor` and `is_equivalent`, are
checked by property at the end.
"""

import gc
import random
import weakref
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropbn import (Divisor, PLFunction, Point, Subcurve, TropicalCurve,
                    abel_jacobi, is_equivalent, loopless_model, reduced_divisor,
                    subdivide)
from tropbn import (canonical, concentrate, models, rank_pure, rank_weighted,
                    rank_weighted_loops, weighted_A_rank)
from tropbn import _kernel_py, kernel
from tropbn.brill_noether import wdr_member
from tropbn.models import IntegerModel
from tropbn.transport import (check_concentrate, check_push,
                              confinement_search, push_single)

from oracles import piece_scale, unit_reduce_divisor


class ReferenceModel:
    """Lattice model as three subdivided curves and a composed point map."""

    def __init__(self, curve, marks=(), scale=1):
        c1, _, b1 = subdivide(curve, marks)
        c2, _, b2 = loopless_model(c1)
        self.lam = scale * lcm(*(c2.length(e).denominator for e in c2.edges()))
        lattice = [Point(edge=e, offset=F(j, self.lam)) for e in c2.edges()
                   for j in range(1, int(c2.length(e) * self.lam))]
        unit, _, b3 = subdivide(c2, lattice)
        self.from_unit = b3.then(b2).then(b1)
        self.order = unit.vertices()
        self.index = {v: i for i, v in enumerate(self.order)}
        self.n = len(self.order)
        self.split_indices = [self.index[v] for v in c2.vertices()]
        self.indptr = [0]
        self.nbrs = []
        for v in self.order:
            self.nbrs.extend(self.index[w] for _, w in unit.incident(v))
            self.indptr.append(len(self.nbrs))

    def laplacian_support(self, sigma):
        """Indices i with (L·σ)ᵢ ≠ 0, L the Laplacian of the unit graph."""
        return [i for i in range(self.n)
                if (self.indptr[i + 1] - self.indptr[i]) * sigma[i]
                != sum(sigma[w] for w in self.nbrs[self.indptr[i]:self.indptr[i + 1]])]

    def point_of_index(self, i):
        return self.from_unit(Point(vertex=self.order[i]))

    def pl_from_unit_values(self, curve, vals):
        """Every lattice point a knot; PLFunction prunes the straight ones."""
        vv, knots = {}, {}
        for i, val in enumerate(vals):
            p = self.point_of_index(i)
            if p.is_vertex:
                vv[p.vertex] = val
            else:
                knots.setdefault(p.edge, []).append((p.offset, val))
        return PLFunction(curve, vv, knots)


def random_curve(rng):
    n = rng.randint(1, 4)
    names = [f"v{i}" for i in range(n)]
    lengths = [F(1), F(2), F(1, 2), F(3, 4), F(5, 3)]
    edges = [(f"t{i}", (names[rng.randrange(i)], names[i]), rng.choice(lengths))
             for i in range(1, n)]
    for j in range(rng.randint(0, 3)):
        u = rng.choice(names)
        v = u if rng.random() < 0.4 else rng.choice(names)   # loops, parallels
        edges.append((f"x{j}", (u, v), rng.choice(lengths)))
    return TropicalCurve({v: 0 for v in names}, edges)


def random_marks(rng, c):
    """Interior marks (some repeated), endpoint marks and vertex names."""
    marks = []
    for _ in range(rng.randint(0, 4)):
        if not c.edges() or rng.random() < 0.2:
            marks.append(rng.choice(c.vertices()))
            continue
        e = rng.choice(c.edges())
        ell = c.length(e)
        off = rng.choice([F(0), ell, ell / 2, ell / 3, ell * F(3, 4)])
        marks.append(Point(edge=e, offset=off) if off in (0, ell)
                     else c.point(e, off))
        if rng.random() < 0.3:
            marks.append(Point(edge=e, offset=off))   # duplicate
    return marks


def random_subcurve(rng, c):
    """A vertex, whole edges, or on each of one or two edges a segment or
    two segments reaching its two ends, alone or with every other edge
    whole; redrawn until it is connected."""
    while True:
        kind = rng.randrange(4)
        if kind == 0 or not c.edges():
            return Subcurve(c, [rng.choice(c.vertices())])
        es = rng.sample(c.edges(), min(len(c.edges()), rng.randint(1, 2)))
        segments = {}
        for e in es:
            ell = c.length(e)
            a, b = sorted(ell * F(rng.randint(0, 6), 6) for _ in range(2))
            segments[e] = [(a, b)] if rng.random() < 0.5 else [(0, a), (b, ell)]
        try:
            if kind == 1:
                return Subcurve(c, whole_edges=es)
            rest = [e for e in c.edges() if e not in es] if kind == 3 else []
            return Subcurve(c, whole_edges=rest, segments=segments)
        except ValueError:   # not connected
            continue


def cases(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        c = random_curve(rng)
        yield rng, c, random_marks(rng, c), 1 + k % 3


def test_fixed_shapes_cover_every_layout_case():
    """Unmarked and marked loops, duplicate and endpoint marks, scale 1-3."""
    c = TropicalCurve({"a": 0, "b": 0},
                      [("l1", ("a", "a"), F(3, 2)), ("l2", ("b", "b"), 1),
                       ("p", ("a", "b"), F(2, 3)), ("q", ("b", "a"), 2)])
    marks = [c.point("l2", F(1, 4)), c.point("l2", F(1, 4)),
             Point(edge="p", offset=F(0)), Point(edge="q", offset=F(2)),
             c.point("q", F(1, 2)), "b"]
    for scale in (1, 2, 3):
        new, ref = IntegerModel(c, marks, scale), ReferenceModel(c, marks, scale)
        assert (new.n, new.lam) == (ref.n, ref.lam)
        assert (new.indptr, new.nbrs) == (ref.indptr, ref.nbrs)
        assert new.split_indices == ref.split_indices == list(range(5))


def test_model_matches_subdivided_construction():
    for rng, c, marks, scale in cases(31, 100):
        new, ref = IntegerModel(c, marks, scale), ReferenceModel(c, marks, scale)
        assert (new.n, new.lam) == (ref.n, ref.lam)
        assert new.indptr == ref.indptr
        assert new.nbrs == ref.nbrs
        assert new.split_indices == ref.split_indices
        for i in range(new.n):
            p = ref.point_of_index(i)
            assert new.point_of_index(i) == p
            assert new.vertex_index(p) == i
        for _ in range(3):
            sub = random_subcurve(rng, c)
            assert new.indices_in(sub) == [
                i for i in range(ref.n) if sub.contains_point(ref.point_of_index(i))]
        sigma = [rng.choice((-1, 0, 0, 1, 2)) for _ in range(new.n)]
        bends = ref.laplacian_support(sigma)
        assert new.sigma_to_pl(sigma, bends) == ref.pl_from_unit_values(
            c, [F(-s, ref.lam) for s in sigma])


def test_marks_are_lattice_points():
    for _, c, marks, scale in cases(32, 60):
        model = IntegerModel(c, marks, scale)
        idx = [model.vertex_index(m) for m in marks]
        assert all(i in model.split_indices for i in idx)


def test_off_lattice_point_raises():
    c = TropicalCurve({"a": 0, "b": 0}, [("e", ("a", "b"), 1), ("f", ("a", "b"), 1)])
    model = IntegerModel(c, [c.point("e", F(1, 2))])
    assert model.lam == 2
    assert model.point_of_index(model.vertex_index(c.point("f", F(1, 2)))) \
        == c.point("f", F(1, 2))
    with pytest.raises(ValueError):
        model.vertex_index(c.point("e", F(1, 3)))
    with pytest.raises(ValueError):
        model.vertex_index(c.point("f", F(1, 4)))


def test_witness_from_sigma_keeps_only_slope_changes():
    c = TropicalCurve({"a": 0, "b": 0}, [("e", ("a", "b"), 4), ("f", ("a", "b"), 4)])
    model = IntegerModel(c)
    sigma = [0] * model.n
    sigma[model.vertex_index(c.point("e", 2))] = 1
    f = model.sigma_to_pl(sigma, ReferenceModel(c).laplacian_support(sigma))
    assert f.vertex_values() == {"a": 0, "b": 0}
    assert f.knots("e") == ((F(1), F(0)), (F(2), F(-1)), (F(3), F(0)))
    assert f.knots("f") == ()


def banana(e_length):
    return TropicalCurve({"a": 0, "b": 0},
                         [("e", ("a", "b"), e_length), ("f", ("a", "b"), 1)])


@pytest.mark.parametrize("call", [
    lambda c, D: models.reduced_divisor(c, D, "a"),
    rank_pure,
    rank_weighted,
    lambda c, D: rank_weighted_loops(c, D, 1),
    lambda c, D: weighted_A_rank(c, D, ["a"]),
    lambda c, D: wdr_member(c, D, 0),
    lambda c, D: concentrate(c, D, Subcurve(c, ["a"]), 0),
], ids=["reduced_divisor", "rank_pure", "rank_weighted", "rank_weighted_loops",
        "weighted_A_rank", "wdr_member", "concentrate"])
def test_divisor_of_another_curve_is_refused(call):
    """Same ids, other lengths: e@1 is the middle of e on the second curve
    but would be vertex b on the first."""
    c1, c2 = banana(1), banana(2)
    D2 = Divisor(c2, [(c2.point("e", 1), 1)])
    with pytest.raises(ValueError, match="curve mismatch"):
        call(c1, D2)


def test_indices_in_refuses_a_subcurve_of_another_curve():
    c = banana(1)
    other = TropicalCurve({"z": 0}, [])
    with pytest.raises(ValueError, match="curve mismatch"):
        IntegerModel(c).indices_in(Subcurve(other, ["z"]))


def test_lattice_size_is_capped_before_allocating(monkeypatch):
    """One edge of length 10^12 would need 10^12 lattice points."""
    c = TropicalCurve({"a": 0, "b": 0}, [("e", ("a", "b"), 10 ** 12)])
    with pytest.raises(ValueError, match="lattice points"):
        IntegerModel(c, marks=["a", "b"])
    # the bound is inclusive; a small cap keeps the boundary check cheap
    monkeypatch.setattr(models, "MAX_LATTICE_POINTS", 100)
    short = TropicalCurve({"a": 0, "b": 0}, [("e", ("a", "b"), 99)])
    assert IntegerModel(short).n == 100
    with pytest.raises(ValueError, match="lattice points"):
        IntegerModel(short, scale=2)


def twin(c):
    """A curve equal to c but a distinct object, so its lattice slot is empty."""
    return TropicalCurve(c.weights(),
                         [(e, c.ends(e), c.length(e)) for e in c.edges()])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rng=st.randoms(use_true_random=False))
def test_lattice_slot_matches_fresh_builds(rng):
    """Models built on one curve object with marks A, A, B, A, then A at
    scale 2, equal fresh builds on equal curves; a build with the key of
    the one before it (scale and interior cuts) shares its lattice, any
    other rebuilds it."""
    c = random_curve(rng)
    A, B = random_marks(rng, c), random_marks(rng, c)
    prev = prev_key = None
    for marks, scale in ((A, 1), (A, 1), (B, 1), (A, 1), (A, 2)):
        model, fresh = IntegerModel(c, marks, scale), IntegerModel(twin(c), marks, scale)
        assert (model.n, model.lam) == (fresh.n, fresh.lam)
        assert (model.indptr, model.nbrs) == (fresh.indptr, fresh.nbrs)
        assert model.lam == piece_scale(c, marks, scale)
        for i in fresh.split_indices:
            assert model.vertex_index(fresh.point_of_index(i)) == i
        assert [model.point_of_index(i) for i in range(model.n)] \
            == [fresh.point_of_index(i) for i in range(fresh.n)]
        key = (scale, {(p.edge, p.offset) for p in map(c.point, marks)
                       if not p.is_vertex})
        if prev is not None:
            assert (model.nbrs is prev.nbrs) == (key == prev_key)
        prev, prev_key = model, key


# Each case makes a curve, runs library calls on it and returns a weakref to
# it; every other reference goes with the case's frame.

def _rank_and_reduce():
    c = TropicalCurve({"a": 0, "b": 1},
                      [("e", ("a", "b"), F(3, 2)), ("f", ("a", "b"), 1),
                       ("l", ("a", "a"), 2)])
    D = Divisor(c, [(c.point("e", F(1, 2)), 1), ("a", 1)])
    rank_weighted(c, D)
    rank_weighted(c, canonical(c) - D)
    models.reduced_divisor(c, D, "b")
    assert c._lattice_slot is not None
    return weakref.ref(c)


def _concentrate_and_check():
    # Λ = l1 with D = 3y, r = 1 needs radius ε(3d)^(d−r+1) = 364.5, so a
    # bar of 365 keeps l2 out of the neighbourhood
    c = TropicalCurve({"x": 0, "y": 0},
                      [("l1", ("x", "x"), 1), ("l2", ("y", "y"), 1),
                       ("br", ("x", "y"), 365)])
    D, lam = Divisor(c, [("y", 3)]), Subcurve(c, whole_edges=["l1"])
    res = concentrate(c, D, lam, 1)
    assert all(check_concentrate(c, D, lam, 1, res).values())
    return weakref.ref(c)


def _push_and_check():
    c = TropicalCurve({"v0": 0, "v1": 0, "v2": 0},
                      [("e0", ("v0", "v1"), 1), ("e1", ("v1", "v2"), 1)])
    D, E = Divisor(c, [("v0", 2)]), Divisor(c, [("v2", 1)])
    lam = Subcurve(c, whole_edges=["e1"])
    assert all(check_push(c, D, lam, E, push_single(c, D, lam, E)).values())
    return weakref.ref(c)


def _as_curve():
    c = TropicalCurve({"a": 0, "b": 0},
                      [("e", ("a", "b"), 2), ("l", ("a", "a"), 1)])
    sub, pull = Subcurve(c, ["a"], ["l"], {"e": [(0, 1)]}).as_curve()
    assert pull(c.point("e", F(1, 2))) == sub.point("e[0..1]", F(1, 2))
    return weakref.ref(c)


def _subdivide_and_compose():
    c = TropicalCurve({"a": 0}, [("l", ("a", "a"), 2)])
    p = c.point("l", F(1, 2))
    c1, to1, from1 = subdivide(c, [p])
    _, to2, from2 = loopless_model(c1)
    assert from2.then(from1)(to1.then(to2)(p)) == p
    return weakref.ref(c)


@pytest.mark.parametrize("case", [_rank_and_reduce, _concentrate_and_check,
                                  _push_and_check, _as_curve,
                                  _subdivide_and_compose],
                         ids=["rank-reduce", "concentrate", "push", "as-curve",
                              "subdivide"])
def test_models_keep_no_curve_alive(case):
    """No library call leaves a reference cycle: neither the lattice slot
    nor a point map refers back to its curve, so reference counting alone
    frees a curve once its last user is gone, and the cyclic collector
    finds nothing."""
    gc.collect()
    gc.disable()
    try:
        alive = case()
        assert alive() is None
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("scale", [0, -1])
def test_scale_must_be_positive(scale):
    """A scale of 0 would give λ = 0 and put e@1/2 on vertex b."""
    c = TropicalCurve({"a": 0, "b": 0}, [("e", ("a", "b"), 2)])
    with pytest.raises(ValueError, match="scale must be a positive integer"):
        IntegerModel(c, marks=[c.point("e", F(1, 2))], scale=scale)


def test_every_exported_name_resolves():
    import tropbn

    for name in tropbn.__all__:
        assert getattr(tropbn, name) is not None, name


@st.composite
def divisor_cases(draw):
    """A pure curve with loops and mixed lengths, D, D + P − Q and a point q."""
    n = draw(st.integers(1, 4))
    names = [f"v{i}" for i in range(n)]
    lengths = st.sampled_from([F(1), F(2), F(1, 2), F(3, 4), F(5, 3)])
    edges = [(f"t{i}", (names[draw(st.integers(0, i - 1))], names[i]), draw(lengths))
             for i in range(1, n)]
    for j in range(draw(st.integers(0 if n > 1 else 1, 3))):
        uv = (draw(st.sampled_from(names)), draw(st.sampled_from(names)))
        edges.append((f"x{j}", uv, draw(lengths)))
    c = TropicalCurve({v: 0 for v in names}, edges)
    points = st.one_of(
        st.sampled_from(names).map(c.point),
        st.builds(lambda e, k: c.point(e, c.length(e) * k),
                  st.sampled_from(c.edges()), st.sampled_from([F(1, 3), F(1, 2), F(3, 4)])))
    D = Divisor(c, draw(st.lists(st.tuples(points, st.integers(-2, 3)), max_size=4)))
    D2 = D + Divisor(c, [(draw(points), 1), (draw(points), -1)])
    return c, D, D2, draw(points)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=divisor_cases())
def test_reduced_divisor_and_equivalence(case):
    c, D, D2, q = case
    red, f = reduced_divisor(c, D, q)
    assert D + f.divisor() == red
    assert all(m > 0 for p, m in red.items() if p != q)
    assert reduced_divisor(c, red, q)[0] == red
    assert f.value(q) == 0
    ok, g = is_equivalent(D, red)
    assert ok and D - red == g.divisor()
    # an independent oracle: the Abel-Jacobi image of D − D2
    assert is_equivalent(D, D2)[0] == abel_jacobi(c, D - D2, c.vertices()[0]).is_zero()


@st.composite
def reduction_cases(draw):
    """A pure curve with at least one loop, D with debts and interior
    chips, and a basepoint q at a vertex or inside an edge.  The bare loops
    ``b0``, ``b1`` (0-2 of them) hold no chip and not q; other loops may
    hold none either."""
    n = draw(st.integers(1, 3))
    names = [f"v{i}" for i in range(n)]
    lengths = st.sampled_from([F(1), F(2), F(1, 2), F(3, 2)])
    edges = [(f"t{i}", (names[draw(st.integers(0, i - 1))], names[i]), draw(lengths))
             for i in range(1, n)]
    loop_at = draw(st.sampled_from(names))
    edges.append(("l", (loop_at, loop_at), draw(lengths)))
    for j in range(draw(st.integers(0, 2))):
        uv = (draw(st.sampled_from(names)), draw(st.sampled_from(names)))
        edges.append((f"x{j}", uv, draw(lengths)))
    bare = [f"b{j}" for j in range(draw(st.integers(0, 2)))]
    for b in bare:
        at = draw(st.sampled_from(names))
        edges.append((b, (at, at), draw(st.sampled_from([F(1), F(1, 3), F(5, 2)]))))
    c = TropicalCurve({v: 0 for v in names}, edges)
    interior = st.builds(lambda e, k: c.point(e, c.length(e) * k),
                         st.sampled_from([e for e in c.edges() if e not in bare]),
                         st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(2, 3)]))
    points = st.one_of(st.sampled_from(names).map(c.point), interior)
    D = Divisor(c, draw(st.lists(st.tuples(points, st.integers(-3, 3)), max_size=5)))
    return c, D, draw(points)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=reduction_cases())
def test_witness_is_the_kernels_sigma(case):
    """`reduced_divisor` reduces on a lattice with no point inside a loop
    that holds no chip and not q, and answers as the full lattice does:
    its reduced divisor is the kernel's on the ``loops=True`` model, and
    its witness is −σ/λ for that model's σ, read at every point."""
    c, D, q = case
    red, f = reduced_divisor(c, D, q)
    assert red == D + f.divisor()
    assert f.value(q) == 0
    marks = list(D.support()) + [q]
    bare = {e for e in c.edges() if c.is_loop(e)} - {p.edge for p in marks}
    # the lattice that `reduced_divisor` built, read from the curve's slot
    key, fields = c._lattice_slot
    assert key[2] is False
    small = IntegerModel(c, marks, loops=False)
    assert small.nbrs is fields["nbrs"]
    assert bare.isdisjoint(small._paths)
    assert all(small.point_of_index(i).edge not in bare for i in range(small.n))
    model, ref = IntegerModel(c, marks), ReferenceModel(c, marks)
    full, sigma = model.reduce_vector(model.divisor_vector(D), model.vertex_index(q))
    assert red == Divisor(c, [(model.point_of_index(i), m)
                              for i, m in enumerate(full) if m])
    assert f == ref.pl_from_unit_values(c, [F(-s, ref.lam) for s in sigma])


def test_bouquet_without_marks_reduces_on_one_point(kernel_backend):
    """Every loop of a bouquet is left out: one lattice point, no CSR
    entries, and both kernels reduce on it."""
    c = TropicalCurve({"v": 0}, [("a", ("v", "v"), 1), ("b", ("v", "v"), F(1, 3)),
                                 ("c", ("v", "v"), 2)])
    model = IntegerModel(c, ["v"], loops=False)
    assert (model.n, model.lam, model.indptr, model.nbrs) == (1, 1, [0, 0], [])
    for chips in (3, 0, -2):
        red, sigma = kernel_backend.reduce_divisor(model.indptr, model.nbrs, [chips], 0)
        assert (list(red), list(sigma)) == ([chips], [0])
    red, f = reduced_divisor(c, Divisor(c, [("v", 3)]), "v")
    assert red == Divisor(c, [("v", 3)]) and f == PLFunction.constant(c)


def unit_dumbbell():
    return TropicalCurve({"x": 0, "y": 0},
                         [("l1", ("x", "x"), 1), ("l2", ("y", "y"), 1),
                          ("br", ("x", "y"), 1000)])


def test_reduction_lattice_on_the_dumbbell_is_half_the_rank_lattice():
    """Unit loops need midpoints only for the rank search: the reduction
    lattice has λ = 1 and n = 2 + 999, the rank lattice λ = 2 and
    n = 4 + 1999."""
    c = unit_dumbbell()
    D = Divisor(c, [("y", 2)])
    assert reduced_divisor(c, D, "x")[0] == Divisor(c, [("x", 2)])
    assert (c._lattice_slot[1]["n"], c._lattice_slot[1]["lam"]) == (1001, 1)
    assert rank_pure(c, D) == 1
    assert (c._lattice_slot[1]["n"], c._lattice_slot[1]["lam"]) == (2003, 2)


def test_slot_keeps_the_reduction_and_rank_lattices_apart():
    """D = v + (l1 @ 1/2) on the genus-2 rose has rank 0: D − p has no
    effective representative for p inside l2.  A reduction first leaves l2
    out of its lattice with the same cuts; the rank search must not reuse
    that lattice, where it would find no point on l2 and read 1."""
    c = TropicalCurve({"v": 0}, [("l1", ("v", "v"), 1), ("l2", ("v", "v"), 1)])
    D = Divisor(c, [("v", 1), (c.point("l1", F(1, 2)), 1)])
    fresh = twin(c)
    assert rank_pure(fresh, Divisor(fresh, D.items())) == 0
    reduced_divisor(c, D, "v")
    assert rank_pure(c, D) == 0
    reduced_divisor(c, D, "v")
    assert rank_weighted(c, D) == 0


def test_size_limit_counts_the_lattice_that_is_built(monkeypatch):
    """With a limit of 1500 points the unit dumbbell reduces (1001 points
    without its loops) but its rank search (2003 points) is refused."""
    monkeypatch.setattr(models, "MAX_LATTICE_POINTS", 1500)
    c = unit_dumbbell()
    D = Divisor(c, [("y", 2)])
    assert reduced_divisor(c, D, "x")[0] == Divisor(c, [("x", 2)])
    assert is_equivalent(D, Divisor(c, [("x", 2)]))[0]
    with pytest.raises(ValueError, match="lattice points"):
        rank_pure(c, D)


@st.composite
def piece_cases(draw):
    """A model of a random curve and marks, at scale 1 or 2, with or
    without its unmarked loops, and a vector on it: chips and debts at
    stops and inside pieces, and q at a stop or inside a piece."""
    rng = draw(st.randoms(use_true_random=False))
    c = random_curve(rng)
    model = IntegerModel(c, random_marks(rng, c), draw(st.integers(1, 2)),
                         loops=draw(st.booleans()))
    spots = st.integers(0, model.n - 1)
    stops = len(model.split_indices)
    if model.n > stops:
        spots = st.integers(stops, model.n - 1) | spots
    vec = [0] * model.n
    for i, x in draw(st.lists(st.tuples(spots, st.integers(-3, 3)),
                              max_size=6)):
        vec[i] += x
    return model, vec, draw(spots)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=piece_cases())
def test_piece_table_reduces_as_the_csr_walk_and_the_unit_oracle(case):
    """The pure kernel gives the same (reduced, sigma) from the model's
    piece table as from its CSR arrays, and both are the unit-graph
    oracle's; `reduce_vector` hands the kernel the table."""
    model, vec, q = case
    want = unit_reduce_divisor(model.indptr, model.nbrs, vec, q)
    assert _kernel_py.reduce_divisor(model.indptr, model.nbrs, vec, q) == want
    assert _kernel_py.reduce_divisor(model.indptr, model.nbrs, vec, q,
                                     pieces=model.pieces) == want
    assert [list(x) for x in model.reduce_vector(vec, q)] == list(want)


def test_model_reductions_never_walk_the_csr(monkeypatch):
    """Every model reduction builds the pure kernel's graph from the piece
    table: with the CSR walk patched to raise, `reduced_divisor` (q inside
    an edge), `is_equivalent`, `rank_pure` and `confinement_search` give
    the answers they give without the patch."""
    c = TropicalCurve({"u": 0, "b": 0, "z": 0},
                      [("c1", ("u", "b"), 1), ("c2", ("u", "b"), F(3, 2)),
                       ("t", ("u", "z"), 2)])
    p = c.point("c2", F(1, 2))
    D = Divisor(c, [("z", 2), (p, 1), ("b", -1)])

    def answers():
        red, f = reduced_divisor(c, D, c.point("t", F(1, 3)))
        return (red, f, is_equivalent(D, red)[0],
                rank_pure(c, Divisor(c, [("u", 1), (p, 1)])),
                confinement_search(c, Subcurve(c, whole_edges=["c1", "c2"]), 1))

    want = answers()

    def walk(*args):
        raise AssertionError("the CSR walk ran")

    monkeypatch.setattr(kernel, "reduce_divisor", _kernel_py.reduce_divisor)
    monkeypatch.setattr(_kernel_py, "_walk", walk)
    assert answers() == want
    with pytest.raises(AssertionError, match="CSR walk"):
        _kernel_py.reduce_divisor([0, 1, 2], [1, 0], [0, 0], 0)
