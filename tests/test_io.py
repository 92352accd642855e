"""JSON round-trips and deterministic serialization."""

import copy
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import two_pass_curve, two_pass_divisor

from tropbn import (BNQuery, CombinatorialType, CycleBasis, DegenerationSpec,
                    Divisor, PLFunction, Point, Subcurve, TorusPoint,
                    TropicalCurve, genus, rank_weighted, scale_cycles)
from tropbn.io import (
    canonical_dumps,
    curve_from_json,
    curve_to_json,
    divisor_from_json,
    divisor_to_json,
    frac_str,
    parse_frac,
    parse_int,
    point_from_json,
    point_to_json,
    read_json,
    subcurve_from_json,
    subcurve_to_json,
    type_from_json,
)
from tropbn.models import IntegerModel
from tropbn.transport import (arrange_multi, concentrate, confinement_search,
                              dilute)


def sample_curve():
    return TropicalCurve({"a": 1, "b": 0},
                         [("e1", ("a", "b"), F(3, 2)),
                          ("e2", ("a", "b"), 1),
                          ("l", ("b", "b"), F(2, 3))])


def test_frac_strings():
    assert frac_str(F(3, 2)) == "3/2"
    assert frac_str(2) == "2"
    assert parse_frac("3/2") == F(3, 2)
    assert parse_frac("4") == F(4)
    assert parse_frac(4) == F(4)
    for bad in (1.5, "1/0", "x", None, True, False):
        with pytest.raises(ValueError):
            parse_frac(bad)


def test_json_integers_are_not_cut():
    assert parse_int(-3, "mult") == -3
    for bad in (1.9, 2.0, "2", True, None):
        with pytest.raises(ValueError, match="mult must be an integer"):
            parse_int(bad, "mult")


def _loop_type():
    return CombinatorialType([("x", 0)], [("l", ("x", "x"))])


def _banana():
    """The 1-2 banana, the divisor 2·u and the subcurve {u}."""
    c = TropicalCurve({"u": 0, "v": 0},
                      [("e1", ("u", "v"), 1), ("e2", ("u", "v"), 2)])
    return c, Divisor(c, [("u", 2)]), Subcurve(c, ["u"])


def _on_banana(call):
    return lambda: call(*_banana())


@pytest.mark.parametrize("build, error", [
    (lambda: Divisor(sample_curve(), {"a": True}), ValueError),
    (lambda: Divisor(sample_curve(), {"a": 1.0}), ValueError),
    (lambda: TropicalCurve({"a": True}), ValueError),
    (lambda: IntegerModel(sample_curve(), scale=True), ValueError),
    (lambda: BNQuery(d=2, r=True), ValueError),
    (lambda: BNQuery(d=2.0, r=1), ValueError),
    (lambda: BNQuery(d=2, r=1, resolution=True), ValueError),
    (lambda: DegenerationSpec(_loop_type(), steps=True), ValueError),
    (lambda: DegenerationSpec(_loop_type(), pattern=(("x", 1.5),)),
     ValueError),
    (lambda: TorusPoint((0.1,)), ValueError),
    (lambda: TorusPoint((True,)), ValueError),
    (lambda: scale_cycles(CycleBasis(sample_curve()), [True, 2, 1]),
     ValueError),
    (lambda: scale_cycles(CycleBasis(sample_curve()), [0.5, 2, 1]),
     ValueError),
    (_on_banana(lambda c, D, u: concentrate(c, D, u, True)), ValueError),
    (_on_banana(lambda c, D, u: dilute(c, Divisor(c, [("u", 1)]), u, k=True)),
     ValueError),
    (_on_banana(lambda c, D, u: confinement_search(c, Subcurve.whole(c),
                                                   True)), ValueError),
    (_on_banana(lambda c, D, u: confinement_search(c, Subcurve.whole(c), 1,
                                                   budget=True)), ValueError),
    (_on_banana(lambda c, D, u: arrange_multi(c, D, [u], [True])), ValueError),
    (_on_banana(lambda c, D, u: arrange_multi(c, D, [u], [1], budget=True)),
     ValueError),
    (_on_banana(lambda c, D, u: True * D), TypeError),
    (_on_banana(lambda c, D, u: D * True), TypeError),
    (lambda: True * PLFunction.constant(sample_curve()), TypeError),
    (lambda: PLFunction.constant(sample_curve()) * True, TypeError),
], ids=["divisor-mult-bool", "divisor-mult-float", "weight-bool",
        "model-scale-bool", "bn-r-bool", "bn-d-float", "bn-resolution-bool",
        "spec-steps-bool", "spec-mult-float", "torus-float", "torus-bool",
        "scale-cycles-bool", "scale-cycles-float", "concentrate-r-bool",
        "dilute-k-bool", "confinement-k-bool", "confinement-budget-bool",
        "arrange-targets-bool", "arrange-budget-bool", "divisor-rmul-bool",
        "divisor-mul-bool", "pl-rmul-bool", "pl-mul-bool"])
def test_library_refuses_what_json_refuses(build, error):
    """Integers are ints that are not bools, rationals go through `rat`;
    `k * D` and `k * f` leave a bool k to Python, which refuses it."""
    with pytest.raises(error):
        build()


def test_curve_round_trip():
    c = sample_curve()
    obj = curve_to_json(c)
    back = curve_from_json(obj)
    assert back.vertices() == c.vertices()
    assert back.edges() == c.edges()
    assert all(back.length(e) == c.length(e) for e in c.edges())
    assert all(back.weight(v) == c.weight(v) for v in c.vertices())
    assert obj["edges"][0]["length"] == "3/2"
    with pytest.raises(ValueError, match="malformed"):
        curve_from_json({"vertices": [{"weight": 1}]})


def test_type_round_trip():
    ct = CombinatorialType([("x", 2), ("y", 0)],
                           [("e", ("x", "y")), ("l", ("y", "y"))])
    doc = {"vertices": [{"id": "x", "weight": 2}, {"id": "y"}],
           "edges": [{"id": "e", "ends": ["x", "y"]},
                     {"id": "l", "ends": ["y", "y"]}]}
    assert type_from_json(doc) == ct
    with pytest.raises(ValueError, match="malformed"):
        type_from_json({"vertices": [{"id": "x"}], "edges": [{"id": "e"}]})


def test_point_round_trip():
    c = sample_curve()
    v = c.point("a")
    p = c.point("e1", F(1, 2))
    assert point_to_json(v) == {"vertex": "a"}
    assert point_to_json(p) == {"edge": "e1", "offset": "1/2"}
    assert point_from_json(point_to_json(v), c) == v
    assert point_from_json(point_to_json(p), c) == p
    assert point_from_json("a", c) == v
    with pytest.raises(ValueError, match="malformed"):
        point_from_json({"offset": "1/2"}, c)


@pytest.mark.parametrize("at", [{"vertex": "a", "edge": "e1", "offset": "1/2"},
                                {"vertex": "a", "edge": "e1"}])
def test_point_naming_a_vertex_and_an_edge_is_refused(at):
    """Neither the vertex nor the edge point is taken, in a point or in a
    divisor's chip; a vertex with a key that names no place is read as the
    vertex, as before."""
    c = sample_curve()
    with pytest.raises(ValueError, match="malformed point JSON"):
        point_from_json(at, c)
    with pytest.raises(ValueError, match="malformed point JSON"):
        divisor_from_json({"chips": [{"at": at, "mult": 1}]}, c)
    assert divisor_from_json({"chips": [{"at": {"vertex": "a", "note": 1},
                                         "mult": 2}]}, c) == Divisor(c, [("a", 2)])


def test_divisor_round_trip():
    c = sample_curve()
    D = Divisor(c, [("a", 2), (c.point("l", F(1, 3)), -1)])
    obj = divisor_to_json(D)
    assert divisor_from_json(obj, c) == D
    assert divisor_from_json({"chips": []}, c).is_zero()


def test_subcurve_round_trip():
    c = sample_curve()
    sub = Subcurve(c, vertices=["a"], whole_edges=["e2"],
                   segments={"l": [(F(0), F(1, 3))]})
    obj = subcurve_to_json(sub)
    back = subcurve_from_json(obj, c)
    assert back.vertices == sub.vertices
    assert back.whole_edges == sub.whole_edges
    assert back.segments == sub.segments
    assert obj["segments"] == [{"edge": "l", "from": "0", "to": "1/3"}]


def test_canonical_dumps_is_deterministic():
    a = canonical_dumps({"b": 1, "a": [2, {"z": "3/2", "y": None}]})
    b = canonical_dumps({"a": [2, {"y": None, "z": "3/2"}], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_file_round_trip(tmp_path):
    c = sample_curve()
    path = tmp_path / "curve.json"
    path.write_text(canonical_dumps(curve_to_json(c)), encoding="utf-8")
    back = curve_from_json(read_json(str(path)))
    assert back.edges() == c.edges()


def _vertex_chip(v, m):
    return {"at": {"vertex": v}, "mult": m}


def _edge_chip(e, offset, m):
    return {"at": {"edge": e, "offset": offset}, "mult": m}


def _k_minus(curve_doc, chips):
    """The chips of K − D, K = Σ (deg v − 2 + 2 w(v))·v from the JSON."""
    k = {v["id"]: 2 * v.get("weight", 0) - 2 for v in curve_doc["vertices"]}
    for e in curve_doc["edges"]:
        for v in e["ends"]:
            k[v] += 1
    return ([_vertex_chip(v, m) for v, m in k.items() if m]
            + [dict(c, mult=-c["mult"]) for c in chips])


# curves and divisors shaped like the rank-rr benchmark's: mixed lengths,
# weighted vertices, loops, chips at vertices and inside edges (the ends
# 0 and ℓ included), repeated points and negative degrees
_RR_DOCS = [
    ({"vertices": [{"id": "a", "weight": 1}, {"id": "b", "weight": 0},
                   {"id": "c", "weight": 0}],
      "edges": [{"id": "t1", "ends": ["a", "b"], "length": "1"},
                {"id": "t2", "ends": ["b", "c"], "length": "1/2"},
                {"id": "x0", "ends": ["c", "c"], "length": "3/4"}]},
     [_vertex_chip("a", 2), _vertex_chip("b", -1), _edge_chip("t1", "1/2", 1),
      _edge_chip("t2", "1/2", 1), _edge_chip("x0", "3/8", 1)]),
    ({"vertices": [{"id": "u"}, {"id": "v"}],
      "edges": [{"id": "e1", "ends": ["u", "v"], "length": "2"},
                {"id": "e2", "ends": ["u", "v"], "length": "3/4"}]},
     [_edge_chip("e1", "1", 1), _edge_chip("e2", "0", 1),
      _vertex_chip("u", -1)]),
    ({"vertices": [{"id": "v", "weight": 1}],
      "edges": [{"id": "l", "ends": ["v", "v"], "length": "1"}]},
     [_vertex_chip("v", 1), _vertex_chip("v", 1), _edge_chip("l", "1/2", 1)]),
    ({"vertices": [{"id": "p", "weight": 1}, {"id": "q", "weight": 0}],
      "edges": [{"id": "t", "ends": ["p", "q"], "length": "1/2"}]},
     [_vertex_chip("q", -2), _edge_chip("t", "1/4", 1)]),
    ({"vertices": [{"id": "a"}, {"id": "b"}],
      "edges": [{"id": "e1", "ends": ["a", "b"], "length": "1"},
                {"id": "e2", "ends": ["a", "b"], "length": "2"},
                {"id": "e3", "ends": ["a", "b"], "length": "1/2"}]},
     [_vertex_chip("a", 1), _edge_chip("e3", "1/2", 1)]),
]


def test_each_parsed_point_is_made_canonical_once(monkeypatch):
    """Parsing and ranking D and K − D calls `TropicalCurve.point` once per
    chip of the documents: the points of a divisor are canonical, and the
    model and the rank search take them as they are."""
    calls = []
    point = TropicalCurve.point

    def counted(self, *args):
        calls.append(args)
        return point(self, *args)

    monkeypatch.setattr(TropicalCurve, "point", counted)
    parsed = 0
    for curve_doc, chips in _RR_DOCS:
        k_chips = _k_minus(curve_doc, chips)
        c = curve_from_json(curve_doc)
        D = divisor_from_json({"chips": chips}, c)
        KmD = divisor_from_json({"chips": k_chips}, c)
        parsed += len(chips) + len(k_chips)
        # Riemann–Roch, so the search really ran on both
        assert (rank_weighted(c, D) - rank_weighted(c, KmD)
                == D.degree() - genus(c) + 1)
    assert len(calls) == parsed


@st.composite
def chip_documents(draw):
    """A small curve and two chip lists on it, as (point spec, mult) pairs:
    vertex ids and (edge, offset) pairs, with the offsets 0 and ℓ among
    them, points that repeat, and a chip that cancels another."""
    n = draw(st.integers(1, 3))
    vs = [f"v{i}" for i in range(n)]
    ends = [(vs[i], vs[i + 1]) for i in range(n - 1)]
    ends += draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)),
                          max_size=2))
    lengths = st.sampled_from([F(1), F(2), F(1, 2), F(3, 4)])
    edges = [(f"e{i}", uv, draw(lengths)) for i, uv in enumerate(ends)]
    c = TropicalCurve({v: draw(st.integers(0, 1)) for v in vs}, edges)
    specs = vs + [(e, ell * j / 4) for e, _, ell in edges for j in range(5)]
    chips = st.lists(st.tuples(st.sampled_from(specs), st.integers(-2, 2)),
                     max_size=6)
    first, second = draw(chips), draw(chips)
    if first and draw(st.booleans()):
        spec, m = first[draw(st.integers(0, len(first) - 1))]
        first.append((spec, -m))
    return c, first, second


def _json_chips(chips):
    return {"chips": [_vertex_chip(spec, m) if isinstance(spec, str)
                      else _edge_chip(spec[0], frac_str(spec[1]), m)
                      for spec, m in chips]}


def _public(c, chips):
    """The same chips through the public constructor, which canonicalizes
    each point itself (an offset of 0 or ℓ collapses to a vertex)."""
    return Divisor(c, [(spec if isinstance(spec, str)
                        else Point(edge=spec[0], offset=spec[1]), m)
                       for spec, m in chips])


def _old_vector(model, D):
    """`divisor_vector` by canonicalizing each chip through
    `vertex_index`."""
    vec = [0] * model.n
    for p, m in D.items():
        vec[model.vertex_index(p)] += m
    return vec


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=chip_documents(), k=st.integers(-3, 3))
def test_trusted_divisors_equal_the_public_constructor(case, k):
    c, first, second = case
    D = divisor_from_json(_json_chips(first), c)
    E = divisor_from_json(_json_chips(second), c)
    P, Q = _public(c, first), _public(c, second)
    assert D == P and D.items() == P.items()
    assert E == Q and E.items() == Q.items()
    assert all(m for _, m in D.items())
    # vertex points are the curve's own; interior ones are canonical
    for p, _ in D.items() + E.items():
        assert c.point(p) is p if p.is_vertex else c.point(p) == p
    for got, want in ((D + E, _public(c, first + second)),
                      (D - E, _public(c, first + [(s, -m) for s, m in second])),
                      (-D, _public(c, [(s, -m) for s, m in first])),
                      (k * D, _public(c, [(s, k * m) for s, m in first]))):
        assert got == want and got.items() == want.items()
    # a divisor as the model's marks is its support, taken as it is
    model = IntegerModel(c, marks=D + E)
    listed = IntegerModel(c, marks=(D + E).support())
    assert (model.n, model.lam) == (listed.n, listed.lam)
    # a point that cancels in D + E need not lie on its lattice
    for X in (D, E, D + E, k * D):
        try:
            want = _old_vector(model, X)
        except ValueError as exc:
            assert "not a lattice point" in str(exc)
            with pytest.raises(ValueError, match="not a lattice point"):
                model.divisor_vector(X)
        else:
            assert model.divisor_vector(X) == want


# values that a changed document puts in place of a field, or appends to a
# list: wrong types, bad rationals, empty, unknown and repeated ids, lengths
# and offsets out of range, ends that are not a pair, a vertex no edge
# reaches, and whole entries that repeat or clash
_FAULTS = [True, False, 1.5, 2.0, None, "1/0", "x", "", "0", "-1", "-1/2",
           "9/2", 0, -1, 2, "v0", "e0", "zz", [], {}, ["v0"],
           ["v0", "v1", "v2"], ["v0", "zz"], {"vertex": "v0"},
           {"id": "w"}, {"id": "v0"}, {"id": "w", "weight": -1},
           {"id": "e0", "ends": ["v0", "v0"], "length": "1"},
           {"at": {"edge": "e0", "offset": "9/2"}, "mult": 1},
           {"at": "v0", "mult": 1}]
# and, half of the time, a value aimed at the field it replaces
_FIELD_FAULTS = {"length": ["0", "-1", 0, -2, "1/0", 1.5, "x"],
                 "offset": ["-1/2", "9/2", 9, "1/0", 0.5, True],
                 "weight": [-1, 1.5, True, "1"],
                 "mult": [True, 1.5, "1", None],
                 "id": ["", 1, None, "v0", "e0"]}


def _places(node):
    """Every (container, key) of a JSON tree, the containers themselves
    included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key
        yield from _places(child)


@st.composite
def parse_documents(draw):
    """A curve document and a divisor document on it, well formed: 1-3
    vertices, weights given or left out, loops and parallel edges, lengths
    as strings and ints, chips at vertices (both spellings) and at offsets
    0..ℓ of edges.  Then up to three changes, each one replacing, deleting,
    repeating or appending an entry anywhere in the two documents."""
    n = draw(st.integers(1, 3))
    vs = [f"v{i}" for i in range(n)]
    vertices = [{"id": v, "weight": draw(st.integers(0, 2))}
                if draw(st.booleans()) else {"id": v} for v in vs]
    ends = [[vs[draw(st.integers(0, i - 1))], vs[i]] for i in range(1, n)]
    ends += draw(st.lists(st.lists(st.sampled_from(vs), min_size=2,
                                   max_size=2), max_size=2))
    edges = [{"id": f"e{i}", "ends": uv,
              "length": draw(st.sampled_from(["1", "2", "1/2", "3/4", 1, 3]))}
             for i, uv in enumerate(ends)]
    spots = [{"vertex": v} for v in vs] + vs + [
        {"edge": e["id"], "offset": frac_str(F(e["length"]) * j / 4)}
        for e in edges for j in range(5)]
    chips = [{"at": copy.deepcopy(draw(st.sampled_from(spots))),
              "mult": draw(st.integers(-2, 2))}
             for _ in range(draw(st.integers(0, 4)))]
    doc = {"curve": {"vertices": vertices, "edges": edges},
           "divisor": {"chips": chips}}
    for _ in range(draw(st.integers(0, 3))):
        places = [(node, key) for node, key in _places(doc) if node is not doc]
        fields = [(node, key) for node, key in places if key in _FIELD_FAULTS]
        if fields and draw(st.booleans()):
            node, key = draw(st.sampled_from(fields))
            how, pool = "replace", _FIELD_FAULTS[key]
        else:
            node, key = draw(st.sampled_from(places))
            how = draw(st.sampled_from(["replace", "delete", "repeat",
                                        "append"]))
            pool = _FAULTS
        fault = copy.deepcopy(draw(st.sampled_from(pool)))
        if how == "replace":
            node[key] = fault
        elif how == "delete":
            del node[key]
        elif isinstance(node, list):
            node.append(copy.deepcopy(node[key]) if how == "repeat" else fault)
    return doc["curve"], doc["divisor"]


def _outcome(read, *args):
    """What a reader returns, or the type and message of what it raises."""
    try:
        return read(*args), None
    except Exception as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(docs=parse_documents())
# several faults: the first one the two passes meet is the one raised
@example(docs=({"vertices": [{"id": "a"}, {"id": "a"}],
                "edges": [{"id": "e", "ends": ["a", "a"], "length": "x"}]},
               {}))
@example(docs=({"vertices": [], "edges": [{"id": "e", "ends": ["a"],
                                           "length": "1"}]}, {}))
@example(docs=({"vertices": [{"id": "a", "weight": -1}, {"id": ""}],
                "edges": [{"id": "e", "ends": ["a", "b", "c"],
                           "length": "0"}]}, {}))
@example(docs=({"vertices": [{"id": "a"}, {"id": "b"}],
                "edges": [{"id": "e", "ends": ["a", "b"], "length": "1"},
                          {"id": "e", "ends": ["a"], "length": "-1"},
                          {"id": "f", "ends": ["a", "z"], "length": 1.5}]},
               {}))
@example(docs=({"vertices": [{"id": "a"}, {"id": "b"}], "edges": []}, {}))
@example(docs=({"vertices": [{"id": "a"}],
                "edges": [{"id": "l", "ends": ["a", "a"], "length": "2"}]},
               {"chips": [{"at": {"edge": "l", "offset": "2"}, "mult": 1},
                          {"at": "a", "mult": -1},
                          {"at": {"edge": "l", "offset": "3"}, "mult": True}]}))
def test_one_pass_reads_as_two_passes(docs):
    """`curve_from_json` and `divisor_from_json` give what reading every
    field first and then calling the public constructors gives
    (`oracles.two_pass_curve`, `oracles.two_pass_divisor`): the same curve,
    with its vertices, edges and adjacency in the same order, and the same
    divisor; or the same exception type and message."""
    cdoc, ddoc = docs
    c, fault = _outcome(curve_from_json, cdoc)
    want, want_fault = _outcome(two_pass_curve, cdoc)
    assert fault == want_fault
    if fault:
        return
    assert c == want
    assert (c.vertices(), c.edges()) == (want.vertices(), want.edges())
    assert all(c.incident(v) == want.incident(v) for v in c.vertices())
    D, fault = _outcome(divisor_from_json, ddoc, c)
    want_D, want_fault = _outcome(two_pass_divisor, ddoc, want)
    assert fault == want_fault
    if not fault:
        assert D == want_D and D.items() == want_D.items()
