"""JSON round-trips and deterministic serialization."""

from fractions import Fraction as F

import pytest

from tropbn import (BNQuery, CombinatorialType, CycleBasis, DegenerationSpec,
                    Divisor, PLFunction, Subcurve, TorusPoint, TropicalCurve,
                    scale_cycles)
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


def test_divisor_round_trip():
    c = sample_curve()
    D = Divisor(c, [("a", 2), (c.point("l", F(1, 3)), -1)])
    obj = divisor_to_json(D)
    assert divisor_from_json(obj, c) == D
    tagged = divisor_to_json(D, curve_ref="curve.json")
    assert tagged["curve"] == "curve.json"
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
