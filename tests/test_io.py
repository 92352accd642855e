"""JSON round-trips and deterministic serialization."""

from fractions import Fraction as F

import pytest

from tropbn import CombinatorialType, Divisor, Subcurve, TropicalCurve
from tropbn.io import (
    canonical_dumps,
    curve_from_json,
    curve_to_json,
    digest,
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
    type_to_json,
    write_json,
)


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
    back = type_from_json(type_to_json(ct))
    assert back == ct
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


def test_digest_modes():
    obj = {"x": "1/2"}
    assert digest(obj) == digest(canonical_dumps(obj))
    assert digest(obj) == digest(canonical_dumps(obj).encode())
    assert digest(obj) != digest({"x": "1/3"})
    assert len(digest(obj)) == 64


def test_file_round_trip(tmp_path):
    c = sample_curve()
    path = str(tmp_path / "curve.json")
    write_json(curve_to_json(c), path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert text.endswith("\n")
    assert text == canonical_dumps(curve_to_json(c)) + "\n"
    back = curve_from_json(read_json(path))
    assert back.edges() == c.edges()
