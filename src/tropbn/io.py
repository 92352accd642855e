"""JSON serialization for curves, points, divisors and subcurves, and
parsing of combinatorial types.

All rational numbers are written as strings like "3/2" (integers as "3"),
and emitted JSON is byte-deterministic: keys sorted, no float anywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .curve import CombinatorialType, Point, Subcurve, TropicalCurve, rat
from .divisor import Divisor


def frac_str(x) -> str:
    return str(Fraction(x))


def parse_frac(s) -> Fraction:
    """A JSON rational: an integer or a string like "3/2"."""
    if isinstance(s, (int, str)):
        return rat(s)
    raise ValueError(f"expected a rational string, got {s!r}")


def parse_int(x, what: str) -> int:
    """A JSON integer; floats, strings and booleans are refused, not cut."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError(f"{what} must be an integer, got {x!r}")


def parse_ids(x, what: str) -> list:
    """A JSON list of string ids; anything else is refused."""
    if isinstance(x, list) and all(isinstance(i, str) for i in x):
        return x
    raise ValueError(f"{what} must be a list of ids, got {x!r}")


def curve_to_json(curve: TropicalCurve) -> dict:
    return {
        "vertices": [{"id": v, "weight": curve.weight(v)} for v in curve.vertices()],
        "edges": [
            {"id": e, "ends": list(curve.ends(e)), "length": frac_str(curve.length(e))}
            for e in curve.edges()
        ],
    }


def curve_from_json(obj: dict) -> TropicalCurve:
    try:
        vertices = [(v["id"], parse_int(v.get("weight", 0), "weight"))
                    for v in obj["vertices"]]
        edges = [(e["id"], tuple(parse_ids(e["ends"], "edge ends")),
                  parse_frac(e["length"]))
                 for e in obj.get("edges", [])]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed curve JSON: {exc}") from exc
    return TropicalCurve(vertices, edges)


def type_from_json(obj: dict) -> CombinatorialType:
    try:
        vertices = [(v["id"], parse_int(v.get("weight", 0), "weight"))
                    for v in obj["vertices"]]
        edges = [(e["id"], tuple(parse_ids(e["ends"], "edge ends")))
                 for e in obj.get("edges", [])]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed type JSON: {exc}") from exc
    return CombinatorialType(vertices, edges)


def point_to_json(p: Point) -> dict:
    if p.is_vertex:
        return {"vertex": p.vertex}
    return {"edge": p.edge, "offset": frac_str(p.offset)}


def point_from_json(obj, curve: TropicalCurve) -> Point:
    if isinstance(obj, str):
        return curve.point(obj)
    if "vertex" in obj:
        return curve.point(obj["vertex"])
    if "edge" in obj:
        return curve.point(obj["edge"], parse_frac(obj["offset"]))
    raise ValueError(f"malformed point JSON: {obj!r}")


def divisor_to_json(D: Divisor) -> dict:
    return {"chips": [{"at": point_to_json(p), "mult": m} for p, m in D.items()]}


def divisor_from_json(obj: dict, curve: TropicalCurve) -> Divisor:
    try:
        chips = [(point_from_json(c["at"], curve), parse_int(c["mult"], "mult"))
                 for c in obj.get("chips", [])]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed divisor JSON: {exc}") from exc
    # each chip is checked above, once: its point is canonical on the curve
    return Divisor._of_canonical(curve, chips)


def subcurve_to_json(sub: Subcurve) -> dict:
    segments = []
    for e, ivs in sorted(sub.segments.items()):
        for a, b in ivs:
            segments.append({"edge": e, "from": frac_str(a), "to": frac_str(b)})
    return {
        "vertices": sorted(sub.vertices),
        "edges": sorted(sub.whole_edges),
        "segments": segments,
    }


def subcurve_from_json(obj: dict, curve: TropicalCurve) -> Subcurve:
    segs = {}
    try:
        for s in obj.get("segments", []):
            segs.setdefault(s["edge"], []).append(
                (parse_frac(s["from"]), parse_frac(s["to"])))
        vertices = parse_ids(obj.get("vertices", []), "subcurve vertices")
        edges = parse_ids(obj.get("edges", []), "subcurve edges")
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed subcurve JSON: {exc}") from exc
    return Subcurve(curve, vertices, edges, segs)


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, no floats."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "),
                      allow_nan=False)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
