"""JSON serialization for curves, points, divisors and subcurves, and
parsing of combinatorial types.

All rational numbers are written as strings like "3/2" (integers as "3"),
and emitted JSON is byte-deterministic: keys sorted, no float anywhere.

Curves and divisors are read in one pass that builds the final objects.
`curve_from_json` reads each field, parses each rational once, makes the
curve constructor's own checks on it (`curve._vertex_fault`,
`curve._edge_entry`) and fills the weight and edge tables, which
`TropicalCurve._of_tables` takes over; an error of the constructor's kind
is held until the document has been read, so the error raised is the one
that reading first and constructing after would raise.
`divisor_from_json` passes each chip's point through
`TropicalCurve.point` once and adds its multiplicity to a dict that the
divisor takes over (`Divisor._of_sums`).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .curve import (CombinatorialType, Point, Subcurve, TropicalCurve,
                    _edge_entry, _vertex_fault, rat)
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
    """The curve of a JSON document, read, checked and built in one pass.

    A document that cannot be read (a missing key, a value of the wrong
    type, a malformed rational) raises at once.  The curve constructor's
    own checks (ids, duplicates, weights, endpoints, lengths) are made in
    the same loop; the first one to fail is kept and raised once the whole
    document has been read, which is the error that reading it first and
    constructing the curve after would raise."""
    weights = {}
    edges = {}
    fault = None
    try:
        for v in obj["vertices"]:
            vid = v["id"]
            w = parse_int(v.get("weight", 0), "weight")
            if fault is None:
                fault = _vertex_fault(vid, w, weights)
                if fault is None:
                    weights[vid] = w
        if fault is None and not weights:
            fault = ValueError("curve needs at least one vertex")
        for e in obj.get("edges", []):
            eid = e["id"]
            ends = parse_ids(e["ends"], "edge ends")
            ell = parse_frac(e["length"])
            if fault is None:
                entry = _edge_entry(eid, ends, ell, weights, edges)
                if isinstance(entry, ValueError):
                    fault = entry
                else:
                    edges[eid] = entry
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed curve JSON: {exc}") from exc
    if fault is not None:
        raise fault
    return TropicalCurve._of_tables(weights, edges)


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
    """A vertex id, {"vertex": id} or {"edge": id, "offset": rational};
    an object that names both a vertex and an edge is refused."""
    if isinstance(obj, str):
        return curve.point(obj)
    if "vertex" in obj and "edge" not in obj:
        return curve.point(obj["vertex"])
    if "edge" in obj and "vertex" not in obj:
        return curve.point(obj["edge"], parse_frac(obj["offset"]))
    raise ValueError(f"malformed point JSON: {obj!r}")


def divisor_to_json(D: Divisor) -> dict:
    return {"chips": [{"at": point_to_json(p), "mult": m} for p, m in D.items()]}


def divisor_from_json(obj: dict, curve: TropicalCurve) -> Divisor:
    """The divisor of a JSON document: each chip is checked once, and its
    multiplicity added to its point's sum in the same loop."""
    chips = {}
    try:
        for c in obj.get("chips", []):
            at = c["at"]
            # vertex chips, the common case, skip point_from_json's dispatch
            # and plain ints parse_int's call; both give the same results.
            # A point with any other key (an edge too) takes the dispatch.
            p = (curve.point(at["vertex"])
                 if type(at) is dict and len(at) == 1 and "vertex" in at
                 else point_from_json(at, curve))
            m = c["mult"]
            if type(m) is not int:
                m = parse_int(m, "mult")
            chips[p] = chips.get(p, 0) + m
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed divisor JSON: {exc}") from exc
    # each point is checked above, once: it is canonical on the curve
    return Divisor._of_sums(curve, chips)


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
