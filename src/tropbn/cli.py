"""Command-line front end.

Subcommands wrap the library operations one-to-one; all file exchange is
JSON with rationals encoded as strings "p/q" (plain integers accepted on
input).  Output is JSON by default with sorted keys — byte-identical for
identical inputs and flags — or CSV for tabular reports.  Exit codes:
0 success, 1 domain error (bad input or flags), 2 internal invariant
violation (failed postcondition, experiment FAIL, selftest failure).
In-process callers of `main` share one parser, built on the first call.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import itertools
import json
import random
import sys
from fractions import Fraction
from io import StringIO
from typing import Dict, Optional, Sequence

from . import __version__
from .curve import (
    Point,
    TropicalCurve,
    contract,
    genus,
    rat,
    realize,
    underlying_pure,
)
from .divisor import Divisor, PLFunction, star
from .io import (
    canonical_dumps,
    curve_from_json,
    curve_to_json,
    divisor_from_json,
    divisor_to_json,
    frac_str,
    parse_ids,
    parse_int,
    point_to_json,
    read_json,
    subcurve_from_json,
    subcurve_to_json,
    type_from_json,
)
from .jacobian import abel_jacobi, universal_coords
from .models import is_equivalent, reduced_divisor
from .rank import canonical, rank_pure, rank_weighted, rank_weighted_loops, rose_rank
from .brill_noether import BNQuery, DegenerationSpec, bn_rank_detail
from .brill_noether import run_closedness_experiment, run_usc_experiment
from . import transport
from .curve import Subcurve


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit-1 domain errors."""

    def error(self, message):
        raise _UsageError(message)


# -- output shaping ----------------------------------------------------------


def _jsonable(x):
    """Recursively encode exact values as JSON-safe data."""
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Point):
        return point_to_json(x)
    if isinstance(x, Divisor):
        return divisor_to_json(x)
    if isinstance(x, Subcurve):
        return subcurve_to_json(x)
    if isinstance(x, PLFunction):
        return {"vertex_values": {v: frac_str(val) for v, val
                                  in x.vertex_values().items()}}
    return x


# -- input plumbing ----------------------------------------------------------


def _point_arg(curve: TropicalCurve, text: str) -> Point:
    """Point syntax: a vertex id, or edge@offset like e1@3/2."""
    if "@" in text:
        e, off = text.split("@", 1)
        return curve.point(e, rat(off))
    return curve.point(text)


# -- output ------------------------------------------------------------------


def _steps_csv(payload: dict, value_key: str) -> str:
    def scell(lengths):
        return ";".join(f"{e}={v}" for e, v in lengths.items())

    buf = StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(["step", "s", value_key])
    for s in payload["steps"]:
        w.writerow([s["step"], scell(s["lengths"]), s[value_key]])
    w.writerow(["limit", scell(payload["limit"]["lengths"]),
                payload["limit"][value_key]])
    return buf.getvalue()


def _generic_csv(payload: dict) -> str:
    buf = StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(["key", "value"])
    for k in sorted(payload):
        v = payload[k]
        w.writerow([k, v if isinstance(v, (str, int, bool)) else json.dumps(v, sort_keys=True)])
    return buf.getvalue()


def _emit(payload: dict, args) -> None:
    payload = _jsonable(payload)
    if getattr(args, "format", "json") == "csv":
        checks = payload.get("results", {}).get("checks") \
            if isinstance(payload.get("results"), dict) else None
        if "steps" in payload and "limit" in payload:
            key = "bn_rank" if payload.get("experiment") == "usc" else "rank"
            text = _steps_csv(payload, key)
        elif checks is not None:
            buf = StringIO()
            w = _csv.writer(buf, lineterminator="\n")
            w.writerow(["check", "pass", "detail"])
            for c in checks:
                w.writerow([c["name"], c["pass"], c.get("detail", "")])
            text = buf.getvalue()
        else:
            text = _generic_csv(payload)
    else:
        text = canonical_dumps(payload) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- selftest checks ---------------------------------------------------------


def _brute_rank(curve: TropicalCurve, D: Divisor) -> int:
    """Rank by raw search over bounded firing vectors (unit lengths only)."""
    verts = curve.vertices()
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    lap = [[0] * n for _ in range(n)]
    for e in curve.edges():
        u, v = curve.ends(e)
        if u == v:
            continue
        lap[idx[u]][idx[u]] += 1
        lap[idx[v]][idx[v]] += 1
        lap[idx[u]][idx[v]] -= 1
        lap[idx[v]][idx[u]] -= 1

    def effective(w) -> bool:
        d = sum(w)
        if d < 0:
            return False
        bound = d + genus(curve) + 3
        for sig in itertools.product(range(bound + 1), repeat=n):
            out = [w[i] - sum(lap[i][j] * sig[j] for j in range(n))
                   for i in range(n)]
            if all(x >= 0 for x in out):
                return True
        return False

    w0 = [0] * n
    for p, m in D.items():
        w0[idx[p.vertex]] += m
    if not effective(w0):
        return -1
    r = 0
    while r < sum(w0):
        ok = True
        for combo in itertools.combinations_with_replacement(range(n), r + 1):
            w = list(w0)
            for i in combo:
                w[i] -= 1
            if not effective(w):
                ok = False
                break
        if not ok:
            break
        r += 1
    return r


def _random_curve(rng: random.Random, fault: Optional[str]) -> TropicalCurve:
    nv = rng.randint(2, 4)
    names = [f"v{i}" for i in range(nv)]
    weights = {v: rng.choice([0, 0, 1]) for v in names}
    lengths = [Fraction(1), Fraction(2), Fraction(1, 2)]
    edges = []
    for i in range(1, nv):
        edges.append((f"t{i}", (names[rng.randrange(i)], names[i]),
                      rng.choice(lengths)))
    for j in range(rng.randint(0, 2)):
        a, b = rng.randrange(nv), rng.randrange(nv)
        edges.append((f"x{j}", (names[a], names[b]), rng.choice(lengths)))
    curve = TropicalCurve(weights, edges)
    if fault == "length" and curve.edges():
        e = curve.edges()[0]
        u, v, _ = curve._edges[e]
        curve._edges[e] = (u, v, Fraction(-1))   # corrupt past validation
    return curve


def _random_divisor(rng: random.Random, curve: TropicalCurve) -> Divisor:
    chips = []
    for _ in range(rng.randint(0, 4)):
        chips.append((rng.choice(curve.vertices()), rng.choice([1, 1, 2, -1])))
    return Divisor(curve, chips)


def _check_rose(rng, fault):
    for g in range(0, 4):
        curve = TropicalCurve({"v": g}, [])
        for d in range(-1, 9):
            want = rose_rank(g, d) + (1 if fault == "table" and d == 4 else 0)
            got = rank_weighted(curve, Divisor(curve, {"v": d} if d else ()))
            if got != want:
                return False, f"R_{g} deg {d}: rank {got} != {want}"
    return True, "ranks on weighted points match the closed form"


def _check_riemann_roch(rng, fault):
    for i in range(15):
        curve = _random_curve(rng, fault if i == 3 else None)
        D = _random_divisor(rng, curve)
        K = canonical(curve)
        lhs = rank_weighted(curve, D) - rank_weighted(curve, K - D)
        rhs = D.degree() - genus(curve) + 1
        if lhs != rhs:
            return False, f"case {i}: {lhs} != {rhs}"
    return True, "rank(D) - rank(K-D) = deg - g + 1 on 15 samples"


def _check_cross_definition(rng, fault):
    for i in range(8):
        curve = _random_curve(rng, fault if i == 2 else None)
        D = _random_divisor(rng, curve)
        want = rank_weighted(curve, D)
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 7)):
            got = rank_weighted_loops(curve, D, eps)
            if got != want:
                return False, f"case {i} eps {eps}: {got} != {want}"
    return True, "weighted rank equals the loop presentation at three eps"


def _check_oracle(rng, fault):
    shapes = [
        TropicalCurve({"a": 0, "b": 0}, [("e", ("a", "b"), 1)]),
        TropicalCurve({"a": 0, "b": 0, "c": 0},
                      [("e1", ("a", "b"), 1), ("e2", ("b", "c"), 1),
                       ("e3", ("a", "c"), 1)]),
        TropicalCurve({"a": 0, "b": 0},
                      [("e1", ("a", "b"), 1), ("e2", ("a", "b"), 1),
                       ("e3", ("a", "b"), 1)]),
    ]
    for curve in shapes:
        verts = curve.vertices()
        for deg in range(0, 4):
            for combo in itertools.combinations_with_replacement(verts, deg):
                D = Divisor(curve, [(v, 1) for v in combo])
                got = rank_pure(curve, D)
                want = _brute_rank(curve, D)
                if fault == "table":
                    want += 1
                if got != want:
                    return False, f"{curve!r} {D!r}: {got} != {want}"
    return True, "lattice rank agrees with the firing-vector search"


def _check_abel_jacobi(rng, fault):
    curves = [
        TropicalCurve({"a": 0, "b": 0},
                      [("e1", ("a", "b"), 1), ("e2", ("a", "b"), 2)]),
        TropicalCurve({"a": 0, "b": 0},
                      [("e1", ("a", "b"), 1), ("e2", ("a", "b"), 2),
                       ("e3", ("a", "b"), 3)]),
    ]
    for curve in curves:
        pts = [Point(vertex=v) for v in curve.vertices()]
        for e in curve.edges():
            ell = curve.length(e)
            pts += [Point(edge=e, offset=ell * k / 4) for k in (1, 2, 3)]
        for _ in range(12):
            D1 = Divisor(curve, [(rng.choice(pts), 1) for _ in range(2)])
            D2 = Divisor(curve, [(rng.choice(pts), 1) for _ in range(2)])
            same_aj = abel_jacobi(curve, D1 - D2, "a").is_zero()
            equiv = is_equivalent(D1, D2)[0]
            if fault == "length":
                equiv = not equiv
            if same_aj != equiv:
                return False, f"{D1!r} vs {D2!r}"
    return True, "equal Abel-Jacobi images iff linearly equivalent"


_CHECKS = [
    ("rose-table", _check_rose),
    ("riemann-roch", _check_riemann_roch),
    ("cross-definition", _check_cross_definition),
    ("oracle-brute", _check_oracle),
    ("abel-jacobi", _check_abel_jacobi),
]


def selftest(filter: Optional[str] = None, inject_fault: Optional[str] = None,
             seed: int = 0) -> dict:
    """Run the embedded consistency suite; returns the report that
    `tropbn selftest` prints, with one entry per check."""
    checks = []
    for name, fn in _CHECKS:
        if filter and filter not in name:
            continue
        rng = random.Random(seed)
        try:
            ok, detail = fn(rng, inject_fault)
        except Exception as exc:          # corrupted inputs land here
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append({"name": name, "pass": ok, "detail": detail})
    results = {
        "checks": checks,
        "counts": {
            "pass": sum(1 for c in checks if c["pass"]),
            "fail": sum(1 for c in checks if not c["pass"]),
        },
    }
    params: Dict[str, object] = {"seed": seed}
    if filter:
        params["filter"] = filter
    if inject_fault:
        params["inject_fault"] = inject_fault
    return {"command": "selftest", "inputs": {}, "parameters": params,
            "results": results, "version": __version__}


# -- subcommands -------------------------------------------------------------


def _cmd_rank(args) -> int:
    curve = curve_from_json(read_json(args.curve))
    D = divisor_from_json(read_json(args.divisor), curve)
    if args.loops is not None:
        eps = rat(args.eps) if args.loops == "" else rat(args.loops)
        payload = {"rank": rank_weighted_loops(curve, D, eps),
                   "method": "loops", "eps": eps}
    elif args.pure:
        payload = {"rank": rank_pure(curve, D), "method": "pure"}
    else:
        payload = {"rank": rank_weighted(curve, D), "method": "weighted"}
    _emit(payload, args)
    return 0


def _cmd_reduce(args) -> int:
    curve = curve_from_json(read_json(args.curve))
    D = divisor_from_json(read_json(args.divisor), curve)
    q = _point_arg(curve, args.basepoint)
    red, f = reduced_divisor(curve, D, q)
    _emit({"divisor": red, "basepoint": q, "witness": f}, args)
    return 0


def _cmd_equiv(args) -> int:
    curve = curve_from_json(read_json(args.curve))
    D1 = divisor_from_json(read_json(args.d1), curve)
    D2 = divisor_from_json(read_json(args.d2), curve)
    ok, f = is_equivalent(D1, D2)
    payload: dict = {"equivalent": ok}
    if ok:
        payload["witness"] = f
    _emit(payload, args)
    return 0


def _cmd_star(args) -> int:
    curve = curve_from_json(read_json(args.curve))
    D = divisor_from_json(read_json(args.divisor), curve)
    _emit({"divisor": star(D)}, args)
    return 0


def _cmd_aj(args) -> int:
    curve = curve_from_json(read_json(args.curve))
    D = divisor_from_json(read_json(args.divisor), curve)
    if curve.total_weight():
        curve = underlying_pure(curve)
        D = Divisor(curve, list(D.items()))
    q = _point_arg(curve, args.basepoint)
    Z = D - Divisor(curve, [(q, D.degree())])
    t = abel_jacobi(curve, Z, q)
    _emit({"t": list(t.entries), "g": t.genus}, args)
    return 0


def _cmd_ucoords(args) -> int:
    ctype = type_from_json(read_json(args.type))
    s = [rat(x) for x in args.s.split(",")]
    realized, _ = realize(ctype, s)
    D = divisor_from_json(read_json(args.divisor), realized)
    basepoint = args.basepoint or ctype.vertices()[0]
    uc = universal_coords(ctype, s, D, basepoint)
    _emit({"s": list(uc.s), "t": list(uc.t.entries), "degree": uc.degree,
           "basepoint": uc.basepoint}, args)
    return 0


def _cmd_contract(args) -> int:
    curve = curve_from_json(read_json(args.curve))
    target, _ = contract(curve, [e for e in args.edges.split(",") if e])
    _emit(curve_to_json(target), args)
    return 0


def _cmd_transport(args) -> int:
    curve = curve_from_json(read_json(args.curve))
    D = divisor_from_json(read_json(args.divisor), curve)
    op = args.operation
    if op == "arrange":
        if not args.subcurves or not args.targets:
            raise ValueError("arrange needs --subcurves and --targets")
        lams = [subcurve_from_json(read_json(p), curve)
                for p in args.subcurves.split(",")]
        targets = [int(x) for x in args.targets.split(",")]
        res = transport.arrange_multi(curve, D, lams, targets,
                                      budget=args.budget)
        checks = transport.check_arrange(curve, D, lams, targets, res)
        payload = {"operation": op, "divisor": res.divisor,
                   "regions": list(res.regions), "pinned": list(res.pinned),
                   "checks": checks}
    else:
        if not args.subcurve:
            raise ValueError(f"{op} needs --subcurve")
        lam = subcurve_from_json(read_json(args.subcurve), curve)
        if op == "push":
            if not args.aim:
                raise ValueError("push needs --aim")
            E = divisor_from_json(read_json(args.aim), curve)
            res = transport.push_single(curve, D, lam, E)
            checks = transport.check_push(curve, D, lam, E, res)
        elif op == "concentrate":
            res = transport.concentrate(curve, D, lam, args.r)
            checks = transport.check_concentrate(curve, D, lam, args.r, res)
        else:
            if args.k < 0:   # before the search for evidence below k
                raise ValueError("k must be >= 0")
            F = None
            if args.f:
                F = divisor_from_json(read_json(args.f), curve)
            else:
                F = transport._dilute_evidence(curve, D, lam, args.k,
                                               curve.vertices())
                if F is None:
                    raise ValueError(
                        "no evidence found that the class drops below k on "
                        "the subcurve; provide --f")
            radius = rat(args.radius) if args.radius else None
            res = transport.dilute(curve, D, lam, args.k, F=F, radius=radius)
            checks = transport.check_dilute(curve, D, lam, args.k, res)
        payload = {"operation": op, "divisor": res.divisor,
                   "region": res.region, "checks": checks}
    _emit(payload, args)
    return 0 if all(checks.values()) else 2


def _cmd_bn_rank(args) -> int:
    curve = curve_from_json(read_json(args.curve))
    query = BNQuery(d=args.d, r=args.r, resolution=args.resolution)
    res = bn_rank_detail(curve, query)
    payload = {"rho": res.rho, "N": res.resolution}
    if res.counterexample is not None:
        payload["counterexample_E"] = res.counterexample
    _emit(payload, args)
    return 0


def _spec_from_json(doc: dict) -> DegenerationSpec:
    kwargs: dict = {}
    try:
        if "steps" in doc:
            kwargs["steps"] = parse_int(doc["steps"], "steps")
        if "rate" in doc:
            kwargs["rate"] = rat(doc["rate"])
        if "base" in doc:
            kwargs["base"] = {e: rat(x) for e, x in doc["base"].items()}
        contracted = tuple(parse_ids(doc.get("contracted", []), "contracted"))
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"malformed spec JSON: {exc}") from exc
    ctype = type_from_json(doc["type"])
    pattern = divisor_from_json({"chips": doc.get("pattern", [])}, ctype.ones())
    return DegenerationSpec(ctype, contracted=contracted, pattern=pattern,
                            **kwargs)


def _cmd_experiment(args) -> int:
    doc = read_json(args.spec)
    if not isinstance(doc, dict):
        raise ValueError("spec must be a JSON object")
    for key in ("type", "d", "r") + (("rho",) if args.kind == "usc" else ()):
        if key not in doc:
            raise ValueError(f'{args.kind} spec needs "{key}"')
    spec = _spec_from_json(doc)
    d, r = parse_int(doc["d"], "d"), parse_int(doc["r"], "r")
    if args.kind == "closedness":
        report = run_closedness_experiment(spec, d, r)
    else:
        report = run_usc_experiment(spec, d, r, parse_int(doc["rho"], "rho"),
                                    resolution=parse_int(
                                        doc.get("resolution", 4), "resolution"))
    _emit(report, args)
    return 0 if report["pass"] else 2


def _cmd_selftest(args) -> int:
    report = selftest(filter=args.filter, inject_fault=args.inject_fault,
                      seed=args.seed)
    _emit(report, args)
    return 2 if report["results"]["counts"]["fail"] else 0


# -- parser ------------------------------------------------------------------


def _add_common(p: _Parser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="FILE")


# Built on the first `main` call, not at import, and shared by every later
# call in the process.  Sharing is safe because `parse_args` keeps no
# per-call state on the parser: each call fills a fresh Namespace, and the
# subcommands' `fn` comes from `set_defaults`.  Nothing may mutate the parser
# after it is built.
@functools.cache
def _build_parser() -> _Parser:
    top = _Parser(prog="tropbn",
                  description="divisor theory on weighted tropical curves")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("rank", help="rank of a divisor")
    p.add_argument("--curve", required=True)
    p.add_argument("--divisor", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--pure", action="store_true")
    mode.add_argument("--weighted", action="store_true")
    mode.add_argument("--loops", nargs="?", const="", metavar="EPS")
    p.add_argument("--eps", default="1", metavar="P/Q")
    _add_common(p)
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("reduce", help="basepoint-reduced representative")
    p.add_argument("--curve", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--basepoint", required=True, metavar="POINT")
    _add_common(p)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("equiv", help="linear equivalence of two divisors")
    p.add_argument("--curve", required=True)
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("star", help="weight-surcharged divisor E*")
    p.add_argument("--curve", required=True)
    p.add_argument("--divisor", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_star)

    p = sub.add_parser("aj", help="Abel-Jacobi image")
    p.add_argument("--curve", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--basepoint", required=True, metavar="POINT")
    _add_common(p)
    p.set_defaults(fn=_cmd_aj)

    p = sub.add_parser("ucoords", help="universal Picard coordinates")
    p.add_argument("--type", required=True)
    p.add_argument("--s", required=True, metavar="L1,L2,...")
    p.add_argument("--divisor", required=True)
    p.add_argument("--basepoint", metavar="VERTEX")
    _add_common(p)
    p.set_defaults(fn=_cmd_ucoords)

    p = sub.add_parser("contract", help="contract edges of a curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--edges", required=True, metavar="E1,E2,...")
    _add_common(p)
    p.set_defaults(fn=_cmd_contract)

    p = sub.add_parser("transport", help="move divisors toward subcurves")
    p.add_argument("operation",
                   choices=("push", "concentrate", "dilute", "arrange"))
    p.add_argument("--curve", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--subcurve")
    p.add_argument("--subcurves", metavar="F1,F2,...")
    p.add_argument("--aim", help="divisor to dominate (push)")
    p.add_argument("-r", type=int, default=1, help="rank target (concentrate)")
    p.add_argument("-k", type=int, default=0, help="degree target (dilute)")
    p.add_argument("--f", help="low-degree representative file (dilute)")
    p.add_argument("--radius", metavar="P/Q")
    p.add_argument("--targets", metavar="R1,R2,...")
    p.add_argument("--budget", type=int, default=4000)
    _add_common(p)
    p.set_defaults(fn=_cmd_transport)

    p = sub.add_parser("bn-rank", help="Brill-Noether rank at resolution N")
    p.add_argument("--curve", required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-N", "--resolution", type=int, default=1)
    _add_common(p)
    p.set_defaults(fn=_cmd_bn_rank)

    p = sub.add_parser("experiment", help="degeneration experiments")
    p.add_argument("kind", choices=("closedness", "usc"))
    p.add_argument("--spec", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("selftest", help="run the embedded consistency suite")
    p.add_argument("--filter", metavar="SUBSTR")
    p.add_argument("--inject-fault", choices=("length", "table"))
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=_cmd_selftest)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
