"""The benchmark's three workloads.

Each workload turns a seed into a fixed list of queries and writes their
inputs as JSON files, so that set-up does the same work a user's input
preparation would.  A query is a closure that builds fresh curve objects
from the JSON it was given (no per-curve cache carries over between
passes), calls the program, and returns its answer; a separate check
decides, without the tracer running, whether that answer is right.
Checks prefer oracles that do not depend on the code under test: closed
forms, Riemann-Roch with a canonical divisor computed here from the JSON,
and golden CLI output captured when the benchmark was defined.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")


class Query:
    """One timed call into the program, with the check for its answer."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
    return path


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _vchip(v, m):
    return {"at": {"vertex": v}, "mult": m}


# -- rank-rr -------------------------------------------------------------------

# (betti number, total weight) of the generated curves; genus stays <= 3 and
# deg D runs over [-1, 2g - 1], so D and K - D have rank below g.  Bigger
# genus or degree makes single queries take seconds (the rank search is
# exponential in the rank), and then the time of a run depends on how many
# such curves a seed happens to draw.
_RR_SHAPES = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))
RR_CELLS = tuple((b1, w, d) for b1, w in _RR_SHAPES
                 for d in range(-1, 2 * (b1 + w)))
RR_PER_CELL = 190
_RR_LENGTHS = ("1", "2", "1/2", "3/4")

# d·a on the genus-1 banana; the rank search recurses once per chip, so
# the largest degrees hit Python's recursion limit (a known crash, counted
# as a failed query rather than skipped).
HIGH_DEGREES = (200, 400, 600, 800, 1100, 1200)


def _rr_curve(rng, b1, w):
    n = rng.randint(1, 4)
    names = [f"v{i}" for i in range(n)]
    weighted = set(rng.sample(names, w))
    edges = []
    for i in range(1, n):
        edges.append({"id": f"t{i}", "ends": [names[rng.randrange(i)], names[i]],
                      "length": rng.choice(_RR_LENGTHS)})
    for j in range(b1):
        edges.append({"id": f"x{j}",
                      "ends": [rng.choice(names), rng.choice(names)],
                      "length": rng.choice(_RR_LENGTHS)})
    return {"vertices": [{"id": v, "weight": int(v in weighted)} for v in names],
            "edges": edges}


def _rr_divisor(rng, curve, deg):
    names = [v["id"] for v in curve["vertices"]]
    chips = [_vchip(rng.choice(names), rng.choice((-1, 1, 1, 2)))
             for _ in range(rng.randint(0, 3))]
    if curve["edges"] and rng.random() < 0.5:
        e = rng.choice(curve["edges"])
        chips.append({"at": {"edge": e["id"],
                             "offset": str(Fraction(e["length"]) / 2)},
                      "mult": 1})
    rest = deg - sum(c["mult"] for c in chips)
    if rest:
        chips.append(_vchip(rng.choice(names), rest))
    return {"chips": chips}


def canonical_chips(curve):
    """K = Σ_v (deg v - 2 + 2 w(v))·v, loops counted twice, from the JSON."""
    k = {v["id"]: 2 * v["weight"] - 2 for v in curve["vertices"]}
    for e in curve["edges"]:
        for v in e["ends"]:
            k[v] += 1
    return [_vchip(v, m) for v, m in k.items() if m]


def genus_of(curve):
    """First Betti number plus total weight, from the JSON."""
    return (len(curve["edges"]) - len(curve["vertices"]) + 1
            + sum(v["weight"] for v in curve["vertices"]))


def degree_of(divisor):
    return sum(c["mult"] for c in divisor["chips"])


def _negate(divisor):
    return {"chips": [dict(c, mult=-c["mult"]) for c in divisor["chips"]]}


def _rr_inputs(seed, per_cell):
    rng = random.Random(seed)
    items = []
    for _ in range(per_cell):
        for b1, w, deg in RR_CELLS:
            curve = _rr_curve(rng, b1, w)
            D = _rr_divisor(rng, curve, deg)
            K = canonical_chips(curve)
            items.append({"curve": curve, "D": D,
                          "KmD": {"chips": K + _negate(D)["chips"]}})
    banana = {"vertices": [{"id": "a", "weight": 0}, {"id": "b", "weight": 0}],
              "edges": [{"id": "e1", "ends": ["a", "b"], "length": "1"},
                        {"id": "e2", "ends": ["a", "b"], "length": "1"}]}
    for d in HIGH_DEGREES:
        D = {"chips": [_vchip("a", d)]}
        items.append({"curve": banana, "D": D, "KmD": _negate(D)})
    rng.shuffle(items)
    return items


def rr_expected_ok(item, ranks):
    """Riemann-Roch, plus rank = deg - g above 2g - 2 and -1 below 0."""
    r, rk = ranks
    g = genus_of(item["curve"])
    d = degree_of(item["D"])
    ok = r - rk == d - g + 1
    if d > 2 * g - 2:
        ok = ok and r == d - g
    if d < 0:
        ok = ok and r == -1
    return ok


def setup_rank_rr(tb, seed, workdir, size=RR_PER_CELL):
    from tropbn.io import curve_from_json, divisor_from_json

    path = _write(workdir, "rank-rr.json", _rr_inputs(seed, size))
    queries = []
    for i, item in enumerate(_read(path)):
        def run(item=item):
            c = curve_from_json(item["curve"])
            D = divisor_from_json(item["D"], c)
            KmD = divisor_from_json(item["KmD"], c)
            return tb.rank_weighted(c, D), tb.rank_weighted(c, KmD)

        queries.append(Query(f"rr{i}", run,
                             lambda ans, item=item: rr_expected_ok(item, ans)))
    return queries


# -- bn-usc ----------------------------------------------------------------------

BN_QUERIES = ("k4", "weighted-triangle", "usc-dumbbell")


def _bn_inputs():
    """CLI input documents, the same for every seed.

    Relabeling or reordering a curve changes the model's vertex numbering,
    hence the order in which the rank search tries points, and that alone
    moves these queries' times by up to 2x; so the seed only orders the
    queries within a pass.
    """
    vs = "abcd"
    k4 = {"vertices": [{"id": v, "weight": 0} for v in vs],
          "edges": [{"id": u + v, "ends": [u, v], "length": "1"}
                    for u, v in itertools.combinations(vs, 2)]}
    tri = {"vertices": [{"id": "a", "weight": 1}, {"id": "b", "weight": 0},
                        {"id": "c", "weight": 0}],
           "edges": [{"id": "e1", "ends": ["a", "b"], "length": "1"},
                     {"id": "e2", "ends": ["b", "c"], "length": "1"},
                     {"id": "e3", "ends": ["c", "a"], "length": "1"}]}
    ctype = {"vertices": [{"id": "x", "weight": 0}, {"id": "y", "weight": 0}],
             "edges": [{"id": "l1", "ends": ["x", "x"]},
                       {"id": "l2", "ends": ["y", "y"]},
                       {"id": "br", "ends": ["x", "y"]}]}
    usc = {"type": ctype, "contracted": ["l1"], "steps": 5, "d": 4, "r": 1,
           "rho": 2, "resolution": 3}
    return {"k4": k4, "weighted-triangle": tri, "usc-dumbbell": usc}


def _bn_argv(name, path):
    if name == "k4":
        return ["bn-rank", "--curve", path, "-d", "4", "-r", "1", "-N", "3"]
    if name == "weighted-triangle":
        return ["bn-rank", "--curve", path, "-d", "5", "-r", "2", "-N", "3"]
    return ["experiment", "usc", "--spec", path]


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"bn-usc.{name}.json")


def bn_cli_calls(seed, workdir):
    """(name, argv) of each in-process CLI call, with input files written."""
    docs = _bn_inputs()
    names = list(BN_QUERIES)
    random.Random(seed).shuffle(names)
    return [(name, _bn_argv(name, _write(workdir, f"bn-usc.{name}.json", docs[name])))
            for name in names]


def run_cli(cli, argv):
    """Exit code and stdout text of one in-process `tropbn` CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def setup_bn_usc(tb, seed, workdir):
    import tropbn.cli as cli

    queries = []
    for name, argv in bn_cli_calls(seed, workdir):
        with open(golden_path(name), "r", encoding="utf-8") as fh:
            golden = fh.read()
        queries.append(Query(name, lambda argv=argv: run_cli(cli, argv),
                             lambda ans, golden=golden: ans == (0, golden)))
    return queries


# -- lattice-dumbbell --------------------------------------------------------

BAR = 1000


def _relabel(rng, names, prefix):
    fresh = rng.sample(range(100, 1000), len(names))
    return {n: f"{prefix}{k}" for n, k in zip(names, fresh)}


def _dumbbell(seed, bar):
    rng = random.Random(seed)
    vmap = _relabel(rng, ["x", "y"], "v")
    emap = _relabel(rng, ["l1", "l2", "br"], "e")
    x, y = vmap["x"], vmap["y"]
    bar_from_x = rng.random() < 0.5
    curve = {"vertices": [{"id": x, "weight": 0}, {"id": y, "weight": 0}],
             "edges": [{"id": emap["l1"], "ends": [x, x], "length": "1"},
                       {"id": emap["l2"], "ends": [y, y], "length": "1"},
                       {"id": emap["br"], "ends": [x, y] if bar_from_x else [y, x],
                        "length": str(bar)}]}
    rng.shuffle(curve["vertices"])
    rng.shuffle(curve["edges"])
    debt_at = rng.randrange(bar // 4, 3 * bar // 4)
    return {"curve": curve, "x": x, "y": y, "l1": emap["l1"], "bar": emap["br"],
            "debt_offset": str(debt_at)}


def setup_lattice_dumbbell(tb, seed, workdir, bar=BAR):
    # called through their modules, so that the tracer's wrappers are seen
    import tropbn.models as models
    import tropbn.transport as transport
    from tropbn.io import curve_from_json

    doc = _read(_write(workdir, "lattice-dumbbell.json", _dumbbell(seed, bar)))
    x, y, l1 = doc["x"], doc["y"], doc["l1"]

    def inputs(debt=False):
        c = curve_from_json(doc["curve"])
        if debt:
            p = c.point(doc["bar"], Fraction(doc["debt_offset"]))
            return c, tb.Divisor(c, [(y, 4), (p, -1)])
        return c, tb.Divisor(c, [(y, 3)])

    def reduced_ok(ans):
        c, D, (red, f) = ans
        # D lives on y and the bar, which hang off x by a bridge: all of it
        # slides to x
        return (red == tb.Divisor(c, [(x, 3)]) and red == D + f.divisor()
                and all(m >= 0 for p, m in red.items() if p != c.point(x)))

    def reduce_query(debt):
        def run():
            c, D = inputs(debt)
            return c, D, models.reduced_divisor(c, D, x)
        return run

    state = {}

    def concentrate_run():
        c, D = inputs()
        lam = tb.Subcurve(c, whole_edges=[l1])
        res = transport.concentrate(c, D, lam, 1)
        state["concentrate"] = (c, D, lam, res)
        return res

    def concentrate_ok(res):
        return res.divisor.is_effective() and res.divisor.degree() == 3

    def check_run():
        c, D, lam, res = state.pop("concentrate")
        return transport.check_concentrate(c, D, lam, 1, res)

    def diameter_run():
        c, _ = inputs()
        return models.subcurve_diameter(tb.Subcurve(c, whole_edges=[l1]))

    return [
        Query("rank-3y", lambda: tb.rank_weighted(*inputs()), lambda r: r == 1),
        Query("reduce", reduce_query(False), reduced_ok),
        Query("reduce-debt", reduce_query(True), reduced_ok),
        Query("concentrate", concentrate_run, concentrate_ok),
        Query("check-concentrate", check_run,
              lambda checks: bool(checks) and all(checks.values())),
        # a loop of length 1: the farthest pair is antipodal
        Query("diameter-l1", diameter_run, lambda d: d == Fraction(1, 2)),
    ]


SETUPS = {
    "rank-rr": setup_rank_rr,
    "bn-usc": setup_bn_usc,
    "lattice-dumbbell": setup_lattice_dumbbell,
}


def capture_golden(seed=0):
    """Write the bn-usc golden outputs from the program as it stands.

    Run once, at the commit that defines the benchmark, from the checkout
    root: PYTHONPATH=src:perfbench python3 -c
    "import workloads; workloads.capture_golden()"
    """
    import tempfile

    import tropbn.cli as cli

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in bn_cli_calls(seed, tmp):
            code, out = run_cli(cli, argv)
            if code != 0:
                raise RuntimeError(f"{name}: exit code {code}")
            with open(golden_path(name), "w", encoding="utf-8") as fh:
                fh.write(out)
