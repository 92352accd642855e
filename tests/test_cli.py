"""Command line interface: payloads, exit codes, determinism."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropbn import Divisor, Subcurve, TropicalCurve
from tropbn import cli, models
from tropbn.cli import main
from tropbn.io import (canonical_dumps, curve_to_json, divisor_from_json,
                       divisor_to_json, subcurve_to_json)
from tropbn.models import reduced_divisor


def circle():
    return TropicalCurve({"a": 0, "b": 0},
                         [("e1", ("a", "b"), 1), ("e2", ("a", "b"), 1)])


def path3():
    return TropicalCurve({"v0": 0, "v1": 0, "v2": 0, "v3": 0},
                         [("e0", ("v0", "v1"), 1), ("e1", ("v1", "v2"), 1),
                          ("e2", ("v2", "v3"), 1)])


@pytest.fixture
def files(tmp_path):
    def save(name, obj):
        p = tmp_path / name
        p.write_text(canonical_dumps(obj) + "\n", encoding="utf-8")
        return str(p)
    return save


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rank_modes(files, capsys):
    c = circle()
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("a", 2)])))
    code, out, _ = run(capsys, "rank", "--curve", cf, "--divisor", df)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"rank": 1, "method": "weighted"}
    code, out, _ = run(capsys, "rank", "--curve", cf, "--divisor", df,
                       "--pure")
    assert json.loads(out)["method"] == "pure"
    code, out, _ = run(capsys, "rank", "--curve", cf, "--divisor", df,
                       "--loops", "1/3")
    payload = json.loads(out)
    assert payload["method"] == "loops" and payload["eps"] == "1/3"


def test_rank_csv(files, capsys):
    c = circle()
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("a", 2)])))
    code, out, _ = run(capsys, "rank", "--curve", cf, "--divisor", df,
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "rank,1" in lines


def test_reduce_round_trip(files, capsys):
    c = circle()
    cf = files("c.json", curve_to_json(c))
    D = Divisor(c, [("b", 2), (c.point("e1", F(1, 2)), 1)])
    df = files("d.json", divisor_to_json(D))
    code, out, _ = run(capsys, "reduce", "--curve", cf, "--divisor", df,
                       "--basepoint", "a")
    assert code == 0
    payload = json.loads(out)
    got = divisor_from_json(payload["divisor"], c)
    want, _ = reduced_divisor(c, D, c.point("a"))
    assert got == want
    assert payload["basepoint"] == {"vertex": "a"}


def test_equiv_payloads(files, capsys):
    tree = path3()
    cf = files("t.json", curve_to_json(tree))
    d1 = files("d1.json", divisor_to_json(Divisor(tree, [("v0", 1)])))
    d2 = files("d2.json", divisor_to_json(Divisor(tree, [("v3", 1)])))
    code, out, _ = run(capsys, "equiv", "--curve", cf, "--d1", d1, "--d2", d2)
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True and "witness" in payload
    c = circle()
    cf = files("c.json", curve_to_json(c))
    e1 = files("e1.json", divisor_to_json(Divisor(c, [("a", 1)])))
    e2 = files("e2.json", divisor_to_json(Divisor(c, [("b", 1)])))
    code, out, _ = run(capsys, "equiv", "--curve", cf, "--d1", e1, "--d2", e2)
    payload = json.loads(out)
    assert payload == {"equivalent": False}


def test_star_surcharge(files, capsys):
    # E* adds min(m, w) at each chip: 3 chips on a weight-2 vertex gain 2
    c = TropicalCurve({"v": 2}, [("l", ("v", "v"), 1)])
    cf = files("w.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("v", 3)])))
    code, out, _ = run(capsys, "star", "--curve", cf, "--divisor", df)
    assert code == 0
    payload = json.loads(out)
    assert payload["divisor"]["chips"] == [{"at": {"vertex": "v"}, "mult": 5}]


def test_aj_normalizes_degree(files, capsys):
    c = circle()
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("a", 2)])))
    code, out, _ = run(capsys, "aj", "--curve", cf, "--divisor", df,
                       "--basepoint", "a")
    assert code == 0
    assert json.loads(out) == {"t": ["0"], "g": 1}
    df2 = files("d2.json",
                divisor_to_json(Divisor(c, [(c.point("e1", F(1, 2)), 1)])))
    code, out, _ = run(capsys, "aj", "--curve", cf, "--divisor", df2,
                       "--basepoint", "a")
    payload = json.loads(out)
    assert payload["g"] == 1 and payload["t"] != ["0"]


def test_ucoords(files, capsys):
    tf = files("type.json", {
        "vertices": [{"id": "a", "weight": 0}, {"id": "b", "weight": 0}],
        "edges": [{"id": "e1", "ends": ["a", "b"]},
                  {"id": "e2", "ends": ["a", "b"]}]})
    c = circle()
    df = files("d.json", divisor_to_json(Divisor(c, [("a", 1)])))
    code, out, _ = run(capsys, "ucoords", "--type", tf, "--s", "1,1",
                       "--divisor", df)
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == ["1", "1"]
    assert payload["degree"] == 1
    assert payload["t"] == ["0"]
    assert payload["basepoint"] == {"vertex": "a"}


def test_contract(files, capsys):
    c = circle()
    cf = files("c.json", curve_to_json(c))
    code, out, _ = run(capsys, "contract", "--curve", cf, "--edges", "e2")
    assert code == 0
    payload = json.loads(out)
    assert [v["id"] for v in payload["vertices"]] == ["a"]
    assert [e["id"] for e in payload["edges"]] == ["e1"]
    assert payload["edges"][0]["ends"] == ["a", "a"]


def test_transport_push(files, capsys):
    c = path3()
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("v0", 2)])))
    sub = Subcurve(c, whole_edges=["e2"])
    sf = files("sub.json", subcurve_to_json(sub))
    af = files("aim.json", divisor_to_json(Divisor(c, [("v3", 1)])))
    code, out, _ = run(capsys, "transport", "push", "--curve", cf,
                       "--divisor", df, "--subcurve", sf, "--aim", af)
    assert code == 0
    payload = json.loads(out)
    assert all(payload["checks"].values())
    assert payload["operation"] == "push"


def test_transport_arrange_refuses_when_the_budget_runs_out(files, capsys):
    """A confinement search that runs out of budget is a domain error."""
    c = TropicalCurve({"u": 0, "v": 0, "z": 0},
                      [("e1", ("u", "v"), 1), ("e2", ("u", "v"), 1),
                       ("e3", ("u", "v"), 2), ("t", ("u", "z"), 1)])
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("u", 2), ("v", 2)])))
    sf = files("sub.json", subcurve_to_json(
        Subcurve(c, whole_edges=["e1", "e2", "e3"])))
    code, out, err = run(capsys, "transport", "arrange", "--curve", cf,
                         "--divisor", df, "--subcurves", sf, "--targets", "2",
                         "--budget", "1")
    assert code == 1 and out == ""
    assert err == "error: confinement search exhausted its budget\n"


def test_transport_dilute_finds_f(files, capsys):
    c = path3()
    cf = files("c.json", curve_to_json(c))
    E = Divisor(c, [(c.point("e1", F(1, 2)), 3)])
    df = files("d.json", divisor_to_json(E))
    sf = files("sub.json", subcurve_to_json(Subcurve(c, whole_edges=["e1"])))
    code, out, _ = run(capsys, "transport", "dilute", "--curve", cf,
                       "--divisor", df, "--subcurve", sf, "-k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["degree_exact"] is True


def test_transport_dilute_refuses_negative_k_before_searching(files, capsys,
                                                              monkeypatch):
    """Without --f the CLI searches reduced divisors for evidence that the
    class drops below k; a negative k is refused before that search, so
    no reduction runs."""
    from tropbn import kernel

    def reduce_divisor(*args, **kwargs):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(kernel, "reduce_divisor", reduce_divisor)
    c = path3()
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [(c.point("e1", F(1, 2)), 3)])))
    sf = files("sub.json", subcurve_to_json(Subcurve(c, whole_edges=["e1"])))
    code, out, err = run(capsys, "transport", "dilute", "--curve", cf,
                         "--divisor", df, "--subcurve", sf, "-k", "-1")
    assert (code, out, err) == (1, "", "error: k must be >= 0\n")


def test_transport_missing_flags(files, capsys):
    c = path3()
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("v0", 2)])))
    code, _, err = run(capsys, "transport", "push", "--curve", cf,
                       "--divisor", df)
    assert code == 1 and "subcurve" in err
    sf = files("sub.json",
               subcurve_to_json(Subcurve(c, whole_edges=["e2"])))
    code, _, err = run(capsys, "transport", "push", "--curve", cf,
                       "--divisor", df, "--subcurve", sf)
    assert code == 1 and "aim" in err


def test_bn_rank_cli(files, capsys):
    c = circle()
    cf = files("c.json", curve_to_json(c))
    code, out, _ = run(capsys, "bn-rank", "--curve", cf, "-d", "2", "-r", "1",
                       "-N", "2")
    assert code == 0
    assert json.loads(out) == {"rho": 1, "N": 2}
    # W^1_1 is empty on the circle: no search, and the bytes of the
    # enumeration's answer, with its first E as the counterexample
    code, out, _ = run(capsys, "bn-rank", "--curve", cf, "-d", "1", "-r", "1",
                       "-N", "2")
    assert code == 0
    assert out == ('{\n  "N": 2,\n  "counterexample_E": {\n    "chips": [\n'
                   '      {\n        "at": {\n          "vertex": "a"\n'
                   '        },\n        "mult": 1\n      }\n    ]\n  },\n'
                   '  "rho": -1\n}\n')


def test_bn_rank_cli_huge_degree_by_riemann_roch(files, capsys):
    """d - g >= r is answered without enumerating, whatever d is."""
    k4 = TropicalCurve({v: 0 for v in "abcd"},
                       [(u + v, (u, v), 1) for u, v in
                        ["ab", "ac", "ad", "bc", "bd", "cd"]])
    cf = files("k4.json", curve_to_json(k4))
    code, out, _ = run(capsys, "bn-rank", "--curve", cf, "-d", "1000000",
                       "-r", "1")
    assert code == 0
    assert json.loads(out)["rho"] == 999999


def closedness_spec(files):
    doc = {
        "type": {"vertices": [{"id": "x", "weight": 0},
                              {"id": "y", "weight": 0}],
                 "edges": [{"id": "l1", "ends": ["x", "x"]},
                           {"id": "l2", "ends": ["y", "y"]},
                           {"id": "br", "ends": ["x", "y"]}]},
        "contracted": ["l1"],
        "pattern": [{"at": {"vertex": "x"}, "mult": 2}],
        "steps": 3,
        "d": 2,
        "r": 1,
    }
    return files("spec.json", doc)


def test_experiment_closedness(files, capsys):
    sf = closedness_spec(files)
    code, out, _ = run(capsys, "experiment", "closedness", "--spec", sf)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["limit"]["weights"] == {"x": 1, "y": 0}
    code, out, _ = run(capsys, "experiment", "closedness", "--spec", sf,
                       "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "step,s,rank"
    assert lines[-1].startswith("limit,")


def test_experiment_usc(files, capsys):
    doc = {
        "type": {"vertices": [{"id": "a", "weight": 0},
                              {"id": "b", "weight": 0}],
                 "edges": [{"id": "e1", "ends": ["a", "b"]},
                           {"id": "e2", "ends": ["a", "b"]}]},
        "contracted": ["e1", "e2"],
        "steps": 3,
        "d": 2,
        "r": 1,
        "rho": 1,
        "resolution": 3,
    }
    sf = files("usc.json", doc)
    code, out, _ = run(capsys, "experiment", "usc", "--spec", sf,
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step,s,bn_rank"
    assert all(line.endswith(",1") for line in lines[1:])


@pytest.mark.parametrize("kind, missing", [
    ("usc", "rho"), ("usc", "d"), ("closedness", "r"), ("closedness", "type"),
])
def test_experiment_names_a_missing_spec_field(files, capsys, kind, missing):
    doc = {"type": LOOP_TYPE, "d": 1, "r": 0, "rho": 0, "steps": 1}
    del doc[missing]
    sf = files("spec.json", doc)
    code, _, err = run(capsys, "experiment", kind, "--spec", sf)
    assert code == 1
    assert err == f'error: {kind} spec needs "{missing}"\n'


def test_selftest_and_fault_injection(files, capsys):
    code, out, _ = run(capsys, "selftest", "--filter", "rose")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["checks"]
    assert all(c["pass"] for c in payload["results"]["checks"])
    assert "timing" not in payload
    code, out, _ = run(capsys, "selftest", "--filter", "rose",
                       "--inject-fault", "table")
    assert code == 2
    payload = json.loads(out)
    assert any(not c["pass"] for c in payload["results"]["checks"])


def test_selftest_csv(files, capsys):
    code, out, _ = run(capsys, "selftest", "--filter", "rose",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,pass,detail"


def test_usage_errors(files, capsys, tmp_path):
    code, _, err = run(capsys, "rank", "--curve", "x.json", "--divisor",
                       "y.json", "--bogus")
    assert code == 1 and "usage error" in err
    code, _, err = run(capsys)
    assert code == 1
    code, _, err = run(capsys, "rank", "--curve", str(tmp_path / "no.json"),
                       "--divisor", str(tmp_path / "no.json"))
    assert code == 1 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    c = circle()
    cf = files("c.json", curve_to_json(c))
    code, _, err = run(capsys, "rank", "--curve", cf, "--divisor", str(bad))
    assert code == 1


@pytest.mark.parametrize("argv", [["rank"], ["reduce", "--basepoint", "a"]],
                         ids=["rank", "reduce"])
def test_point_naming_a_vertex_and_an_edge_is_refused(files, capsys, argv):
    """A chip at {"vertex": "a", "edge": "e1", "offset": "1/2"} is
    malformed: the command exits 1 and counts no chip at a."""
    c = circle()
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", {"chips": [{"at": {"vertex": "a", "edge": "e1",
                                            "offset": "1/2"}, "mult": 1}]})
    code, out, err = run(capsys, argv[0], "--curve", cf, "--divisor", df,
                         *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed point JSON")


def test_byte_determinism(files, capsys):
    c = circle()
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("a", 2)])))
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "rank", "--curve", cf, "--divisor", df)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    reports = []
    for _ in range(2):
        code, out, _ = run(capsys, "selftest", "--filter", "abel")
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]


def test_bytes_do_not_depend_on_the_hash_seed(files):
    """`reduce` and `transport push` print the same bytes under every
    PYTHONHASHSEED: sets and dicts of points iterate in hash order, and a
    point's hash mixes in the string hashes of its vertex or edge id."""
    c = TropicalCurve({"x": 0, "y": 0},
                      [("l1", ("x", "x"), 1), ("l2", ("y", "y"), 1),
                       ("br", ("x", "y"), 3)])
    D = Divisor(c, [(c.point("l1", F(1, 3)), 1), (c.point("l2", F(1, 4)), 1),
                    (c.point("br", 1), 1), (c.point("br", 2), 1)])
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(D))
    sf = files("s.json", subcurve_to_json(Subcurve(c, whole_edges=["l1"])))
    ef = files("e.json", divisor_to_json(Divisor(c, [(c.point("l1", F(1, 2)), 1)])))
    argvs = [["reduce", "--curve", cf, "--divisor", df, "--basepoint", "x"],
             ["transport", "push", "--curve", cf, "--divisor", df,
              "--subcurve", sf, "--aim", ef]]
    script = ("import json, sys\n"
              "from tropbn.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == 0\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(
                       [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    assert '"offset"' in outs.pop()


def test_out_flag(files, capsys, tmp_path):
    c = circle()
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("a", 2)])))
    target = str(tmp_path / "out.json")
    code, out, _ = run(capsys, "rank", "--curve", cf, "--divisor", df,
                       "--out", target)
    assert code == 0 and out == ""
    with open(target, "r", encoding="utf-8") as fh:
        assert json.loads(fh.read()) == {"rank": 1, "method": "weighted"}


def test_module_entry_point(files, tmp_path):
    c = circle()
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("a", 2)])))
    proc = subprocess.run(
        [sys.executable, "-m", "tropbn.cli", "rank", "--curve", cf,
         "--divisor", df],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"rank": 1, "method": "weighted"}


HERE = Path(__file__).resolve().parent
HELP_GOLDEN = HERE / "golden"
SUBCOMMANDS = ("rank", "reduce", "equiv", "star", "aj", "ucoords", "contract",
               "transport", "bn-rank", "experiment", "selftest")


def call_main(argv):
    """Exit code, stdout and stderr of one in-process call; `--help` exits
    through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="the goldens hold the help text of argparse in "
                           "Python 3.10-3.12; 3.13 wraps usage lines and "
                           "prints an option's metavar once")
@pytest.mark.parametrize("cmd", [None, *SUBCOMMANDS])
def test_help_text_is_pinned(cmd, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = call_main([cmd, "--help"] if cmd else ["--help"])
    golden = HELP_GOLDEN / (f"help.{cmd}.txt" if cmd else "help.txt")
    assert (code, err) == (0, "")
    assert out == golden.read_text(encoding="utf-8")


def test_in_process_calls_share_one_parser(files, monkeypatch, tmp_path):
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    monkeypatch.setenv("COLUMNS", "80")
    bn = workloads.bn_cli_calls(0, str(tmp_path))
    c = circle()
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("a", 2)])))
    calls = [
        ["rank", "--curve", cf, "--bogus"],
        ["--help"],
        *(argv for _, argv in bn),
        ["rank", "--curve", cf, "--divisor", df, "--format", "csv"],
        ["rank", "--curve", cf, "--divisor", str(tmp_path / "no.json")],
        *(argv for _, argv in bn),
    ]
    cli._build_parser.cache_clear()
    shared = [call_main(argv) for argv in calls]
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
    # the same calls, each on a parser built for it alone
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [call_main(argv) for argv in calls]
    assert shared == fresh
    assert [r[0] for r in shared] == [1, 0, 0, 0, 0, 0, 1, 0, 0, 0]
    for (name, _), (code, out, err) in zip(bn + bn, shared[2:5] + shared[7:]):
        with open(workloads.golden_path(name), "r", encoding="utf-8") as fh:
            assert (code, out, err) == (0, fh.read(), "")


def test_rank_far_above_canonical_degree(files):
    c = circle()
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("a", 1200)])))
    proc = subprocess.run(
        [sys.executable, "-m", "tropbn.cli", "rank", "--curve", cf,
         "--divisor", df, "--pure"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"rank": 1199, "method": "pure"}


def test_reduce_on_oversized_lattice_is_a_domain_error(files):
    """An edge of length 10^12 needs 10^12 lattice points: refused, not built."""
    c = TropicalCurve({"a": 0, "b": 0}, [("e", ("a", "b"), 10 ** 12)])
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("a", 1)])))

    def limit():
        # 1 GB of address space: a build that ignores the cap fails at
        # once instead of filling the machine's memory
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    proc = subprocess.run(
        [sys.executable, "-m", "tropbn.cli", "reduce", "--curve", cf,
         "--divisor", df, "--basepoint", "b"],
        capture_output=True, text=True, timeout=30, preexec_fn=limit)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "lattice points" in proc.stderr


def test_reduce_answers_where_rank_is_refused_by_the_size_limit(
        files, capsys, monkeypatch):
    """The size limit counts the lattice that is built.  On a dumbbell with
    unit loops and a bar of 1000, `reduce` leaves the loops out (1001
    points) and answers under a limit of 1500; `rank` needs the loop
    midpoints (2003 points) and is refused."""
    monkeypatch.setattr(models, "MAX_LATTICE_POINTS", 1500)
    c = TropicalCurve({"x": 0, "y": 0},
                      [("l1", ("x", "x"), 1), ("l2", ("y", "y"), 1),
                       ("br", ("x", "y"), 1000)])
    cf = files("c.json", curve_to_json(c))
    df = files("d.json", divisor_to_json(Divisor(c, [("y", 2)])))
    code, out, _ = run(capsys, "reduce", "--curve", cf, "--divisor", df,
                       "--basepoint", "x")
    assert code == 0
    assert divisor_from_json(json.loads(out)["divisor"], c) \
        == Divisor(c, [("x", 2)])
    code, out, err = run(capsys, "rank", "--curve", cf, "--divisor", df)
    assert (code, out) == (1, "")
    assert "lattice points" in err and "Traceback" not in err


CIRCLE = {"vertices": [{"id": "a"}, {"id": "b"}],
          "edges": [{"id": "e1", "ends": ["a", "b"], "length": "1"},
                    {"id": "e2", "ends": ["a", "b"], "length": "1"}]}
CHIP = {"chips": [{"at": {"vertex": "a"}, "mult": 2}]}
LOOP_TYPE = {"vertices": [{"id": "x"}],
             "edges": [{"id": "l", "ends": ["x", "x"]}]}


def _with_length(length):
    return dict(CIRCLE, edges=[dict(CIRCLE["edges"][0], length=length),
                               CIRCLE["edges"][1]])


@pytest.mark.parametrize("docs, argv", [
    ({"c": _with_length("1/0"), "d": CHIP}, ["rank"]),
    ({"c": _with_length(True), "d": CHIP}, ["rank"]),
    ({"c": CIRCLE, "d": CHIP}, ["rank", "--loops", "1/0"]),
    ({"t": LOOP_TYPE, "d": {"chips": []}},
     ["ucoords", "--type", "{t}", "--s", "1/0"]),
    ({"c": CIRCLE, "d": []}, ["rank"]),
    ({"c": CIRCLE, "d": {"chips": [{"at": 5, "mult": 1}]}}, ["rank"]),
    ({"c": CIRCLE, "d": {"chips": [{"at": "a", "mult": [1]}]}}, ["rank"]),
    ({"c": CIRCLE, "d": {"chips": [{"at": "a", "mult": 1.9}]}}, ["rank"]),
    ({"c": dict(CIRCLE, vertices=[{"id": "a", "weight": 1.7}, {"id": "b"}]),
      "d": CHIP}, ["rank"]),
    ({"s": "x"}, ["experiment", "usc", "--spec", "{s}"]),
    ({"c": dict(CIRCLE, edges=[dict(CIRCLE["edges"][0], ends=[{}, "a"])]),
      "d": CHIP}, ["rank"]),
    ({"c": CIRCLE, "d": CHIP, "s": {"vertices": 5}},
     ["transport", "concentrate", "--curve", "{c}", "--divisor", "{d}",
      "--subcurve", "{s}"]),
    ({"c": CIRCLE, "d": CHIP, "s": {"edges": [["e1"]]}},
     ["transport", "push", "--curve", "{c}", "--divisor", "{d}",
      "--subcurve", "{s}", "--aim", "{d}"]),
    ({"s": {"type": LOOP_TYPE, "d": 1, "r": 0, "contracted": [{}]}},
     ["experiment", "closedness", "--spec", "{s}"]),
    ({"s": {"type": LOOP_TYPE, "d": 1, "r": 0,
            "pattern": [{"at": {"vertex": {}}, "mult": 1}]}},
     ["experiment", "closedness", "--spec", "{s}"]),
], ids=["length-1/0", "length-true", "loops-1/0", "s-1/0", "divisor-list", "at-int",
        "mult-list", "mult-float", "weight-float", "spec-string", "ends-dict",
        "subcurve-vertices-int", "subcurve-edge-list", "contracted-dict",
        "pattern-vertex-dict"])
def test_malformed_input_is_a_domain_error(files, docs, argv):
    """Bad numbers and JSON of the wrong shape end with exit 1, no trace."""
    paths = {k: files(f"{k}.json", doc) for k, doc in docs.items()}
    if argv[0] == "rank":
        argv = argv + ["--curve", "{c}", "--divisor", "{d}"]
    elif argv[0] == "ucoords":
        argv = argv + ["--divisor", "{d}"]
    proc = subprocess.run(
        [sys.executable, "-m", "tropbn.cli"]
        + [a.format(**paths) for a in argv],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, (proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


SEGMENT = {"vertices": [{"id": "a"}, {"id": "b"}],
           "edges": [{"id": "e", "ends": ["a", "b"], "length": "1"}]}


@pytest.mark.parametrize("chips, r", [
    ([("a", 2), ("b", -1)], "0"),
    ([("a", 2), ("b", -1)], "1"),
    ([("a", -1)], "0"),
], ids=["debt-r0", "debt-r1", "negative-r0"])
def test_concentrate_rejects_a_divisor_that_is_not_effective(files, chips, r):
    """Like push and arrange, concentrate refuses D that is not effective."""
    cf = files("c.json", SEGMENT)
    df = files("d.json", {"chips": [{"at": {"vertex": v}, "mult": m}
                                    for v, m in chips]})
    sf = files("s.json", {"vertices": ["a"]})
    proc = subprocess.run(
        [sys.executable, "-m", "tropbn.cli", "transport", "concentrate",
         "--curve", cf, "--divisor", df, "--subcurve", sf, "-r", r],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, (proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_contract_names_the_first_unknown_edge(files):
    """The error names the first unknown edge given, whatever the hash seed."""
    cf = files("c.json", CIRCLE)
    errs = set()
    for seed in range(8):
        proc = subprocess.run(
            [sys.executable, "-m", "tropbn.cli", "contract", "--curve", cf,
             "--edges", "e,f"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONHASHSEED=str(seed)))
        assert proc.returncode == 1
        errs.add(proc.stderr)
    assert errs == {"error: unknown edge 'e'\n"}


# -- fuzz: every subcommand, valid and malformed input -----------------------

ODD_VALUES = st.sampled_from(
    ["0", "-1", "1/0", "x", 1.5, None, [], {}, True, "1000000000000"])


def _odd(good):
    """Mostly a valid value; now and then one of wrong type or range."""
    return st.integers(0, 15).flatmap(lambda k: ODD_VALUES if k == 7 else good)


VERTEX_IDS = _odd(st.sampled_from(["v0", "v1", "v2"]))
EDGE_IDS = _odd(st.sampled_from(["e0", "e1", "e2"]))
OFFSETS = st.sampled_from(["0", "1/3", "1/2", "1", "5"])


@st.composite
def curve_docs(draw):
    n = draw(st.integers(1, 3))
    ends = [[f"v{draw(st.integers(0, i - 1))}", f"v{i}"] for i in range(1, n)]
    ends += draw(st.lists(st.lists(st.sampled_from([f"v{i}" for i in range(n)]),
                                   min_size=2, max_size=2),
                          min_size=0 if n > 1 else 1, max_size=2))
    lengths = st.sampled_from(["1", "2", "1/2", "3/2", "2/3"])
    return {"vertices": [{"id": f"v{i}", "weight": draw(_odd(st.integers(0, 1)))}
                         for i in range(n)],
            "edges": [{"id": f"e{i}", "ends": draw(_odd(st.just(uv))),
                       "length": draw(_odd(lengths))}
                      for i, uv in enumerate(ends)]}


def point_docs():
    return _odd(st.one_of(
        st.builds(lambda v: {"vertex": v}, VERTEX_IDS),
        st.builds(lambda e, o: {"edge": e, "offset": o}, EDGE_IDS, OFFSETS)))


def divisor_docs(mults=st.integers(-2, 3)):
    chip = st.builds(lambda p, m: {"at": p, "mult": m}, point_docs(), _odd(mults))
    return _odd(st.builds(lambda cs: {"chips": cs},
                          st.lists(chip, max_size=4)))


def subcurve_docs():
    """Mostly connected subcurves of the curve (v0 and e0 always exist)."""
    segment = st.builds(lambda e, a, b: {"edge": e, "from": a, "to": b},
                        EDGE_IDS, OFFSETS, OFFSETS)
    connected = st.sampled_from([
        {"vertices": ["v0"]}, {"edges": ["e0"]}, {"vertices": ["v0"], "edges": ["e0"]},
        {"segments": [{"edge": "e0", "from": "0", "to": "1/2"}]},
        {"segments": [{"edge": "e0", "from": "1/3", "to": "1/3"}]}])
    anything = st.builds(
        lambda vs, es, ss: {"vertices": vs, "edges": es, "segments": ss},
        st.lists(VERTEX_IDS, max_size=2), st.lists(EDGE_IDS, max_size=2),
        st.lists(segment, max_size=2))
    return _odd(st.one_of(connected, anything))


def spec_docs():
    ctype = st.builds(
        lambda c: {"vertices": c["vertices"],
                   "edges": [{"id": e["id"], "ends": e["ends"]}
                             for e in c["edges"]]}, curve_docs())
    return _odd(st.fixed_dictionaries(
        {"type": ctype, "d": _odd(st.integers(0, 3)), "r": _odd(st.integers(0, 2)),
         "rho": st.integers(-1, 2)},
        optional={"contracted": st.lists(EDGE_IDS, max_size=2),
                  "steps": _odd(st.integers(1, 2)),
                  "pattern": st.lists(st.fixed_dictionaries(
                      {"at": st.builds(lambda v: {"vertex": v}, VERTEX_IDS),
                       "mult": st.integers(0, 2)}), max_size=2),
                  "resolution": _odd(st.integers(1, 2))}))


POINT_ARGS = _odd(st.sampled_from(["v0", "v1", "e0@1/2"])).map(str)
SMALL_INTS = st.integers(-1, 3).map(str)


@st.composite
def cli_calls(draw):
    """(documents to write, argv with {name} for each document's path)."""
    docs = {"c": draw(curve_docs()), "d": draw(divisor_docs())}
    cmd = draw(st.sampled_from(
        ["rank", "reduce", "equiv", "star", "aj", "ucoords", "contract",
         "transport", "bn-rank", "experiment", "selftest"]))
    common = ["--curve", "{c}", "--divisor", "{d}"]
    if cmd == "rank":
        argv = ["rank", *common] + draw(st.sampled_from(
            [[], ["--pure"], ["--weighted"], ["--loops"], ["--loops", "1/2"],
             ["--loops", "0"]]))
    elif cmd in ("reduce", "aj"):
        argv = [cmd, *common, "--basepoint", draw(POINT_ARGS)]
    elif cmd == "equiv":
        docs["d2"] = draw(divisor_docs())
        argv = ["equiv", "--curve", "{c}", "--d1", "{d}", "--d2", "{d2}"]
    elif cmd == "star":
        argv = ["star", *common]
    elif cmd == "ucoords":
        docs["t"] = {"vertices": docs["c"]["vertices"],
                     "edges": [{"id": e["id"], "ends": e["ends"]}
                               for e in docs["c"]["edges"]]}
        m = len(docs["c"]["edges"]) + draw(st.sampled_from([0, 0, 0, 1]))
        s = ",".join(map(str, draw(st.lists(
            _odd(st.sampled_from(["0", "1", "1/2"])), min_size=m, max_size=m))))
        argv = ["ucoords", "--type", "{t}", "--s", s, "--divisor", "{d}"]
        argv += draw(st.sampled_from([[], ["--basepoint", "v0"],
                                      ["--basepoint", "zz"]]))
    elif cmd == "contract":
        edges = ",".join(map(str, draw(st.lists(EDGE_IDS, max_size=3))))
        argv = ["contract", "--curve", "{c}", "--edges", edges]
    elif cmd == "transport":
        op = draw(st.sampled_from(["push", "concentrate", "dilute", "arrange"]))
        docs["d"] = draw(divisor_docs(
            st.integers(0, 15).map(lambda k: -1 if k == 7 else k % 4)))
        argv = ["transport", op, *common, "--budget", "40"]
        if op == "arrange":
            docs["s1"], docs["s2"] = draw(subcurve_docs()), draw(subcurve_docs())
            argv += ["--subcurves", "{s1},{s2}", "--targets",
                     f"{draw(SMALL_INTS)},{draw(SMALL_INTS)}"]
        else:
            docs["s"] = draw(subcurve_docs())
            argv += ["--subcurve", "{s}"]
        if op == "push":
            docs["a"] = draw(divisor_docs(st.integers(0, 1)))
            argv += ["--aim", "{a}"]
        elif op == "concentrate":
            argv += ["-r", draw(SMALL_INTS)]
        elif op == "dilute":
            argv += ["-k", draw(SMALL_INTS)]
            argv += draw(st.sampled_from([[], ["--radius", "1/8"],
                                          ["--radius", "0"]]))
    elif cmd == "bn-rank":
        argv = ["bn-rank", "--curve", "{c}", "-d", draw(SMALL_INTS),
                "-r", draw(SMALL_INTS), "-N", draw(st.sampled_from(["1", "2", "0"]))]
    elif cmd == "experiment":
        docs["s"] = draw(spec_docs())
        argv = ["experiment", draw(st.sampled_from(["closedness", "usc"])),
                "--spec", "{s}"]
    else:
        argv = ["selftest", "--seed", draw(SMALL_INTS)]
        argv += draw(st.sampled_from(
            [[], ["--filter", "rose"], ["--filter", "abel"],
             ["--inject-fault", "table"], ["--inject-fault", "length"]]))
    if draw(st.integers(0, 9)) == 0:
        argv += ["--format", "csv"]
    return docs, argv


def _fill(arg, paths):
    for name, path in paths.items():
        arg = arg.replace("{" + name + "}", path)
    return arg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(call=cli_calls())
def test_cli_fuzz_exit_contract(call):
    """Every outcome is 0, 1 with an error line, or 2 where 2 is a verdict."""
    docs, argv = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([_fill(a, paths) for a in argv])
    assert code in (0, 1, 2), code
    if code == 1:
        assert err.getvalue().startswith(("error: ", "usage error: "))
    if code == 2:
        assert argv[0] in ("experiment", "selftest"), (argv, out.getvalue())
