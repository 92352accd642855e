"""Byte-identity of `tropbn transport` output.

Each case runs one `transport` operation through the CLI and compares its
exit code and stdout, byte for byte, with a file under ``tests/golden/``
captured from the program before its transport geometry moved to integer
ticks.  The inputs are written here as JSON documents, so they do not
depend on the code under test:

- the dumbbell of the ``lattice-dumbbell`` workload, loops of length 1 at
  x and y joined by a bar of length 1000, with Λ a loop, an isolated
  interior point of the bar, or a short segment of it;
- a theta curve whose edges have the lengths 1/2, 2/3 and 3/4, with a
  tail of length 5/7.

To capture the files again, from the checkout root:
``PYTHONPATH=src:tests python3 -c "import test_transport_golden as t; t.capture()"``
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from tropbn.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _v(v, m=1):
    return {"at": {"vertex": v}, "mult": m}


def _p(e, off, m=1):
    return {"at": {"edge": e, "offset": off}, "mult": m}


DUMBBELL = {"vertices": [{"id": "x", "weight": 0}, {"id": "y", "weight": 0}],
            "edges": [{"id": "l1", "ends": ["x", "x"], "length": "1"},
                      {"id": "l2", "ends": ["y", "y"], "length": "1"},
                      {"id": "br", "ends": ["x", "y"], "length": "1000"}]}
THETA = {"vertices": [{"id": "a", "weight": 0}, {"id": "b", "weight": 0},
                      {"id": "c", "weight": 0}],
         "edges": [{"id": "e1", "ends": ["a", "b"], "length": "1/2"},
                   {"id": "e2", "ends": ["a", "b"], "length": "2/3"},
                   {"id": "e3", "ends": ["b", "a"], "length": "3/4"},
                   {"id": "t", "ends": ["b", "c"], "length": "5/7"}]}


def _sub(vertices=(), edges=(), segments=()):
    return {"vertices": list(vertices), "edges": list(edges),
            "segments": [{"edge": e, "from": a, "to": b}
                         for e, a, b in segments]}


LOOP = _sub(["x"], ["l1"])
LOOP2 = _sub(["y"], ["l2"])
BAR_POINT = _sub(segments=[("br", "500", "500")])
BAR_SEGMENT = _sub(segments=[("br", "500", "1001/2")])
THETA_SEGMENT = _sub(segments=[("e3", "1/3", "17/50")])
THETA_SHORT = _sub(segments=[("e3", "1/3", "3001/9000")])
THETA_POINT = _sub(segments=[("e2", "2/5", "2/5")])
THETA_EDGE = _sub(["a", "b"], ["e1"])

# name -> (curve, divisor, operation, subcurve(s), extra files, extra argv)
CASES = {
    "dumbbell-loop-push": (DUMBBELL, [_v("y", 3)], "push", LOOP,
                           {"aim": [_v("x")]}, []),
    "dumbbell-loop-concentrate": (DUMBBELL, [_v("y", 3)], "concentrate",
                                  LOOP, {}, ["-r", "1"]),
    "dumbbell-loop-concentrate-csv": (DUMBBELL, [_v("y", 3)], "concentrate",
                                      LOOP, {}, ["-r", "1", "--format", "csv"]),
    "dumbbell-loop-dilute": (DUMBBELL, [_v("x", 3)], "dilute", LOOP, {},
                             ["-k", "1"]),
    "dumbbell-loop-arrange": (DUMBBELL, [_v("y", 3)], "arrange", [LOOP],
                              {}, ["--targets", "1"]),
    "dumbbell-loops-arrange": (DUMBBELL, [_v("x"), _v("y")], "arrange",
                               [LOOP, LOOP2], {}, ["--targets", "1,0"]),
    "dumbbell-point-push": (DUMBBELL, [_v("y", 3)], "push", BAR_POINT,
                            {"aim": [_p("br", "500")]}, []),
    "dumbbell-point-concentrate": (DUMBBELL, [_v("y", 4)], "concentrate",
                                   BAR_POINT, {}, ["-r", "2"]),
    "dumbbell-point-dilute": (DUMBBELL, [_p("br", "500", 2)], "dilute",
                              BAR_POINT, {}, ["-k", "1"]),
    "dumbbell-point-arrange": (DUMBBELL, [_v("y", 3)], "arrange",
                               [BAR_POINT], {}, ["--targets", "1"]),
    "dumbbell-segment-push": (DUMBBELL, [_v("y", 3)], "push", BAR_SEGMENT,
                              {"aim": [_p("br", "1001/2")]}, []),
    "dumbbell-segment-concentrate": (DUMBBELL, [_v("y", 3)], "concentrate",
                                     BAR_SEGMENT, {}, ["-r", "1"]),
    "dumbbell-segment-dilute": (DUMBBELL, [_p("br", "2001/4", 3)], "dilute",
                                BAR_SEGMENT, {}, ["-k", "2"]),
    "dumbbell-segment-arrange": (DUMBBELL, [_v("y", 3)], "arrange",
                                 [BAR_SEGMENT], {}, ["--targets", "1"]),
    "theta-segment-push": (THETA, [_v("c", 3)], "push", THETA_SEGMENT,
                           {"aim": [_p("e3", "1/3")]}, []),
    "theta-segment-concentrate": (THETA, [_v("c", 3)], "concentrate",
                                  THETA_SHORT, {}, ["-r", "1"]),
    "theta-point-concentrate": (THETA, [_v("a"), _v("c")], "concentrate",
                                THETA_POINT, {}, ["-r", "1"]),
    "theta-edge-push": (THETA, [_v("c", 4)], "push", THETA_EDGE,
                        {"aim": [_p("e1", "1/4", 2)]}, []),
    "theta-segment-dilute": (THETA, [_p("e3", "1/3", 2)], "dilute",
                             THETA_SEGMENT, {}, ["-k", "1"]),
    "theta-point-arrange": (THETA, [_v("c", 3)], "arrange", [THETA_POINT],
                            {}, ["--targets", "1"]),
}


def _run_case(name, workdir):
    """Exit code and stdout of one case, with its input files in workdir."""
    curve, chips, op, subs, extra, argv = CASES[name]

    def save(stem, obj):
        path = os.path.join(workdir, f"{name}.{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=1)
        return path

    args = ["transport", op, "--curve", save("curve", curve),
            "--divisor", save("divisor", {"chips": chips})]
    if op == "arrange":
        args += ["--subcurves",
                 ",".join(save(f"sub{i}", s) for i, s in enumerate(subs))]
    else:
        args += ["--subcurve", save("sub", subs)]
    for flag, obj in extra.items():
        args += [f"--{flag}", save(flag, {"chips": obj})]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args + argv)
    return code, buf.getvalue()


def _golden_path(name):
    return GOLDEN / f"transport.{name}.txt"


def _render(code, out):
    return f"exit {code}\n{out}"


def capture():
    """Write every case's golden file from the program as it stands."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            _golden_path(name).write_text(_render(*_run_case(name, tmp)),
                                          encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_transport_output_is_byte_identical(name, tmp_path):
    golden = _golden_path(name).read_text(encoding="utf-8")
    assert _render(*_run_case(name, str(tmp_path))) == golden
