"""The benchmark's hook into the program.

`perfbench/spans.py` wraps the entry points that ROADMAP.md lists under
"Names the benchmark wraps", and `perfbench/workloads.py` calls the library
directly.  A traced pass of two small workloads must still answer
correctly, see the kernel at work on the models it built, and account for
all of its wall time.  This reads `perfbench/` and changes nothing there.
"""

import sys
from pathlib import Path

import pytest

import tropbn as tb

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def traced_pass(queries):
    """Answers, raised flags and per-layer metrics of one traced pass, run
    as `perfbench/run.py` runs it."""
    tracer = spans.Tracer()
    tracer.install()
    # each traced recursion level adds a wrapper frame
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(2 * limit)
    try:
        _, _, answers, raised = run.run_pass(queries, tracer)
    finally:
        sys.setrecursionlimit(limit)
        tracer.uninstall()
    return answers, raised, spans.layer_metrics(tracer)


@pytest.mark.parametrize("name, setup", [
    ("rank-rr", lambda tmp: workloads.setup_rank_rr(tb, 3, tmp, size=1)),
    # with bar=100 or less, `concentrate` finds no room around the loop and
    # refuses; the benchmark's own smoke test uses 400 too
    ("lattice-dumbbell",
     lambda tmp: workloads.setup_lattice_dumbbell(tb, 2, tmp, bar=400)),
], ids=["rank-rr", "lattice-dumbbell"])
def test_traced_pass_sees_every_layer(tmp_path, name, setup):
    queries = setup(str(tmp_path))
    answers, raised, layers = traced_pass(queries)
    _, wrong = run.count_failures(queries, answers, raised)
    assert wrong == 0
    # the one known crash: rank-rr's high-degree slice runs out of stack
    for q, ans, exc in zip(queries, answers, raised):
        if exc:
            assert name == "rank-rr" and isinstance(ans, RecursionError), ans
    assert layers["kernel.calls"] > 0
    assert layers["kernel.n_max"] == layers["models.n_max"]
    accounted = (sum(layers[k] for k in spans.SELF_TIME_METRICS)
                 + layers["trace.gap_s"])
    assert accounted == pytest.approx(layers["trace.wall_s"], rel=1e-6)
