"""The chip-firing kernel: backend agreement and q-reduction invariants."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import (event, example, given, reject, settings,
                        strategies as st)

from tropbn import Divisor, TropicalCurve, _kernel_py
from tropbn import kernel
from tropbn.models import IntegerModel

import oracles


def csr(n, edges):
    """CSR form of an undirected multigraph on vertices 0..n-1."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    indptr = [0]
    nbrs = []
    for u in range(n):
        nbrs.extend(adj[u])
        indptr.append(len(nbrs))
    return indptr, nbrs


def random_edges(rng, n, max_extra):
    """Edges of a connected loopless multigraph on vertices 0..n-1."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    for _ in range(rng.randint(0, max_extra)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return edges


def random_csr(rng, max_v=12, max_extra=15):
    """Connected loopless multigraph in CSR form."""
    n = rng.randint(2, max_v)
    return (n, *csr(n, random_edges(rng, n, max_extra)))


def as_paths(n, edges, lengths):
    """Each edge made a path of the given length through new vertices.

    Returns the new vertex count and edge list, and the stops of its piece
    table (see `with_table`): the old vertices and the first new vertex of
    each loop.  The new vertices have degree 2, so a chip-free run of them
    is a corridor of the reduction, and each edge's are numbered on from
    its first end, as a piece table numbers a piece's.
    """
    out = []
    stops = list(range(n))
    for (u, v), length in zip(edges, lengths):
        if u == v:
            stops.append(n)
        for _ in range(length - 1):
            out.append((u, n))
            u = n
            n += 1
        out.append((u, v))
    return n, out, stops


def with_table(n, edges, div, q, stops):
    """(indptr, nbrs, div, q, pieces): the graph on vertices 0..n-1 with
    these edges, renumbered as its piece table numbers it, and that table.

    `stops` must hold every vertex whose degree is not 2, and split every
    cycle into runs between two distinct stops.  They become vertices 0,
    1, ... in their order; each run between two stops becomes a piece, and
    its vertices are numbered on in the order it is walked.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    new = {v: i for i, v in enumerate(stops)}
    ends, lengths, firsts = [], [], []
    for u in stops:
        for v in adj[u]:
            if v in new and not new[u] < new[v] < len(stops):
                continue    # taken from its other end
            first, prev, length = len(new), u, 1
            while v not in new:
                new[v] = len(new)
                a, b = adj[v]
                prev, v = v, b if a == prev else a
                length += 1
            ends += (new[u], new[v])
            lengths.append(length)
            firsts.append(first)
    order = list(new)   # the vertices in their new order
    assert len(order) == n
    return (*csr(n, [(new[u], new[v]) for u, v in edges]),
            [div[v] for v in order], new[q], (ends, lengths, firsts))


def reduce_on(backend, indptr, nbrs, div, q, pieces=None):
    """`backend.reduce_divisor` as `kernel.reduce_divisor` calls it, on
    `pieces` or on the unit table of the bare CSR; an OverflowError of the
    compiled kernel is not rerun."""
    if pieces is None:
        pieces = oracles.unit_pieces(indptr, nbrs)
    return backend.reduce_divisor(div, q, pieces)


def through_kernel(backend):
    """`kernel.reduce_divisor` with `backend` behind it, on `pieces` or on
    the unit table of the bare CSR."""
    def reduce_divisor(indptr, nbrs, div, q, pieces=None):
        if pieces is None:
            pieces = oracles.unit_pieces(indptr, nbrs)
        with mock.patch.object(kernel, "_backend", backend):
            return kernel.reduce_divisor(indptr, nbrs, div, q, pieces=pieces)
    return reduce_divisor


def tables(case):
    """The tables a case (indptr, nbrs, div, q[, pieces]) runs from: its
    bare CSR (None) and, when it has one, its own piece table."""
    return [None, *case[4:]]


def laplacian_apply(indptr, nbrs, sigma):
    n = len(indptr) - 1
    out = [0] * n
    for u in range(n):
        for i in range(indptr[u], indptr[u + 1]):
            out[u] += sigma[u] - sigma[nbrs[i]]
    return out


def burns_completely(indptr, nbrs, d, q):
    """Dhar's criterion: the fire starting at q must consume the graph."""
    n = len(indptr) - 1
    burnt = [False] * n
    burnt[q] = True
    changed = True
    while changed:
        changed = False
        for v in range(n):
            if burnt[v]:
                continue
            hot = sum(1 for i in range(indptr[v], indptr[v + 1])
                      if burnt[nbrs[i]])
            if hot > d[v]:
                burnt[v] = True
                changed = True
    return all(burnt)


def check_reduction(indptr, nbrs, div, q, red, sigma):
    n = len(indptr) - 1
    assert sigma[q] == 0
    assert sum(red) == sum(div)
    fired = laplacian_apply(indptr, nbrs, sigma)
    assert [div[v] - fired[v] for v in range(n)] == list(red)
    assert all(red[v] >= 0 for v in range(n) if v != q)
    assert burns_completely(indptr, nbrs, red, q)


def test_pure_kernel_invariants():
    rng = random.Random(100)
    for _ in range(150):
        n, indptr, nbrs = random_csr(rng)
        div = [rng.randint(-5, 6) for _ in range(n)]
        q = rng.randrange(n)
        red, sigma = reduce_on(_kernel_py, indptr, nbrs, div, q)
        check_reduction(indptr, nbrs, div, q, red, sigma)


def test_pure_kernel_idempotent():
    rng = random.Random(101)
    for _ in range(60):
        n, indptr, nbrs = random_csr(rng)
        div = [rng.randint(-4, 5) for _ in range(n)]
        q = rng.randrange(n)
        red, _ = reduce_on(_kernel_py, indptr, nbrs, div, q)
        again, sigma = reduce_on(_kernel_py, indptr, nbrs, red, q)
        assert list(again) == list(red)
        assert all(x == 0 for x in sigma)


def backend_cases(seed=102, trials=300):
    """Random graphs as in `random_csr`, then the same with long edges.

    The second half makes each edge a path of 1 to 8 edges and leaves most
    vertices chip-free, so corridors of several lengths meet in one round:
    the shortest one stops the round, and chips land partway along the
    others.  Yields (indptr, nbrs, div, q).
    """
    rng = random.Random(seed)
    for _ in range(trials):
        n, indptr, nbrs = random_csr(rng)
        yield indptr, nbrs, [rng.randint(-6, 7) for _ in range(n)], \
            rng.randrange(n)
    for _ in range(trials):
        n = rng.randint(2, 6)
        edges = random_edges(rng, n, 5)
        n, edges, _ = as_paths(n, edges,
                               [rng.choice((1, 2, 3, 5, 8)) for _ in edges])
        div = [rng.randint(-6, 7) if rng.random() < 0.3 else 0
               for _ in range(n)]
        yield (*csr(n, edges), div, rng.randrange(n))


def test_backends_agree(compiled):
    for indptr, nbrs, div, q in backend_cases():
        red_c, sig_c = reduce_on(compiled, indptr, nbrs, div, q)
        red_p, sig_p = reduce_on(_kernel_py, indptr, nbrs, div, q)
        assert list(red_c) == list(red_p)
        assert list(sig_c) == list(sig_p)


def test_kernels_only_read_div(kernel_backend):
    """`IntegerModel.reduce_vector` hands its vector to the kernel as it is,
    so neither kernel may write into `div`, a list or a tuple."""
    for indptr, nbrs, div, q in backend_cases():
        want = reduce_on(kernel_backend, indptr, nbrs, list(div), q)
        for arg in (list(div), tuple(div)):
            got = reduce_on(kernel_backend, indptr, nbrs, arg, q)
            assert list(arg) == div
            assert [list(x) for x in got] == [list(x) for x in want]


def corridor_cases(seed=103, trials=12):
    """Two cycles joined by a long path, with chips on both cycles.

    The path and the chip-free runs along the cycles are corridors.  A round
    fires the unburnt set U, then the nested sets U + {c_1}, U + {c_1, c_2},
    ... that grow along every corridor c_1, c_2, ... from U at once, k times
    each; each firing is legal because c_i passes on the k chips that it
    just took in.  So chips cross the path in one round when it is the
    shortest corridor, and land partway along it when a cycle's run is
    shorter.  Yields (indptr, nbrs, div, q, pieces), numbered as the piece
    table with the far ends of the cycles' first edges as extra stops
    numbers the graph.
    """
    rng = random.Random(seed)
    for _ in range(trials):
        seg = rng.randint(50, 400)
        near, far_len = rng.randint(3, 8), rng.randint(3, 8)
        # near cycle 0..near-1, corridor near-1..far, far cycle from far on
        far = near - 1 + seg
        n = far + far_len
        edges = [(i, (i + 1) % near) for i in range(near)]
        edges += [(i, i + 1) for i in range(near - 1, far)]
        edges += [(far + i, far + (i + 1) % far_len) for i in range(far_len)]
        div = [0] * n
        div[far] = rng.randint(1, 5)
        div[rng.randrange(near)] += rng.randint(-2, 3)
        div[far + rng.randrange(far_len)] += rng.randint(0, 2)
        q = rng.choice([0, near - 1 + seg // 2, far + 1])
        yield with_table(n, edges, div, q, [near - 1, far, 0, far + 1])


def test_pure_kernel_invariants_on_corridor():
    for case in corridor_cases():
        for pieces in tables(case):
            red, sigma = reduce_on(_kernel_py, *case[:4], pieces)
            check_reduction(*case[:4], red, sigma)


def test_compiled_kernel_invariants_on_corridor(compiled):
    for case in corridor_cases():
        for pieces in tables(case):
            red_c, sig_c = reduce_on(compiled, *case[:4], pieces)
            check_reduction(*case[:4], red_c, sig_c)
            red_p, sig_p = reduce_on(_kernel_py, *case[:4], pieces)
            assert list(red_c) == list(red_p)
            assert list(sig_c) == list(sig_p)


def test_backend_reports_identity():
    assert kernel.BACKEND in ("compiled", "python")
    assert kernel.reduce_divisor is not None


def test_q_out_of_range():
    with pytest.raises(ValueError):
        reduce_on(_kernel_py, [0, 1, 2], [1, 0], [0, 0], 5)


def test_disconnected_rejected():
    # two vertices, no edges: burning from q can never finish
    with pytest.raises(ValueError, match="connected"):
        reduce_on(_kernel_py, [0, 0, 0], [], [1, 1], 0)


def assert_rejects_bad_input(reduce_divisor):
    path = ([0, 1, 2], [1, 0])
    for q in (-1, 2, 5):
        with pytest.raises(ValueError, match="q out of range"):
            reduce_divisor(*path, [0, 0], q)
    with pytest.raises(ValueError, match="connected"):
        reduce_divisor([0, 0, 0], [], [1, 1], 0)
    # indices that point outside the CSR arrays; `oracles.unit_pieces`
    # refuses a bad CSR before any kernel sees it
    for indptr, nbrs in (([0, 1, 3], [1, 0]), ([0, 1, -1], [1, 0]),
                         ([0, 1, 2], [1, 2]), ([0, 1, 2], [-1, 0])):
        with pytest.raises(ValueError, match="CSR"):
            reduce_divisor(indptr, nbrs, [0, 0], 0)
    with pytest.raises(ValueError, match="one entry per vertex"):
        reduce_divisor(*path, [0, 0, 0], 0)
    with pytest.raises(ValueError, match="one entry per vertex"):
        reduce_divisor(*path, [3, -1, 7], 0)
    # a degree-2 vertex whose walk comes back to itself: a loop, or an
    # edge listed at one end only
    with pytest.raises(ValueError, match="CSR must list each edge"):
        reduce_divisor([0, 3, 5, 7], [1, 2, 2, 2, 1, 1, 1], [0, 0, 0], 0)
    # as many entries as two ends of each edge, but 0 - 1 and 2 - 1 are
    # each listed at one end only
    with pytest.raises(ValueError, match="CSR must list each edge"):
        reduce_divisor([0, 1, 1, 2], [1, 1], [0, 0, 0], 0)
    # the edge 0 - 1 at both ends, and a loop at 1 listed at both its ends
    with pytest.raises(ValueError, match="CSR must list each edge"):
        reduce_divisor([0, 1, 4], [1, 0, 1, 1], [0, 0], 0)


def test_pure_kernel_checks_the_piece_table(kernel_backend):
    """With a piece table `kernel.reduce_divisor` reads len(indptr) and the
    table, not the CSR, and checks len(div) against n.  Each backend checks
    q, and that the stops and piece sizes number 0..n-1 once, with every
    piece between two distinct stops of a connected graph: both refuse the
    same tables.  A table entry outside int64 ends in the pure kernel's
    refusal, not in an OverflowError."""
    reduce_divisor = through_kernel(kernel_backend)
    path = ([0, 1], [2], [2])   # stops 0 and 1, joined through vertex 2
    # CSR arrays of the right length that are never read
    assert reduce_divisor([0] * 4, [], [0, -1, 1], 0, pieces=path) \
        == reduce_divisor([0, 1, 2, 4], [2, 2, 0, 1], [0, -1, 1], 0) \
        == ([0, 0, 0], [0, -1, 0])
    for q in (-1, 3):
        with pytest.raises(ValueError, match="q out of range"):
            kernel_backend.reduce_divisor([0, 0, 0], q, path)
    for indptr in ([0] * 4, [0] * 3):
        with pytest.raises(ValueError, match="one entry per vertex"):
            reduce_divisor(indptr, [], [0] * (6 - len(indptr)), 0,
                           pieces=path)
    for table in (([0, 1], [3], [2]),       # sizes add up to 4, not 3
                  ([0, 1], [1], [2]),       # vertex 2 in no piece
                  ([0, 1], [2], [1]),       # first interior index not 2
                  ([0, 2], [2], [2]),       # stop 2 is an interior vertex
                  ([0, -1], [2], [2]),
                  ([0, 0, 0, 1], [1, 2], [2, 2]),   # a loop at stop 0
                  ([0, 1], [0], [3]),       # a piece of length 0
                  ([0, 1, 1], [2], [2])):   # half an end pair
        with pytest.raises(ValueError, match="pieces must"):
            kernel_backend.reduce_divisor([0, 0, 0], 0, table)
    with pytest.raises(ValueError, match="connected"):
        kernel_backend.reduce_divisor([0, 0, 0], 0, ([0, 1], [1], [3]))
    for table in (([0, 1], [2 ** 64], [2]), ([0, 2 ** 63], [2], [2]),
                  ([0, 1], [2], [-2 ** 64])):
        with pytest.raises(ValueError, match="pieces must"):
            reduce_divisor([0] * 4, [], [0, 0, 0], 0, pieces=table)


def test_pieces_is_a_keyword_only_argument(kernel_backend, monkeypatch):
    """`kernel.reduce_divisor` takes the piece table by keyword only, and
    needs it, on either backend; it answers from it as from the unit table
    of the same graph's CSR."""
    monkeypatch.setattr(kernel, "_backend", kernel_backend)
    indptr, nbrs = [0, 1, 2, 4], [2, 2, 0, 1]   # 0 - 2 - 1
    table = ([0, 1], [2], [2])
    want = reduce_on(_kernel_py, indptr, nbrs, [0, 3, 0], 0)
    got = kernel.reduce_divisor(indptr, nbrs, [0, 3, 0], 0, pieces=table)
    assert [list(x) for x in got] == [list(x) for x in want]
    with pytest.raises(TypeError):
        kernel.reduce_divisor(indptr, nbrs, [0, 3, 0], 0, table)
    with pytest.raises(TypeError):
        kernel.reduce_divisor(indptr, nbrs, [0, 3, 0], 0)


def test_debt_deep_inside_a_long_run(kernel_backend):
    """A debt 2,345 steps inside a run of 5,000 on a cycle, chips at its
    far end: both kernels, from the piece table and from the bare CSR,
    give the pure kernel's answer from the table, and it is q-reduced with
    div - L·sigma."""
    c = TropicalCurve({"a": 0, "b": 0},
                      [("e", ("a", "b"), 5000), ("f", ("a", "b"), 3)])
    model = IntegerModel(c, ["a", "b"])
    vec = model.divisor_vector(Divisor(c, [("b", 4)]))
    vec[model.vertex_index(c.point("e", 2345))] = -3
    q = model.vertex_index("a")
    want = reduce_on(_kernel_py, model.indptr, model.nbrs, vec, q,
                     model.pieces)
    for pieces in (None, model.pieces):
        got = reduce_on(kernel_backend, model.indptr, model.nbrs, vec, q,
                        pieces)
        assert [list(x) for x in got] == [list(x) for x in want]
    check_reduction(model.indptr, model.nbrs, vec, q, *want)


def test_compiled_kernel_rejects_bad_input(compiled):
    assert_rejects_bad_input(through_kernel(compiled))


def test_pure_kernel_rejects_bad_input():
    assert_rejects_bad_input(through_kernel(_kernel_py))


SMALL = st.integers(-8, 8)
HUGE = st.integers(-2 ** 62, 2 ** 62)
BEYOND_INT64 = (st.integers(2 ** 63, 2 ** 64)
                | st.integers(-2 ** 64, -2 ** 63 - 1))
# at q, chips right at the int64 bounds overflow as soon as a few arrive
NEAR_BOUNDS = (st.integers(2 ** 63 - 64, 2 ** 63 - 1)
               | st.integers(-2 ** 63, -2 ** 63 + 64))


@st.composite
def huge_divisors(draw):
    """(indptr, nbrs, div, q, pieces) with chip counts up to 2^62 and
    beyond int64, numbered as the piece table `as_paths` gives numbers it.

    The graph is a random connected multigraph whose edges are paths of one
    to four edges, and many vertices hold no chip, so chips meet degree-2
    corridors of several lengths.
    """
    n = draw(st.integers(2, 8))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=8)):
        if u != v:
            edges.append((u, v))
    n, edges, stops = as_paths(n, edges, draw(st.lists(
        st.integers(1, 4), min_size=len(edges), max_size=len(edges))))
    q = draw(st.integers(0, n - 1))
    off_q = SMALL | HUGE | BEYOND_INT64 if draw(st.booleans()) else SMALL
    div = draw(st.lists(st.just(0) | off_q, min_size=n, max_size=n))
    div[q] = draw(SMALL | HUGE | BEYOND_INT64 | NEAR_BOUNDS)
    return with_table(n, edges, div, q, stops)


class _Unfinished(Exception):
    pass


def counted_reduction(case, rounds, pieces=None):
    """The pure kernel's answer on the case, from `pieces` or from its bare
    CSR, and its number of burns (one per round).

    Raises `_Unfinished` once the kernel starts burn number `rounds + 1`.
    """
    burn = _kernel_py._burn
    burns = 0

    def counted(*args):
        nonlocal burns
        burns += 1
        if burns > rounds:
            raise _Unfinished
        return burn(*args)

    with mock.patch.object(_kernel_py, "_burn", counted):
        return reduce_on(_kernel_py, *case[:4], pieces), burns


def exact_reduction(case, rounds=2000):
    """The pure kernel's answer; rejects inputs needing over `rounds` rounds.

    With piles near 2^62 the burning can still alternate between two
    unburnt sets, each firing a small multiple per round, for about 2^62
    rounds in either kernel alike.  Such inputs never finish, so they cannot
    show how int64 is handled.
    """
    try:
        return counted_reduction(case, rounds)[0]
    except _Unfinished:
        reject()


# Small inputs that overflow int64 at one given step.  Stage 1 fires q's
# ball 2^62 times: vertex 2 takes 3 * 2^62 chips on the way to an answer that
# fits, or, on a star, 2^61 chips on top of nearly 2^63.  A debt of -2^63
# needs 2^63 firings.  On the path 0-1-2-3, vertex 3 fires 3 * 2^62 times in
# all.  The last four overflow at the four checked steps of a round's
# corridor fire, with q = 0 and the answer itself outside int64:
# - FAR_PILE, path 0-1-2: {2} fires 2^62 times along the corridor 1, so
#   k * eps = 2^63;
# - REFIRE_PAST_INT64, path 0-1-2: {1, 2} fires 2^63 - 3 times onto q, then
#   {2} fires twice along the corridor 1, and sigma[2] on U passes 2^63 - 1;
# - BACK_THROUGH_PILE, cycle 0-1-2-3-4: the pile's vertex 3 fires 2^63 - 4
#   times, then in round 3 vertex 2 fires back along the corridor 3, 4, and
#   sigma[3] on the corridor passes 2^63 - 1;
# - LAND_ON_FULL_Q, path 0-1-2-3: {3} fires once along the corridor 2, 1
#   and lands a chip on q, which holds 2^63 - 1.
TRIPLE_EDGE = ([0, 4, 5, 8], [1, 2, 2, 2, 0, 0, 0, 0], [0, -2 ** 62, 0], 0)
STAR_PILE = ([0, 2, 3, 4], [1, 2, 0, 0], [0, -2 ** 61, 2 ** 63 - 2 ** 60], 0)
INT64_MIN_DEBT = ([0, 1, 2], [1, 0], [0, -2 ** 63], 0)
FAR_DEBT = ([0, 1, 3, 5, 6], [1, 0, 2, 1, 3, 2], [0, 0, 0, -2 ** 62], 0)
FAR_PILE = ([0, 1, 3, 4], [1, 0, 2, 1], [0, 0, 2 ** 62], 0)
REFIRE_PAST_INT64 = ([0, 1, 3, 4], [1, 0, 2, 1], [0, 2 ** 63 - 3, 2], 0)
BACK_THROUGH_PILE = ([0, 2, 4, 6, 8, 10], [1, 4, 0, 2, 1, 3, 2, 4, 3, 0],
                     [0, 0, 0, 2 ** 63 - 4, 0], 0)
LAND_ON_FULL_Q = ([0, 1, 3, 5, 6], [1, 0, 2, 1, 3, 2],
                  [2 ** 63 - 1, 0, 0, 1], 0)
# 10^6 chips behind one chip, on the path 0-1-2-3-4
MILLION_PILE = ([0, 1, 3, 5, 7, 8], [1, 0, 2, 1, 3, 2, 4, 3],
                [0, 0, 0, 1, 10 ** 6], 0)


@pytest.mark.parametrize("case", [FAR_PILE, MILLION_PILE],
                         ids=["far_pile", "million_pile"])
def test_pile_behind_corridor_takes_few_rounds(case):
    """A pile crosses a chip-free corridor in one round, whatever its size.

    The unburnt set fires as often as its boundary allows, and along the
    corridor as far as it reaches, so the rounds do not grow with the pile.
    """
    (red, sigma), burns = counted_reduction(case, rounds=10)
    check_reduction(*case, red, sigma)
    assert burns <= 3


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=huge_divisors())
@example(case=TRIPLE_EDGE)
@example(case=STAR_PILE)
@example(case=INT64_MIN_DEBT)
@example(case=FAR_DEBT)
@example(case=FAR_PILE)
@example(case=REFIRE_PAST_INT64)
@example(case=BACK_THROUGH_PILE)
@example(case=LAND_ON_FULL_Q)
def test_compiled_kernel_is_exact_or_overflows(compiled, case):
    """int64 never wraps: the compiled answer is the exact one, or none,
    from the bare CSR and from the piece table."""
    want = exact_reduction(case)
    for pieces in tables(case):
        try:
            got = reduce_on(compiled, *case[:4], pieces)
        except OverflowError:
            event("overflow")
            continue
        assert got == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=huge_divisors())
@example(case=TRIPLE_EDGE)
def test_kernel_falls_back_to_exact_integers(compiled, case):
    """`kernel` answers exactly, rerunning on `_kernel_py` after overflow."""
    want = exact_reduction(case)
    for pieces in tables(case):
        assert through_kernel(compiled)(*case[:4], pieces=pieces) == want


@st.composite
def chain_divisors(draw):
    """(indptr, nbrs, div, q, pieces) on a multigraph whose edges are long
    paths, numbered as the piece table `as_paths` gives numbers it.

    One to five branch vertices; each edge, loops included, is a path of
    up to 60 steps.  Chips and debts sit on branch vertices and mid-chain,
    and q is often mid-chain, so the kernel's contracted graph has runs of
    many lengths, split by chips and by q.
    """
    n = draw(st.integers(1, 5))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1)), max_size=5))
    lengths = [draw(st.integers(2 if u == v else 1, 60)) for u, v in edges]
    n, edges, stops = as_paths(n, edges, lengths)
    if n == 1:
        edges, n, stops = [(0, 1)], 2, [0, 1]
    div = [0] * n
    for v, x in draw(st.lists(st.tuples(st.integers(0, n - 1), SMALL),
                              max_size=6)):
        div[v] += x
    return with_table(n, edges, div, draw(st.integers(0, n - 1)), stops)


def oracle_reduction(case, rounds=300):
    """The unit-graph oracle's answer and burns; rejects longer runs."""
    burn = oracles._unit_burn
    burns = 0

    def counted(*args):
        nonlocal burns
        burns += 1
        if burns > rounds:
            raise _Unfinished
        return burn(*args)

    with mock.patch.object(oracles, "_unit_burn", counted):
        try:
            return oracles.unit_reduce_divisor(*case[:4]), burns
        except _Unfinished:
            reject()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=chain_divisors() | huge_divisors())
def test_contracted_kernel_fires_the_oracles_rounds(case):
    """The pure kernel answers as the unit-graph oracle, in as many rounds,
    from the piece table and from the bare CSR."""
    want, burns = oracle_reduction(case)
    for pieces in tables(case):
        assert counted_reduction(case, burns, pieces) == (want, burns)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=chain_divisors() | huge_divisors())
def test_compiled_contracted_kernel_matches_the_oracle(compiled, case):
    """The compiled kernel answers as the unit-graph oracle, or refuses a
    huge input with OverflowError, from the piece table and from the bare
    CSR."""
    want, _ = oracle_reduction(case)
    for pieces in tables(case):
        try:
            assert reduce_on(compiled, *case[:4], pieces) == want
        except OverflowError:
            assert max(map(abs, case[2])) > 2 ** 40


def test_contracted_kernels_fire_the_oracles_rounds_on_corridors(compiled):
    for case in itertools.chain(corridor_cases(), backend_cases(trials=60)):
        want, burns = oracle_reduction(case)
        for pieces in tables(case):
            assert counted_reduction(case, burns, pieces) == (want, burns)
            assert reduce_on(compiled, *case[:4], pieces) == want
