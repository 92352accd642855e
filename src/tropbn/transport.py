"""Divisor transport: pushing chips toward a subcurve, concentration,
diluting, confinement candidates, and multi-subcurve arrangement.

All operations return a :class:`TransportResult` carrying the transported
divisor, the (possibly enlarged) region, and the piecewise linear witness
relating input and output.

The geometry of a push (the neighbourhood of Λ, the clamped witness and
the descent region) is worked out in integer ticks at one scale per call
and converted to `Fraction`s once, where each result is built; see
`curve.neighborhood`, `divisor.clamp` and `_descent_region`.
"""

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .curve import (Point, Subcurve, TropicalCurve, _is_int, _ticks,
                    neighborhood, deformation_retracts, rat)
from .divisor import (Divisor, PLFunction, _cut_at, _point_key, _values_at, clamp,
                      restrict, star)
from .models import IntegerModel, _reduced_divisor, is_equivalent
from .rank import rank_weighted


@dataclass
class TransportResult:
    """Outcome of a transport operation.

    ``divisor`` is linearly equivalent to the input (``witness`` is the
    piecewise linear function with input + div(witness) = divisor) and
    ``region`` contains the subcurve the operation was aimed at.  Multi-curve
    arrangement fills ``regions``/``pinned`` with one entry per subcurve and
    sets ``region`` to the first of them.
    """

    divisor: Divisor
    region: Subcurve
    witness: PLFunction
    regions: Tuple[Subcurve, ...] = ()
    pinned: Tuple[Divisor, ...] = ()


def slope_bound_check(f: PLFunction, d: int) -> bool:
    """True iff every linear piece of f has |slope| <= d."""
    return f.max_abs_slope() <= d


def r_lambda(r: int, lam: Subcurve) -> int:
    """r^Λ = r + min{r, g(Λ)}."""
    return r + min(r, lam.genus())


def _concentration_radius(lam: Subcurve, d: int, r: int) -> Fraction:
    """ε(3d)^{d-r+1} with ε the diameter of Λ: how far `concentrate` may
    grow Λ for a divisor of degree d and rank target r (0 when r is 0)."""
    return lam.diameter() * (3 * d) ** (d - r + 1) if r > 0 else Fraction(0)


def _plus(total: Optional[PLFunction], w: PLFunction) -> PLFunction:
    """total + w, where None stands for the zero function: the first
    witness of a loop is taken as it is."""
    return w if total is None else total + w


def _or_zero(curve: TropicalCurve, total: Optional[PLFunction]) -> PLFunction:
    return PLFunction.constant(curve) if total is None else total


# -- small geometric helpers -------------------------------------------------


def subcurves_disjoint(a: Subcurve, b: Subcurve) -> bool:
    """No common point (both subcurves are closed).  A subcurve holds every
    vertex it covers in its vertex set, so the vertices are one test."""
    if a.parent != b.parent:
        raise ValueError("curve mismatch")
    if a.vertices & b.vertices:
        return False
    return not any(max(a0, b0) <= min(a1, b1)
                   for e, ivs in a.intervals.items() for a0, a1 in ivs
                   for b0, b1 in b.intervals.get(e, ()))


def _pull_to_subcurve(lam: Subcurve, divisors: Sequence[Divisor]):
    """Extract Λ as a curve and carry the given divisors onto it; the
    pull map's images are canonical on the extracted curve."""
    sc, pull = lam.as_curve()
    moved = [Divisor._of_canonical(sc, [(pull(p), m) for p, m in D.items()])
             for D in divisors]
    return sc, moved


def _restriction_dominates(lam: Subcurve, D: Divisor, E: Divisor) -> bool:
    """restrict(D, Λ) - star(E) ~ effective as divisors on Λ."""
    sc, (Ds, Es) = _pull_to_subcurve(lam, [restrict(D, lam), E])
    return rank_weighted(sc, Ds - star(Es)) >= 0


def _subcurve_rds(lam: Subcurve) -> List[Point]:
    """Vertices of the loopless model of Λ, as points of the parent curve:
    Λ's vertices, the ends of its intervals, and the midpoint of each loop
    that Λ covers whole."""
    curve = lam.parent
    pts = {Point(vertex=v) for v in lam.vertices}
    for e, ivs in lam.intervals.items():
        pts.update(curve.point(e, t) for iv in ivs for t in iv)
        if curve.is_loop(e) and ivs == ((0, curve.length(e)),):
            pts.add(curve.point(e, curve.length(e) / 2))
    return sorted(pts, key=_point_key)


# -- pushing a single divisor ------------------------------------------------


def _descent_region(curve: TropicalCurve, f: PLFunction, lam: Subcurve,
                    mu: Fraction) -> Subcurve:
    """Closure of Λ plus the paths emanating from it along which f is
    strictly decreasing and strictly above mu.

    Each edge is cut at its ends, Λ's interval ends, f's knots and the
    points where f crosses mu, all as integer ticks at the one scale of
    `divisor._cut_at`, which covers Λ's interval ends too.  A search from
    Λ's boundary takes a piece between two cuts when f is above mu at its
    near end and lower at its far end; Λ and the pieces taken are built
    once, through `Subcurve._of_ticks`."""
    m, level, vt, rows = _cut_at(f, mu, (x.denominator
                                         for ivs in lam.intervals.values()
                                         for iv in ivs for x in iv))
    held = {e: [(_ticks(a, m), _ticks(b, m)) for a, b in ivs]
            for e, ivs in lam.intervals.items()}
    # per edge: its cuts, f at each, and the pieces (i, i + 1) inside Λ
    cuts: Dict[str, List[int]] = {}
    values: Dict[str, List[int]] = {}
    occupied = set()
    for e, (ts, xs) in rows.items():
        cs = sorted({*ts, *(t for iv in held.get(e, ()) for t in iv)})
        cuts[e], values[e] = cs, _values_at(ts, xs, cs)
        for i in range(len(cs) - 1):
            if any(a <= cs[i] and cs[i + 1] <= b for a, b in held.get(e, ())):
                occupied.add((e, i))

    # a node of the search is a vertex id or an (edge, tick) pair inside it
    def node(e, t):
        u, v = curve.ends(e)
        return u if t == 0 else v if t == cuts[e][-1] else (e, t)

    def value(pt):
        if isinstance(pt, str):
            return vt[pt]
        e, t = pt
        return values[e][cuts[e].index(t)]

    def adjacent(pt):
        out = []
        if isinstance(pt, str):
            for e in sorted({ed for ed, _ in curve.incident(pt)}):
                u, w = curve.ends(e)
                if u == pt:
                    out.append((e, 0, True))
                if w == pt:
                    out.append((e, len(cuts[e]) - 2, False))
        else:
            e, t = pt
            i = cuts[e].index(t)
            if i > 0:
                out.append((e, i - 1, False))
            if i < len(cuts[e]) - 1:
                out.append((e, i, True))
        return out

    included = set()
    seen = set()
    dq = deque(dict.fromkeys(node(e, _ticks(t, m)) for e, t, _ in lam.exits()))
    while dq:
        pt = dq.popleft()
        if pt in seen:
            continue
        seen.add(pt)
        fp = value(pt)
        if fp <= level:
            continue
        for e, i, from_left in adjacent(pt):
            if (e, i) in occupied or (e, i) in included:
                continue
            far = i + 1 if from_left else i
            if values[e][far] >= fp:
                continue
            included.add((e, i))
            dq.append(node(e, cuts[e][far]))

    for e, i in included:
        held.setdefault(e, []).append((cuts[e][i], cuts[e][i + 1]))
    return Subcurve._of_ticks(curve, set(lam.vertices), held, m,
                              {e: ts[-1] for e, (ts, _) in rows.items()})


def push_single(curve: TropicalCurve, D: Divisor, lam: Subcurve, E: Divisor,
                *, rank_checked: bool = False) -> TransportResult:
    """Move chips of D toward Λ until E* is dominated there.

    Returns D' = D + div(f̄) with f̄ the witness of D - E* clamped at the
    infimum mu of f over the boundary of the diameter-neighborhood of Λ.
    D' is effective, equivalent to D, agrees with D on Λ (when Λ has
    positive diameter), and restrict(D', Λ') - star(E) is equivalent to an
    effective divisor on the enlarged region Λ' ⊆ N_{d·ε}(Λ).
    """
    if lam.parent != curve or D.curve != curve or E.curve != curve:
        raise ValueError("curve mismatch")
    if not D.is_effective() or not E.is_effective():
        raise ValueError("push_single needs effective divisors")
    for p in E._chips:
        if not lam._contains(p):
            raise ValueError("E must be supported on the subcurve")
    r = E.degree()
    if not rank_checked and rank_weighted(curve, D) < r:
        raise ValueError("rank precondition violated: rank(D) < deg E")
    if r == 0 or lam.is_whole_curve():
        return TransportResult(D, lam, PLFunction.constant(curve))
    Es = star(E)
    if all(D._chips.get(p, 0) >= m for p, m in Es._chips.items()):
        return TransportResult(D, lam, PLFunction.constant(curve))
    red, f = _reduced_divisor(curve, D - Es, Es.support()[0])
    if not red.is_effective():
        raise ValueError("rank precondition violated: D - star(E) has no "
                         "effective representative")
    eps = lam.diameter()
    nbh = neighborhood(curve, lam, eps)
    bps = nbh.boundary_points()
    if not bps:
        return TransportResult(D, Subcurve.whole(curve),
                               PLFunction.constant(curve))
    mu = min(f._value(p) for p in bps)
    fbar = clamp(f, mu, nbh)
    return TransportResult(D + fbar.divisor(), _descent_region(curve, f, lam, mu),
                           fbar)


# -- concentration -----------------------------------------------------------


def concentrate(curve: TropicalCurve, D: Divisor, lam: Subcurve, r: int,
                *, rank_checked: bool = False) -> TransportResult:
    """Make the restriction of an equivalent divisor have rank >= r on an
    enlargement of Λ.

    Iterates :func:`push_single` over every effective degree-r divisor
    supported on the vertex rank-determining set of Λ, skipping those already
    dominated.  Requires N_{ε(3d)^{d-r+1}}(Λ) to deformation retract onto Λ
    with no weighted vertices outside Λ.
    """
    if lam.parent != curve or D.curve != curve:
        raise ValueError("curve mismatch")
    if not _is_int(r):
        raise ValueError("r must be an integer")
    if r < 0:
        raise ValueError("r must be >= 0")
    if not D.is_effective():
        raise ValueError("concentrate needs an effective divisor")
    if r == 0:
        return TransportResult(D, lam, PLFunction.constant(curve))
    if not rank_checked and rank_weighted(curve, D) < r:
        raise ValueError("rank precondition violated: rank(D) < r")
    big = neighborhood(curve, lam, _concentration_radius(lam, D.degree(), r))
    if not deformation_retracts(big, lam):
        raise ValueError("neighborhood does not deformation retract onto Λ")
    for v in curve.vertices():
        if curve.weight(v) > 0 and v in big.vertices and v not in lam.vertices:
            raise ValueError(f"weighted vertex {v!r} inside the neighborhood "
                             "but outside Λ")
    rds = _subcurve_rds(lam)
    cur_D, cur_lam, total = D, lam, None
    for combo in itertools.combinations_with_replacement(rds, r):
        S = Divisor._of_canonical(curve, [(p, 1) for p in combo])
        if _restriction_dominates(cur_lam, cur_D, S):
            continue
        res = push_single(curve, cur_D, cur_lam, S, rank_checked=True)
        cur_D, cur_lam = res.divisor, res.region
        total = _plus(total, res.witness)
    if not big.contains_subcurve(cur_lam):
        raise AssertionError("concentration region escaped its bound")
    return TransportResult(cur_D, cur_lam, _or_zero(curve, total))


# -- diluting ----------------------------------------------------------------


@dataclass
class _Germ:
    edge: str
    t0: Fraction
    direction: int          # +1 toward larger offsets
    fp: Fraction            # f at the base point
    slope: int              # outgoing slope of f
    avail: Fraction         # obstruction-free length


def _emanating(curve: TropicalCurve, lam: Subcurve, f: PLFunction,
               E: Divisor) -> List[_Germ]:
    chips: Dict[str, List[Fraction]] = {}
    for p, _ in E.items():
        if p.edge is not None:
            chips.setdefault(p.edge, []).append(p.offset)

    def germ(e, t0, direction):
        ell = curve.length(e)
        obstructions = [Fraction(0), ell]
        obstructions += [o for o, _ in f.knots(e)]
        obstructions += chips.get(e, [])
        for a, b in lam.covered_intervals(e):
            obstructions += [a, b]
        if direction > 0:
            beyond = [o for o in obstructions if o > t0]
            avail = min(beyond) - t0
        else:
            beyond = [o for o in obstructions if o < t0]
            avail = t0 - max(beyond)
        fp = f.value(Point(edge=e, offset=t0))
        ffar = f.value(Point(edge=e, offset=t0 + direction * avail))
        s = (ffar - fp) / avail
        if s.denominator != 1:
            raise AssertionError(f"non-integer slope {s} leaving Λ along {e!r}")
        return _Germ(e, t0, direction, fp, int(s), avail)

    return [germ(e, t0, direction) for e, t0, direction in lam.exits()]


def _dilute_evidence(curve: TropicalCurve, D: Divisor, lam: Subcurve, k: int,
                     order: Sequence[str]) -> Optional[Divisor]:
    """Evidence for `dilute`: reduce D at each vertex outside Λ, in the
    given order, and return the first reduction whose restriction to Λ has
    degree below k, or None."""
    for v in order:
        if v in lam.vertices:
            continue
        red, _ = _reduced_divisor(curve, D, curve.point(v))
        if restrict(red, lam).degree() < k:
            return red
    return None


def dilute(curve: TropicalCurve, E: Divisor, lam: Subcurve, k: int, *,
           F: Optional[Divisor] = None, radius=None) -> TransportResult:
    """Lower the degree of E on a small enlargement of Λ to exactly k.

    Needs evidence that the class can drop below k on Λ: an effective
    F ~ E with deg(F|Λ) < k.  Sorts the germs leaving Λ by (f at base,
    outgoing slope), lets the flow through the first germs pass, installs a
    partial-slope ramp on the threshold germ, and blocks the rest by
    absorbing their stubs into the region.
    """
    if not _is_int(k):
        raise ValueError("k must be an integer")
    if k < 0:
        raise ValueError("k must be >= 0")
    if lam.parent != curve or E.curve != curve:
        raise ValueError("curve mismatch")
    if not E.is_effective():
        raise ValueError("E must be effective")
    degl = restrict(E, lam).degree()
    if degl == k:
        return TransportResult(E, lam, PLFunction.constant(curve))
    if degl < k:
        raise ValueError("restriction of E is already below k")
    if F is None:
        raise ValueError("dilute needs F")
    ok, f = is_equivalent(F, E)
    if not ok:
        raise ValueError("F is not equivalent to E")
    if restrict(F, lam).degree() >= k:
        raise ValueError("F does not drop below k on the subcurve")

    germs = _emanating(curve, lam, f, E)
    if sum(g.slope for g in germs) != degl - restrict(F, lam).degree():
        raise AssertionError("outgoing slopes do not account for the drop "
                             "in degree on Λ")
    germs.sort(key=lambda g: (g.fp, g.slope, g.edge, g.t0, g.direction))
    running = degl
    alpha = None
    for i, g in enumerate(germs):
        running -= g.slope
        if running <= k:
            alpha = i
            break
    if alpha is None:
        raise AssertionError("the germs never bring the degree down to k")
    ga = germs[alpha]
    c = degl - sum(g.slope for g in germs[:alpha]) - k
    if not 0 < c <= ga.slope:
        raise AssertionError(f"ramp slope {c} outside 1..{ga.slope}")

    if radius is not None and rat(radius) <= 0:
        raise ValueError("radius must be positive")
    length = min(g.avail for g in germs) / 2
    if radius is not None:
        length = min(length, rat(radius))
    # keep far stubs strictly above the clip level M
    for g in germs[alpha + 1:]:
        gap = g.fp - ga.fp
        if gap > 0:
            length = min(length, gap / (2 * (abs(g.slope) + c + 1)))
    eps = length / 2
    M = ga.fp + eps * c

    g0 = f.min_const(M)
    vv = g0.vertex_values()
    knots = {e: {o: val for o, val in g0.knots(e)} for e in curve.edges()
             if g0.knots(e)}
    t1 = ga.t0 + ga.direction * eps
    lo, hi = min(ga.t0, t1), max(ga.t0, t1)
    ek = knots.setdefault(ga.edge, {})
    for o in [o for o in ek if lo < o < hi]:
        del ek[o]
    ek[t1] = M
    if 0 < ga.t0 < curve.length(ga.edge):
        ek[ga.t0] = ga.fp
    fbar = PLFunction(curve, vv,
                      {e: sorted(d.items()) for e, d in knots.items() if d})

    stubs: Dict[str, List[Tuple[Fraction, Fraction]]] = {}
    for g in germs[alpha + 1:]:
        far = g.t0 + g.direction * length
        stubs.setdefault(g.edge, []).append((min(g.t0, far), max(g.t0, far)))
    lamp = lam.grown(stubs)

    E2 = E + fbar.divisor()
    if not E2.is_effective():
        raise AssertionError("diluted divisor is not effective")
    if restrict(E2, lamp).degree() != k:
        raise AssertionError("diluted divisor does not have degree k on "
                             "the region")
    return TransportResult(E2, lamp, fbar)


# -- confinement -------------------------------------------------------------


def confinement_search(curve: TropicalCurve, lam: Subcurve, k: int, *,
                       budget: int = 4000) -> Optional[Divisor]:
    """Search for k points of Λ that no equivalent divisor can evacuate.

    Candidates are degree-k configurations on the half-step lattice of Λ
    (the model at scale 2); each is attacked by reducing every effective
    extension E (candidate plus at most one outside chip) at every lattice
    basepoint and checking whether the restriction drops below k.  The
    first survivor is returned.  None means the budget of reductions ran
    out first, which refutes nothing: the certificate is bounded by the
    lattice, the extra chips and the budget.
    """
    if not _is_int(k) or not _is_int(budget):
        raise ValueError("k and budget must be integers")
    if lam.parent != curve:
        raise ValueError("curve mismatch")
    h = lam.betti()
    if not (0 <= k <= h):
        raise ValueError(f"k = {k} out of range 0..{h}")
    if k == 0:
        return Divisor.zero(curve)
    model = IntegerModel(curve, marks=lam.boundary_points(), scale=2)
    lam_idx = set(model.indices_in(lam))
    inside = sorted(lam_idx)
    outside = [i for i in range(model.n) if i not in lam_idx]
    vertex_idx = sorted({model.vertex_index(Point(vertex=v))
                         for v in curve.vertices()})
    # deterministic bounded attack: original vertices plus a lattice stride
    stride = max(1, model.n // 24)
    basepoints = sorted(set(vertex_idx) | set(range(0, model.n, stride)))
    extra_sites = sorted({i for i in vertex_idx if i not in lam_idx}
                         | set(outside[::max(1, len(outside) // 24)]))
    trials = 0
    for combo in itertools.combinations_with_replacement(inside, k):
        candidate = [0] * model.n
        for i in combo:
            candidate[i] += 1
        # the candidate, then with one more chip at each extra site
        vecs = itertools.chain([candidate], (
            candidate[:x] + [candidate[x] + 1] + candidate[x + 1:]
            for x in extra_sites))
        for vec, qi in ((vec, qi) for vec in vecs for qi in basepoints):
            if trials >= budget:
                return None
            trials += 1
            red, _ = model.reduce_vector(vec, qi)
            if sum(red[i] for i in lam_idx) < k:
                break   # evacuated
        else:
            return Divisor(curve, [(model.point_of_index(i), 1) for i in combo])
    return None


# -- arrangement -------------------------------------------------------------


def _subcurve_gap(a: Subcurve, b: Subcurve) -> Fraction:
    """Distance between two disjoint closed subcurves (attained on boundaries)."""
    pa = a.boundary_points() or [Point(vertex=v) for v in sorted(a.vertices)]
    pb = b.boundary_points() or [Point(vertex=v) for v in sorted(b.vertices)]
    return min(a.parent.distance(p, q) for p in pa for q in pb)


def _arrange_single(curve: TropicalCurve, D: Divisor, lam: Subcurve, r: int,
                    *, budget: int = 4000, stub_radius=None):
    """Pin an effective U of degree r near Λ so that every equivalent divisor
    containing U keeps degree >= r + min(r, b1(Λ)) on the region."""
    if r == 0:
        return D, lam, Divisor.zero(curve), PLFunction.constant(curve)
    total = None
    work = D
    s = min(r, lam.betti())
    V = Divisor.zero(curve)
    if s > 0:
        V = confinement_search(curve, lam, s, budget=budget)
        if V is None:
            raise ValueError("confinement search exhausted its budget")
        Vs = star(V)
        red, fV = _reduced_divisor(curve, work - Vs, Vs.support()[0])
        if not red.is_effective():
            raise ValueError("rank precondition violated: cannot contain the "
                             "confined configuration")
        work = red + Vs
        total = fV
    conc = concentrate(curve, work, lam, r, rank_checked=True)
    work, region = conc.divisor, conc.region
    total = _plus(total, conc.witness)
    base = work - V
    if not base.is_effective():
        raise AssertionError("the confined configuration left the divisor")
    drop = _dilute_evidence(curve, base, region, r, sorted(curve.vertices()))
    if drop is None:
        rest = restrict(work, region) - V
        if rest.degree() < r - s:
            raise AssertionError("concentration left too few chips on the "
                                 "region")
        extra = []
        need = r - s
        for p, m in rest.items():
            take = min(m, need - len(extra))
            extra += [(p, 1)] * take
            if len(extra) >= need:
                break
        U = V + Divisor(curve, extra)
        return work, region, U, total
    dres = dilute(curve, base, region, r, F=drop, radius=stub_radius)
    total = total + dres.witness
    U = restrict(dres.divisor, dres.region)
    if U.degree() != r:
        raise AssertionError("diluted divisor does not have degree r on "
                             "the region")
    return dres.divisor + V, dres.region, U, total


def arrange_multi(curve: TropicalCurve, D: Divisor, lams: Sequence[Subcurve],
                  targets: Sequence[int], *, budget: int = 4000) -> TransportResult:
    """Simultaneously push degree >= r_i + min(r_i, b1(Λ_i)) worth of chips
    next to each of the disjoint subcurves Λ_i.

    Inductive composition: each step pins a confined degree-r_i divisor U_i
    near Λ_i, removes the pinned divisors from play, and arranges the next
    subcurve with what remains.
    """
    if len(lams) != len(targets):
        raise ValueError("one target per subcurve")
    if not all(_is_int(r) for r in targets) or not _is_int(budget):
        raise ValueError("targets and budget must be integers")
    if any(r < 0 for r in targets):
        raise ValueError("targets must be >= 0")
    if not D.is_effective():
        raise ValueError("D must be effective")
    if rank_weighted(curve, D) < sum(targets):
        raise ValueError("rank precondition violated: rank(D) < sum of targets")
    hoods = [neighborhood(curve, lam, _concentration_radius(lam, D.degree(), r))
             for lam, r in zip(lams, targets)]
    for i in range(len(hoods)):
        for j in range(i + 1, len(hoods)):
            if not subcurves_disjoint(hoods[i], hoods[j]):
                raise ValueError(f"neighborhoods of subcurves {i} and {j} overlap")
    # keep dilute stubs shorter than the gap between neighborhoods
    stub = None
    if len(hoods) > 1:
        stub = min(_subcurve_gap(hoods[i], hoods[j])
                   for i in range(len(hoods))
                   for j in range(i + 1, len(hoods))) / 4
    work = D
    total = None
    regions: List[Subcurve] = []
    pinned: List[Divisor] = []
    for lam, r in zip(lams, targets):
        base = work
        for U in pinned:
            base = base - U
        if not base.is_effective():
            raise AssertionError("the pinned divisors left the divisor")
        Dt, reg, U, w = _arrange_single(curve, base, lam, r, budget=budget,
                                        stub_radius=stub)
        work = Dt
        for U0 in pinned:
            work = work + U0
        total = _plus(total, w)
        regions.append(reg)
        pinned.append(U)
    region = regions[0] if regions else Subcurve.whole(curve)
    return TransportResult(work, region, _or_zero(curve, total),
                           regions=tuple(regions),
                           pinned=tuple(pinned))


# -- postcondition checks ----------------------------------------------------


def check_push(curve, D, lam, E, res: TransportResult) -> Dict[str, bool]:
    d = D.degree()
    eps = lam.diameter()
    return {
        "effective": res.divisor.is_effective(),
        "equivalent": D + res.witness.divisor() == res.divisor,
        "agrees_on_lam": (eps == 0
                          or restrict(D, lam) == restrict(res.divisor, lam)),
        "region_contains_lam": res.region.contains_subcurve(lam),
        "region_bounded": neighborhood(curve, lam, d * eps)
        .contains_subcurve(res.region),
        "restriction_dominates": _restriction_dominates(res.region, res.divisor, E),
        "slope_bound": slope_bound_check(res.witness, d),
    }


def check_concentrate(curve, D, lam, r, res: TransportResult) -> Dict[str, bool]:
    d = D.degree()
    radius = _concentration_radius(lam, d, r)
    sc, (rest,) = _pull_to_subcurve(res.region, [restrict(res.divisor, res.region)])
    return {
        "effective": res.divisor.is_effective(),
        "equivalent": D + res.witness.divisor() == res.divisor,
        "agrees_on_lam": (lam.diameter() == 0
                          or restrict(D, lam) == restrict(res.divisor, lam)),
        "region_bounded": neighborhood(curve, lam, radius)
        .contains_subcurve(res.region),
        "restriction_rank": rank_weighted(sc, rest) >= r,
        "restriction_degree": rest.degree() >= r_lambda(r, lam),
        "slope_bound": slope_bound_check(res.witness, d),
    }


def check_dilute(curve, E, lam, k, res: TransportResult) -> Dict[str, bool]:
    return {
        "effective": res.divisor.is_effective(),
        "equivalent": E + res.witness.divisor() == res.divisor,
        "region_contains_lam": res.region.contains_subcurve(lam),
        "degree_exact": restrict(res.divisor, res.region).degree() == k,
    }


def check_arrange(curve, D, lams, targets, res: TransportResult) -> Dict[str, bool]:
    out = {
        "effective": res.divisor.is_effective(),
        "equivalent": D + res.witness.divisor() == res.divisor,
        "regions_disjoint": all(
            subcurves_disjoint(res.regions[i], res.regions[j])
            for i in range(len(res.regions))
            for j in range(i + 1, len(res.regions))),
        "pinned_contained": all(
            all(res.divisor.multiplicity(p) >= m for p, m in U.items())
            for U in res.pinned),
    }
    for i, (lam, r) in enumerate(zip(lams, targets)):
        deg = restrict(res.divisor, res.regions[i]).degree()
        out[f"degree_bound_{i}"] = deg >= r + min(r, lam.betti())
    return out
