"""Brill-Noether rank at lattice resolution and degeneration experiments.

The Brill-Noether rank of a curve is the largest rho such that every
effective divisor E of degree r + rho is contained in an effective divisor
of degree d and rank at least r.  Here E and its extension are divisors on
the underlying metric space, while rank means the weighted rank (the loop
presentation decides it).  Divisors are sampled on a finite lattice — the
vertices plus N - 1 equispaced interior points per edge — so every result
is tagged with its resolution N.  Whether the lattice value stabilises to
the metric one is recorded as an observation, never asserted.

Two cases need no lattice.  Weighted Riemann-Roch (Amini-Caporaso,
arXiv:1112.5134) gives rank(D) >= deg D - g for every class, with
g = b1 + Σ w(v) the weighted genus.  So when d - g >= r every effective
divisor of degree d already has rank at least r, every E extends, and
rho = d - r exactly, at every resolution N.  Below that, W^r_d is empty
when r exceeds the largest rank of a degree-d class: d // 2 for
d <= 2g - 2 (Clifford, on the loop presentation) and d - g above it
(Riemann-Roch).  Then no E extends, rho = -1 at every N, and the
counterexample is the enumeration's first E, r times the least vertex.

A second case needs no F search.  On a pure curve Riemann-Roch
(Baker-Norine, arXiv:math/0608360) makes rank(D) >= r = d - g + 1 exactly
when K - D is effective.  So for d <= 2g - 2, E extends exactly when K - E
is equivalent to an effective divisor (of degree 2g - 2 - |E|; any part of
degree d - |E| is an F, on the lattice or off it): one reduction per E.  As
rank(K) = g - 1, the value is at least 2g - 2 - d, the metric one.  Weighted
curves keep the F search: there K - E may need chips on the virtual loops.

Two experiment drivers walk one-parameter families Gamma_{s_i} -> Gamma_s
in which the lengths on a fixed edge set shrink geometrically to zero, with
one walker that evaluates a value on each step and on the limit: the
closedness driver tracks the rank of a fixed divisor pattern into the
(weighted) limit curve, and the semicontinuity driver compares
Brill-Noether ranks along the way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .curve import (
    CombinatorialType,
    Point,
    PointMap,
    TropicalCurve,
    _is_int,
    attach_loops,
    genus,
    rat,
    realize,
    rescale,
)
from .divisor import Divisor, _point_key, pushforward
from .rank import _RankEngine, canonical, rank_weighted


@dataclass(frozen=True)
class BNQuery:
    """Parameters of a Brill-Noether rank computation."""

    d: int
    r: int
    resolution: int = 1

    def __post_init__(self):
        for name in ("d", "r", "resolution"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, "
                                 f"got {getattr(self, name)!r}")
        if self.resolution < 1:
            raise ValueError("resolution must be a positive integer")
        if self.r < 0:
            raise ValueError("rank target must be non-negative")
        if self.d < 0:
            raise ValueError("degree must be non-negative")


def wdr_member(curve: TropicalCurve, D: Divisor, r: int) -> bool:
    """Whether the class of D has rank at least r."""
    return rank_weighted(curve, D) >= r


class _BNEngine:
    """Extension tests over the lattice of the underlying pure curve.

    E and its extensions live on the lattice of the curve itself —
    vertices plus N - 1 equispaced interior points per (real) edge —
    while ranks are taken on the loop presentation.  `_class_ok` hands
    the rank engine the q-reduced form of each class, which keys its
    memo, so the rank memo answers a class that comes back.  `canonical`
    is K as a lattice vector in the Riemann-Roch case of the module
    docstring (pure, r = d - g + 1 <= g - 1), where it decides each E.
    Counterexamples are divisors of the curve itself.  Each weighted route
    keeps its own traffic: `rank_at_least` here on the loop presentation,
    exact ranks (`rank_weighted`) on the weightings, 2.3x faster there.
    Deciding rank >= r here by rank(Γ⁰, D - 2F) >= r - deg F for every
    F <= W gave the same answers on 150 random weighted F-search queries
    but took 20-35 s against 8.2-9.0 s (2026-10-21, Python 3.11.7, pure
    kernel; ROADMAP direction 8 has the set-up).
    """

    def __init__(self, curve: TropicalCurve, query: BNQuery):
        self.curve = curve
        self.d = query.d
        self.r = query.r
        # the pure curve whose ranks are the weighted ranks of `curve`
        gamma = attach_loops(curve, 1) if curve.total_weight() else curve
        pts = [Point(vertex=v) for v in curve.vertices()]
        for e in curve.edges():
            ell = curve.length(e)
            for j in range(1, query.resolution):
                pts.append(Point(edge=e, offset=ell * j / query.resolution))
        pts.sort(key=_point_key)
        self.engine = _RankEngine(gamma, marks=pts)
        self.lattice = [self.engine.model.vertex_index(p) for p in pts]
        g = genus(curve)
        self.canonical = None
        if not curve.total_weight() and self.r == self.d - g + 1 <= g - 1:
            self.canonical = self.engine.model.divisor_vector(canonical(curve))

    def _class_ok(self, vec: List[int]) -> bool:
        red, _ = self.engine.model.reduce_vector(vec, self.engine.q)
        return self.engine.rank_at_least(tuple(red), self.r)

    def extendable(self, combo: Tuple[int, ...]) -> bool:
        """Some effective F of degree d - |E| gives rank(E+F) >= r; F is
        on the lattice unless Riemann-Roch decides."""
        if self.canonical is not None:
            vec = list(self.canonical)
            for i in combo:
                vec[i] -= 1
            return self.engine.model.effective_class(vec, self.engine.q)
        base = [0] * self.engine.model.n
        for i in combo:
            base[i] += 1
        k = self.d - len(combo)
        for fc in itertools.combinations_with_replacement(self.lattice, k):
            vec = list(base)
            for i in fc:
                vec[i] += 1
            if self._class_ok(vec):
                return True
        return False

    def first_failure(self, rho: int) -> Optional[Tuple[int, ...]]:
        """First E of degree r + rho (lex order) with no extension."""
        combos = itertools.combinations_with_replacement(self.lattice,
                                                         self.r + rho)
        for c in combos:
            if not self.extendable(c):
                return c
        return None

    def divisor_of(self, combo: Tuple[int, ...]) -> Divisor:
        model = self.engine.model
        return Divisor(self.curve, [(model.point_of_index(i), 1) for i in combo])


@dataclass
class BNResult:
    """Brill-Noether rank with the lattice it was computed on."""

    rho: int
    resolution: int
    counterexample: Optional[Divisor]   # first non-extendable E, degree r+rho+1


def bn_rank_detail(curve: TropicalCurve, query: BNQuery) -> BNResult:
    """Brill-Noether rank plus the witness that stops it, if any."""
    d, r = query.d, query.r
    if d < r:
        return BNResult(-1, query.resolution, None)
    if r == 0:
        # every effective divisor of degree d contains itself
        return BNResult(d, query.resolution, None)
    g = genus(curve)
    if d - g >= r:
        # Riemann-Roch: every E of degree d already has rank >= d - g >= r
        return BNResult(d - r, query.resolution, None)
    if r > (d // 2 if d <= 2 * g - 2 else d - g):
        # W^r_d is empty (Clifford, or Riemann-Roch above 2g - 2): no E
        # extends, so the first E of the enumeration, r times the least
        # vertex, stops it
        return BNResult(-1, query.resolution,
                        Divisor(curve, [(min(curve.vertices()), r)]))
    eng = _BNEngine(curve, query)
    rho = -1
    counter = None
    for level in range(0, d - r + 1):
        bad = eng.first_failure(level)
        if bad is not None:
            counter = eng.divisor_of(bad)
            break
        rho = level
    return BNResult(rho, query.resolution, counter)


def bn_rank(curve: TropicalCurve, query: BNQuery) -> int:
    """Largest rho such that every effective lattice divisor of degree
    r + rho extends to an effective lattice divisor of degree d and rank
    at least r; -1 when some lattice divisor of degree r has no such
    extension on the lattice.

    This is the lattice value, not always the metric one.  Sampling E on
    the grid can only raise it (fewer E to extend).  F is searched on the
    same grid only, so it can fall below the metric value: with mixed edge
    lengths the extension that exists may sit off the grid, and -1 can come
    back although some class of degree d has rank r.  The two Riemann-Roch
    cases of the module docstring search no F and are at least the metric
    value; the empty W^r_d case builds no lattice and is exact.
    """
    return bn_rank_detail(curve, query).rho


# -- degeneration families ---------------------------------------------------


@dataclass
class DegenerationSpec:
    """A one-parameter family over a combinatorial type.

    Lengths on the contracted edge set shrink geometrically (rate**i at
    step i) while the rest stay at their base values; the limit assigns
    zero exactly on the contracted set.  The divisor pattern lives on the
    all-ones realization and is carried along by the scaling maps.
    """

    ctype: CombinatorialType
    contracted: Tuple[str, ...] = ()
    pattern: Tuple[Tuple[object, int], ...] = ()
    steps: int = 6
    rate: Fraction = Fraction(1, 2)
    base: Optional[Dict[str, Fraction]] = None

    def __post_init__(self):
        order = self.ctype.edge_order
        ids = set(order)
        self.contracted = tuple(dict.fromkeys(self.contracted))
        for e in self.contracted:
            if e not in ids:
                raise ValueError(f"unknown contracted edge {e!r}")
        if not _is_int(self.steps):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError("need at least one step")
        self.rate = rat(self.rate)
        if not 0 < self.rate < 1:
            raise ValueError("rate must lie strictly between 0 and 1")
        base = dict(self.base or {})
        for e in base:
            if e not in ids:
                raise ValueError(f"unknown edge {e!r} in base lengths")
        self.base = {e: rat(base.get(e, 1)) for e in order}
        if any(x <= 0 for x in self.base.values()):
            raise ValueError("base lengths must be positive")
        ones = self.ctype.ones()
        chips = (self.pattern.items() if isinstance(self.pattern, Divisor)
                 else [(ones.point(*p) if isinstance(p, tuple) else p, m)
                       for p, m in self.pattern])
        self.pattern = tuple(Divisor(ones, chips).items())

    def lengths_at(self, i: int) -> List[Fraction]:
        if i < 1:
            raise ValueError("steps are numbered from 1")
        shrink = self.rate ** i
        return [self.base[e] * shrink if e in self.contracted else self.base[e]
                for e in self.ctype.edge_order]

    def limit_lengths(self) -> List[Fraction]:
        return [Fraction(0) if e in self.contracted else self.base[e]
                for e in self.ctype.edge_order]

    def curve_at(self, i: int) -> Tuple[TropicalCurve, PointMap]:
        """Interior curve of step i with the map from the all-ones one."""
        return rescale(self.ctype, self.lengths_at(i))

    def limit(self) -> Tuple[TropicalCurve, PointMap]:
        """Limit curve (contracted set collapsed) with the collapse map."""
        return realize(self.ctype, self.limit_lengths())

    def pattern_divisor(self) -> Divisor:
        return Divisor(self.ctype.ones(), self.pattern)


def _walk(spec: DegenerationSpec, key: str,
          value: Callable[[TropicalCurve, PointMap], int]) -> Tuple[List[dict], dict]:
    """The family's steps and its limit, each with its lengths and, under
    `key`, ``value(curve, map from the all-ones realization)``; the limit
    also lists its vertex weights.  Both experiment drivers walk with it."""
    order = spec.ctype.edge_order
    steps = []
    for i in range(1, spec.steps + 1):
        curve, alpha = spec.curve_at(i)
        steps.append({"step": i, "lengths": dict(zip(order, spec.lengths_at(i))),
                      key: value(curve, alpha)})
    curve, beta = spec.limit()
    limit = {"lengths": dict(zip(order, spec.limit_lengths())),
             "weights": curve.weights(), key: value(curve, beta)}
    return steps, limit


def run_closedness_experiment(spec: DegenerationSpec, d: int, r: int) -> dict:
    """Carry a divisor pattern along the family and test rank in the limit.

    Each step reports the rank of the pushed-forward pattern; the run
    passes when the limit class still has rank at least r.  Steps whose
    rank already drops below r make the run vacuous (nothing is claimed),
    which is flagged rather than failed.
    """
    D0 = spec.pattern_divisor()
    if D0.degree() != d:
        raise ValueError(f"pattern has degree {D0.degree()}, expected {d}")
    steps, limit = _walk(spec, "rank", lambda curve, alpha:
                         rank_weighted(curve, pushforward(alpha, D0)))
    premise = all(s["rank"] >= r for s in steps)
    return {
        "experiment": "closedness",
        "d": d,
        "r": r,
        "steps": steps,
        "limit": limit,
        "vacuous": not premise,
        "pass": (not premise) or limit["rank"] >= r,
    }


def run_usc_experiment(spec: DegenerationSpec, d: int, r: int, rho: int,
                       resolution: int = 4) -> dict:
    """Compare Brill-Noether ranks along the family against the limit.

    Passes when the limit rank is at least rho whenever every step rank
    is, i.e. the rank does not drop below the family floor in the limit.
    """
    query = BNQuery(d=d, r=r, resolution=resolution)
    steps, limit = _walk(spec, "bn_rank",
                         lambda curve, _: bn_rank(curve, query))
    premise = all(s["bn_rank"] >= rho for s in steps)
    return {
        "experiment": "usc",
        "d": d,
        "r": r,
        "rho": rho,
        "resolution": resolution,
        "steps": steps,
        "limit": limit,
        "premise": premise,
        "pass": (not premise) or limit["bn_rank"] >= rho,
    }
