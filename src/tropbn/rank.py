"""Baker-Norine rank for pure and weighted tropical curves.

The pure rank is computed on an integer model: rank(D) + 1 equals the
smallest degree of an effective divisor E, supported on a rank-determining
set, with |D - E| empty.  That quantity satisfies

    minfail(C) = 0                       if C has no effective representative
    minfail(C) = 1 + min_p minfail(C-p)  otherwise, p over the RDS,

which is explored depth-first with memoization on q-reduced forms and an
upper-bound cutoff.  The vertex set of a loopless model containing supp(D)
is rank-determining, so no further points need to be considered.
Above degree 2g - 2, with g the first Betti number (the model ignores
weights), Riemann-Roch gives rank = deg - g outright; the search therefore
only runs for deg <= 2g - 2 and recurses at most 2g deep.  `rank_pure` and
`rank_weighted` apply the same bound before building a model, the latter
in the weighted genus g = b1 + Σ w(v) (Amini–Caporaso, arXiv:1112.5134).

The weighted rank follows the reduction to a minimum over subtractions of
doubled effective divisors bounded by the vertex weights:

    rank(Γ, D) = min_{0 ≤ F ≤ W} ( deg F + rank(Γ⁰, D - 2F) ).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .curve import Point, TropicalCurve, attach_loops, genus
from .divisor import Divisor
from .models import IntegerModel


def canonical(curve: TropicalCurve) -> Divisor:
    """K = Σ_v (deg(v) - 2 + 2 w(v)) · v; loop edges count twice."""
    return Divisor(curve, {Point(vertex=v): curve.degree(v) - 2 + 2 * curve.weight(v)
                           for v in curve.vertices()})


class _RankEngine:
    """Shared model + memo for repeated rank queries on one curve.

    All divisors passed to an engine must be supported on its lattice.
    """

    def __init__(self, curve: TropicalCurve, marks=()):
        self.curve = curve
        self.model = IntegerModel(curve, marks)
        self.genus = curve.betti()   # the model ignores vertex weights
        self.q = 0
        self.rds = sorted(self.model.split_indices)
        self.memo: Dict[tuple, Tuple[int, bool]] = {}

    def rank(self, D: Divisor) -> int:
        return self.rank_vector(self.model.divisor_vector(D))

    def rank_vector(self, vec: List[int]) -> int:
        d = sum(vec)
        if d < 0:
            return -1
        if d > 2 * self.genus - 2:   # Riemann-Roch
            return d - self.genus
        red, _ = self.model.reduce_vector(vec, self.q)
        return self._minfail(tuple(red), d + 2) - 1

    def rank_at_least(self, vec: Sequence[int], r: int) -> bool:
        """Decide rank(vec) >= r without computing the exact value."""
        if r < 0:
            return True
        d = sum(vec)
        if d < r:
            return False
        if d > 2 * self.genus - 2:   # Riemann-Roch
            return d - self.genus >= r
        red, _ = self.model.reduce_vector(list(vec), self.q)
        return self._minfail(tuple(red), r + 1) >= r + 1

    def _minfail(self, red: tuple, cap: int) -> int:
        """min(cap, smallest deg E ≥ 0 on the RDS with red - E not effective)."""
        if cap <= 0:
            return 0
        if red[self.q] < 0:
            return 0
        hit = self.memo.get(red)
        if hit is not None:
            val, exact = hit
            if exact:
                return min(val, cap)
            if val >= cap:   # known lower bound already meets the cutoff
                return cap
        best = cap
        # try chip-poor points first: they fail soonest
        for a in sorted(self.rds, key=lambda i: (red[i], i)):
            if best == 1:
                break
            child = list(red)
            child[a] -= 1
            if a == self.q or red[a] >= 1:
                # taking a chip away makes no firing legal: still q-reduced
                sub = child
            else:
                sub, _ = self.model.reduce_vector(child, self.q)
            v = 1 + self._minfail(tuple(sub), best - 1)
            if v < best:
                best = v
        self.memo[red] = (best, best < cap)
        return best

    def weighted_rank(self, D: Divisor) -> int:
        # (lattice index, weight) of each weighted vertex: the curve's
        # vertices are the model's first indices, in curve order
        weighted = [(i, w) for i, w in enumerate(self.curve.weights().values())
                    if w > 0]
        if not weighted:
            return self.rank(D)
        dvec = self.model.divisor_vector(D)
        idxs = [i for i, _ in weighted]
        cands = sorted(
            itertools.product(*(range(w + 1) for _, w in weighted)),
            key=lambda t: (sum(t), t))
        best: Optional[int] = None
        for t in cands:
            degF = sum(t)
            if best is not None and degF - 1 >= best:
                break
            vec = list(dvec)
            for i, c in zip(idxs, t):
                vec[i] -= 2 * c
            r = self.rank_vector(vec)
            if best is None or degF + r < best:
                best = degF + r
        return best


def rank_pure(curve: TropicalCurve, D: Divisor) -> int:
    """Rank of D on the underlying pure curve (weights ignored)."""
    if D.curve != curve:
        raise ValueError("curve mismatch")
    d, g = D.degree(), curve.betti()
    if d < 0:
        return -1
    if d > 2 * g - 2:   # Riemann-Roch
        return d - g
    return _RankEngine(curve, marks=D).rank(D)


def rank_weighted(curve: TropicalCurve, D: Divisor) -> int:
    """Rank of D on the weighted curve."""
    if D.curve != curve:
        raise ValueError("curve mismatch")
    d, g = D.degree(), genus(curve)
    if d < 0:
        return -1
    if d > 2 * g - 2:   # Riemann-Roch in the weighted genus
        return d - g
    return _RankEngine(curve, marks=D).weighted_rank(D)


def rank_weighted_loops(curve: TropicalCurve, D: Divisor, eps) -> int:
    """Weighted rank via the loop presentation: pure rank on Γ^w_ε.

    Independent of eps; exposed for cross-validation against rank_weighted.
    """
    if D.curve != curve:
        raise ValueError("curve mismatch")
    loops = attach_loops(curve, eps)
    return rank_pure(loops, Divisor(loops, D.items()))


def weighted_A_rank(curve: TropicalCurve, D: Divisor, A: Iterable) -> int:
    """Largest r with D - E* ~ effective for every effective E of degree r
    supported on A (and -1 when D itself has no effective representative)."""
    if D.curve != curve:
        raise ValueError("curve mismatch")
    pts = []
    for p in A:
        p = curve.point(p)
        if p not in pts:
            pts.append(p)
    model = IntegerModel(curve, marks=list(D.support()) + pts)
    dvec = model.divisor_vector(D)
    d = D.degree()
    if d < 0 or not model.effective_class(dvec, 0):
        return -1
    weights = [curve.point_weight(p) for p in pts]
    idxs = [model.vertex_index(p) for p in pts]
    r = 0
    while r < d:
        ok = True
        for combo in itertools.combinations_with_replacement(range(len(pts)), r + 1):
            vec = list(dvec)
            for i in combo:
                vec[idxs[i]] -= 1          # the chip itself
            for i in set(combo):
                b = combo.count(i)
                vec[idxs[i]] -= min(b, weights[i])   # star surcharge
            if not model.effective_class(vec, 0):
                ok = False
                break
        if not ok:
            break
        r += 1
    return r


def rose_rank(g: int, d: int) -> int:
    """Rank of d·v on the weight-g one-point curve."""
    if d < 0:
        return -1
    if d > 2 * g:
        return d - g
    return d // 2
