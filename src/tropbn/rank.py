"""Baker-Norine rank for pure and weighted tropical curves.

The pure rank is computed on an integer model: rank(D) + 1 equals the
smallest degree of an effective divisor E, supported on a rank-determining
set, with |D - E| empty.  That quantity satisfies

    minfail(C) = 0                       if C has no effective representative
    minfail(C) = 1 + min_p minfail(C-p)  otherwise, p over the RDS,

which is explored depth-first with memoization on q-reduced forms and an
upper-bound cutoff.  The vertex set of a loopless model containing supp(D)
is rank-determining, so no further points need to be considered.

Two facts keep the search small.

*Maximality of reduced divisors* (Baker-Norine, arXiv:math/0608360; Luo,
arXiv:0906.2807, shows that Dhar's burning decides reducedness on the
metric model as well).  Among the divisors in a class that are effective
away from a, the a-reduced one, R, holds the most chips at a.  Proof: let
E = R - L·σ be another, with L the Laplacian and σ an integer firing
script, and X the set where σ is largest.  Each v in X loses at least
outdeg_X(v) chips, so E(v) <= R(v) - outdeg_X(v).  If a were not in X,
every v in X would have R(v) >= E(v) + outdeg_X(v) >= outdeg_X(v), so X
could fire from R, which an a-reduced divisor forbids.  So σ is largest
at a, and E(a) <= R(a).  Hence for an effective red and a point a with
red(a) = 0, red - a has an effective representative exactly when
R(a) >= 1, and then R - a is one.  A search node is q-reduced, and one
that branches is effective (any other scores 0), so a child is tested by
reducing the node itself at a, and an effective child is q-reduced from
R - a: neither reduction carries debt.  Only the root vector of
`rank_vector` can.  At the last level, where the cap leaves a child only
the score 0 or 1, the first test decides it and nothing recurses.

*Clifford's bound.*  Above degree 2g - 2, with g the first Betti number
(the model ignores weights), Riemann-Roch gives rank = deg - g outright.
For 0 <= d <= 2g - 2, 2·rank(D) <= d.  Proof: there is nothing to show
when rank(D) = -1.  If rank(K - D) = -1, Riemann-Roch gives
rank(D) = d - g <= d/2, as d <= 2g.  Otherwise both classes are
effective, and rank(D) + rank(K - D) <= rank(K) = g - 1, because
rank(A + B) >= rank(A) + rank(B) for effective classes; adding
Riemann-Roch, rank(D) - rank(K - D) = d - g + 1, gives 2·rank(D) <= d.
So minfail is at most d // 2 + 1, which caps the search: it runs only for
deg <= 2g - 2 and recurses at most d/2 + 1 <= g levels deep.

*Forced ranks.*  Three cases need no search, and `_forced_rank` answers
them before any model is built or any vector reduced: rank = -1 for
d < 0; rank = d - g for d > 2g - 2 (Riemann-Roch); and rank = 0 for an
effective class with d <= 1, since effectiveness gives rank >= 0 and
Clifford's bound rank <= d/2 < 1.  The model and `rank_pure` take g as
the first Betti number; `rank_weighted` takes the weighted genus
g = b1 + Σ w(v), where Riemann-Roch and Clifford's bound hold through the
loop presentation (Amini–Caporaso, arXiv:1112.5134).

The weighted rank follows the reduction to a minimum over subtractions of
doubled effective divisors bounded by the vertex weights:

    rank(Γ, D) = min_{0 ≤ F ≤ W} ( deg F + rank(Γ⁰, D - 2F) ).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .curve import TropicalCurve, attach_loops, genus
from .divisor import Divisor
from .models import IntegerModel


def canonical(curve: TropicalCurve) -> Divisor:
    """K = Σ_v (deg(v) - 2 + 2 w(v)) · v; loop edges count twice."""
    return Divisor._of_canonical(curve, [
        (curve._vertex_point(v), curve.degree(v) - 2 + 2 * w)
        for v, w in curve.weights().items()])


class _RankEngine:
    """Shared model + memo for repeated rank queries on one curve.

    All divisors passed to an engine must be supported on its lattice.  The
    model is built on first use: `weighted_rank` needs none when the rank
    of every weighting it tries is forced.
    """

    def __init__(self, curve: TropicalCurve, marks=()):
        self.curve = curve
        self.genus = curve.betti()   # the model ignores vertex weights
        self.q = 0
        self.memo: Dict[tuple, Tuple[int, bool]] = {}
        self._marks = marks
        self._model: Optional[IntegerModel] = None

    @property
    def model(self) -> IntegerModel:
        if self._model is None:
            self._model = IntegerModel(self.curve, self._marks)
        return self._model

    def rank(self, D: Divisor) -> int:
        return self.rank_vector(self.model.divisor_vector(D))

    def rank_vector(self, vec: List[int]) -> int:
        d = sum(vec)
        forced = _forced_rank(d, self.genus, min(vec) >= 0)
        if forced is not None:
            return forced
        red, _ = self.model.reduce_vector(vec, self.q)
        # Clifford: rank <= d // 2
        return self._minfail(tuple(red), d // 2 + 1) - 1

    def rank_at_least(self, red: tuple, r: int) -> bool:
        """Decide rank(red) >= r without computing the exact value; `red`
        is q-reduced, as `model.reduce_vector(vec, q)` returns it."""
        if r < 0:
            return True
        d = sum(red)
        # a q-reduced form is effective exactly when its class is
        forced = _forced_rank(d, self.genus, red[self.q] >= 0)
        if forced is not None:
            return forced >= r
        if r > d // 2:   # Clifford
            return False
        return self._minfail(red, r + 1) >= r + 1

    def _minfail(self, red: tuple, cap: int) -> int:
        """min(cap, smallest deg E ≥ 0 on the RDS with red - E not
        effective), for a q-reduced red and cap >= 1."""
        q = self.q
        if red[q] < 0:
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
        for a in sorted(self.model.split_indices, key=lambda i: (red[i], i)):
            if best == 1:
                break
            if red[a]:
                if best == 2:   # this and every later child is effective
                    break
                # taking a chip away makes no firing legal: still q-reduced
                child = red[:a] + (red[a] - 1,) + red[a + 1:]
            elif a == q:
                best = 1   # no representative has more chips at q
                break
            else:
                R, _ = self.model.reduce_vector(red, a)
                if not R[a]:   # red - a is not effective
                    best = 1
                    break
                if best == 2:   # an effective child scores the cap, 1
                    continue
                R[a] -= 1
                child, _ = self.model.reduce_vector(R, q)
                child = tuple(child)
            v = 1 + self._minfail(child, best - 1)
            if v < best:
                best = v
        self.memo[red] = (best, best < cap)
        return best

    def weighted_rank(self, D: Divisor) -> int:
        # lattice index and weight of each weighted vertex, by name: the
        # curve's vertices are the model's first indices, in curve order
        weighted = {v: (i, w) for i, (v, w) in enumerate(self.curve.weights().items())
                    if w > 0}
        if not weighted:
            return self.rank(D)
        # D's chips at the weighted vertices, and whether it is effective
        # elsewhere: with deg(D - 2F), they say whether the pure rank of
        # D - 2F is forced, so such a weighting F needs no model
        at = dict.fromkeys(weighted, 0)
        effective_elsewhere = True
        for p, m in D._chips.items():
            if p.vertex in at:
                at[p.vertex] = m
            elif m < 0:
                effective_elsewhere = False
        d = D.degree()
        dvec = None

        def pure_rank(t: Sequence[int]) -> int:
            """rank(Γ⁰, D - 2F) for F = Σ t_i·v_i over the weighted v_i."""
            nonlocal dvec
            effective = effective_elsewhere and all(
                m >= 2 * c for m, c in zip(at.values(), t))
            forced = _forced_rank(d - 2 * sum(t), self.genus, effective)
            if forced is not None:
                return forced
            if dvec is None:
                dvec = self.model.divisor_vector(D)
            vec = list(dvec)
            for (i, _), c in zip(weighted.values(), t):
                vec[i] -= 2 * c
            return self.rank_vector(vec)

        caps = [w for _, w in weighted.values()]
        best = pure_rank([0] * len(caps))   # F = 0
        # rank >= -1, so once best < deg F no F of that degree or more can
        # lower the minimum
        for degF in range(1, sum(caps) + 1):
            for t in _bounded_sums(degF, caps):
                if best < degF:
                    return best
                best = min(best, degF + pure_rank(t))
        return best


def _forced_rank(d: int, g: int, effective: bool) -> Optional[int]:
    """The rank of a class of degree d in genus g when the degree, the
    genus and whether the class is effective force it, else None."""
    if d < 0:
        return -1
    if d > 2 * g - 2:   # Riemann-Roch
        return d - g
    if effective and d <= 1:   # rank >= 0, and Clifford: rank <= d/2
        return 0
    return None


def _bounded_sums(total: int, caps: Sequence[int]):
    """The tuples t with 0 <= t[i] <= caps[i] and sum(t) == total, in
    lexicographic order, made one at a time."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    rest = sum(caps[1:])
    for first in range(max(0, total - rest), min(caps[0], total) + 1):
        for tail in _bounded_sums(total - first, caps[1:]):
            yield (first,) + tail


def rank_pure(curve: TropicalCurve, D: Divisor) -> int:
    """Rank of D on the underlying pure curve (weights ignored)."""
    if D.curve != curve:
        raise ValueError("curve mismatch")
    forced = _forced_rank(D.degree(), curve.betti(), D.is_effective())
    if forced is not None:
        return forced
    return _RankEngine(curve, marks=D).rank(D)


def rank_weighted(curve: TropicalCurve, D: Divisor) -> int:
    """Rank of D on the weighted curve."""
    if D.curve != curve:
        raise ValueError("curve mismatch")
    forced = _forced_rank(D.degree(), genus(curve), D.is_effective())
    if forced is not None:
        return forced
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
    supported on A (and -1 when D itself has no effective representative).

    Only reductions are needed, so the model leaves out the loops that hold
    no mark (see `IntegerModel`)."""
    if D.curve != curve:
        raise ValueError("curve mismatch")
    pts = list(dict.fromkeys(map(curve.point, A)))
    # D's support and the A points, canonical: the model takes them as they are
    marks = Divisor._of_canonical(curve, [(p, 1) for p in [*D._chips, *pts]])
    model = IntegerModel(curve, marks=marks, loops=False)
    dvec = model.divisor_vector(D)
    d = D.degree()
    if d < 0 or not model.effective_class(dvec, 0):
        return -1
    weights = [curve.weight(p.vertex) if p.is_vertex else 0 for p in pts]
    idxs = [model._index(p) for p in pts]
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
