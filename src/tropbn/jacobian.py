"""Cycle bases, Abel-Jacobi coordinates, and universal Picard coordinates.

Coordinates depend on a spanning-tree basis; the tree and all edge
orientations are fixed deterministically (lexicographic BFS), so equal
classes give byte-equal coordinates across runs.  All arithmetic is exact
rational, reduced mod 1 on the torus.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .curve import (CombinatorialType, Point, TropicalCurve, rat, realize,
                    underlying_pure)
from .divisor import Divisor, pushforward


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


@dataclass(frozen=True)
class TorusPoint:
    """A point of the real torus R^g / Z^g with exact rational entries."""

    entries: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           tuple(_mod1(rat(x)) for x in self.entries))

    @property
    def genus(self) -> int:
        return len(self.entries)

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        if other.genus != self.genus:
            raise ValueError("mismatched genus")
        return TorusPoint(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "TorusPoint":
        return TorusPoint(tuple(-a for a in self.entries))

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        return self + (-other)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def __repr__(self):
        return "TorusPoint(" + ", ".join(str(x) for x in self.entries) + ")"


class CycleBasis:
    """Fundamental cycles of the lexicographic-BFS spanning tree.

    Each cycle is a map edge id → integer coefficient, oriented so the
    defining non-tree edge has coefficient +1 (a loop edge is a cycle by
    itself).  Cycles are listed in the curve's edge order.
    """

    def __init__(self, curve: TropicalCurve):
        self.curve = curve
        root = min(curve.vertices())
        # tree path root -> v as edge -> ±1, +1 along the stored orientation
        chain: Dict[str, Dict[str, int]] = {root: {}}
        heap = [root]
        while heap:
            v = heapq.heappop(heap)
            for eid, w in sorted(curve.incident(v), key=lambda p: (p[1], p[0])):
                if w not in chain:
                    chain[w] = dict(chain[v])
                    chain[w][eid] = 1 if curve.ends(eid) == (v, w) else -1
                    heapq.heappush(heap, w)
        self.root = root
        self.tree_edges = {e for c in chain.values() for e in c}
        self._chain = chain
        self.cycles: List[Dict[str, int]] = []
        self.chords: List[str] = []
        for e in curve.edges():
            if e in self.tree_edges:
                continue
            u, v = curve.ends(e)
            cyc = {e: 1}
            for eid, c in chain[u].items():
                cyc[eid] = cyc.get(eid, 0) + c
            for eid, c in chain[v].items():
                cyc[eid] = cyc.get(eid, 0) - c
            self.cycles.append({k: c for k, c in cyc.items() if c})
            self.chords.append(e)

    @property
    def genus(self) -> int:
        return len(self.cycles)

    def chain_to(self, p: Point) -> Dict[str, Fraction]:
        """1-chain from the root to p, coefficients as fractions of edges."""
        if p.is_vertex:
            return {e: Fraction(c) for e, c in self._chain[p.vertex].items()}
        u, _ = self.curve.ends(p.edge)
        chain = {e: Fraction(c) for e, c in self._chain[u].items()}
        chain[p.edge] = chain.get(p.edge, Fraction(0)) \
            + Fraction(p.offset, self.curve.length(p.edge))
        return {k: c for k, c in chain.items() if c}

    def gram(self) -> List[List[Fraction]]:
        """Q_ij = Σ_e ℓ(e) a_ie a_je; symmetric positive definite."""
        g = self.genus
        Q = [[Fraction(0)] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                s = Fraction(0)
                ci, cj = self.cycles[i], self.cycles[j]
                for e, a in ci.items():
                    b = cj.get(e)
                    if b:
                        s += self.curve.length(e) * a * b
                Q[i][j] = Q[j][i] = s
        return Q

    def pairing(self, chain: Dict[str, Fraction]) -> List[Fraction]:
        """⟨chain, c_i⟩ with the length-weighted inner product."""
        out = []
        for cyc in self.cycles:
            s = Fraction(0)
            for e, a in cyc.items():
                c = chain.get(e)
                if c:
                    s += self.curve.length(e) * a * c
            out.append(s)
        return out


def scale_cycles(basis: CycleBasis, s) -> List[List[Fraction]]:
    """C_i^s: the basis vectors with the k-th coordinate scaled by s_k."""
    order = basis.curve.edges()
    if isinstance(s, (list, tuple)):
        vals = [rat(x) for x in s]
        if len(vals) != len(order):
            raise ValueError(f"expected {len(order)} entries, got {len(vals)}")
    else:
        vals = [rat(s[e]) for e in order]
    return [[vals[k] * cyc.get(e, 0) for k, e in enumerate(order)]
            for cyc in basis.cycles]


def _solve(Q: List[List[Fraction]], rhs: List[Fraction]) -> List[Fraction]:
    """Exact Gaussian elimination; Q must be invertible."""
    n = len(Q)
    M = [row[:] + [rhs[i]] for i, row in enumerate(Q)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def abel_jacobi(curve: TropicalCurve, D: Divisor, basepoint) -> TorusPoint:
    """Abel-Jacobi image of a degree-0 divisor on a pure curve.

    Equality of images is equivalent to linear equivalence.
    """
    if curve.total_weight() != 0:
        raise ValueError("abel_jacobi is defined on pure curves")
    if D.curve != curve:
        raise ValueError("divisor on a different curve")
    if D.degree() != 0:
        raise ValueError("abel_jacobi needs a degree-0 divisor")
    basepoint = curve.point(basepoint)
    basis = CycleBasis(curve)
    if basis.genus == 0:
        return TorusPoint(())
    base_chain = basis.chain_to(basepoint)
    chain: Dict[str, Fraction] = {}
    for p, m in D.items():
        for e, c in basis.chain_to(p).items():
            chain[e] = chain.get(e, Fraction(0)) + m * c
        for e, c in base_chain.items():
            chain[e] = chain.get(e, Fraction(0)) - m * c
    t = _solve(basis.gram(), basis.pairing(chain))
    return TorusPoint(tuple(t))


@dataclass(frozen=True)
class UniversalCoords:
    """Fiberwise Picard coordinates over the cone of a combinatorial type."""

    s: Tuple[Fraction, ...]
    t: TorusPoint
    degree: int
    basepoint: Point


def universal_coords(ctype: CombinatorialType, s, D: Divisor,
                     basepoint) -> UniversalCoords:
    """Coordinates (s, AJ[D − d·β(p)], d, p) of a divisor on Γ_s.

    The torus part uses a fresh deterministic basis of Γ_s, so cycles
    collapsed by the contraction are excluded.
    """
    vals = ctype.cone_vector(s)
    realized, beta = realize(ctype, vals)
    pure = underlying_pure(realized)
    if D.curve != realized and D.curve != pure:
        raise ValueError("divisor does not live on the realized curve")
    ones = beta.source
    basepoint = ones.point(basepoint)
    p_img = beta(basepoint)
    d = D.degree()
    Z = Divisor(pure, list(D.items()) + [(p_img, -d)])
    t = abel_jacobi(pure, Z, p_img)
    return UniversalCoords(tuple(vals), t, d, basepoint)


def pushforward_class(ctype: CombinatorialType, s, D: Divisor) -> Divisor:
    """Push a divisor on Γ_(1,…,1) to Γ_s through the realization map."""
    vals = ctype.cone_vector(s)
    realized, beta = realize(ctype, vals)
    if D.curve != beta.source:
        raise ValueError("divisor does not live on the all-ones realization")
    return pushforward(beta, D)
