"""Rotating directrices: how the minimal sub-scroll of a one-parameter
family of balanced scrolls sweeps through a fixed fiber.

The family is cut out of a fixed rank-N bundle V on the line by a varying
sub-line-bundle of twist (a, 1); the quotients W_t are balanced with r
minimal summands of degree l.  Inside the fiber product P^(N-1) x P^1_t the
directrices sweep a cycle whose class is computed here through the full
pipeline (Riemann-Roch degree of the pushforward, then class expansion) and
independently given by the closed form

    [Y] = H^(N-r) + (a + l + 1) H^(N-r-1) . F.

The pipeline runs once per process for each shape (N, r), with a and l
symbolic, and is required to equal the closed form identically in a and l;
a single family only evaluates that class at its (a, l).

The degree-five application: the Maroni intersection number of a pentagonal
partial pencil is the rotation degree at a = k_R, l + 1 = m_R, i.e.
k_R + m_R: one form in kR and mR, derived once and evaluated per genus.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

from .bundles import SplittingType, balanced_type, k1_pentagonal, m_r_pentagonal
from .chow import (ChowClass, expansion_ring, grr_degree_on_p1xp1, ring_p1xp1,
                   ring_product_with_p1, ring_proj_space)
from .errors import InvalidFamily, OutOfRange, Record, require
from .symkernel import Poly


class DirectrixFamily(Record):
    """Parameters of the family: ambient rank N, number r of minimal
    summands of the balanced quotient, twist a of the varying sub-line
    bundle, and lower balanced degree l."""

    n: int
    r: int
    a: int
    l: int

    def __post_init__(self):
        if self.n < 3 or not 1 <= self.r <= self.n - 2:
            raise InvalidFamily(f"need N >= 3 and 1 <= r <= N-2, got N={self.n}, r={self.r}")


@cache
def _degree_form(n: int) -> Poly:
    """-a - l with a and l symbolic: the Riemann-Roch degree of the
    pushforward of W(-(l+1) Rs) to the pencil line, derived once per N.
    W is the quotient of the pulled-back rank-N bundle V by O(-a Rs - Rt);
    the degree of V stays symbolic and cancels."""
    a, l = Poly.var("a"), Poly.var("l")
    ring = ring_p1xp1()
    rs, rt = ring.gen("Rs"), ring.gen("Rt")
    c1_w = (Poly.var("degV") + a) * rs + rt
    # c2 of the pullback of V vanishes, so c2(W) = c1(O(a Rs + Rt)) . c1(W)
    c2_w = ((a * rs + rt) * c1_w).integrate()
    rank_w = n - 1
    c1_l = -(l + 1) * rs
    c1_tw = c1_w + rank_w * c1_l
    c2_tw = (c2_w
             + (rank_w - 1) * (c1_w * c1_l).integrate()
             + comb(rank_w, 2) * (c1_l * c1_l).integrate())
    degree = grr_degree_on_p1xp1(c1_tw, c2_tw)
    require(degree == -a - l, f"Riemann-Roch pushforward degree = -a - l at N = {n}")
    return degree


@cache
def _class_form(n: int, r: int) -> ChowClass:
    """The swept class with a and l symbolic, derived once per (N, r) by
    the pipeline of :func:`rotating_directrix_class` and required to equal
    the closed form identically in a and l."""
    a, l = Poly.var("a"), Poly.var("l")
    rotation = -_degree_form(n)                     # a + l

    # twisting the generic type O(l)^r + O(l+1)^(N-1-r) down by l+1 leaves
    # O(-1)^r + O^(N-1-r), whatever l is
    twisted = SplittingType((-1,) * r + (0,) * (n - 1 - r))
    kernel_rank = twisted.h0()
    require(kernel_rank == n - 1 - r, f"pushforward rank = N-1-r at N = {n}, r = {r}")

    ring = expansion_ring(square_zero=("Rs", "Rt"), free=("zeta",))
    zeta, rs, rt = ring.gen("zeta"), ring.gen("Rs"), ring.gen("Rt")
    eta = zeta - (l + 1) * rs
    hyperplane_of_quotient = zeta + a * rs + rt
    directrix_in_quotient = eta ** kernel_rank + rotation * rt * eta ** (kernel_rank - 1)
    swept = directrix_in_quotient * hyperplane_of_quotient * rs

    require(all(rs_exp == 1 for _, rs_exp, _ in swept.terms),
            "every swept term lies in the fixed fiber Rs")
    product = ring_product_with_p1(ring_proj_space(n - 1))
    result = product.cls({(zexp, rt_exp): coeff
                          for (zexp, _, rt_exp), coeff in swept.terms.items()})
    require(result == rotating_directrix_closed_form(DirectrixFamily(n, r, a, l)),
            f"directrix pipeline = closed form at N = {n}, r = {r}")
    return result


def directrix_pushforward_degree(fam: DirectrixFamily) -> Poly:
    """Degree of the pushforward of W(-(l+1) Rs) to the pencil line, by the
    Riemann-Roch count on the product surface.  Always equals -a - l,
    independently of the (symbolic) degree of V."""
    return Poly.const(_degree_form(fam.n)._value({"a": fam.a, "l": fam.l}))


def rotating_directrix_class(fam: DirectrixFamily) -> ChowClass:
    """Class of the directrix sweep in the Chow ring of P^(N-1) x P^1_t,
    computed by the pipeline (not transcribed from the closed form):

    1. the pushforward of W(-(l+1) Rs) is free of rank N-1-r and its degree
       -a-l comes from the Riemann-Roch count;
    2. the directrix scroll inside the projectivized quotient has class
       eta^(N-1-r) + (a+l) Rt eta^(N-2-r) with eta = zeta - (l+1) Rs;
    3. pushing into the ambient projectivized V multiplies by the class
       zeta + a Rs + Rt of the projectivized quotient, and restricting to a
       fixed fiber multiplies by Rs.

    The pipeline runs once per (N, r) with a and l symbolic; a family only
    evaluates that class, in integers and with no re-normalization.
    """
    return _class_form(fam.n, fam.r).evaluated({"a": fam.a, "l": fam.l})


def rotating_directrix_closed_form(fam: DirectrixFamily) -> ChowClass:
    """H^(N-r) + (a+l+1) H^(N-r-1) F, the acceptance oracle for the
    pipeline computation; a and l may be symbols."""
    product = ring_product_with_p1(ring_proj_space(fam.n - 1))
    top = fam.n - fam.r
    return product.cls({(top, 0): 1, (top - 1, 1): fam.a + fam.l + 1})


def perfectly_balanced_jump_count(n: int, a: int | Poly, l: int | Poly) -> Poly:
    """Rotation count when the quotients are perfectly balanced of twist
    l+1 (formally r = N-1); a and l may be integers or forms.

    The splitting type jumps at finitely many t; after twisting down by
    l+2 the quotient O(-1)^(N-1) has no sections on any fiber, so the
    pushforward vanishes and the jump count is the length of the first
    derived pushforward, i.e. minus the Riemann-Roch degree: the degree
    form at l+1.  The count is again a + l + 1.
    """
    if n < 3:
        raise InvalidFamily("need N >= 3")
    twisted = SplittingType((-1,) * (n - 1))
    require(twisted.h0() == 0 and twisted.h1() == 0,
            "the perfectly balanced quotient twisted by -(l+2) has no cohomology")
    return -_degree_form(n).subs({"a": a, "l": l + 1})


@cache
def maroni_form() -> Poly:
    """k_R + m_R in the rule symbols kR and mR, derived once: the rotation
    coefficient of the swept class at a = kR, l = mR - 1 for each count
    r = 1, 2, 3 of minimal summands, and the jump count of the perfectly
    balanced quotients (r = 4), all four required to equal kR + mR."""
    k_r, m_r = Poly.var("kR"), Poly.var("mR")
    at = {"a": k_r, "l": m_r - 1}
    counts = [_class_form(5, r).coefficient((4 - r, 1)).subs(at) for r in (1, 2, 3)]
    counts.append(perfectly_balanced_jump_count(5, **at))
    require(all(count == k_r + m_r for count in counts),
            f"Maroni rotation counts {', '.join(map(str, counts))} for r = 1..4 = kR + mR")
    return counts[0]


def maroni_intersection_pentagonal(g_r: int) -> Fraction:
    """Maroni intersection number of the degree-five partial pencil of
    genus g_r: k_R + m_R with k_R = ceil(5(g+4)/6), m_R = ceil(-3(g+4)/4),
    the upper twist of the balanced type of E tensor (det E)^(-1) (rank
    four, degree -3(g+4)).  Evaluates :func:`maroni_form` at this genus."""
    if g_r < 0:
        raise OutOfRange(f"pencil genus must be >= 0, got {g_r}")
    m_r = m_r_pentagonal(g_r)
    require(m_r == balanced_type(4, -3 * (g_r + 4)).degrees[-1],
            f"m_R is the balanced upper twist at g_r = {g_r}")
    return maroni_form().eval({"kR": k1_pentagonal(g_r), "mR": m_r})
