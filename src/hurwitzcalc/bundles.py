"""Splitting-type combinatorics for vector bundles on the line and the
discrete invariants of degree-d branched covers.

A cover of the line carries two structural bundles: the rank d-1 bundle E
whose projectivization holds the relative canonical embedding, and the rank
d(d-3)/2 bundle F of quadrics through the fibers.  Their splitting types are
the discrete invariants the divisor theory is built on.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb

from .errors import IndexOutOfRange, InvalidRank, NoTameType, OutOfRange, Record, require
from .symkernel import Poly, PolyLike, ceil_div


class SplittingType(Record):
    """A bundle on the line as its sorted multiset of twist degrees."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        if not self.degrees:
            raise InvalidRank("a splitting type needs rank >= 1")
        object.__setattr__(self, "degrees", tuple(sorted(self.degrees)))

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    def h0(self) -> int:
        return sum(max(0, a + 1) for a in self.degrees)

    def h1(self) -> int:
        return sum(max(0, -a - 1) for a in self.degrees)

    def floor(self) -> int:
        return self.degrees[0]

    def __str__(self) -> str:
        return "+".join(f"O({a})" for a in self.degrees)

    def to_json(self) -> list[int]:
        return list(self.degrees)

    @classmethod
    def from_json(cls, data: list[int]) -> "SplittingType":
        return cls(tuple(data))


def ext1_dim(t: SplittingType) -> int:
    """dim Ext^1(E, E) = sum over pairs of max(0, a_i - a_j - 1)."""
    return sum(max(0, a - b - 1) for a in t.degrees for b in t.degrees)


def is_balanced(t: SplittingType) -> bool:
    """Balanced means the twists differ by at most one, i.e. Ext^1 vanishes."""
    return t.degrees[-1] - t.degrees[0] <= 1


def balanced_type(rank: int, degree: int) -> SplittingType:
    """The unique splitting type of the given rank and degree with all
    twists within one of each other."""
    if rank < 1:
        raise InvalidRank("rank must be at least 1")
    q, r = divmod(degree, rank)
    return SplittingType((q,) * (rank - r) + (q + 1,) * r)


def is_tame(t: SplittingType) -> bool:
    """Tame: consecutive gaps are bounded by the smallest twist."""
    m = t.floor()
    return all(b - a <= m for a, b in zip(t.degrees, t.degrees[1:]))


def _tame_types(rank: int, degree: int, floor: int) -> Iterator[tuple[int, ...]]:
    """All tame types of the given rank and degree with smallest twist
    exactly `floor`."""
    def rec(prefix: tuple[int, ...], remaining: int):
        slots = rank - len(prefix)
        if slots == 0:
            if remaining == 0:
                yield prefix
            return
        lo = prefix[-1]
        hi = prefix[-1] + floor
        for a in range(lo, hi + 1):
            rest = remaining - a
            # remaining entries are >= a and <= a + slots*floor each
            if rest < a * (slots - 1):
                break
            yield from rec(prefix + (a,), rest)

    if floor < 1 or rank < 1:
        return
    yield from rec((floor,), degree - floor)


def generic_tame(d: int, g: int, m: int) -> SplittingType:
    """The most generic tame type of rank d-1 and degree g+d-1 with floor m:
    the unique maximizer of (d-1)a_1 + (d-2)a_2 + ... + a_{d-1} over tame
    types, found by exhaustive enumeration.

    A tie in the weighted sum would contradict uniqueness of the maximizer;
    the enumerator checks this rather than assuming it.
    """
    rank = d - 1
    degree = g + d - 1
    best: list[tuple[int, ...]] = []
    best_weight: int | None = None
    for t in _tame_types(rank, degree, m):
        weight = sum((rank - i) * a for i, a in enumerate(t))
        if best_weight is None or weight > best_weight:
            best, best_weight = [t], weight
        elif weight == best_weight:
            best.append(t)
    if not best:
        raise NoTameType(f"no tame type of rank {rank}, degree {degree}, floor {m}")
    require(len(best) == 1, f"unique weighted-sum maximizer, {best}")
    return SplittingType(best[0])


def maroni_codimension(d: int, g: int, m: int) -> int:
    """Codimension of the locus of covers whose bundle E has floor m:
    g - (d-1)m + 1, or 0 when m is already the generic (balanced) floor."""
    lo_num, lo_den = g + d - 1, comb(d, 2)
    hi_num, hi_den = g + d - 1, d - 1
    if not (lo_num <= m * lo_den and m * hi_den <= hi_num):
        raise OutOfRange(
            f"floor {m} outside [{lo_num}/{lo_den}, {hi_num}/{hi_den}]")
    if m == (g + d - 1) // (d - 1):
        return 0
    return g - (d - 1) * m + 1


def divisorial_conditions(d: int, g: int) -> dict[str, bool]:
    """When do the two unbalancedness loci have codimension one?

    The E-locus needs (d-1) | g; the F-locus needs rank F to divide degree F,
    i.e. d(d-3)/2 | (d-3)(g+d-1).  For d = 3 the bundle F has rank zero and
    the F-side condition is vacuously false.
    """
    if d < 3 or g < 2:
        raise OutOfRange("need d >= 3 and g >= 2")
    maroni = g % (d - 1) == 0
    if d == 3:
        ce = False
    else:
        rank_f = d * (d - 3) // 2
        deg_f = (d - 3) * (g + d - 1)
        ce = deg_f % rank_f == 0
    return {"maroni": maroni, "ce": ce}


def syzygy_rank(d: int, i: int) -> int:
    """Rank of the i-th syzygy bundle in the length-(d-2) fiberwise
    resolution of a degree-d cover: i(d-2-i)/(d-1) * C(d, i+1).

    The closed formula covers the interior range 1 <= i <= d-3; the last
    bundle is a line bundle (it is the determinant of E pulled back), so the
    i = d-2 slot is 1 even though the formula would give 0.
    """
    if not 1 <= i <= d - 2:
        raise IndexOutOfRange(f"syzygy index {i} outside 1..{d - 2}")
    if i == d - 2:
        return 1
    value = i * (d - 2 - i) * comb(d, i + 1)
    require(value % (d - 1) == 0, f"d-1 divides the syzygy-rank numerator, d = {d}, i = {i}")
    return value // (d - 1)


class CoverInvariants(Record):
    """Numerical invariants of a degree-d genus-g cover of the line."""

    d: int
    g: int

    @property
    def rank_e(self) -> int:
        return self.d - 1

    @property
    def deg_e(self) -> int:
        return self.g + self.d - 1

    @property
    def rank_f(self) -> int:
        return self.d * (self.d - 3) // 2

    @property
    def deg_f(self) -> int:
        return (self.d - 3) * (self.g + self.d - 1)

    @property
    def branch_points(self) -> int:
        return 2 * self.g + 2 * self.d - 2


def rational_and_elliptic_tables(d: int) -> dict[str, SplittingType | None]:
    """Splitting types of E and F for rational and elliptic covers of any
    degree d >= 3 (the F entries are empty at d = 3 where F has rank 0)."""
    if d < 3:
        raise OutOfRange("need d >= 3")
    e_rational = SplittingType((1,) * (d - 1))
    e_elliptic = SplittingType((1,) * (d - 2) + (2,))
    if d == 3:
        f_rational = None
        f_elliptic = None
    else:
        f_rational = SplittingType((1,) * (d - 3) + (2,) * comb(d - 2, 2))
        f_elliptic = SplittingType((2,) * (d * (d - 3) // 2))
    return {
        "E_rational": e_rational,
        "F_rational": f_rational,
        "E_elliptic": e_elliptic,
        "F_elliptic": f_elliptic,
    }


def pushforward_c1_power(n: int, c1_e: PolyLike) -> Poly:
    """c1 of the pushforward of the N-th power of the relative dualizing
    sheaf: (2N - 1) c1(E).  At N = 2, combined with
    c1(Sym^2 E) = d * c1(E) for rank d-1, this yields c1(F) = (d-3) c1(E).
    """
    if n < 1:
        raise OutOfRange("need N >= 1")
    return (2 * n - 1) * Poly.coerce(c1_e)


# Ceiling conventions used throughout the degree-four and degree-five
# computations, centralized so they cannot drift between modules.

def k1_pentagonal(g_r: int) -> int:
    """Largest twist of the rank-six kernel bundle: ceil(5(g+4)/6)."""
    return ceil_div(5 * (g_r + 4), 6)


def m_r_pentagonal(g_r: int) -> int:
    """Balanced upper twist of E tensor (det E)^-1: ceil(-3(g+4)/4)."""
    return ceil_div(-3 * (g_r + 4), 4)


def v_tetragonal(g_r: int) -> int:
    """Larger twist of the rank-two bundle F at degree four: ceil((g+3)/2)."""
    return ceil_div(g_r + 3, 2)
