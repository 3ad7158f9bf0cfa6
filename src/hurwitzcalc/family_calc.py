"""The concrete pencil records for degrees three, four, and five: the
singular-element counts of the explicit pencils the divisor bounds rest
on.  The invariants of a family from its Chern data are in
`divisor_classes`.

Each vertex pencil has one symbolic form, `vertex_pencil_form`, derived
once per process, lazily on first use, directly in the symbols the
boundary rules evaluate: the vertex genus gR, and the ceilings v and kR
where they enter.  The jet-bundle count is checked against the
Euler-characteristic count at that derivation.  The per-genus functions
only evaluate that form at `pencil_symbols`, the one place that turns a
genus into its ceilings.

The partial pencils are one table of plain-data rows, `PENCIL_TABLE`.  A
record evaluates its row with the form of the row's vertex pencil; the
boundary-rule slacks of `yeff` read the same rows and forms.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm
from types import MappingProxyType

from .bundles import k1_pentagonal, m_r_pentagonal, v_tetragonal
from .chow import (ChowClass, Surface, canonical_class,
                   ring_grassmann_bundle_g25, ring_proj_bundle_over_p1,
                   surface_hirzebruch, surface_p1xp1)
from .errors import InvalidProfile, OutOfRange, Record, RingMismatch, UnknownKind, require
from .symkernel import Poly, PolyLike, check_printable


# ---------------------------------------------------------------------------
# Singular-element counts of pencils on surfaces
# ---------------------------------------------------------------------------

def pencil_delta_on_surface(surface: Surface, pencil_class: ChowClass) -> Poly:
    """Number of singular elements of a general pencil in |L| on a smooth
    surface, by the jet-bundle count: 3 L^2 + 2 L.K + c2(Omega)."""
    if pencil_class.ring is not surface.ring:
        raise RingMismatch(f"pencil class must live on {surface.ring.spec}")
    if pencil_class.degrees() != {1}:
        raise RingMismatch("pencil class must be a divisor class")
    l_sq = surface.dot(pencil_class, pencil_class)
    l_k = surface.dot(pencil_class, surface.K)
    return 3 * l_sq + 2 * l_k + surface.c2_omega


def pencil_delta_via_euler(surface: Surface, pencil_class: ChowClass) -> Poly:
    """The same count assembled from topological Euler characteristics:
    chi_top(blown-up surface) minus twice chi_top of the generic member."""
    l_sq = surface.dot(pencil_class, pencil_class)
    genus = surface.adjunction_genus(pencil_class)
    chi_total = surface.c2_omega + l_sq          # one blow-up per basepoint
    chi_fiber = 2 - 2 * genus
    return chi_total - 2 * chi_fiber


def _checked_pencil_delta(surface: Surface, pencil_class: ChowClass) -> Poly:
    """The jet-bundle count, required to equal the Euler-characteristic one."""
    delta = pencil_delta_on_surface(surface, pencil_class)
    require(delta == pencil_delta_via_euler(surface, pencil_class),
            f"jet count = Euler count for {pencil_class} on {surface.name}")
    return delta


def _nonnegative_genus(g_r: int) -> int:
    if g_r < 0:
        raise OutOfRange(f"pencil genus must be >= 0, got {g_r}")
    return g_r


def _check_total_genus(g: int, g_r: int) -> None:
    """A two-vertex graph has total genus at least its vertex genus gR."""
    if g < g_r:
        raise OutOfRange(f"the total genus g must be >= the vertex genus gr = {g_r}, got {g}")


# ---------------------------------------------------------------------------
# The degree-four surface: a conic bundle inside P(E) for rank-three E
# ---------------------------------------------------------------------------

def _twisted_split_c2(rank: int, c1: Poly, fiber: ChowClass, twist: ChowClass) -> ChowClass:
    """c2 of (split rank-`rank` bundle pulled back from the line) tensor a
    line bundle with class `twist`: since the fiber class squares to zero,

        c2 = C(rank,2) twist^2 + (rank-1) c1 fiber twist.
    """
    return comb(rank, 2) * twist * twist + (rank - 1) * (fiber * twist) * c1


def c2_omega_tetragonal_surface(u: PolyLike, v: PolyLike, g_r: PolyLike) -> Poly:
    """c2 of the cotangent bundle of the conic-bundle surface in |2z - vf|
    inside P(E), E of rank three with c1(E) = u + v.

    Derived through three exact sequences (relative Euler, relative
    cotangent, conormal), landing on 3v + 6u - 4g - 8; the restriction of
    c2 of the ambient cotangent bundle is the intermediate 3v + 6u - 4g.
    """
    return _c2_omega_tetragonal_pipeline(u, v, g_r)[1]


def c2_omega_tetragonal_ambient_restricted(u: PolyLike, v: PolyLike,
                                           g_r: PolyLike) -> Poly:
    """The intermediate of the pipeline: c2(Omega of P(E)) restricted to the
    surface, equal to 3v + 6u - 4g."""
    return _c2_omega_tetragonal_pipeline(u, v, g_r)[0]


def _c2_omega_tetragonal_pipeline(u: PolyLike, v: PolyLike,
                                  g_r: PolyLike) -> tuple[Poly, Poly]:
    """The restricted ambient c2 and the surface's c2, each rewritten by the
    genus relation g_r = u + v - 3: it gets -4 (g_r - (u + v - 3)) added,
    which vanishes on the surface."""
    u, v, g_r = Poly.coerce(u), Poly.coerce(v), Poly.coerce(g_r)
    c1e = u + v
    rebase = -4 * (g_r - (c1e - 3))
    ring = ring_proj_bundle_over_p1(3, c1e)
    z, f = ring.gen("z"), ring.gen("f")
    surface_class = 2 * z - f * v

    # relative Euler sequence: Omega_rel = (pullback E)(-z) minus a trivial rank
    c1_rel = f * c1e - 3 * z
    c2_rel = _twisted_split_c2(3, c1e, f, -z)
    # relative cotangent sequence adds the pullback of Omega of the base line
    c2_ambient = c2_rel + c1_rel * (-2 * f)

    intermediate = (c2_ambient * surface_class).integrate() + rebase
    require(intermediate == 6 * u + 3 * v - 4 * g_r, "restricted ambient c2")

    # conormal sequence: c2(Omega_S) = c1(M)^2 - K_ambient.c1(M) + c2(Omega_ambient)|_S
    conormal = -surface_class
    k_ambient = canonical_class(ring)
    correction = conormal * conormal - k_ambient * conormal
    final = ((correction + c2_ambient) * surface_class).integrate() + rebase
    require(final == 6 * u + 3 * v - 4 * g_r - 8, "conic-bundle surface c2")
    return intermediate, final


def surface_tetragonal(u: PolyLike, v: PolyLike) -> Surface:
    """The smooth conic-bundle surface in |2z - vf| inside P(E) for a
    rank-three bundle E = O(u) + O(v) (so c1(E) = u + v); its curves in
    |2z - uf| are the degree-four covers of genus u + v - 3."""
    u, v = Poly.coerce(u), Poly.coerce(v)
    g_r = u + v - 3
    ring = ring_proj_bundle_over_p1(3, u + v)
    z, f = ring.gen("z"), ring.gen("f")
    fundamental = 2 * z - f * v
    k_surface = canonical_class(ring) + fundamental
    c2 = c2_omega_tetragonal_surface(u, v, g_r)
    return Surface("conic-bundle", ring, k_surface, c2, fundamental)


# ---------------------------------------------------------------------------
# Degree-five pencils through the Grassmannian bundle
# ---------------------------------------------------------------------------

def pentagonal_pencil_symbolic(g: PolyLike = "g", k1: PolyLike = "k1") -> dict[str, Poly]:
    """The degree-five pencil invariants with the genus and the top kernel
    twist kept symbolic.

    Pipeline: the canonical class of the Grassmannian bundle gives the
    canonical class of the elliptic-fibration surface as (g + 2 - k1) f;
    the elliptic-fibration canonical-bundle formula then pins
    chi(O) = g + 4 - k1, Noether converts it to chi_top (the canonical class
    is a fiber multiple, so K^2 = 0), and the basepoint count B comes from
    intersection numbers on the bundle.  The pencil invariants follow:

        lambda = 2g + 3 - k1,   delta = 13g + 32 - 7k1,   B = 5k1 - 3(g+4).
    """
    g = Poly.var(g) if isinstance(g, str) else Poly.coerce(g)
    k1 = Poly.var(k1) if isinstance(k1, str) else Poly.coerce(k1)
    c1e = g + 4
    c1_f_dual = -2 * (g + 4)          # deg F = 2 deg E for degree-five covers
    kernel_degree_sum = 5 * (g + 4)   # the k_i sum to 5(g+4)

    ring = ring_grassmann_bundle_g25(c1_f_dual)
    z, f = ring.gen("z"), ring.gen("f")

    # basepoints: (z + k1 f)^2 . prod_{i>=2}(z + k_i f), expanded with
    # symbolic twists and only their sum substituted at the end
    ks = [k1] + [Poly.var(f"k{i}") for i in range(2, 7)]
    product = ring.one()
    for k in ks:
        product = product * (z + f * k)
    b_raw = ((z + f * k1) * product).integrate()
    tail_sum = kernel_degree_sum - k1
    b_count = _substitute_symmetric_tail(b_raw, [f"k{i}" for i in range(2, 7)], tail_sum)
    require(b_count == 5 * k1 - 3 * (g + 4), "degree-five basepoint count")

    # canonical class of the surface: the five cutting divisors plus K of
    # the bundle; the z-terms cancel and only a fiber multiple survives
    k_bundle = canonical_class(ring)
    cutting = ring.zero()
    for k in ks[1:]:
        cutting = cutting + (z + f * k)
    k_surface = cutting + k_bundle
    require(k_surface.coefficient((1, 0)).is_zero(), "canonical z-terms cancel")
    k_fiber_raw = k_surface.coefficient((0, 1))
    k_fiber = _substitute_symmetric_tail(k_fiber_raw, [f"k{i}" for i in range(2, 7)], tail_sum)
    require(k_fiber == g + 2 - k1, "elliptic-surface canonical class")

    chi_structure = k_fiber + 2          # K = (chi(O) - 2) f for the fibration
    chi_top_surface = 12 * chi_structure  # Noether with K^2 = 0
    chi_top_total = chi_top_surface + b_count
    delta = chi_top_total - 2 * (2 - 2 * g)
    lam = chi_structure - (1 - g)
    require(lam == 2 * g + 3 - k1, "degree-five pencil lambda")
    require(delta == 13 * g + 32 - 7 * k1, "degree-five pencil delta")
    return {"lambda": lam, "delta": delta, "B": b_count, "K_fiber": k_fiber,
            "chi_structure": chi_structure}


def _substitute_symmetric_tail(p: Poly, names: list[str], total: Poly) -> Poly:
    """Substitute a symmetric linear dependence on `names` by their sum."""
    first = p.coefficient(((names[0], 1),))
    for name in names:
        mono = ((name, 1),)
        require(p.coefficient(mono) == first, "symmetric in the tail twists")
        require(not any(name in {n for n, _ in m} and m != mono for m in p.terms),
                "linear in the tail twists")
    share = total / len(names)
    return p.subs({name: share for name in names})


# ---------------------------------------------------------------------------
# Vertex pencils: one symbolic form each, in the symbols the rules evaluate
# ---------------------------------------------------------------------------

@cache
def vertex_pencil_form(vertex: str) -> dict[str, Poly]:
    """lambda, delta and X of the plain pencil of one vertex type, derived
    once per process with the vertex genus symbolic as gR (and v, kR, mR
    where they enter), the jet count checked against the Euler count there.
    Only the degree-five pencil meets X in an exact count: (2g - 22)/5
    times its Maroni count M = kR + mR, from the Maroni rotation; its form
    also carries the basepoint count B.  The others meet X nonnegatively,
    encoded as 0.  The rational vertex of degree dv has lambda 0 and
    delta dv."""
    g_r, zero = Poly.var("gR"), Poly.const(0)
    if vertex == "rational":
        return {"lambda": zero, "delta": Poly.var("dv"), "X": zero}
    if vertex == "trigonal":
        # bidegree (3, k) on the quadric with k = gR/2 + 1, and 3 tau + m f
        # on its blown-up twin F_1 with m = (gR - 1)/2: the counts must agree
        quadric, blown_up = surface_p1xp1(), surface_hirzebruch(1)
        rs, rt = quadric.ring.gen("Rs"), quadric.ring.gen("Rt")
        tau, f = blown_up.ring.gen("tau"), blown_up.ring.gen("f")
        deltas = []
        for surface, pencil in ((quadric, (g_r / 2 + 1) * rs + 3 * rt),
                                (blown_up, 3 * tau + (g_r - 1) / 2 * f)):
            require(surface.adjunction_genus(pencil) == g_r,
                    f"trigonal pencil on {surface.name} has genus gR")
            deltas.append(_checked_pencil_delta(surface, pencil))
        require(deltas[0] == deltas[1], "the two trigonal surfaces agree")
        return {"lambda": g_r, "delta": deltas[0], "X": zero}
    if vertex == "hyperelliptic":
        # the pencil 2 tau + f on F_gR
        surface = surface_hirzebruch(g_r)
        tau, f = surface.ring.gen("tau"), surface.ring.gen("f")
        return {"lambda": g_r, "delta": _checked_pencil_delta(surface, 2 * tau + f),
                "X": zero}
    if vertex == "tetragonal":
        # 2z - uf on the conic-bundle surface, u = gR + 3 - v
        v = Poly.var("v")
        u = g_r + 3 - v
        surface = surface_tetragonal(u, v)
        z, f = surface.ring.gen("z"), surface.ring.gen("f")
        return {"lambda": g_r, "delta": _checked_pencil_delta(surface, 2 * z - u * f),
                "X": zero}
    if vertex != "pentagonal":
        raise UnknownKind(f"unknown vertex pencil {vertex!r}")
    form, maroni = pentagonal_pencil_symbolic("gR", "kR"), Poly.var("kR") + Poly.var("mR")
    return {"lambda": form["lambda"], "delta": form["delta"], "B": form["B"],
            "X": (2 * Poly.var("g") - 22) / 5 * maroni, "M": maroni}


def pencil_symbols(g_r: int, g: int | None = None) -> dict[str, int | None]:
    """Values of the symbols of :func:`vertex_pencil_form` at vertex genus
    g_r and total genus g, which only X needs."""
    return {"g": g, "gR": g_r, "v": v_tetragonal(g_r), "kR": k1_pentagonal(g_r),
            "mR": m_r_pentagonal(g_r)}


def _vertex_delta(vertex: str, g_r: int) -> Fraction:
    return vertex_pencil_form(vertex)["delta"].eval(pencil_symbols(_nonnegative_genus(g_r)))


def trigonal_pencil_delta(g_r: int) -> Fraction:
    """Singular members of the basic trigonal pencil, 7g + 6."""
    return _vertex_delta("trigonal", g_r)


def hyperelliptic_pencil_delta(g_r: int) -> Fraction:
    """Singular members of the genus-g hyperelliptic pencil on F_g: 8g + 4."""
    return _vertex_delta("hyperelliptic", g_r)


def tetragonal_pencil_delta(g_r: int) -> Fraction:
    """Singular elements of the basic degree-four pencil: v + 6g + 6, with
    v = ceil((g+3)/2) the larger twist of the rank-two bundle F and
    u = g + 3 - v."""
    return _vertex_delta("tetragonal", g_r)


def pentagonal_pencil_numbers(g_r: int) -> dict[str, Fraction]:
    """Exact invariants of a general degree-five pencil of genus g_r >= 2:
    k1, the basepoint count B, and the pencil's lambda and delta, evaluated
    from its form in :func:`vertex_pencil_form`, built by
    :func:`pentagonal_pencil_symbolic`, whose Euler-characteristic pipeline
    fixes delta."""
    min_gr = PENCIL_TABLE["pentagonal_plain"].min_gr
    if g_r < min_gr:
        raise OutOfRange(f"pentagonal pencils need genus >= {min_gr}")
    at, form = pencil_symbols(g_r), vertex_pencil_form("pentagonal")
    return {"k1": Fraction(at["kR"]),
            **{name: form[name].eval(at) for name in ("B", "lambda", "delta")}}


# ---------------------------------------------------------------------------
# Base-change section bookkeeping (degree-five ramified families)
# ---------------------------------------------------------------------------

def check_profile(d: int, profile: tuple[int, ...]) -> None:
    """Raise InvalidProfile unless `profile` is a partition of d into
    positive parts."""
    if any(m < 1 for m in profile) or sum(profile) != d:
        raise InvalidProfile(f"{profile} is not a partition of {d}")


def basechange_section_bookkeeping(d: int, branch_points: int,
                                   profile: tuple[int, ...]) -> dict[str, Fraction]:
    """Self- and pairwise-intersections of the d sections appearing after
    the degree-d! base change that kills the monodromy of a d-fold
    multisection with the given number of simple branch points.

    The recorded convention: the total pairwise meeting count is
    branch_points * d!/2, distributed evenly over the C(d,2) pairs; the
    section self-intersection solves (sum of sections)^2 = 0 as
    -(total)/d; and the admissibility blow-ups subtract one per meeting
    incident to the section and two per meeting of a disjoint pair.
    """
    if d < 2:
        raise InvalidProfile("need degree >= 2")
    check_profile(d, profile)
    n_sections = d
    total = Fraction(branch_points * factorial(d), 2)
    pair_int = total / comb(n_sections, 2)
    self_int = -total / n_sections
    blown = (self_int
             - (n_sections - 1) * pair_int
             - 2 * comb(n_sections - 1, 2) * pair_int)
    return {
        "pairInt": pair_int,
        "selfInt": self_int,
        "blownSelfInt": blown,
        "lcmOrder": Fraction(lcm(*profile)),
    }


# ---------------------------------------------------------------------------
# Pencil records
# ---------------------------------------------------------------------------

class PencilRecord(Record):
    """The numeric shadow of a (partial) pencil family: its lambda and
    delta, its intersection numbers with the boundary divisors it touches
    (by role), and its intersection with the divisor class X.

    For families that sweep the boundary divisor containing them, the X-,
    Maroni-, and quadric-locus intersections are only known to be
    nonnegative; those carry the tag ">=0" instead of a number.
    """

    kind: str
    params: dict[str, int]
    lam: Fraction
    delta: Fraction
    boundary_hits: dict[str, Fraction]
    x_hit: Fraction | str = ">=0"
    maroni_hit: Fraction | str = ">=0"
    ce_hit: Fraction | str = ">=0"
    sweeps: bool = True
    extras: dict[str, Fraction] | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.extras is None:
            object.__setattr__(self, "extras", {})
        if self.sweeps:
            for tag in (self.maroni_hit, self.ce_hit):
                if not isinstance(tag, str) and tag < 0:
                    raise OutOfRange("sweeping families meet the special loci nonnegatively")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "lambda": str(self.lam),
            "delta": str(self.delta),
            "boundaryHits": {k: str(v) for k, v in self.boundary_hits.items()},
            "xHit": str(self.x_hit),
            "maroniHit": str(self.maroni_hit),
            "ceHit": str(self.ce_hit),
            "sweeps": self.sweeps,
            "extras": {k: str(v) for k, v in self.extras.items()},
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PencilRecord":
        def dec(s):
            return s if s == ">=0" else Fraction(s)
        return cls(
            kind=data["kind"],
            params={k: int(v) for k, v in data["params"].items()},
            lam=Fraction(data["lambda"]),
            delta=Fraction(data["delta"]),
            boundary_hits={k: Fraction(v) for k, v in data["boundaryHits"].items()},
            x_hit=dec(data["xHit"]),
            maroni_hit=dec(data["maroniHit"]),
            ce_hit=dec(data["ceHit"]),
            sweeps=data["sweeps"],
            extras={k: Fraction(v) for k, v in data.get("extras", {}).items()},
            notes=tuple(data.get("notes", ())),
        )


class PencilRow(Record):
    """One (partial) pencil family: the plain pencil of a vertex type less
    `sections` gluing sections in delta, and its boundary hits by role.
    `shape` is the rule shape it grounds: a two-vertex node profile or a
    degree-three hyperelliptic-vertex shape.  A sweeping family meets X and
    the Maroni and quadric loci only nonnegatively.  A base-change row
    counts the `copies` = 5! sheets of the base change, and its hits come
    from the section bookkeeping of its shape."""

    vertex: str
    sections: int
    hits: dict[str, int]
    params: tuple[str, ...] = ("gr",)
    shape: tuple[int, ...] | str | None = None
    min_gr: int = 0
    sweeps: bool = True
    copies: int = 1
    notes: tuple[str, ...] = ()

    @property
    def inputs(self) -> tuple[str, ...]:
        """The keywords a record of this row takes; the other `params` it
        prints are derived from them."""
        if self.vertex == "rational":
            return ("dv",)
        return ("gr",) if self.sweeps else ("gr", "g")


_SPLIT = {"delta_self": -1, "delta_split": 1}
_RAMIFIED = {"delta_self": -1, "delta_split": 1, "delta_ram": 1}
_PENTAGONAL_NOTES = (
    "the leading delta coefficient 13 is pinned by the Euler-characteristic "
    "pipeline; the digit-transposed 31 fails it",)
_EXACT_PARAMS = ("gr", "g", "kR", "mR")

PENCIL_TABLE = {
    "rational_partial": PencilRow("rational", 0, {"delta_self": -1}, ("dv",)),
    "trigonal_plain": PencilRow("trigonal", 0, {}),
    "trigonal_unramified_3pts": PencilRow("trigonal", 3, _SPLIT, shape=(1, 1, 1)),
    "trigonal_ramified_21": PencilRow("trigonal", 2, _RAMIFIED, shape=(2, 1)),
    "trigonal_triple": PencilRow("trigonal", 1, _RAMIFIED, shape=(3,)),
    "hyperelliptic_plain": PencilRow("hyperelliptic", 0, {}),
    # both attaching nodes sit on the main vertex and contribute
    "hyperelliptic_3vertex": PencilRow("hyperelliptic", 2, _SPLIT, shape="threevertex"),
    # the section glued to the rational vertex meets a node that does not
    # contribute to delta
    "hyperelliptic_4vertex": PencilRow("hyperelliptic", 1, _SPLIT, shape="fourvertex"),
    "tetragonal_plain": PencilRow("tetragonal", 0, {}, ("gr", "v")),
    "tetragonal_unramified_4pts": PencilRow("tetragonal", 4, _SPLIT, ("gr", "v"),
                                            (1, 1, 1, 1)),
    "tetragonal_ramified_2pp": PencilRow("tetragonal", 3, _RAMIFIED, ("gr", "v"),
                                         (2, 1, 1)),
    "pentagonal_plain": PencilRow("pentagonal", 0, {}, ("gr", "k1"), min_gr=2,
                                  notes=_PENTAGONAL_NOTES),
    "pentagonal_unramified_5pts": PencilRow("pentagonal", 5, _SPLIT, _EXACT_PARAMS,
                                            (1, 1, 1, 1, 1), min_gr=2, sweeps=False,
                                            notes=_PENTAGONAL_NOTES),
    # 20 * 5! comes off delta after the base change
    "pentagonal_basechange": PencilRow("pentagonal", 20, {}, _EXACT_PARAMS, (2, 1, 1, 1),
                                       min_gr=2, sweeps=False, copies=factorial(5),
                                       notes=_PENTAGONAL_NOTES),
}

PENCIL_KINDS = tuple(PENCIL_TABLE)

# record parameters named apart from the form symbol they hold
_PARAM_SYMBOL = {"gr": "gR", "k1": "kR"}


def partial_pencil_record(kind: str, **params: int) -> PencilRecord:
    """The intersection record of one of the named (partial) pencil
    families, evaluated from its row of :data:`PENCIL_TABLE`.  `gr` is the
    genus of the varying right side; the exact pentagonal records also
    take the total genus `g` (for the X-intersection), and the rational one
    its degree `dv` (default 3).  A keyword outside the row's `inputs` is
    an error."""
    row = PENCIL_TABLE.get(kind)
    if row is None:
        raise UnknownKind(f"unknown pencil kind {kind!r}; known: {PENCIL_KINDS}")
    if row.vertex == "rational":
        at = {"dv": params.get("dv", 3)}
        if at["dv"] < 1:
            raise OutOfRange(f"a rational vertex needs degree dv >= 1, got {at['dv']}")
    else:
        if "gr" not in params:
            raise OutOfRange(f"{kind} records need the vertex genus gr")
        if params["gr"] < row.min_gr:
            raise OutOfRange(f"{kind} records need gr >= {row.min_gr}, got {params['gr']}")
        if "g" in row.inputs:
            if "g" not in params:
                raise OutOfRange(f"{kind} records need the total genus g")
            _check_total_genus(params["g"], params["gr"])
        at = pencil_symbols(params["gr"], params.get("g"))
    unused = [name for name in params if name not in row.inputs]
    if unused:
        raise OutOfRange(f"{kind} records take no {', '.join(unused)}")
    # a parameter past the limit is refused before anything is evaluated;
    # the values, at most quadratic in the parameters and so cheap to
    # evaluate, are checked by their own sizes in `_evaluate_row`
    check_printable(max((value.bit_length() for value in params.values()), default=0),
                    "pencil parameters")
    if row.copies == 1:
        return _evaluate_row(kind, row, at, row.hits)
    # the quoted base change: the blown-down section self-intersection, and
    # every collision, over the profile point or not, on one divisor
    books, hits = map(dict, _basechange(row.shape))
    collisions = sum(v for role, v in hits.items() if role != "delta_self")
    return _evaluate_row(kind, row, at,
                         {"delta_self": hits["delta_self"], "delta_collision": collisions},
                         extras={"sectionSelfInt": books["selfInt"],
                                 "sectionPairInt": books["pairInt"]})


def pentagonal_basechange_profile_record(g: int, g_r: int,
                                         profile: tuple[int, ...]) -> PencilRecord:
    """Reconstructed record for the base-changed degree-five family whose
    marked fiber degenerates with the given ramification profile.

    The section bookkeeping is profile-independent (each pair of sections
    meets d!/2 times in total, whether transversely over simple collisions
    or tangentially over the marked point), so the self-intersection of the
    family inside its boundary divisor is always -9 * 5!.  The family meets
    the simple-collision divisor over (10 - r) * 5!/2 points and the
    profile divisor over 5!/lcm points, r being the profile's ramification
    index.
    """
    hits = _basechange_hits(profile)
    if g_r < 1:
        raise OutOfRange("base-change families need genus >= 1")
    _check_total_genus(g, g_r)
    row = PENCIL_TABLE["pentagonal_basechange"]
    return _evaluate_row("pentagonal_basechange", row, pencil_symbols(g_r, g), hits,
                         extra_notes=(f"reconstructed for profile {profile}",))


def _evaluate_row(kind: str, row: PencilRow, at: dict[str, int],
                  hits: dict[str, Fraction | int], extras: dict[str, Fraction] | None = None,
                  extra_notes: tuple[str, ...] = ()) -> PencilRecord:
    """The record of `row` at the symbol values `at`, with the given hits;
    refused when a value could not be printed."""
    form, n = vertex_pencil_form(row.vertex), row.copies
    exact = {} if row.sweeps else {"x_hit": n * form["X"].eval(at),
                                   "maroni_hit": n * form["M"].eval(at),
                                   "ce_hit": Fraction(0)}
    record = PencilRecord(
        kind, {name: at[_PARAM_SYMBOL.get(name, name)] for name in row.params},
        n * form["lambda"].eval(at), n * (form["delta"].eval(at) - row.sections),
        {role: Fraction(v) for role, v in hits.items()}, sweeps=row.sweeps,
        extras=extras or {}, notes=row.notes + extra_notes, **exact)
    values = (record.lam, record.delta, *record.params.values(), *exact.values(),
              *record.boundary_hits.values(), *record.extras.values())
    check_printable(max(max(q.numerator.bit_length(), q.denominator.bit_length())
                        for q in values), "pencil record values")
    return record


def _basechange_hits(profile: tuple[int, ...]) -> dict[str, Fraction]:
    """Boundary hits of the base-changed degree-five family whose marked
    fiber has the given ramification profile (see
    :func:`pentagonal_basechange_profile_record`); they depend on the
    profile alone, not on the genera.  A fresh dict on each call."""
    return dict(_basechange(profile)[1])


@cache
def _basechange(profile: tuple[int, ...]) -> tuple[Mapping[str, Fraction], Mapping[str, Fraction]]:
    """(section bookkeeping, boundary hits) of the base-changed degree-five
    family with the given profile, once per profile and read-only.  The
    self hit is the blown-up section self-intersection of
    :func:`basechange_section_bookkeeping`."""
    books = basechange_section_bookkeeping(5, 10, profile)
    r = sum(m - 1 for m in profile)
    if r < 1:
        raise InvalidProfile("the profile must carry ramification")
    n = factorial(5)
    hits = {"delta_self": books["blownSelfInt"],
            "delta_profile": Fraction(n, lcm(*profile))}
    simple = Fraction((10 - r) * n, 2)
    if simple:
        hits["delta_collision"] = simple
    return MappingProxyType(books), MappingProxyType(hits)
