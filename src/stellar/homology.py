"""Exact simplicial homology over Q and Z_p.

Absolute, reduced, and relative Betti numbers via boundary-map ranks; the
inclusion-injectivity test used by the tightness machinery; orientability;
the homology-sphere test that gates the sigma duality path.
Chain bases are faces as bitmasks, so chain spaces of an induced
subcomplex embed in those of the ambient complex with no reindexing.

Every Betti number, absolute or relative, comes from one routine,
``_boundary_ranks``: beta_i = n_i - rank d_i - rank d_{i+1}.  A pair
(K, L) goes through it as the complex K u wL, the cone over L from a new
vertex w glued to K: its reduced chain complex is the mapping cone of
C~(L) -> C~(K), so its reduced Betti numbers are H_i(K, L).  The routine
reduces the boundary maps from the top dimension down and clears: a face
that is the pivot row of a reduced column one dimension up has a column
that reduces to zero, so it is never built (Chen & Kerber, EuroCG 2011).
Of the faces left, most are apparent pivots: the largest face of the
boundary of f is f less its lowest vertex, with entry +1, and when no
smaller face has claimed that row, f claims it without its column being
built.  ``exactlinalg.rank`` reduces the other faces against these and
builds a claimed column only the first time an elimination reads it
(Bauer, "Ripser", J. Appl. Comput. Topol. 5, 2021).  Both are exact
reductions with no hypothesis to check (they need only d o d = 0 and
distinct pivot rows); the ranks equal those of the plain reduction,
which the tests keep as its oracle.

The top map, reduced first, has one shortcut with a gate: when apparent
pivots leave columns over and no row meets more than two columns (as on
the facets of a closed pseudomanifold), ``_two_entry_pivots`` finds its
pivot rows by a signed union-find with no elimination, and they clear
the map below as the elimination's would.  On M_3_7 the elimination
then builds 997 of the 6,974 columns that clearing leaves, none of them
in the top map.

The inclusion test is no separate computation: the exact sequence of
the pair (X, X[A]) gives the dimension of the kernel of H_j(X[A]) ->
H_j(X) from the Betti numbers of X[A], of X and of the pair.  So
``exactlinalg.rank`` has one caller, ``_boundary_ranks``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (Complex, InputError, StructureError,
                   _closed_pseudomanifold, _components, _levels, _rebuild,
                   _vertex_links, bits, is_closed_pseudomanifold, mask_of)
from .exactlinalg import rank


# Miller-Rabin with these bases decides primality of every n < 3.18e23,
# in particular of every 64-bit n (Sorenson & Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test; exact for p < 2**64."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: the rationals or a prime field Z_p."""

    kind: str  # "rationals" | "prime"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "prime":
            if self.p is not None and self.p >= 1 << 64:
                raise InputError(f"field prime {self.p} is not below 2^64")
            if self.p is None or not _is_prime(self.p):
                raise InputError(f"{self.p} is not prime")
        elif self.kind != "rationals":
            raise InputError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("rationals")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("prime", p)

    @staticmethod
    def parse(token: str) -> "FieldSpec":
        token = token.strip().lower()
        if token in ("q", "qq", "rationals"):
            return FieldSpec.rationals()
        if token.startswith("z"):
            try:
                p = int(token[1:])
            except ValueError:
                raise InputError(f"cannot parse field {token!r}") from None
            return FieldSpec.prime(p)
        raise InputError(f"cannot parse field {token!r}")

    def __str__(self) -> str:
        return "Q" if self.kind == "rationals" else f"Z{self.p}"


QQ = FieldSpec.rationals()
GF2 = FieldSpec.prime(2)


@dataclass(frozen=True)
class BettiTable:
    field: FieldSpec
    beta: tuple[int, ...]      # beta_0 .. beta_d
    reduced: tuple[int, ...]   # reduced beta_0 .. beta_d


def _boundary_col_signed(face: int) -> dict[int, int]:
    col = {}
    sign = 1
    for v in bits(face):
        col[face ^ (1 << v)] = sign
        sign = -sign
    return col


def _two_entry_pivots(faces, field: FieldSpec) -> set[int] | None:
    """The pivot rows of the boundary map on the chains of ``faces``, or
    None once a row meets a third column.

    Row r is a pivot row of the column-reduced map iff it is not in the
    span of the rows above it, so the pivot rows are the greedy row basis
    in decreasing order.  When every row has at most two entries, all of
    them +-1, the rows are the edges and half-edges of a signed graph on
    the columns, and that basis is found with no elimination (Zaslavsky,
    "Signed graphs", Discrete Appl. Math. 4, 1982).  The rows of a
    component span the vectors orthogonal to its column signs s (s_i =
    -a b s_j along a row a e_i + b e_j) until a half-edge or a cycle with
    a s_i + b s_j != 0 makes them span every vector on its columns:
    ``full``.  Over Z2 every cycle is balanced.  A row that joins two
    components relabels the smaller one, so each column moves
    O(log F) times."""
    meets: dict[int, list[int]] = {}
    for c, f in enumerate(faces):
        sign, g = 1, f
        while g:
            low = g & -g
            r = f ^ low
            g ^= low
            e = meets.get(r)
            if e is None:
                meets[r] = [c, sign]
            elif len(e) == 2:
                e += (c, sign)
            else:
                return None
            sign = -sign
    comp = list(range(len(faces)))  # the component of each column
    signs = [1] * len(faces)  # its sign s within the component
    members = [[c] for c in comp]
    full = [False] * len(faces)
    gf2 = field.p == 2
    pivots = set()
    for r in sorted(meets, reverse=True):
        e = meets[r]
        a = comp[e[0]]
        if len(e) == 2:
            if not full[a]:
                full[a] = True
                pivots.add(r)
            continue
        b = comp[e[2]]
        flip = -e[1] * e[3] * signs[e[0]] * signs[e[2]]  # 1 iff s balances r
        if a == b:
            if not (flip == 1 or full[a] or gf2):
                full[a] = True
                pivots.add(r)
            continue
        if not (full[a] and full[b]):
            pivots.add(r)
        if len(members[a]) < len(members[b]):
            a, b = b, a
        for c in members[b]:  # relabel the smaller side
            comp[c] = a
            signs[c] *= flip
        members[a] += members[b]
        full[a] = full[a] or full[b]
    return pivots


def _boundary_ranks(faces_by_dim: list[list[int]], field: FieldSpec) -> list[int]:
    """ranks[i] = rank of the boundary map on the chains of
    ``faces_by_dim[i]``, for 2 <= i < len(faces_by_dim); the list has
    len(faces_by_dim) + 1 entries, 0 elsewhere.  A pair of complexes
    comes as the faces of its mapping cone (``_cone_faces``).

    The maps are reduced from the top down, with clearing: a face that is
    the pivot row of a reduced column of the map one dimension up is the
    largest face of a boundary z with d(z) = 0, so its own column is a
    combination of columns of smaller faces and is skipped.  That needs
    only d o d = 0, over any field, and the ranks are exact (Chen &
    Kerber, "Persistent homology computation with a twist", EuroCG 2011).

    Of the faces left, in ascending order, each whose largest boundary
    face is no pivot row yet claims it as an apparent pivot, unbuilt, and
    ``rank`` reduces the others.  Every echelon form of a map has the
    same set of pivot rows, so clearing skips the same faces.  The first
    map has nothing cleared; when faces are left over there and no row
    meets more than two of its columns (every ridge of a closed
    pseudomanifold), ``_two_entry_pivots`` gives its pivot rows instead."""
    ranks = [0] * (len(faces_by_dim) + 1)
    cleared: dict | set = {}
    for i in range(len(faces_by_dim) - 1, 1, -1):
        pivots: dict = {}
        rest = []
        for f in faces_by_dim[i]:
            if f in cleared:
                continue
            low = f ^ (f & -f)
            if low in pivots:
                rest.append(f)
            else:
                pivots[low] = f
        found = None
        if rest and i == len(faces_by_dim) - 1:
            found = _two_entry_pivots(faces_by_dim[i], field)
        if found is not None:
            ranks[i], cleared = len(found), found
            continue
        cleared = {}  # let the map above's pivots go before columns are built
        rank([_boundary_col_signed(f) for f in rest], field, pivots,
             _boundary_col_signed)
        ranks[i] = len(pivots)
        cleared = pivots
    return ranks


def reduced_betti_of_faces(faces_by_dim: list[list[int]],
                           field: FieldSpec) -> list[int]:
    """Reduced Betti numbers beta~_0..beta~_top of the complex whose faces
    are given as bitmasks, ``faces_by_dim[t]`` the t-faces for t = 0..top,
    top = len(faces_by_dim) - 1.  Empty complex convention: beta~_0 = -1.
    d_0 is the augmentation, of rank 1, and d_1 has rank n_0 less the
    number of components."""
    verts = faces_by_dim[0]
    if not verts:
        return [-1] + [0] * (len(faces_by_dim) - 1)
    edges = faces_by_dim[1] if len(faces_by_dim) > 1 else []
    ranks = _boundary_ranks(faces_by_dim, field)
    ranks[0], ranks[1] = 1, len(verts) - _components(verts, edges)
    return [len(fs) - ranks[i] - ranks[i + 1]
            for i, fs in enumerate(faces_by_dim)]


def _faces_by_dim(X: Complex) -> list[list[int]]:
    return [sorted(X.faces_of_dim(t)) for t in range(X.dim + 1)]


def betti(X: Complex, field: FieldSpec) -> BettiTable:
    """Betti numbers over ``field`` via exact boundary-map ranks."""
    if X.dim < 0:
        # the empty complex: reduced beta_0 = -1 by convention
        return BettiTable(field, (0,), (-1,))
    reduced = reduced_betti_of_faces(_faces_by_dim(X), field)
    beta = list(reduced)
    beta[0] += 1
    return BettiTable(field, tuple(beta), tuple(reduced))


def reduced_betti(X: Complex, field: FieldSpec) -> tuple[int, ...]:
    return betti(X, field).reduced


def _cone(K: list[list[int]], L: list[list[int]], w: int) -> list[list[int]]:
    """The faces by dimension of K u wL, for the faces by dimension K of a
    complex and L of a subcomplex, lists of equal length, and w the bit of
    a new vertex above theirs.  Its reduced Betti numbers are H_i(K, L)
    (Hatcher, "Algebraic Topology", 2002, section 2.1).  Level t holds the
    t-faces of K and w joined to the (t-1)-faces of L, whose empty face
    gives w alone; sorted levels give sorted levels."""
    return [k + [f | w for f in l] for k, l in zip(K + [[]], [[0]] + L)]


def _cone_faces(X: Complex, in_k, in_l) -> list[list[int]]:
    """``_cone`` of the subcomplexes K and L of X whose faces pass
    ``in_k`` and ``in_l``, with w = X.m."""
    fbd = _faces_by_dim(X)
    return _cone([[f for f in fs if in_k(f)] for fs in fbd],
                 [[f for f in fs if in_l(f)] for fs in fbd], 1 << X.m)


def relative_betti(X: Complex, A, B, field: FieldSpec) -> list[int]:
    """Betti numbers of the pair (X[B], X[A]) for vertex-id sets A <= B."""
    amask = mask_of(A)
    bmask = mask_of(B)
    if amask & ~bmask:
        raise InputError("relative_betti needs A to be a subset of B")
    cone = _cone_faces(X, lambda f: not f & ~bmask, lambda f: not f & ~amask)
    return reduced_betti_of_faces(cone, field)[:X.dim + 1]


def relative_betti_pair(X: Complex, Y: Complex, field: FieldSpec) -> list[int]:
    """Betti numbers of the pair (X, Y) for an arbitrary subcomplex Y of X
    (matched by vertex names); used where the subcomplex is not induced,
    e.g. a ball modulo its boundary."""
    yfacets = []  # the facets of Y as masks over X's ids
    for ft in Y.facets_as_names():
        try:
            fm = X.mask_from_names(ft)
        except InputError:  # a vertex name that X does not have
            fm = None
        if fm is None or not X.has_face(fm):
            raise InputError(f"pair subcomplex facet {ft} is not in the "
                             "ambient complex")
        yfacets.append(fm)
    yfaces = frozenset().union(*_levels(yfacets, Y.dim + 1))
    cone = _cone_faces(X, lambda f: True, yfaces.__contains__)
    return reduced_betti_of_faces(cone, field)[:X.dim + 1]


def _exactness_defects(fbd: list[list[int]], reduced: list[int], amask: int,
                       w: int, field: FieldSpec) -> list[int]:
    """s_i = beta~_i(X[A]) + beta_i(X, X[A]) - beta~_i(X) for i = 0..top,
    where ``fbd`` holds the faces by dimension of a nonempty complex X,
    ``reduced`` its reduced Betti numbers, A the vertices of ``amask`` and
    w the bit of a vertex above X's.  The exact sequence of the pair
    gives s_i = k_i + k_{i-1}, where k_i is the dimension of the kernel of
    H_i(X[A]) -> H_i(X) and k_{-1} = 0; in degree 0 the reduced numbers
    differ from the plain ones by 1 on both sides, and X[A] = {∅} has
    beta~_0 = -1.  So every k_i is 0 iff every s_i is."""
    nota = ~amask
    sub = [[f for f in fs if not f & nota] for fs in fbd]
    rel = reduced_betti_of_faces(_cone(fbd, sub, w), field)
    return [a + r - x for a, r, x in
            zip(reduced_betti_of_faces(sub, field), rel, reduced)]


def inclusion_injective(X: Complex, A, j: int, field: FieldSpec) -> bool:
    """Is H_j(X[A]) -> H_j(X) injective?  Its kernel has dimension
    k_j = s_j - s_{j-1} + ... +- s_0 in the terms of
    ``_exactness_defects``.  Those of degree <= j depend only on the
    (j+1)-skeleton, so only faces of dimension <= j + 1 are built."""
    if j < 0 or j > X.dim:
        raise InputError(f"index {j} out of range")
    fbd = [sorted(X.faces_of_dim(t)) for t in range(j + 2)]
    k = 0
    for s in _exactness_defects(fbd, reduced_betti_of_faces(fbd, field),
                                mask_of(A), 1 << X.m, field)[:j + 1]:
        k = s - k
    return k == 0


def is_homology_sphere(X: Complex, field: FieldSpec) -> bool:
    """Is X an F-homology sphere whose vertex links are F-homology
    spheres too (an F-homology manifold), the hypothesis of Alexander
    duality for its induced subcomplexes?  Recursive and exact: in
    dimension 0, exactly two points; in dimension d >= 1, a closed
    pseudomanifold with the Betti numbers of S^d over ``field`` whose
    every vertex link passes the same test in dimension d - 1.

    Up to dimension 3 no link complex is built, and below dimension 3
    the answer does not depend on the field.  A closed 1-pseudomanifold
    is a cycle.  In a closed pseudomanifold of dimension 2 or 3 each
    ridge lies in two facets, so each vertex link L is a closed weak
    2-pseudomanifold.  If L is strongly connected, splitting each of its
    vertices into one per component of the vertex's link in L gives a
    connected closed surface, so chi(L) <= 2, with equality only for
    S^2.  In dimension 2 that is X itself: it passes iff
    f_0 - f_1 + f_2 = 2, and then it is S^2, whose homology is that of
    S^2 over every field.  In dimension 3, with f_2 = 2 f_3, the links
    satisfy sum_v (chi(lk v) - 2) = -2 chi(X), which is 0 when X has the
    Betti numbers of S^3; so once every link is strongly connected (a
    closed pseudomanifold, tested on X's own facet masks), every link has
    chi = 2 and is S^2."""
    d = X.dim
    if d <= 0:
        return d == 0 and X.m == 2
    if not is_closed_pseudomanifold(X):
        return False
    if d <= 2:
        return d == 1 or 2 * X.m - len(X.facets) == 4  # f_1 = 3 f_2 / 2
    if betti(X, field).beta != (1,) + (0,) * (d - 1) + (1,):
        return False
    links = _vertex_links(X)
    if d == 3:
        return all(map(_closed_pseudomanifold, links))
    return all(is_homology_sphere(_rebuild(X.names, lk), field) for lk in links)


def orientable(X: Complex, field: FieldSpec) -> bool:
    """F-orientability of a closed connected pseudomanifold: beta_d = 1.
    Nothing lies above the facets, so beta_d = F - rank d_d, and every
    ridge lies in two facets, so ``_two_entry_pivots`` gives that rank.
    Below dimension 1 there is no d_d to rank."""
    if not is_closed_pseudomanifold(X):
        raise StructureError("orientability needs a closed connected pseudomanifold")
    if X.dim < 1:
        return betti(X, field).beta[X.dim] == 1
    return len(X.facets) - len(_two_entry_pivots(X.facet_masks, field)) == 1
