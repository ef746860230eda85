"""Facet-based abstract simplicial complexes and elementary constructions.

Faces are stored as integer bitmasks over a per-complex dense vertex-id
space; vertex names are arbitrary strings kept in a name table.  All
complexes are immutable after construction.
"""
from __future__ import annotations

import hashlib
import warnings
from functools import reduce
from itertools import chain, repeat
from operator import or_
from typing import Iterable, Iterator, Sequence


class ComplexError(Exception):
    """Base class for errors raised by this package."""


class InputError(ComplexError, ValueError):
    """Malformed construction input (duplicate vertices, bad tokens...)."""


class NotAFaceError(ComplexError, ValueError):
    """An operation was given a vertex set that is not a face."""


class StructureError(ComplexError, ValueError):
    """The complex lacks the structure an operation requires."""


class RangeError(ComplexError, ValueError):
    """A dimension/index parameter is out of range."""


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def ids_of(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


def popcount(mask: int) -> int:
    return mask.bit_count()


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _boundary_faces(faces: Iterable[int]) -> Iterator[int]:
    """Each of ``faces`` less one of its vertices, in turn."""
    for f in faces:
        g = f
        while g:
            low = g & -g
            yield f ^ low
            g ^= low


def _ridge_facets(facet_masks: Sequence[int]) -> dict[int, list[int]]:
    """Map each ridge (a facet mask minus one vertex) to the indices, in
    increasing order, of the facets that contain it, in the id space of
    the masks given.  The length of a ridge's list is its count: 1 on the
    boundary, 2 inside a weak pseudomanifold."""
    owners: dict[int, list[int]] = {}
    for i, fm in enumerate(facet_masks):
        for v in bits(fm):
            owners.setdefault(fm ^ (1 << v), []).append(i)
    return owners


def _dominated(masks: Sequence[int]) -> list[int]:
    """Indices, in increasing order, of the masks strictly contained in
    another mask of ``masks``.

    Masks of one popcount cannot contain each other, so a pure family
    returns ``[]`` at once.  Otherwise a mask is compared only with the
    masks that contain its lowest vertex, through a vertex index.
    """
    if len({m.bit_count() for m in masks}) <= 1:
        return []
    containing: dict[int, list[int]] = {}
    for b in set(masks):
        for v in bits(b):
            containing.setdefault(v, []).append(b)
    out = []
    for i, a in enumerate(masks):
        if a == 0:
            if any(masks):
                out.append(i)
            continue
        low = (a & -a).bit_length() - 1
        if any(b != a and a & b == a for b in containing[low]):
            out.append(i)
    return out


def _mask_from_names(ids: dict[str, int], names: Iterable[object]) -> int:
    """The mask of the vertices ``names`` under ``ids``, a map from each
    vertex name to its id; an unknown name is an ``InputError``."""
    mask = 0
    for n in names:
        v = ids.get(str(n))
        if v is None:
            raise InputError(f"unknown vertex name {n!r}")
        mask |= 1 << v
    return mask


def _renumbered(names: Sequence[str], kept: Sequence[Sequence[int]],
                added: Iterable[Sequence[object]]) -> tuple[list[str], list[tuple[int, ...]]]:
    """The names, and the facets as increasing id tuples in input order,
    of a facet list made of ``kept``, each a tuple of increasing ids into
    ``names`` (so listed by its names in id order), followed by ``added``,
    each a sequence of names, with ids given in first-occurrence order.

    This is the one numbering rule: ``Complex.from_facets`` applies it to
    its input.  Nothing is parsed and nothing is checked, so a caller that
    builds a complex from the result must know that no entry repeats or
    contains another.
    """
    order = dict.fromkeys(chain.from_iterable(kept))
    new_id = [0] * len(names)
    for i, v in enumerate(order):
        new_id[v] = i
    ids = {names[v]: i for i, v in enumerate(order)}
    renamed = map(map, repeat(new_id.__getitem__), kept)
    facets = list(map(tuple, map(sorted, renamed)))
    for f in added:
        facets.append(tuple(sorted([ids.setdefault(str(t), len(ids)) for t in f])))
    return list(ids), facets


class Complex:
    """An immutable finite abstract simplicial complex, stored by facets.

    ``names`` maps dense ids ``0..m-1`` to vertex names; every id occurs
    in some facet.  ``facets`` are pairwise inclusion-incomparable; the
    constructor checks this with ``_dominated``, which costs O(F) on a
    pure facet list and compares a facet only with the facets through
    its lowest vertex otherwise.  The private ``Complex._checked`` builds
    the same fields without these checks, for a caller that already knows
    its facets to be distinct, increasing id tuples of one size (so none
    contains another) over every id: ``moves.apply_bistellar`` uses it for
    the result of a checked move on a pure complex.  The complex whose only
    face is the empty set is represented with a single empty facet and
    ``dim == -1``.

    Two caches are built lazily and never change what a query returns:
    the face index ``_faces_by_dim``, and ``_moves``, the bistellar move
    state that ``moves.enumerate_bistellar`` and ``moves.stellation_search``
    list from.  ``moves.apply_bistellar``
    hands the move state on to the complex it returns and clears it here,
    so a chain of moves keeps one state alive.
    """

    __slots__ = ("names", "facets", "facet_masks", "dim", "m",
                 "_id_of", "_faces_by_dim", "_moves")

    def __init__(self, names: Sequence[str], facets: Sequence[Sequence[int]]):
        if not facets:
            raise InputError("a complex needs at least one facet (use Complex.empty())")
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("duplicate vertex names in name table")
        norm = sorted({tuple(sorted(set(f))) for f in facets})
        used = set().union(*norm)
        if used != set(range(len(names))):
            raise InputError("vertex ids must be exactly 0..m-1, each used in a facet")
        masks = [mask_of(f) for f in norm]
        bad = _dominated(masks)
        if bad:
            raise InputError(f"facet {norm[bad[0]]} is contained in another facet")
        self._fill(names, norm, masks)

    @classmethod
    def _checked(cls, names: Sequence[str],
                 facets: Sequence[Sequence[int]]) -> "Complex":
        """``Complex(names, facets)`` without its checks, for a caller
        that knows the facets to be distinct, increasing id tuples of one
        size that use every id 0..m-1, and the names to be distinct."""
        norm = sorted(facets)
        bit = [1 << i for i in range(len(names))].__getitem__
        X = object.__new__(cls)
        X._fill(tuple(names), norm, list(map(sum, map(map, repeat(bit), norm))))
        return X

    def _fill(self, names: tuple, norm: list, masks: list) -> None:
        self.names = names
        self.facets = tuple(norm)
        self.facet_masks = tuple(masks)
        self.m = len(names)
        self.dim = max(map(len, norm)) - 1
        self._id_of = dict(zip(names, range(self.m)))
        self._faces_by_dim = None
        self._moves = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def empty() -> "Complex":
        """The complex {∅}: one empty facet, dimension -1."""
        return Complex((), ((),))

    @staticmethod
    def from_facets(facet_list: Sequence[Sequence[object]]) -> "Complex":
        """Build a complex from vertex-name lists, one facet per entry.

        Names are assigned dense ids in first-occurrence order
        (``_renumbered``).  Entries dominated by another entry are dropped
        with a warning, and the ids left unused are compacted
        (``_rebuild``); a repeated vertex inside one entry is an error.
        """
        if not facet_list:
            raise InputError("empty facet list")
        entries = [[str(t) for t in entry] for entry in facet_list]
        for toks in entries:
            if not toks:
                raise InputError("empty facet in input")
            if len(set(toks)) != len(toks):
                raise InputError(f"duplicate vertex within facet {toks}")
        names, raw = _renumbered((), (), entries)
        keep = _maximal(map(mask_of, raw))
        if len(keep) == len(raw):
            return Complex(names, raw)
        warnings.warn(f"dropped {len(raw) - len(keep)} inclusion-dominated "
                      "input facet(s)", stacklevel=2)
        return _rebuild(names, keep)

    # -- basic queries ----------------------------------------------------

    def id_of(self, name: str) -> int:
        try:
            return self._id_of[str(name)]
        except KeyError:
            raise InputError(f"unknown vertex name {name!r}") from None

    def name_of(self, vid: int) -> str:
        return self.names[vid]

    def mask_from_names(self, names: Iterable[object]) -> int:
        return _mask_from_names(self._id_of, names)

    def names_of_mask(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in bits(mask))

    def _index(self) -> list[frozenset[int]]:
        """The faces by size: slot t+1 holds the t-faces, slot 0 {∅}.
        From the top level down, each level is its facets and the
        boundary faces of the level above: sum_k k f_k set adds, where
        the submasks of every facet would cost F 2^(d+1).  Lazy and
        idempotent, so safe to race (the last assignment wins with an
        identical value)."""
        idx = self._faces_by_dim
        if idx is None:
            idx = [[] for _ in range(self.dim + 2)]
            for fm in self.facet_masks:
                idx[fm.bit_count()].append(fm)
            above = ()
            for k in range(self.dim + 1, -1, -1):
                idx[k] = above = frozenset(chain(idx[k], _boundary_faces(above)))
            self._faces_by_dim = idx
        return idx

    def faces_of_dim(self, t: int) -> frozenset[int]:
        """All faces of dimension ``t`` as bitmasks (t = -1 gives {0})."""
        if t < -1 or t > self.dim:
            return frozenset()
        return self._index()[t + 1]

    def n_faces(self, t: int) -> int:
        return len(self.faces_of_dim(t))

    def has_face(self, face: Iterable[int] | int) -> bool:
        mask = face if isinstance(face, int) else mask_of(face)
        return mask in self._index()[popcount(mask) - 1 + 1] if popcount(mask) <= self.dim + 1 else False

    def facets_as_names(self) -> list[tuple[str, ...]]:
        return [tuple(self.names[v] for v in f) for f in self.facets]

    def facet_name_set(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(f) for f in self.facets_as_names())

    def is_pure(self) -> bool:
        return len(set(map(len, self.facets))) == 1

    def __eq__(self, other: object) -> bool:
        """Equality as labelled complexes: identical facet name sets."""
        if not isinstance(other, Complex):
            return NotImplemented
        return self.facet_name_set() == other.facet_name_set()

    def __hash__(self) -> int:
        return hash(self.facet_name_set())

    def __repr__(self) -> str:
        return f"Complex(m={self.m}, dim={self.dim}, facets={len(self.facets)})"

    def __getstate__(self):
        """Copies and pickles leave the move state behind: a move mutates
        it, so two complexes must never share one."""
        return None, {**{s: getattr(self, s) for s in self.__slots__},
                      "_moves": None}


# -- elementary constructions ---------------------------------------------


def _rebuild(names: Sequence[str], facet_masks: Iterable[int]) -> Complex:
    """New complex from facet masks over the ids of ``names``, keeping
    the names of the ids used and compacting them in increasing order."""
    facet_masks = list(facet_masks)
    if not facet_masks:
        raise InputError("no facets")
    if facet_masks == [0]:
        return Complex.empty()
    old_ids = list(bits(reduce(or_, facet_masks)))
    remap = {v: i for i, v in enumerate(old_ids)}
    facets = [tuple(remap[v] for v in bits(fm)) for fm in facet_masks]
    return Complex([names[v] for v in old_ids], facets)


def _maximal(masks: Iterable[int]) -> list[int]:
    """The distinct masks contained in no other mask, in first-occurrence
    order (``_dominated`` on the de-duplicated masks)."""
    ms = list(dict.fromkeys(masks))
    dominated = set(_dominated(ms))
    return [a for i, a in enumerate(ms) if i not in dominated]


def skeleton(X: Complex, t: int) -> Complex:
    """Subcomplex of all faces of dimension <= t."""
    if t < 0 or t > X.dim:
        raise RangeError(f"skeleton dimension {t} out of range 0..{X.dim}")
    if t == X.dim:
        return X
    masks = set()
    for s in range(t + 1):
        masks |= X.faces_of_dim(s)
    return _rebuild(X.names, _maximal(masks))


def link(X: Complex, face: Iterable[int]) -> Complex:
    fm = mask_of(face)
    if not X.has_face(fm):
        raise NotAFaceError(f"{X.names_of_mask(fm)} is not a face")
    lk = _maximal(f & ~fm for f in X.facet_masks if f & fm == fm)
    return _rebuild(X.names, lk)


def star(X: Complex, face: Iterable[int]) -> Complex:
    fm = mask_of(face)
    if not X.has_face(fm):
        raise NotAFaceError(f"{X.names_of_mask(fm)} is not a face")
    return _rebuild(X.names, [f for f in X.facet_masks if f & fm == fm])


def antistar(X: Complex, x: int) -> Complex:
    if x < 0 or x >= X.m:
        raise NotAFaceError(f"no vertex id {x}")
    xm = 1 << x
    return _rebuild(X.names, _maximal(f & ~xm for f in X.facet_masks))


def induced(X: Complex, vertex_ids: Iterable[int]) -> Complex:
    """Induced subcomplex X[A]; ids outside V(X) are ignored."""
    am = mask_of(v for v in vertex_ids if 0 <= v < X.m)
    return _rebuild(X.names, _maximal(f & am for f in X.facet_masks))


def join(X: Complex, Y: Complex) -> Complex:
    overlap = set(X.names) & set(Y.names)
    if overlap:
        raise InputError(f"join requires disjoint vertex names; shared: {sorted(overlap)}")
    facets = [fx + tuple(n for n in fy)
              for fx in X.facets_as_names() for fy in Y.facets_as_names()]
    if all(not f for f in facets):
        return Complex.empty()
    return Complex.from_facets([f for f in facets if f] or [()])


def boundary(X: Complex) -> Complex:
    """Pure subcomplex of (d-1)-faces lying in exactly one facet."""
    if not X.is_pure():
        raise StructureError("boundary needs a pure complex")
    if X.dim <= -1:
        return Complex.empty()
    owners = _ridge_facets(X.facet_masks)
    bad = next((s for s, o in owners.items() if len(o) > 2), None)
    if bad is not None:
        raise StructureError(
            f"not a weak pseudomanifold: face {X.names_of_mask(bad)} lies in "
            f"{len(owners[bad])} facets")
    bfaces = [s for s, o in owners.items() if len(o) == 1]
    if not bfaces:
        return Complex.empty()
    return _rebuild(X.names, bfaces)


def _across(masks: Sequence[int]) -> list[dict[int, int]] | None:
    """across[i][v] = j when facets i and j share the ridge masks[i] - v,
    each row in increasing v; None when some ridge lies in three or more
    facets."""
    across: list[dict[int, int]] = []
    first: dict = {}  # ridge -> (facet, vertex) while one facet holds it
    for i, fm in enumerate(masks):
        across.append({})
        for v in bits(fm):
            o = first.setdefault(fm ^ (1 << v), (i, v))
            if o is None:
                return None
            across[i][v] = o[0]  # i itself until a second facet comes
            if o[0] != i:
                across[o[0]][o[1]] = i
                first[fm ^ (1 << v)] = None
    for i, v in filter(None, first.values()):
        del across[i][v]
    return across


def _walk(masks: Sequence[int],
          across: list[dict[int, int]]) -> list[tuple[int, int, int, int]] | None:
    """The breadth-first walk across ridges from facet 0, neighbours taken
    in vertex order: (i, v, j, w) when facet j is first reached from facet
    i through the ridge masks[i] - v and w is the vertex j adds.  None
    unless the walk reaches every facet."""
    walk, queue, reached = [], [0], {0}
    for i in queue:
        for v, j in across[i].items():
            if j not in reached:
                reached.add(j)
                queue.append(j)
                walk.append((i, v, j, (masks[j] & ~masks[i]).bit_length() - 1))
    return walk if len(queue) == len(masks) else None


def _face_counts(masks: Sequence[int]) -> dict[int, int]:
    """face -> number of the facets ``masks`` that contain it."""
    count: dict[int, int] = {}
    for s in chain.from_iterable(map(submasks, masks)):
        count[s] = count.get(s, 0) + 1
    return count


class DualGraph:
    """The dual graph of a complex X: its nodes are the facets, and facets
    i and j are joined when they share a ridge.  ``across`` is ``_across``
    of the facets (None when X is not pure or a ridge lies in three or
    more facets) and ``walk`` is ``_walk`` from facet 0 (None unless across
    is set and the walk reaches every facet).  ``dual_graph``, the
    pseudomanifold tests and ``_automorphisms`` read them."""

    __slots__ = ("X", "n", "across", "walk")

    def __init__(self, X: Complex):
        self.X, self.n = X, len(X.facet_masks)
        self.across = self.walk = None
        if X.is_pure():
            self.across = _across(X.facet_masks)
            if self.across is not None:
                self.walk = _walk(X.facet_masks, self.across)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, row in enumerate(self.across)
                         for j in row.values() if i < j)

    def is_connected(self) -> bool:
        return self.walk is not None

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == self.n - 1

    def is_path(self) -> bool:
        return self.is_tree() and all(len(row) <= 2 for row in self.across)


def dual_graph(X: Complex) -> DualGraph:
    if not X.is_pure():
        raise StructureError("dual graph needs a pure complex")
    G = DualGraph(X)
    if G.across is None:
        raise StructureError("not a weak pseudomanifold")
    return G


def is_weak_pseudomanifold(X: Complex) -> bool:
    return DualGraph(X).across is not None


def is_pseudomanifold(X: Complex) -> bool:
    return DualGraph(X).is_connected()


def is_closed_pseudomanifold(X: Complex) -> bool:
    """Pseudomanifold with every (d-1)-face in exactly two facets, from
    one ridge map.  A single point counts, as its boundary is {∅}."""
    return X.is_pure() and _closed_pseudomanifold(X.facet_masks)


def _closed_pseudomanifold(facet_masks: Sequence[int]) -> bool:
    """``is_closed_pseudomanifold`` of the pure complex with these facets:
    every facet has a neighbour across each of its ridges, and the walk
    reaches every facet.  In dimension 0 the one ridge is ∅, which one or
    two points may hold."""
    across = _across(facet_masks)
    if across is None:
        return False
    n = facet_masks[0].bit_count()
    return n == 1 or (all(len(row) == n for row in across)
                      and _walk(facet_masks, across) is not None)


def _components(vert_masks, edge_masks) -> int:
    """Number of connected components of a graph given as bitmasks."""
    parent = {v: v for v in vert_masks}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    n = len(parent)
    for e in edge_masks:
        lo = e & -e
        ra, rb = find(lo), find(e ^ lo)
        if ra != rb:
            parent[ra] = rb
            n -= 1
    return n


def _map_jobs(fn, tasks: list, jobs: int) -> list:
    """[fn(t) for t in tasks], in a pool of ``jobs`` worker processes when
    jobs > 1.  ``fn`` and the tasks are pickled, so fn is a module-level
    function.  The pool uses the platform's default start method, under
    which a calling script with jobs > 1 needs a ``__main__`` guard
    unless that method is ``fork`` (the public callers' docstrings say
    so); forcing ``spawn`` would make the guard necessary everywhere."""
    if jobs <= 1:
        return [fn(t) for t in tasks]
    from multiprocessing import Pool
    with Pool(jobs) as pool:
        return pool.map(fn, tasks)


def is_connected(X: Complex) -> bool:
    return X.m <= 1 or _components(X.faces_of_dim(0), X.faces_of_dim(1)) == 1


def neighbourliness(X: Complex) -> int:
    """Largest l with f_{l-1} = C(m, l); at least 1, at most dim+1."""
    from math import comb
    l = 0
    while l < X.dim + 1 and X.n_faces(l) == comb(X.m, l + 1):
        l += 1
    return l


def connected_sum(X: Complex, Y: Complex, sigma_x: Iterable[int],
                  sigma_y: Iterable[int], matching: dict) -> Complex:
    """Glue X and Y by identifying sigma_y with sigma_x through ``matching``.

    ``matching`` maps vertex names of sigma_y to vertex names of sigma_x.
    When the sigmas are facets of X and Y they are removed (the usual
    connected sum of closed pseudomanifolds); when they are boundary
    facets they are kept and the result is the boundary connected sum.
    Unmatched Y names must not collide with X names.
    """
    sx = mask_of(sigma_x)
    sy = mask_of(sigma_y)
    if popcount(sx) != popcount(sy):
        raise InputError("gluing faces must have equal dimension")
    x_facet = sx in X.facet_masks
    y_facet = sy in Y.facet_masks
    if x_facet != y_facet:
        raise InputError("gluing faces must both be facets or both boundary faces")
    if not x_facet:
        if sx not in boundary(X).facet_masks or sy not in boundary(Y).facet_masks:
            raise InputError("gluing faces must be facets of the complexes or of their boundaries")
    matching = {str(a): str(b) for a, b in matching.items()}
    sy_names = set(Y.names_of_mask(sy))
    sx_names = set(X.names_of_mask(sx))
    if set(matching) != sy_names or set(matching.values()) != sx_names:
        raise InputError("matching must biject the gluing face vertex names")
    xf = [f for f in X.facets_as_names() if mask_of(X.id_of(n) for n in f) != sx]
    yf = []
    for f in Y.facets_as_names():
        if mask_of(Y.id_of(n) for n in f) == sy:
            continue
        yf.append(tuple(matching.get(n, n) for n in f))
    rest_y = {n for f in yf for n in f} - set(matching.values()) - set(matching)
    clash = rest_y & set(X.names)
    if clash:
        raise InputError(f"unmatched Y vertex names collide with X: {sorted(clash)}")
    return Complex.from_facets(xf + yf)


# -- facet file format ------------------------------------------------------


def read_text(path) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 are an
    input error, not a crash."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} "
                         f"at byte {exc.start}") from None


def load_facets(path) -> Complex:
    """Read the facet file format: '#' comments, one facet per line."""
    return parse_facets(read_text(path))


def _facet_lines(text: str) -> list[list[str]]:
    """The token lists of the facet text format: one facet per line,
    '#' starts a comment, blank lines are skipped."""
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def parse_facets(text: str) -> Complex:
    facets = _facet_lines(text)
    if not facets:
        raise InputError("no facets in input")
    return Complex.from_facets(facets)


def save_facets(X: Complex, path, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_facets(X, header))


def format_facets(X: Complex, header: str | None = None) -> str:
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    for f in sorted(tuple(sorted(ft)) for ft in X.facets_as_names()):
        lines.append(" ".join(f))
    return "\n".join(lines) + "\n"


def facet_hash(X: Complex) -> str:
    """Order-insensitive digest: sorted facets of sorted vertex names,
    newline-joined, SHA-256 hex."""
    rows = sorted(" ".join(sorted(f)) for f in X.facets_as_names())
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


# -- isomorphism -------------------------------------------------------------


def _automorphisms(X: Complex, budget: float) -> list[tuple[int, ...]] | None:
    """Aut(X) as vertex maps (perm[v] is the image of vertex v) when X is
    a pure, strongly connected weak pseudomanifold other than {∅}; None
    for any other X, or once the search has cost more than ``budget``
    steps.

    The breadth-first walk ``_walk`` of X reaches every facet j from a
    facet i through the ridge i - v, and j adds one vertex w.  An
    automorphism g carries that ridge to the ridge of g(i) opposite g(v),
    so g(j) and g(w) follow from g(i) and g on facet 0 (McKay & Piperno,
    "Practical graph isomorphism, II", 2014).  The search fixes
    the base flag, facet 0 with its vertices in id order, and tries every
    flag of X (a facet t with an order of its vertices) as its image: t
    only when its faces lie in as many facets as those of facet 0, and
    the order built a vertex at a time, dropped as soon as a face of
    facet 0 and its image lie in different numbers of facets.  Each full
    flag is propagated along the walk until the first conflict, and a map
    is kept only when an exact check shows it carries the facet set of X
    onto itself.  So every automorphism is found once.

    Steps: F * 2^(d+1) for the face counts, one per candidate vertex of a
    flag and one per face it is compared on when it fits, one per ridge
    crossed and F per exact check."""
    G = DualGraph(X)
    walk, across = G.walk, G.across
    if walk is None or X.dim < 0:
        return None
    masks = X.facet_masks
    n = X.dim + 1
    steps = len(masks) << n
    if steps > budget:
        return None
    count = _face_counts(masks)
    kind = sorted(count[s] for s in submasks(masks[0]))
    base = ids_of(masks[0])
    facets = set(masks)
    found = []
    for t, fm in enumerate(masks):
        if sorted(count[s] for s in submasks(fm)) != kind:
            continue
        # partial orders: images of base[:k], the faces of facet 0 on
        # base[:k], and their images, in matching positions
        stack = [((), [0], [0])]
        while stack:
            if steps > budget:
                return None
            order, faces, images = stack.pop()
            if len(order) < n:
                b = 1 << base[len(order)]
                for w in bits(fm & ~mask_of(order)):
                    wb = 1 << w
                    steps += 1
                    if all(count[f | b] == count[g | wb]
                           for f, g in zip(faces, images)):
                        steps += len(faces)
                        stack.append((order + (w,), faces + [f | b for f in faces],
                                      images + [g | wb for g in images]))
                continue
            perm = [-1] * X.m
            for v, w in zip(base, order):
                perm[v] = w
            image = [-1] * len(masks)  # facet index -> the index of its image
            image[0] = t
            used = fm
            for i, v, j, w in walk:
                steps += 1
                gi = image[i]
                gj = across[gi].get(perm[v])
                if gj is None:
                    break
                new = masks[gj] & ~masks[gi]
                if perm[w] < 0:
                    if used & new:
                        break
                    used |= new
                    perm[w] = new.bit_length() - 1
                elif 1 << perm[w] != new:
                    break
                image[j] = gj
            else:
                steps += len(masks)
                bit = [1 << w for w in perm]
                if {reduce(or_, map(bit.__getitem__, f)) for f in X.facets} == facets:
                    found.append(tuple(perm))
    return found


def are_isomorphic(X: Complex, Y: Complex) -> bool:
    """Decide isomorphism of any two complexes by individualisation and
    refinement (McKay & Piperno, J. Symbolic Comput. 60, 2014), on an
    explicit stack.

    The vertices of X (ids 0..m-1) and of Y (ids m..2m-1) are coloured
    together, first by their degrees.  Each round of refinement gives a
    facet the multiset of its vertices' colours, and a vertex its colour
    with the multiset of its facets' colours, numbered by first
    occurrence, until the number of colours stops growing or reaches m,
    where every cell holds one vertex of each side unless the sides
    differ; so the colours of the two sides compare, and a colouring
    whose sides differ as multisets is dropped.  Otherwise the
    first vertex of the smallest cell with two vertices of X or more is
    given a new colour with each vertex of Y in its cell in turn.  The map
    of a discrete colouring is accepted only if it carries the facets of X
    exactly onto those of Y.  Refinement alone settles trees and most
    complexes; on inputs it cannot split, such as regular graphs, the
    search stays exponential, as graph isomorphism is in general."""
    if (X.m, X.dim, sorted(map(len, X.facets))) != (Y.m, Y.dim, sorted(map(len, Y.facets))):
        return False
    m = X.m
    facets = list(X.facets) + [tuple(v + m for v in f) for f in Y.facets]
    star: list[list[int]] = [[] for _ in range(2 * m)]
    for i, f in enumerate(facets):
        for v in f:
            star[v].append(i)
    target = set(Y.facet_masks)
    stack = [[len(s) for s in star]]
    while stack:
        colour = stack.pop()
        n = len(set(colour))
        while n < m:
            fids: dict[tuple, int] = {}
            fc = [fids.setdefault(tuple(sorted(map(colour.__getitem__, f))), len(fids))
                  for f in facets]
            ids: dict[tuple, int] = {}
            colour = [ids.setdefault((c, tuple(sorted(map(fc.__getitem__, s)))), len(ids))
                      for c, s in zip(colour, star)]
            if len(ids) == n:
                break
            n = len(ids)
        if sorted(colour[:m]) != sorted(colour[m:]):
            continue
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colour):
            cells.setdefault(c, []).append(v)  # the X half of a cell first
        split = [cell for cell in cells.values() if len(cell) > 2]
        if split:
            cell = min(split, key=len)
            for y in reversed(cell[len(cell) // 2:]):
                branch = colour.copy()
                branch[cell[0]] = branch[y] = n
                stack.append(branch)
            continue
        image = [1 << (y - m) for _, y in sorted(cells.values())]  # by X vertex
        if {reduce(or_, map(image.__getitem__, f), 0) for f in X.facets} == target:
            return True
    return False
