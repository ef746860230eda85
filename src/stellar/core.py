"""Facet-based abstract simplicial complexes and elementary constructions.

Faces are stored as integer bitmasks over a per-complex dense vertex-id
space; vertex names are arbitrary strings kept in a name table.  All
complexes are immutable after construction.
"""
from __future__ import annotations

import hashlib
import os
import warnings
from collections import Counter
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


def _levels(facet_masks: Iterable[int], top: int) -> list[frozenset[int]]:
    """The faces of the complex with these facets, of at most ``top``
    vertices each, by size: slot k holds the faces of k vertices, slot 0
    {∅}.  From the top level down, each level is its facets and the
    boundary faces of the level above: sum_k k f_k set adds, where the
    submasks of every facet would cost F 2^(d+1)."""
    idx: list = [[] for _ in range(top + 1)]
    for fm in facet_masks:
        idx[fm.bit_count()].append(fm)
    above = ()
    for k in range(top, -1, -1):
        idx[k] = above = frozenset(chain(idx[k], _boundary_faces(above)))
    return idx


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


class Complex:
    """An immutable finite abstract simplicial complex, stored by facets.

    ``names`` maps dense ids ``0..m-1`` to vertex names; every id occurs
    in some facet.  ``facets`` are pairwise inclusion-incomparable; the
    constructor checks this with ``_dominated``, which costs O(F) on a
    pure facet list and compares a facet only with the facets through
    its lowest vertex otherwise.  The private ``Complex._checked`` builds
    the same fields without these checks, for a caller that already knows
    its facets to be distinct, increasing id tuples, none inside another,
    over every id: ``moves.apply_bistellar`` uses it for the result of a
    checked move, which keeps the ids of the complex it came from.  The
    complex whose only face is the empty set is represented with a single
    empty facet and ``dim == -1``.

    Two caches are built lazily and never change what a query returns:
    the face index ``_faces_by_dim``, and ``_moves``, the complex's own
    full bistellar move state, which ``moves.enumerate_bistellar`` builds
    and ``moves.apply_bistellar`` hands on to the complex it returns,
    clearing it here, so each state has one holder.
    ``moves.stellation_search`` keeps its own and never touches this slot.
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
        that knows the facets to be distinct increasing id tuples over
        every id 0..m-1, none inside another, and the names distinct."""
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

        Names are assigned dense ids in first-occurrence order; no other
        constructor numbers names.  Entries dominated by another entry are
        dropped with a warning, and the ids left unused are compacted
        (``_rebuild``); a repeated vertex inside one entry is an error.
        """
        if not facet_list:
            raise InputError("empty facet list")
        ids: dict[str, int] = {}
        raw = []
        for entry in facet_list:
            toks = [str(t) for t in entry]
            if not toks:
                raise InputError("empty facet in input")
            if len(set(toks)) != len(toks):
                raise InputError(f"duplicate vertex within facet {toks}")
            raw.append(tuple(sorted([ids.setdefault(t, len(ids)) for t in toks])))
        keep = _maximal(map(mask_of, raw))
        if len(keep) == len(raw):
            return Complex(list(ids), raw)
        warnings.warn(f"dropped {len(raw) - len(keep)} inclusion-dominated "
                      "input facet(s)", stacklevel=2)
        return _rebuild(list(ids), keep)

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
        """The faces by size, ``_levels`` of the facets: slot t+1 holds
        the t-faces, slot 0 {∅}.  Lazy and idempotent, so safe to race
        (the last assignment wins with an identical value)."""
        idx = self._faces_by_dim
        if idx is None:
            idx = self._faces_by_dim = _levels(self.facet_masks, self.dim + 1)
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
        return mask in self._index()[mask.bit_count()] if mask.bit_count() <= self.dim + 1 else False

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
    # distinct facets less one face are never nested: none is dropped
    lk = [f & ~fm for f in X.facet_masks if f & fm == fm]
    if not lk:
        raise NotAFaceError(f"{X.names_of_mask(fm)} is not a face")
    return _rebuild(X.names, lk)


def _vertex_links(X: Complex) -> list[list[int]]:
    """For each vertex v, the facets of its link as masks in X's ids, in
    X's facet order, from one pass over the facets:
    ``_rebuild(X.names, _vertex_links(X)[v])`` is ``link(X, (v,))``."""
    links: list[list[int]] = [[] for _ in range(X.m)]
    for f, fm in zip(X.facets, X.facet_masks):
        for v in f:
            links[v].append(fm ^ 1 << v)
    return links


def star(X: Complex, face: Iterable[int]) -> Complex:
    fm = mask_of(face)
    st = [f for f in X.facet_masks if f & fm == fm]
    if not st:
        raise NotAFaceError(f"{X.names_of_mask(fm)} is not a face")
    return _rebuild(X.names, st)


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


def _face_counts(masks: Sequence[int]) -> dict[int, int]:
    """face -> number of the facets ``masks`` that contain it."""
    count: dict[int, int] = {}
    for s in chain.from_iterable(map(submasks, masks)):
        count[s] = count.get(s, 0) + 1
    return count


class DualGraph:
    """The dual graph of a complex X: its nodes are the ``n`` facets, and
    facets i and j are joined when they share a ridge.  ``edges`` is the
    set of owner pairs (i, j), i < j, of ``_ridge_facets`` (None when X is
    not pure or a ridge lies in three or more facets), and ``connected``
    is whether those pairs reach every facet (``_reaches_all``).
    ``dual_graph`` and the pseudomanifold tests read them."""

    __slots__ = ("n", "edges", "connected")

    def __init__(self, X: Complex):
        self.n = len(X.facet_masks)
        self.edges, self.connected = None, False
        if X.is_pure():
            owners = _ridge_facets(X.facet_masks).values()
            if all(len(o) <= 2 for o in owners):
                self.edges = frozenset(tuple(o) for o in owners if len(o) == 2)
                self.connected = _reaches_all(self.n, self.edges)

    def is_connected(self) -> bool:
        return self.connected

    def is_tree(self) -> bool:
        return self.connected and len(self.edges) == self.n - 1

    def is_path(self) -> bool:
        return self.is_tree() and max(
            Counter(chain.from_iterable(self.edges)).values(), default=0) <= 2


def _reaches_all(n: int, pairs: Iterable[Sequence[int]]) -> bool:
    """Whether the edges ``pairs`` join the nodes 0..n-1, n >= 1, into one
    component: a breadth-first search from node 0."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
    queue, seen = [0], {0}
    for i in queue:
        new = set(adj[i]) - seen
        seen |= new
        queue += new
    return len(queue) == n


def dual_graph(X: Complex) -> DualGraph:
    if not X.is_pure():
        raise StructureError("dual graph needs a pure complex")
    G = DualGraph(X)
    if G.edges is None:
        raise StructureError("not a weak pseudomanifold")
    return G


def is_weak_pseudomanifold(X: Complex) -> bool:
    return DualGraph(X).edges is not None


def is_pseudomanifold(X: Complex) -> bool:
    return DualGraph(X).connected


def is_closed_pseudomanifold(X: Complex) -> bool:
    """Pseudomanifold with every (d-1)-face in exactly two facets, from
    one ridge map.  A single point counts, as its boundary is {∅}."""
    return X.is_pure() and _closed_pseudomanifold(X.facet_masks)


def _closed_pseudomanifold(facet_masks: Sequence[int]) -> bool:
    """``is_closed_pseudomanifold`` of the pure complex with these facets:
    every ridge has exactly two owners in ``_ridge_facets``, and the owner
    pairs reach every facet.  In dimension 0 the one ridge is ∅, which one
    or two points may hold."""
    if facet_masks[0].bit_count() == 1:
        return len(facet_masks) <= 2
    owners = _ridge_facets(facet_masks).values()
    return all(len(o) == 2 for o in owners) and \
        _reaches_all(len(facet_masks), owners)


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


def _worker_count(jobs: int) -> int:
    """``jobs`` capped at ``os.cpu_count()`` (1 if unknown); below 1, RangeError."""
    if jobs < 1:
        raise RangeError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _map_jobs(fn, tasks: list, jobs: int) -> list:
    """[fn(t) for t in tasks], in a pool of ``jobs`` worker processes, or
    one per task if there are fewer, when jobs > 1 and there are two tasks
    or more.  ``fn`` and the tasks are pickled, so fn is a module-level
    function.  The pool uses the platform's default start method, under
    which a calling script with jobs > 1 needs a ``__main__`` guard
    unless that method is ``fork`` (the public callers' docstrings say
    so); forcing ``spawn`` would make the guard necessary everywhere."""
    if jobs <= 1 or len(tasks) < 2:
        return [fn(t) for t in tasks]
    from multiprocessing import Pool
    with Pool(min(jobs, len(tasks))) as pool:
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
    if sx.bit_count() != sy.bit_count():
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


def _start(X: Complex, Y: Complex, fixed: Sequence[tuple[int, int]]) -> tuple:
    """The facets of X ⊔ Y (Y's vertices shifted by X.m), each vertex's
    star as the indices of its facets, and the first colouring: the
    degree of each vertex, but a colour of its own for each pair of
    ``fixed``, on its vertex of X and its vertex of Y."""
    facets = list(X.facets) + [tuple(v + X.m for v in f) for f in Y.facets]
    star: list[list[int]] = [[] for _ in range(X.m + Y.m)]
    for i, f in enumerate(facets):
        for v in f:
            star[v].append(i)
    colour = [len(s) for s in star]
    for k, (x, y) in enumerate(fixed):
        colour[x] = colour[y + X.m] = -1 - k  # degrees are never negative
    return facets, star, colour


def _refined(facets: list, star: list, colour: list[int]) -> tuple[list[int], int]:
    """The refinement of a colouring of X ⊔ Y (``_start``), and its number
    of colours.  Each round gives a facet the multiset of its vertices'
    colours, and a vertex its colour with the multiset of its facets'
    colours, numbered by first occurrence, until the number of colours
    stops growing or reaches m = |V(X)|, where every cell holds one vertex
    of each side unless the sides differ.  The rounds read only colours
    and incidences, so a map from X onto Y that keeps the colours keeps
    the refined ones."""
    m = len(star) // 2
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
    return colour, n


def _isomorphism(X: Complex, Y: Complex,
                 fixed: Sequence[tuple[int, int]] = ()) -> list[int] | None:
    """An isomorphism from X onto Y that maps x to y for each pair (x, y)
    of ``fixed``, as the list of the images of X's vertices, or None when
    there is none: individualisation and refinement (McKay & Piperno,
    J. Symbolic Comput. 60, 2014) on an explicit stack.

    A colouring of X ⊔ Y, the first from ``_start``, is ``_refined``, and
    dropped if its sides differ as multisets.  Otherwise the first vertex
    of the smallest cell with two vertices of X or more is given a new
    colour with each vertex of Y in its cell in turn; an isomorphism that
    keeps the colouring keeps one of these branches, so none is missed.
    The map of a discrete colouring is returned only if it carries the
    facets of X exactly onto those of Y.  On inputs that refinement
    cannot split, such as regular graphs, the search stays exponential,
    as graph isomorphism is in general."""
    if (X.m, X.dim, sorted(map(len, X.facets))) != (Y.m, Y.dim, sorted(map(len, Y.facets))):
        return None
    m = X.m
    facets, star, colour = _start(X, Y, fixed)
    target = set(Y.facet_masks)
    stack = [colour]
    while stack:
        colour, n = _refined(facets, star, stack.pop())
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
        image = [y - m for _, y in sorted(cells.values())]  # by X vertex
        bit = [1 << y for y in image]
        if {reduce(or_, map(bit.__getitem__, f), 0) for f in X.facets} == target:
            return image
    return None


def are_isomorphic(X: Complex, Y: Complex) -> bool:
    """Whether some vertex bijection carries the facets of X onto those of
    Y (``_isomorphism``), for any two complexes."""
    return _isomorphism(X, Y) is not None


def _invariant(X: Complex) -> tuple:
    """X's vertex count, dimension, facet sizes and vertex degrees, the
    last two sorted: equal on isomorphic complexes."""
    degree = map(len, _vertex_links(X))
    return X.m, X.dim, tuple(sorted(map(len, X.facets))), tuple(sorted(degree))


def _classes(complexes: Sequence[Complex]) -> list[tuple[int, list[int]]]:
    """For each complex of the list, the index of its representative, the
    first complex of the list that ``_isomorphism`` maps onto it, with
    that map.  Each complex is compared only with the representatives
    before it of the same ``_invariant``, and one that matches none
    represents itself, under the identity."""
    reps: dict[tuple, list[int]] = {}
    out = []
    for i, Y in enumerate(complexes):
        bucket = reps.setdefault(_invariant(Y), [])
        for r in bucket:
            image = _isomorphism(complexes[r], Y)
            if image is not None:
                out.append((r, image))
                break
        else:
            bucket.append(i)
            out.append((i, list(range(Y.m))))
    return out


def _orbit(v: int, gens: list[list[int]]) -> list[int]:
    """The orbit of vertex v under the group that the maps ``gens`` generate."""
    orbit = [v]
    for u in orbit:
        orbit += {g[u] for g in gens}.difference(orbit)
    return orbit


def _automorphism_generators(X: Complex) -> list[list[int]]:
    """Generators of Aut(X) as vertex maps, [] when it is trivial, for any
    complex X.  Level i refines X ⊔ X with 0..i-1 fixed, and the levels
    stop at the first whose X side is discrete, as only the identity keeps
    its colours; an automorphism that fixes 0..i-1 sends i into i's cell.
    From the deepest level up, each y in the cell that the generators
    found so far do not send i to is tried by ``_isomorphism`` with
    0..i-1 fixed and i sent to y.  Every map it finds passes the exact
    facet check, and the generators found from level i down generate the
    stabiliser of 0..i-1 (Seress, Permutation Group Algorithms, CUP 2003),
    so |Aut(X)| is the product of the orbit lengths."""
    cells = []
    for i in range(X.m):
        colour, n = _refined(*_start(X, X, [(v, v) for v in range(i)]))
        if n == X.m:  # both sides alike, so the X side is discrete
            break
        cells.append([y for y in range(X.m) if colour[y] == colour[i]])
    gens: list[list[int]] = []
    for i in reversed(range(len(cells))):
        for y in cells[i]:
            if y not in _orbit(i, gens):
                g = _isomorphism(X, X, [(v, v) for v in range(i)] + [(i, y)])
                if g is not None:
                    gens.append(g)
    return gens
