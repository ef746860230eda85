"""Facet-based abstract simplicial complexes and elementary constructions.

Faces are stored as integer bitmasks over a per-complex dense vertex-id
space; vertex names are arbitrary strings kept in a name table.  All
complexes are immutable after construction.
"""
from __future__ import annotations

import hashlib
import warnings
from itertools import chain, repeat
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


def _renumbered(names: Sequence[str], kept: Sequence[Sequence[int]],
                added: Iterable[Sequence[object]]) -> tuple[list[str], list[tuple[int, ...]]]:
    """The names, and the facets as increasing id tuples in no particular
    order, of ``Complex.from_facets`` on a facet list made of ``kept``,
    each a tuple of increasing ids into ``names`` (so listed by its names
    in id order), followed by ``added``, each a sequence of names.

    Ids are given in first-occurrence order, as ``from_facets`` does, but
    from plain tuples: nothing is parsed, and nothing is checked, so the
    caller must know that no entry repeats or contains another.
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
    state of ``moves.enumerate_bistellar``.  ``moves.apply_bistellar``
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

        Names are assigned dense ids in first-occurrence order.  Entries
        dominated by another entry are dropped with a warning; a repeated
        vertex inside one entry is an error.
        """
        if not facet_list:
            raise InputError("empty facet list")
        name_ids: dict[str, int] = {}
        raw = []
        for entry in facet_list:
            toks = [str(t) for t in entry]
            if not toks:
                raise InputError("empty facet in input")
            if len(set(toks)) != len(toks):
                raise InputError(f"duplicate vertex within facet {toks}")
            raw.append(tuple(sorted([name_ids.setdefault(t, len(name_ids))
                                     for t in toks])))
        masks = [mask_of(f) for f in raw]
        dominated = set(_dominated(masks))
        seen: set[int] = set()
        keep = []
        dropped = 0
        for i, a in enumerate(masks):
            if i in dominated or a in seen:
                dropped += 1
            else:
                keep.append(raw[i])
            seen.add(a)
        if dropped:
            warnings.warn(f"dropped {dropped} inclusion-dominated input facet(s)",
                          stacklevel=2)
        names = [None] * len(name_ids)
        for n, i in name_ids.items():
            names[i] = n
        used = set().union(*keep)
        if len(used) != len(names):
            # unused names can only arise from dropped facets; compact ids
            remap = {}
            new_names = []
            for i, n in enumerate(names):
                if i in used:
                    remap[i] = len(new_names)
                    new_names.append(n)
            keep = [tuple(sorted(remap[v] for v in f)) for f in keep]
            names = new_names
        return Complex(names, keep)

    # -- basic queries ----------------------------------------------------

    def id_of(self, name: str) -> int:
        try:
            return self._id_of[str(name)]
        except KeyError:
            raise InputError(f"unknown vertex name {name!r}") from None

    def name_of(self, vid: int) -> str:
        return self.names[vid]

    def mask_from_names(self, names: Iterable[object]) -> int:
        return mask_of(self.id_of(n) for n in names)

    def names_of_mask(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in bits(mask))

    def _index(self) -> list[set[int]]:
        # Lazy, idempotent build; safe to race (last assignment wins with
        # an identical value).
        idx = self._faces_by_dim
        if idx is None:
            idx = [set() for _ in range(self.dim + 2)]  # slot t+1 holds dim t; slot 0 dim -1
            for fm in self.facet_masks:
                for sub in submasks(fm):
                    idx[sub.bit_count()].add(sub)
            self._faces_by_dim = idx
        return idx

    def faces_of_dim(self, t: int) -> set[int]:
        """All faces of dimension ``t`` as bitmasks (t = -1 gives {0})."""
        if t < -1 or t > self.dim:
            return set()
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


def _rebuild(X: Complex, facet_masks: Iterable[int]) -> Complex:
    """New complex from face masks of X, keeping names, compacting ids."""
    facet_masks = list(facet_masks)
    if not facet_masks:
        raise InputError("no facets")
    if facet_masks == [0]:
        return Complex.empty()
    used = 0
    for fm in facet_masks:
        used |= fm
    old_ids = list(bits(used))
    remap = {v: i for i, v in enumerate(old_ids)}
    names = [X.names[v] for v in old_ids]
    facets = [tuple(remap[v] for v in bits(fm)) for fm in facet_masks]
    return Complex(names, facets)


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
    return _rebuild(X, _maximal(masks))


def link(X: Complex, face: Iterable[int]) -> Complex:
    fm = mask_of(face)
    if not X.has_face(fm):
        raise NotAFaceError(f"{X.names_of_mask(fm)} is not a face")
    lk = _maximal(f & ~fm for f in X.facet_masks if f & fm == fm)
    return _rebuild(X, lk)


def star(X: Complex, face: Iterable[int]) -> Complex:
    fm = mask_of(face)
    if not X.has_face(fm):
        raise NotAFaceError(f"{X.names_of_mask(fm)} is not a face")
    return _rebuild(X, [f for f in X.facet_masks if f & fm == fm])


def antistar(X: Complex, x: int) -> Complex:
    if x < 0 or x >= X.m:
        raise NotAFaceError(f"no vertex id {x}")
    xm = 1 << x
    return _rebuild(X, _maximal(f & ~xm for f in X.facet_masks))


def induced(X: Complex, vertex_ids: Iterable[int]) -> Complex:
    """Induced subcomplex X[A]; ids outside V(X) are ignored."""
    am = mask_of(v for v in vertex_ids if 0 <= v < X.m)
    return _rebuild(X, _maximal(f & am for f in X.facet_masks))


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
    return _rebuild(X, bfaces)


class DualGraph:
    """Facet-adjacency graph of a weak pseudomanifold."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = n
        self.edges = frozenset(tuple(sorted(e)) for e in edges)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1 and self.is_connected()

    def is_path(self) -> bool:
        if not self.is_tree():
            return False
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return all(d <= 2 for d in deg)


def dual_graph(X: Complex) -> DualGraph:
    if not X.is_pure():
        raise StructureError("dual graph needs a pure complex")
    edges = []
    for owners in _ridge_facets(X.facet_masks).values():
        if len(owners) > 2:
            raise StructureError("not a weak pseudomanifold")
        if len(owners) == 2:
            edges.append((owners[0], owners[1]))
    return DualGraph(len(X.facet_masks), edges)


def is_weak_pseudomanifold(X: Complex) -> bool:
    if not X.is_pure():
        return False
    try:
        dual_graph(X)
    except StructureError:
        return False
    return True


def is_pseudomanifold(X: Complex) -> bool:
    return is_weak_pseudomanifold(X) and dual_graph(X).is_connected()


def is_closed_pseudomanifold(X: Complex) -> bool:
    """Pseudomanifold with every (d-1)-face in exactly two facets, from
    one ridge map.  A single point counts, as its boundary is {∅}."""
    return X.is_pure() and _closed_pseudomanifold(X.facet_masks)


def _closed_pseudomanifold(facet_masks: Sequence[int]) -> bool:
    """``is_closed_pseudomanifold`` of the pure complex with these facets."""
    edges = []
    for r, owners in _ridge_facets(facet_masks).items():
        if len(owners) == 2:
            edges.append(owners)
        elif r or len(owners) > 2:
            return False
    return DualGraph(len(facet_masks), edges).is_connected()


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


# -- isomorphism (test support; m <= 20) ------------------------------------


def _vertex_invariant(X: Complex, v: int) -> tuple:
    degs = []
    for t in range(1, X.dim + 1):
        degs.append(sum(1 for f in X.faces_of_dim(t) if f >> v & 1))
    return tuple(degs)


def are_isomorphic(X: Complex, Y: Complex) -> bool:
    """Decide isomorphism by backtracking on vertex bijections."""
    if X.m != Y.m or X.dim != Y.dim:
        return False
    if [X.n_faces(t) for t in range(X.dim + 1)] != [Y.n_faces(t) for t in range(Y.dim + 1)]:
        return False
    inv_x = [_vertex_invariant(X, v) for v in range(X.m)]
    inv_y = [_vertex_invariant(Y, v) for v in range(Y.m)]
    if sorted(inv_x) != sorted(inv_y):
        return False
    y_facets = set(Y.facet_masks)
    order = sorted(range(X.m), key=lambda v: (inv_x.count(inv_x[v]), v))
    assign: dict[int, int] = {}
    used = [False] * Y.m

    def feasible(xv: int, yv: int) -> bool:
        if inv_x[xv] != inv_y[yv]:
            return False
        # every X-edge between assigned vertices must map to a Y-edge
        ex = X.faces_of_dim(1)
        ey = Y.faces_of_dim(1)
        for u, yu in assign.items():
            if (mask_of((u, xv)) in ex) != (mask_of((yu, yv)) in ey):
                return False
        return True

    def extend(k: int) -> bool:
        if k == len(order):
            mapped = {mask_of(assign[v] for v in f) for f in X.facets}
            return mapped == y_facets
        xv = order[k]
        for yv in range(Y.m):
            if not used[yv] and feasible(xv, yv):
                assign[xv] = yv
                used[yv] = True
                if extend(k + 1):
                    return True
                del assign[xv]
                used[yv] = False
        return False

    return extend(0)
