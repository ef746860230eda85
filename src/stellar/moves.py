"""Bistellar- and shelling-move engine with replayable certificates.

Moves are recorded by vertex *names* so a certificate survives the vertex
relabellings that happen when moves add or delete vertices.  Certificates
carry order-insensitive SHA-256 digests of their start and end facet sets
(see ``core.facet_hash`` for the byte layout) and are replayed before
being returned by any search.

A bistellar move of index i changes only i+1 facets, so the engine keeps
its work local.  A ``_MoveState(X, low)`` holds the moves of index >= low,
built from the stars of the faces of at most d+1-low vertices (the cold
path), and has one owner.  A complex holds only its own full state
(low = 1) in its ``_moves`` slot: ``enumerate_bistellar`` builds it, and
``apply_bistellar`` updates it by the faces of alpha + beta and hands it
on to the result.  The result keeps the complex's ids (a 0-move's new
vertex takes the next id, and an index-d move closes up the id of the
vertex it deletes) and is spliced into the complex's sorted facets and
masks by bisection, so ``Complex._checked`` neither sorts, masks nor
checks: a checked move gives distinct facets, none inside another.  The
state's vertex numbers rise with the ids, so it builds each move once
and keeps the moves in listing order.  Each walk of
``stellation_search`` builds and drops a state of the window
low = d-k+1 and a set of facet masks, as ``replay_bistellar`` replays
(``_replay_step``): ``_check_bistellar`` checks every step by one scan
of the facets, never reading a state, and a complex is built only for a
certificate.  Move lists, certificates and search node counts are the
same on every path; tests compare the state with the cold path, an
id-sorted listing and ``verify.brute_force_bistellar`` along random
walks, a splice with the replay from pure and non-pure starts, and the
search and the replay with a chain of ``apply_bistellar`` calls.
"""
from __future__ import annotations

import json
import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import comb
from operator import and_, attrgetter

from .core import (Complex, ComplexError, InputError, RangeError,
                   StructureError, _classes, _face_counts, _map_jobs,
                   _mask_from_names, _maximal, _rebuild, _vertex_links,
                   _worker_count, bits, boundary, dual_graph, facet_hash,
                   ids_of, is_connected, is_closed_pseudomanifold, mask_of,
                   submasks)
from .vectors import g_vector, h_vector


class MoveError(ComplexError, ValueError):
    """An inadmissible move was applied or a certificate failed to replay."""


class HypothesisViolation(ComplexError):
    """A canonical construction failed its validation pass: the input did
    not satisfy the hypothesis under which the formula is guaranteed."""


@dataclass(frozen=True)
class BistellarMove:
    """Replace the induced alpha-star by the beta-star: alpha is removed,
    beta inserted; index = dim(beta).  A 0-move's beta is a new vertex."""

    alpha: tuple[str, ...]
    beta: tuple[str, ...]
    index: int

    def reversed(self, d: int) -> "BistellarMove":
        return BistellarMove(self.beta, self.alpha, d - self.index)


@dataclass(frozen=True)
class ShellingMove:
    """Adjoin the facet alpha + beta to a pure complex meeting it in
    closure(alpha) * boundary(beta); index = dim(beta)."""

    alpha: tuple[str, ...]
    beta: tuple[str, ...]
    index: int


@dataclass(frozen=True)
class MoveCertificate:
    kind: str  # "bistellar" | "shelling"
    steps: tuple
    start_hash: str
    end_hash: str

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def k_bound(self) -> int:
        return max((s.index for s in self.steps), default=-1) + 1

    def index_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for s in self.steps:
            out[s.index] = out.get(s.index, 0) + 1
        return out

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "start_hash": self.start_hash,
            "steps": [{"alpha": list(s.alpha), "beta": list(s.beta),
                       "index": s.index} for s in self.steps],
            "end_hash": self.end_hash,
        })

    @staticmethod
    def from_json(text: str) -> "MoveCertificate":
        data = json.loads(text)
        cls = BistellarMove if data["kind"] == "bistellar" else ShellingMove
        steps = tuple(cls(tuple(s["alpha"]), tuple(s["beta"]), s["index"])
                      for s in data["steps"])
        return MoveCertificate(data["kind"], steps, data["start_hash"],
                               data["end_hash"])


# -- bistellar moves ---------------------------------------------------------


class _MoveState:
    """The admissible bistellar moves of index >= ``low`` of one complex,
    kept up to date by ``advance``, for one owner: a complex (low = 1) or
    a walk of ``stellation_search``.

    Faces are masks over the state's own vertex numbers: the ids of the
    complex the state was built from, then one new number per vertex a
    0-move adds (``vname`` gives each number's name, and ``sid`` each
    name's latest number).  They are never renumbered, so a move touches
    only the faces of alpha + beta.  Yet the live vertices' numbers rise
    with the ids of the complex holding the state, since moves keep their
    parent's ids in order (an index-d move closes them up) and a 0-move's
    vertex takes the top id and the top number: ``bits`` is id order.

    A move of index i has an alpha of d+1-i vertices, so the state keeps
    the window of faces of at most ``top`` = d+1-low vertices: ``star``
    maps each such nonempty face to the list of facets containing it.  A
    larger face is a face iff a facet in the star of its face on its
    ``top`` highest vertices contains it.  ``cand`` maps each face alpha of
    the window with i+1 owners whose union less alpha is a set beta of i+1
    vertices to beta; ``by_beta`` is its reverse index.  The move (alpha,
    beta) is admissible iff beta is not a face; ``moves`` maps the alpha of
    each to its ``BistellarMove``, built once, and ``rows`` lists them in
    ``enumerate_bistellar``'s order: sorted once after the cold build, then
    kept so by bisection.  A move on U = alpha + beta changes the stars of
    the faces of U in the window, which are rechecked; the faces of U that
    contain alpha vanish and those that contain beta appear, which
    rechecks the alphas that ``by_beta`` lists under them.  The full state
    is the window low = 1; a search with k = d + 1, which asks for index
    >= 0, gets it, as index-0 moves are never listed.
    """

    __slots__ = ("d", "top", "vname", "sid", "star", "cand", "by_beta",
                 "moves", "rows")
    row = attrgetter("index", "alpha", "beta")  # enumerate_bistellar's order

    def __init__(self, X: Complex, low: int):
        if not X.is_pure():
            raise StructureError("bistellar moves need a pure complex")
        self.d, self.top = X.dim, X.dim + 1 - max(low, 1)  # no index-0 move is listed
        self.vname = list(X.names)
        self.sid = dict(zip(X.names, range(X.m)))
        star: dict[int, list[int]] = {}
        for fm in X.facet_masks:
            for sub in self._window(fm):
                owners = star.get(sub)
                if owners is None:
                    star[sub] = [fm]
                else:
                    owners.append(fm)
        self.star = star
        self.cand: dict[int, int] = {}
        self.by_beta: dict[int, list[int]] = {}
        self.moves: dict[int, BistellarMove] = {}
        self.rows = None
        for alpha, owners in star.items():
            if len(owners) + alpha.bit_count() == self.d + 2:
                self._candidate(alpha, owners)
        self.rows = sorted(self.moves.values(), key=self.row)

    def _window(self, mask: int) -> list[int]:
        """The nonempty faces of the simplex ``mask`` in the window."""
        faces = []
        sub = mask
        while sub:
            if sub.bit_count() <= self.top:
                faces.append(sub)
            sub = (sub - 1) & mask
        return faces

    def _is_face(self, face: int) -> bool:
        sub = face
        for _ in range(face.bit_count() - self.top):
            sub &= sub - 1  # drop the lowest vertex
        if sub == face:
            return face in self.star
        return any(fm & face == face for fm in self.star.get(sub, ()))

    def _record(self, alpha: int, beta: int) -> None:
        if alpha not in self.moves:
            name = self.vname.__getitem__
            mv = self.moves[alpha] = BistellarMove(tuple(map(name, bits(alpha))),
                                                   tuple(map(name, bits(beta))),
                                                   beta.bit_count() - 1)
            if self.rows is not None:  # None during the cold build
                insort(self.rows, mv, key=self.row)

    def _drop(self, alpha: int) -> None:
        mv = self.moves.pop(alpha, None)
        if mv is not None:
            del self.rows[bisect_left(self.rows, self.row(mv), key=self.row)]

    def _recheck(self, alpha: int, owners) -> None:
        """Recompute whether the face alpha of the window, contained in
        the facets ``owners`` (None if it is no face), is a candidate and
        a move."""
        beta = self.cand.pop(alpha, None)
        if beta is not None:
            alphas = self.by_beta[beta]
            alphas.remove(alpha)
            if not alphas:
                del self.by_beta[beta]
            self._drop(alpha)
        # a move of index i needs i + 1 owners, and |alpha| = d + 1 - i
        if owners is not None and len(owners) + alpha.bit_count() == self.d + 2:
            self._candidate(alpha, owners)

    def _candidate(self, alpha: int, owners) -> None:
        """Record alpha, which has i+1 owners, if their union less alpha
        has i+1 vertices."""
        beta = 0
        for fm in owners:
            beta |= fm
        beta &= ~alpha
        if beta.bit_count() != len(owners):
            return
        self.cand[alpha] = beta
        self.by_beta.setdefault(beta, []).append(alpha)
        if not self._is_face(beta):
            self._record(alpha, beta)

    def advance(self, mv: BistellarMove) -> None:
        """Apply the checked move ``mv``: on U = alpha + beta, the facets
        U - b for b in beta give way to the facets U - a for a in alpha."""
        star, sid = self.star, self.sid
        if mv.index == 0:
            sid[str(mv.beta[0])] = len(self.vname)
            self.vname.append(str(mv.beta[0]))
        alpha, beta = (mask_of(sid[str(n)] for n in part) for part in (mv.alpha, mv.beta))
        u = alpha | beta
        removed = [(1 << b, u ^ (1 << b)) for b in bits(beta)]
        added = [(1 << a, u ^ (1 << a)) for a in bits(alpha)]
        for face in self._window(u):
            owners = star.get(face)
            if owners is None:
                owners = star[face] = []
            for vb, fm in removed:
                if not vb & face:
                    owners.remove(fm)
            for vb, fm in added:
                if not vb & face:
                    owners.append(fm)
            if not owners:
                del star[face]
                owners = None
            self._recheck(face, owners)
        by_beta = self.by_beta
        for t in submasks(beta):  # U - t, t in beta, contains alpha: vanishes
            for a in by_beta.get(u ^ t, ()):
                self._record(a, u ^ t)
        for t in submasks(alpha):  # U - t, t in alpha, contains beta: appears
            for a in by_beta.get(u ^ t, ()):
                self._drop(a)

    def first(self, min_index: int) -> int:
        """The position in ``rows`` of the first move of index >= ``min_index``."""
        return bisect_left(self.rows, min_index, key=attrgetter("index"))

    def listing(self, min_index: int) -> list[BistellarMove]:
        """The moves of index >= ``min_index`` >= ``low``, as
        ``enumerate_bistellar`` lists them: a tail of ``rows``."""
        return self.rows[self.first(min_index):]


def enumerate_bistellar(X: Complex) -> list[BistellarMove]:
    """All admissible bistellar moves of index >= 1, sorted by (index,
    alpha, beta), each listing its vertex names in id order.

    Index-0 moves are available at every facet (with a fresh vertex) and
    are not listed.  A pair (alpha, beta) is admissible iff the link of
    alpha is exactly the boundary of the missing simplex beta.

    The first call on a complex builds its full ``_MoveState`` from the
    star of every proper face (the cold path) and caches it in
    ``X._moves``; later calls, and calls on the complexes that
    ``apply_bistellar`` hands the state on to, read the moves from it.
    Either way the list is the same.
    """
    if X._moves is None:
        X._moves = _MoveState(X, 1)
    return X._moves.listing(1)


def _check_bistellar(d: int, ids: dict, facets, mv: BistellarMove) -> tuple[int, int]:
    """Admissibility of ``mv`` on the d-complex whose vertex names have
    the ids ``ids`` and whose facets are the masks ``facets``; returns
    (alpha_mask, beta_mask), beta_mask == 0 for 0-moves (the new vertex
    does not exist yet).  The star tests scan the facets once and never
    read a move state, so a certificate replay checks every step
    independently of the search that found it."""
    if len(mv.alpha) + len(mv.beta) != d + 2:
        raise MoveError(f"move {mv} has wrong size for dimension {d}")
    if mv.index != len(mv.beta) - 1:
        raise MoveError(f"move {mv} has inconsistent index")
    if mv.index > d:  # an empty alpha: the result would have no facet
        raise MoveError(f"move {mv} has index above the dimension {d}")
    if any(len(set(map(str, t))) != len(t) for t in (mv.alpha, mv.beta)):
        raise MoveError(f"move {mv} repeats a vertex")
    am = _mask_from_names(ids, mv.alpha)
    if mv.index == 0:
        new = mv.beta[0]
        if str(new) in ids:
            raise MoveError(f"0-move vertex {new!r} already present")
        if am not in facets:
            raise MoveError(f"0-move core {mv.alpha} is not a facet")
        return am, 0
    try:
        bm = _mask_from_names(ids, mv.beta)
    except InputError:
        raise MoveError(f"move {mv}: beta vertices must exist for index >= 1") from None
    if am & bm:
        raise MoveError(f"move {mv}: alpha and beta overlap")
    near = [fm for fm in facets if fm & am == am or fm & bm == bm]
    if any(fm & bm == bm for fm in near):
        raise MoveError(f"move {mv}: beta is already a face")
    if set(near) != {am | (bm ^ (1 << b)) for b in bits(bm)}:  # near is alpha's star
        raise MoveError(
            f"move {mv} inadmissible: the induced subcomplex on alpha+beta "
            "is not closure(alpha) * boundary(beta)")
    return am, bm


def apply_bistellar(X: Complex, mv: BistellarMove) -> Complex:
    """Apply a checked bistellar move, returning the new complex.

    The result keeps X's ids: a 0-move's new vertex takes id m, and an
    index-d move closes up the id of the vertex it deletes, so the ids
    above it drop by one.  These are the ids ``replay_bistellar`` gives.
    When X holds a move state, the state is updated by the move and
    handed on to the result, and X no longer holds it.
    """
    am, bm = _check_bistellar(X.dim, X._id_of, X.facet_masks, mv)
    names = list(X.names)
    if mv.index == 0:
        bm = 1 << X.m
        names.append(str(mv.beta[0]))
    u = am | bm
    # splice by bisection: the facets U - b, b in beta, out; U - a, a in alpha, in
    facets, masks = list(X.facets), list(X.facet_masks)
    for b in bits(bm):
        at = bisect_left(facets, ids_of(u ^ 1 << b))
        del facets[at], masks[at]
    for a in bits(am):
        f = ids_of(u ^ 1 << a)
        at = bisect_left(facets, f)
        facets.insert(at, f)
        masks.insert(at, u ^ 1 << a)
    if am & (am - 1) == 0:  # the one vertex of alpha is in no facet now
        v, low = am.bit_length() - 1, am - 1
        down = [i - (i > v) for i in range(len(names))]  # a 0-move's id m too
        del names[v]  # closing up id v is monotone, so the order holds
        facets = [tuple(map(down.__getitem__, f)) if f[-1] > v else f for f in facets]
        masks = [fm & low | fm >> 1 & ~low for fm in masks]
    # a checked move gives distinct facets, none inside another: a kept
    # facet inside a new one would contain beta, which is not a face of X
    Y = Complex._checked(names, facets, masks)
    state, X._moves = X._moves, None
    if state is not None:
        state.advance(mv)
        Y._moves = state
    return Y


def apply_reverse(Y: Complex, mv: BistellarMove) -> Complex:
    """Undo ``mv``: apply the reverse (d-i)-move beta -> alpha."""
    return apply_bistellar(Y, mv.reversed(Y.dim))


def bistellar_face_delta(d: int, index: int) -> tuple[int, ...]:
    """f_i(Y) - f_i(X) for an index move on a d-complex, i = 0..d."""
    lo = index

    def c(n, k):
        return comb(n, k) if 0 <= k <= n else 0

    return tuple(c(d + 1 - lo, i - lo) - c(lo + 1, d - i + 1) for i in range(d + 1))


def _replay_step(d: int, names: list, ids: dict, facets: set, mv: BistellarMove) -> None:
    """Check ``mv`` and apply it in place to the facet masks ``facets``
    over ``ids``, a map from the live ``names`` to their ids: a 0-move's
    vertex takes a new id, also for a name that was deleted earlier."""
    am, bm = _check_bistellar(d, ids, facets, mv)
    if mv.index == 0:
        bm = 1 << len(names)
        ids[str(mv.beta[0])] = len(names)
        names.append(str(mv.beta[0]))
    u = am | bm
    facets.difference_update([u ^ (1 << b) for b in bits(bm)])
    facets.update(u ^ (1 << a) for a in bits(am))
    if am & (am - 1) == 0:  # the one vertex of alpha is in no facet now
        del ids[names[am.bit_length() - 1]]


def replay_bistellar(start: Complex, steps) -> Complex:
    """Apply the bistellar moves ``steps`` to ``start``, each checked by
    ``_check_bistellar`` as ``apply_bistellar`` checks it.

    The moves act on a set of facet masks over the ids of ``start``
    (``_replay_step``), and the complex is built once, at the end, with
    its ids compacted in increasing order.  A checked move makes no facet
    contain another, so the result equals the chain of ``apply_bistellar``
    calls, names and facets alike, and a bad step raises what the chain
    raises there.  The replay never reads or changes a move state.
    """
    d, names, ids = start.dim, list(start.names), dict(start._id_of)
    facets = set(start.facet_masks)
    for mv in steps:
        _replay_step(d, names, ids, facets, mv)
    return _rebuild(names, facets)


# -- shelling ---------------------------------------------------------------


class ShellingOrderError(MoveError):
    def __init__(self, position: int, facet, reason: str):
        self.position = position
        self.facet = facet
        super().__init__(f"shelling fails at position {position} "
                         f"(facet {facet}): {reason}")


def _present_ridges(sigma: int, faces) -> int:
    """T, the vertices b of ``sigma`` whose opposite ridge sigma - b is in
    ``faces``: adjoining sigma to the complex with these faces is a
    shelling step iff T is nonempty and not itself a face, and then alpha
    is sigma - T and beta is T."""
    return mask_of(b for b in bits(sigma) if sigma ^ (1 << b) in faces)


def verify_shelling(B_target: Complex, order) -> MoveCertificate:
    """Check that ``order`` (a permutation of the facets, given by vertex
    names, none repeated) is a shelling of ``B_target`` and return its
    certificate.

    The per-step index is dim(beta) where the new facet meets the old
    complex in closure(alpha) * boundary(beta).  A cross-check against the
    h-vector (exactly h_j steps of index j-1) is always performed.
    """
    if not B_target.is_pure():
        raise StructureError("verify_shelling needs a pure complex")
    masks = [B_target.mask_from_names(f) for f in order]
    for f, fm in zip(order, masks):
        if fm.bit_count() != len(f):  # mask_from_names folds a repeat
            raise MoveError(f"order entry {' '.join(map(str, f))} repeats a vertex")
    if sorted(masks) != sorted(B_target.facet_masks):
        raise InputError("order is not a permutation of the facets")
    d = B_target.dim
    first = masks[0]
    yfaces = set(submasks(first))
    steps = []
    for pos, sigma in enumerate(masks[1:], start=1):
        tmask = _present_ridges(sigma, yfaces)
        if tmask == 0:
            raise ShellingOrderError(pos, B_target.names_of_mask(sigma),
                                     "facet meets the previous complex in no ridge")
        if tmask in yfaces:
            raise ShellingOrderError(
                pos, B_target.names_of_mask(sigma),
                "the would-be free face is already present")
        steps.append(ShellingMove(B_target.names_of_mask(sigma & ~tmask),
                                  B_target.names_of_mask(tmask),
                                  tmask.bit_count() - 1))
        yfaces.update(submasks(sigma))
    h = h_vector(B_target)
    start = Complex.from_facets([B_target.names_of_mask(first)])
    cert = MoveCertificate("shelling", tuple(steps), facet_hash(start),
                           facet_hash(B_target))
    tally = cert.index_counts()
    counts = [tally.get(j, 0) for j in range(d + 1)]
    if counts != list(h[1:]):
        raise MoveError(f"h-vector cross-check failed: {counts} vs {h[1:]}")
    return cert


def replay_shelling(start: Complex, steps) -> Complex:
    """Adjoin the facet alpha + beta of each step, checking that the step
    is the shelling step ``_present_ridges`` finds.

    Before any step is replayed, a start that is not pure, and a step
    whose index is not |beta| - 1, whose facet size differs from the
    start's or that repeats a vertex, is a ``MoveError``.  The facets then
    all have one size, and a step whose facet is already a face fails the
    step test, so every step adds a new facet that contains no other.  The
    steps act on facet masks and one face set over ids of their own: the
    start's ids, then a new id for each new name in the order the steps
    first use it; the complex is built once, at the end, with those ids.
    """
    steps = tuple(steps)
    if not start.is_pure():
        raise MoveError("shelling replay needs a pure start")
    d = start.dim
    for mv in steps:
        entry = [str(v) for part in (mv.alpha, mv.beta) for v in part]
        if len(entry) != d + 1:
            raise MoveError(f"move {mv} has wrong size for dimension {d}")
        if mv.index != len(mv.beta) - 1:
            raise MoveError(f"move {mv} has inconsistent index")
        if len(set(entry)) != len(entry):
            raise MoveError(f"move {mv} repeats a vertex")
    ids, facets = dict(start._id_of), list(start.facet_masks)
    faces = set().union(*map(submasks, facets))
    for mv in steps:
        am, bm = (mask_of(ids.setdefault(str(v), len(ids)) for v in part)
                  for part in (mv.alpha, mv.beta))
        sigma = am | bm
        if _present_ridges(sigma, faces) != bm or bm in faces:
            raise MoveError(f"invalid shelling step {mv}")
        facets.append(sigma)
        faces.update(submasks(sigma))
    return _rebuild(list(ids), facets)


def _peeling(masks):
    """Counters of the pure complex with facets ``masks`` while its facets
    are peeled and restored one at a time, updated instead of recounted:
    which facets are live, the number of live facets containing each face
    (``face_count``; on a ridge, the live facets on it) and the number of
    boundary ridges (ridges on one live facet) containing each face.
    Returns live, face_count, ``toggle(i, step)``, which peels facet i
    (step -1) or restores it (step +1), and ``ear(i)``.

    ``ear(i)`` is the ear test of a live facet i: E, its vertices opposite
    its boundary ridges, when E is neither empty nor the whole facet and
    no boundary ridge contains E; else 0."""
    ridges = [[(fm ^ (1 << v), 1 << v) for v in bits(fm)] for fm in masks]
    live = [True] * len(masks)
    face_count = _face_counts(masks)
    bd_cover: dict[int, int] = {}

    def cover(r: int, step: int) -> None:
        for sub in submasks(r):
            bd_cover[sub] = bd_cover.get(sub, 0) + step

    for rs in ridges:
        for r, _ in rs:
            if face_count[r] == 1:  # the one facet on r lists it once
                cover(r, 1)

    def toggle(i: int, step: int) -> None:
        live[i] = step > 0
        for sub in submasks(masks[i]):
            face_count[sub] += step
        for r, _ in ridges[i]:
            after = face_count[r]
            if after - step == 1:
                cover(r, -1)
            if after == 1:
                cover(r, 1)

    def ear(i: int) -> int:
        emask = 0
        for r, vbit in ridges[i]:
            if face_count[r] == 1:
                emask |= vbit
        return 0 if emask == masks[i] or bd_cover.get(emask, 0) else emask

    return live, face_count, toggle, ear


def ears(B: Complex) -> list[tuple[str, ...]]:
    """Facets whose removal leaves a ball, by the boundary-restriction
    test: the induced subcomplex of the boundary on the facet's vertices
    is pure of codimension one with a nonempty proper subset of the
    simplex-boundary facets: ``_peeling``'s ear test on B, which reads
    purity as no boundary ridge containing E.  A single-facet ball
    reports its facet."""
    if not B.is_pure():
        raise StructureError("ears need a pure complex")
    if len(B.facet_masks) == 1:
        return [B.facets_as_names()[0]]
    _, face_count, _, ear = _peeling(B.facet_masks)
    if max(face_count[fm ^ 1 << v] for fm in B.facet_masks for v in bits(fm)) > 2:
        raise StructureError("ears need a weak pseudomanifold")
    return [tuple(sorted(B.names_of_mask(fm)))
            for i, fm in enumerate(B.facet_masks) if ear(i)]


@dataclass
class SearchOutcome:
    status: str  # "found" | "none" | "exhausted"
    certificate: MoveCertificate | None = None
    nodes: int = 0
    start: Complex | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def find_shelling(B: Complex, budget: int = 10 ** 6) -> SearchOutcome:
    """Backtracking search for a shelling order of the ball ``B``.  No
    facet of a closed complex passes the ear test, so a closed input of
    two or more facets, even a shellable sphere, is a ``StructureError``.

    The search peels facets in reverse (last shelled first).  A facet is
    peelable only if re-adding it to the remainder is a valid shelling
    move and it is an ear of the current complex; on any completed branch
    every intermediate complex is a shellable ball, where both conditions
    are necessary, so the pruning preserves completeness and "none" means
    the full tree was exhausted.

    The depth-first search keeps an explicit stack of candidate
    iterators, one per peeled facet, so its depth is not bounded by the
    recursion limit.  The counters of ``_peeling`` are updated as a facet
    is peeled and restored.  A live facet is a candidate iff it passes
    the ear test with E and no other live facet contains T = facet - E
    (T is a free face).  Candidates are tried in ``B.facet_masks`` order,
    and a node's iterator resumes only after its child has restored every
    counter, so it yields what a full recount at that node would.

    The ear test does not imply the free-face test, as it reads only the
    boundary ridges of the facet.  In the strip abf, abc, acd, cde, def,
    whose vertex f has a link of two edges, both end facets pass the ear
    test with T = f in both; without the free-face test the peel would
    complete, and ``verify_shelling`` would refuse the order it gives,
    where the search answers "none".
    """
    if not B.is_pure():
        raise StructureError("find_shelling needs a pure complex")
    masks = B.facet_masks
    live, face_count, toggle, ear = _peeling(masks)
    if len(masks) > 1 and 1 not in (face_count[fm ^ 1 << v] for fm in masks for v in bits(fm)):
        raise StructureError("find_shelling needs a ball: this complex has no boundary ridge")

    def candidates():
        for i, fm in enumerate(masks):
            if live[i]:
                emask = ear(i)
                # the free face must lie in facet i alone
                if emask and face_count[fm & ~emask] == 1:
                    yield i

    nodes = 0
    budget_hit = False
    found = len(masks) == 1
    peeled: list[int] = []
    stack = [] if found else [candidates()]
    while stack:
        i = next(stack[-1], None)
        if i is None:
            stack.pop()
            if peeled:
                toggle(peeled.pop(), 1)
            continue
        nodes += 1
        if nodes > budget:
            budget_hit = True
            break
        toggle(i, -1)
        peeled.append(i)
        if len(peeled) == len(masks) - 1:
            found = True
            break
        stack.append(candidates())

    if found:
        remaining = [fm for i, fm in enumerate(masks) if live[i]]
        order = [B.names_of_mask(f)
                 for f in remaining + [masks[i] for i in reversed(peeled)]]
        cert = verify_shelling(B, order)
        start = Complex.from_facets([order[0]])
        return SearchOutcome("found", cert, nodes, start)
    if budget_hit:
        return SearchOutcome("exhausted", None, nodes)
    return SearchOutcome("none", None, nodes)


# -- stackedness -------------------------------------------------------------


def is_k_stacked_ball(B: Complex, k: int) -> bool:
    """All faces of codimension >= k+1 lie in the boundary."""
    if k < 0:
        raise RangeError("k must be >= 0")
    bd = boundary(B)
    top = B.dim - k - 1
    for t in range(top + 1):
        if B.n_faces(t) != bd.n_faces(t):
            return False
    return True


def is_1_stacked_via_tree(B: Complex) -> bool:
    """1-stackedness through the dual-graph characterization."""
    return dual_graph(B).is_tree()


# -- canonical ball / manifold ----------------------------------------------


def _closure_complex(S: Complex, depth: int,
                     limit: int | None = None) -> Complex | None:
    """The complex of all vertex sets whose subsets of size <= depth are
    faces of S (facets = the maximal such sets), or None as soon as one
    such set has ``limit`` vertices.  The canonical constructions pass
    dim(S) + 3: such a set makes the dimension exceed dim(S) + 1, which
    they reject.

    ``ext[f]`` is the mask of the vertices w for which f + w is a face,
    for each face f of fewer than ``depth`` vertices, read once off S's
    face index.  The sets are listed depth first on a stack.  A set's
    candidates are the vertices above its last that lie in the AND of
    ``ext`` over its subsets of fewer than ``depth`` vertices (so common
    neighbours at depth 2, as in Bron & Kerbosch, CACM 16, 1973), pushed
    largest first: the sets pop in the pre-order of ascending vertices
    that fixes the facets' ids.  Only the sets with no candidate can be
    maximal, so only they go to ``_maximal``."""
    idx = S._index()
    ext = dict.fromkeys(chain.from_iterable(idx[:depth]), 0)
    for f in chain.from_iterable(idx[1:depth + 1]):
        for w in bits(f):
            ext[f ^ 1 << w] |= 1 << w
    leaves = []
    stack = [0]
    while stack:
        c = stack.pop()
        if c.bit_count() == limit:
            return None
        common = reduce(and_, [ext[t] for t in submasks(c) if t.bit_count() < depth])
        cand = common >> c.bit_length() << c.bit_length()
        if not cand:
            leaves.append(c)
        stack.extend(c | 1 << v for v in reversed(ids_of(cand)))
    return Complex.from_facets([S.names_of_mask(c) for c in _maximal(leaves)])


def _canonical(S: Complex, k: int, depth: int, what: str, bound: str,
               claim: str) -> Complex:
    """The canonical ``what`` of S, for 0 <= k <= ``bound`` (that is,
    dim(S) >= 2 depth - 2): the closure at ``depth``, returned only if it
    is a k-stacked (d+1)-complex with boundary S; otherwise a
    HypothesisViolation says that the input ``claim``."""
    d = S.dim
    if k < 0 or d < 2 * depth - 2:
        raise RangeError(f"canonical {what} needs 0 <= k <= {bound} (got d={d}, k={k})")
    cand = _closure_complex(S, depth, d + 3)
    try:
        ok = (cand is not None and cand.dim == d + 1
              and boundary(cand) == S and is_k_stacked_ball(cand, k))
    except StructureError:
        ok = False
    if not ok:
        raise HypothesisViolation(f"closure complex failed validation: the input {claim}")
    return cand


def canonical_ball(S: Complex, k: int) -> Complex:
    """The unique k-stacked (d+1)-ball bounded by a k-stellated d-sphere,
    built as the sets all of whose <= (k+1)-subsets are faces.

    Requires 0 <= k and dim(S) >= 2k.  The output is validated (boundary
    equals S and it is k-stacked); failure raises HypothesisViolation
    rather than returning an unverified complex.
    """
    return _canonical(S, k, k + 1, "ball", "d/2", f"sphere is not "
                      f"{k}-stellated/{k}-stacked with a recoverable ball")


def canonical_manifold(M: Complex, k: int) -> Complex:
    """The unique (d+1)-manifold bounded by a W_k(d) member for k >= 0
    and d >= 2k+2, built as the sets all of whose <= (k+2)-subsets are
    faces.  It is validated as ``canonical_ball``'s output is: once the
    boundary equals M, its faces of at most d-k+1 vertices are M's
    exactly when it is k-stacked."""
    return _canonical(M, k, k + 2, "manifold", "(d-2)/2",
                      f"is not a W_{k} member with a recoverable manifold")


# -- stellation search -------------------------------------------------------


def _is_standard_sphere(X: Complex) -> bool:
    """Whether X is the boundary of a simplex: d + 2 facets on d + 2
    vertices, or {∅}, the boundary of a point, with no vertex."""
    return X.m in (0, X.dim + 2) and len(X.facet_masks) == X.dim + 2


def stellation_search(S: Complex, k: int, budget: int = 10 ** 6,
                      seed: int = 0) -> SearchOutcome:
    """Search for a certificate that ``S`` is k-stellated.

    Reduces S by bistellar moves of index >= d-k+1 (the reverses of
    building moves of index < k), greedy on the face-count change with
    seeded random tie-breaking and simulated-annealing acceptance of
    worsening moves; restarts on dead ends.  Each walk moves a state of
    its own on (S's ``_moves`` is never read or written) with the facet
    masks and ids of ``replay_bistellar``, which ``_check_bistellar``
    scans at every step, so no state is trusted, and builds a complex only
    at a simplex boundary.  An index-i move changes the face count by
    2^(d+1-i) - 2^(i+1), which falls as i rises, so the best moves are the
    listing's top-index block.  The certificate is replayed independently.
    Exhaustion refutes nothing.
    """
    d = S.dim
    if k < 0 or k > d + 1:
        raise RangeError(f"k={k} out of range for dimension {d}")
    if _is_standard_sphere(S):
        cert = MoveCertificate("bistellar", (), facet_hash(S), facet_hash(S))
        return SearchOutcome("found", cert, 0, S)
    if k == 0:
        return SearchOutcome("exhausted", None, 0)
    min_index = d - k + 1
    rng = random.Random(seed)
    deltas = {i: sum(bistellar_face_delta(d, i)) for i in range(min_index, d + 1)}
    nodes = 0
    while nodes < budget:
        state = _MoveState(S, min_index)
        names, ids, facets = list(S.names), dict(S._id_of), set(S.facet_masks)
        trail: list[BistellarMove] = []
        temp = 2.0
        while nodes < budget:
            if len(facets) == d + 2 and len(ids) == d + 2:  # a simplex boundary
                start = _rebuild(names, facets)
                steps = tuple(mv.reversed(d) for mv in reversed(trail))
                cert = _stellation_certificate(S, start, steps, k)
                return SearchOutcome("found", cert, nodes, start)
            rows, lo = state.rows, state.first(min_index)
            if lo == len(rows):
                if not trail:  # a dead end at the root
                    return SearchOutcome("exhausted", None, nodes)
                break  # restart
            if rng.random() >= 0.1:  # the best-delta moves
                lo = state.first(rows[-1].index)
            mv = rows[lo + rng.randrange(len(rows) - lo)]  # rng.choice of the tail
            delta = deltas[mv.index]
            nodes += 1
            if delta > 0 and rng.random() >= math.exp(-delta / temp):
                continue  # reject this proposal, costs a node
            _replay_step(d, names, ids, facets, mv)  # the state is not trusted
            state.advance(mv)
            trail.append(mv)
            temp = max(temp * 0.99, 0.05)
        nodes += 1  # restart overhead
    return SearchOutcome("exhausted", None, nodes)


def _stellation_certificate(S: Complex, start: Complex, steps: tuple,
                            k: int) -> MoveCertificate:
    """The certificate that the bistellar moves ``steps`` build S from
    ``start``, once it is shown to witness that S is k-stellated: start is
    the boundary of a simplex, the steps replay to S, every step has
    index < k and, where d >= 2k - 1, the steps of each index j < k
    number g_(j+1)(S).  Any other certificate raises ``MoveError``, so one
    built elsewhere, such as one carried through a vertex map, never
    passes unless it is right."""
    d = S.dim
    if not _is_standard_sphere(start):
        raise MoveError("internal error: certificate does not start at a simplex boundary")
    if replay_bistellar(start, steps) != S:
        raise MoveError("internal error: certificate replay mismatch")
    cert = MoveCertificate("bistellar", steps, facet_hash(start), facet_hash(S))
    if cert.k_bound > k:
        raise MoveError("internal error: certificate exceeds index bound")
    if d >= 2 * k - 1:
        # any index-<k build sequence realizes the g-vector move counts
        g = g_vector(S)
        counts = cert.index_counts()
        for j in range(k):
            if counts.get(j, 0) != g[j + 1]:
                raise MoveError("internal error: move counts disagree with g-vector")
    return cert


@dataclass
class WkMembershipReport:
    k: int
    per_vertex: dict[str, SearchOutcome]
    verdict: str  # "member" | "undetermined"

    @property
    def certified(self) -> bool:
        return self.verdict == "member"


def _wk_task(args):
    return stellation_search(*args)


def _carried(out: SearchOutcome, rep: Complex, lk: Complex,
             image: list[int], k: int) -> SearchOutcome:
    """The outcome of the search on ``rep`` for ``lk``, which the vertex
    map ``image`` (rep's ids to lk's) is to carry rep onto: the same
    status and nodes, and a certificate whose start complex and steps are
    renamed through the map and validated by ``_stellation_certificate``
    against lk, so a wrong map raises."""
    if not out.found:
        return SearchOutcome(out.status, None, out.nodes)
    name = dict(zip(rep.names, (lk.names[y] for y in image))).__getitem__
    start = Complex(list(map(name, out.start.names)), out.start.facets)
    steps = tuple(BistellarMove(tuple(map(name, mv.alpha)), tuple(map(name, mv.beta)),
                                mv.index) for mv in out.certificate.steps)
    return SearchOutcome("found", _stellation_certificate(lk, start, steps, k),
                         out.nodes, start)


def w_k_membership(M: Complex, k: int, budget: int = 10 ** 6, seed: int = 0,
                   jobs: int = 1) -> WkMembershipReport:
    """Certify every vertex link k-stellated; "member" only when every
    link is certified.

    The links (``core._vertex_links``) are sorted into classes by
    ``core._classes``: a link joins the first earlier class representative
    of its ``core._invariant`` that ``_isomorphism`` maps onto it.  A link
    that is a simplex boundary is its own class, since its search takes no
    step and a carried certificate would cost more.  Only the
    representatives are checked to be closed pseudomanifolds, as a member
    is its representative's image, and searched by ``stellation_search``
    with seed + v for vertex v.  A member takes its representative's outcome
    carried through the vertex map (``_carried``): its certificate is
    renamed and validated against its own link, and it reports the
    representative's nodes, or exhausted if that search was.

    ``jobs`` below 1 and a k outside 0..dim M are RangeErrors, raised before
    any link is built; ``jobs`` above the CPU count is cut to it.  With
    ``jobs`` > 1 the representatives' searches go to a ``multiprocessing``
    pool with the platform's default start method, when there are two or
    more.  Under ``spawn`` (macOS, Windows) or ``forkserver`` (Linux from
    Python 3.14) each worker re-imports the calling script, so a script
    that passes jobs > 1 must call under ``if __name__ == "__main__":``."""
    jobs = _worker_count(jobs)
    if not 0 <= k <= M.dim:  # stellation_search's range on M's links
        raise RangeError(f"k={k} out of range for dimension {M.dim}")
    if not is_connected(M):
        raise StructureError("W_k membership needs a connected complex")
    links = [_rebuild(M.names, lk) for lk in _vertex_links(M)]
    classes: list[tuple[int, list[int] | None]] = [(v, None) for v in range(M.m)]
    plain = [v for v, lk in enumerate(links) if not _is_standard_sphere(lk)]
    for v, (r, image) in zip(plain, _classes([links[v] for v in plain])):
        classes[v] = (plain[r], image)
    reps = [v for v, (r, _) in enumerate(classes) if r == v]
    for v in reps:
        if not is_closed_pseudomanifold(links[v]):
            raise StructureError(
                f"link of vertex {M.name_of(v)} is not a closed pseudomanifold")
    searched = dict(zip(reps, _map_jobs(
        _wk_task, [(links[v], k, budget, seed + v) for v in reps], jobs)))
    outcomes = [searched[v] if r == v else _carried(searched[r], links[r], lk, image, k)
                for v, (lk, (r, image)) in enumerate(zip(links, classes))]
    per_vertex = {M.name_of(v): out for v, out in enumerate(outcomes)}
    verdict = "member" if all(o.found for o in outcomes) else "undetermined"
    return WkMembershipReport(k, per_vertex, verdict)
