"""Bistellar- and shelling-move engine with replayable certificates.

Moves are recorded by vertex *names* so a certificate survives the vertex
relabellings that happen when moves add or delete vertices.  Certificates
carry order-insensitive SHA-256 digests of their start and end facet sets
(see ``core.facet_hash`` for the byte layout) and are replayed before
being returned by any search.

A bistellar move of index i changes only i+1 facets, so the engine keeps
its work local.  The first ``enumerate_bistellar`` on a complex builds a
``_MoveState`` from the star of every face (the cold path) and caches it
in the complex's ``_moves`` slot.  ``apply_bistellar`` builds the result
by replaying ``Complex.from_facets``' first-occurrence numbering on plain
tuples, updates the state by the faces of the removed and added facets,
and hands it on to the result, clearing it from the complex it came from,
so a chain of moves keeps one state alive.  On a pure complex the result
skips the constructor's checks (``Complex._checked``): a checked move
there gives distinct facets of one size, so none repeats or contains
another, and the result is only numbered, sorted and masked.  A non-pure
complex goes through the public constructor.  Each listing emits the
held moves of the indices asked for under the current complex's ids and
sorts them once; ``stellation_search`` asks only for the indices it can
take.  The admissibility check of a move scans the facets and never reads
the state, so a certificate replay does not trust it.  A complex without
a state, such as the second of two moves applied to one complex, takes
the cold path.  Move lists, certificates and search node counts are the same on
either path; tests compare the state with the cold path and with
``verify.brute_force_bistellar`` along random walks.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from math import comb

from .core import (Complex, ComplexError, InputError, RangeError,
                   StructureError, _face_counts, _map_jobs, _maximal,
                   _renumbered, _ridge_facets, bits, boundary, dual_graph,
                   facet_hash, is_connected, is_closed_pseudomanifold, link,
                   mask_of, popcount, submasks)
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
    """The admissible bistellar moves of one complex, kept up to date as
    ``apply_bistellar`` hands the state from a complex to its successor.

    Faces are masks over the state's own vertex numbers: the ids of the
    complex the state was built from, then one new number per vertex a
    0-move adds (``vname`` gives each number's name, and ``sid`` each
    name's latest number).  They are never renumbered, so a move touches
    only the faces of the facets it removes and adds, although
    ``from_facets``' first-occurrence ids move at almost every step.
    ``star`` maps each nonempty face to the facets containing it.
    ``cand`` maps each face alpha with i+1 owners, 1 <= i <= d, whose
    union less alpha is a set beta of i+1 vertices to beta; ``by_beta``
    is its reverse index.  The move (alpha, beta) is admissible iff beta
    is not a face, and ``moves`` maps the alpha of each to the names of
    alpha and beta, in no particular order.  A move that changes the
    star of alpha rechecks alpha, and one that makes beta appear or
    vanish rechecks the alphas that ``by_beta`` lists under it.
    """

    __slots__ = ("d", "vname", "sid", "star", "cand", "by_beta", "moves")

    def __init__(self, X: Complex):
        self.d = X.dim
        self.vname = list(X.names)
        self.sid = dict(zip(X.names, range(X.m)))
        star: dict[int, list[int]] = {}
        for fm in X.facet_masks:
            for sub in submasks(fm):
                star.setdefault(sub, []).append(fm)
        star.pop(0, None)
        self.star = star
        self.cand: dict[int, int] = {}
        self.by_beta: dict[int, list[int]] = {}
        self.moves: dict[int, tuple] = {}
        for alpha, owners in star.items():
            n = alpha.bit_count()  # a move needs i + 1 owners, i = d + 1 - n
            if n <= self.d and len(owners) + n == self.d + 2:
                self._recheck(alpha)

    def mask(self, names) -> int:
        return mask_of(self.sid[str(n)] for n in names)

    def _names(self, alpha: int, beta: int) -> tuple:
        vname = self.vname
        return ([vname[v] for v in bits(alpha)], [vname[v] for v in bits(beta)])

    def _recheck(self, alpha: int) -> None:
        """Recompute whether the face alpha is a candidate and a move."""
        beta = self.cand.pop(alpha, None)
        if beta is not None:
            alphas = self.by_beta[beta]
            alphas.remove(alpha)
            if not alphas:
                del self.by_beta[beta]
            self.moves.pop(alpha, None)
        owners = self.star.get(alpha)
        i = self.d + 1 - alpha.bit_count()
        if owners is None or i < 1 or len(owners) != i + 1:
            return
        beta = 0
        for fm in owners:
            beta |= fm
        beta &= ~alpha
        if beta.bit_count() != i + 1:
            return
        self.cand[alpha] = beta
        self.by_beta.setdefault(beta, []).append(alpha)
        if beta not in self.star:
            self.moves[alpha] = self._names(alpha, beta)

    def advance(self, mv: BistellarMove) -> None:
        """Apply the checked move ``mv``."""
        star, sid = self.star, self.sid
        if mv.index == 0:
            sid[str(mv.beta[0])] = len(self.vname)
            self.vname.append(str(mv.beta[0]))
        alpha, beta = self.mask(mv.alpha), self.mask(mv.beta)
        removed = star[alpha][:]
        added = [alpha ^ (1 << a) | beta for a in bits(alpha)]
        touched = {sub for fm in removed + added for sub in submasks(fm)}
        touched.discard(0)
        was = {f for f in touched if f in star}
        for fm in removed:
            for sub in submasks(fm):
                if sub:
                    owners = star[sub]
                    owners.remove(fm)
                    if not owners:
                        del star[sub]
        for fm in added:
            for sub in submasks(fm):
                if sub:
                    star.setdefault(sub, []).append(fm)
        for face in touched:
            self._recheck(face)
        for face in was.symmetric_difference(f for f in touched if f in star):
            for a in self.by_beta.get(face, ()):
                if face in star:
                    self.moves.pop(a, None)
                else:
                    self.moves[a] = self._names(a, face)

    def listing(self, X: Complex, min_index: int) -> list[BistellarMove]:
        """The moves of index >= ``min_index`` of ``X``, the complex
        holding the state, with names in X's id order, sorted as
        ``enumerate_bistellar`` returns them.  Rows sort by index first,
        so this is a tail of the full listing."""
        id_of = X._id_of.__getitem__
        rows = sorted((len(b) - 1, tuple(sorted(a, key=id_of)),
                       tuple(sorted(b, key=id_of)))
                      for a, b in self.moves.values() if len(b) - 1 >= min_index)
        return [BistellarMove(a, b, i) for i, a, b in rows]


def _move_state(X: Complex) -> _MoveState:
    """The move state of ``X``, built cold and cached if X has none."""
    state = X._moves
    if state is None:
        if not X.is_pure():
            raise StructureError("bistellar moves need a pure complex")
        state = X._moves = _MoveState(X)
    return state


def enumerate_bistellar(X: Complex) -> list[BistellarMove]:
    """All admissible bistellar moves of index >= 1, sorted by (index,
    alpha, beta), each listing its vertex names in id order.

    Index-0 moves are available at every facet (with a fresh vertex) and
    are not listed.  A pair (alpha, beta) is admissible iff the link of
    alpha is exactly the boundary of the missing simplex beta.

    The first call on a complex builds its ``_MoveState`` from the star
    of every face (the cold path) and caches it in ``X._moves``; later
    calls, and calls on the complexes that ``apply_bistellar`` hands the
    state on to, read the moves from it.  Either way the list is the same.
    """
    return _move_state(X).listing(X, 1)


def _check_bistellar(X: Complex, mv: BistellarMove) -> tuple[int, int]:
    """Admissibility; returns (alpha_mask, beta_mask), beta_mask == 0 for
    0-moves (the new vertex does not exist yet).  The star tests scan the
    facets of X and never read its move state, so a certificate replay
    checks every step independently of the search that found it."""
    d = X.dim
    if len(mv.alpha) + len(mv.beta) != d + 2:
        raise MoveError(f"move {mv} has wrong size for dimension {d}")
    if mv.index != len(mv.beta) - 1:
        raise MoveError(f"move {mv} has inconsistent index")
    if mv.index > d:  # an empty alpha: the result would have no facet
        raise MoveError(f"move {mv} has index above the dimension {d}")
    if any(len(set(map(str, t))) != len(t) for t in (mv.alpha, mv.beta)):
        raise MoveError(f"move {mv} repeats a vertex")
    am = X.mask_from_names(mv.alpha)
    if mv.index == 0:
        new = mv.beta[0]
        if str(new) in X._id_of:
            raise MoveError(f"0-move vertex {new!r} already present")
        if am not in X.facet_masks:
            raise MoveError(f"0-move core {mv.alpha} is not a facet")
        return am, 0
    try:
        bm = X.mask_from_names(mv.beta)
    except InputError:
        raise MoveError(f"move {mv}: beta vertices must exist for index >= 1") from None
    if am & bm:
        raise MoveError(f"move {mv}: alpha and beta overlap")
    if any(fm & bm == bm for fm in X.facet_masks):
        raise MoveError(f"move {mv}: beta is already a face")
    owners = [fm for fm in X.facet_masks if fm & am == am]
    expect = {am | (bm ^ (1 << b)) for b in bits(bm)}
    if set(owners) != expect:
        raise MoveError(
            f"move {mv} inadmissible: the induced subcomplex on alpha+beta "
            "is not closure(alpha) * boundary(beta)")
    return am, bm


def apply_bistellar(X: Complex, mv: BistellarMove) -> Complex:
    """Apply a checked bistellar move, returning the new complex.

    The result is what ``Complex.from_facets`` gives the facets of X
    without the star of alpha (in X's order, names in id order) followed
    by alpha - a + beta for each a in ``mv.alpha`` (names sorted): its
    first-occurrence numbering is replayed on plain tuples.  When X holds
    a move state, the state is updated by the move and handed on to the
    result, and X no longer holds it.
    """
    am, _ = _check_bistellar(X, mv)
    alpha, beta = set(map(str, mv.alpha)), set(map(str, mv.beta))
    kept = [f for f, fm in zip(X.facets, X.facet_masks) if fm & am != am]
    added = [sorted((alpha - {str(a)}) | beta) for a in mv.alpha]
    names, facets = _renumbered(X.names, kept, added)
    # a checked move on a pure complex gives distinct facets of one size
    Y = (Complex._checked if X.is_pure() else Complex)(names, facets)
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


def replay_bistellar(start: Complex, steps) -> Complex:
    cur = start
    for mv in steps:
        cur = apply_bistellar(cur, mv)
    return cur


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
    names) is a shelling of ``B_target`` and return its certificate.

    The per-step index is dim(beta) where the new facet meets the old
    complex in closure(alpha) * boundary(beta).  A cross-check against the
    h-vector (exactly h_j steps of index j-1) is always performed.
    """
    masks = [B_target.mask_from_names(f) for f in order]
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
                                  popcount(tmask) - 1))
        yfaces.update(submasks(sigma))
    h = h_vector(B_target)
    counts = [0] * (d + 2)
    for s in steps:
        counts[s.index + 1] += 1
    if counts[1:] != list(h[1:]):
        raise MoveError(f"h-vector cross-check failed: {counts[1:]} vs {h[1:]}")
    start = Complex.from_facets([B_target.names_of_mask(first)])
    return MoveCertificate("shelling", tuple(steps), facet_hash(start),
                           facet_hash(B_target))


def replay_shelling(start: Complex, steps) -> Complex:
    """Adjoin the facet alpha + beta of each step, checking that the step
    is the shelling step ``_present_ridges`` finds.  The face set is kept
    over ids of its own, one per name in order of appearance, and grows by
    each new facet; each intermediate complex is still built by
    ``Complex.from_facets``, as the ids of the result depend on it."""
    cur = start
    ids = dict(zip(start.names, range(start.m)))
    faces = set().union(*map(submasks, start.facet_masks))
    for mv in steps:
        cur = Complex.from_facets(cur.facets_as_names()
                                  + [tuple(mv.alpha) + tuple(mv.beta)])
        am, bm = (mask_of(ids.setdefault(str(v), len(ids)) for v in part)
                  for part in (mv.alpha, mv.beta))
        if _present_ridges(am | bm, faces) != bm or bm in faces:
            raise MoveError(f"invalid shelling step {mv}")
        faces.update(submasks(am | bm))
    return cur


def _peeling(masks):
    """Counters of the complex with facets ``masks`` while its facets are
    peeled and restored one at a time, updated instead of recounted: which
    facets are live, the number of live facets on each ridge
    (``ridge_count``) and containing each face (``face_count``), and the
    number of boundary ridges (ridges on one live facet) containing each
    face.  Returns live, ridge_count, face_count, ``toggle(i, step)``,
    which peels facet i (step -1) or restores it (step +1), and ``ear(i)``.

    ``ear(i)`` is the ear test of a live facet i: E, its vertices opposite
    its boundary ridges, when E is neither empty nor the whole facet and
    no boundary ridge contains E; else 0."""
    ridges = [[(fm ^ (1 << v), 1 << v) for v in bits(fm)] for fm in masks]
    live = [True] * len(masks)
    ridge_count = {r: len(o) for r, o in _ridge_facets(masks).items()}
    face_count = _face_counts(masks)
    bd_cover: dict[int, int] = {}

    def cover(r: int, step: int) -> None:
        for sub in submasks(r):
            bd_cover[sub] = bd_cover.get(sub, 0) + step

    for r, c in ridge_count.items():
        if c == 1:
            cover(r, 1)

    def toggle(i: int, step: int) -> None:
        live[i] = step > 0
        for sub in submasks(masks[i]):
            face_count[sub] += step
        for r, _ in ridges[i]:
            before = ridge_count[r]
            after = ridge_count[r] = before + step
            if before == 1:
                cover(r, -1)
            if after == 1:
                cover(r, 1)

    def ear(i: int) -> int:
        emask = 0
        for r, vbit in ridges[i]:
            if ridge_count[r] == 1:
                emask |= vbit
        return 0 if emask == masks[i] or bd_cover.get(emask, 0) else emask

    return live, ridge_count, face_count, toggle, ear


def ears(B: Complex) -> list[tuple[str, ...]]:
    """Facets whose removal leaves a ball, by the boundary-restriction
    test: the induced subcomplex of the boundary on the facet's vertices
    is pure of codimension one with a nonempty proper subset of the
    simplex-boundary facets: ``_peeling``'s ear test on B, which reads
    purity as no boundary ridge containing E.  A single-facet ball
    reports its facet."""
    if len(B.facet_masks) == 1:
        return [B.facets_as_names()[0]]
    _, ridge_count, _, _, ear = _peeling(B.facet_masks)
    if max(ridge_count.values()) > 2:
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
    """Backtracking search for a shelling order of the ball ``B``.

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
    """
    if not B.is_pure():
        raise StructureError("find_shelling needs a pure complex")
    masks = B.facet_masks
    live, _, face_count, toggle, ear = _peeling(masks)

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
    they reject."""
    from itertools import combinations

    cliques: list[int] = []

    def extend(alpha: list[int], amask: int, start: int) -> bool:
        """Collect the cliques through alpha; True at a too large one."""
        cliques.append(amask)
        if len(alpha) == limit:
            return True
        for v in range(start, S.m):
            ok = True
            vm = 1 << v
            for r in range(min(depth - 1, len(alpha)) + 1):
                for sub in combinations(alpha, r):
                    if not S.has_face(mask_of(sub) | vm):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                alpha.append(v)
                if extend(alpha, amask | vm, v + 1):
                    return True
                alpha.pop()
        return False

    if extend([], 0, 0):
        return None
    return Complex.from_facets([S.names_of_mask(c) for c in _maximal(cliques)])


def canonical_ball(S: Complex, k: int) -> Complex:
    """The unique k-stacked (d+1)-ball bounded by a k-stellated d-sphere,
    built as the sets all of whose <= (k+1)-subsets are faces.

    Requires dim(S) >= 2k.  The output is validated (boundary equals S and
    it is k-stacked); failure raises HypothesisViolation rather than
    returning an unverified complex.
    """
    d = S.dim
    if d < 2 * k:
        raise RangeError(f"canonical ball needs dim >= 2k (got d={d}, k={k})")
    cand = _closure_complex(S, k + 1, d + 3)
    try:
        ok = (cand is not None and cand.dim == d + 1
              and boundary(cand) == S and is_k_stacked_ball(cand, k))
    except StructureError:
        ok = False
    if not ok:
        raise HypothesisViolation(
            "closure complex failed validation: the input sphere is not "
            f"{k}-stellated/{k}-stacked with a recoverable ball")
    return cand


def canonical_manifold(M: Complex, k: int) -> Complex:
    """The unique (d+1)-manifold bounded by a W_k(d) member for
    d >= 2k+2, built as the sets all of whose <= (k+2)-subsets are faces;
    validated against its defining properties."""
    d = M.dim
    if d < 2 * k + 2:
        raise RangeError(f"canonical manifold needs dim >= 2k+2 (got d={d}, k={k})")
    cand = _closure_complex(M, k + 2, d + 3)
    try:
        ok = cand is not None and cand.dim == d + 1 and boundary(cand) == M
        if ok:
            for t in range(d - k + 1):
                if cand.n_faces(t) != M.n_faces(t):
                    ok = False
                    break
    except StructureError:
        ok = False
    if not ok:
        raise HypothesisViolation(
            "closure complex failed validation: the input is not a "
            f"W_{k} member with a recoverable manifold")
    return cand


# -- stellation search -------------------------------------------------------


def _is_standard_sphere(X: Complex) -> bool:
    return X.m == X.dim + 2 and len(X.facet_masks) == X.dim + 2


def stellation_search(S: Complex, k: int, budget: int = 10 ** 6,
                      seed: int = 0) -> SearchOutcome:
    """Search for a certificate that ``S`` is k-stellated.

    Reduces S by bistellar moves of index >= d-k+1 (the reverses of
    building moves of index < k), greedy on the face-count change with
    seeded random tie-breaking and simulated-annealing acceptance of
    worsening moves; restarts on dead ends.  The returned certificate is
    replayed independently before being returned.  Exhaustion refutes
    nothing.
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
        current = S
        trail: list[BistellarMove] = []
        temp = 2.0
        while nodes < budget:
            if _is_standard_sphere(current):
                return _finish_stellation(S, current, trail, k, nodes)
            pool = _move_state(current).listing(current, min_index)
            if not pool:
                if not trail:
                    # deterministic dead end at the root: nothing to try
                    return SearchOutcome("exhausted", None, nodes)
                break  # restart
            best = min(deltas[mv.index] for mv in pool)
            if rng.random() < 0.1:
                mv = rng.choice(pool)
            else:
                mv = rng.choice([m for m in pool if deltas[m.index] == best])
            delta = deltas[mv.index]
            nodes += 1
            if delta > 0 and rng.random() >= math.exp(-delta / temp):
                continue  # reject this proposal, costs a node
            current = apply_bistellar(current, mv)
            trail.append(mv)
            temp = max(temp * 0.99, 0.05)
        nodes += 1  # restart overhead
    return SearchOutcome("exhausted", None, nodes)


def _finish_stellation(S: Complex, reduced: Complex,
                       trail: list[BistellarMove], k: int,
                       nodes: int) -> SearchOutcome:
    d = S.dim
    steps = tuple(mv.reversed(d) for mv in reversed(trail))
    # replay on a copy without the search's move state
    end = replay_bistellar(Complex(reduced.names, reduced.facets), steps)
    if end != S:
        raise MoveError("internal error: certificate replay mismatch")
    cert = MoveCertificate("bistellar", steps, facet_hash(reduced), facet_hash(S))
    if cert.k_bound > k:
        raise MoveError("internal error: certificate exceeds index bound")
    if d >= 2 * k - 1:
        # any index-<k build sequence realizes the g-vector move counts
        g = g_vector(S)
        counts = cert.index_counts()
        for j in range(k):
            if counts.get(j, 0) != g[j + 1]:
                raise MoveError("internal error: move counts disagree with g-vector")
    return SearchOutcome("found", cert, nodes, reduced)


@dataclass
class WkMembershipReport:
    k: int
    per_vertex: dict[str, SearchOutcome]
    verdict: str  # "member" | "undetermined"

    @property
    def certified(self) -> bool:
        return self.verdict == "member"


def _wk_task(args):
    facets, k, budget, seed = args
    lk = Complex.from_facets(facets)
    return stellation_search(lk, k, budget, seed)


def w_k_membership(M: Complex, k: int, budget: int = 10 ** 6, seed: int = 0,
                   jobs: int = 1) -> WkMembershipReport:
    """Run a stellation search on every vertex link; "member" only when
    every link is certified.  The searches are independent, one task each.

    With ``jobs`` > 1 the work goes to a ``multiprocessing`` pool
    with the platform's default start method.  Under ``spawn`` (macOS,
    Windows) or ``forkserver`` (Linux from Python 3.14) each worker
    re-imports the calling script, so a script that passes jobs > 1 must
    make the call under ``if __name__ == "__main__":``."""
    if not is_connected(M):
        raise StructureError("W_k membership needs a connected complex")
    tasks = []
    for v in range(M.m):
        lk = link(M, (v,))
        if not is_closed_pseudomanifold(lk):
            raise StructureError(
                f"link of vertex {M.name_of(v)} is not a closed pseudomanifold")
        tasks.append((lk.facets_as_names(), k, budget, seed + v))
    outcomes = _map_jobs(_wk_task, tasks, jobs)
    per_vertex = {M.name_of(v): out for v, out in enumerate(outcomes)}
    verdict = "member" if all(o.found for o in outcomes) else "undetermined"
    return WkMembershipReport(k, per_vertex, verdict)
