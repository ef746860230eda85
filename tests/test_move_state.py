"""The bistellar move state that enumerate_bistellar caches and
apply_bistellar hands on, and the windowed states that stellation_search
keeps to itself, against the cold path and independent oracles."""
import copy
import math
import pickle
import random
import re
from itertools import combinations, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stellar import moves
from stellar.constructions import corpus, random_stacked_sphere, standard_sphere
from stellar.core import Complex, link
from stellar.moves import (BistellarMove, MoveError, _MoveState,
                           apply_bistellar, enumerate_bistellar,
                           replay_bistellar, stellation_search)
from stellar.verify import brute_force_bistellar


def cold(X):
    """The moves of X from a fresh copy, which holds no move state."""
    return enumerate_bistellar(Complex(X.names, X.facets))


def from_facets_route(X, mv):
    """The result of ``mv`` as a labelled complex, by name: the facets off
    the star of alpha, then the new facets, parsed by Complex.from_facets."""
    am = X.mask_from_names(mv.alpha)
    alpha = set(mv.alpha)
    facets = [X.names_of_mask(fm) for fm in X.facet_masks if fm & am != am]
    facets += [tuple(sorted((alpha - {a}) | set(mv.beta))) for a in mv.alpha]
    return Complex.from_facets(facets)


def draw_move(draw, X, pool, used):
    """A move of X: a 0-move at a random facet, whose new vertex may take
    the name of a vertex deleted earlier, or one from ``pool``."""
    if pool and draw(st.integers(0, 2)):
        return draw(st.sampled_from(pool))
    fresh = next(f"n{k}" for k in count() if f"n{k}" not in used | set(X.names))
    free = [n for n in used if n not in X.names] + [fresh]
    name = draw(st.sampled_from(free))
    used.add(name)
    return BistellarMove(draw(st.sampled_from(X.facets_as_names())), (name,), 0)


def reference_listing(state, X, min_index):
    """The listing as each call once built it: every held move's names
    sorted by the ids of X, the complex holding the state, and all rows
    sorted afresh."""
    id_of = X._id_of.__getitem__
    rows = sorted((mv.index, tuple(sorted(mv.alpha, key=id_of)),
                   tuple(sorted(mv.beta, key=id_of)))
                  for mv in state.moves.values() if mv.index >= min_index)
    return [BistellarMove(a, b, i) for i, a, b in rows]


def check_rows(X, pool):
    """The numbers of the state X holds increase with X's ids, and from
    every index on it lists the per-call id-sorted reference, which is
    that tail of the cold listing ``pool``."""
    state = X._moves
    numbers = [state.sid[n] for n in X.names]
    assert numbers == sorted(set(numbers))
    for i in range(X.dim + 2):
        assert state.listing(i) == reference_listing(state, X, i) == \
            [mv for mv in pool if mv.index >= i]


def state_walk(draw, max_steps=16, brute_m=0):
    """Walk a random stacked 2-, 3- or 4-sphere by 0-moves, which may
    reuse the name of a deleted vertex, and moves of every index 1..d
    (index d deletes a vertex), checking each complex on the way.  Each
    step either lists the moves first (``check_rows``), so the state is
    handed on, or applies a move from a cold listing, so several moves can
    pile up in the state before it is read."""
    d = draw(st.sampled_from((2, 3, 4)))
    X = random_stacked_sphere(d, draw(st.integers(d + 2, d + 5)),
                              seed=draw(st.integers(0, 10 ** 6)))
    used: set[str] = set()
    for _ in range(draw(st.integers(1, max_steps))):
        pool = cold(X)
        if draw(st.booleans()):
            assert enumerate_bistellar(X) == pool
            check_rows(X, pool)
        if X.m <= brute_m:
            assert pool == brute_force_bistellar(X)
        mv = draw_move(draw, X, pool, used)
        want = replay_bistellar(X, [mv])
        Y = apply_bistellar(X, mv)
        for name in FIELDS:
            assert getattr(Y, name) == getattr(want, name), name
        assert Y == from_facets_route(X, mv)
        X = Y
    return X


FIELDS = ("names", "facets", "facet_masks", "dim", "m", "_id_of")


# The walks draw inside the test body, through st.data(), so that the
# checks made at every step count as test time, not as data generation.

@settings(max_examples=80, deadline=None)
@given(st.data())
def test_move_state_matches_cold_path(data):
    X = state_walk(data.draw)
    assert enumerate_bistellar(X) == cold(X)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_move_state_matches_brute_force(data):
    X = state_walk(data.draw, max_steps=5, brute_m=10)
    if X.m <= 10:
        assert enumerate_bistellar(X) == brute_force_bistellar(X)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_branching_from_one_complex(data):
    """Two moves applied to one complex: the first takes its state, the
    second runs cold, and every complex still lists the cold answer."""
    X = state_walk(data.draw, max_steps=4)
    pool = enumerate_bistellar(X)
    used: set[str] = set()
    first = draw_move(data.draw, X, pool, used)
    second = draw_move(data.draw, X, pool, used)
    Y1 = apply_bistellar(X, first)
    Y2 = apply_bistellar(X, second)
    for Z in (Y1, Y2, X):
        assert enumerate_bistellar(Z) == cold(Z)
    Z = apply_bistellar(Y1, first.reversed(X.dim))  # Y1's state goes back
    assert Z == X and enumerate_bistellar(Z) == cold(Z)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_windowed_states_match_the_full_listing(data):
    """Walk a random stacked 2-, 3- or 4-sphere by 0-moves, which may
    reuse the name of a deleted vertex, and moves of every index 1..d
    (index d deletes a vertex).  At every step a state of each window
    low = 1..d, built cold or moved on by every move since the start, as
    a search moves its own, lists the moves of index >= low of the full
    listing and of the cold one, from the stars of the faces in its
    window alone."""
    d = data.draw(st.sampled_from((2, 3, 4)))
    X = random_stacked_sphere(d, data.draw(st.integers(d + 2, d + 5)),
                              seed=data.draw(st.integers(0, 10 ** 6)))
    walkers = {low: _MoveState(X, low) for low in range(1, d + 1)}
    used: set[str] = set()
    for _ in range(data.draw(st.integers(1, 12))):
        pool, full = cold(X), enumerate_bistellar(X)
        assert full == pool
        for low, state in walkers.items():
            want = [mv for mv in pool if mv.index >= low]
            assert _MoveState(X, low).listing(low) == want
            assert state.top == d + 1 - low and state.listing(low) == want
            # the state holds the faces of at most d + 1 - low vertices
            assert max(map(int.bit_count, state.star)) == d + 1 - low
        mv = draw_move(data.draw, X, pool, used)
        X = apply_bistellar(X, mv)
        for state in walkers.values():
            state.advance(mv)


def test_a_search_leaves_the_state_of_s_alone():
    """A search neither reads nor writes the move state of S: a full state
    that S holds is the same object afterwards and still lists S's moves,
    a fresh S still holds none, the start it finds holds none, and the
    outcome is that of a search from a fresh copy."""
    X = random_stacked_sphere(3, 30, seed=1)
    enumerate_bistellar(X)
    state = X._moves
    out = stellation_search(X, 1)
    assert out.found and X._moves is state and state.listing(1) == cold(X)
    assert out.start._moves is None
    Y = Complex(X.names, X.facets)
    fresh = stellation_search(Y, 1)
    assert Y._moves is None and fresh.start._moves is None
    assert (out.nodes, out.certificate) == (fresh.nodes, fresh.certificate)
    assert (out.start.names, out.start.facets) == \
        (fresh.start.names, fresh.start.facets)


def test_state_is_handed_on_and_released():
    X = random_stacked_sphere(3, 12, seed=3)
    assert X._moves is None
    pool = enumerate_bistellar(X)
    state = X._moves
    Y = apply_bistellar(X, pool[0])
    assert X._moves is None and Y._moves is state
    assert enumerate_bistellar(X) == pool  # rebuilt cold
    assert X._moves is not state


def test_copies_do_not_share_the_state():
    X = random_stacked_sphere(3, 12, seed=4)
    pool = enumerate_bistellar(X)
    for Y in (copy.copy(X), pickle.loads(pickle.dumps(X))):
        assert Y._moves is None and Y == X and Y.names == X.names
        apply_bistellar(Y, pool[0])
        assert X._moves is not None and enumerate_bistellar(X) == pool


def test_replay_through_deleted_and_restored_vertices():
    """Delete vertices by index-d moves, then put them back by the reverse
    0-moves under their old names, as a certificate replay does."""
    X = random_stacked_sphere(3, 14, seed=5)
    start, trail = X, []
    while True:
        removals = [mv for mv in enumerate_bistellar(X) if mv.index == 3]
        if not removals:
            break
        trail.append(removals[-1])
        X = apply_bistellar(X, removals[-1])
    assert X.m == 5 and len(trail) == 9
    enumerate_bistellar(X)
    back = replay_bistellar(X, [mv.reversed(3) for mv in reversed(trail)])
    assert back == start and enumerate_bistellar(back) == cold(back)

    def as_sets(pool):
        return {(frozenset(mv.alpha), frozenset(mv.beta)) for mv in pool}

    assert as_sets(enumerate_bistellar(back)) == as_sets(cold(start))


def corrupt(state):
    """Make ``state`` list one move wrongly, with a star that agrees with
    it: a beta that is a face is dropped from the star, and its move is
    the one move held, and listed."""
    alpha, beta = next((a, b) for a, b in state.cand.items() if b in state.star)
    del state.star[beta]
    state.moves, state.rows = {}, []
    state._record(alpha, beta)


def test_a_corrupt_state_is_caught(monkeypatch):
    """A move that a corrupt state lists fails the facet scan of
    apply_bistellar, on the state X holds, and of the search's own step,
    on the state the search builds, so neither a step nor a search trusts
    the state."""
    X = random_stacked_sphere(3, 12, seed=6)
    enumerate_bistellar(X)
    corrupt(X._moves)
    (bogus,) = enumerate_bistellar(X)
    with pytest.raises(MoveError, match="already a face"):
        apply_bistellar(X, bogus)
    init = _MoveState.__init__

    def corrupt_init(self, Y, low):
        init(self, Y, low)
        corrupt(self)

    monkeypatch.setattr(_MoveState, "__init__", corrupt_init)
    with pytest.raises(MoveError, match="already a face"):
        stellation_search(Complex(X.names, X.facets), 3, budget=1000)


def test_names_are_compared_as_strings():
    """Vertex names are strings; a move naming a vertex by another type
    means the vertex with that string name."""
    X = random_stacked_sphere(2, 6, seed=1)  # names "1".."6"
    enumerate_bistellar(X)
    facet = X.facets_as_names()[0]
    with pytest.raises(MoveError, match="already present"):
        apply_bistellar(X, BistellarMove(facet, (4,), 0))
    with pytest.raises(MoveError, match="repeats a vertex"):
        apply_bistellar(X, BistellarMove(("1", 1, "2"), ("7",), 0))
    Y = apply_bistellar(X, BistellarMove(facet, (7,), 0))
    want = apply_bistellar(Complex(X.names, X.facets),
                           BistellarMove(facet, ("7",), 0))
    assert (Y.names, Y.facets) == (want.names, want.facets)
    assert enumerate_bistellar(Y) == cold(Y)
    (mv,) = [mv for mv in enumerate_bistellar(Y) if "7" in mv.alpha]
    Z = apply_bistellar(Y, BistellarMove(tuple(map(int, mv.alpha)),
                                         tuple(map(int, mv.beta)), mv.index))
    assert enumerate_bistellar(Z) == cold(Z)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trusted_results_and_filtered_listings(data):
    """Walk a random stacked 2-, 3- or 4-sphere by 0-moves and moves of
    every index 1..d.  Each result, built without the constructor's
    checks, equals the public constructor's field by field, and each
    listing from an index on is that tail of the full listing.  The
    replay builds its result by the public constructor, which sorts and
    checks every facet."""
    d = data.draw(st.sampled_from((2, 3, 4)))
    X = random_stacked_sphere(d, data.draw(st.integers(d + 2, d + 6)),
                              seed=data.draw(st.integers(0, 10 ** 6)))
    used: set[str] = set()
    for _ in range(data.draw(st.integers(1, 12))):
        pool = enumerate_bistellar(X)
        for i in range(d + 2):
            assert X._moves.listing(i) == \
                [mv for mv in pool if mv.index >= i]
        mv = draw_move(data.draw, X, pool, used)
        want = replay_bistellar(X, [mv])
        X = apply_bistellar(X, mv)
        for name in FIELDS:
            assert getattr(X, name) == getattr(want, name), name


def test_pure_results_skip_the_constructor(monkeypatch):
    """A move builds its result without ``Complex.__init__``, on a pure
    complex and on a non-pure one alike."""
    built = []
    init = Complex.__init__

    def spy(self, names, facets):
        built.append(len(facets))
        init(self, names, facets)

    X = random_stacked_sphere(3, 9, seed=2)
    Y = Complex.from_facets(X.facets_as_names() + [("a", "b")])
    monkeypatch.setattr(Complex, "__init__", spy)
    mv = enumerate_bistellar(X)[0]
    apply_bistellar(X, mv)
    assert built == []
    core = Y.facets_as_names()[0]
    got = apply_bistellar(Y, BistellarMove(core, ("new",), 0))
    assert built == []
    want = replay_bistellar(Y, [BistellarMove(core, ("new",), 0)])
    assert not got.is_pure()
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_splice_matches_the_replay_from_a_non_pure_start(data):
    """Walk a random stacked 2-, 3- or 4-sphere with one to three dangling
    facets of fewer vertices (a vertex of its own and some of the
    sphere's, or an edge the sphere lacks) by 0-moves and moves of every
    index 1..d of the sphere, so that the splice bisects among facets of
    mixed lengths and an index-d move renumbers them.  Each result of
    apply_bistellar equals the replay's field by field, and a move that a
    dangling facet makes inadmissible raises on both."""
    draw = data.draw
    d = draw(st.sampled_from((2, 3, 4)))
    S = random_stacked_sphere(d, draw(st.integers(d + 2, d + 6)),
                              seed=draw(st.integers(0, 10 ** 6)))
    extra = [(f"p{j}",) + tuple(draw(st.lists(st.sampled_from(S.names),
                                              max_size=d - 1, unique=True)))
             for j in range(draw(st.integers(1, 3)))]
    edges = {frozenset(e) for f in S.facets_as_names() for e in combinations(f, 2)}
    missing = [e for e in combinations(S.names, 2) if frozenset(e) not in edges]
    if missing and draw(st.booleans()):
        extra.append(draw(st.sampled_from(missing)))
    extra = [f for f in extra if not any(set(f) < set(g) for g in extra)]
    X = Complex.from_facets(S.facets_as_names() + extra)
    used: set[str] = set()
    for _ in range(draw(st.integers(1, 12))):
        assert not X.is_pure()
        top = Complex.from_facets([f for f in X.facets_as_names() if len(f) == d + 1])
        mv = draw_move(draw, top, enumerate_bistellar(top), used)
        try:
            want = replay_bistellar(X, [mv])
        except MoveError as exc:
            with pytest.raises(MoveError, match=re.escape(str(exc))):
                apply_bistellar(X, mv)
            continue
        Y = apply_bistellar(X, mv)
        for name in FIELDS:
            assert getattr(Y, name) == getattr(want, name), name
        assert Y == from_facets_route(X, mv) and Y._moves is None
        X = Y


def test_a_0_move_in_dimension_0_replaces_its_point():
    """In dimension 0 a 0-move is also an index-d move: the new vertex
    takes id m while its alpha, a point, is deleted and the ids close up."""
    X = Complex.from_facets([["a"], ["b"], ["c"]])
    for core in ("a", "b", "c"):
        mv = BistellarMove((core,), ("new",), 0)
        got, want = apply_bistellar(X, mv), replay_bistellar(X, [mv])
        for name in FIELDS:
            assert getattr(got, name) == getattr(want, name), name


def test_a_move_that_leaves_no_facet_still_raises():
    """A move with an empty alpha would leave no facet: an index-(d+1)
    move on the boundary of a simplex, or a 0-move on the complex {∅}.
    The admissibility check refuses both as moves, since a move's index
    is at most d, before any result is built."""
    message = "has index above the dimension"
    for d in (0, 1, 2):
        S = standard_sphere(d)
        with pytest.raises(MoveError, match=message):
            apply_bistellar(S, BistellarMove((), S.names, d + 1))
    with pytest.raises(MoveError, match=message):
        apply_bistellar(Complex.empty(), BistellarMove((), ("x",), 0))


def test_a_window_from_index_0_is_the_full_state():
    """A search with k = d + 1 asks for the moves of index >= 0; index-0
    moves are never listed, so its state is the full one."""
    X = random_stacked_sphere(3, 10, seed=0)
    state = _MoveState(X, 0)
    assert state.top == X.dim
    assert state.listing(0) == enumerate_bistellar(X) == cold(X)
    mv = state.listing(0)[0]
    Y = apply_bistellar(X, mv)
    state.advance(mv)
    assert state.listing(0) == cold(Y)


def chain_search(S, k, budget=10 ** 6, seed=0):
    """``stellation_search`` as it walked when every node built the next
    complex by ``apply_bistellar``, which hands the move state on: the
    chain attaches a state of its window to each complex that holds
    none."""
    d = S.dim
    if moves._is_standard_sphere(S):
        cert = moves.MoveCertificate("bistellar", (), moves.facet_hash(S),
                                     moves.facet_hash(S))
        return moves.SearchOutcome("found", cert, 0, S)
    min_index = d - k + 1
    rng = random.Random(seed)
    deltas = {i: sum(moves.bistellar_face_delta(d, i))
              for i in range(min_index, d + 1)}
    nodes = 0
    while nodes < budget:
        current = S
        trail = []
        temp = 2.0
        while nodes < budget:
            if moves._is_standard_sphere(current):
                steps = tuple(mv.reversed(d) for mv in reversed(trail))
                cert = moves._stellation_certificate(S, current, steps, k)
                return moves.SearchOutcome("found", cert, nodes, current)
            if current._moves is None:
                current._moves = _MoveState(current, min_index)
            pool = current._moves.listing(min_index)
            if not pool:
                if not trail:
                    return moves.SearchOutcome("exhausted", None, nodes)
                break
            best = min(deltas[mv.index] for mv in pool)
            if rng.random() < 0.1:
                mv = rng.choice(pool)
            else:
                mv = rng.choice([m for m in pool if deltas[m.index] == best])
            delta = deltas[mv.index]
            nodes += 1
            if delta > 0 and rng.random() >= math.exp(-delta / temp):
                continue
            current = apply_bistellar(current, mv)
            trail.append(mv)
            temp = max(temp * 0.99, 0.05)
        nodes += 1
    return moves.SearchOutcome("exhausted", None, nodes)


@st.composite
def search_inputs(draw):
    """A random stacked 2-, 3- or 4-sphere after a short walk by moves of
    every index, ``lutz_S3_8``, or the link of a vertex of ``M_2_5``."""
    kind = draw(st.sampled_from(("walked", "lutz_S3_8", "link")))
    if kind == "lutz_S3_8":
        return corpus()["lutz_S3_8"].complex
    if kind == "link":
        M = corpus()["M_2_5"].complex
        return link(M, (draw(st.integers(0, M.m - 1)),))
    d = draw(st.sampled_from((2, 3, 4)))
    X = random_stacked_sphere(d, draw(st.integers(d + 3, d + 8)),
                              seed=draw(st.integers(0, 10 ** 6)))
    used: set[str] = set()
    for _ in range(draw(st.integers(0, 4))):
        X = apply_bistellar(X, draw_move(draw, X, cold(X), used))
    return X


@settings(max_examples=60, deadline=None)
@given(search_inputs(), st.data())
def test_search_on_the_state_matches_the_chain(X, data):
    """For every k = 1..d+1, on seeds and budgets small enough to exhaust
    and restart, the search on the move state alone gives the chain's
    status, nodes, certificate and start complex, names and facets.  S,
    with or without a full state of its own, keeps what it held."""
    k = data.draw(st.integers(1, X.dim + 1))
    budget = data.draw(st.integers(1, 120))
    seed = data.draw(st.integers(0, 10 ** 6))
    S = Complex(X.names, X.facets)
    if data.draw(st.booleans()):
        enumerate_bistellar(S)
    held = S._moves
    got = stellation_search(S, k, budget, seed)
    want = chain_search(Complex(X.names, X.facets), k, budget, seed)
    assert (got.status, got.nodes, got.certificate) == \
        (want.status, want.nodes, want.certificate)
    if want.found:
        assert (got.start.names, got.start.facets) == \
            (want.start.names, want.start.facets)
    assert S._moves is held
    if held is not None:
        assert held.listing(1) == cold(S)


def test_search_builds_no_complex_per_node(monkeypatch):
    """At 3,590 facets the search takes 1,195 nodes and builds two
    complexes, the start it found and the replay of its certificate, not
    one per node."""
    S = random_stacked_sphere(3, 1200, seed=2)
    built = []
    init, checked = Complex.__init__, Complex._checked.__func__

    def spy_init(self, names, facets):
        built.append("__init__")
        init(self, names, facets)

    def spy_checked(cls, names, facets, masks):
        built.append("_checked")
        return checked(cls, names, facets, masks)

    monkeypatch.setattr(Complex, "__init__", spy_init)
    monkeypatch.setattr(Complex, "_checked", classmethod(spy_checked))
    out = stellation_search(S, 1, seed=0)
    assert len(S.facets) == 3590 and out.found and out.nodes == 1195
    assert built == ["__init__", "__init__"]
