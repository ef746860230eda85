"""The bistellar move state that enumerate_bistellar caches and
apply_bistellar hands on, against the cold path and independent oracles."""
import copy
import pickle
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stellar.constructions import random_stacked_sphere, standard_sphere
from stellar.core import Complex
from stellar.moves import (BistellarMove, MoveError, _move_state, _MoveState,
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


def state_walk(draw, max_steps=16, brute_m=0):
    """Walk a random stacked 2-, 3- or 4-sphere by 0-moves and moves of
    every index 1..d (index d deletes a vertex), checking each complex
    on the way.  Each step either lists the moves first, so the state is
    handed on, or applies a move from a cold listing, so several moves can
    pile up in the state before it is read."""
    d = draw(st.sampled_from((2, 3, 4)))
    X = random_stacked_sphere(d, draw(st.integers(d + 2, d + 5)),
                              seed=draw(st.integers(0, 10 ** 6)))
    used: set[str] = set()
    for _ in range(draw(st.integers(1, max_steps))):
        if draw(st.booleans()):
            pool = enumerate_bistellar(X)
            assert pool == cold(X)
        else:
            pool = cold(X)
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
    low = 1..d, built cold or handed on by every move since the start,
    lists the moves of index >= low of the full listing and of the cold
    one, from the stars of the faces in its window alone."""
    d = data.draw(st.sampled_from((2, 3, 4)))
    X = random_stacked_sphere(d, data.draw(st.integers(d + 2, d + 5)),
                              seed=data.draw(st.integers(0, 10 ** 6)))
    walkers = {}
    for low in range(1, d + 1):
        walkers[low] = Complex(X.names, X.facets)
        walkers[low]._moves = _MoveState(walkers[low], low)
    used: set[str] = set()
    for _ in range(data.draw(st.integers(1, 12))):
        pool, full = cold(X), enumerate_bistellar(X)
        assert full == pool
        for low, W in walkers.items():
            want = [mv for mv in pool if mv.index >= low]
            assert _MoveState(X, low).listing(X, low) == want
            assert W._moves.low == low and W._moves.listing(W, low) == want
            # the state holds the faces of at most d + 1 - low vertices
            assert max(map(int.bit_count, W._moves.star)) == d + 1 - low
        mv = draw_move(data.draw, X, pool, used)
        X = apply_bistellar(X, mv)
        walkers = {low: apply_bistellar(W, mv) for low, W in walkers.items()}


def test_a_windowed_state_is_rebuilt_for_a_full_listing():
    """A complex holding the state of a search for index >= 3 answers
    ``enumerate_bistellar`` with the full cold list, from a state that it
    builds for every index and keeps."""
    X = random_stacked_sphere(3, 14, seed=7)
    windowed = _move_state(X, 3)
    assert windowed.low == 3 and X._moves is windowed
    assert enumerate_bistellar(X) == cold(X)
    assert X._moves is not windowed and X._moves.low == 1
    assert _move_state(X, 3) is X._moves  # a full state serves index >= 3


def test_a_search_reuses_a_full_state():
    """A search started on a complex that already holds a full state lists
    its first pool from that state and hands it on along the trail; the
    outcome is that of a search from a fresh copy, which builds the
    window of its index bound."""
    X = random_stacked_sphere(3, 30, seed=1)
    enumerate_bistellar(X)
    state = X._moves
    out = stellation_search(X, 1)
    assert out.found and out.start._moves is state and state.low == 1
    fresh = stellation_search(Complex(X.names, X.facets), 1)
    assert fresh.start._moves.low == 3
    assert (out.nodes, out.certificate) == (fresh.nodes, fresh.certificate)


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


def test_a_corrupt_state_is_caught():
    """A move that the state lists wrongly, with a star that agrees with
    it, fails the facet scan of apply_bistellar, so neither a step nor a
    search trusts the state."""
    X = random_stacked_sphere(3, 12, seed=6)
    enumerate_bistellar(X)
    state = X._moves
    alpha, beta = next((a, b) for a, b in state.cand.items() if b in state.star)
    del state.star[beta]
    state.moves = {alpha: state._names(alpha, beta)}
    (bogus,) = enumerate_bistellar(X)
    with pytest.raises(MoveError, match="already a face"):
        apply_bistellar(X, bogus)
    with pytest.raises(MoveError, match="already a face"):
        stellation_search(X, 3, budget=1000)


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
            assert _move_state(X).listing(X, i) == \
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
    state = _move_state(X, 0)
    assert state.low == 1 and state.top == X.dim
    assert state.listing(X, 0) == enumerate_bistellar(X) == cold(X)
    Y = apply_bistellar(X, state.listing(X, 0)[0])
    assert Y._moves is state and state.listing(Y, 0) == cold(Y)
