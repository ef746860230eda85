"""The bistellar move state that enumerate_bistellar caches and
apply_bistellar hands on, against the cold path and independent oracles."""
import copy
import pickle
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stellar.constructions import random_stacked_sphere
from stellar.core import Complex
from stellar.moves import (BistellarMove, MoveError, apply_bistellar,
                           enumerate_bistellar, replay_bistellar,
                           stellation_search)
from stellar.verify import brute_force_bistellar


def cold(X):
    """The moves of X from a fresh copy, which holds no move state."""
    return enumerate_bistellar(Complex(X.names, X.facets))


def from_facets_route(X, mv):
    """The result of ``mv`` built as apply_bistellar once built it: the
    facets off the star of alpha by name, in X's order, then the new
    facets, re-parsed by Complex.from_facets."""
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
        Y = apply_bistellar(X, mv)
        want = from_facets_route(X, mv)
        assert (Y.names, Y.facets) == (want.names, want.facets)
        X = Y
    return X


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
