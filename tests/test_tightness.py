"""Sigma/mu-vectors, Morse reports, tightness and the criterion battery."""
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stellar import tightness
from stellar.constructions import (corpus, cross_polytope,
                                   random_stacked_ball, random_stacked_sphere,
                                   standard_ball, standard_sphere)
from stellar.core import (Complex, _backtracking_isomorphic, _isomorphisms,
                          antistar, are_isomorphic, bits, join, link, mask_of)
from stellar.homology import (QQ, FieldSpec, _faces_by_dim, betti,
                              is_homology_sphere, reduced_betti_of_faces)
from stellar.moves import apply_bistellar, enumerate_bistellar, w_k_membership
from stellar.tightness import (BudgetError, _ball_closure, _byte_tables,
                               _class_sums, _component_tallies,
                               _subset_sums, criterion_battery,
                               is_tight, morse_report, mu_vector,
                               mu_via_pairs, p23_bounds, sigma_g_report,
                               sigma_vector)

Z2 = FieldSpec.prime(2)
ORACLE_FIELDS = (QQ, Z2, FieldSpec.prime(3))


def loop_table(X, field):
    """The subset loop, one homology run per vertex subset: the oracle for
    every path of ``_subset_sums``."""
    faces_by_dim = _faces_by_dim(X)
    sums = [[0] * (X.m + 1) for _ in range(X.dim + 1)]
    for amask in range(1 << X.m):
        induced = [[f for f in lst if not f & ~amask] for lst in faces_by_dim]
        for i, v in enumerate(reduced_betti_of_faces(induced, field, X.dim)):
            sums[i][amask.bit_count()] += v
    return sums


@st.composite
def moved_stacked_spheres(draw):
    """A random stacked 2- or 3-sphere on d + 3 to 10 vertices, followed by
    up to three random bistellar moves of positive index."""
    d = draw(st.sampled_from((2, 3)))
    X = random_stacked_sphere(d, draw(st.integers(d + 3, 10)),
                              seed=draw(st.integers(0, 10 ** 6)))
    for _ in range(draw(st.integers(0, 3))):
        moves = enumerate_bistellar(X)
        if not moves:  # the boundary of a simplex has none
            break
        X = apply_bistellar(X, draw(st.sampled_from(moves)))
    return X


@st.composite
def walked_stacked_balls(draw):
    """A random stacked 2- or 3-ball of 2 to 8 facets, followed by up to
    three random bistellar moves of positive index (all interior)."""
    d = draw(st.sampled_from((2, 3)))
    X = random_stacked_ball(d, draw(st.integers(2, 8)),
                            seed=draw(st.integers(0, 10 ** 6)))
    for _ in range(draw(st.integers(0, 3))):
        moves = enumerate_bistellar(X)
        if not moves:
            break
        X = apply_bistellar(X, draw(st.sampled_from(moves)))
    return X


def relabelled(X, rnd):
    """X with permuted vertex names, shuffled facets and shuffled vertices
    within each facet, so ``from_facets`` gives it new ids."""
    perm = list(X.names)
    rnd.shuffle(perm)
    rename = dict(zip(X.names, perm))
    facets = [[rename[n] for n in f] for f in X.facets_as_names()]
    for f in facets:
        rnd.shuffle(f)
    rnd.shuffle(facets)
    return Complex.from_facets(facets)


def per_link_mu(X, field):
    """The mu-vector from one sigma per vertex link, with no reuse."""
    d, m = X.dim, X.m
    mu = [Fraction(1)] + [Fraction(0)] * d
    if d >= 1:
        mu[1] = Fraction(1)
    for v in range(m):
        sig = sigma_vector(link(X, (v,)), field)
        for i in range(1, d + 1):
            if i - 1 < len(sig):
                mu[i] += Fraction(sig[i - 1], m)
    return tuple(mu)


def test_sigma_point():
    pt = Complex.from_facets([["v"]])
    assert sigma_vector(pt, QQ) == (Fraction(-1),)


def test_sigma_standard_spheres():
    # sigma_i = -delta_{i0} for i < d; sigma_d = 1
    for d in (1, 2, 3):
        sig = sigma_vector(standard_sphere(d), QQ)
        assert sig[0] == -1
        assert all(sig[i] == 0 for i in range(1, d))
        assert sig[d] == 1


def test_sigma_cross_polytope_closed_form():
    for d in (1, 2, 3, 4):
        sig = sigma_vector(cross_polytope(d), QQ)
        assert sig[0] == Fraction(-2 * d, 2 * d + 1)
        for i in range(1, d + 1):
            assert sig[i] == Fraction(comb(d + 1, i + 1), comb(2 * d + 2, 2 * i + 2))


def test_sigma_cap():
    with pytest.raises(BudgetError):
        sigma_vector(corpus()["S5_18"].complex, QQ)  # 18 > 16
    with pytest.raises(BudgetError):  # the duality and cone paths keep the cap
        sigma_vector(random_stacked_sphere(2, 17), QQ)
    with pytest.raises(BudgetError):
        sigma_vector(standard_ball(16), QQ)
    # override works on something small enough to force through
    x = cross_polytope(2)
    assert sigma_vector(x, QQ, cap=None) == sigma_vector(x, QQ)


def test_sigma_parallel_agrees(corp, monkeypatch):
    # M_2_4 has 2^12 subsets and 48 automorphisms: under the identity its
    # 4096 classes reach LARGE_LOOP, so jobs=2 runs the worker pool; its
    # 158 orbits reach it only with LARGE_LOOP lowered
    x = corp["M_2_4"].complex
    assert x.m >= 12 and x.dim > 3
    pooled = []
    real_map = tightness._map_jobs

    def spy(fn, tasks, jobs):
        pooled.append(jobs)
        return real_map(fn, tasks, jobs)

    monkeypatch.setattr(tightness, "_map_jobs", spy)
    identity = [tuple(range(x.m))]
    serial = _class_sums(x, QQ, identity, 1)
    assert _class_sums(x, QQ, identity, 2) == serial
    group = _isomorphisms(x, x, NO_BUDGET)
    assert len(group) == 48
    assert _class_sums(x, QQ, group, 2) == serial
    monkeypatch.setattr(tightness, "LARGE_LOOP", 100)
    assert _class_sums(x, QQ, group, 2) == serial
    assert pooled == [1, 2, 1, 2]
    monkeypatch.undo()
    assert _subset_sums(x, QQ) == serial
    assert _subset_sums(x, QQ, jobs=2) == serial


@settings(max_examples=40, deadline=None)
@given(moved_stacked_spheres(), st.sampled_from(ORACLE_FIELDS))
def test_duality_path_matches_loop(X, field):
    assert is_homology_sphere(X, field)
    assert _subset_sums(X, field) == loop_table(X, field)


@settings(max_examples=15, deadline=None)
@given(moved_stacked_spheres(), st.sampled_from(ORACLE_FIELDS))
def test_cone_path_matches_loop(S, field):
    X = join(S, Complex.from_facets([["apex"]]))
    assert _subset_sums(X, field) == loop_table(X, field)


def test_duality_path_on_poincare_sphere_links(corp):
    sig = corp["Sigma3_16"].complex
    links = [lk for lk in (link(sig, (v,)) for v in range(sig.m)) if lk.m <= 12]
    assert links
    for lk in links:
        for field in ORACLE_FIELDS:
            assert is_homology_sphere(lk, field)
            assert _subset_sums(lk, field) == loop_table(lk, field)


@pytest.mark.parametrize("name", ["standard_ball", "lutz_B2", "torus_7", "rp2_6"])
def test_gate_rejects_and_paths_agree(corp, name):
    X = standard_ball(3) if name == "standard_ball" else corp[name].complex
    for field in ORACLE_FIELDS:
        assert not is_homology_sphere(X, field)
        assert _subset_sums(X, field) == loop_table(X, field)


@settings(max_examples=40, deadline=None)
@given(walked_stacked_balls(), st.sampled_from(ORACLE_FIELDS))
def test_ball_path_matches_loop(X, field):
    assert is_homology_sphere(_ball_closure(X), field)
    assert _subset_sums(X, field) == loop_table(X, field)


@pytest.mark.parametrize("name", ["lutz_S2_8", "ziegler_S2_10", "lutz_S3_8",
                                  "ziegler_S3_10"])
def test_ball_path_on_antistars_and_cones(corp, name):
    S = corp[name].complex
    for v in (0, S.m - 1):
        ball = antistar(S, v)
        cone = join(ball, Complex.from_facets([["apex"]]))
        for field in ORACLE_FIELDS:
            assert not is_homology_sphere(ball, field)
            assert is_homology_sphere(_ball_closure(ball), field)
            assert _subset_sums(ball, field) == loop_table(ball, field)
            assert _subset_sums(cone, field) == loop_table(cone, field)


def test_ball_gate_rejects(corp):
    mobius = antistar(corp["rp2_6"].complex, 0)
    closure = _ball_closure(mobius)  # pure, with a boundary circle
    assert closure is not None and closure.m == mobius.m + 1
    nonpure = Complex.from_facets(["abc", "cde", "ea"])
    assert _ball_closure(nonpure) is None
    assert _ball_closure(corp["torus_7"].complex) is None  # no boundary
    assert _ball_closure(standard_ball(4)) is None  # dimension 4
    for field in ORACLE_FIELDS:
        assert not is_homology_sphere(closure, field)  # it is RP^2
        for X in (mobius, nonpure):
            assert _subset_sums(X, field) == loop_table(X, field)


def count_components(tables, amask):
    """Components of the graph induced on amask, flooded one subset at a
    time over ``_byte_tables`` of the neighbourhoods: the oracle of the
    bit-parallel tallies."""
    n = 0
    while amask:
        comp = amask & -amask
        while True:
            grown, s = comp, comp
            for table in tables:
                grown |= table[s & 255]
                s >>= 8
            grown &= amask
            if grown == comp:
                break
            comp = grown
        amask ^= comp
        n += 1
    return n


def flood_tallies(adj):
    n = len(adj)
    tables = _byte_tables(adj)
    avoid, contain = [0] * (n + 1), [0] * (n + 1)
    for amask in range(1 << n):
        side = contain if amask >> (n - 1) & 1 else avoid
        side[amask.bit_count()] += count_components(tables, amask)
    return avoid, contain


def adjacency(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 13))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from((0.1, 0.3, 0.6, 1.0)))
    rnd = draw(st.randoms(use_true_random=False))
    return adjacency(n, [e for e in pairs if rnd.random() < density])


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_component_tallies_match_flood_fill(adj):
    assert _component_tallies(adj) == flood_tallies(adj)


def forest_tallies(n, edges):
    """The tallies of a forest: components(A) = |A| - (edges inside A),
    summed over the k-subsets that avoid or contain the last vertex w."""
    at_w = sum(n - 1 in e for e in edges)
    rest = len(edges) - at_w

    def c(a, b):
        return comb(a, b) if 0 <= b <= a else 0

    avoid = [k * c(n - 1, k) - rest * c(n - 3, k - 2) for k in range(n + 1)]
    contain = [k * c(n - 1, k - 1) - at_w * c(n - 2, k - 2) - rest * c(n - 3, k - 3)
               for k in range(n + 1)]
    return avoid, contain


@pytest.mark.parametrize("n", [10, 15, 16, 17, 18])
def test_component_tallies_across_blocks(n):
    # from n = 15 on a block holds 2^14 masks and the vertices above are
    # fixed in it; forests and the complete graph have closed forms, which
    # the flood fill checks at n = 10
    order = list(range(n))
    random.Random(n).shuffle(order)
    graphs = {
        "empty": [],
        "path": [(order[i], order[i + 1]) for i in range(n - 1)],
        "path and isolated vertices": [(order[i], order[i + 1]) for i in range(n // 2)],
        "star": [(order[0], v) for v in order[1:]],
    }
    expected = {name: forest_tallies(n, edges) for name, edges in graphs.items()}
    graphs["complete"] = [(u, v) for u in range(n) for v in range(u + 1, n)]
    expected["complete"] = ([0] + [comb(n - 1, k) for k in range(1, n + 1)],
                            [0] + [comb(n - 1, k - 1) for k in range(1, n + 1)])
    for name, edges in graphs.items():
        adj = adjacency(n, edges)
        assert _component_tallies(adj) == expected[name], name
        if n <= 13:
            assert flood_tallies(adj) == expected[name], name


def test_component_tallies_memory_is_one_block():
    # a mask set over all 2^18 subsets would take 32 KiB per int; the
    # blocks keep every int at 2^14 bits (2 KiB), so the peak stays far
    # below one 2^18-bit int per vertex (18 * 32 KiB)
    n = 18
    complete = adjacency(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    _component_tallies(adjacency(n, []))  # fill the cache of the block sets
    tracemalloc.start()
    try:
        _component_tallies(complete)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


NO_BUDGET = 1 << 60


def renamed(X, prefix):
    return Complex.from_facets([[prefix + n for n in f]
                                for f in X.facets_as_names()])


def _orbit_pool():
    c = corpus()
    torus, rp2 = c["torus_7"].complex, c["rp2_6"].complex
    apex = Complex.from_facets([["apex"]])
    return [torus, rp2, cross_polytope(2), cross_polytope(3),
            join(renamed(cross_polytope(1), "a"), renamed(rp2, "b")),
            join(renamed(standard_sphere(1), "a"), renamed(standard_sphere(2), "b")),
            join(rp2, apex),  # a cone: a pseudomanifold with boundary
            c["lutz_S3_8"].complex, c["lutz_B2"].complex]


ORBIT_POOL = _orbit_pool()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(range(len(ORBIT_POOL))), st.sampled_from(ORACLE_FIELDS),
       st.randoms(use_true_random=False))
def test_orbit_path_matches_loop(i, field, rnd):
    X = relabelled(ORBIT_POOL[i], rnd)
    group = _isomorphisms(X, X, NO_BUDGET)
    assert group
    assert _class_sums(X, field, group, 1) == loop_table(X, field)


@settings(max_examples=30, deadline=None)
@given(moved_stacked_spheres(), st.sampled_from(ORACLE_FIELDS))
def test_orbit_path_matches_loop_on_stacked_spheres(X, field):
    group = _isomorphisms(X, X, NO_BUDGET)  # mostly the identity alone
    assert _class_sums(X, field, group, 1) == loop_table(X, field)


@pytest.mark.parametrize("name, order", [("M_1_4", 24), ("M_2_4", 48),
                                         ("Mbar_2_4", 24)])
def test_orbit_path_matches_loop_on_sign_change_manifolds(corp, name, order):
    for seed, field in enumerate(ORACLE_FIELDS):
        X = relabelled(corp[name].complex, random.Random(seed))
        group = _isomorphisms(X, X, NO_BUDGET)
        assert len(group) == order
        assert _class_sums(X, field, group, 1) == loop_table(X, field)


def brute_force_automorphisms(X):
    facets = set(X.facet_masks)
    return {perm for perm in permutations(range(X.m))
            if all(mask_of(perm[v] for v in bits(f)) in facets
                   for f in X.facet_masks)}


@pytest.mark.parametrize("name, order", [("torus_7", 42), ("rp2_6", 60),
                                         ("cross_polytope_3", 384),
                                         ("lutz_S3_8", None)])
def test_automorphisms_match_brute_force(corp, name, order):
    X = cross_polytope(3) if name == "cross_polytope_3" else corp[name].complex
    X = relabelled(X, random.Random(0))
    group = _isomorphisms(X, X, NO_BUDGET)
    assert len(set(group)) == len(group)
    assert set(group) == brute_force_automorphisms(X)
    if order is not None:
        assert len(group) == order
    facets = set(X.facet_masks)
    for g in group:
        assert {mask_of(g[v] for v in bits(f)) for f in X.facet_masks} == facets
    closure = {tuple(g[h[v]] for v in range(X.m)) for g in group for h in group}
    assert closure == set(group)


def test_automorphisms_need_strongly_connected_pseudomanifold_and_budget(corp):
    for facets in (["123", "345"],               # two facets on a vertex
                   ["123", "124", "125"],        # a ridge on three facets
                   ["123", "34"]):               # not pure
        X = Complex.from_facets(facets)
        assert _isomorphisms(X, X, NO_BUDGET) is None
    empty = Complex.empty()
    assert _isomorphisms(empty, empty, NO_BUDGET) is None
    simplex = Complex.from_facets(["123"])
    assert len(_isomorphisms(simplex, simplex, NO_BUDGET)) == 6
    X = corp["M_2_4"].complex
    assert _isomorphisms(X, X, 8 << X.m) is not None
    cp5 = cross_polytope(5)
    assert _isomorphisms(cp5, cp5, 8 << 12) is None  # |Aut| = 46,080
    assert len(_isomorphisms(cp5, cp5, 8 << 12, first=True)) == 1


def test_subset_sums_path_by_homology_runs(corp, monkeypatch):
    runs = []
    real = tightness.reduced_betti_of_faces

    def counting(*args):
        runs.append(1)
        return real(*args)

    monkeypatch.setattr(tightness, "reduced_betti_of_faces", counting)
    for X, expected in ((corp["M_2_4"].complex, 158),   # orbit path
                        (cross_polytope(5), 4096),      # budget spent: loop
                        (corp["torus_7"].complex, 128)):  # m < 12: loop
        runs.clear()
        sigma_vector(X, QQ)
        assert len(runs) == expected


def _form_pool():
    pool = []
    for seed in range(4):
        X = random_stacked_sphere(2, 7, seed=seed)
        pool += [X, apply_bistellar(X, enumerate_bistellar(X)[seed])]
        pool.append(random_stacked_sphere(3, 7, seed=seed))
        pool.append(random_stacked_ball(2, 4, seed=seed))
    return pool + [cross_polytope(2), Complex.from_facets(
        ["12", "23", "34", "45", "56", "61"])]


FORM_POOL = _form_pool()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(FORM_POOL))),
       st.sampled_from(range(len(FORM_POOL))),
       st.randoms(use_true_random=False))
def test_isomorphisms_decide_isomorphism(i, j, rnd):
    X, Y = relabelled(FORM_POOL[i], rnd), relabelled(FORM_POOL[j], rnd)
    found = _isomorphisms(X, Y, NO_BUDGET, first=True)
    assert bool(found) == _backtracking_isomorphic(X, Y) == are_isomorphic(X, Y)
    if found:
        image = {mask_of(found[0][v] for v in bits(f)) for f in X.facet_masks}
        assert image == set(Y.facet_masks)


def test_are_isomorphic_ignores_recursion_limit():
    X = random_stacked_sphere(3, 150, seed=2)
    Y = relabelled(X, random.Random(1))
    Z = relabelled(random_stacked_sphere(3, 150, seed=3), random.Random(1))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)  # far below the 150 vertices
    try:
        assert are_isomorphic(X, Y)
        assert not are_isomorphic(X, Z)
    finally:
        sys.setrecursionlimit(limit)


def test_canonical_form_needs_strongly_connected_pseudomanifold():
    # the isomorphism search that replaced the canonical form keeps its
    # domain: a pure, strongly connected weak pseudomanifold
    for facets in (["123", "345"],               # two facets on a vertex
                   ["123", "124", "125"],        # a ridge on three facets
                   ["123", "34"]):               # not pure
        X = Complex.from_facets(facets)
        assert _isomorphisms(X, X, NO_BUDGET, first=True) is None
        assert _isomorphisms(X, standard_sphere(1), NO_BUDGET) is None
    empty = Complex.empty()
    assert _isomorphisms(empty, empty, NO_BUDGET, first=True) is None
    simplex = Complex.from_facets(["123"])
    assert len(_isomorphisms(simplex, simplex, NO_BUDGET, first=True)) == 1


def _mu_inputs():
    c = corpus()
    names = ("torus_7", "rp2_6", "lutz_S3_8", "lutz_B2")
    return [c[n].complex for n in names] + [
        cross_polytope(2), random_stacked_sphere(3, 8, seed=2),
        Complex.from_facets(["abc", "cde", "ea"])]


MU_INPUTS = _mu_inputs()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(range(len(MU_INPUTS))), st.sampled_from(ORACLE_FIELDS),
       st.randoms(use_true_random=False))
def test_mu_link_reuse_matches_per_link_sum(i, field, rnd):
    X = relabelled(MU_INPUTS[i], rnd)
    assert mu_vector(X, field) == per_link_mu(X, field)


def test_mu_one_sigma_for_isomorphic_links(corp, monkeypatch):
    calls = []
    real = tightness.sigma_vector

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(tightness, "sigma_vector", counting)
    mu = mu_vector(corp["S3_16"].complex, Z2)  # vertex-transitive under Z_16
    assert len(calls) == 1
    assert mu == (1, Fraction(577, 105), Fraction(577, 105), 1)
    # vertex-transitive too: 12, 14 and 7 isomorphic links
    for X in (cross_polytope(5), corp["M_2_5"].complex, corp["torus_7"].complex):
        calls.clear()
        mu_vector(X, Z2)
        assert len(calls) == 1
    calls.clear()
    mu_vector(corp["Sigma3_16"].complex, Z2)
    assert len(calls) <= 9
    calls.clear()
    mu_vector(corp["B4_16"].complex, Z2)  # 16 pairwise non-isomorphic links
    assert len(calls) == 16


def test_mu_standard_spheres():
    for d in (1, 2, 3, 4):
        mu = mu_vector(standard_sphere(d), QQ)
        assert mu == (Fraction(1),) + (Fraction(0),) * (d - 1) + (Fraction(1),)


def test_mu_standard_ball():
    mu = mu_vector(standard_ball(3), QQ)
    assert mu == (1, 0, 0, 0)


def test_mu_torus_and_pairs(corp):
    tor = corp["torus_7"].complex
    assert mu_vector(tor, QQ) == (1, 2, 1)
    assert mu_via_pairs(tor, QQ) == (1, 2, 1)


def test_mu_pairs_needs_two_neighbourly():
    c4 = Complex.from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    with pytest.raises(Exception):
        mu_via_pairs(c4, QQ)


def test_mu_pairs_equals_mu_small(corp):
    for X in (standard_sphere(1), standard_sphere(2), standard_sphere(3),
              corp["rp2_6"].complex, corp["lutz_S3_8"].complex):
        for fld in (QQ, Z2):
            assert mu_via_pairs(X, fld) == mu_vector(X, fld), str(fld)


def test_morse_report_cross_polytope_fails_strong():
    # not 2-neighbourly: alternating sum = (2d+1)/(2d+2) * chi(S^d)
    for d in (2, 4):
        rep = morse_report(cross_polytope(d), QQ)
        assert rep.verdict == "not-applicable"
        assert rep.morse_slack[d] == Fraction(2 * d + 1, 2 * d + 2) * 2 - 2
        assert rep.morse_slack[d] < 0  # strong Morse fails at the top index
        assert rep.duality_ok  # yet mu is self-dual here
    rep = morse_report(cross_polytope(3), QQ)
    assert rep.morse_slack[3] == 0  # chi(S^3) = 0 hides the failure


def test_morse_report_two_neighbourly(corp):
    for name in ("torus_7", "rp2_6", "lutz_S3_8"):
        X = corp[name].complex
        for fld in (QQ, Z2):
            rep = morse_report(X, fld)
            assert all(s >= 0 for s in rep.morse_slack)
            assert rep.morse_slack[X.dim] == 0
            assert rep.weak_ok


def test_morse_duality_orientable(corp):
    rep = morse_report(corp["torus_7"].complex, QQ)
    assert rep.duality_ok and rep.verdict == "tight"
    rep = morse_report(corp["rp2_6"].complex, Z2)
    assert rep.duality_ok and rep.verdict == "tight"
    rep = morse_report(corp["rp2_6"].complex, QQ)
    assert rep.duality_ok is None and rep.verdict == "not-tight"


def test_mureport_json(corp):
    rep = morse_report(corp["torus_7"].complex, QQ)
    data = rep.to_json_dict()
    assert data["verdict"] == "tight"
    assert data["mu"] == ["1", "2", "1"]
    assert data["field"] == "Q"


def test_tight_spheres_both_modes():
    for d in (1, 2, 3):
        s = standard_sphere(d)
        assert is_tight(s, QQ, "direct").tight
        assert is_tight(s, QQ, "p18").tight


def test_tight_witness():
    c4 = Complex.from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    res = is_tight(c4, QQ, "direct")
    assert not res.tight
    assert res.witness == (("1", "3"), 0)


def test_p18_refutes_disconnected_inputs_by_neighbourliness():
    # f_1 = C(m, 2) makes the 1-skeleton complete, so the p18 mode needs
    # no connectivity test of its own
    two_spheres = Complex.from_facets(
        [[a, b, c] for a, b, c in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))]
        + [[a + 4, b + 4, c + 4] for a, b, c in ((1, 2, 3), (1, 2, 4),
                                                  (1, 3, 4), (2, 3, 4))])
    two_points = Complex.from_facets([[1], [2]])
    for X in (two_spheres, two_points, Complex.empty()):
        for fld in (QQ, Z2):
            assert is_tight(X, fld, "p18") == tightness.TightnessResult(False, "p18")


def test_tight_modes_agree(corp):
    for name in ("torus_7", "rp2_6", "lutz_S2_8", "M_1_2"):
        X = corp[name].complex
        for fld in (QQ, Z2):
            assert is_tight(X, fld, "direct").tight == \
                is_tight(X, fld, "p18").tight, (name, str(fld))


# is_tight(mode="direct") on every corpus entry with at most 10 vertices:
# the witness (vertex names, degree) over Q, Z2 and Z3, or None where the
# complex is tight; recorded with the earlier form of the inclusion test,
# which intersected a cycle basis with the boundaries
DIRECT_WITNESSES = {
    "M_1_2": (("x1", "y1"), 0), "M_1_3": (("x1", "y1"), 0),
    "Mbar_1_2": (("x1", "y1"), 0), "Mbar_1_3": (("x1", "y1"), 0),
    "lutz_B1": (("1", "5"), 0), "lutz_B2": (("2", "3", "4"), 1),
    "lutz_S2_8": (("2", "3", "4"), 1), "lutz_S3_8": (("1", "2", "5"), 1),
    "rp2_6": (("1", "2", "4"), 1), "torus_7": None,
    "ziegler_B1": (("0", "4"), 0), "ziegler_B2": (("1", "2", "3"), 1),
    "ziegler_S2_10": (("1", "2", "3"), 1), "ziegler_S3_10": (("0", "4"), 0),
}


def test_tight_direct_pinned_on_corpus(corp):
    small = sorted(name for name, e in corp.items() if e.complex.m <= 10)
    assert small == sorted(DIRECT_WITNESSES)
    for name in small:
        for fld in ORACLE_FIELDS:
            expect = DIRECT_WITNESSES[name]
            if name == "rp2_6" and fld == Z2:
                expect = None  # RP^2 is Z2-tight
            res = is_tight(corp[name].complex, fld, "direct")
            assert (res.tight, res.witness) == (expect is None, expect), \
                (name, str(fld))


def test_tight_direct_cap():
    with pytest.raises(BudgetError):
        is_tight(corpus()["S3_16"].complex, QQ, "direct")


def test_sigma_g_report_stacked_spheres():
    s = random_stacked_sphere(2, 6, seed=1)
    lines = sigma_g_report(s, 1, QQ, certified=True)
    assert all(l.status == "holds" for l in lines)
    lines = sigma_g_report(s, 1, QQ, certified=False)
    assert lines[0].status == "not-applicable"


def test_sigma_g_report_kn_link(corp):
    lk = link(corp["M_2_4"].complex, (0,))
    lines = sigma_g_report(lk, 2, QQ, certified=True)
    assert all(l.status == "holds" for l in lines)


def test_p23_bounds_m14(corp):
    m14 = corp["M_1_4"].complex
    beta1 = betti(m14, Z2).beta[1]
    assert beta1 == 1
    assert all(fj == bound for _, fj, bound in p23_bounds(m14, beta1))


def test_battery_torus(corp):
    tor = corp["torus_7"].complex
    assert w_k_membership(tor, 1).certified
    lines = {l.prop: l for l in criterion_battery(tor, 1, QQ, wk_certified=True)}
    assert lines["P22a"].status == "holds"
    assert lines["L10"].status == "holds"
    assert lines["L9"].status == "holds"
    assert lines["P20a"].status == "holds"
    assert lines["P20c"].status == "holds"


def test_battery_m14(corp):
    m14 = corp["M_1_4"].complex
    lines = {l.prop: l for l in criterion_battery(m14, 1, QQ, wk_certified=True)}
    assert lines["P23a"].status == "equality"
    assert lines["P23b"].status == "holds"      # strict: not 2-neighbourly
    assert lines["P20"].status == "not-applicable"


def test_battery_m24(corp):
    # M(2,4) is in W_2(4) but not 2-neighbourly (the diagonals are
    # missing), so the neighbourly criteria report not-applicable; the
    # general lower bound holds strictly (its equality case is W_1)
    m24 = corp["M_2_4"].complex
    lines = {l.prop: l for l in criterion_battery(m24, 2, Z2, wk_certified=True)}
    assert lines["P23a"].status == "holds"
    assert lines["P20"].status == "not-applicable"
    assert lines["P21"].status == "not-applicable"
