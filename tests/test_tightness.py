"""Sigma/mu-vectors, Morse reports, tightness and the criterion battery."""
import os
import random
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import comb, factorial
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stellar import tightness
from stellar.constructions import (corpus, cross_polytope,
                                   random_stacked_ball, random_stacked_sphere,
                                   standard_ball, standard_sphere)
from stellar.core import (Complex, RangeError, _automorphism_generators,
                          _face_counts,
                          _isomorphism, _maximal, _rebuild, antistar,
                          are_isomorphic, bits, ids_of, join, link, mask_of,
                          submasks)
from stellar.homology import (QQ, FieldSpec, _faces_by_dim, betti,
                              is_homology_sphere, reduced_betti_of_faces)
from stellar.moves import apply_bistellar, enumerate_bistellar, w_k_membership
from stellar.tightness import (BudgetError, _ball_closure, _byte_tables,
                               _class_sums, _component_tallies,
                               _subset_sums, criterion_battery,
                               is_tight, morse_report, mu_vector,
                               mu_via_pairs, p23_bounds, sigma_g_report,
                               sigma_vector)
from stellar.vectors import w_k_gvector_relations

Z2 = FieldSpec.prime(2)
ORACLE_FIELDS = (QQ, Z2, FieldSpec.prime(3))


def loop_table(X, field):
    """The subset loop, one homology run per vertex subset: the oracle for
    every path of ``_subset_sums``."""
    faces_by_dim = _faces_by_dim(X)
    sums = [[0] * (X.m + 1) for _ in range(X.dim + 1)]
    for amask in range(1 << X.m):
        induced = [[f for f in lst if not f & ~amask] for lst in faces_by_dim]
        for i, v in enumerate(reduced_betti_of_faces(induced, field)):
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


def relabelling(X, rnd):
    """X with permuted vertex names, shuffled facets and shuffled vertices
    within each facet, so ``from_facets`` gives it new ids, and the list
    of the ids it gives X's vertices: an isomorphism from X onto it."""
    perm = list(X.names)
    rnd.shuffle(perm)
    rename = dict(zip(X.names, perm))
    facets = [[rename[n] for n in f] for f in X.facets_as_names()]
    for f in facets:
        rnd.shuffle(f)
    rnd.shuffle(facets)
    Y = Complex.from_facets(facets)
    return Y, [Y.id_of(rename[n]) for n in X.names]


def relabelled(X, rnd):
    return relabelling(X, rnd)[0]


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
    # M_2_4 has 2^12 subsets and 48 automorphisms: with no generators its
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
    serial = _class_sums(x, QQ, [], 1)
    assert _class_sums(x, QQ, [], 2) == serial
    gens = _automorphism_generators(x)
    assert len(generated(gens, x.m)) == 48
    assert _class_sums(x, QQ, gens, 2) == serial
    monkeypatch.setattr(tightness, "LARGE_LOOP", 100)
    assert _class_sums(x, QQ, gens, 2) == serial
    assert pooled == [1, 2, 1, 2]
    monkeypatch.undo()
    assert _subset_sums(x, QQ) == serial
    assert _subset_sums(x, QQ, jobs=2) == serial


def test_sigma_jobs_refused_below_one_and_capped(corp, monkeypatch,
                                                  stub_pool_sizes):
    """jobs < 1 is refused before any work, whether or not the classes
    reach LARGE_LOOP; above the CPU count it is cut to it, so the 8,192
    classes of this 4-sphere go to 4 * 2 chunks and a pool of 2, where 64
    would ask for 64 workers.  The stub pool maps in this process."""
    X = random_stacked_sphere(4, 13, seed=0)
    for Y in (X, corp["torus_7"].complex):
        for jobs in (0, -1):
            with pytest.raises(RangeError, match="jobs must be at least 1"):
                sigma_vector(Y, QQ, jobs=jobs)
    assert stub_pool_sizes == []
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert sigma_vector(X, Z2, jobs=64) == sigma_vector(X, Z2)
    assert stub_pool_sizes == [2]


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


def _across(masks):
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


def _walk(masks, across):
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


def flag_automorphisms(X, budget):
    """Aut(X) as vertex maps (perm[v] is the image of vertex v) when X is
    a pure, strongly connected weak pseudomanifold other than {∅}; None
    for any other X, or once the search has cost more than ``budget``
    steps: the flag search the library used before its generator search,
    kept as the oracle of ``_automorphism_generators``.

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
    across = _across(X.facet_masks) if X.is_pure() else None
    walk = None if across is None else _walk(X.facet_masks, across)
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


def generated(gens, m):
    """The group that the vertex maps ``gens`` on m vertices generate, as
    a set of tuples, closed from the identity."""
    identity = tuple(range(m))
    group, todo = {identity}, [identity]
    while todo:
        h = todo.pop()
        for g in gens:
            gh = tuple(g[v] for v in h)
            if gh not in group:
                group.add(gh)
                todo.append(gh)
    return group


def checked_group(X):
    """The group that ``_automorphism_generators(X)`` generates, after a
    check that each generator is a bijection that carries the facets of X
    onto its facets."""
    gens = _automorphism_generators(X)
    facets = set(X.facet_masks)
    for g in gens:
        assert sorted(g) == list(range(X.m))
        assert {mask_of(g[v] for v in bits(f)) for f in X.facet_masks} == facets
    return generated(gens, X.m)


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
    gens = _automorphism_generators(X)
    assert gens
    assert _class_sums(X, field, gens, 1) == loop_table(X, field)


@settings(max_examples=30, deadline=None)
@given(moved_stacked_spheres(), st.sampled_from(ORACLE_FIELDS))
def test_orbit_path_matches_loop_on_stacked_spheres(X, field):
    gens = _automorphism_generators(X)  # mostly none
    assert _class_sums(X, field, gens, 1) == loop_table(X, field)


@pytest.mark.parametrize("name, order", [("M_1_4", 24), ("M_2_4", 48),
                                         ("Mbar_2_4", 24)])
def test_orbit_path_matches_loop_on_sign_change_manifolds(corp, name, order):
    for seed, field in enumerate(ORACLE_FIELDS):
        X = relabelled(corp[name].complex, random.Random(seed))
        gens = _automorphism_generators(X)
        assert len(generated(gens, X.m)) == order
        assert _class_sums(X, field, gens, 1) == loop_table(X, field)


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
    group = checked_group(X)
    assert group == brute_force_automorphisms(X)
    assert group == set(flag_automorphisms(X, NO_BUDGET))
    if order is not None:
        assert len(group) == order


def test_generators_need_no_pseudomanifold(corp):
    # the flag search served only pure, strongly connected weak
    # pseudomanifolds other than {∅}; the generator search takes any complex
    for facets in (["123", "345"],               # two facets on a vertex
                   ["123", "124", "125"],        # a ridge on three facets
                   ["123", "34"]):               # not pure
        X = Complex.from_facets(facets)
        assert flag_automorphisms(X, NO_BUDGET) is None
        assert checked_group(X) == brute_force_automorphisms(X)
    empty = Complex.empty()
    assert _automorphism_generators(empty) == []
    assert checked_group(empty) == brute_force_automorphisms(empty) == {()}
    simplex = Complex.from_facets(["123"])
    assert checked_group(simplex) == brute_force_automorphisms(simplex)
    assert len(checked_group(simplex)) == 6


def test_generators_of_cross_polytopes():
    # the boundary of the (d+1)-dimensional cross polytope has the
    # hyperoctahedral group, of order 2^(d+1) (d+1)!; 46,080 for d = 5
    for d in range(1, 6):
        X = relabelled(cross_polytope(d), random.Random(d))
        assert len(checked_group(X)) == 2 ** (d + 1) * factorial(d + 1)


@pytest.mark.parametrize("name", ["M_1_4", "M_2_4", "Mbar_2_4", "M_2_5",
                                  "Mbar_2_5", "S3_16", "B4_16", "Sigma3_16",
                                  "torus_7", "rp2_6", "lutz_S3_8",
                                  "cross_polytope_3", "cross_polytope_4"])
def test_generators_match_flag_search_on_corpus(corp, name):
    X = (cross_polytope(int(name[-1])) if name.startswith("cross")
         else corp[name].complex)
    X = relabelled(X, random.Random(1))
    assert checked_group(X) == set(flag_automorphisms(X, NO_BUDGET))


def test_subset_sums_path_by_homology_runs(corp, monkeypatch):
    runs = []
    real = tightness.reduced_betti_of_faces

    def counting(*args):
        runs.append(1)
        return real(*args)

    monkeypatch.setattr(tightness, "reduced_betti_of_faces", counting)
    for X, expected in ((corp["M_2_4"].complex, 158),   # 48 automorphisms
                        (cross_polytope(5), 28),        # 46,080 automorphisms
                        (corp["torus_7"].complex, 10)):  # 42 automorphisms
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


def backtracking_isomorphic(X, Y):
    """Decide isomorphism by backtracking on vertex bijections, one level
    of recursion per vertex (small complexes only): the oracle of
    ``are_isomorphic``."""
    if X.m != Y.m or X.dim != Y.dim:
        return False
    if [X.n_faces(t) for t in range(X.dim + 1)] != [Y.n_faces(t) for t in range(Y.dim + 1)]:
        return False

    def invariants(Z):
        return [tuple(sum(1 for f in Z.faces_of_dim(t) if f >> v & 1)
                      for t in range(1, Z.dim + 1)) for v in range(Z.m)]

    inv_x, inv_y = invariants(X), invariants(Y)
    if sorted(inv_x) != sorted(inv_y):
        return False
    y_facets = set(Y.facet_masks)
    order = sorted(range(X.m), key=lambda v: (inv_x.count(inv_x[v]), v))
    assign = {}
    used = [False] * Y.m

    def feasible(xv, yv):
        if inv_x[xv] != inv_y[yv]:
            return False
        # every X-edge between assigned vertices must map to a Y-edge
        ex = X.faces_of_dim(1)
        ey = Y.faces_of_dim(1)
        for u, yu in assign.items():
            if (mask_of((u, xv)) in ex) != (mask_of((yu, yv)) in ey):
                return False
        return True

    def extend(k):
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


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(FORM_POOL))),
       st.integers(1, len(FORM_POOL) - 1),
       st.randoms(use_true_random=False))
def test_are_isomorphic_matches_backtracking_across_form_pool(i, shift, rnd):
    # two different entries of the pool, which isomorphism_pairs never pairs
    j = (i + shift) % len(FORM_POOL)
    X, Y = relabelled(FORM_POOL[i], rnd), relabelled(FORM_POOL[j], rnd)
    assert are_isomorphic(X, Y) == backtracking_isomorphic(X, Y)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(ORBIT_POOL + FORM_POOL))),
       st.randoms(use_true_random=False))
def test_generators_match_flag_search_on_pools(i, rnd):
    X = relabelled((ORBIT_POOL + FORM_POOL)[i], rnd)
    group = checked_group(X)
    assert group == set(flag_automorphisms(X, NO_BUDGET))
    if X.m <= 7:  # lutz_S3_8's eight vertices are brute-forced above
        assert group == brute_force_automorphisms(X)


def assert_isomorphism(X, Y, image, fixed):
    """``image`` is a bijection from X's vertices onto Y's that carries the
    facets of X onto those of Y and maps x to y for each pair of ``fixed``."""
    assert sorted(image) == list(range(Y.m))
    assert {mask_of(image[v] for v in bits(f)) for f in X.facet_masks} \
        == set(Y.facet_masks)
    assert all(image[x] == y for x, y in fixed)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(FORM_POOL))),
       st.integers(0, len(FORM_POOL) - 1),
       st.randoms(use_true_random=False))
def test_isomorphism_map_matches_backtracking(i, shift, rnd):
    # shift 0 gives two labellings of one entry
    j = (i + shift) % len(FORM_POOL)
    X, Y = relabelled(FORM_POOL[i], rnd), relabelled(FORM_POOL[j], rnd)
    image = _isomorphism(X, Y)
    assert (image is None) == (not backtracking_isomorphic(X, Y))
    if image is not None:
        assert_isomorphism(X, Y, image, ())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(FORM_POOL))), st.integers(0, 3),
       st.booleans(), st.randoms(use_true_random=False))
def test_isomorphism_honours_fixed_pairs(i, k, kept, rnd):
    # the isomorphisms from X onto Y = pi(X) are pi g for g in Aut(X),
    # which the flag search lists; the pairs are drawn from one of them
    # when ``kept``, and at random otherwise
    X = relabelled(FORM_POOL[i], rnd)
    Y, pi = relabelling(X, rnd)
    group = flag_automorphisms(X, NO_BUDGET)
    xs = rnd.sample(range(X.m), k)
    if kept:
        g = rnd.choice(group)
        ys = [pi[g[x]] for x in xs]
    else:
        ys = rnd.sample(range(Y.m), k)
    fixed = list(zip(xs, ys))
    image = _isomorphism(X, Y, fixed)
    assert (image is not None) == any(all(pi[g[x]] == y for x, y in fixed)
                                      for g in group)
    if image is not None:
        assert_isomorphism(X, Y, image, fixed)


def _graph(edges):
    return Complex.from_facets([e.split() for e in edges])


# regular graphs, on which refinement splits no colour and the search
# has to branch: a hexagon and two triangles, K_{3,3} and the prism, the
# cube and the Moebius ladder on eight vertices
REGULAR = [_graph(["1 2", "2 3", "3 4", "4 5", "5 6", "6 1"]),
           _graph(["1 2", "2 3", "3 1", "4 5", "5 6", "6 4"]),
           _graph(["1 4", "1 5", "1 6", "2 4", "2 5", "2 6", "3 4", "3 5", "3 6"]),
           _graph(["1 2", "2 3", "3 1", "4 5", "5 6", "6 4", "1 4", "2 5", "3 6"]),
           _graph([f"{a} {a ^ b}" for a in range(8) for b in (1, 2, 4) if a < a ^ b]),
           _graph([f"{a} {(a + 1) % 8}" for a in range(8)]
                  + [f"{a} {a + 4}" for a in range(4)])]


POINTS = [Complex.from_facets(["a"]), Complex.from_facets(["a", "b"])]


@st.composite
def isomorphism_pairs(draw):
    """A complex X and a complex Y that is X, or X with one vertex of one
    facet replaced.  X is drawn on 3-8 vertices from up to eight vertex
    sets of at most two or at most four vertices (graphs, and non-pure
    and disconnected complexes), or taken from the pseudomanifolds of
    FORM_POOL, the regular graphs of REGULAR or the point and two points
    of POINTS."""
    kind = draw(st.sampled_from(("graph", "complex", "pool")))
    if kind == "pool":
        X = draw(st.sampled_from(FORM_POOL + REGULAR + POINTS))
    else:
        m = draw(st.integers(3, 8))
        sets = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1,
                                     max_size=2 if kind == "graph" else 4),
                             min_size=1, max_size=8))
        X = _rebuild([str(v) for v in range(m)], _maximal(map(mask_of, sets)))
    masks = list(X.facet_masks)
    i = draw(st.integers(0, len(masks) - 1))
    others = [u for u in range(X.m) if not masks[i] >> u & 1]
    if others and draw(st.booleans()):
        v = draw(st.sampled_from(list(bits(masks[i]))))
        masks[i] ^= 1 << v | 1 << draw(st.sampled_from(others))
    return X, _rebuild(X.names, _maximal(masks))


@settings(max_examples=150, deadline=None)
@given(isomorphism_pairs(), st.randoms(use_true_random=False))
def test_are_isomorphic_matches_backtracking(pair, rnd):
    X, Y = relabelled(pair[0], rnd), relabelled(pair[1], rnd)
    assert are_isomorphic(X, Y) == backtracking_isomorphic(X, Y)


def test_are_isomorphic_below_three_vertices():
    # isomorphism_pairs draws no {∅} and no edge on m <= 2, where the start
    # from degrees and the stop at m colours meet their edge cases; {∅}
    # cannot be relabelled, as from_facets refuses an empty facet
    small = [Complex.empty(), *POINTS, Complex.from_facets(["ab"])]
    for X in small:
        for Y in small:
            assert are_isomorphic(X, Y) == backtracking_isomorphic(X, Y)


def test_are_isomorphic_on_regular_graphs():
    rnd = random.Random(4)
    for i, X in enumerate(REGULAR):
        for j, Y in enumerate(REGULAR):
            assert are_isomorphic(X, relabelled(Y, rnd)) == (i == j)


def test_generators_on_regular_graphs():
    # refinement splits no colour of a regular graph, so every level
    # branches: the dihedral groups of the hexagon (12) and the Moebius
    # ladder (16), the wreath product of two triangles (72), K_{3,3} (72),
    # the prism (12) and the cube (48)
    for X, order in zip(REGULAR, (12, 72, 72, 12, 48, 16)):
        X = relabelled(X, random.Random(order))
        assert len(checked_group(X)) == order


def comb_graph(teeth, long_tooth=None):
    """A path on ``teeth`` vertices with a pendant edge at each vertex,
    and a second edge on the tooth at ``long_tooth``."""
    edges = [(f"p{i}", f"p{i + 1}") for i in range(teeth - 1)]
    edges += [(f"p{i}", f"t{i}") for i in range(teeth)]
    if long_tooth is not None:
        edges.append((f"t{long_tooth}", "end"))
    return Complex.from_facets(edges)


def test_are_isomorphic_ignores_recursion_limit():
    rnd = random.Random(1)
    X = random_stacked_sphere(3, 150, seed=2)
    Z = random_stacked_sphere(3, 150, seed=3)
    # combs are trees, not pseudomanifolds; the two long teeth ten path
    # vertices apart give both combs the same vertex degrees
    C, D = comb_graph(100, 10), comb_graph(100, 20)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)  # far below the 150 and 201 vertices
    try:
        assert are_isomorphic(X, relabelled(X, rnd))
        assert not are_isomorphic(X, relabelled(Z, rnd))
        assert are_isomorphic(relabelled(C, rnd), relabelled(C, rnd))
        assert not are_isomorphic(relabelled(C, rnd), relabelled(D, rnd))
    finally:
        sys.setrecursionlimit(limit)


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
    assert len(calls) == 9
    calls.clear()
    # the links of a and e, an edge and a point, are not pure
    mu_vector(Complex.from_facets(["abc", "cde", "ea"]), Z2)
    assert len(calls) == 3
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


def test_tight_modes_agree_on_small_inputs():
    """A point has a complete 1-skeleton, so P18 applies to it, and it is
    tight: mu = beta = (1,).  {∅} stays refuted by the p18 mode (above)
    and is tight in the direct mode, which has no inclusion to test."""
    inputs = [(standard_ball(d), True) for d in range(4)]
    inputs += [(Complex.from_facets(["ab"]), True),
               (Complex.from_facets(["a", "b"]), False),
               (standard_sphere(1), True)]
    for X, tight in inputs:
        for fld in (QQ, Z2):
            for mode in ("direct", "p18"):
                assert is_tight(X, fld, mode).tight == tight, \
                    (X.facets_as_names(), str(fld), mode)
    point = standard_ball(0)
    assert is_tight(point, QQ, "p18") == tightness.TightnessResult(
        True, "p18", None, (1,), (1,))
    assert morse_report(point, Z2).verdict == "tight"
    # W_1's characterization reads 2-neighbourliness by the same gate
    assert "P22a: holds (tight=True, 2-neighbourly and orientable=True)" in \
        map(str, criterion_battery(point, 1, QQ, wk_certified=True))
    for fld in (QQ, Z2):
        assert is_tight(Complex.empty(), fld, "direct").tight is True


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


@pytest.mark.parametrize("X, k", [
    (standard_sphere(2), -2), (standard_sphere(2), -1),
    (standard_sphere(2), 3), (Complex.empty(), 0)])
def test_out_of_range_k_is_a_range_error(X, k):
    """The W_k g-vector relations need 0 <= k <= dim, the sigma/g report
    and the battery k >= 0; any other k is refused before any work."""
    with pytest.raises(RangeError, match=f"k={k}"):
        w_k_gvector_relations(X, k)
    if k < 0:
        for check in (sigma_g_report, criterion_battery):
            with pytest.raises(RangeError, match=f"k={k}"):
                check(X, k, QQ, True)


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


# the lines of criterion_battery(X, k, QQ, wk_certified=True), in order:
# with these inputs every line of the battery runs, and each holds, but
# for the standard spheres' equalities in P21c, P23a and P23b
BATTERY_LINES = {
    ("standard_sphere(3)", 1): "P20a P20b P20c P21ab P22b P23a P23b L9",
    ("standard_sphere(4)", 1):
        "P20a P20b P20c P21ab P21c P21d P22a P23a P23b L9 L10",
    ("standard_sphere(4)", 2): "P20a P20b P20c P21ab P23a P23b P25a P26 L9 L10",
    ("standard_sphere(5)", 2): "P20a P20b P20c P21ab P23a P23b P25b L9",
    ("lutz_S3_8", 1): "P20a P20b P20c P21ab P22b P23a P23b L9",
}


BATTERY_INPUTS = {f"standard_sphere({d})": (lambda d=d: standard_sphere(d))
                  for d in (3, 4, 5)}
BATTERY_INPUTS["lutz_S3_8"] = lambda: corpus()["lutz_S3_8"].complex


@pytest.mark.parametrize("name,k", sorted(BATTERY_LINES))
def test_battery_lines_on_certified_spheres(name, k):
    X = BATTERY_INPUTS[name]()
    assert w_k_membership(X, k).certified
    lines = criterion_battery(X, k, QQ, wk_certified=True)
    equality = {"P21c", "P23a", "P23b"} if name.startswith("standard") else set()
    assert [(l.prop, l.status) for l in lines] == [
        (p, "equality" if p in equality else "holds")
        for p in BATTERY_LINES[name, k].split()]


# the lines of the battery where the caller's certificate claim is wrong:
# the torus is no sphere, and P20c shows that S3_16 is not in W_1
FAILING_LINES = {
    ("sigma_g_report", "torus_7", 0): "P19a:fails P19b:holds P19c:fails",
    ("criterion_battery", "S3_16", 1):
        "P20a:holds P20b:holds P20c:fails P21ab:holds P22b:holds P23a:holds "
        "P23b:holds L9:holds",
    ("criterion_battery", "torus_7", 0):
        "P20:not-applicable P21ab:holds P21c:fails P21d:fails "
        "P23:not-applicable L9:holds L10:holds",
}


@pytest.mark.parametrize("check,name,k", sorted(FAILING_LINES))
def test_battery_lines_that_fail(corp, check, name, k):
    lines = getattr(tightness, check)(corp[name].complex, k, QQ, True)
    assert [f"{l.prop}:{l.status}" for l in lines] == \
        FAILING_LINES[check, name, k].split()
