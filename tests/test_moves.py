"""Bistellar/shelling engine, certificates and searches."""
import hashlib
import json
import os
import random
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stellar import core, moves
from stellar.constructions import (LUTZ_B2_SHELLING, corpus, cross_polytope,
                                   moebius_torus_7, random_stacked_ball,
                                   random_stacked_sphere,
                                   standard_ball, standard_sphere)
from stellar.core import (Complex, ComplexError, RangeError, StructureError,
                          _ridge_facets, antistar, bits, boundary, facet_hash,
                          induced, join, link, mask_of, submasks)
from stellar.moves import (BistellarMove, HypothesisViolation, MoveCertificate,
                           MoveError, ShellingMove, ShellingOrderError,
                           apply_bistellar,
                           apply_reverse, bistellar_face_delta, canonical_ball,
                           canonical_manifold, ears, enumerate_bistellar,
                           find_shelling, is_1_stacked_via_tree,
                           is_k_stacked_ball, replay_bistellar,
                           replay_shelling, stellation_search, verify_shelling,
                           w_k_membership)
from stellar.vectors import f_vector, g_vector, h_vector
from stellar.verify import brute_force_bistellar

FIVE_VERTEX_SPHERE = ["124", "134", "234", "125", "135", "235"]
PINCHED_STRIP = ["abf", "abc", "acd", "cde", "def"]  # not a ball


def test_enumerate_against_oracle_small(corp):
    for X in (standard_sphere(2),
              Complex.from_facets(FIVE_VERTEX_SPHERE),
              Complex.from_facets(["12", "23", "34", "45", "51"]),
              cross_polytope(2),
              corp["torus_7"].complex,
              corp["rp2_6"].complex,
              corp["lutz_S3_8"].complex):
        assert enumerate_bistellar(X) == brute_force_bistellar(X)


def induced_complex_bistellar(X):
    """The move oracle that builds ``induced(X, alpha | beta)``, a full
    complex, for every disjoint pair and compares its facets by name: the
    reference of ``brute_force_bistellar``, which reads masks."""
    from itertools import combinations

    d = X.dim
    out = []
    verts = range(X.m)
    for i in range(1, d + 1):
        for alpha in combinations(verts, d - i + 1):
            for beta in combinations(set(verts) - set(alpha), i + 1):
                if X.has_face(beta):
                    continue
                both = set(alpha) | set(beta)
                ind = induced(X, both)
                want = set()
                for b in beta:
                    want.add(frozenset(X.name_of(v) for v in both - {b}))
                got = {frozenset(f) for f in ind.facets_as_names()}
                if got == want:
                    out.append(BistellarMove(X.names_of_mask(sum(1 << a for a in alpha)),
                                             X.names_of_mask(sum(1 << b for b in beta)), i))
    out.sort(key=lambda mv: (mv.index, mv.alpha, mv.beta))
    return out


def test_brute_force_matches_induced_complex_reference(corp):
    small = [corp[name].complex for name in corp if corp[name].complex.m <= 10]
    assert len(small) == 14
    for X in small:
        assert brute_force_bistellar(X) == induced_complex_bistellar(X)


def test_minimal_spheres_admit_no_moves():
    for d in (1, 2, 3):
        assert enumerate_bistellar(standard_sphere(d)) == []


def test_five_vertex_sphere_moves():
    X = Complex.from_facets(FIVE_VERTEX_SPHERE)
    moves = enumerate_bistellar(X)
    # both vertex removals and the three edge flips onto the missing 45
    removals = [m for m in moves if m.index == 2]
    assert {m.alpha for m in removals} == {("4",), ("5",)}
    flips = [m for m in moves if m.index == 1]
    assert all(m.beta == ("4", "5") for m in flips)
    assert len(flips) == 3


def test_apply_zero_move_and_reverse():
    s = standard_sphere(2)
    mv = BistellarMove(("1", "2", "3"), ("5",), 0)
    y = apply_bistellar(s, mv)
    assert f_vector(y) == (5, 9, 6)
    assert apply_reverse(y, mv) == s


def test_apply_checks_admissibility():
    s = standard_sphere(2)
    with pytest.raises(MoveError):
        apply_bistellar(s, BistellarMove(("1", "2"), ("3", "4"), 1))
    with pytest.raises(MoveError):
        apply_bistellar(s, BistellarMove(("1", "2", "3"), ("4",), 0))


def test_face_delta_law():
    X = Complex.from_facets(FIVE_VERTEX_SPHERE)
    for mv in enumerate_bistellar(X):
        Y = apply_bistellar(X, mv)
        delta = bistellar_face_delta(X.dim, mv.index)
        fx, fy = f_vector(X), f_vector(Y)
        fy = fy + (0,) * (len(fx) - len(fy))
        assert tuple(fy[i] - fx[i] for i in range(len(fx))) == delta


def test_g_delta_law_random_walk():
    rng = random.Random(11)
    X = standard_sphere(3)
    fresh = 6
    for _ in range(60):
        options = list(enumerate_bistellar(X))
        if X.m < 10:
            facet = X.facets_as_names()[rng.randrange(len(X.facets))]
            options.append(BistellarMove(facet, (str(fresh),), 0))
            fresh += 1
        mv = options[rng.randrange(len(options))]
        g0, X = g_vector(X), apply_bistellar(X, mv)
        g1 = g_vector(X)
        d = X.dim
        for j in range(d + 1):
            expect = (1 if j == mv.index else -1 if j == d - mv.index else 0) \
                if 2 * j != d else 0
            assert g1[j + 1] - g0[j + 1] == expect


def test_verify_shelling_lutz(corp):
    cert = verify_shelling(corp["lutz_B2"].complex,
                           [list(f) for f in LUTZ_B2_SHELLING])
    assert cert.kind == "shelling" and cert.length == 14
    assert cert.k_bound == 2  # 2-shelled
    h = h_vector(corp["lutz_B2"].complex)
    counts = cert.index_counts()
    assert all(counts.get(j - 1, 0) == h[j] for j in range(1, len(h)))


def test_verify_shelling_rejects_bad_order(corp):
    order = [list(f) for f in LUTZ_B2_SHELLING]
    order[1], order[-1] = order[-1], order[1]
    with pytest.raises(MoveError):
        verify_shelling(corp["lutz_B2"].complex, order)


def test_verify_shelling_refusals():
    # 125 meets 123 in the edge 12 alone, so its free face would be the
    # vertex 5, which 345 brought in already
    order = ["123", "234", "345", "125"]
    with pytest.raises(ShellingOrderError, match="position 3 .*"
                       "the would-be free face is already present"):
        verify_shelling(Complex.from_facets(order), order)
    # every step would be a shelling step, but with the dangling edge 34
    # the complex is not pure: refused before any step, as find_shelling
    # refuses it
    order = ["123", "34"]
    for search in (lambda X: verify_shelling(X, order), find_shelling):
        with pytest.raises(StructureError, match="needs a pure complex"):
            search(Complex.from_facets(order))


# each refusal of the bistellar admissibility check on the octahedron,
# whose antipodal pairs are x_i, y_i
BISTELLAR_REFUSALS = [
    (("x1", "x2"), ("y1", "y2"), 0, "has inconsistent index"),
    (("x1", "y1", "x2"), ("n",), 0, r"0-move core \('x1', 'y1', 'x2'\) is not a facet"),
    (("x1", "x2"), ("x1", "y3"), 1, "alpha and beta overlap"),
    (("x1",), ("x2", "y2", "x3"), 2, "inadmissible: the induced subcomplex"),
]


@pytest.mark.parametrize("alpha,beta,index,message", BISTELLAR_REFUSALS)
def test_bistellar_refusals(alpha, beta, index, message):
    X, mv = cross_polytope(2), BistellarMove(alpha, beta, index)
    with pytest.raises(MoveError, match=message):
        apply_bistellar(X, mv)
    with pytest.raises(MoveError, match=message):
        replay_bistellar(X, [mv])


def test_stellation_certificate_refusals(monkeypatch):
    """A certificate whose steps replay to S from a simplex boundary is
    still refused with a step of index k or more, or with move counts
    other than the g-vector.  Every true build sequence realizes the
    g-vector, so a wrong g-vector stands in for a wrong certificate."""
    S = random_stacked_sphere(3, 8, seed=0)
    out = stellation_search(S, 1)
    steps = out.certificate.steps
    with pytest.raises(MoveError, match="exceeds index bound"):
        moves._stellation_certificate(S, out.start, steps, 0)
    monkeypatch.setattr(moves, "g_vector", lambda X: (1, 0, 0))
    with pytest.raises(MoveError, match="move counts disagree with g-vector"):
        moves._stellation_certificate(S, out.start, steps, 1)


def test_single_facet_ball_empty_certificate():
    b = standard_ball(3)
    cert = verify_shelling(b, [["1", "2", "3", "4"]])
    assert cert.length == 0 and cert.k_bound == 0


def test_shelling_replay_and_json(corp):
    lb2 = corp["lutz_B2"].complex
    cert = verify_shelling(lb2, [list(f) for f in LUTZ_B2_SHELLING])
    start = Complex.from_facets([list(LUTZ_B2_SHELLING[0])])
    end = replay_shelling(start, cert.steps)
    assert end == lb2 and facet_hash(end) == cert.end_hash
    again = MoveCertificate.from_json(cert.to_json())
    assert again == cert


def test_shelling_bistellar_boundary_consistency(corp):
    # shelling a ball acts on its boundary as the matching bistellar move
    lb2 = corp["lutz_B2"].complex
    cert = verify_shelling(lb2, [list(f) for f in LUTZ_B2_SHELLING])
    cur = Complex.from_facets([list(LUTZ_B2_SHELLING[0])])
    for mv in cert.steps:
        nxt = replay_shelling(cur, [mv])
        got = boundary(nxt)
        expect = apply_bistellar(boundary(cur),
                                 BistellarMove(mv.alpha, mv.beta, mv.index))
        assert got == expect
        cur = nxt


def full_rebuild_replay(start, steps):
    """``replay_shelling`` with the face set of the whole complex rebuilt
    at every step and the step checked ridge by ridge: the oracle of the
    version that keeps its face set and shares the step test.  A start
    that is not pure, and a step of the wrong size or index or with a
    repeated vertex, is refused before any step is replayed."""
    if not start.is_pure():
        raise MoveError("shelling replay needs a pure start")
    d = start.dim
    for mv in steps:
        sigma = tuple(mv.alpha) + tuple(mv.beta)
        if len(sigma) != d + 1:
            raise MoveError(f"move {mv} has wrong size for dimension {d}")
        if mv.index != len(mv.beta) - 1:
            raise MoveError(f"move {mv} has inconsistent index")
        if len(set(sigma)) != len(sigma):
            raise MoveError(f"move {mv} repeats a vertex")
    cur = start
    for mv in steps:
        sigma = tuple(mv.alpha) + tuple(mv.beta)
        cur_facets = cur.facets_as_names()
        if set(sigma) in map(set, cur_facets):  # from_facets would drop it
            raise MoveError(f"invalid shelling step {mv}")
        new = Complex.from_facets(cur_facets + [sigma])
        am = new.mask_from_names(mv.alpha)
        bm = new.mask_from_names(mv.beta)
        old_faces = set()
        for f in cur_facets:
            old_faces.update(submasks(new.mask_from_names(f)))
        for b in bits(bm):
            if (am | bm) ^ (1 << b) not in old_faces:
                raise MoveError(f"invalid shelling step {mv}")
        if bm in old_faces:
            raise MoveError(f"invalid shelling step {mv}")
        cur = new
    return cur


@pytest.mark.parametrize("start, step", [
    ("abc", ShellingMove(("a",), ("d",), 0)),  # would replay to {abc, ad}
    ("abc", ShellingMove(("a", "b"), ("d",), 5)),  # index is not |beta| - 1
    ("abc", ShellingMove(("a", "b"), ("a",), 0)),  # a repeated vertex
    ("abc cd", ShellingMove(("b", "c"), ("d",), 0)),  # a start not pure
])
def test_replay_shelling_refuses_malformed_steps(start, step):
    X = Complex.from_facets(start.split())
    for replay in (replay_shelling, full_rebuild_replay):
        with pytest.raises(MoveError):
            replay(X, [step])


def replay_outcome(replay, start, steps):
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        try:
            X = replay(start, steps)
        except ComplexError as exc:
            return type(exc), str(exc), [str(x.message) for x in w]
    return X.facet_name_set(), [str(x.message) for x in w]


def corrupted(steps, pos, kind, rng):
    """``steps``, shelling or bistellar moves, with step ``pos`` changed
    by ``kind``."""
    mv = steps[pos]
    alpha, beta = list(mv.alpha), list(mv.beta)
    if kind == "swap":
        alpha, beta = beta, alpha
    elif kind == "shift" and len(alpha) + len(beta) > 1:
        if beta and (not alpha or rng.random() < 0.5):
            alpha.append(beta.pop(rng.randrange(len(beta))))
        else:
            beta.append(alpha.pop(rng.randrange(len(alpha))))
    elif kind == "rename":
        part = alpha if alpha and rng.random() < 0.5 else beta
        part[rng.randrange(len(part))] = rng.choice(["new", steps[0].beta[0]])
    elif kind == "repeat":
        alpha, beta = list(steps[pos - 1].alpha), list(steps[pos - 1].beta)
    elif kind == "overlap":
        beta.append((alpha or beta)[0])
    elif kind == "empty":
        alpha, beta = [], []
    out = list(steps)
    out[pos] = type(mv)(tuple(alpha), tuple(beta), len(beta) - 1)
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(2, 30), st.integers(0, 10 ** 6),
       st.sampled_from(["none", "swap", "shift", "rename", "repeat",
                        "overlap", "empty"]))
def test_replay_shelling_matches_full_rebuild_reference(corp, d, n, seed, kind):
    rng = random.Random(seed)
    if seed % 5 == 0:
        start = Complex.from_facets([list(LUTZ_B2_SHELLING[0])])
        steps = verify_shelling(corp["lutz_B2"].complex,
                                [list(f) for f in LUTZ_B2_SHELLING]).steps
    else:
        out = find_shelling(random_stacked_ball(d, n, seed=seed))
        start, steps = out.start, out.certificate.steps
    if kind != "none":
        steps = corrupted(steps, rng.randrange(len(steps)), kind, rng)
    outcome = replay_outcome(replay_shelling, start, steps)
    assert outcome == replay_outcome(full_rebuild_replay, start, steps)
    if not isinstance(outcome[0], type):
        # the ids: the start's, then each new name in order of first use
        used = (str(v) for mv in steps for v in (*mv.alpha, *mv.beta))
        assert replay_shelling(start, steps).names == \
            tuple(dict.fromkeys([*start.names, *used]))


def chain_replay(start, steps):
    """The certificate replay as one ``apply_bistellar`` per step, each
    building its complex: the oracle of ``replay_bistellar``, which applies
    the steps to a set of facet masks."""
    cur = start
    for mv in steps:
        cur = apply_bistellar(cur, mv)
    return cur


def bistellar_outcome(replay, start, steps):
    """The names and facets of the replay from a fresh copy of ``start``,
    or the type and message of what it raised."""
    try:
        X = replay(Complex(start.names, start.facets), steps)
    except ComplexError as exc:
        return type(exc), str(exc)
    return X.names, X.facets


@st.composite
def bistellar_certificates(draw):
    """A start and steps: the certificate of a stellation search on a
    random stacked 2- or 3-sphere, from the reduced sphere or from the
    sphere itself down by the reverse moves and back, so that its 0-moves
    put the vertices deleted by index-d moves back under their names; or a
    random walk whose 0-moves may take the name of a deleted vertex.  The start may carry a
    disjoint edge, which makes it non-pure and takes part in no move."""
    d = draw(st.sampled_from((2, 3)))
    S = random_stacked_sphere(d, draw(st.integers(d + 2, 10)),
                              seed=draw(st.integers(0, 10 ** 6)))
    if draw(st.booleans()):
        out = stellation_search(S, draw(st.integers(1, 2)),
                                seed=draw(st.integers(0, 100)))
        start, steps = out.start, list(out.certificate.steps)
        if draw(st.booleans()):  # down from S and back up by the same names
            start = S
            steps = [mv.reversed(d) for mv in reversed(steps)] + steps
    else:
        X, start, steps = S, Complex(S.names, S.facets), []
        for fresh in range(draw(st.integers(1, 8))):
            pool = enumerate_bistellar(X)
            deletions = [mv for mv in pool if mv.index == d]
            choice = draw(st.integers(0, 2))
            if choice == 0 and deletions:
                mv = draw(st.sampled_from(deletions))
            elif choice == 1 and pool:
                mv = draw(st.sampled_from(pool))
            else:
                deleted = sorted(set(S.names) - set(X.names))
                name = draw(st.sampled_from(deleted + [f"n{fresh}"]))
                mv = BistellarMove(draw(st.sampled_from(X.facets_as_names())),
                                   (name,), 0)
            X = apply_bistellar(X, mv)
            steps.append(mv)
    if draw(st.booleans()):
        start = Complex.from_facets(start.facets_as_names() + [("x", "y")])
    return start, steps


@settings(max_examples=100, deadline=None)
@given(bistellar_certificates(), st.integers(0, 10 ** 6),
       st.sampled_from(["none", "swap", "shift", "rename", "repeat",
                        "overlap", "empty"]))
def test_replay_bistellar_matches_the_chain_of_moves(case, seed, kind):
    start, steps = case
    rng = random.Random(seed)
    if kind != "none" and steps:
        steps = corrupted(steps, rng.randrange(len(steps)), kind, rng)
    assert bistellar_outcome(replay_bistellar, start, steps) == \
        bistellar_outcome(chain_replay, start, steps)


def test_find_shelling(corp):
    assert find_shelling(corp["ziegler_B2"].complex).status == "none"
    res = find_shelling(corp["lutz_B2"].complex)
    assert res.found and res.certificate.k_bound == 2
    res = find_shelling(corp["ziegler_B1"].complex)
    assert res.found and res.certificate.k_bound <= 1
    assert find_shelling(standard_ball(4)).found
    # f's link is two edges: the end facets pass the ear test, and only
    # the free-face test (T = f lies in both) refuses them
    out = find_shelling(Complex.from_facets(PINCHED_STRIP))
    assert (out.status, out.nodes) == ("none", 0)


def test_ears(corp):
    assert ears(corp["ziegler_B2"].complex) == []
    assert ears(corp["lutz_B2"].complex) == [("2", "4", "5", "7")]
    b = standard_ball(3)
    assert ears(b) == [b.facets_as_names()[0]]
    with pytest.raises(StructureError, match="^ears need a pure complex$"):
        ears(Complex.from_facets(["123", "34", "45"]))


def ridge_map_ears(B):
    """``ears`` with the boundary ridges read from the ridge map: the
    oracle of the version that reads them off the dual graph."""
    if not B.is_pure():
        raise StructureError("ears need a pure complex")
    if len(B.facet_masks) == 1:
        return [B.facets_as_names()[0]]
    owners = _ridge_facets(B.facet_masks)
    if any(len(o) > 2 for o in owners.values()):
        raise StructureError("ears need a weak pseudomanifold")
    bd_ridges = [r for r, o in owners.items() if len(o) == 1]
    out = []
    for fm in B.facet_masks:
        emask = 0
        for v in bits(fm):
            if len(owners[fm ^ (1 << v)]) == 1:
                emask |= 1 << v
        if emask == 0 or emask == fm:
            continue
        if any(r & emask == emask for r in bd_ridges):
            continue
        out.append(tuple(sorted(B.names_of_mask(fm))))
    return out


def ears_outcome(find, B):
    try:
        return find(B)
    except StructureError as exc:
        return str(exc)


def test_ears_match_ridge_map_reference(corp):
    inputs = [entry.complex for entry in corp.values()]
    for d in (1, 2, 3):
        for n in (1, 2, 5, 20, 60):
            inputs.append(random_stacked_ball(d, n, seed=n + d))
    for seed in range(4):
        S = random_stacked_sphere(3, 12 + 6 * seed, seed=seed)
        inputs += [antistar(S, v) for v in range(0, S.m, 3)]
    inputs += [Complex.from_facets(["123", "124", "125"]),  # not weak
               Complex.from_facets(["123", "34", "45"])]         # not pure
    for B in inputs:
        assert ears_outcome(ears, B) == ears_outcome(ridge_map_ears, B)


def test_k_stacked(corp):
    assert is_k_stacked_ball(corp["B4_16"].complex, 2)
    assert not is_k_stacked_ball(corp["B4_16"].complex, 1)
    assert is_k_stacked_ball(corp["D6_18"].complex, 2)
    assert is_k_stacked_ball(standard_ball(4), 0)
    # cone over any vertex antistar is d-stacked
    s = random_stacked_sphere(2, 8, seed=2)
    from stellar.constructions import cone_over_antistar
    assert is_k_stacked_ball(cone_over_antistar(s, 0), s.dim)


def test_tree_criterion_matches_skeleton_test(corp):
    for name in ("ziegler_B1", "ziegler_B2", "lutz_B1", "lutz_B2"):
        B = corp[name].complex
        assert is_1_stacked_via_tree(B) == is_k_stacked_ball(B, 1)
    for seed in range(50):
        B = random_stacked_ball(3, 6, seed=seed)
        assert is_1_stacked_via_tree(B) and is_k_stacked_ball(B, 1)


def test_canonical_ball(corp):
    for d, k in ((2, 1), (3, 1), (4, 2)):
        got = canonical_ball(standard_sphere(d), k)
        assert got == standard_ball(d + 1) or \
            got.facet_name_set() == standard_ball(d + 1).facet_name_set()
    five = Complex.from_facets(FIVE_VERTEX_SPHERE)
    ball = canonical_ball(five, 1)
    assert sorted(tuple(sorted(f)) for f in ball.facets_as_names()) == \
        [("1", "2", "3", "4"), ("1", "2", "3", "5")]
    assert canonical_ball(corp["lutz_S2_8"].complex, 1) == corp["lutz_B1"].complex
    assert canonical_ball(corp["ziegler_S2_10"].complex, 1) == corp["ziegler_B1"].complex


def test_canonical_ball_guards(corp):
    with pytest.raises(Exception):
        canonical_ball(corp["S3_16"].complex, 2)  # d < 2k
    with pytest.raises(RangeError):
        canonical_ball(corp["lutz_S2_8"].complex, -1)
    with pytest.raises(RangeError):
        canonical_manifold(corp["M_1_4"].complex, -1)
    # a non-1-stellated sphere fails validation rather than succeeding
    with pytest.raises(HypothesisViolation):
        canonical_ball(corp["torus_7"].complex, 1)


def test_closure_stops_at_a_clique_of_d_plus_3_vertices(corp, monkeypatch):
    """S3_16 is 2-neighbourly, so each of its 2^16 vertex sets spans a
    complete graph.  The closure stops at the first set of d + 3 = 6
    vertices, which already fails validation, and raises what the full
    closure raised; it never gets to ``_maximal``, which the full closure
    would reach only after listing every set."""
    S = corp["S3_16"].complex

    def unreached(masks):
        raise AssertionError("the closure listed every set")

    monkeypatch.setattr(moves, "_maximal", unreached)
    with pytest.raises(HypothesisViolation) as ball:
        canonical_ball(S, 1)
    with pytest.raises(HypothesisViolation) as manifold:
        canonical_manifold(S, 0)
    assert str(ball.value) == ("closure complex failed validation: the input "
                               "sphere is not 1-stellated/1-stacked with a "
                               "recoverable ball")
    assert str(manifold.value) == ("closure complex failed validation: the "
                                   "input is not a W_0 member with a "
                                   "recoverable manifold")


def test_canonical_manifold(corp):
    assert canonical_manifold(corp["M_1_4"].complex, 1) == corp["Mbar_1_4"].complex
    got = canonical_manifold(standard_sphere(2), 0)
    assert got.facet_name_set() == standard_ball(3).facet_name_set()
    with pytest.raises(Exception):
        canonical_manifold(corp["M_1_3"].complex, 1)  # d < 2k+2


def test_stellation_pentagon():
    pent = Complex.from_facets(["12", "23", "34", "45", "51"])
    out = stellation_search(pent, 1, seed=0)
    assert out.found
    assert out.certificate.length == h_vector(pent)[1] - 1 == 2
    assert replay_bistellar(out.start, out.certificate.steps) == pent


def test_stellation_standard_is_empty():
    out = stellation_search(standard_sphere(3), 1)
    assert out.found and out.certificate.length == 0


def test_stellation_unflippable_exhausts(corp):
    out = stellation_search(corp["S3_16"].complex, 3, budget=10 ** 4)
    assert out.status == "exhausted"


def test_stellation_kn_link_counts(corp):
    lk = link(corp["M_2_5"].complex, (0,))
    out = stellation_search(lk, 2, seed=0)
    assert out.found
    assert out.certificate.index_counts() == {0: 6, 1: 15}


def test_stellation_certificates_replay(corp):
    s = random_stacked_sphere(3, 9, seed=4)
    out = stellation_search(s, 1, seed=1)
    assert out.found
    assert replay_bistellar(out.start, out.certificate.steps) == s
    assert all(mv.index == 0 for mv in out.certificate.steps)


def test_c2_no_middle_moves_on_stacked_spheres():
    # 1-stellated d-spheres admit no moves of index 2..d-1
    for d, seed in ((3, 0), (4, 1)):
        s = random_stacked_sphere(d, d + 5, seed=seed)
        for mv in enumerate_bistellar(s):
            assert not (2 <= mv.index <= d - 1)


def test_p2_shelled_iff_shellable_and_stacked(corp):
    # certificates with all indices < k witness k-stackedness
    for name, k in (("lutz_B2", 2), ("ziegler_B1", 1), ("lutz_B1", 1)):
        B = corp[name].complex
        res = find_shelling(B)
        assert res.found
        assert res.certificate.k_bound <= k
        assert is_k_stacked_ball(B, k)


def test_wk_membership(corp):
    rep = w_k_membership(corp["M_1_2"].complex, 1, seed=0)
    assert rep.certified
    rep = w_k_membership(standard_sphere(3), 0)
    assert rep.certified  # standard links only
    # cross polytope links are cross polytopes: not (d-2)-stellated, so
    # the search dead-ends deterministically
    rep = w_k_membership(cross_polytope(2), 0, budget=100)
    assert not rep.certified


def test_wk_membership_jobs_refused_below_one_and_capped(monkeypatch,
                                                         stub_pool_sizes):
    """jobs < 1 is refused before any search; above the CPU count it is cut
    to it: the 5 searches of this stacked 3-sphere ask a pool of 2 workers,
    where 64 would ask for 5.  The stub pool maps in this process."""
    M = random_stacked_sphere(3, 8, seed=0)
    for jobs in (0, -1):
        with pytest.raises(RangeError, match="jobs must be at least 1"):
            w_k_membership(M, 1, jobs=jobs)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert w_k_membership(M, 1, jobs=64).verdict == "member"
    assert stub_pool_sizes == [2]


def test_wk_membership_refuses_k_before_any_search(monkeypatch):
    """k outside 0..dim M is refused, naming M's dimension, before any
    search is mapped; k = 0 and k = dim M are searched."""
    M = random_stacked_sphere(3, 12, seed=3)
    mapped = []
    real_map = moves._map_jobs

    def spy(fn, tasks, jobs):
        mapped.append(len(tasks))
        return real_map(fn, tasks, jobs)

    monkeypatch.setattr(moves, "_map_jobs", spy)
    for k in (-1, M.dim + 1):
        with pytest.raises(RangeError, match=f"^k={k} out of range for dimension 3$"):
            w_k_membership(M, k, jobs=2)
    assert mapped == []
    for k in (0, M.dim):
        w_k_membership(M, k)
    assert len(mapped) == 2 and all(mapped)


def test_wk_membership_pool_agrees(corp, pool_sizes, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # jobs=2 on one CPU too
    M = corp["M_1_3"].complex

    def outcomes(jobs):
        rep = w_k_membership(M, 1, jobs=jobs)
        return rep.verdict, {v: (o.status, o.nodes, o.certificate.to_json())
                             for v, o in rep.per_vertex.items()}

    serial = outcomes(1)
    assert serial[0] == "member" and len(serial[1]) == M.m
    assert outcomes(2) == serial
    assert pool_sizes == []  # M_1_3's links form one class: one search, no pool
    # a stacked 3-sphere's links: 2 classes and 3 simplex boundaries, each
    # searched by itself, so 5 searches in a pool
    M = random_stacked_sphere(3, 8, seed=0)
    serial = outcomes(1)
    assert serial[0] == "member" and len(serial[1]) == M.m
    assert outcomes(2) == serial
    assert pool_sizes == [2]


def test_btilde_nonshellable_two_stacked_ball(corp):
    from stellar.core import connected_sum
    lb2 = corp["lutz_B2"].complex
    tri = Complex.from_facets([("a", "b", "c")])
    B = join(lb2, tri)
    assert ears(B) == [("2", "4", "5", "7", "a", "b", "c")]
    Bp = Complex.from_facets([tuple(n + "p" for n in f)
                              for f in B.facets_as_names()])
    glue = ("2", "4", "5", "a", "b", "c")
    Bt = connected_sum(B, Bp, [B.id_of(v) for v in glue],
                       [Bp.id_of(v + "p") for v in glue],
                       {v + "p": v for v in glue})
    assert Bt.m == 16 and len(Bt.facets) == 30
    assert is_k_stacked_ball(Bt, 2)
    assert ears(Bt) == []
    assert find_shelling(Bt).status == "none"
    # boundary is the connected sum of the boundary spheres
    S, Sp = boundary(B), boundary(Bp)
    St = connected_sum(S, Sp, [S.id_of(v) for v in glue],
                       [Sp.id_of(v + "p") for v in glue],
                       {v + "p": v for v in glue})
    assert St == boundary(Bt)


def grown_ball(B, extra):
    """``B`` with ``extra`` new vertices coned over boundary ridges, taken
    in sorted order: a shelling search must peel these first, in every
    order, before it reaches ``B``."""
    facets = B.facets_as_names()
    for k in range(extra):
        ridge = sorted(boundary(Complex.from_facets(facets)).facets_as_names())[k]
        facets.append(tuple(ridge) + (f"x{k}",))
    return Complex.from_facets(facets)


# status, nodes and the SHA-256 of the certificate JSON; the counts are
# those the search gave when it still recounted every ridge at every node
SHELLING_PINS = {
    "lutz_B2": ("found", 14,
                "e270360a2957c1d60bb472091a89214c47739220f9e0cdd4fee33a2b11428533"),
    "ziegler_B2": ("none", 0, None),
    "stacked(2,40,1)": ("found", 39,
                        "27bdcc38b2afc6672d200e53bd8253b23d1ec4fd08e1dc46674ed87c37d137fe"),
    "stacked(3,40,2)": ("found", 39,
                        "248606408ba68328bcb695909d22eeb69510f4dd82dc39ae84538dd3fc37a95a"),
    "stacked(4,25,3)": ("found", 24,
                        "266853ed50e543a08009da2d4ce7777368e4901d976d857bef365ebec8a053dd"),
    "ziegler_B2+4": ("none", 18, None),
    "ziegler_B2+4,budget=10": ("exhausted", 11, None),
}


STACKED_BALLS = {"stacked(2,40,1)": (2, 40, 1), "stacked(3,40,2)": (3, 40, 2),
                 "stacked(4,25,3)": (4, 25, 3)}


@pytest.mark.parametrize("name", sorted(SHELLING_PINS))
def test_find_shelling_pinned(corp, name):
    budget = 10 if name.endswith("budget=10") else 10 ** 6
    if name in STACKED_BALLS:
        d, n, seed = STACKED_BALLS[name]
        B = random_stacked_ball(d, n, seed=seed)
    elif name.startswith("ziegler_B2+4"):
        B = grown_ball(corp["ziegler_B2"].complex, 4)
    else:
        B = corp[name].complex
    out = find_shelling(B, budget)
    digest = out.certificate and hashlib.sha256(
        out.certificate.to_json().encode()).hexdigest()
    assert (out.status, out.nodes, digest) == SHELLING_PINS[name]


def stacked_disc(n_facets, seed):
    """A stacked 2-ball as a facet list: a triangle, then new vertices
    coned over random boundary edges."""
    rng = random.Random(seed)
    facets = [(0, 1, 2)]
    free = [(0, 1), (0, 2), (1, 2)]
    while len(facets) < n_facets:
        a, b = free.pop(rng.randrange(len(free)))
        new = len(facets) + 2
        facets.append((a, b, new))
        free += [(a, new), (b, new)]
    return Complex.from_facets(facets)


def test_find_shelling_deep_ball_ignores_recursion_limit():
    B = stacked_disc(1100, seed=1)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)  # far below the 1099 peeled facets
    try:
        out = find_shelling(B)
    finally:
        sys.setrecursionlimit(limit)
    assert out.status == "found" and out.nodes == 1099
    order = [out.start.facets_as_names()[0]] + [
        tuple(s.alpha) + tuple(s.beta) for s in out.certificate.steps]
    assert verify_shelling(B, order).to_json() == out.certificate.to_json()


@st.composite
def walked_spheres_and_moves(draw):
    """A random stacked 2- or 3-sphere after up to three random moves of
    positive index, and one more move: a 0-move or one of positive index."""
    d = draw(st.sampled_from((2, 3)))
    X = random_stacked_sphere(d, draw(st.integers(d + 2, 10)),
                              seed=draw(st.integers(0, 10 ** 6)))
    for _ in range(draw(st.integers(0, 3))):
        pool = enumerate_bistellar(X)
        if not pool:
            break
        X = apply_bistellar(X, draw(st.sampled_from(pool)))
    pool = enumerate_bistellar(X)
    if pool and draw(st.booleans()):
        mv = draw(st.sampled_from(pool))
    else:
        mv = BistellarMove(draw(st.sampled_from(X.facets_as_names())), ("new",), 0)
    return X, mv


@settings(max_examples=10, deadline=None)
@given(walked_spheres_and_moves())
def test_brute_force_matches_induced_complex_reference_on_walks(case):
    X = apply_bistellar(*case)
    assert brute_force_bistellar(X) == induced_complex_bistellar(X)


@settings(max_examples=60, deadline=None)
@given(walked_spheres_and_moves())
def test_apply_then_reverse_is_identity(case):
    X, mv = case
    Y = apply_bistellar(X, mv)
    assert Y != X
    Z = apply_reverse(Y, mv)
    assert Z == X and sorted(Z.names) == sorted(X.names)


@st.composite
def walk_certificates(draw):
    """A random bistellar walk on a stacked 2- or 3-sphere, mixing 0-moves
    with moves of positive index, as a certificate with its start."""
    d = draw(st.sampled_from((2, 3)))
    start = random_stacked_sphere(d, draw(st.integers(d + 2, 9)),
                                  seed=draw(st.integers(0, 10 ** 6)))
    X, steps = start, []
    for fresh in range(draw(st.integers(0, 6))):
        pool = enumerate_bistellar(X)
        if pool and draw(st.booleans()):
            mv = draw(st.sampled_from(pool))
        else:
            mv = BistellarMove(draw(st.sampled_from(X.facets_as_names())),
                               (f"new{fresh}",), 0)
        X = apply_bistellar(X, mv)
        steps.append(mv)
    return start, MoveCertificate("bistellar", tuple(steps),
                                  facet_hash(start), facet_hash(X))


@settings(max_examples=40, deadline=None)
@given(walk_certificates())
def test_walk_certificate_json_round_trip_replays(case):
    start, cert = case
    again = MoveCertificate.from_json(cert.to_json())
    assert again == cert and again.to_json() == cert.to_json()
    assert facet_hash(replay_bistellar(start, again.steps)) == again.end_hash


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(5, 10), st.integers(0, 10 ** 6),
       st.integers(0, 100))
def test_stellation_certificate_json_round_trip_replays(d, m, seed, search):
    S = random_stacked_sphere(d, m, seed=seed)
    out = stellation_search(S, 1, seed=search)
    assert out.found  # every stacked sphere is 1-stellated
    again = MoveCertificate.from_json(out.certificate.to_json())
    assert again == out.certificate
    assert again.start_hash == facet_hash(out.start)
    end = replay_bistellar(out.start, again.steps)
    assert end == S and facet_hash(end) == again.end_hash


def certificate_digest(out):
    return out.certificate and hashlib.sha256(
        out.certificate.to_json().encode()).hexdigest()


def flipped_sphere(seed):
    """random_stacked_sphere(3, 25, seed) after ten seeded index-1 moves:
    a 3-sphere that is 2-stellated but not 1-stellated."""
    rng = random.Random(seed)
    X = random_stacked_sphere(3, 25, seed=seed)
    for _ in range(10):
        pool = [mv for mv in enumerate_bistellar(X) if mv.index == 1]
        X = apply_bistellar(X, pool[rng.randrange(len(pool))])
    return X


def stellation_case(corp, name):
    """(X, k, budget, seed) of a pinned stellation search."""
    if name == "flipped(1),k=1,budget=500":
        return flipped_sphere(1), 1, 500, 1
    if name == "flipped(1),k=3":
        return flipped_sphere(1), 3, 10 ** 6, 1
    if name == "stacked(3,30,1),k=1":
        return random_stacked_sphere(3, 30, seed=1), 1, 10 ** 6, 0
    if name == "lk(M_2_5,0),k=2":
        return link(corp["M_2_5"].complex, (0,)), 2, 10 ** 6, 0
    if name == "pentagon,k=1":
        return Complex.from_facets(["12", "23", "34", "45", "51"]), 1, 10 ** 6, 0
    return corp["S3_16"].complex, 3, 10 ** 4, 0


# status, nodes and the SHA-256 of the certificate JSON of
# stellation_search(X, k, budget, seed), where every move keeps its
# parent's vertex ids
STELLATION_PINS = {
    "stacked(3,30,1),k=1": (
        "found", 25,
        "466c271d903c568090785e03bd2af7c5031dc866193a194db1ce81c20f7691ed"),
    "lk(M_2_5,0),k=2": (
        "found", 21,
        "7cc06826032a5e0ccf60e55e56924abeb9b812fd0eb98a72bddd98896be9fbd2"),
    "pentagon,k=1": (
        "found", 2,
        "a15813491171e16c582bf7cfd8f8f35ab1a56eb0eea670a570a125435859767a"),
    "S3_16,k=3,budget=10^4": ("exhausted", 0, None),
    "flipped(1),k=3": (
        "found", 31,
        "2d3c54e6f072ba30ce3ab2c789980319ef6a04c2ce306d4f6665aa3e746a01bd"),
    "flipped(1),k=1,budget=500": ("exhausted", 501, None),
}


@pytest.mark.parametrize("name", sorted(STELLATION_PINS))
def test_stellation_search_pinned(corp, name):
    X, k, budget, seed = stellation_case(corp, name)
    out = stellation_search(X, k, budget, seed)
    assert (out.status, out.nodes, certificate_digest(out)) == \
        STELLATION_PINS[name]


# the same for searches with k = d + 1, which may take moves of every
# index: their window d - k + 1 = 0 is held as the full state, since
# index-0 moves are never listed
STELLATION_TOP_PINS = {
    "stacked(3,10,0),k=4": (
        random_stacked_sphere, (3, 10, 0), 4, "found", 6,
        "2be23553e02cff0568d963d484623490fc22084f38cb5d304562460f6d2a5a56"),
    "stacked(4,14,2),k=5": (
        random_stacked_sphere, (4, 14, 2), 5, "found", 8,
        "9ec7a7a37ef07370e6871951bbe505dbcf697ea55a02e82ad46486ce51c8d377"),
    "flipped(1),k=4": (
        flipped_sphere, (1,), 4, "found", 31,
        "a03927220cce4df15b9e184677c7a79eb74f539f747d0d69345e94dacd4b147a"),
}


@pytest.mark.parametrize("name", sorted(STELLATION_TOP_PINS))
def test_stellation_search_top_index_pinned(name):
    make, args, k, *want = STELLATION_TOP_PINS[name]
    out = stellation_search(make(*args), k)
    assert [out.status, out.nodes, certificate_digest(out)] == want


def test_w_k_membership_on_non_standard_links():
    """The vertex links of the 7-vertex torus are hexagons, so the search
    for k = 2 = d + 1 takes moves.  The links form one class: vertex 0's
    digest is that of the search when every move state held the faces of
    every size, and the others' are of its certificate carried to them."""
    rep = w_k_membership(moebius_torus_7(), 2)
    assert rep.verdict == "member"
    got = {v: (o.nodes, certificate_digest(o)[:16])
           for v, o in rep.per_vertex.items()}
    assert got == {"0": (3, "c5432ec08094ac94"), "1": (3, "71bae443005e701d"),
                   "2": (3, "b43908a35d3c7c37"), "3": (3, "649c5ea2751e2a4a"),
                   "4": (3, "cca803c3d5f30960"), "5": (3, "c8af4fb7b20c816d"),
                   "6": (3, "68300945652bd61b")}


# (nodes, certificate digest) of each vertex link in w_k_membership(M_2_5,
# 2): the links form one class, so x1's is the search of LINK_SEARCH_PINS,
# and the others' are x1's certificate carried
WK_M25_PINS = {
    "x1": (21, "7cc06826032a5e0ccf60e55e56924abeb9b812fd0eb98a72bddd98896be9fbd2"),
    "x2": (21, "41bb05941f410dc79090bfed5c6402709b7d2ee481993f69e3e3b3f9585dc5e5"),
    "x3": (21, "609a724df7fe2d377538333dc6a00ad78cdb442f7f7212460e2d104b99fb6d02"),
    "x4": (21, "c5a2f2c58399cf56f3f5b3fd33ba9059c5933366496eab6210ce7cf06f73acf7"),
    "x5": (21, "d174faa24207634ce9b83dfd7b57eff2976cc6f4a6e182380b4030fc6d39a2a3"),
    "x6": (21, "706a6e60107419f7c96f727bb1955e32f18d66be3611a868bd7322c5a29e14f2"),
    "x7": (21, "d8d817e7d807b38c4db1a5eeade2e1e82628b4dd0141e25e12ab9679d5aaca95"),
    "y1": (21, "49ff17574f9e4348b7d9f42c813fe98aa9a96b2aef6ba07e62e9d4134ca103b8"),
    "y2": (21, "e9e1322bc438a5635b224eb6703433b48aeb0f1e3cd2bd08b13c6d563da06cb8"),
    "y3": (21, "9edfa2d15ab48353186bc395cf89d85042e3f77e481ac0d8c110527de59f9e59"),
    "y4": (21, "3201317769f020bd0dc893b553a901c6e1163ddab102028a5b94b7485d0746fc"),
    "y5": (21, "20e1fba68392813b2ea54f6a93458203c385fde7a7d18053495d4f6d91c97b83"),
    "y6": (21, "b58af46801012779cb7c16683c5b8178b41f685926f7ff9bdd7b58dd623afa31"),
    "y7": (21, "6d43c25062438504e31dcabd235bf1ecfe912bb61b48635e5b1ad849b92c4922"),
}


def test_w_k_membership_pinned(corp, monkeypatch):
    searches = []
    real_search = moves.stellation_search

    def counting(*args):
        searches.append(args)
        return real_search(*args)

    monkeypatch.setattr(moves, "stellation_search", counting)
    rep = w_k_membership(corp["M_2_5"].complex, 2)
    assert rep.verdict == "member"
    got = {v: (o.nodes, certificate_digest(o))
           for v, o in rep.per_vertex.items()}
    assert got == WK_M25_PINS
    assert len(searches) == 1  # x1's link, which the other 13 match


# (nodes, certificate digest) of stellation_search(lk, 2, seed=v) on the
# link lk of each vertex v of M_2_5 and of the 7-vertex torus, numbered
# on M's ids as w_k_membership numbers it: the searches of w_k_membership
# when it searched every link
LINK_SEARCH_PINS = {
    "M_2_5": {
        "x1": (21, "7cc06826032a5e0ccf60e55e56924abeb9b812fd0eb98a72bddd98896be9fbd2"),
        "x2": (21, "25d1c511cd0a1f2b6237b5f4f16c47abee075da4d1d9e89d8da226b1284015f3"),
        "x3": (21, "29f8f3c61c068f8110c2cf5358687c4f2df8eb479b40300284883be06aeef7f8"),
        "x4": (21, "ca70e8dbe89b181e8ce109397568dc56b074fdddb54e59df891f1d4cfb802cec"),
        "x5": (21, "a990d2b2124959c9c09f52767f648c7fc1bc612adc9199be484a9fe7d9de88ce"),
        "x6": (21, "76379ae4037bd76612e5bad92fdc3f0270930e5bd4e3160a14a927eef0aa3d38"),
        "x7": (21, "b8b8f19346e6c983282d59353380dbb5cc1f079a6ee9a7216717801af20c4bc2"),
        "y1": (21, "0e67132a8c2229d944b63a976c66402679c5f5b67127cada0748db12c5e77402"),
        "y2": (21, "6036c954e5c07685b3ac983b4c7323c9b19694425e50df2cbcca2e7f2df5c474"),
        "y3": (21, "4690885bb94daca1c4f135f31976ed547738f9b3dd4e96200461984b94ffd6e4"),
        "y4": (21, "46bd782bbafd85e7f2676bf750fec43876ff3bdafec8dfdb66df0e6a0f7cdb59"),
        "y5": (21, "75254ee710fe7dea01b0f6f292fc3ca1374d961f81817d6c592e31453d4ae6cf"),
        "y6": (21, "4361229746dab2bec69ad25de7ecebb7b0491ae89e52ab8be54c1697ea23d47c"),
        "y7": (21, "b6aee424fdc5d55a5caa479a1ac3f64a37a848320efb4d8ad59e091f1b79b651"),
    },
    "torus_7": {
        "0": (3, "c5432ec08094ac94873e248054aaa69ee3560b0150c12d5e0d989143ca763c1d"),
        "1": (3, "80e84a8b4a8f1e3b6cef222b72021d58604b2996e837ac6e43269bce2a05a2f6"),
        "2": (3, "2117717a46ee967a511a222742bbc981ab8887e6ce0f1a415e51d4dfa1e259f9"),
        "3": (3, "cc6c1480b6d602c073a5ec81ac987c9c70535e182fdfe132c5c3a3d6c1126928"),
        "4": (3, "b4b756c15b6798bb733bc856a872410fd455578792d23ba3a9fc53f80fb3fdcd"),
        "5": (3, "fa47ae4f900aedce9c785acbbce51d1ca29e7be00ecf99d8badc4f58e3c11863"),
        "6": (3, "1769cc476161e79e8de109a81ab483a99d311caa13a9014a346461dcf2fba191"),
    },
}


@pytest.mark.parametrize("name", sorted(LINK_SEARCH_PINS))
def test_link_searches_pinned(corp, name):
    M = corp[name].complex
    got = {}
    for v in range(M.m):
        out = stellation_search(link(M, (v,)), 2, seed=v)
        got[M.name_of(v)] = (out.nodes, certificate_digest(out))
    assert got == LINK_SEARCH_PINS[name]


def per_link_verdict(M, k, seed):
    """The verdict of one stellation search per vertex link, with seed +
    v for vertex v: the oracle of ``w_k_membership``'s one search per
    class of isomorphic links."""
    found = [stellation_search(link(M, (v,)), k, seed=seed + v).found
             for v in range(M.m)]
    return "member" if all(found) else "undetermined"


def relabelled(X, rnd):
    """X with permuted vertex names and shuffled facets, so that
    ``from_facets`` numbers its vertices anew."""
    perm = list(X.names)
    rnd.shuffle(perm)
    rename = dict(zip(X.names, perm))
    facets = [[rename[n] for n in f] for f in X.facets_as_names()]
    rnd.shuffle(facets)
    return Complex.from_facets(facets)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(("M_1_3", "torus_7", "stacked")),
       st.integers(0, 10 ** 6), st.integers(0, 100), st.randoms())
def test_w_k_membership_matches_per_link_searches(name, build, seed, rnd):
    M = (random_stacked_sphere(3, 5 + build % 6, seed=build) if name == "stacked"
         else corpus()[name].complex)
    M = relabelled(M, rnd)
    rep = w_k_membership(M, 1, seed=seed)
    assert rep.verdict == per_link_verdict(M, 1, seed)
    for v in range(M.m):
        out, lk = rep.per_vertex[M.name_of(v)], link(M, (v,))
        cert = out.certificate
        assert out.start.m == out.start.dim + 2 == len(out.start.facets)
        assert replay_bistellar(out.start, cert.steps) == lk
        assert (cert.start_hash, cert.end_hash) == (facet_hash(out.start),
                                                    facet_hash(lk))
        assert cert.k_bound <= 1


@pytest.mark.parametrize("name,k", [("M_2_5", 2), ("torus_7", 1)])
def test_w_k_membership_rejects_a_wrong_link_map(corp, monkeypatch, name, k):
    """A vertex map that is not an isomorphism fails the replay of the
    certificate carried through it, so the run raises and certifies
    nothing."""
    real = core._isomorphism
    wrong_maps = []

    def wrong(X, Y, fixed=()):
        image = real(X, Y, fixed)
        if image is None:
            return None
        target = set(Y.facet_masks)
        for j in range(1, X.m):  # the first transposition that breaks it
            bad = image.copy()
            bad[0], bad[j] = bad[j], bad[0]
            if {mask_of(bad[v] for v in f) for f in X.facets} != target:
                wrong_maps.append(bad)
                return bad
        raise AssertionError("no transposition breaks the map")

    monkeypatch.setattr(core, "_isomorphism", wrong)
    with pytest.raises(MoveError, match="replay"):
        w_k_membership(corp[name].complex, k)
    assert wrong_maps


def tetrahedron_boundaries(*tetrahedra):
    """The boundaries of the tetrahedra on the letters of each string of
    ``tetrahedra``, as one complex."""
    from itertools import combinations
    return Complex.from_facets([f for t in tetrahedra
                                for f in combinations(t, 3)])


@pytest.mark.parametrize("M,error", [
    # a's link is two disjoint triangles
    (tetrahedron_boundaries("abcd", "aefg"),
     "link of vertex a is not a closed pseudomanifold"),
    # so is d's, after the triangles that are the links of a, b and c
    (tetrahedron_boundaries("abcd", "defg"),
     "link of vertex d is not a closed pseudomanifold"),
    # b's link is a's relabelled, so only a's is checked
    (tetrahedron_boundaries("abcd", "aefg", "bhij"),
     "link of vertex a is not a closed pseudomanifold"),
    (Complex.from_facets(["ab", "bc", "ca", "de", "ef", "fd"]),
     "W_k membership needs a connected complex"),
], ids=["first-vertex", "later-vertex", "two-in-one-class", "disconnected"])
def test_w_k_membership_error_texts(M, error):
    with pytest.raises(StructureError, match=f"^{error}$"):
        w_k_membership(M, 1)


def walk_digest(X, steps, seed):
    """SHA-256 over (names, facets_as_names(), enumerate_bistellar list)
    of the start and of every step of a seeded walk by moves of index 1
    and 2: an index drawn uniformly, then a move of that index."""
    rng = random.Random(seed)
    h = hashlib.sha256()

    def record(X, pool):
        h.update(json.dumps([list(X.names), X.facets_as_names(),
                             [[mv.alpha, mv.beta, mv.index] for mv in pool]]
                            ).encode())

    for _ in range(steps):
        pool = enumerate_bistellar(X)
        record(X, pool)
        by_index: dict[int, list] = {}
        for mv in pool:
            by_index.setdefault(mv.index, []).append(mv)
        moves = by_index[rng.choice([i for i in (1, 2) if i in by_index])]
        X = apply_bistellar(X, moves[rng.randrange(len(moves))])
    record(X, enumerate_bistellar(X))
    return h.hexdigest()


# walk_digest of 150 steps from random_stacked_sphere(3, 60, seed)
WALK_PINS = {
    1: "8a4dbb89e806cc6ebb5b6cb85d2e7427297afb63b936f9227c455f5b4ad13d0a",
    2: "feeeec3353dbce8fbf7291d70c8e9746dcd226ce57e0e1f2b36e4ec5dd50bd35",
}


@pytest.mark.parametrize("seed", sorted(WALK_PINS))
def test_bistellar_walk_pinned(seed):
    X = random_stacked_sphere(3, 60, seed=seed)
    assert walk_digest(X, 150, seed) == WALK_PINS[seed]
