"""Bistellar/shelling engine, certificates and searches."""
import hashlib
import json
import random
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stellar.constructions import (LUTZ_B2_SHELLING, cross_polytope,
                                   random_stacked_ball, random_stacked_sphere,
                                   standard_ball, standard_sphere)
from stellar.core import (Complex, ComplexError, StructureError, _ridge_facets,
                          antistar, bits, boundary, facet_hash, join, link,
                          submasks)
from stellar.moves import (BistellarMove, HypothesisViolation, MoveCertificate,
                           MoveError, ShellingMove, apply_bistellar,
                           apply_reverse, bistellar_face_delta, canonical_ball,
                           canonical_manifold, ears, enumerate_bistellar,
                           find_shelling, is_1_stacked_via_tree,
                           is_k_stacked_ball, replay_bistellar,
                           replay_shelling, stellation_search, verify_shelling,
                           w_k_membership)
from stellar.vectors import f_vector, g_vector, h_vector
from stellar.verify import brute_force_bistellar

FIVE_VERTEX_SPHERE = ["124", "134", "234", "125", "135", "235"]


def test_enumerate_against_oracle_small(corp):
    for X in (standard_sphere(2),
              Complex.from_facets(FIVE_VERTEX_SPHERE),
              Complex.from_facets(["12", "23", "34", "45", "51"]),
              cross_polytope(2),
              corp["torus_7"].complex,
              corp["rp2_6"].complex,
              corp["lutz_S3_8"].complex):
        assert enumerate_bistellar(X) == brute_force_bistellar(X)


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
    version that keeps its face set and shares the step test."""
    cur = start
    for mv in steps:
        sigma = tuple(mv.alpha) + tuple(mv.beta)
        cur_facets = cur.facets_as_names()
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


def replay_outcome(replay, start, steps):
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        try:
            X = replay(start, steps)
        except ComplexError as exc:
            return type(exc), str(exc), [str(x.message) for x in w]
    return X.names, X.facets, [str(x.message) for x in w]


def corrupted(steps, pos, kind, rng):
    """``steps`` with step ``pos`` changed by ``kind``."""
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
    out[pos] = ShellingMove(tuple(alpha), tuple(beta), len(beta) - 1)
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
    assert replay_outcome(replay_shelling, start, steps) == \
        replay_outcome(full_rebuild_replay, start, steps)


def test_find_shelling(corp):
    assert find_shelling(corp["ziegler_B2"].complex).status == "none"
    res = find_shelling(corp["lutz_B2"].complex)
    assert res.found and res.certificate.k_bound == 2
    res = find_shelling(corp["ziegler_B1"].complex)
    assert res.found and res.certificate.k_bound <= 1
    assert find_shelling(standard_ball(4)).found


def test_ears(corp):
    assert ears(corp["ziegler_B2"].complex) == []
    assert ears(corp["lutz_B2"].complex) == [("2", "4", "5", "7")]
    b = standard_ball(3)
    assert ears(b) == [b.facets_as_names()[0]]


def ridge_map_ears(B):
    """``ears`` with the boundary ridges read from the ridge map: the
    oracle of the version that reads them off the dual graph."""
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


def test_canonical_ball():
    for d, k in ((2, 1), (3, 1), (4, 2)):
        got = canonical_ball(standard_sphere(d), k)
        assert got == standard_ball(d + 1) or \
            got.facet_name_set() == standard_ball(d + 1).facet_name_set()
    five = Complex.from_facets(FIVE_VERTEX_SPHERE)
    ball = canonical_ball(five, 1)
    assert sorted(tuple(sorted(f)) for f in ball.facets_as_names()) == \
        [("1", "2", "3", "4"), ("1", "2", "3", "5")]


def test_canonical_ball_guards(corp):
    with pytest.raises(Exception):
        canonical_ball(corp["S3_16"].complex, 2)  # d < 2k
    # a non-1-stellated sphere fails validation rather than succeeding
    with pytest.raises(HypothesisViolation):
        canonical_ball(corp["torus_7"].complex, 1)


def test_closure_stops_at_a_clique_of_d_plus_3_vertices(corp, monkeypatch):
    """S3_16 is 2-neighbourly, so each of its 2^16 vertex sets spans a
    complete graph.  The closure stops at the first set of d + 3 = 6
    vertices, which already fails validation, and raises what the full
    closure raised."""
    S = corp["S3_16"].complex
    calls = []
    has_face = Complex.has_face

    def counting(X, face):
        calls.append(face)
        return has_face(X, face)

    monkeypatch.setattr(Complex, "has_face", counting)
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
    assert len(calls) < 200


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


def test_wk_membership_pool_agrees(corp):
    M = corp["M_1_3"].complex

    def outcomes(jobs):
        rep = w_k_membership(M, 1, jobs=jobs)
        return rep.verdict, {v: (o.status, o.nodes, o.certificate.to_json())
                             for v, o in rep.per_vertex.items()}

    serial = outcomes(1)
    assert serial[0] == "member" and len(serial[1]) == M.m
    assert outcomes(2) == serial


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


# status, nodes and the SHA-256 of the certificate JSON, as the search
# gave them when it still recounted every ridge at every node
SHELLING_PINS = {
    "lutz_B2": ("found", 14,
                "e270360a2957c1d60bb472091a89214c47739220f9e0cdd4fee33a2b11428533"),
    "ziegler_B2": ("none", 0, None),
    "stacked(2,40,1)": ("found", 39,
                        "abba5877aec478f86c57e78044cf5a9f69bd6ba3282b487b60bb959106362b23"),
    "stacked(3,40,2)": ("found", 39,
                        "fdacdb840ca65e0db3fd9f8ce86607f5250bb9f92744cb03baa2a1d6d67df3c7"),
    "stacked(4,25,3)": ("found", 24,
                        "3c7ad9d6ffba32d9fd35871cf1faacc0cc8d2906cf8d03847e218efc2b632680"),
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
# stellation_search(X, k, budget, seed), as the search gave them when
# every step enumerated the moves from scratch and rebuilt the complex
# through Complex.from_facets
STELLATION_PINS = {
    "stacked(3,30,1),k=1": (
        "found", 25,
        "73362c4da9fa912600f10c60240994e038dbaf90c3c656217db38746e1c9eec6"),
    "lk(M_2_5,0),k=2": (
        "found", 21,
        "59a87bfcbc3a80e6ec5d08e9ba4bcb50e77f59023c7db95f0925aa9b4d0a8701"),
    "pentagon,k=1": (
        "found", 2,
        "a15813491171e16c582bf7cfd8f8f35ab1a56eb0eea670a570a125435859767a"),
    "S3_16,k=3,budget=10^4": ("exhausted", 0, None),
    "flipped(1),k=3": (
        "found", 31,
        "0a9e826732ff3f06926a7ab18bf979e006b508c8db44ca6d1bf04d4dcedd8238"),
    "flipped(1),k=1,budget=500": ("exhausted", 501, None),
}


@pytest.mark.parametrize("name", sorted(STELLATION_PINS))
def test_stellation_search_pinned(corp, name):
    X, k, budget, seed = stellation_case(corp, name)
    out = stellation_search(X, k, budget, seed)
    assert (out.status, out.nodes, certificate_digest(out)) == \
        STELLATION_PINS[name]


# (nodes, certificate digest) of each vertex link's search in
# w_k_membership(M_2_5, 2), under the same rebuild-every-step engine
WK_M25_PINS = {
    "x1": (21, "59a87bfcbc3a80e6ec5d08e9ba4bcb50e77f59023c7db95f0925aa9b4d0a8701"),
    "x2": (21, "4f033b80736419c0537b575899b602497694f52037967c7eafbaa14b3248858d"),
    "x3": (21, "819e1b8883352f466bf0eabf7dce2c8047cfabb41ce21025cd19a76492734ba4"),
    "x4": (21, "1329183dda24acd85bf565a4af0aefc1f6eeb469562a423efe2885a7348fb99e"),
    "x5": (21, "dfcb03e186b6c40ca9a603bd6ed778a3c8071aa159ccb12f6584407efc1b0c05"),
    "x6": (21, "66163eb434e6edce18a9f9599424b6fc596162b26cabf3dcdcb19a0cf269a1bf"),
    "x7": (21, "61c753266e5c22c427cd447edd9fff812f348cb15c787ec7f499368e1cf8428b"),
    "y1": (21, "fd7f393e6c8ef69b98f969018dabffd329bd0083cf2ff8affe4aa193be8b8711"),
    "y2": (21, "b7ff50a1718147af9412694209084ec2e0d790b8e780fb6fbd3db6279f5a3bec"),
    "y3": (21, "9c463c880e1bbcbd044d4453fd5dc8e651af2cefeaf9184c46a558b93bfdc94a"),
    "y4": (21, "45edd4f978c9d6df32a9187ae295c997551e74ef0d3364fdd654d982ffb3ec55"),
    "y5": (21, "834ebcd2295ee4d0efa7d5508f72dca8b36094ea17589afa0df0b6532a912e52"),
    "y6": (21, "6cd3f3d90383a5a04e45ae7e8a3a195bee75a3e555743e8f5a575efa776dc8c5"),
    "y7": (21, "ecc89b4e2f28cc1d756e49f2c4c7daa8882fe661090e5169d7066fa2992e3321"),
}


def test_w_k_membership_pinned(corp):
    rep = w_k_membership(corp["M_2_5"].complex, 2)
    assert rep.verdict == "member"
    got = {v: (o.nodes, certificate_digest(o))
           for v, o in rep.per_vertex.items()}
    assert got == WK_M25_PINS


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


# walk_digest of 150 steps from random_stacked_sphere(3, 60, seed), as the
# walk went when every step enumerated from scratch and re-parsed the facets
WALK_PINS = {
    1: "37097779218ae59fd6f8528fdd39d2a5bfdcbe22faae24ad31f0d9447b35053d",
    2: "b0c66120c68ef9ec8dce94eeaaf08ac92a732df77d1e0316f49de17210867e44",
}


@pytest.mark.parametrize("seed", sorted(WALK_PINS))
def test_bistellar_walk_pinned(seed):
    X = random_stacked_sphere(3, 60, seed=seed)
    assert walk_digest(X, 150, seed) == WALK_PINS[seed]
