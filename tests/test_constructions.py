"""Generators and corpus self-checks."""
import hashlib
import json
from importlib import resources
from math import comb

import pytest

from stellar import constructions
from stellar.constructions import (KN_PAIRS, LUTZ_B2_SHELLING,
                                   S3_16_GENERATORS, CorpusError,
                                   cone_over_antistar, corpus,
                                   corpus_complex, cross_polytope,
                                   cyclic_complex, klee_novik,
                                   moebius_torus_7, random_stacked_ball,
                                   random_stacked_sphere,
                                   real_projective_plane_6, standard_ball,
                                   standard_sphere)
from stellar.core import (Complex, InputError, RangeError, _facet_lines,
                          are_isomorphic, boundary, is_closed_pseudomanifold,
                          join, link, neighbourliness, parse_facets)
from stellar.homology import QQ, betti
from stellar.vectors import f_vector, g_vector


def test_standard_sphere_and_ball():
    assert f_vector(standard_sphere(2)) == (4, 6, 4)
    assert standard_sphere(-1) == Complex.empty()
    assert f_vector(standard_ball(3)) == (4, 6, 4, 1)


def test_cross_polytope():
    assert f_vector(cross_polytope(1)) == (4, 4)
    for d in (2, 3, 4):
        x = cross_polytope(d)
        assert len(x.facets) == 2 ** (d + 1)
        assert f_vector(x) == tuple(2 ** (i + 1) * comb(d + 1, i + 1)
                                    for i in range(d + 1))
        for i in range(1, d + 2):
            assert not x.has_face((x.id_of(f"x{i}"), x.id_of(f"y{i}")))


def test_cyclic_complex():
    assert f_vector(cyclic_complex(4, [(0, 1)])) == (4, 4)
    s316 = cyclic_complex(16, [(0, 1, 4, 6), (0, 1, 4, 9), (0, 1, 6, 14),
                               (0, 1, 8, 9), (0, 1, 8, 10), (0, 1, 10, 14),
                               (0, 2, 9, 13)])
    assert len(s316.facets) == 104  # one orbit of length 8, six of length 16
    orbit8 = cyclic_complex(16, [(0, 1, 8, 9)])
    assert len(orbit8.facets) == 8


def test_torus_7():
    t = moebius_torus_7()
    assert f_vector(t) == (7, 21, 14)
    assert is_closed_pseudomanifold(t)
    assert betti(t, QQ).beta == (1, 2, 1)


def test_rp2_6():
    r = real_projective_plane_6()
    assert f_vector(r) == (6, 15, 10)
    assert is_closed_pseudomanifold(r)
    # every vertex link is a pentagon
    for v in range(6):
        assert f_vector(link(r, (v,))) == (5, 5)


def test_cone_over_antistar(corp):
    s316 = corp["S3_16"].complex
    b = cone_over_antistar(s316, 0)
    assert boundary(b) == s316
    for seed in range(5):
        from stellar.constructions import random_stacked_sphere
        s = random_stacked_sphere(2, 6 + seed, seed=seed)
        assert boundary(cone_over_antistar(s, seed % s.m)) == s


def test_klee_novik_structure():
    for k, d in KN_PAIRS:
        mbar, m = klee_novik(k, d)
        assert m.m == 2 * d + 4
        assert len(mbar.facets) == 2 * sum(comb(d + 1, j) for j in range(k + 1))
        assert boundary(mbar) == m
        assert is_closed_pseudomanifold(m)


def test_klee_novik_g_vector(corp):
    for k, d in KN_PAIRS:
        g = g_vector(corp[f"M_{k}_{d}"].complex)
        for j in range(k + 2):
            assert g[j] == comb(d + 2, j)
        for l in range(k + 1, d - k + 1):
            assert g[l + 1] == (-1) ** (l - k) * comb(d + 2, l + 1)


def test_klee_novik_automorphisms(corp):
    for k, d in ((1, 3), (2, 4)):
        mbar = corp[f"Mbar_{k}_{d}"].complex

        def permute(fn):
            return {frozenset(fn(n) for n in f)
                    for f in mbar.facets_as_names()}

        facets = {frozenset(f) for f in mbar.facets_as_names()}

        def swap_all(n):  # x_j <-> y_j everywhere
            return ("y" if n[0] == "x" else "x") + n[1:]

        def reflect(n):  # j -> d+3-j
            return n[0] + str(d + 3 - int(n[1:]))

        def rotate(n):  # the cyclic generator; form depends on k's parity
            j = int(n[1:])
            if j < d + 2:
                return n[0] + str(j + 1)
            if k % 2 == 0:
                return n[0] + "1"
            return ("y" if n[0] == "x" else "x") + "1"

        assert permute(swap_all) == facets
        assert permute(reflect) == facets
        assert permute(rotate) == facets


def test_klee_novik_links_isomorphic(corp):
    m = corp["M_1_3"].complex
    links = [link(m, (v,)) for v in range(0, m.m, 3)]
    for lk in links[1:]:
        assert are_isomorphic(links[0], lk)


def test_klee_novik_k0_two_spheres():
    mbar, m = klee_novik(0, 2)
    assert len(mbar.facets) == 2
    assert betti(m, QQ).beta == (2, 0, 2)  # a disjoint pair of 2-spheres


def test_kn_cross_polytope_skeleton(corp):
    # the k-skeleton of M(k,d) agrees with the ambient cross polytope
    m = corp["M_2_5"].complex
    x = cross_polytope(6)
    for t in range(3):
        assert m.n_faces(t) == x.n_faces(t)


def test_corpus_loads_and_validates(corp):
    assert len(corp) == 26
    assert corpus_complex("torus_7").m == 7
    with pytest.raises(Exception):
        corpus_complex("nope")


def test_corpus_tags(corp):
    assert corp["S3_16"].tags["unflippable"]
    assert corp["lutz_B2"].tags["ears"] == (("2", "4", "5", "7"),)
    assert neighbourliness(corp["S3_16"].complex) == 2


def _eager_entries():
    """The corpus as it was built before entries were built on demand:
    every entry in one pass, each derived entry from the objects built
    before it.  Maps name -> (complex, expected f, tags)."""
    entries = {}

    def add(name, cx, expected_f, **tags):
        entries[name] = (cx, tuple(expected_f), tags)

    def text(fname):
        return resources.files("stellar.data").joinpath(fname).read_text("utf-8")

    s3_16 = cyclic_complex(16, S3_16_GENERATORS)
    add("S3_16", s3_16, (16, 120, 208, 104),
        unflippable=True, neighbourly=2, closed=True)
    add("B4_16", cone_over_antistar(s3_16, s3_16.id_of("0")),
        (16, 120, 274, 247, 78), stacked=2, boundary="S3_16")
    sigma = parse_facets(text("sigma3_16.txt"))
    add("Sigma3_16", sigma, (16, 106, 180, 90), closed=True)
    d4_16 = cone_over_antistar(sigma, sigma.id_of("6'"))
    add("D4_16", d4_16, (16, 106, 232, 205, 64), boundary="Sigma3_16")
    d6_18 = join(d4_16, Complex.from_facets([("w1", "w2")]))
    add("D6_18", d6_18, (18, 139, 460, 775, 706, 333, 64), stacked=2)
    add("S5_18", boundary(d6_18), (18, 139, 460, 775, 654, 218),
        closed=True, edge_link=("w1", "w2"))

    zlines = _facet_lines(text("ziegler_s3_10.txt"))
    add("ziegler_S3_10", parse_facets(text("ziegler_s3_10.txt")),
        (10, 38, 56, 28), closed=True)
    add("ziegler_S2_10", parse_facets(text("ziegler_s2_10.txt")),
        (10, 24, 16), closed=True)
    add("ziegler_B1", Complex.from_facets(zlines[:7]), (10, 24, 22, 7),
        dual_graph="path", stacked=1, boundary="ziegler_S2_10")
    add("ziegler_B2", Complex.from_facets(zlines[7:]), (10, 38, 50, 21),
        ears=(), boundary="ziegler_S2_10")

    llines = _facet_lines(text("lutz_s3_8.txt"))
    add("lutz_S3_8", parse_facets(text("lutz_s3_8.txt")), (8, 28, 40, 20),
        closed=True, neighbourly=2)
    add("lutz_S2_8", parse_facets(text("lutz_s2_8.txt")), (8, 18, 12),
        closed=True)
    add("lutz_B1", Complex.from_facets(llines[:5]), (8, 18, 16, 5),
        dual_graph="path", stacked=1, boundary="lutz_S2_8")
    add("lutz_B2", Complex.from_facets(llines[5:]), (8, 28, 36, 15),
        ears=(("2", "4", "5", "7"),), shelling_order=LUTZ_B2_SHELLING,
        shelled=2, boundary="lutz_S2_8")

    add("torus_7", moebius_torus_7(), (7, 21, 14), closed=True, neighbourly=2)
    add("rp2_6", real_projective_plane_6(), (6, 15, 10),
        closed=True, neighbourly=2)

    kn_expected = {
        (1, 2): ((8, 24, 24, 8), (8, 24, 16)),
        (1, 3): ((10, 40, 60, 40, 10), (10, 40, 60, 30)),
        (1, 4): ((12, 60, 120, 120, 60, 12), (12, 60, 120, 120, 48)),
        (2, 4): ((12, 60, 160, 210, 132, 32), (12, 60, 160, 180, 72)),
        (2, 5): ((14, 84, 280, 490, 462, 224, 44),
                 (14, 84, 280, 490, 420, 140)),
    }
    for (k, d), (fbar, fm) in kn_expected.items():
        mbar, m = klee_novik(k, d)
        add(f"Mbar_{k}_{d}", mbar, fbar, kn=(k, d))
        add(f"M_{k}_{d}", m, fm, kn=(k, d), closed=True)
    return entries


def test_corpus_matches_eager_oracle(corp):
    eager = _eager_entries()
    assert list(corp) == list(eager)
    for name, (cx, expected_f, tags) in eager.items():
        e = corp[name]
        assert e.name == name
        assert e.complex.names == cx.names, name
        assert e.complex.facets == cx.facets, name
        assert e.expected_f == expected_f, name
        assert e.tags == tags, name


def test_corpus_builds_only_what_is_read(fresh_corpus):
    assert list(corpus()) == list(_eager_entries())
    assert len(corpus()) == 26 and "torus_7" in corpus()
    assert "nope" not in corpus() and corpus().get("nope") is None
    assert fresh_corpus._built == {}
    assert corpus_complex("torus_7").m == 7
    assert set(fresh_corpus._built) == {"torus_7"}
    with pytest.raises(InputError, match="available: B4_16, D4_16"):
        corpus_complex("nope")
    assert set(fresh_corpus._built) == {"torus_7"}
    corpus_complex("S5_18")
    assert set(fresh_corpus._built) == {"torus_7", "S5_18", "D6_18",
                                        "D4_16", "Sigma3_16"}
    assert corpus()["S5_18"] is corpus()["S5_18"]


def test_corpus_failed_check_keeps_nothing(fresh_corpus, monkeypatch):
    build, _, tags = constructions._ENTRIES["D4_16"]
    monkeypatch.setitem(constructions._ENTRIES, "D4_16",
                        (build, (16, 106, 232, 205, 65), tags))
    for _ in range(2):
        with pytest.raises(CorpusError, match=r"corpus entry D4_16: face "
                           r"vector \(16, 106, 232, 205, 64\) does not match "
                           r"expected \(16, 106, 232, 205, 65\)"):
            corpus()["D4_16"]
        assert set(fresh_corpus._built) == {"Sigma3_16"}
    # an entry derived from a failed one fails with it
    with pytest.raises(CorpusError, match="entry D4_16"):
        corpus()["S5_18"]
    assert set(fresh_corpus._built) == {"Sigma3_16"}
    with pytest.raises(CorpusError):
        list(corpus().values())


def test_s5_18_edge_link(corp):
    s5 = corp["S5_18"].complex
    lk = link(s5, (s5.id_of("w1"), s5.id_of("w2")))
    assert lk == corp["Sigma3_16"].complex


def test_d4_16_construction(corp):
    d4 = corp["D4_16"].complex
    sig = corp["Sigma3_16"].complex
    assert boundary(d4) == sig
    # every facet contains 6'
    assert all("6'" in f for f in d4.facets_as_names())


# SHA-256 of [names, facets_as_names()] of random_stacked_ball(d, n, seed),
# as the ball was built when each step rebuilt the complex and recomputed
# its boundary
STACKED_BALL_PINS = {
    (2, 60, 0): "357e233c7c0f46e065d4b3d35bfd49a9a5d7924c06c728eaa6e23c780119f821",
    (2, 60, 1): "eb9427c215cda1356ff4c4d44c7e47c976889c0142844c34de3c264dfad4e139",
    (2, 60, 2): "b035c5258ececeb25a041e18dc579197740f67f2b469e0c63bc94672caa9a532",
    (2, 60, 3): "9db61e0ce92955b20ac28a7c7f068069f958ac18ff0d2853ab7fbf39ffdee25f",
    (2, 60, 4): "f57982adf6cd171ca2e131811e38f9a96cbe5f5fa610174e7d3ae177818f9247",
    (2, 60, 5): "b1d3f821e106af407c02f6c1c07f4bc4622385ef20f97bc034434e8b7c1e9c43",
    (3, 60, 0): "14a70c93c20848e3e900ed254bdc561a6c61f2133930b2b24d4fcc792030fa08",
    (3, 60, 1): "f71c5cc66a173d33e822e4a20abd8a3b90a98df4e2d38bf6450bce1214efaa97",
    (3, 60, 2): "51bbfc8329cdc1e3c541e818d6c4624fd2d1780379a7524b38d418304a009cac",
    (3, 60, 3): "50ef461ab0b0d04428670e1c7929a2899813d31e485979b229b0806e484b5301",
    (3, 60, 4): "9be132108eb47cdc5bcf5d870cd86f4d75d717b4f1a46d840441af877b587ac4",
    (3, 60, 5): "336d9a84037b21c3b398372c3f17863afe557654e7e46dd281b71d0969d827ee",
    (1, 9, 3): "1def5ad4afc3a1c1b0c3a51d96daa312c48230a7eaea7045b375dee8ea8d9ca7",
    (4, 30, 2): "e3e012e6ba9ef9afe2842b0ec70939d5a51002c052c77fa76006b3b90897c97a",
    (2, 1, 0): "4111b2d5198b35ab5c0cdaac813cf25a02dadb9d74d83c7779526bce27aecce8",
    (3, 400, 7): "90e330399908f0f54948ee16b07b0ba96e099dc141b5c5f7341f732e9237ef72",
}


@pytest.mark.parametrize("d,n,seed", sorted(STACKED_BALL_PINS))
def test_random_stacked_ball_pinned(d, n, seed):
    B = random_stacked_ball(d, n, seed=seed)
    digest = hashlib.sha256(
        json.dumps([list(B.names), B.facets_as_names()]).encode()).hexdigest()
    assert digest == STACKED_BALL_PINS[d, n, seed]
    assert len(B.facets) == max(n, 1) and B.m == B.dim + len(B.facets)
    assert f_vector(boundary(B))[-1] == (d + 1) + (len(B.facets) - 1) * (d - 1)


def test_random_stacked_ball_needs_positive_dimension():
    with pytest.raises(RangeError):
        random_stacked_ball(0, 3)


# SHA-256 of [names, facets_as_names()] of random_stacked_sphere(d, m,
# seed), as the sphere was built when each 0-move went through
# apply_bistellar and Complex.from_facets
STACKED_SPHERE_PINS = {
    (2, 5, 0): "ad3d1d3186a726f9788a8126b1c6a008a6322222521ec97bc2407cce3c9f2fb7",
    (2, 12, 1): "ebc11efe40b469bac44a9de529f93d9156bd0cc12b6253aa4c785660ac4861a6",
    (2, 40, 2): "fc79fa3bbcf6742deb1ee05d6cd62b34a977b68f75cbc4d1db9e9656e3d49eda",
    (2, 100, 3): "e02781f154ab2d040860f22eaa2cc59ad58ee153f4a68004fd0178a684a2bb48",
    (3, 6, 0): "8ec27a4dc5d7e5b269aa5586d4b30f5d7b2e314ad91c3e73ecf029bdbc452881",
    (3, 30, 1): "4b7fa835bc2e8037d556125bce5ded2a3a677811dbaaba32a7fa901a32f7456e",
    (3, 60, 2): "7247fc8e168890bc94c80fffc75d2a487c95f4e2908431e9c2dd2abd06932f4c",
    (3, 120, 4): "494078f25d8711303a8117801ffe5c374e809424581c8d1f0b3b4815c3d42549",
    (4, 7, 0): "0c9570d9a8dc5a5bb6068ab8bf2ae90a215b981c1206845c8e4a9b7b6191b7c1",
    (4, 20, 5): "057688e6be2f8ca9cbea50b8045c1bb353e3a9273947bf0de973675218d859b9",
    (4, 50, 6): "a42e2c7e4c4a88e46351d7d8e2d7e67332e1d98ef0c896e4e1aa7ec9068bd328",
    (1, 9, 2): "1c2a8daf750332d4746423a4a0aff027abdcb70b191a6e6a5bb4e86264da9dba",
    (3, 4, 0): "14f827928b16d5f3fb3939ed3b74be795f1c8465334b6e5c786f28972fa0dfb9",
}


@pytest.mark.parametrize("d,m,seed", sorted(STACKED_SPHERE_PINS))
def test_random_stacked_sphere_pinned(d, m, seed):
    S = random_stacked_sphere(d, m, seed=seed)
    digest = hashlib.sha256(
        json.dumps([list(S.names), S.facets_as_names()]).encode()).hexdigest()
    assert digest == STACKED_SPHERE_PINS[d, m, seed]
    assert S.m == max(m, d + 2) and len(S.facets) == (d + 2) + (S.m - d - 2) * d


def test_random_stacked_sphere_of_dimension_minus_one():
    assert random_stacked_sphere(-1, 0) == Complex.empty()
    with pytest.raises(RangeError):
        random_stacked_sphere(-1, 1)
