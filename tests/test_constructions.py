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


# SHA-256 of [names, facets_as_names()] of random_stacked_ball(d, n, seed)
STACKED_BALL_PINS = {
    (2, 60, 0): "f5be0d60e759763fcb0d9e8dfd8cd1c3534713f9c50c4479a9199d57090aa7fd",
    (2, 60, 1): "0a08e758438166331837e8b881501a09daeec829377a72aab52768906b8ac193",
    (2, 60, 2): "37cc9a2026c3fc92a27debee5146fdbf58f6dde9dbb97e369764d3fe2d080a8a",
    (2, 60, 3): "665dfb3c5be5fa7f2df4755d58c3da306ac038905446c345c835b34648e4c550",
    (2, 60, 4): "2d6a655f919f06b2eab3c7870ed09ff4f487c583e248ccef0359036dbac5c328",
    (2, 60, 5): "15bf748b3cf779baa9b32cb4d7a01dd42167d5038f45760acc3c226d3eb8b754",
    (3, 60, 0): "25760b56224f80659937411bb140ea5e4ac9e61b49e44af05609f24db420ac00",
    (3, 60, 1): "9aaca781b5e8e570a1a1f4a7d156546e2c349b2ad0279074d5fcb0fa44ead739",
    (3, 60, 2): "4f001b25747953d2af8393f21e8c6f7836826abd0c3ec9be45b69d71809a689c",
    (3, 60, 3): "152f1d9cfdba2a115c253879ec99e0d8eedc303b50c73454f6d42619bfe7d125",
    (3, 60, 4): "e67c61a332cf4e05858f7f1c634d1f5fb41df176cd284eb8ea58691492c95886",
    (3, 60, 5): "53a22427b5f66bb87e75d608a49c4ce150271d53a16e18d09268b7dc3432b393",
    (1, 9, 3): "623e8043274f747b4f1fc0ed089da8f86a2e6a53296c173facd7e76da42d86cd",
    (4, 30, 2): "ddc4c42d36d2386a9c1b29d8aaef593f6ae2d1f67673345d20097fde76d4ed39",
    (2, 1, 0): "4111b2d5198b35ab5c0cdaac813cf25a02dadb9d74d83c7779526bce27aecce8",
    (3, 400, 7): "6e7ddaf61300d51bdb9a41b0c651b24bd1b50da8694d122e3ea6487c509368cc",
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
# seed)
STACKED_SPHERE_PINS = {
    (2, 5, 0): "ad3d1d3186a726f9788a8126b1c6a008a6322222521ec97bc2407cce3c9f2fb7",
    (2, 12, 1): "579e787f3db0dd870560870da6cf7e81238c12b5bd6e622e4e9f1ee9b5fd966d",
    (2, 40, 2): "3d126bff2df61e66dd05cc2f17e595f2db3e8676229322fd9fee55db383f176b",
    (2, 100, 3): "8c4a1ddf377efe7d6c4a3a8683cabb167cccb9c56c3460de8754cc5c70c261c5",
    (3, 6, 0): "8ec27a4dc5d7e5b269aa5586d4b30f5d7b2e314ad91c3e73ecf029bdbc452881",
    (3, 30, 1): "6bb2f94cb32e837f8ee4ee414e6a9d5cfd82177bae0094c16a4af6bf812e4234",
    (3, 60, 2): "07cf5816e2067d109f80955addc92e9244ba0b48abe9ae623726918039efdef8",
    (3, 120, 4): "85315af129f929754345c933f1093575072f3f0b73d74375623741046300ae17",
    (4, 7, 0): "0c9570d9a8dc5a5bb6068ab8bf2ae90a215b981c1206845c8e4a9b7b6191b7c1",
    (4, 20, 5): "bd7582d38fadf0687efa7cb3496c50d60bb4c0b6687939fb06aa51344e9c72c2",
    (4, 50, 6): "c9420dc4a268912bec1876ee31d6cb5a8619eb3d0ad37d141b0c0f683e374c8b",
    (1, 9, 2): "2f32ed0aba76977ad475db688a53fe74e1635b911eb9ddd338ad9fe015584780",
}


@pytest.mark.parametrize("d,m,seed", sorted(STACKED_SPHERE_PINS))
def test_random_stacked_sphere_pinned(d, m, seed):
    S = random_stacked_sphere(d, m, seed=seed)
    digest = hashlib.sha256(
        json.dumps([list(S.names), S.facets_as_names()]).encode()).hexdigest()
    assert digest == STACKED_SPHERE_PINS[d, m, seed]
    assert S.m == m and len(S.facets) == (d + 2) + (m - d - 2) * d


def test_random_stacked_sphere_of_dimension_minus_one():
    assert random_stacked_sphere(-1, 0) == Complex.empty()


@pytest.mark.parametrize("d,m", [(3, 4), (2, 3), (1, 0), (0, 1), (0, 3),
                                 (0, 50), (-1, 1), (-2, 0)])
def test_random_stacked_sphere_refuses_vertex_counts(d, m):
    """A stacked d-sphere has d + 2 vertices, or more for d >= 1 only: a
    0-move on S^0 replaces a point.  Any other count is refused before
    the first move, so a count that no move reaches cannot hang."""
    with pytest.raises(RangeError):
        random_stacked_sphere(d, m)
