"""f/h/g calculus: transforms, round-trips and the linear identities."""
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stellar.constructions import random_stacked_sphere, standard_sphere
from stellar.core import Complex, RangeError, link
from stellar.vectors import (VectorProfile, _link_g_sides,
                             check_dehn_sommerville, check_klee,
                             euler_identity_check, f_from_g, f_vector,
                             g_from_f, g_vector, h_vector, link_g_identity,
                             w_k_gvector_relations)


def brute_h(X):
    # independent oracle: expand the alternating-sum definition directly
    d = X.dim
    f = [1] + [X.n_faces(t) for t in range(d + 1)]
    out = []
    for j in range(d + 2):
        acc = 0
        for i in range(-1, j):
            acc += (-1) ** (j - i - 1) * comb(d - i, j - i - 1) * f[i + 1]
        out.append(acc)
    return tuple(out)


def test_f_vectors_paper_values(corp):
    assert f_vector(corp["S3_16"].complex) == (16, 120, 208, 104)
    assert f_vector(corp["Sigma3_16"].complex) == (16, 106, 180, 90)
    s = standard_sphere(3)
    assert f_vector(s) == tuple(comb(5, i + 1) for i in range(4))


def test_h_g_of_four_cycle():
    c4 = Complex.from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    assert h_vector(c4) == (1, 2, 1) == brute_h(c4)
    assert g_vector(c4) == (1, 1, -1)


def test_g_of_standard_spheres():
    for d in range(0, 5):
        assert g_vector(standard_sphere(d)) == (1,) + (0,) * (d + 1)


def test_g_of_kn_generators(corp):
    m14 = corp["M_1_4"].complex
    g = g_vector(m14)
    assert g[1] == 6 == comb(6, 1) and g[2] == 15 == comb(6, 2)


def test_round_trip_on_corpus(corp):
    for e in corp.values():
        X = e.complex
        assert f_from_g(X.dim, g_vector(X)) == f_vector(X)


def test_g1_is_f0_minus_d_plus_2(corp):
    for e in corp.values():
        X = e.complex
        assert g_vector(X)[1] == f_vector(X)[0] - (X.dim + 2)


def test_f_from_g_validates():
    with pytest.raises(Exception):
        f_from_g(2, (2, 0, 0, 0))
    with pytest.raises(Exception):
        f_from_g(2, (1, 0))


def test_vector_profile(corp):
    vp = VectorProfile.of(corp["torus_7"].complex)
    assert vp.f == (7, 21, 14)
    assert vp.g[0] == 1
    assert all(vp.g[j] == vp.h[j] - (vp.h[j - 1] if j else 0)
               for j in range(len(vp.h)))


def test_dehn_sommerville_on_spheres(corp):
    for name in ("S3_16", "Sigma3_16", "ziegler_S3_10", "lutz_S3_8",
                 "ziegler_S2_10", "lutz_S2_8", "S5_18"):
        assert check_dehn_sommerville(corp[name].complex).all_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 40), st.integers(0, 10 ** 6))
def test_dehn_sommerville_on_random_stacked_spheres(d, extra, seed):
    X = random_stacked_sphere(d, d + 2 + extra, seed=seed)
    assert check_dehn_sommerville(X).all_zero


def test_klee_formula(corp):
    # 8-vertex and 7-vertex tori have chi = 0
    for name in ("M_1_2", "torus_7"):
        rep = check_klee(corp[name].complex)
        assert rep.all_zero
    for d in range(1, 5):
        assert check_klee(standard_sphere(d)).all_zero
    # a sphere checked against the wrong chi fails loudly
    assert not check_klee(standard_sphere(2), chi=0).all_zero


def test_link_g_identity_small():
    s24 = standard_sphere(2)
    lhs, rhs = link_g_identity(s24, 1)
    assert lhs == rhs == 0


def test_link_g_identity_m13(corp):
    # both sides equal 4*g_1 + 2*g_2 = 4*5 + 2*10 = 40
    lhs, rhs = link_g_identity(corp["M_1_3"].complex, 1)
    assert lhs == rhs == 40


def _link_g_identity_reference(X, j):
    # the per-j form: every vertex link built again for each j
    d = X.dim
    lhs = 0
    for x in range(X.m):
        lk = link(X, (x,))
        lhs += g_from_f(tuple(lk.n_faces(t) for t in range(d)), d - 1)[j]
    g = g_vector(X)
    return lhs, (d + 2 - j) * g[j] + (j + 1) * g[j + 1]


def test_link_g_identity_everywhere(corp):
    for e in corp.values():
        X = e.complex
        sides = _link_g_sides(X)
        assert len(sides) == X.dim + 1
        for j, (lhs, rhs) in enumerate(sides):
            assert lhs == rhs, (e.name, j)
            assert (lhs, rhs) == _link_g_identity_reference(X, j), (e.name, j)
    X = corp["M_1_3"].complex
    assert [link_g_identity(X, j) for j in range(X.dim + 1)] == \
        _link_g_sides(X)
    for j in (-1, X.dim + 1):
        with pytest.raises(RangeError):
            link_g_identity(X, j)


def test_euler_identity_hand_oracle():
    # m=6, d=3, t=0: sum = C(1,0)/C(6,1) + C(1,1)/C(6,2) = 7/30
    lhs, rhs = euler_identity_check(6, 3, 0)
    assert lhs == rhs == Fraction(7, 30)


def test_euler_identity_single_term():
    for d in (2, 3, 7):
        for t in range(d + 1):
            lhs, rhs = euler_identity_check(d + 2, d, t)
            assert lhs == rhs


def test_euler_identity_sweep():
    for m in range(5, 31, 5):
        for d in range(0, min(m - 2, 10) + 1, 2):
            for t in range(0, d + 1, 2):
                lhs, rhs = euler_identity_check(m, d, t)
                assert lhs == rhs


def test_wk_gvector_relations(corp):
    rep = w_k_gvector_relations(corp["M_1_4"].complex, 1)
    assert rep.ok and rep.chi_formula[0] == 0
    rep = w_k_gvector_relations(corp["M_2_4"].complex, 2)
    assert rep.ok and rep.chi_formula[0] == 4
    rep = w_k_gvector_relations(corp["M_1_3"].complex, 1)
    assert rep.ok and rep.chi_formula is None


def test_wk_relations_vacuous_for_stellated_spheres():
    # g_j = 0 in the middle range makes the relations hold with zeros
    from stellar.constructions import random_stacked_sphere
    s = random_stacked_sphere(3, 9, seed=3)
    g = g_vector(s)
    assert all(g[j] == 0 for j in range(2, 4))
    assert w_k_gvector_relations(s, 1).ok
