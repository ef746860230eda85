"""Exact homology over Q and prime fields."""
import random
from itertools import combinations

import pytest

from stellar.constructions import (corpus, random_stacked_sphere,
                                   standard_ball, standard_sphere)
from stellar.core import Complex, InputError, induced, link
from stellar.homology import (QQ, FieldSpec, _is_prime, betti,
                              inclusion_injective, is_homology_sphere,
                              orientable, reduced_betti, relative_betti,
                              relative_betti_pair)
from stellar.vectors import f_vector


def test_field_spec_parsing():
    assert str(FieldSpec.parse("q")) == "Q"
    assert FieldSpec.parse("z5").p == 5
    with pytest.raises(Exception):
        FieldSpec.prime(6)
    for token in ("zx", "z", "z2.5", "f7", "z6"):
        with pytest.raises(InputError):
            FieldSpec.parse(token)


def test_field_prime_check_is_exact_and_prompt():
    assert FieldSpec.parse("z1000000000000000003").p == 10 ** 18 + 3
    assert FieldSpec.parse(f"z{2 ** 64 - 59}").p == 2 ** 64 - 59
    # Carmichael numbers; the second is a strong pseudoprime to every
    # prime base up to 23
    for n in (561, 41041, 3825123056546413051):
        with pytest.raises(InputError):
            FieldSpec.prime(n)
    with pytest.raises(InputError, match="below 2"):
        FieldSpec.parse(f"z{2 ** 64 + 13}")
    trial = [n for n in range(2000) if n > 1 and all(n % f for f in range(2, n))]
    assert [n for n in range(2000) if _is_prime(n)] == trial


def test_is_homology_sphere(corp, fields):
    for fld in (QQ, FieldSpec.prime(2), FieldSpec.prime(5)):
        assert is_homology_sphere(corp["Sigma3_16"].complex, fld)
    for d in range(5):
        assert is_homology_sphere(standard_sphere(d), QQ)
    for name in ("S3_16", "lutz_S3_8", "ziegler_S2_10"):
        assert is_homology_sphere(corp[name].complex, FieldSpec.prime(3))
    not_spheres = [Complex.empty(), standard_ball(0), standard_ball(3),
                   Complex.from_facets([["a"], ["b"], ["c"]]),
                   Complex.from_facets([[1, 2], [2, 3], [3, 1], [4, 5], [5, 6], [6, 4]]),
                   corp["lutz_B2"].complex, corp["torus_7"].complex,
                   corp["rp2_6"].complex]
    for X in not_spheres:
        for fld in fields:
            assert not is_homology_sphere(X, fld), (X, fld)


def test_spheres_all_fields(fields):
    for d in (1, 2, 3):
        s = standard_sphere(d)
        expect = (1,) + (0,) * (d - 1) + (1,)
        for fld in fields:
            assert betti(s, fld).beta == expect


def test_poincare_sphere(corp, fields):
    sig = corp["Sigma3_16"].complex
    for fld in fields:
        assert betti(sig, fld).beta == (1, 0, 0, 1)


def test_torus_and_rp2(corp):
    tor = corp["torus_7"].complex
    assert betti(tor, QQ).beta == (1, 2, 1)
    rp = corp["rp2_6"].complex
    assert betti(rp, QQ).beta == (1, 0, 0)
    assert betti(rp, FieldSpec.prime(2)).beta == (1, 1, 1)
    assert betti(rp, FieldSpec.prime(3)).beta == (1, 0, 0)


def test_m13_betti(corp):
    assert betti(corp["M_1_3"].complex, QQ).beta == (1, 1, 1, 1)


def test_empty_complex_convention():
    bt = betti(Complex.empty(), QQ)
    assert bt.reduced == (-1,)
    assert reduced_betti(Complex.empty(), QQ) == (-1,)


def test_euler_poincare_on_corpus(corp, fields):
    for e in corp.values():
        f = f_vector(e.complex)
        chi = sum((-1) ** i * fi for i, fi in enumerate(f))
        for fld in fields:
            bt = betti(e.complex, fld)
            assert bt.euler() == chi, (e.name, str(fld))


def test_relative_betti_pair_ball_mod_boundary():
    from stellar.core import boundary
    for d in (1, 2, 3):
        b = standard_ball(d)
        rel = relative_betti_pair(b, boundary(b), QQ)
        assert rel == [0] * d + [1]


def test_relative_betti_same_sets_zero(corp):
    X = corp["torus_7"].complex
    a = list(range(4))
    assert relative_betti(X, a, a, QQ) == [0, 0, 0]


def test_relative_betti_argument_error(corp):
    X = corp["torus_7"].complex
    with pytest.raises(Exception):
        relative_betti(X, [0, 5], [0, 1], QQ)


def test_excision_identity_random_small():
    # reduced beta_{i-1} of a link restriction equals the relative beta_i
    # of the corresponding vertex-addition pair (for nonempty A)
    rng = random.Random(7)
    for trial in range(20):
        X = random_stacked_sphere(2, rng.randint(5, 9), seed=trial)
        x = rng.randrange(X.m)
        lk = link(X, (x,))
        lk_ids_in_X = [X.id_of(n) for n in lk.names]
        subset = [v for v in lk_ids_in_X if rng.random() < 0.6]
        if not subset:
            continue
        sub_in_lk = [lk.id_of(X.name_of(v)) for v in subset]
        lk_res = induced(lk, sub_in_lk)
        left = reduced_betti(lk_res, QQ)
        right = relative_betti(X, subset, subset + [x], QQ)
        for i in range(1, X.dim + 1):
            lv = left[i - 1] if i - 1 < len(left) else 0
            assert lv == right[i]


def test_inclusion_injective_examples(corp):
    c4 = Complex.from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    assert not inclusion_injective(c4, [c4.id_of("1"), c4.id_of("3")], 0, QQ)
    s = standard_sphere(2)
    for r in range(s.m + 1):
        for sub in combinations(range(s.m), r):
            for j in range(s.dim + 1):
                assert inclusion_injective(s, sub, j, QQ)
    tor = corp["torus_7"].complex
    hollow = [tor.id_of("0"), tor.id_of("1"), tor.id_of("2")]
    assert not tor.has_face(hollow)
    assert inclusion_injective(tor, hollow, 1, QQ)


def test_inclusion_injective_full_set_is_identity(corp):
    for name in ("torus_7", "rp2_6"):
        X = corp[name].complex
        for j in range(X.dim + 1):
            assert inclusion_injective(X, range(X.m), j, QQ)


def test_orientable(corp):
    assert orientable(corp["M_1_4"].complex, QQ)
    assert not orientable(corp["rp2_6"].complex, QQ)
    assert orientable(corp["rp2_6"].complex, FieldSpec.prime(2))
    for name in ("S3_16", "torus_7", "M_2_5"):
        assert orientable(corp[name].complex, FieldSpec.prime(2))
    with pytest.raises(Exception):
        orientable(standard_ball(2), QQ)


def test_field_dependence_of_ranks():
    # a 2-torsion example where Z2 differs from Z3/Q
    rp = corpus()["rp2_6"].complex
    assert reduced_betti(rp, FieldSpec.prime(2)) == (0, 1, 1)
    assert reduced_betti(rp, FieldSpec.prime(3)) == (0, 0, 0)
