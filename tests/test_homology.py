"""Exact homology over Q and prime fields."""
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stellar.constructions import (corpus, cross_polytope, klee_novik,
                                   moebius_torus_7,
                                   random_stacked_ball, random_stacked_sphere,
                                   real_projective_plane_6, standard_ball,
                                   standard_sphere)
from stellar.core import (Complex, InputError, antistar, bits, induced,
                          is_closed_pseudomanifold, join, link, mask_of,
                          submasks)
from stellar.exactlinalg import rank
from stellar import homology
from stellar.homology import (GF2, QQ, FieldSpec, _boundary_col_signed,
                              _boundary_ranks, _faces_by_dim, _is_prime,
                              betti, inclusion_injective, is_homology_sphere,
                              orientable, reduced_betti,
                              reduced_betti_of_faces, relative_betti,
                              relative_betti_pair)
from stellar.moves import apply_bistellar, enumerate_bistellar
from stellar.tightness import _ball_closure, mu_via_pairs
from stellar.vectors import f_vector

ORACLE_FIELDS = (QQ, FieldSpec.prime(2), FieldSpec.prime(3))


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


def test_relative_betti_pair_names_a_missing_facet(corp):
    tor = corp["torus_7"].complex
    msg = r"pair subcomplex facet \('0', '1', '2'\) is not in the ambient complex"
    with pytest.raises(InputError, match=msg):  # a non-face of known vertices
        relative_betti_pair(tor, Complex.from_facets([["0", "1", "2"]]), QQ)
    msg = r"pair subcomplex facet \('0', 'x'\) is not in the ambient complex"
    with pytest.raises(InputError, match=msg):  # a vertex the torus lacks
        relative_betti_pair(tor, Complex.from_facets([["0", "x"]]), QQ)


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


# -- clearing: the top-down reduction against the plain one -----------------


def uncleared_ranks(faces_by_dim, field, relative=False):
    """ranks[i] of every boundary map, each reduced over all its columns
    with no clearing: the oracle for ``_boundary_ranks``."""
    ranks = [0] * (len(faces_by_dim) + 1)
    for i in range(1, len(faces_by_dim)):
        rows = set(faces_by_dim[i - 1])
        cols = [{r: v for r, v in _boundary_col_signed(f).items()
                 if not relative or r in rows} for f in faces_by_dim[i]]
        ranks[i] = rank(cols, field)
    return ranks


def uncleared_reduced_betti(faces_by_dim, field, top):
    if not faces_by_dim or not faces_by_dim[0]:
        return [-1] + [0] * top
    ranks = uncleared_ranks(faces_by_dim, field) + [0] * (top + 2)
    n = [len(faces_by_dim[i]) if i < len(faces_by_dim) else 0
         for i in range(top + 1)]
    return [n[0] - ranks[1] - 1] + [n[i] - ranks[i] - ranks[i + 1]
                                    for i in range(1, top + 1)]


KN_2_5 = klee_novik(2, 5)
FIXED = {"Mbar_2_5": KN_2_5[0], "M_2_5": KN_2_5[1],
         "torus_7": moebius_torus_7(), "rp2_6": real_projective_plane_6()}
RIDGE_IN_3 = Complex.from_facets(["abc", "abd", "abe", "cde"])


@st.composite
def sample_complexes(draw):
    """A stacked 2- or 3-sphere after a short bistellar walk, a random
    stacked 2- or 3-ball, or one of ``FIXED``."""
    kind = draw(st.sampled_from(("walk", "ball", "fixed")))
    if kind == "fixed":
        return FIXED[draw(st.sampled_from(sorted(FIXED)))]
    d = draw(st.sampled_from((2, 3)))
    seed = draw(st.integers(0, 10 ** 6))
    if kind == "ball":
        return random_stacked_ball(d, draw(st.integers(1, 25)), seed=seed)
    X = random_stacked_sphere(d, draw(st.integers(d + 2, 11)), seed=seed)
    for _ in range(draw(st.integers(0, 4))):
        moves = enumerate_bistellar(X)
        if not moves:
            break
        X = apply_bistellar(X, draw(st.sampled_from(moves)))
    return X


def subset_mask(draw, X):
    return mask_of(draw(st.sets(st.integers(0, X.m - 1))))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(ORACLE_FIELDS))
def test_cleared_ranks_match_uncleared(data, field):
    X = data.draw(sample_complexes())
    families = [_faces_by_dim(X)]
    amask = subset_mask(data.draw, X)  # a random induced subcomplex
    families.append([[f for f in fs if not f & ~amask] for fs in families[0]])
    for fbd in families:
        cleared = _boundary_ranks(fbd, field)
        assert cleared[2:] == uncleared_ranks(fbd, field)[2:]
        assert reduced_betti_of_faces(fbd, field, X.dim) == \
            uncleared_reduced_betti(fbd, field, X.dim)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_cleared_betti_on_fixed_inputs(name):
    X = FIXED[name]
    for field in ORACLE_FIELDS:
        fbd = _faces_by_dim(X)
        assert list(reduced_betti(X, field)) == \
            uncleared_reduced_betti(fbd, field, X.dim)


def test_cleared_ranks_match_uncleared_at_bench_size():
    """The 7-manifold M_2_7 that the bench reduces, 9,948 faces, over
    Z2."""
    fbd = _faces_by_dim(klee_novik(2, 7)[1])
    assert _boundary_ranks(fbd, GF2)[2:] == uncleared_ranks(fbd, GF2)[2:]


def test_betti_of_the_largest_sign_change_manifolds():
    Mbar, M = klee_novik(3, 7)
    for field in ORACLE_FIELDS:
        assert betti(M, field).beta == (1, 0, 0, 1, 1, 0, 0, 1)
        assert betti(Mbar, field).beta == (1, 0, 0, 1, 0, 0, 0, 0, 0)


def test_apparent_pivots_are_not_built(monkeypatch):
    """Of the 702 columns that clearing leaves on M_2_5, only those an
    elimination reads are built, and the top map, which the signed
    union-find ranks, builds none; the count is an operation count, the
    same over every field here."""
    built = []
    col = homology._boundary_col_signed

    def counting(face):
        built.append(face)
        return col(face)

    monkeypatch.setattr(homology, "_boundary_col_signed", counting)
    X = KN_2_5[1]
    for field in ORACLE_FIELDS:
        built.clear()
        assert reduced_betti(X, field) == (0, 0, 1, 1, 0, 1)
        assert len(built) == len(set(built)) == 127 < 702


def pivot_row_families(data, X):
    """(family, relative) pairs: X's faces, an induced subcomplex, and a
    relative family, drawn as the clearing oracles draw them."""
    fbd = _faces_by_dim(X)
    amask = subset_mask(data.draw, X)
    bmask = subset_mask(data.draw, X)
    cmask = bmask & subset_mask(data.draw, X)
    return [(fbd, False),
            ([[f for f in fs if not f & ~amask] for fs in fbd], False),
            ([[f for f in fs if not f & ~bmask and f & ~cmask] for fs in fbd],
             True)]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(ORACLE_FIELDS))
def test_two_entry_pivots_match_elimination(data, field):
    """Wherever its gate holds, the signed union-find gives the keys of
    ``pivots`` after ``rank`` on the full columns of a map; and
    ``_boundary_ranks`` gives the same ranks without it."""
    X = data.draw(st.one_of(sample_complexes(), st.just(RIDGE_IN_3)))
    for fbd, relative in pivot_row_families(data, X):
        for i in range(1, len(fbd)):
            rows = set(fbd[i - 1]) if relative else None
            got = homology._two_entry_pivots(fbd[i], rows, field)
            if got is None:
                continue
            pivots = {}
            rank([{r: v for r, v in _boundary_col_signed(f).items()
                   if rows is None or r in rows} for f in fbd[i]],
                 field, pivots)
            assert got == set(pivots)
        ranks = _boundary_ranks(fbd, field, relative)
        with mock.patch.object(homology, "_two_entry_pivots",
                               lambda *args: None):
            assert _boundary_ranks(fbd, field, relative) == ranks


def test_two_entry_gate_reaches_both_outcomes():
    """The top map of RIDGE_IN_3 has a row in three columns; rp2_6 is
    closed and not orientable over Q, so an unbalanced cycle fills it."""
    for field in ORACLE_FIELDS:
        assert homology._two_entry_pivots(RIDGE_IN_3.facet_masks, None,
                                          field) is None
    top = FIXED["rp2_6"].facet_masks
    assert len(homology._two_entry_pivots(top, None, QQ)) == len(top)
    assert len(homology._two_entry_pivots(top, None, GF2)) == len(top) - 1


def test_orientable_matches_top_betti(corp):
    closed = [corp[n].complex for n in corp
              if is_closed_pseudomanifold(corp[n].complex)]
    assert FIXED["rp2_6"] in closed
    closed += [Complex.from_facets(["a"]), Complex.from_facets(["a", "b"])]
    for X in closed:
        for field in ORACLE_FIELDS:
            assert orientable(X, field) == (betti(X, field).beta[X.dim] == 1)


def submask_index(X):
    """The face index as ``Complex._index`` built it before it went top
    down: every submask of every facet, by size."""
    idx = [set() for _ in range(X.dim + 2)]
    for fm in X.facet_masks:
        for sub in submasks(fm):
            idx[sub.bit_count()].add(sub)
    return idx


@pytest.mark.filterwarnings("ignore:dropped")
@settings(max_examples=80, deadline=None)
@given(st.one_of(
    sample_complexes(),
    st.builds(Complex.from_facets, st.lists(
        st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=5,
                 unique=True), min_size=1, max_size=10))))
def test_index_matches_submasks(X):
    assert X._index() == submask_index(X)


def test_index_matches_submasks_on_fixed_inputs(corp):
    inputs = [Complex.empty(), RIDGE_IN_3,
              Complex.from_facets(["abc", "cde", "ea"]),
              Complex.from_facets(["abcd", "bcde", "ef", "g"])]
    inputs += [standard_ball(d) for d in range(6)]  # a lone simplex
    inputs += [corp[n].complex for n in corp]
    for X in inputs:
        X._faces_by_dim = None
        assert X._index() == submask_index(X)
        assert all(type(level) is frozenset for level in X._index())


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(ORACLE_FIELDS))
def test_cleared_relative_betti_matches_uncleared(data, field):
    X = data.draw(sample_complexes())
    bmask = subset_mask(data.draw, X)
    amask = bmask & subset_mask(data.draw, X)
    rel = [[f for f in X.faces_of_dim(t) if not f & ~bmask and f & ~amask]
           for t in range(X.dim + 1)]
    ranks = uncleared_ranks(rel, field, relative=True)
    expect = [len(rel[i]) - ranks[i] - ranks[i + 1] for i in range(len(rel))]
    assert relative_betti(X, bits(amask), bits(bmask), field) == expect
    assert _boundary_ranks(rel, field, relative=True) == ranks


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(ORACLE_FIELDS))
def test_relative_betti_pair_matches_induced_pairs(data, field):
    # the pair routine matches Y's faces by name, relative_betti by mask
    X = data.draw(sample_complexes())
    A = list(bits(subset_mask(data.draw, X)))
    assert relative_betti_pair(X, induced(X, A), field) == \
        relative_betti(X, A, range(X.m), field)


@pytest.mark.parametrize("name", ["torus_7", "rp2_6"])
def test_relative_pairs_give_mu_via_pairs(corp, name):
    """The covering-pair average of relative Betti numbers, taken through
    ``relative_betti``, equals ``mu_via_pairs``, which keeps its own
    uncleared ranks."""
    X = corp[name].complex
    m, d = X.m, X.dim
    for field in ORACLE_FIELDS:
        sums = [[0] * (m + 1) for _ in range(d + 1)]
        for bmask in range(1, 1 << m):
            B = list(bits(bmask))
            for x in B:
                rel = relative_betti(X, [v for v in B if v != x], B, field)
                for i, v in enumerate(rel):
                    sums[i][len(B)] += v
        mu = tuple(sum((Fraction(sums[i][j], m * comb(m - 1, j - 1))
                        for j in range(1, m + 1)), Fraction(0))
                   for i in range(d + 1))
        assert mu == mu_via_pairs(X, field)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(ORACLE_FIELDS))
def test_euler_poincare_property(data, field):
    X = data.draw(sample_complexes())
    X = induced(X, bits(subset_mask(data.draw, X)))
    chi = sum((-1) ** i * fi for i, fi in enumerate(f_vector(X)))
    assert betti(X, field).euler() == chi


# -- the rank kernel against dense Gaussian elimination ----------------------


KERNEL_FIELDS = (QQ,) + tuple(FieldSpec.prime(p) for p in (2, 3, 5, 2 ** 61 - 1))


def dense_rank(cols, field):
    """Rank by Gaussian elimination on the dense matrix of ``cols`` (maps
    row key -> integer), over Q in Fractions or over Z_p mod p."""
    p = field.p if field.kind == "prime" else None
    keys = sorted({r for c in cols for r in c})
    rows = [[Fraction(c.get(r, 0)) if p is None else c.get(r, 0) % p
             for c in cols] for r in keys]
    done = 0
    for j in range(len(cols)):
        piv = next((i for i in range(done, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[done], rows[piv] = rows[piv], rows[done]
        top = rows[done]
        inv = 1 / top[j] if p is None else pow(top[j], -1, p)
        for i in range(len(rows)):
            if i != done and rows[i][j]:
                c = rows[i][j] * inv
                rows[i] = [a - c * b if p is None else (a - c * b) % p
                           for a, b in zip(rows[i], top)]
        done += 1
    return done


@st.composite
def integer_columns(draw):
    """Columns over up to 7 row keys with entries -3..3, explicit zero
    entries, empty columns and repeated (possibly scaled) columns."""
    keys = draw(st.lists(st.integers(0, 60), min_size=1, max_size=7, unique=True))
    entry = st.sampled_from((0, 0, 0, -3, -2, -1, 1, 2, 3))
    cols = draw(st.lists(st.dictionaries(st.sampled_from(keys), entry),
                         max_size=8))
    extra = []
    for i in draw(st.lists(st.integers(0, max(len(cols) - 1, 0)), max_size=3)):
        if cols:
            a = draw(st.sampled_from((1, -1, 2, 3)))
            extra.append({r: a * v for r, v in cols[i].items()})
    extra += [{}] * draw(st.integers(0, 2))
    return draw(st.permutations(cols + extra))


@settings(max_examples=300, deadline=None)
@given(integer_columns(), st.sampled_from(KERNEL_FIELDS))
def test_rank_matches_dense_elimination(cols, field):
    before = [dict(c) for c in cols]
    pivots: dict = {}
    r = rank(cols, field, pivots)
    assert r == dense_rank(cols, field)
    assert rank(cols, field) == r
    assert cols == before  # the input columns are not changed
    assert len(pivots) == r
    for low, col in pivots.items():
        assert low == max(col)
        if field.kind == "prime" and field.p != 2:
            assert col[low] == 1
    # the stored columns span the same space as the input columns
    stored = [c if isinstance(c, dict) else dict.fromkeys(c, 1)
              for c in pivots.values()]
    assert dense_rank(stored + cols, field) == r


@st.composite
def seeded_pivots(draw):
    """Faces over up to 6 vertices, kept when their largest boundary face
    is new, stored unbuilt under it; each is built as its boundary times
    a unit sign.  Then integer columns over rows those boundaries touch."""
    faces = draw(st.lists(st.integers(1, (1 << 6) - 1), max_size=8))
    seeds = {}
    for f in faces:
        seeds.setdefault(f ^ (f & -f), f)
    sign = {f: draw(st.sampled_from((1, -1))) for f in seeds.values()}
    keys = sorted({r for f in seeds.values() for r in _boundary_col_signed(f)})
    entry = st.sampled_from((0, 0, -2, -1, 1, 2, 3))
    extra = draw(st.lists(st.dictionaries(st.sampled_from(keys or [0]), entry),
                          max_size=6))
    return seeds, sign, extra


@settings(max_examples=200, deadline=None)
@given(seeded_pivots(), st.sampled_from(KERNEL_FIELDS))
def test_rank_with_seeded_pivots_matches_dense_elimination(seeded, field):
    seeds, sign, extra = seeded
    built = []

    def build(f):
        built.append(f)
        return {r: sign[f] * v for r, v in _boundary_col_signed(f).items()}

    pivots = dict(seeds)
    r = rank(extra, field, pivots, build)
    assert len(built) == len(set(built))  # each seed built at most once
    seed_cols = [build(f) for f in seeds.values()]
    assert len(pivots) == len(seeds) + r == dense_rank(seed_cols + extra, field)
    for low, col in pivots.items():
        if isinstance(col, int):  # never read: still the seed
            assert seeds[low] == col
            continue
        assert low == max(col)
        if field.kind == "prime" and field.p != 2:
            assert col[low] == 1


# -- inclusion_injective against the cycle/boundary meet ---------------------


def reference_cycle_basis(keyed_cols, field):
    """A basis of the kernel of the map whose columns are (key, column),
    as coefficient maps key -> value, by elimination with a record of the
    combination each reduced column is."""
    p = None if field.kind == "rationals" else field.p
    pivots, kernel = {}, []
    for key, col in keyed_cols:
        col = {r: v if p is None else v % p for r, v in col.items()
               if (v if p is None else v % p)}
        track = {key: 1}
        while col:
            low = max(col)
            if low not in pivots:
                pivots[low] = (col, track)
                break
            ocol, otrack = pivots[low]
            a, b = ocol[low], col[low]
            if p is not None:  # col - (b / a) * ocol, mod p
                a, b = 1, b * pow(a, -1, p) % p
            combine = (lambda u, v: a * u - b * v) if p is None else \
                (lambda u, v: (u - b * v) % p)
            col = {r: combine(col.get(r, 0), ocol.get(r, 0))
                   for r in col.keys() | ocol.keys()}
            col = {r: v for r, v in col.items() if v}
            track = {r: combine(track.get(r, 0), otrack.get(r, 0))
                     for r in track.keys() | otrack.keys()}
            track = {r: v for r, v in track.items() if v}
        else:
            kernel.append(track)
    return kernel


def reference_inclusion_injective(X, A, j, field):
    """H_j(X[A]) -> H_j(X) is injective iff dim(Z_j(X[A]) ∩ B_j(X)) equals
    dim B_j(X[A]), with the meet from dim Z + dim B - dim(Z + B)."""
    nota = ~mask_of(A)
    faces_j_A = [f for f in X.faces_of_dim(j) if not f & nota]
    if j == 0:
        z_basis = [{f: 1} for f in faces_j_A]
    else:
        z_basis = reference_cycle_basis(
            [(f, _boundary_col_signed(f)) for f in faces_j_A], field)
    bx = [_boundary_col_signed(f) for f in X.faces_of_dim(j + 1)]
    ba = [_boundary_col_signed(f) for f in X.faces_of_dim(j + 1) if not f & nota]
    meet = len(z_basis) + rank(bx, field) - rank(z_basis + bx, field)
    return meet == rank(ba, field)


def test_inclusion_injective_matches_cycle_boundary_meet(corp):
    c4 = Complex.from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    inputs = [c4] + [corp[n].complex for n in ("torus_7", "rp2_6", "lutz_B2")]
    inputs += [random_stacked_sphere(2, m, seed=s) for m, s in ((6, 0), (7, 1), (8, 2))]
    failures = 0
    for X in inputs:
        for field in ORACLE_FIELDS:
            for amask in range(1 << X.m):
                for j in range(X.dim + 1):
                    got = inclusion_injective(X, bits(amask), j, field)
                    assert got == reference_inclusion_injective(
                        X, bits(amask), j, field), (X.facets_as_names(), amask, j)
                    failures += not got
    assert failures > 0  # the inputs reach the non-injective case



# -- the homology-sphere gate --------------------------------------------------


def recursive_sphere_test(X, field):
    """``is_homology_sphere`` as a plain recursion in every dimension: a
    closed pseudomanifold with the Betti numbers of S^d over ``field``
    whose vertex links, built as complexes, pass in dimension d - 1.  The
    oracle of the gate's field-free tests below dimension 3."""
    d = X.dim
    if d <= 0:
        return d == 0 and X.m == 2
    if not is_closed_pseudomanifold(X):
        return False
    if betti(X, field).beta != (1,) + (0,) * (d - 1) + (1,):
        return False
    return all(recursive_sphere_test(link(X, (v,)), field) for v in range(X.m))


@st.composite
def walked_spheres(draw):
    """A random stacked 1-, 2- or 3-sphere after a bistellar walk of up
    to four moves."""
    d = draw(st.sampled_from((1, 2, 3)))
    X = random_stacked_sphere(d, draw(st.integers(d + 2, 11)),
                              seed=draw(st.integers(0, 10 ** 6)))
    for _ in range(draw(st.integers(0, 4))):
        moves = enumerate_bistellar(X)
        if not moves:
            break
        X = apply_bistellar(X, draw(st.sampled_from(moves)))
    return X


@settings(max_examples=60, deadline=None)
@given(walked_spheres(), st.sampled_from(ORACLE_FIELDS))
def test_sphere_gate_matches_recursion_on_walked_spheres(X, field):
    assert is_homology_sphere(X, field)
    assert recursive_sphere_test(X, field)


def _pinched_sphere():
    """A 2-sphere (a triangular tube of two layers, capped by N and S)
    with N and S made one vertex: a strongly connected closed
    pseudomanifold whose link at N is two triangles, chi = 1."""
    rings = [["a0", "a1", "a2"], ["b0", "b1", "b2"], ["c0", "c1", "c2"]]
    facets = [["N", rings[0][i], rings[0][(i + 1) % 3]] for i in range(3)]
    facets += [["N", rings[2][i], rings[2][(i + 1) % 3]] for i in range(3)]
    for lo, hi in zip(rings, rings[1:]):
        for i in range(3):
            j = (i + 1) % 3
            facets += [[lo[i], lo[j], hi[i]], [lo[j], hi[i], hi[j]]]
    return Complex.from_facets(facets)


def _folded_sphere():
    """A stacked 3-sphere with two vertices u, v made one, where u and v
    are not adjacent and have one common neighbour w: the edges uw and vw
    fold into one, so no two facets or triangles meet and the result keeps
    the homotopy type of S^3 and is a closed pseudomanifold, but the link
    of u is two 2-spheres on the vertex w, and that of w is a pinched
    sphere."""
    S = random_stacked_sphere(3, 12, seed=0)
    nbrs = [0] * S.m
    for e in S.faces_of_dim(1):
        for x in bits(e):
            nbrs[x] |= e ^ (1 << x)
    u, v = next((u, v) for v in range(S.m) for u in range(v)
                if not nbrs[u] >> v & 1 and (nbrs[u] & nbrs[v]).bit_count() == 1)
    rename = {S.names[v]: S.names[u]}
    return Complex.from_facets([[rename.get(n, n) for n in f]
                                for f in S.facets_as_names()])


def _renamed(X, prefix, keep=()):
    return Complex.from_facets([[n if n in keep else prefix + n for n in f]
                                for f in X.facets_as_names()])


def _gate_inputs():
    c = corpus()
    poles = Complex.from_facets([["n"], ["s"]])
    octa = cross_polytope(2)
    out = {name: e.complex for name, e in c.items() if e.complex.dim in (2, 3)}
    for name in ("lutz_S2_8", "ziegler_S2_10", "lutz_S3_8", "ziegler_S3_10"):
        S = c[name].complex
        for v in (0, S.m - 1):
            out[f"closure(antistar({name},{v}))"] = _ball_closure(antistar(S, v))
    for d in (1, 2, 3):
        for seed in range(3):
            ball = random_stacked_ball(d, 2 + 3 * seed, seed=seed)
            out[f"closure(stacked {d}-ball {seed})"] = _ball_closure(ball)
    out.update({
        "susp(torus_7)": join(c["torus_7"].complex, poles),
        "susp(rp2_6)": join(c["rp2_6"].complex, poles),
        "pinched sphere": _pinched_sphere(),
        "folded 3-sphere": _folded_sphere(),
        # two octahedra on one vertex, and on two: the second has chi = 2
        "octahedra on x1": Complex.from_facets(
            octa.facets_as_names() + _renamed(octa, "b", ("x1",)).facets_as_names()),
        "octahedra on x1, y1": Complex.from_facets(
            octa.facets_as_names()
            + _renamed(octa, "b", ("x1", "y1")).facets_as_names()),
        "octahedron + torus": Complex.from_facets(
            octa.facets_as_names() + _renamed(c["torus_7"].complex, "t").facets_as_names()),
        "non-pure 2-complex": Complex.from_facets(["abc", "cde", "ea"]),
        "non-pure 3-complex": Complex.from_facets(["abcd", "bcde", "ef"]),
        "cycle": Complex.from_facets(["ab", "bc", "cd", "da"]),
        "two cycles": Complex.from_facets(["ab", "bc", "ca", "de", "ef", "fd"]),
        "S^1 * S^2": join(_renamed(standard_sphere(1), "a"),
                          _renamed(standard_sphere(2), "b")),
        "cross_polytope(4)": cross_polytope(4),
    })
    return out


GATE_INPUTS = _gate_inputs()


@pytest.mark.parametrize("name", sorted(GATE_INPUTS))
def test_sphere_gate_matches_recursion(name):
    X = GATE_INPUTS[name]
    for field in ORACLE_FIELDS:
        assert is_homology_sphere(X, field) == recursive_sphere_test(X, field), str(field)


def test_sphere_gate_inputs_reach_every_verdict():
    # each test of the gate is the only one to reject some input: in
    # dimension 2, chi (a torus) and strong connectivity (two octahedra on
    # two vertices, an octahedron beside a torus: chi = 2 for both); in
    # dimension 3, the links (the folded sphere has the Betti numbers of
    # S^3 over every field)
    verdicts = {name: is_homology_sphere(X, QQ) for name, X in GATE_INPUTS.items()}
    folded = GATE_INPUTS["folded 3-sphere"]
    assert is_closed_pseudomanifold(folded)
    for field in ORACLE_FIELDS:
        assert betti(folded, field).beta == (1, 0, 0, 1)
    assert not any(verdicts[n] for n in (
        "folded 3-sphere",
        "torus_7", "pinched sphere", "octahedra on x1", "octahedra on x1, y1",
        "octahedron + torus", "susp(torus_7)", "susp(rp2_6)", "two cycles",
        "non-pure 2-complex", "non-pure 3-complex", "M_1_3"))
    assert all(verdicts[n] for n in (
        "lutz_S2_8", "Sigma3_16", "cycle", "S^1 * S^2", "cross_polytope(4)",
        "closure(antistar(lutz_S3_8,0))", "closure(stacked 3-ball 2)"))
    for name in ("octahedra on x1, y1", "octahedron + torus"):
        X = GATE_INPUTS[name]
        assert 2 * X.m - len(X.facets) == 4  # chi = 2, as each edge is in two triangles
