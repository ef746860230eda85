"""The desk-check battery: every numerical claim the corpus can witness.

Each criterion function takes the worker count ``jobs`` (criteria that
start no pool ignore it) and returns a list of (name, ok, detail) rows;
the acceptance tests and the ``verify-paper`` CLI verb both run these,
so a single implementation decides pass/fail.  All comparisons are
exact.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .constructions import (LUTZ_B2_SHELLING, corpus, cross_polytope,
                            random_stacked_sphere, standard_ball,
                            standard_sphere)
from .core import Complex, _maximal, boundary, join, mask_of, neighbourliness
from .homology import QQ, FieldSpec, betti
from .moves import (BistellarMove, apply_bistellar, canonical_manifold,
                    enumerate_bistellar, ears, find_shelling,
                    verify_shelling, w_k_membership)
from .tightness import (criterion_battery, is_tight, morse_report,
                        mu_vector, mu_via_pairs, sigma_vector)
from .vectors import (_link_g_sides, check_dehn_sommerville, check_klee,
                      euler_identity_check, f_from_g, f_vector, g_vector)

Z2 = FieldSpec.prime(2)
Z3 = FieldSpec.prime(3)
Z5 = FieldSpec.prime(5)

SPHERE_ENTRIES = ["S3_16", "Sigma3_16", "ziegler_S3_10", "ziegler_S2_10",
                  "lutz_S3_8", "lutz_S2_8", "S5_18"]
CLOSED_ENTRIES = SPHERE_ENTRIES + ["torus_7", "rp2_6", "M_1_2", "M_1_3",
                                   "M_1_4", "M_2_4", "M_2_5"]
NEIGHBOURLY_ENTRIES = ["S3_16", "B4_16", "lutz_S3_8", "lutz_B2", "torus_7",
                       "rp2_6"]

KN_BETTI = {
    (1, 2): (1, 2, 1),
    (1, 3): (1, 1, 1, 1),
    (1, 4): (1, 1, 0, 1, 1),
    (2, 4): (1, 0, 2, 0, 1),
    (2, 5): (1, 0, 1, 1, 0, 1),
}


@dataclass
class Row:
    name: str
    ok: bool
    detail: str = ""


def _row(rows: list, name: str, ok: bool, detail: str = ""):
    rows.append(Row(name, bool(ok), detail))


def criterion_1_corpus_exactness(jobs: int = 1) -> list[Row]:
    rows: list[Row] = []
    c = corpus()
    _row(rows, "f(S3_16)", f_vector(c["S3_16"].complex) == (16, 120, 208, 104))
    _row(rows, "f(Sigma3_16)", f_vector(c["Sigma3_16"].complex) == (16, 106, 180, 90))
    _row(rows, "ziegler_B2 facets", len(c["ziegler_B2"].complex.facets) == 21)
    _row(rows, "lutz_B2 facets", len(c["lutz_B2"].complex.facets) == 15)
    return rows


def _join_sphere(d: int) -> Complex:
    """boundary(B4_16 * B^{d-4}_{d-3}) with fresh join-factor vertices."""
    b416 = corpus()["B4_16"].complex
    ball = Complex.from_facets([tuple(f"q{i}" for i in range(1, d - 2))])
    return boundary(join(b416, ball))


def criterion_2_unflippability(jobs: int = 1) -> list[Row]:
    rows: list[Row] = []
    c = corpus()
    _row(rows, "S3_16 unflippable",
         enumerate_bistellar(c["S3_16"].complex) == [])
    for d in (4, 5):
        s = _join_sphere(d)
        _row(rows, f"boundary(B4_16 * B{d - 4}): unflippable {d}-sphere",
             s.dim == d and enumerate_bistellar(s) == [],
             f"m={s.m}, facets={len(s.facets)}")
    return rows


def criterion_3_homology_sphere(jobs: int = 1) -> list[Row]:
    rows: list[Row] = []
    sig = corpus()["Sigma3_16"].complex
    for fld in (QQ, Z2, Z3, Z5):
        _row(rows, f"betti(Sigma3_16; {fld})",
             betti(sig, fld).beta == (1, 0, 0, 1))
    return rows


def criterion_4_ears_shellability(jobs: int = 1) -> list[Row]:
    rows: list[Row] = []
    c = corpus()
    zb2 = c["ziegler_B2"].complex
    lb2 = c["lutz_B2"].complex
    _row(rows, "ears(ziegler_B2) empty", ears(zb2) == [])
    res = find_shelling(zb2)
    _row(rows, "find_shelling(ziegler_B2) refuted by exhaustion",
         res.status == "none", f"nodes={res.nodes}")
    _row(rows, "ears(lutz_B2) == {2457}",
         ears(lb2) == [("2", "4", "5", "7")])
    cert = verify_shelling(lb2, [list(f) for f in LUTZ_B2_SHELLING])
    _row(rows, "printed shelling order verifies, 2-shelled",
         cert.length == 14 and cert.k_bound <= 2,
         f"index counts {cert.index_counts()}")
    return rows


def criterion_5_klee_novik(jobs: int = 1) -> list[Row]:
    rows: list[Row] = []
    c = corpus()
    for (k, d), expect_beta in KN_BETTI.items():
        m = c[f"M_{k}_{d}"].complex
        mbar = c[f"Mbar_{k}_{d}"].complex
        tag = f"M({k},{d})"
        _row(rows, f"{tag} vertices", m.m == 2 * d + 4)
        g = g_vector(m)
        _row(rows, f"{tag} g_j = C(d+2,j), j <= k+1",
             all(g[j] == comb(d + 2, j) for j in range(k + 2)))
        _row(rows, f"{tag} = boundary(Mbar)", boundary(mbar) == m)
        _row(rows, f"{tag} rational Betti", betti(m, QQ).beta == expect_beta)
        if d >= 2 * k + 2:
            _row(rows, f"{tag} canonical manifold reproduces Mbar",
                 canonical_manifold(m, k) == mbar)
        rep = w_k_membership(m, k, jobs=jobs)
        _row(rows, f"{tag} in W_{k}({d})", rep.certified,
             f"{len(rep.per_vertex)} links certified")
    return rows


def criterion_6_cross_polytope(jobs: int = 1) -> list[Row]:
    rows: list[Row] = []
    for d in range(1, 6):
        x = cross_polytope(d)
        sig = sigma_vector(x, QQ, jobs=jobs)
        expect_sig = [Fraction(-2 * d, 2 * d + 1)] + \
            [Fraction(comb(d + 1, i + 1), comb(2 * d + 2, 2 * i + 2))
             for i in range(1, d + 1)]
        _row(rows, f"sigma(S{d}_{2 * d + 2}) closed form", list(sig) == expect_sig)
        mu = mu_vector(x, QQ, jobs=jobs)
        expect_mu = [Fraction(comb(d, i), comb(2 * d, 2 * i)) for i in range(d + 1)]
        _row(rows, f"mu(S{d}_{2 * d + 2}) closed form", list(mu) == expect_mu)
        alt = sum((-1) ** (d - i) * mu[i] for i in range(d + 1))
        chi = 1 + (-1) ** d
        _row(rows, f"S{d}_{2 * d + 2} Morse alternating sum",
             alt == Fraction(2 * d + 1, 2 * d + 2) * chi)
    return rows


def criterion_7_tightness_witnesses(jobs: int = 1) -> list[Row]:
    rows: list[Row] = []
    c = corpus()
    for d in range(1, 6):
        s = standard_sphere(d)
        _row(rows, f"S{d}_{d + 2} tight (direct)", is_tight(s, QQ, "direct").tight)
        _row(rows, f"S{d}_{d + 2} tight (p18)", is_tight(s, QQ, "p18").tight)
    tor = c["torus_7"].complex
    res = is_tight(tor, QQ, "p18", jobs=jobs)
    _row(rows, "torus_7 tight over Q with mu = beta = (1,2,1)",
         res.tight and list(res.mu) == [1, 2, 1] and tuple(res.beta) == (1, 2, 1))
    rp = c["rp2_6"].complex
    _row(rows, "rp2_6 tight over Z2", is_tight(rp, Z2, "p18").tight)
    _row(rows, "rp2_6 not tight over Q", not is_tight(rp, QQ, "p18").tight)
    return rows


def criterion_8_lower_bounds(jobs: int = 1) -> list[Row]:
    rows: list[Row] = []
    m14 = corpus()["M_1_4"].complex
    beta1 = betti(m14, Z2).beta[1]
    _row(rows, "beta_1(M(1,4); Z2) = 1", beta1 == 1)
    _row(rows, "f(M(1,4)) = (12,60,120,120,48)",
         f_vector(m14) == (12, 60, 120, 120, 48))
    p23 = {line.prop: line for line in criterion_battery(m14, 1, Z2)}
    _row(rows, "P23(a) equality at every j",
         p23["P23a"].status == "equality", str(p23["P23a"]))
    _row(rows, "P23(b) strict inequality (not 2-neighbourly)",
         p23["P23b"].status == "holds" and neighbourliness(m14) < 2,
         str(p23["P23b"]))
    return rows


def _random_walk_l3(d: int, n_moves: int, max_m: int, seed: int) -> bool:
    """Random bistellar walk verifying the g-vector delta law per move."""
    rng = random.Random(seed)
    X = standard_sphere(d)
    fresh = d + 3
    for _ in range(n_moves):
        options = list(enumerate_bistellar(X))
        if X.m < max_m:
            facet = X.facets_as_names()[rng.randrange(len(X.facets))]
            options.append(BistellarMove(facet, (str(fresh),), 0))
        mv = options[rng.randrange(len(options))]
        if mv.index == 0:
            fresh += 1
        g0 = g_vector(X)
        X = apply_bistellar(X, mv)
        g1 = g_vector(X)
        for j in range(d + 1):
            expect = 0
            if 2 * j != d:
                if j == mv.index:
                    expect = 1
                elif j == d - mv.index:
                    expect = -1
            if g1[j + 1] - g0[j + 1] != expect:
                return False
    return True


def criterion_9_identities(jobs: int = 1) -> list[Row]:
    rows: list[Row] = []
    c = corpus()
    ok = all(f_from_g(e.complex.dim, g_vector(e.complex)) == f_vector(e.complex)
             for e in c.values())
    _row(rows, "f/g round-trip on every corpus complex", ok)
    ok = all(check_dehn_sommerville(c[n].complex).all_zero for n in SPHERE_ENTRIES)
    _row(rows, "Dehn-Sommerville on all corpus spheres", ok)
    ok = all(check_klee(c[n].complex).all_zero for n in CLOSED_ENTRIES)
    _row(rows, "Klee's formula on all corpus closed manifolds", ok)
    ok = all(lhs == rhs for e in c.values()
             for lhs, rhs in _link_g_sides(e.complex))
    _row(rows, "link/g two-way-counting identity, all corpus, all j", ok)
    ok = True
    for m in range(3, 31):
        for d in range(0, min(m - 2, 10) + 1):
            for t in range(d + 1):
                lhs, rhs = euler_identity_check(m, d, t)
                if lhs != rhs:
                    ok = False
    _row(rows, "beta-integral identity for all m <= 30", ok)
    _row(rows, "g-delta law along 500 random moves",
         _random_walk_l3(2, 250, 12, 0) and _random_walk_l3(3, 250, 12, 1))
    return rows


def brute_force_bistellar(X: Complex) -> list[BistellarMove]:
    """Independent move oracle: try every disjoint pair (alpha, beta) with
    |alpha| + |beta| = d + 2, test beta against the face index, and read
    the induced subcomplex on alpha | beta as the maximal masks among the
    facets cut down to it, which must be the facets alpha | beta - b."""
    from itertools import combinations

    d = X.dim
    out = []
    verts = range(X.m)
    for i in range(1, d + 1):
        for alpha in combinations(verts, d - i + 1):
            am = mask_of(alpha)
            for beta in combinations(set(verts) - set(alpha), i + 1):
                bm = mask_of(beta)
                both = am | bm
                if not X.has_face(bm) and (set(_maximal(f & both for f in X.facet_masks))
                                           == {both ^ 1 << b for b in beta}):
                    out.append(BistellarMove(X.names_of_mask(am), X.names_of_mask(bm), i))
    out.sort(key=lambda mv: (mv.index, mv.alpha, mv.beta))
    return out


def criterion_10_oracles(jobs: int = 1) -> list[Row]:
    rows: list[Row] = []
    c = corpus()
    two_nbly = [standard_sphere(1), standard_sphere(2), standard_sphere(3),
                standard_sphere(4), c["torus_7"].complex, c["rp2_6"].complex,
                c["lutz_S3_8"].complex]
    ok = True
    for x in two_nbly:
        if x.m <= 9 and list(mu_via_pairs(x, QQ)) != list(mu_vector(x, QQ)):
            ok = False
    _row(rows, "mu_via_pairs = mu_vector (2-neighbourly, m <= 9)", ok)
    tight_set = [standard_sphere(d) for d in range(1, 5)] + \
        [standard_ball(d) for d in range(1, 4)] + \
        [Complex.from_facets(["12", "23", "34", "41"]),
         Complex.from_facets(["12", "23", "34", "45", "51"]),
         c["torus_7"].complex, c["rp2_6"].complex, c["lutz_S2_8"].complex,
         c["lutz_S3_8"].complex, c["M_1_2"].complex,
         random_stacked_sphere(2, 10, seed=5)]
    ok = True
    for x in tight_set:
        if x.m <= 12:
            a = is_tight(x, QQ, "direct").tight
            b = is_tight(x, QQ, "p18").tight
            if a != b:
                ok = False
    _row(rows, "is_tight direct = p18 on the m <= 12 test set", ok,
         f"{len(tight_set)} complexes")
    enum_set = [standard_sphere(2),
                Complex.from_facets(["124", "134", "234", "125", "135", "235"]),
                Complex.from_facets(["12", "23", "34", "45", "51"]),
                cross_polytope(2), c["torus_7"].complex, c["rp2_6"].complex,
                c["lutz_S3_8"].complex, c["ziegler_S2_10"].complex,
                c["ziegler_S3_10"].complex]
    ok = True
    for x in enum_set:
        if x.m <= 10 and enumerate_bistellar(x) != brute_force_bistellar(x):
            ok = False
    _row(rows, "enumerate_bistellar = brute-force oracle (m <= 10)", ok)
    return rows


def criterion_11_morse(jobs: int = 1) -> list[Row]:
    rows: list[Row] = []
    c = corpus()
    for name in NEIGHBOURLY_ENTRIES:
        x = c[name].complex
        d = x.dim
        for fld in (QQ, Z2):
            rep = morse_report(x, fld, jobs=jobs)
            _row(rows, f"{name} strong Morse over {fld}",
                 all(s >= 0 for s in rep.morse_slack) and rep.morse_slack[d] == 0,
                 f"slack={[str(s) for s in rep.morse_slack]}")
            _row(rows, f"{name} weak Morse over {fld}", rep.weak_ok)
            if rep.duality_ok is not None:
                _row(rows, f"{name} mu duality over {fld}", rep.duality_ok)
    return rows


CRITERIA = [
    ("1 corpus exactness", criterion_1_corpus_exactness),
    ("2 unflippability", criterion_2_unflippability),
    ("3 homology sphere", criterion_3_homology_sphere),
    ("4 ears and shellability", criterion_4_ears_shellability),
    ("5 Klee-Novik family", criterion_5_klee_novik),
    ("6 cross-polytope sigma/mu", criterion_6_cross_polytope),
    ("7 tightness witnesses", criterion_7_tightness_witnesses),
    ("8 lower-bound equalities", criterion_8_lower_bounds),
    ("9 identity suites", criterion_9_identities),
    ("10 oracle equivalences", criterion_10_oracles),
    ("11 Morse inequalities", criterion_11_morse),
]


def run_all(jobs: int = 1) -> bool:
    """Run every criterion and print one pass/fail line per criterion;
    the first refutation stops the run and returns False.  A criterion
    that raises fails too, and stops the run with a RuntimeError: none
    reads input, so the CLI exits as on an internal error."""
    for label, fn in CRITERIA:
        try:
            bad = [r for r in fn(jobs=jobs) if not r.ok]
        except Exception as exc:
            print(f"[FAIL] criterion {label}")
            print(f"       - {label}: {type(exc).__name__}: {exc}")
            raise RuntimeError(f"criterion {label} crashed") from exc
        print(f"[{'FAIL' if bad else 'PASS'}] criterion {label}")
        for r in bad:
            print(f"       - {r.name}: {r.detail}")
        if bad:
            return False
    return True
