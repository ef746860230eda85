"""Generators for the named complexes and the embedded corpus.

The corpus holds the explicit triangulations used throughout the test
battery: the cyclic 16-vertex unflippable 3-sphere, the 16-vertex
Poincare homology sphere with its derived balls and spheres, Ziegler's
and Lutz's 3-balls, the 7-vertex torus, the 6-vertex real projective
plane, and the sign-change family of sphere-product triangulations.
Every entry self-validates its face vector on load.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations

from .core import (Complex, ComplexError, InputError, RangeError,
                   _facet_lines, _renumbered, boundary, join, parse_facets)
from .vectors import f_vector


class CorpusError(ComplexError):
    """A corpus entry failed its self-check on load."""


def standard_sphere(d: int) -> Complex:
    """Boundary complex of the (d+1)-simplex; d = -1 gives the empty
    complex."""
    if d < -1:
        raise RangeError("standard sphere needs d >= -1")
    if d == -1:
        return Complex.empty()
    verts = [str(i) for i in range(1, d + 3)]
    return Complex.from_facets(list(combinations(verts, d + 1)))


def standard_ball(d: int) -> Complex:
    """Face complex of the d-simplex."""
    if d < 0:
        raise RangeError("standard ball needs d >= 0")
    return Complex.from_facets([[str(i) for i in range(1, d + 2)]])


def cross_polytope(d: int) -> Complex:
    """Join of d+1 copies of the 0-sphere: vertices x_i, y_i, facets all
    transversals (2^(d+1) of them)."""
    if d < 0:
        raise RangeError("cross polytope needs d >= 0")
    facets = []
    for code in range(1 << (d + 1)):
        facets.append([("x" if code >> i & 1 else "y") + str(i + 1)
                       for i in range(d + 1)])
    return Complex.from_facets(facets)


def cyclic_complex(n: int, generator_facets) -> Complex:
    """Orbit closure of the given facets under i -> i+1 (mod n); orbits of
    length dividing n are merged."""
    facets = set()
    for gen in generator_facets:
        gen = [int(v) % n for v in gen]
        if len(set(gen)) != len(gen):
            raise InputError(f"generator {gen} has repeated vertices")
        for s in range(n):
            facets.add(tuple(sorted((v + s) % n for v in gen)))
    return Complex.from_facets(sorted(facets))


def cone_over_antistar(S: Complex, x: int) -> Complex:
    """The ball with boundary S obtained by coning the antistar of x over
    x itself; same vertex set as S, d-stacked by construction."""
    xname = S.name_of(x)
    facets = [f + (xname,) for f in S.facets_as_names()
              if xname not in f]
    return Complex.from_facets(facets)


def klee_novik(k: int, d: int) -> tuple[Complex, Complex]:
    """The sign-change pair (Mbar, M): Mbar is the pure (d+1)-subcomplex
    of the cross polytope on 2d+4 vertices whose facets have at most k
    sign changes, and M is its boundary (a triangulated sphere product).

    Facets are generated from (change-position subset, first sign) pairs,
    linear in the output size.
    """
    if not 0 <= k <= d:
        raise RangeError(f"need 0 <= k <= d (got k={k}, d={d})")
    facets = []
    for r in range(k + 1):
        for changes in combinations(range(1, d + 2), r):
            for first in (True, False):
                sign = first
                facet = []
                cs = set(changes)
                for i in range(1, d + 3):
                    if i - 1 in cs:
                        sign = not sign
                    facet.append(("x" if sign else "y") + str(i))
                facets.append(facet)
    mbar = Complex.from_facets(facets)
    return mbar, boundary(mbar)


def real_projective_plane_6() -> Complex:
    """The 6-vertex triangulation of RP^2 (antipodal icosahedron quotient)."""
    return Complex.from_facets([
        "123", "134", "145", "156", "126",
        "235", "346", "245", "356", "246",
    ])


def moebius_torus_7() -> Complex:
    """The 7-vertex 2-neighbourly torus, cyclic with generators
    {0,1,3} and {0,2,3} mod 7."""
    return cyclic_complex(7, [(0, 1, 3), (0, 2, 3)])


def random_stacked_sphere(d: int, m: int, seed: int = 0) -> Complex:
    """A stacked d-sphere on m vertices grown by random 0-moves.

    Each 0-move subdivides a facet drawn from the facets in the order of
    their vertex ids, and the ids are those ``Complex.from_facets`` gives
    the result of the move, as ``moves.apply_bistellar`` builds it.  The
    moves are replayed on plain tuples with that numbering, and the
    complex is built once at the end.
    """
    import random

    if d < 0 < m:
        raise RangeError("a stacked sphere with a vertex needs d >= 0")
    rng = random.Random(seed)
    X = standard_sphere(d)
    names, facets = list(X.names), list(X.facets)
    while len(names) < m:
        i = rng.randrange(len(facets))
        facet = [names[v] for v in facets[i]]
        new = {str(len(names) + 1)}
        added = [sorted(set(facet) - {a} | new) for a in facet]
        names, facets = _renumbered(names, facets[:i] + facets[i + 1:], added)
        facets.sort()
    return Complex(names, facets)


def random_stacked_ball(d: int, n_facets: int, seed: int = 0) -> Complex:
    """A stacked d-ball, d >= 1, grown by random index-0 shelling moves
    (attach a fresh vertex over a random boundary ridge).

    The ridge is drawn from the boundary ridges in lexicographic order of
    their vertex ids, and the ids are those ``Complex.from_facets`` gives
    the facets so far followed by the new one, as ``moves.replay_shelling``
    builds it.  As in ``random_stacked_sphere``, the moves are replayed on
    plain tuples with that numbering, the boundary ridges are kept by
    vertex name, and the complex is built once at the end.  The
    renumbering moves most vertices at almost every step, so a step still
    sorts the facets and the boundary ridges once.
    """
    import random

    if d < 1:
        raise RangeError("stacked ball needs d >= 1")
    rng = random.Random(seed)
    X = standard_ball(d)
    names, facets = list(X.names), list(X.facets)
    bd = {frozenset(r) for r in combinations(names, d)}
    while len(facets) < n_facets:
        id_of = dict(zip(names, range(len(names)))).__getitem__
        ridges = sorted(sorted(map(id_of, r)) for r in bd)
        ridge = [names[v] for v in ridges[rng.randrange(len(ridges))]]
        new = str(len(names) + 1)
        names, facets = _renumbered(names, facets, [ridge + [new]])
        facets.sort()
        bd.remove(frozenset(ridge))
        bd.update(frozenset(r + (new,)) for r in combinations(ridge, d - 1))
    return Complex(names, facets)


# -- the corpus ---------------------------------------------------------------

S3_16_GENERATORS = [(0, 1, 4, 6), (0, 1, 4, 9), (0, 1, 6, 14), (0, 1, 8, 9),
                    (0, 1, 8, 10), (0, 1, 10, 14), (0, 2, 9, 13)]

LUTZ_B2_SHELLING = ["1357", "1356", "1368", "1348", "1248", "3468", "1568",
                    "1578", "1278", "2468", "2678", "1237", "2467", "2357",
                    "2457"]

ZIEGLER_B1_COUNT = 7   # leading facets of ziegler_s3_10.txt
LUTZ_B1_COUNT = 5      # leading facets of lutz_s3_8.txt

KN_PAIRS = [(1, 2), (1, 3), (1, 4), (2, 4), (2, 5)]


@dataclass
class CorpusEntry:
    name: str
    complex: Complex
    expected_f: tuple[int, ...]
    tags: dict = field(default_factory=dict)


def _data_text(fname: str) -> str:
    return resources.files("stellar.data").joinpath(fname).read_text("utf-8")


def _data_complex(fname: str) -> Complex:
    return parse_facets(_data_text(fname))


def _build_entries() -> dict[str, CorpusEntry]:
    entries: dict[str, CorpusEntry] = {}

    def add(name, cx, expected_f, **tags):
        entries[name] = CorpusEntry(name, cx, tuple(expected_f), tags)

    s3_16 = cyclic_complex(16, S3_16_GENERATORS)
    add("S3_16", s3_16, (16, 120, 208, 104),
        unflippable=True, neighbourly=2, closed=True)
    b4_16 = cone_over_antistar(s3_16, s3_16.id_of("0"))
    add("B4_16", b4_16, (16, 120, 274, 247, 78),
        stacked=2, boundary="S3_16")

    sigma = _data_complex("sigma3_16.txt")
    add("Sigma3_16", sigma, (16, 106, 180, 90), closed=True)
    d4_16 = cone_over_antistar(sigma, sigma.id_of("6'"))
    add("D4_16", d4_16, (16, 106, 232, 205, 64), boundary="Sigma3_16")
    edge = Complex.from_facets([("w1", "w2")])
    d6_18 = join(d4_16, edge)
    add("D6_18", d6_18, (18, 139, 460, 775, 706, 333, 64), stacked=2)
    s5_18 = boundary(d6_18)
    add("S5_18", s5_18, (18, 139, 460, 775, 654, 218),
        closed=True, edge_link=("w1", "w2"))

    zs3 = _data_complex("ziegler_s3_10.txt")
    zlines = _facet_lines(_data_text("ziegler_s3_10.txt"))
    add("ziegler_S3_10", zs3, (10, 38, 56, 28), closed=True)
    add("ziegler_S2_10", _data_complex("ziegler_s2_10.txt"), (10, 24, 16),
        closed=True)
    zb1 = Complex.from_facets(zlines[:ZIEGLER_B1_COUNT])
    zb2 = Complex.from_facets(zlines[ZIEGLER_B1_COUNT:])
    add("ziegler_B1", zb1, (10, 24, 22, 7),
        dual_graph="path", stacked=1, boundary="ziegler_S2_10")
    add("ziegler_B2", zb2, (10, 38, 50, 21),
        ears=(), boundary="ziegler_S2_10")

    ls3 = _data_complex("lutz_s3_8.txt")
    llines = _facet_lines(_data_text("lutz_s3_8.txt"))
    add("lutz_S3_8", ls3, (8, 28, 40, 20), closed=True, neighbourly=2)
    add("lutz_S2_8", _data_complex("lutz_s2_8.txt"), (8, 18, 12), closed=True)
    lb1 = Complex.from_facets(llines[:LUTZ_B1_COUNT])
    lb2 = Complex.from_facets(llines[LUTZ_B1_COUNT:])
    add("lutz_B1", lb1, (8, 18, 16, 5),
        dual_graph="path", stacked=1, boundary="lutz_S2_8")
    add("lutz_B2", lb2, (8, 28, 36, 15),
        ears=(("2", "4", "5", "7"),), shelling_order=LUTZ_B2_SHELLING,
        shelled=2, boundary="lutz_S2_8")

    add("torus_7", moebius_torus_7(), (7, 21, 14),
        closed=True, neighbourly=2)
    add("rp2_6", real_projective_plane_6(), (6, 15, 10),
        closed=True, neighbourly=2)

    kn_expected = {
        (1, 2): ((8, 24, 24, 8), (8, 24, 16)),
        (1, 3): ((10, 40, 60, 40, 10), (10, 40, 60, 30)),
        (1, 4): ((12, 60, 120, 120, 60, 12), (12, 60, 120, 120, 48)),
        (2, 4): ((12, 60, 160, 210, 132, 32), (12, 60, 160, 180, 72)),
        (2, 5): ((14, 84, 280, 490, 462, 224, 44), (14, 84, 280, 490, 420, 140)),
    }
    for k, d in KN_PAIRS:
        mbar, m = klee_novik(k, d)
        fbar, fm = kn_expected[(k, d)]
        add(f"Mbar_{k}_{d}", mbar, fbar, kn=(k, d))
        add(f"M_{k}_{d}", m, fm, kn=(k, d), closed=True)

    return entries


_CORPUS: dict[str, CorpusEntry] | None = None


def corpus() -> dict[str, CorpusEntry]:
    """The embedded corpus; every entry's face vector is checked once on
    first load and a mismatch aborts with the offending entry."""
    global _CORPUS
    if _CORPUS is None:
        entries = _build_entries()
        for name, entry in entries.items():
            got = f_vector(entry.complex)
            if got != entry.expected_f:
                raise CorpusError(
                    f"corpus entry {name}: face vector {got} does not match "
                    f"expected {entry.expected_f}")
        _CORPUS = entries
    return _CORPUS


def corpus_complex(name: str) -> Complex:
    entries = corpus()
    if name not in entries:
        raise InputError(f"no corpus entry named {name!r}; "
                         f"available: {', '.join(sorted(entries))}")
    return entries[name].complex
