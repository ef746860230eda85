"""Generators for the named complexes and the embedded corpus.

The corpus holds the explicit triangulations used throughout the test
battery: the cyclic 16-vertex unflippable 3-sphere, the 16-vertex
Poincare homology sphere with its derived balls and spheres, Ziegler's
and Lutz's 3-balls, the 7-vertex torus, the 6-vertex real projective
plane, and the sign-change family of sphere-product triangulations.
Each entry is built, and its face vector checked, on its first read.
"""
from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations

from .core import (Complex, ComplexError, InputError, RangeError,
                   _facet_lines, boundary, join)
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
    sign changes, and M is its boundary (a triangulated sphere product)."""
    mbar = _sign_change_ball(k, d)
    return mbar, boundary(mbar)


def _sign_change_ball(k: int, d: int) -> Complex:
    """Mbar of ``klee_novik``, from (change-position subset, first sign)
    pairs, linear in the output size."""
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
    return Complex.from_facets(facets)


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
    """A stacked d-sphere on m vertices grown by random 0-moves, each on
    a facet drawn uniformly from a list that it leaves by a swap with the
    last, so the run is linear in m.  Only m = d + 2 is stacked for d = 0,
    as a 0-move on S^0 replaces a point; (d, m) = (-1, 0) gives the empty
    complex, and any other m below d + 2 is a RangeError."""
    if (d, m) == (-1, 0):
        return Complex.empty()
    if d < 0 or m < d + 2 or (d == 0 and m > 2):
        raise RangeError(f"no stacked {d}-sphere has {m} vertices")
    rng = random.Random(seed)
    facets = list(combinations(range(1, d + 3), d + 1))
    for new in range(d + 3, m + 1):
        i = rng.randrange(len(facets))
        old = facets[i]
        facets[i] = facets[-1]
        facets.pop()
        facets.extend(tuple(v for v in old if v != u) + (new,) for u in old)
    return Complex.from_facets(facets)


def random_stacked_ball(d: int, n_facets: int, seed: int = 0) -> Complex:
    """A stacked d-ball, d >= 1, grown by random index-0 shelling moves
    (attach a fresh vertex over a boundary ridge drawn uniformly from a
    list that it leaves by a swap with the last), in time linear in
    ``n_facets``."""
    if d < 1:
        raise RangeError("stacked ball needs d >= 1")
    rng = random.Random(seed)
    facets = [tuple(range(1, d + 2))]
    free = list(combinations(facets[0], d))
    for new in range(d + 2, d + n_facets + 1):
        i = rng.randrange(len(free))
        ridge = free[i]
        free[i] = free[-1]
        free.pop()
        facets.append(ridge + (new,))
        free.extend(tuple(v for v in ridge if v != x) + (new,) for x in ridge)
    return Complex.from_facets(facets)


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


def _data(fname: str, start: int = 0, stop: int | None = None):
    """Builder of the complex of the facet lines start:stop of a data file."""
    def build(c):
        text = resources.files("stellar.data").joinpath(fname).read_text("utf-8")
        return Complex.from_facets(_facet_lines(text)[start:stop])
    return build


def _cone(name: str, apex: str):
    """Builder of the cone over the antistar of ``apex`` in entry ``name``."""
    return lambda c: cone_over_antistar(c[name].complex,
                                        c[name].complex.id_of(apex))


def _kn(k: int, d: int, f_mbar: tuple, f_m: tuple) -> dict:
    """The table rows of Mbar_k_d and of M_k_d, its boundary."""
    mbar = f"Mbar_{k}_{d}"
    return {mbar: (lambda c: _sign_change_ball(k, d), f_mbar, dict(kn=(k, d))),
            f"M_{k}_{d}": (lambda c: boundary(c[mbar].complex), f_m,
                           dict(kn=(k, d), closed=True))}


# name -> (builder, expected f, tags), in listing order; a builder takes
# the corpus and reads from it the entries it derives from
_ENTRIES: dict = {
    "S3_16": (lambda c: cyclic_complex(16, S3_16_GENERATORS), (16, 120, 208, 104),
              dict(unflippable=True, neighbourly=2, closed=True)),
    "B4_16": (_cone("S3_16", "0"), (16, 120, 274, 247, 78),
              dict(stacked=2, boundary="S3_16")),
    "Sigma3_16": (_data("sigma3_16.txt"), (16, 106, 180, 90), dict(closed=True)),
    "D4_16": (_cone("Sigma3_16", "6'"), (16, 106, 232, 205, 64),
              dict(boundary="Sigma3_16")),
    "D6_18": (lambda c: join(c["D4_16"].complex, Complex.from_facets([("w1", "w2")])),
              (18, 139, 460, 775, 706, 333, 64), dict(stacked=2)),
    "S5_18": (lambda c: boundary(c["D6_18"].complex), (18, 139, 460, 775, 654, 218),
              dict(closed=True, edge_link=("w1", "w2"))),
    "ziegler_S3_10": (_data("ziegler_s3_10.txt"), (10, 38, 56, 28), dict(closed=True)),
    "ziegler_S2_10": (_data("ziegler_s2_10.txt"), (10, 24, 16), dict(closed=True)),
    "ziegler_B1": (_data("ziegler_s3_10.txt", 0, ZIEGLER_B1_COUNT), (10, 24, 22, 7),
                   dict(dual_graph="path", stacked=1, boundary="ziegler_S2_10")),
    "ziegler_B2": (_data("ziegler_s3_10.txt", ZIEGLER_B1_COUNT), (10, 38, 50, 21),
                   dict(ears=(), boundary="ziegler_S2_10")),
    "lutz_S3_8": (_data("lutz_s3_8.txt"), (8, 28, 40, 20),
                  dict(closed=True, neighbourly=2)),
    "lutz_S2_8": (_data("lutz_s2_8.txt"), (8, 18, 12), dict(closed=True)),
    "lutz_B1": (_data("lutz_s3_8.txt", 0, LUTZ_B1_COUNT), (8, 18, 16, 5),
                dict(dual_graph="path", stacked=1, boundary="lutz_S2_8")),
    "lutz_B2": (_data("lutz_s3_8.txt", LUTZ_B1_COUNT), (8, 28, 36, 15),
                dict(ears=(("2", "4", "5", "7"),), shelling_order=LUTZ_B2_SHELLING,
                     shelled=2, boundary="lutz_S2_8")),
    "torus_7": (lambda c: moebius_torus_7(), (7, 21, 14),
                dict(closed=True, neighbourly=2)),
    "rp2_6": (lambda c: real_projective_plane_6(), (6, 15, 10),
              dict(closed=True, neighbourly=2)),
    **_kn(1, 2, (8, 24, 24, 8), (8, 24, 16)),
    **_kn(1, 3, (10, 40, 60, 40, 10), (10, 40, 60, 30)),
    **_kn(1, 4, (12, 60, 120, 120, 60, 12), (12, 60, 120, 120, 48)),
    **_kn(2, 4, (12, 60, 160, 210, 132, 32), (12, 60, 160, 180, 72)),
    **_kn(2, 5, (14, 84, 280, 490, 462, 224, 44), (14, 84, 280, 490, 420, 140)),
}


class _Corpus(Mapping):
    """The mapping ``corpus()`` returns.  Iteration, length and membership
    read ``_ENTRIES`` and build nothing."""

    def __init__(self):
        self._built: dict[str, CorpusEntry] = {}

    def __getitem__(self, name: str) -> CorpusEntry:
        if name not in self._built:
            build, expected_f, tags = _ENTRIES[name]
            cx = build(self)
            got = f_vector(cx)
            if got != expected_f:
                raise CorpusError(f"corpus entry {name}: face vector {got} "
                                  f"does not match expected {expected_f}")
            self._built[name] = CorpusEntry(name, cx, expected_f, dict(tags))
        return self._built[name]

    def __iter__(self):
        return iter(_ENTRIES)

    def __len__(self) -> int:
        return len(_ENTRIES)

    def __contains__(self, name) -> bool:
        return name in _ENTRIES


_CORPUS = _Corpus()


def corpus() -> Mapping[str, CorpusEntry]:
    """The embedded corpus, a read-only mapping from name to entry.  An
    entry is built, face-vector checked and kept on its first read; a
    mismatch raises ``CorpusError``, keeps nothing, and so raises again."""
    return _CORPUS


def corpus_complex(name: str) -> Complex:
    if name not in _CORPUS:
        raise InputError(f"no corpus entry named {name!r}; "
                         f"available: {', '.join(sorted(_CORPUS))}")
    return _CORPUS[name].complex
