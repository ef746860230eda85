"""Seeded inputs, job lists and stored answers for the three workloads.

The seed only generates inputs: it relabels vertex names, shuffles facet
and vertex order, grows the random spheres and balls, and picks the walk
moves and search seeds.  Input sizes are fixed.  The library receives
only facet lists and facet text; every ``Complex`` a job uses is built
inside the pass that uses it, from inputs relabelled afresh for that pass.

Every stored answer was computed once with the library at the commit that
introduced this benchmark and is invariant under relabelling.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable

import stellar
from stellar import core, homology, moves, tightness, vectors

QQ = homology.QQ
Z2 = homology.GF2
Z3 = homology.FieldSpec.prime(3)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


# -- seeded generators -------------------------------------------------------


def renaming(facets, rng: random.Random) -> dict[str, str]:
    """A seeded bijection from the vertex names of ``facets`` to v0, v1..."""
    verts = sorted({str(v) for f in facets for v in f})
    names = [f"v{i}" for i in range(len(verts))]
    rng.shuffle(names)
    return dict(zip(verts, names))


def renamed(facets, rename: dict[str, str], rng: random.Random) -> list[list[str]]:
    """``facets`` under ``rename``, with the facet order and the vertex
    order inside each facet shuffled."""
    out = [[rename[str(v)] for v in f] for f in facets]
    for f in out:
        rng.shuffle(f)
    rng.shuffle(out)
    return out


def relabel(facets, rng: random.Random) -> list[list[str]]:
    return renamed(facets, renaming(facets, rng), rng)


def stacked_sphere(n: int, rng: random.Random) -> list[tuple[int, ...]]:
    """A stacked 3-sphere on n vertices: the boundary of the 4-simplex,
    then n-5 subdivisions of random facets by a new vertex."""
    facets = [tuple(v for v in range(5) if v != u) for u in range(5)]
    for new in range(5, n):
        i = rng.randrange(len(facets))
        old = facets[i]
        facets[i] = facets[-1]
        facets.pop()
        facets.extend(tuple(v for v in old if v != u) + (new,) for u in old)
    return facets


def flipped_sphere(n: int, flips: int, rng: random.Random) -> list[tuple[int, ...]]:
    """A 3-sphere built from index-0 and index-1 moves: a stacked sphere
    on n vertices, then ``flips`` random 2-to-3 moves, each replacing two
    tetrahedra that share a triangle by three around the edge joining
    their apexes, where that edge is new."""
    facets = sorted(tuple(sorted(f)) for f in stacked_sphere(n, rng))
    edges = {e for f in facets for e in combinations(f, 2)}
    done = 0
    while done < flips:
        f = facets[rng.randrange(len(facets))]
        u = f[rng.randrange(4)]
        tri = tuple(v for v in f if v != u)
        g = next(h for h in facets if h != f and set(tri) <= set(h))
        (w,) = set(g) - set(tri)
        if (min(u, w), max(u, w)) in edges:
            continue
        facets = [h for h in facets if h != f and h != g]
        for x in tri:
            facets.append(tuple(sorted({v for v in tri if v != x} | {u, w})))
        edges.add((min(u, w), max(u, w)))
        done += 1
    return facets


def stacked_ball(n_facets: int, rng: random.Random) -> list[tuple[int, ...]]:
    """A stacked 3-ball: a tetrahedron, then new vertices coned over
    random boundary triangles until it has ``n_facets`` facets."""
    facets = [(0, 1, 2, 3)]
    free = list(combinations(range(4), 3))
    new = 4
    while len(facets) < n_facets:
        i = rng.randrange(len(free))
        tri = free[i]
        free[i] = free[-1]
        free.pop()
        facets.append(tri + (new,))
        free.extend(tuple(v for v in tri if v != x) + (new,) for x in tri)
        new += 1
    return facets


def check_sphere(facets, what: str) -> None:
    """Refuse a generated input that is not a closed pseudomanifold with
    the Z2 Betti numbers of a 3-sphere."""
    X = core.Complex.from_facets(facets)
    if not (core.is_closed_pseudomanifold(X)
            and homology.betti(X, Z2).beta == (1, 0, 0, 1)):
        raise RuntimeError(f"generated {what} is not a 3-sphere")


# -- answer checks that do not call the library -------------------------------


def facet_hash(facets) -> str:
    """The digest documented for ``core.facet_hash``: sorted rows of
    sorted names, newline-joined, SHA-256."""
    rows = sorted(" ".join(sorted(str(v) for v in f)) for f in facets)
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def f_vector(facets) -> tuple[int, ...]:
    faces: set[frozenset] = set()
    for f in facets:
        for r in range(1, len(f) + 1):
            faces.update(frozenset(c) for c in combinations(f, r))
    top = max(len(f) for f in facets)
    return tuple(sum(1 for s in faces if len(s) == t + 1) for t in range(top))


def move_delta(d: int, index: int) -> tuple[int, ...]:
    """f_j(after) - f_j(before), j = 0..d, for a bistellar move of the
    given index on a d-complex: the faces alpha + (proper subset of beta)
    are replaced by beta + (proper subset of alpha)."""
    a, b = d + 1 - index, index + 1          # |alpha|, |beta|

    def c(n, k):
        return comb(n, k) if 0 <= k <= n else 0

    return tuple(c(a, j + 1 - b) - c(b, j + 1 - a) for j in range(d + 1))


def _fracs(values) -> tuple[str, ...]:
    return tuple(str(v) for v in values)


def _certified(outcome, facets) -> bool:
    return (outcome.status == "found"
            and outcome.certificate.end_hash == facet_hash(facets))


# -- stored answers ----------------------------------------------------------

ANSWERS = {
    "mu(S3_16;Z2)": ("1", "577/105", "577/105", "1"),
    "sigma(lk(B4_16,5);Q)": ("50/21", "74/35", "0", "0"),
    "sigma(M_2_4;Q)": ("-10/11", "1/33", "430/33", "1/11", "1"),
    "betti(M_3_7)": (1, 0, 0, 1, 1, 0, 0, 1),
    "betti(M_2_7)": (1, 0, 1, 0, 0, 1, 0, 1),
    "betti(Mbar_3_7;Q)": (1, 0, 0, 1, 0, 0, 0, 0, 0),
}



def _report(field, sigma, mu, beta, slack, verdict) -> dict:
    return {"field": field, "sigma": sigma.split(), "mu": mu.split(),
            "beta": list(beta), "slack": slack.split(), "verdict": verdict,
            "witnesses": []}


# morse_report(X, field).to_json_dict()
MORSE_REPORTS = {
    "torus_7;Q": _report("Q", "-1 8 1", "1 2 1", (1, 2, 1), "0 0 0", "tight"),
    "torus_7;Z2": _report("Z2", "-1 8 1", "1 2 1", (1, 2, 1), "0 0 0", "tight"),
    "rp2_6;Q": _report("Q", "-1 5/2 0", "1 1 1", (1, 0, 0), "0 1 0",
                       "not-tight"),
    "rp2_6;Z2": _report("Z2", "-1 7/2 1", "1 1 1", (1, 1, 1), "0 0 0", "tight"),
    "lutz_S3_8;Q": _report("Q", "-1 1 0 1", "1 3/5 3/5 1", (1, 0, 0, 1),
                           "0 3/5 0 0", "not-tight"),
    "lutz_S3_8;Z2": _report("Z2", "-1 1 0 1", "1 3/5 3/5 1", (1, 0, 0, 1),
                            "0 3/5 0 0", "not-tight"),
    "lutz_B2;Q": _report("Q", "-1 2 0 0", "1 14/15 14/15 0", (1, 0, 0, 0),
                         "0 14/15 0 0", "not-tight"),
    "lutz_B2;Z2": _report("Z2", "-1 2 0 0", "1 14/15 14/15 0", (1, 0, 0, 0),
                          "0 14/15 0 0", "not-tight"),
}


# -- workloads ---------------------------------------------------------------


def _corpus_facets(name: str) -> list[tuple[str, ...]]:
    return stellar.corpus()[name].complex.facets_as_names()


def _build(facets) -> core.Complex:
    return core.Complex.from_facets(facets)


class Morse:
    """Criterion 11's cost: the sigma/mu subset loop on a 16-vertex
    sphere, on a cone, and on small 2-neighbourly complexes."""

    REPORTS = ("torus_7", "rp2_6", "lutz_S3_8", "lutz_B2")

    def __init__(self, seed: int):
        self.s3_16 = _corpus_facets("S3_16")
        b4_16 = stellar.corpus()["B4_16"].complex
        self.b4_link = core.link(b4_16, (b4_16.id_of("5"),)).facets_as_names()
        self.small = {n: _corpus_facets(n) for n in self.REPORTS}

    def jobs(self, rng: random.Random) -> list[Job]:
        s3 = relabel(self.s3_16, rng)
        lk = relabel(self.b4_link, rng)
        out = [
            Job("mu(S3_16;Z2)",
                lambda: tightness.mu_vector(_build(s3), Z2),
                lambda r: _fracs(r) == ANSWERS["mu(S3_16;Z2)"]),
            Job("sigma(lk(B4_16,5);Q)",
                lambda: tightness.sigma_vector(_build(lk), QQ),
                lambda r: _fracs(r) == ANSWERS["sigma(lk(B4_16,5);Q)"]),
        ]
        for name in self.REPORTS:
            facets = relabel(self.small[name], rng)
            for field in (QQ, Z2):
                key = f"{name};{field}"
                out.append(Job(
                    f"morse_report({key})",
                    lambda f=facets, fl=field: tightness.morse_report(_build(f), fl),
                    lambda r, k=key: r.to_json_dict() == MORSE_REPORTS[k]))
        return out


class Manifolds:
    """Inputs none of the sigma/mu shortcuts applies to: the generic
    subset path on a 4-manifold, and large eliminations on the
    sign-change sphere products and their bounding manifolds."""

    def __init__(self, seed: int):
        self.m24 = _corpus_facets("M_2_4")
        self.kn = {}
        for k in (3, 2):
            mbar, m = stellar.klee_novik(k, 7)
            self.kn[k] = (mbar.facets_as_names(), m.facets_as_names())

    def jobs(self, rng: random.Random) -> list[Job]:
        m24 = relabel(self.m24, rng)
        out = [Job("sigma(M_2_4;Q)",
                   lambda: tightness.sigma_vector(_build(m24), QQ),
                   lambda r: _fracs(r) == ANSWERS["sigma(M_2_4;Q)"])]
        for k, (mbar, m) in self.kn.items():
            rename = renaming(mbar, rng)
            facets = {"Mbar": renamed(mbar, rename, rng),
                      "M": renamed(m, rename, rng)}
            text = {w: "".join(" ".join(f) + "\n" for f in fs)
                    for w, fs in facets.items()}
            want = {w: facet_hash(fs) for w, fs in facets.items()}
            parsed: dict[str, core.Complex] = {}
            tag = f"{k}_7"

            def parse(which, text=text, parsed=parsed):
                parsed[which] = core.parse_facets(text[which])
                return parsed[which]

            for which in ("Mbar", "M"):
                out.append(Job(
                    f"parse_facets({which}_{tag})",
                    lambda w=which, p=parse: p(w),
                    lambda r, w=which, h=want: facet_hash(r.facets_as_names()) == h[w]))
            for field in (QQ, Z2, Z3):
                out.append(Job(
                    f"betti(M_{tag};{field})",
                    lambda fl=field, p=parsed: homology.betti(p["M"], fl),
                    lambda r, t=tag: r.beta == ANSWERS[f"betti(M_{t})"]))
            out.append(Job(
                f"check_klee(M_{tag})",
                lambda p=parsed: vectors.check_klee(p["M"]),
                lambda r: r.residuals == (0,) * 8))
            out.append(Job(
                f"boundary(Mbar_{tag})==M_{tag}",
                lambda p=parsed: core.boundary(p["Mbar"]) == p["M"],
                lambda r: r is True))
            if k == 3:
                out.append(Job(
                    f"betti(Mbar_{tag};Q)",
                    lambda p=parsed: homology.betti(p["Mbar"], QQ),
                    lambda r: r.beta == ANSWERS["betti(Mbar_3_7;Q)"]))
        return out


class Moves:
    """The move and shelling engines, and the constructor they rebuild
    through at every step; no homology runs inside the timed jobs."""

    WALK_STEPS = 150

    def __init__(self, seed: int):
        rng = random.Random(f"inputs:{seed}")
        self.walk = stacked_sphere(60, rng)
        self.flipped = flipped_sphere(30, 20, rng)
        self.stacked = stacked_sphere(80, rng)
        for facets, what in ((self.walk, "walk start"),
                             (self.flipped, "index-0/1 sphere"),
                             (self.stacked, "stacked sphere")):
            check_sphere(facets, what)
        self.ball = stacked_ball(250, rng)
        self.walk_f = f_vector(self.walk)
        self.corpus = {n: _corpus_facets(n)
                       for n in ("M_2_5", "lutz_B2", "ziegler_B2", "S3_16")}

    def jobs(self, rng: random.Random) -> list[Job]:
        walk = relabel(self.walk, rng)
        flipped = relabel(self.flipped, rng)
        stacked = relabel(self.stacked, rng)
        ball = relabel(self.ball, rng)
        c = {n: relabel(f, rng) for n, f in self.corpus.items()}
        walk_seed, s2, s1, wk = (rng.randrange(1 << 30) for _ in range(4))
        return [
            Job("bistellar_walk(60)",
                lambda: self._walk(walk, random.Random(walk_seed)),
                self._walk_ok),
            Job("stellation_search(index-0/1 sphere,k=2)",
                lambda: moves.stellation_search(_build(flipped), 2, seed=s2),
                lambda r: _certified(r, flipped)),
            Job("stellation_search(stacked sphere,k=1)",
                lambda: moves.stellation_search(_build(stacked), 1, seed=s1),
                lambda r: _certified(r, stacked)),
            Job("w_k_membership(M_2_5,2)",
                lambda: moves.w_k_membership(_build(c["M_2_5"]), 2, seed=wk),
                lambda r: r.verdict == "member"),
            Job("find_shelling(stacked ball)",
                lambda: moves.find_shelling(_build(ball)),
                lambda r: _certified(r, ball)),
            Job("find_shelling(lutz_B2)",
                lambda: moves.find_shelling(_build(c["lutz_B2"])),
                lambda r: _certified(r, c["lutz_B2"])),
            Job("find_shelling(ziegler_B2)",
                lambda: moves.find_shelling(_build(c["ziegler_B2"])),
                lambda r: r.status == "none"),
            Job("enumerate_bistellar(S3_16)",
                lambda: moves.enumerate_bistellar(_build(c["S3_16"])),
                lambda r: r == []),
        ]

    def _walk(self, facets, rng: random.Random):
        """Seeded walk by moves of index 1 and 2, which keep the vertex
        set: an index drawn uniformly, then a move of that index.  Returns
        the final facets and the index of every move."""
        X = _build(facets)
        indices = []
        for _ in range(self.WALK_STEPS):
            by_index: dict[int, list] = {}
            for mv in moves.enumerate_bistellar(X):
                by_index.setdefault(mv.index, []).append(mv)
            pool = by_index[rng.choice([i for i in (1, 2) if i in by_index])]
            mv = pool[rng.randrange(len(pool))]
            X = moves.apply_bistellar(X, mv)
            indices.append(mv.index)
        return X.facets_as_names(), indices

    def _walk_ok(self, result) -> bool:
        facets, indices = result
        want = list(self.walk_f)
        for i in indices:
            want = [a + b for a, b in zip(want, move_delta(3, i))]
        return f_vector(facets) == tuple(want)


WORKLOADS = {"morse": Morse, "manifolds": Manifolds, "moves": Moves}
