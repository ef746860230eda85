"""Sigma/mu-vectors, Morse-inequality reports and tightness verdicts.

The sigma-vector averages reduced Betti numbers of induced subcomplexes
over all vertex subsets (guarded by a cap on the vertex count); the
mu-vector averages link sigmas.  Everything is exact rational arithmetic.

The integer table behind sigma (sum of reduced beta_i over the j-subsets)
comes from the first of five paths whose hypothesis passes an exact
check:

1. cone apex -- some vertex a lies in every facet, so X = a * L: induced
   subcomplexes containing a are contractible and the others are those
   of L, whose table goes back through the same five paths;
2. Alexander duality -- X is an F-homology sphere of dimension <= 3
   (``homology.is_homology_sphere``): the top Betti numbers of X[A] come
   from the components of X[V - A] and beta_1 of a 3-sphere's X[A] from
   the Euler characteristic, so each subset costs one component count;
3. the ball path -- X is pure of dimension <= 3 with a boundary and
   S = X u w * bd(X) passes the same test: X[A] = S[A] whenever A avoids
   the new vertex w, so the table of X is S's duality table over those A;
4. the orbit path -- the loop below would visit at least 2^12 subsets,
   X is a pure, strongly connected weak pseudomanifold, and a search of
   at most 8 * 2^m steps finds a nontrivial automorphism group G
   (``_automorphisms``): X[A] and X[g(A)] are isomorphic, so one homology
   run per G-orbit of subsets, weighted by the orbit's size, gives the
   table;
5. the subset loop -- one homology run per subset, in fixed
   ascending-mask blocks so multi-process runs reduce deterministically.
   It is the oracle the tests compare the other four paths with.

The mu-vector computes one sigma per isomorphism class of links: a link
that is a pure, strongly connected weak pseudomanifold is keyed by its
canonical form, a complete invariant, and any other link by itself.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import comb, factorial
from operator import and_, or_

from .core import Complex, ComplexError, _ridge_facets, bits, ids_of, \
    is_closed_pseudomanifold, is_connected, link, mask_of, neighbourliness, \
    popcount, submasks
from .homology import BettiTable, FieldSpec, _faces_by_dim, betti, \
    inclusion_injective, is_homology_sphere, orientable, \
    reduced_betti_of_faces
from .vectors import f_vector, g_vector

SIGMA_CAP = 16
DIRECT_CAP = 12
LARGE_LOOP = 1 << 12  # subsets from which a loop is split or run up to symmetry


class BudgetError(ComplexError):
    """A subset-enumeration cap was exceeded (override with cap=None)."""


def _sigma_chunk(args) -> list[list[int]]:
    """Integer sums S[i][j] = sum of reduced beta_i over induced
    subcomplexes on the j-subsets with masks in [lo, hi)."""
    faces_by_dim, m, dim, field, lo, hi = args
    sums = [[0] * (m + 1) for _ in range(dim + 1)]
    for amask in range(lo, hi):
        j = amask.bit_count()
        for i, v in enumerate(_induced_betti(faces_by_dim, amask, field, dim)):
            if v:
                sums[i][j] += v
    return sums


def _induced_betti(faces_by_dim: list[list[int]], amask: int,
                   field: FieldSpec, dim: int) -> list[int]:
    """Reduced Betti numbers of the subcomplex induced on ``amask``."""
    nota = ~amask
    return reduced_betti_of_faces(
        [[f for f in lst if not f & nota] for lst in faces_by_dim], field, dim)


def _loop_sums(X: Complex, field: FieldSpec, jobs: int) -> list[list[int]]:
    """The subset loop: one homology run per vertex subset."""
    m, dim = X.m, X.dim
    faces_by_dim = _faces_by_dim(X)
    total = 1 << m
    if jobs <= 1 or total < LARGE_LOOP:
        return _sigma_chunk((faces_by_dim, m, dim, field, 0, total))
    from multiprocessing import Pool
    nchunks = jobs * 4
    step = (total + nchunks - 1) // nchunks
    tasks = [(faces_by_dim, m, dim, field, lo, min(lo + step, total))
             for lo in range(0, total, step)]
    with Pool(jobs) as pool:
        partials = pool.map(_sigma_chunk, tasks)
    sums = [[0] * (m + 1) for _ in range(dim + 1)]
    for part in partials:
        for i in range(dim + 1):
            row = part[i]
            srow = sums[i]
            for j in range(m + 1):
                srow[j] += row[j]
    return sums


def _byte_tables(images: list[int]) -> list[list[int]]:
    """Byte-sliced tables of a map from vertices to masks: the union of
    images[v] over the vertices v of a set S is the OR over k of
    tables[k][(S >> 8k) & 255]."""
    m = len(images)
    tables = []
    for base in range(0, m, 8):
        table = [0] * 256
        for s in range(1, 256):
            low = s & -s
            v = base + low.bit_length() - 1
            table[s] = table[s ^ low] | (images[v] if v < m else 0)
        tables.append(table)
    return tables


def _neighbour_tables(X: Complex) -> list[list[int]]:
    """Byte-sliced neighbourhood tables of the 1-skeleton (``_byte_tables``
    of each vertex's neighbours)."""
    adj = [0] * X.m
    for e in X.faces_of_dim(1):
        lo = e & -e
        adj[lo.bit_length() - 1] |= e ^ lo
        adj[(e ^ lo).bit_length() - 1] |= lo
    return _byte_tables(adj)


def _count_components(tables: list[list[int]], amask: int) -> int:
    """Number of connected components of the 1-skeleton induced on amask."""
    n = 0
    while amask:
        comp = amask & -amask
        while True:
            grown, s = comp, comp
            for table in tables:
                grown |= table[s & 255]
                s >>= 8
            grown &= amask
            if grown == comp:
                break
            comp = grown
        amask ^= comp
        n += 1
    return n


def _duality_sums(X: Complex, S: Complex) -> list[list[int]]:
    """The table of X, where S is an F-homology d-sphere, d <= 3, and X is
    either S itself or a ball with S = X u w * bd(X), w = S's last vertex.
    X[A] = S[A] for every A that avoids w.  For A nonempty and proper in
    V(S), Alexander duality gives reduced beta_d(X[A]) = 0 and
    beta_{d-1}(X[A]) = beta_0(S[V(S) - A]); for d = 3, beta_1 follows from
    the reduced Euler characteristic of X[A], whose sum over the j-subsets
    is sum_t (-1)^t f_t(X) C(m-t-1, j-t-1) - C(m, j).  So the table needs
    the component counts of S[B], tallied apart for the B that avoid w
    (beta_0 of X[B]) and the B that contain it (complements)."""
    m, n, d = X.m, S.m, X.dim
    tables = _neighbour_tables(S)
    half = 1 << (n - 1)
    without = [0] * (n + 1)  # sum of reduced beta_0(S[B]) over the k-subsets B
    with_w = [0] * (n + 1)   # that avoid, or contain, the last vertex
    for amask in range(1, half):
        without[amask.bit_count()] += _count_components(tables, amask) - 1
    for amask in range(half, 2 * half - 1):
        with_w[amask.bit_count()] += _count_components(tables, amask) - 1
    ball = n > m
    sums = [[0] * (m + 1) for _ in range(d + 1)]
    sums[0][0] = -1
    if not ball:  # every proper subset of a sphere is a complement
        without = with_w = [a + b for a, b in zip(without, with_w)]
        sums[d][m] = 1
    f = [X.n_faces(t) for t in range(d + 1)]
    for j in range(1, m + 1 if ball else m):
        sums[0][j] = without[j]
        if d >= 2:
            sums[d - 1][j] = with_w[n - j]
        if d == 3:
            chi = sum((-1) ** t * f[t] * comb(m - t - 1, j - t - 1)
                      for t in range(min(d, j - 1) + 1)) - comb(m, j)
            sums[1][j] = sums[0][j] + sums[2][j] - chi
    return sums


def _ball_closure(X: Complex) -> Complex | None:
    """S = X u w * bd(X) on ids 0..m, with w = m, the candidate sphere of
    the ball path; None unless X is pure of dimension <= 3 with at least
    one boundary ridge (a ridge on exactly one facet)."""
    if X.dim > 3 or not X.is_pure():
        return None
    w = 1 << X.m
    caps = [r | w for r, owners in _ridge_facets(X.facet_masks).items()
            if len(owners) == 1]
    if not caps:
        return None
    return Complex([str(v) for v in range(X.m + 1)],
                   [ids_of(f) for f in X.facet_masks + tuple(caps)])


def _across(masks: tuple[int, ...]) -> list[dict[int, int]] | None:
    """across[i][v] = j when facets i and j share the ridge masks[i] - v;
    None when some ridge lies in three or more facets."""
    across: list[dict[int, int]] = [{} for _ in masks]
    for r, owners in _ridge_facets(masks).items():
        if len(owners) > 2:
            return None
        if len(owners) == 2:
            i, j = owners
            across[i][(masks[i] & ~r).bit_length() - 1] = j
            across[j][(masks[j] & ~r).bit_length() - 1] = i
    return across


def _automorphisms(X: Complex, budget: int) -> list[tuple[int, ...]] | None:
    """Aut(X) as vertex permutations (perm[v] is the image of v) when X
    is a pure, strongly connected weak pseudomanifold; None for any other
    complex, or once the search has cost more than ``budget`` steps.

    A breadth-first walk across ridges from facet 0 reaches every facet
    j from a facet i through the ridge i - v, and j adds one vertex w.
    An automorphism g carries that ridge to the ridge of g(i) opposite
    g(v), so g(j) and g(w) follow from g(i) and g on facet 0 (McKay &
    Piperno, "Practical graph isomorphism, II", 2014).  The search fixes
    the base flag, facet 0 with its vertices in id order, and tries
    every flag (a facet t with an order of its vertices) as its image:
    t only when its faces lie in as many facets as those of facet 0,
    and the order built a vertex at a time, dropped as soon as a face of
    facet 0 and its image lie in different numbers of facets.
    Each full flag is propagated along the walk until the first
    conflict, and a map is kept only when an exact check shows it
    carries the facet set onto itself.  So every automorphism is found
    once, and the list is Aut(X).

    Steps: F * 2^(d+1) for the face counts, one per candidate vertex of a
    flag and one per face it is compared on when it fits, one per ridge
    crossed and F per exact check."""
    if X.dim < 0 or not X.is_pure():
        return None
    masks = X.facet_masks
    across = _across(masks)
    if across is None:
        return None
    walk = []  # (i, v, j, w) as above, in breadth-first order
    queue, reached = [0], {0}
    for i in queue:
        for v, j in sorted(across[i].items()):
            if j not in reached:
                reached.add(j)
                queue.append(j)
                walk.append((i, v, j, (masks[j] & ~masks[i]).bit_length() - 1))
    if len(queue) < len(masks):
        return None  # not strongly connected
    n = X.dim + 1
    steps = len(masks) << n
    if steps > budget:
        return None
    count: dict[int, int] = {}  # face -> number of facets containing it
    for fm in masks:
        for s in submasks(fm):
            count[s] = count.get(s, 0) + 1
    kinds = [sorted(count[s] for s in submasks(fm)) for fm in masks]
    base = ids_of(masks[0])
    facets = set(masks)
    group = []
    for t, fm in enumerate(masks):
        if kinds[t] != kinds[0]:
            continue
        # partial orders: images of base[:k], the faces of facet 0 on
        # base[:k], and their images, in matching positions
        stack = [((), [0], [0])]
        while stack:
            if steps > budget:
                return None
            order, faces, images = stack.pop()
            if len(order) < n:
                b = 1 << base[len(order)]
                for w in bits(fm & ~mask_of(order)):
                    wb = 1 << w
                    steps += 1
                    if all(count[f | b] == count[g | wb]
                           for f, g in zip(faces, images)):
                        steps += len(faces)
                        stack.append((order + (w,), faces + [f | b for f in faces],
                                      images + [g | wb for g in images]))
                continue
            perm = [-1] * X.m
            for v, w in zip(base, order):
                perm[v] = w
            image = [-1] * len(masks)  # facet index -> index of its image
            image[0] = t
            used = fm
            for i, v, j, w in walk:
                steps += 1
                gi = image[i]
                gj = across[gi].get(perm[v])
                if gj is None:
                    break
                new = masks[gj] & ~masks[gi]
                if perm[w] < 0:
                    if used & new:
                        break
                    used |= new
                    perm[w] = new.bit_length() - 1
                elif 1 << perm[w] != new:
                    break
                image[j] = gj
            else:
                steps += len(masks)
                bit = [1 << w for w in perm]
                if {reduce(or_, map(bit.__getitem__, f)) for f in X.facets} == facets:
                    group.append(tuple(perm))
    return group


def _orbit_sums(X: Complex, field: FieldSpec,
                group: list[tuple[int, ...]]) -> list[list[int]]:
    """The subset loop up to symmetry, for a group of automorphisms of X
    given as vertex permutations: X[A] and X[g(A)] are isomorphic and A
    and g(A) have one size.  The masks are taken in ascending order, and
    each one not yet seen is the least of its orbit {g(A)}: one homology
    run, weighted by the size of the orbit (orbit-counting lemma)."""
    m, dim = X.m, X.dim
    faces_by_dim = _faces_by_dim(X)
    tables = [_byte_tables([1 << w for w in perm]) for perm in group]
    seen = bytearray(1 << m)
    sums = [[0] * (m + 1) for _ in range(dim + 1)]
    for amask in range(1 << m):
        if seen[amask]:
            continue
        orbit = set()
        for perm_tables in tables:
            image, s = 0, amask
            for table in perm_tables:
                image |= table[s & 255]
                s >>= 8
            orbit.add(image)
        for image in orbit:
            seen[image] = 1
        j = amask.bit_count()
        for i, v in enumerate(_induced_betti(faces_by_dim, amask, field, dim)):
            if v:
                sums[i][j] += v * len(orbit)
    return sums


def _subset_sums(X: Complex, field: FieldSpec, jobs: int = 1) -> list[list[int]]:
    """sums[i][j] = sum of reduced beta_i(X[A]) over the j-subsets A, from
    the first of five paths whose hypothesis holds: cone apex, Alexander
    duality for an F-homology sphere of dimension <= 3, the same duality
    for a ball whose closure ``_ball_closure`` is such a sphere, one run
    per orbit of a nontrivial automorphism group that ``_automorphisms``
    finds within 8 * 2^m steps when there are at least LARGE_LOOP
    subsets, or the subset loop."""
    apex = reduce(and_, X.facet_masks)
    if apex:
        lk = link(X, (apex.bit_length() - 1,))
        if lk.dim < 0:  # X is a point
            return [[-1, 0]]
        return [row + [0] for row in _subset_sums(lk, field, jobs)] \
            + [[0] * (X.m + 1)]
    if X.dim <= 3 and is_homology_sphere(X, field):
        return _duality_sums(X, X)
    S = _ball_closure(X)
    if S is not None and is_homology_sphere(S, field):
        return _duality_sums(X, S)
    if 1 << X.m >= LARGE_LOOP:
        # a step of the search costs well under a hundredth of a
        # homology run, so a spent budget adds a few per cent to the loop
        group = _automorphisms(X, 8 << X.m)
        if group is not None and len(group) > 1:
            return _orbit_sums(X, field, group)
    return _loop_sums(X, field, jobs)


def sigma_vector(X: Complex, field: FieldSpec, cap: int | None = SIGMA_CAP,
                 jobs: int = 1) -> tuple[Fraction, ...]:
    """sigma_i = sum_j C(m,j)^-1 sum_{|A|=j} reduced beta_i(X[A]), the
    average running over all vertex subsets including the empty one.

    The sums come from ``_subset_sums``: the cone-apex path when some
    vertex lies in every facet, the duality path when X passes
    ``is_homology_sphere`` in dimension <= 3, the ball path when X's
    ``_ball_closure`` does, the orbit path when there are at least 2^12
    subsets and ``_automorphisms`` finds a nontrivial group of X within
    a budget of 8 * 2^m steps (run serially), else the subset loop (with
    ``jobs`` processes once there are at least 2^12 subsets).  The cap
    applies to m whichever path runs."""
    if X.dim < 0:
        return ()
    m, dim = X.m, X.dim
    if cap is not None and m > cap:
        raise BudgetError(
            f"sigma on {m} vertices needs 2^{m} homology runs; cap is {cap}")
    sums = _subset_sums(X, field, jobs)
    return tuple(
        sum((Fraction(sums[i][j], comb(m, j)) for j in range(m + 1)),
            Fraction(0))
        for i in range(dim + 1))


def _canonical_form(X: Complex) -> tuple[int, ...] | None:
    """A complete isomorphism invariant of a pure, strongly connected weak
    pseudomanifold (every ridge on at most two facets, the facets
    connected across ridges); None for any other complex.

    A flag, a facet with an order of its vertices, labels those vertices
    0..d; a breadth-first walk across ridges then labels each new vertex
    in turn, taking the facets first in, first out and the ridges of a
    facet by the label of the vertex they omit.  The labelling depends
    only on the flag and the structure, so an isomorphism carries the
    walks from the flags of X onto the walks from their images.  The form
    is the least sequence of relabelled facet masks, in walk order, over
    the flags whose first vertex lies in the fewest facets; a walk stops
    as soon as it exceeds the least so far.  Equal forms give an
    isomorphism by composing the two relabellings."""
    if X.dim < 0 or not X.is_pure():
        return None
    masks = X.facet_masks
    across = _across(masks)
    if across is None:
        return None
    degree = [0] * X.m
    for fm in masks:
        for v in bits(fm):
            degree[v] += 1
    low = min(degree)

    def walk(start: int, label: dict[int, int],
             best: list[int] | None) -> list[int] | None:
        form: list[int] = []
        tied = best is not None
        queue = [start]
        seen = {start}
        for i in queue:
            code = 0
            for v in bits(masks[i]):
                code |= 1 << label[v]
            if tied:
                if code > best[len(form)]:
                    return None
                tied = code == best[len(form)]
            form.append(code)
            for v in sorted(across[i], key=label.__getitem__):
                j = across[i][v]
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
                    new = masks[j] & ~masks[i]
                    label.setdefault(new.bit_length() - 1, len(label))
        return form

    best = None
    for start, fm in enumerate(masks):
        for first in bits(fm):
            if degree[first] != low:
                continue
            for order in permutations(v for v in bits(fm) if v != first):
                label = {first: 0}
                for v in order:
                    label[v] = len(label)
                form = walk(start, label, best)
                if form is None:
                    continue
                if len(form) < len(masks):
                    return None  # not strongly connected
                best = form
    return tuple(best)


def mu_vector(X: Complex, field: FieldSpec, cap: int | None = SIGMA_CAP,
              jobs: int = 1) -> tuple[Fraction, ...]:
    """mu_0 = 1; mu_i = [i==1] + (1/m) sum_x sigma_{i-1}(link of x).

    Links with one ``_canonical_form`` are isomorphic and share one
    sigma.  A link gets its own sigma when it has no form (it is not a
    pure, strongly connected weak pseudomanifold), or when the form could
    cost more than that sigma: up to F (d+1)! walks over F facets against
    the 2^m subsets the sigma visits, as for the flag-transitive cross
    polytopes."""
    d = X.dim
    mu = [Fraction(1)] + [Fraction(0)] * d
    if d >= 1:
        mu[1] = Fraction(1)
    known: dict[object, tuple[Fraction, ...]] = {}
    for v in range(X.m):
        lk = link(X, (v,))
        key = None
        if len(lk.facet_masks) ** 2 * factorial(lk.dim + 1) <= 1 << lk.m:
            key = _canonical_form(lk)
        if key is None:
            key = v
        if key not in known:
            known[key] = sigma_vector(lk, field, cap, jobs)
        sig = known[key]
        for i in range(1, d + 1):
            if i - 1 < len(sig):
                mu[i] += Fraction(sig[i - 1], X.m)
    return tuple(mu)


def mu_via_pairs(X: Complex, field: FieldSpec,
                 cap: int | None = SIGMA_CAP) -> tuple[Fraction, ...]:
    """The covering-pair form of the mu-vector, valid for 2-neighbourly
    complexes: an average of relative Betti numbers beta_i(X[B], X[B-x])
    over all pairs B, x in B.  Independent of mu_vector's code path."""
    if neighbourliness(X) < 2:
        raise ComplexError("mu_via_pairs needs a 2-neighbourly complex")
    m, d = X.m, X.dim
    if cap is not None and m > cap:
        raise BudgetError(f"pair enumeration on {m} vertices exceeds cap {cap}")
    faces_by_dim = _faces_by_dim(X)
    from .exactlinalg import rank_gf2, rank_int, rank_modp
    is_q = field.kind == "rationals"
    p = field.p
    sums = [[0] * (m + 1) for _ in range(d + 1)]  # over |B| = j
    for bmask in range(1, 1 << m):
        j = popcount(bmask)
        notb = ~bmask
        rel = []
        for lst in faces_by_dim:
            rel.append([f for f in lst if not f & notb])
        for x in bits(bmask):
            xbit = 1 << x
            ns = []
            ranks = [0] * (d + 3)
            per_dim = []
            for i in range(d + 1):
                per_dim.append([f for f in rel[i] if f & xbit])
                ns.append(len(per_dim[i]))
            for i in range(1, d + 1):
                if not per_dim[i]:
                    continue
                if is_q or p != 2:
                    cols = []
                    for f in per_dim[i]:
                        col = {}
                        sign = 1
                        for b in bits(f):
                            if b != x:
                                col[f ^ (1 << b)] = sign
                            sign = -sign
                        cols.append(col)
                    ranks[i] = rank_int(cols) if is_q else rank_modp(cols, p)
                else:
                    cols = [{f ^ (1 << b) for b in bits(f) if b != x}
                            for f in per_dim[i]]
                    ranks[i] = rank_gf2(cols)
            for i in range(d + 1):
                v = ns[i] - ranks[i] - ranks[i + 1]
                if v:
                    sums[i][j] += v
    return tuple(
        sum((Fraction(sums[i][j], m * comb(m - 1, j - 1))
             for j in range(1, m + 1)), Fraction(0))
        for i in range(d + 1))


@dataclass
class MuReport:
    """Sigma/mu-vectors with the Morse-inequality bookkeeping."""

    field: FieldSpec
    sigma: tuple[Fraction, ...]
    mu: tuple[Fraction, ...]
    beta: BettiTable
    morse_slack: tuple[Fraction, ...]  # sum_{i<=j} (-1)^(j-i) (mu_i - beta_i)
    weak_ok: bool                      # mu_j >= beta_j componentwise
    duality_ok: bool | None            # mu_{d-j} == mu_j (orientable closed)
    verdict: str                       # tight | not-tight | not-applicable
    witness: tuple | None = None

    def to_json_dict(self) -> dict:
        return {
            "field": str(self.field),
            "sigma": [str(s) for s in self.sigma],
            "mu": [str(v) for v in self.mu],
            "beta": list(self.beta.beta),
            "slack": [str(s) for s in self.morse_slack],
            "verdict": self.verdict,
            "witnesses": list(self.witness) if self.witness else [],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def morse_report(X: Complex, field: FieldSpec, cap: int | None = SIGMA_CAP,
                 jobs: int = 1) -> MuReport:
    """Strong/weak Morse-inequality report.  The inequalities are only
    guaranteed for 2-neighbourly complexes; other inputs get the verdict
    "not-applicable" with the numbers still computed."""
    d = X.dim
    bt = betti(X, field)
    sig = sigma_vector(X, field, cap, jobs)
    mu = mu_vector(X, field, cap, jobs)
    slack = []
    for j in range(d + 1):
        s = Fraction(0)
        for i in range(j + 1):
            s += (-1) ** (j - i) * (mu[i] - bt.beta[i])
        slack.append(s)
    weak_ok = all(mu[j] >= bt.beta[j] for j in range(d + 1))
    duality = None
    if is_closed_pseudomanifold(X) and orientable(X, field):
        duality = all(mu[d - j] == mu[j] for j in range(d + 1))
    if neighbourliness(X) >= 2:
        verdict = "tight" if list(mu) == list(map(Fraction, bt.beta)) else "not-tight"
    else:
        verdict = "not-applicable"
    return MuReport(field, sig, mu, bt, tuple(slack), weak_ok, duality, verdict)


@dataclass
class TightnessResult:
    tight: bool
    mode: str
    witness: tuple | None = None   # (vertex names, j) refuting injectivity
    mu: tuple | None = None
    beta: tuple | None = None


def is_tight(X: Complex, field: FieldSpec, mode: str = "p18",
             cap: int | None = None, jobs: int = 1) -> TightnessResult:
    """Tightness verdict.

    mode "direct" checks injectivity of every induced inclusion in every
    degree (cost 2^m, cap 12 by default) and returns a violating
    (subset, degree) witness; mode "p18" uses the mu = beta criterion for
    2-neighbourly complexes.
    """
    if mode == "direct":
        if cap is None:
            cap = DIRECT_CAP
        if X.m > cap:
            raise BudgetError(f"direct tightness on {X.m} vertices exceeds cap {cap}")
        if not is_connected(X):
            return TightnessResult(False, mode, ((), 0))
        for amask in range(1 << X.m):
            for j in range(X.dim + 1):
                if not inclusion_injective(X, ids_of(amask), j, field):
                    return TightnessResult(False, mode,
                                           (tuple(X.name_of(v) for v in bits(amask)), j))
        return TightnessResult(True, mode)
    if mode == "p18":
        if cap is None:
            cap = SIGMA_CAP
        if not is_connected(X):
            return TightnessResult(False, mode)
        if neighbourliness(X) < 2:
            return TightnessResult(False, mode)
        mu = mu_vector(X, field, cap, jobs)
        bt = betti(X, field)
        ok = list(mu) == list(map(Fraction, bt.beta))
        return TightnessResult(ok, mode, None, mu, bt.beta)
    raise ComplexError(f"unknown tightness mode {mode!r}")


# -- criterion battery --------------------------------------------------------


@dataclass
class CheckLine:
    prop: str
    status: str   # "holds" | "equality" | "fails" | "not-applicable"
    detail: str = ""

    def __str__(self) -> str:
        text = f"{self.prop}: {self.status}"
        return f"{text} ({self.detail})" if self.detail else text


def sigma_g_report(S: Complex, k: int, field: FieldSpec, certified: bool,
                   cap: int | None = SIGMA_CAP, jobs: int = 1) -> list[CheckLine]:
    """Sigma-vector/g-vector comparison for a k-stellated sphere of
    dimension >= 2k-1: vanishing middle sigmas, alternating-sum upper
    bounds below index k-1 and equalities from k-1 up.  Without a
    stellatedness certificate the verdict is not-applicable (the paper
    gives no guidance for uncertified inputs)."""
    lines: list[CheckLine] = []
    d = S.dim
    if not certified or d < 2 * k - 1:
        return [CheckLine("P19", "not-applicable",
                          "needs a certified k-stellated sphere, d >= 2k-1")]
    sig = sigma_vector(S, field, cap, jobs)
    g = g_vector(S)
    m = S.m
    ok = all(sig[i] == 0 for i in range(k, d - k))
    lines.append(CheckLine("P19a", "holds" if ok else "fails",
                           f"sigma_i = 0 for {k}..{d - k - 1}"))
    ineq_ok, eq_ok = True, True
    for l in range(0, d - k):
        lhs = sum((-1) ** (l - i) * sig[i] for i in range(l + 1))
        rhs = Fraction(m + 1, d + 3) * sum(
            (-1) ** (l + 1 - i) * Fraction(g[i], comb(d + 2, i))
            for i in range(l + 2))
        if l <= k - 2 and lhs > rhs:
            ineq_ok = False
        if l >= k - 1 and lhs != rhs:
            eq_ok = False
    lines.append(CheckLine("P19b", "holds" if ineq_ok else "fails",
                           "alternating sigma sums bounded"))
    lines.append(CheckLine("P19c", "holds" if eq_ok else "fails",
                           f"equalities for l = {k - 1}..{d - k - 1}"))
    return lines


def p23_bounds(M: Complex, beta1: int) -> list[tuple[int, int, int]]:
    """Lower bounds on the face vector of a closed d-manifold in terms of
    f_0 and the first Z_2 Betti number: rows (j, f_j, bound)."""
    d = M.dim
    f = f_vector(M)
    rows = []
    for j in range(1, d):
        bound = comb(d + 1, j) * f[0] + j * comb(d + 2, j + 1) * (beta1 - 1)
        rows.append((j, f[j], bound))
    rows.append((d, f[d], d * f[0] + (d - 1) * (d + 2) * (beta1 - 1)))
    return rows


def criterion_battery(M: Complex, k: int, field: FieldSpec,
                      wk_certified: bool = False,
                      cap: int | None = SIGMA_CAP, jobs: int = 1) -> list[CheckLine]:
    """Evaluate the tightness/lower-bound criterion family on M.

    ``wk_certified`` is the caller's assertion (e.g. from a move-engine
    membership run) that every vertex link is k-stellated; the battery
    never decides that itself.  Each line reports whether the hypothesis
    applies and whether the conclusion holds, with exact arithmetic.
    """
    lines: list[CheckLine] = []
    d = M.dim
    n = M.m
    f = f_vector(M)
    g = g_vector(M)
    nb = neighbourliness(M)
    closed = is_closed_pseudomanifold(M)
    beta_f = betti(M, field).beta
    orient = orientable(M, field) if closed else None
    mu = None

    def get_mu():
        nonlocal mu
        if mu is None:
            mu = mu_vector(M, field, cap, jobs)
        return mu

    def tight() -> bool:
        # is_tight(M, field, "p18"), with the battery's own mu and beta
        if not is_connected(M) or nb < 2:
            return False
        return list(get_mu()) == list(map(Fraction, beta_f))

    # -- mu/g relations for 2-neighbourly W_k members
    if wk_certified and nb >= 2 and d >= 2 * k >= 2:
        mv = get_mu()
        bad = [i for i in range(k + 1, d - k) if mv[i] != 0]
        lines.append(CheckLine("P20a", "holds" if not bad else "fails",
                               f"mu_i = 0 for {k + 1}..{d - k - 1}"))
        ineq_ok, eq_ok = True, True
        for l in range(1, d - k):
            s = sum((-1) ** (l - i) * mv[i] for i in range(1, l + 1))
            target = Fraction(g[l + 1], comb(d + 2, l + 1))
            if l <= k - 1 and s > target:
                ineq_ok = False
            if k <= l and s != target:
                eq_ok = False
        lines.append(CheckLine("P20b", "holds" if ineq_ok else "fails",
                               "alternating mu sums bounded by g ratios"))
        lines.append(CheckLine("P20c", "holds" if eq_ok else "fails",
                               f"equality for l = {k}..{d - k - 1}"))
    else:
        lines.append(CheckLine("P20", "not-applicable",
                               "needs certified 2-neighbourly W_k, d >= 2k >= 2"))

    if wk_certified and nb >= 2:
        ok = True
        upper = (k - 1 if d == 2 * k else k) if d >= 2 * k else -1
        for l in range(1, upper + 1):
            s = sum((-1) ** (l - i) * beta_f[i] for i in range(1, l + 1))
            if g[l + 1] < comb(d + 2, l + 1) * s:
                ok = False
        lines.append(CheckLine("P21ab", "holds" if ok else "fails",
                               "g lower bounds from Betti numbers"))
        if d >= 2 * k + 2:
            eq = all(
                g[l + 1] == comb(d + 2, l + 1)
                * sum((-1) ** (l - i) * beta_f[i] for i in range(1, l + 1))
                for l in range(k, d - k))
            vanish = all(beta_f[i] == 0 for i in range(k + 1, d - k))
            lines.append(CheckLine("P21c", "equality" if eq else "fails"))
            lines.append(CheckLine("P21d", "holds" if vanish else "fails",
                                   f"beta_i = 0 for {k + 1}..{d - k - 1}"))
    else:
        lines.append(CheckLine("P21", "not-applicable",
                               "needs certified 2-neighbourly W_k"))

    # -- W_1 tightness characterization
    if wk_certified and k == 1:
        t = tight()
        rhs = nb >= 2 and bool(orient)
        if d != 3:
            ok = t == rhs
            lines.append(CheckLine("P22a", "holds" if ok else "fails",
                                   f"tight={t}, 2-neighbourly and orientable={rhs}"))
        else:
            rhs = rhs and beta_f[1] == Fraction((n - 4) * (n - 5), 20)
            lines.append(CheckLine("P22b", "holds" if t == rhs else "fails",
                                   f"tight={t}, criterion={rhs}"))
    # -- general lower bound theorem
    if closed and d >= 3:
        beta1 = betti(M, FieldSpec.prime(2)).beta[1]
        rows = p23_bounds(M, beta1)
        ok = all(fj >= b for _, fj, b in rows)
        eqall = all(fj == b for _, fj, b in rows)
        lines.append(CheckLine(
            "P23a", "equality" if eqall else ("holds" if ok else "fails"),
            f"beta_1(Z2)={beta1}"))
        lhs = comb(f[0] - d - 1, 2)
        rhs = comb(d + 2, 2) * beta1
        lines.append(CheckLine(
            "P23b", "equality" if lhs == rhs else ("holds" if lhs >= rhs else "fails"),
            f"{lhs} >= {rhs}"))
    else:
        lines.append(CheckLine("P23", "not-applicable", "needs a closed manifold, d >= 3"))

    # -- W*_k tightness criterion
    if wk_certified and k >= 2 and nb >= k + 1:
        if d != 2 * k + 1:
            t = tight()
            lines.append(CheckLine("P25a", "holds" if t else "fails",
                                   f"tight over {field}"))
        else:
            t = tight()
            needed = Fraction(comb(n - k - 3, k + 1), comb(2 * k + 3, k + 1))
            crit = Fraction(beta_f[k]) == needed
            lines.append(CheckLine("P25b", "holds" if t == crit else "fails",
                                   f"tight={t}, beta_k criterion={crit}"))
    # -- the questioned criterion
    if (k >= 2 and wk_certified and nb >= k and (d == 2 * k or d >= 2 * k + 2)
            and closed and orient):
        hyp = Fraction(beta_f[k - 1]) == Fraction(comb(n + k - d - 3, k), comb(d + 2, k))
        if hyp:
            t = tight()
            lines.append(CheckLine(
                "P26", "holds" if t else "fails",
                "criterion, paper marks as question"))
        else:
            lines.append(CheckLine("P26", "not-applicable",
                                   "beta_{k-1} hypothesis not met; "
                                   "criterion, paper marks as question"))

    # -- neighbourliness consequences
    if nb >= 2:
        mv = get_mu()
        l = nb - 1
        ok = all(beta_f[i] == 0 and mv[i] == 0 for i in range(1, l))
        lines.append(CheckLine("L9", "holds" if ok else "fails",
                               f"{nb}-neighbourly: beta_i = 0 = mu_i for i < {l}"))
    if closed and d % 2 == 0 and d >= 2 and nb >= d // 2 + 1 and orient:
        t = tight()
        lines.append(CheckLine("L10", "holds" if t else "fails",
                               f"({d // 2 + 1})-neighbourly orientable {d}-manifold"))
    return lines
