"""Sigma/mu-vectors, Morse-inequality reports and tightness verdicts.

The sigma-vector averages reduced Betti numbers of induced subcomplexes
over all vertex subsets (guarded by a cap on the vertex count); the
mu-vector averages link sigmas.  Everything is exact rational arithmetic.

The integer table behind sigma (sum of reduced beta_i over the j-subsets)
comes from the first of four paths whose hypothesis passes an exact
check:

1. cone apex -- some vertex a lies in every facet, so X = a * L: induced
   subcomplexes containing a are contractible and the others are those
   of L, whose table goes back through the same four paths;
2. Alexander duality -- X is an F-homology sphere of dimension <= 3
   (``homology.is_homology_sphere``): the top Betti numbers of X[A] come
   from the components of X[V - A] and beta_1 of a 3-sphere's X[A] from
   the Euler characteristic, so the table needs only the component
   counts of the induced 1-skeletons summed by size, which
   ``_component_tallies`` works out for 2^14 subsets at a time as the
   bits of Python ints;
3. the ball path -- X is pure of dimension <= 3 with a boundary and
   S = X u w * bd(X) passes the same test: X[A] = S[A] whenever A avoids
   the new vertex w, so the table of X is S's duality table over those A;
4. the class path (``_class_sums``) -- one homology run per class
   {g(A) : g in G} of vertex subsets, weighted by the class's size, as
   X[A] and X[g(A)] are isomorphic.  G is Aut(X), whose generators
   ``_automorphism_generators`` finds for any complex by the refinement
   search of ``are_isomorphic`` with base vertices fixed, each checked
   exactly on the facets; a class is closed under them.  With no
   generators (a trivial group) this is the subset loop.  From 2^12
   classes up, the runs are split over ``jobs`` processes.  The tests
   compare every path with a subset loop of their own.

The mu-vector computes one sigma per isomorphism class of links: a link
shares the sigma of the first earlier link that ``core._classes`` matches
it with, and any other link gets its own.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import and_

from .core import Complex, ComplexError, RangeError, \
    _automorphism_generators, _classes, _map_jobs, _rebuild, _ridge_facets, \
    _vertex_links, _worker_count, bits, ids_of, is_closed_pseudomanifold, \
    is_connected, link, neighbourliness
from .homology import BettiTable, FieldSpec, _cone, _exactness_defects, \
    _faces_by_dim, betti, is_homology_sphere, reduced_betti_of_faces
from .vectors import f_vector, g_vector

SIGMA_CAP = 16
DIRECT_CAP = 12
LARGE_LOOP = 1 << 12  # classes to split the runs of _class_sums from
BLOCK = 14  # vertices whose subsets share one int in _component_tallies


class BudgetError(ComplexError):
    """A subset-enumeration cap was exceeded (override with cap=None)."""


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


@lru_cache(maxsize=None)
def _block_sets(width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sets of the masks A < 2^width as ints with bit A set: members[u]
    holds the A that contain vertex u, and sizes[k] the A of k elements."""
    full = (1 << (1 << width)) - 1
    members = []
    for u in range(width):
        run = 1 << u  # 2^u masks without u, then 2^u with it, repeated
        members.append(full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))
    sizes = [1]
    for u in range(width):
        sizes = [(sizes[k] if k <= u else 0) | (sizes[k - 1] << (1 << u) if k else 0)
                 for k in range(u + 2)]
    return tuple(members), tuple(sizes)


def _component_tallies(adj: list[int]) -> tuple[list[int], list[int]]:
    """(avoid, contain): avoid[k] sums the number of components of the
    graph induced on A over the k-subsets A of its vertices 0..n-1 that
    avoid the last vertex, and contain[k] over those that contain it;
    adj[u] is the mask of u's neighbours.

    Bit-parallel over blocks of 2^BLOCK masks: each mask A of a block is
    one bit of an int, P[u] has bit A set iff u is in A, and the vertices
    from BLOCK up are fixed inside a block, so the ints take 2^BLOCK bits
    whatever n is.  Components are counted by their least vertex.  For
    each root v, R[u] is the set of A in which a path inside A joins v to
    u through vertices >= v: R[v] = P[v], then R[u] |= P[u] & R[w] for a
    neighbour w until nothing changes.  The first vertex below v on a path
    from v is a neighbour of such a u, so v is least in its component of
    A iff no reached u has a neighbour w < v in A:
    lead = P[v] & ~OR_u (R[u] & OR_{w < v in N(u)} P[w]).  The counts by
    size and side come from ``bit_count`` of lead against the size sets."""
    n = len(adj)
    width = min(n, BLOCK)
    low, sizes = _block_sets(width)
    full = (1 << (1 << width)) - 1
    nbrs = [ids_of(a) for a in adj]
    avoid, contain = [0] * (n + 1), [0] * (n + 1)
    for high in range(0, 1 << n, 1 << width):
        P = list(low) + [full if high >> u & 1 else 0 for u in range(width, n)]
        last = P[n - 1]
        base = high.bit_count()
        classes = [(tally, base + k, c & side)
                   for tally, side in ((avoid, ~last), (contain, last))
                   for k, c in enumerate(sizes)]
        classes = [cls for cls in classes if cls[2]]
        below = [0] * n  # below[u]: OR of P[w] over the neighbours w < v of u
        for v in range(n):
            pv = P[v]
            if not pv:
                continue
            R = {v: pv}
            stack = [v]
            while stack:
                u = stack.pop()
                ru = R[u]
                for x in nbrs[u]:
                    if x > v:
                        old = R.get(x, 0)
                        new = old | (P[x] & ru)
                        if new != old:
                            R[x] = new
                            stack.append(x)
            lead = pv
            for u, ru in R.items():
                lead &= ~(ru & below[u])
            for tally, k, c in classes:
                tally[k] += (lead & c).bit_count()
            for x in nbrs[v]:
                below[x] |= pv
    return avoid, contain


def _duality_sums(X: Complex, S: Complex) -> list[list[int]]:
    """The table of X, where S is an F-homology d-sphere, d <= 3, and X is
    either S itself or a ball with S = X u w * bd(X), w = S's last vertex.
    X[A] = S[A] for every A that avoids w.  For A nonempty and proper in
    V(S), Alexander duality gives reduced beta_d(X[A]) = 0 and
    beta_{d-1}(X[A]) = beta_0(S[V(S) - A]); for d = 3, beta_1 follows from
    the reduced Euler characteristic of X[A], whose sum over the j-subsets
    is sum_t (-1)^t f_t(X) C(m-t-1, j-t-1) - C(m, j).  So the table needs
    the sums of reduced beta_0(S[B]) over the k-subsets B, tallied apart
    for the B that avoid w (beta_0 of X[B]) and the B that contain it
    (complements): ``_component_tallies`` of S's 1-skeleton, less one per
    subset."""
    m, n, d = X.m, S.m, X.dim
    adj = [0] * n
    for e in S.faces_of_dim(1):
        lo = e & -e
        adj[lo.bit_length() - 1] |= e ^ lo
        adj[(e ^ lo).bit_length() - 1] |= lo
    avoid, contain = _component_tallies(adj)
    # one component less per nonempty subset; with_w[n], for V(S), is unused
    without = [0] + [avoid[k] - comb(n - 1, k) for k in range(1, n + 1)]
    with_w = [0] + [contain[k] - comb(n - 1, k - 1) for k in range(1, n + 1)]
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


def _chunk_sums(args) -> list[list[int]]:
    """The table's share of the classes (least mask, size) of ``_class_sums``:
    one homology run per class, weighted by its size."""
    faces_by_dim, m, dim, field, classes = args
    sums = [[0] * (m + 1) for _ in range(dim + 1)]
    for amask, size in classes:
        nota = ~amask
        j = amask.bit_count()
        for i, v in enumerate(reduced_betti_of_faces(
                [[f for f in lst if not f & nota] for lst in faces_by_dim],
                field)):
            if v:
                sums[i][j] += v * size
    return sums


def _class_sums(X: Complex, field: FieldSpec, gens: list[list[int]],
                jobs: int) -> list[list[int]]:
    """The table from one homology run per class {g(A) : g in G} of
    vertex subsets, at its least mask and weighted by its size, where G is
    generated by ``gens``, automorphisms of X as vertex maps.  A class is
    closed from its least mask under the generators' ``_byte_tables``, as
    the orbits of a finite group are.  With no generators this is the
    subset loop.  From LARGE_LOOP classes up, the runs are split over
    ``jobs`` processes."""
    m, dim = X.m, X.dim
    tables = [_byte_tables([1 << w for w in g]) for g in gens]
    seen = bytearray(1 << m)
    classes = []
    for amask in range(1 << m):
        if seen[amask]:
            continue
        seen[amask] = 1
        orbit = [amask]
        for a in orbit:
            for g_tables in tables:
                image, s = 0, a
                for table in g_tables:
                    image |= table[s & 255]
                    s >>= 8
                if not seen[image]:
                    seen[image] = 1
                    orbit.append(image)
        classes.append((amask, len(orbit)))
    if len(classes) < LARGE_LOOP:
        jobs = 1
    step = -(-len(classes) // (4 * jobs))
    faces_by_dim = _faces_by_dim(X)
    partials = _map_jobs(_chunk_sums, [
        (faces_by_dim, m, dim, field, classes[lo:lo + step])
        for lo in range(0, len(classes), step)], jobs)
    return [[sum(col) for col in zip(*rows)] for rows in zip(*partials)]


def _subset_sums(X: Complex, field: FieldSpec, jobs: int = 1) -> list[list[int]]:
    """sums[i][j] = sum of reduced beta_i(X[A]) over the j-subsets A, from
    the first of four paths whose hypothesis holds: cone apex, Alexander
    duality for an F-homology sphere of dimension <= 3, the same duality
    for a ball whose closure ``_ball_closure`` is such a sphere, or
    ``_class_sums`` under the generators of Aut(X) that
    ``_automorphism_generators`` finds."""
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
    return _class_sums(X, field, _automorphism_generators(X), jobs)


def sigma_vector(X: Complex, field: FieldSpec, cap: int | None = SIGMA_CAP,
                 jobs: int = 1) -> tuple[Fraction, ...]:
    """sigma_i = sum_j C(m,j)^-1 sum_{|A|=j} reduced beta_i(X[A]), the
    average running over all vertex subsets including the empty one.

    The sums come from ``_subset_sums``: the cone-apex path when some
    vertex lies in every facet, the duality path when X passes
    ``is_homology_sphere`` in dimension <= 3, the ball path when X's
    ``_ball_closure`` does, else the class path: one homology run per
    class of subsets under Aut(X), whose generators
    ``_automorphism_generators`` finds, or per subset when the group is
    trivial, with ``jobs`` processes once there are at least 2^12
    classes.  The cap applies to m whichever path runs.

    ``jobs`` below 1 is a RangeError, and above the CPU count is cut to
    it.  With ``jobs`` > 1 the work goes to a ``multiprocessing`` pool
    with the platform's default start method.  Under ``spawn`` (macOS,
    Windows) or ``forkserver`` (Linux from Python 3.14) each worker
    re-imports the calling script, so a script that passes jobs > 1 must
    make the call under ``if __name__ == "__main__":``."""
    jobs = _worker_count(jobs)
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


def mu_vector(X: Complex, field: FieldSpec, cap: int | None = SIGMA_CAP,
              jobs: int = 1) -> tuple[Fraction, ...]:
    """mu_0 = 1; mu_i = [i==1] + (1/m) sum_x sigma_{i-1}(link of x).

    Isomorphic links have one sigma.  Each link is compared with the links
    that got a sigma of their own before it, and takes the sigma of the
    first one that ``core._classes`` matches it with; a link that matches
    none gets its own sigma.  ``jobs`` is passed to each sigma.

    With ``jobs`` > 1 the work goes to a ``multiprocessing`` pool
    with the platform's default start method.  Under ``spawn`` (macOS,
    Windows) or ``forkserver`` (Linux from Python 3.14) each worker
    re-imports the calling script, so a script that passes jobs > 1 must
    make the call under ``if __name__ == "__main__":``."""
    d = X.dim
    mu = [Fraction(1)] + [Fraction(0)] * d
    if d >= 1:
        mu[1] = Fraction(1)
    links = [_rebuild(X.names, lk) for lk in _vertex_links(X)]
    sigmas: dict[int, tuple[Fraction, ...]] = {}
    for r, _ in _classes(links):
        if r not in sigmas:
            sigmas[r] = sigma_vector(links[r], field, cap, jobs)
        sig = sigmas[r]
        for i in range(1, d + 1):
            if i - 1 < len(sig):
                mu[i] += Fraction(sig[i - 1], X.m)
    return tuple(mu)


def mu_via_pairs(X: Complex, field: FieldSpec,
                 cap: int | None = SIGMA_CAP) -> tuple[Fraction, ...]:
    """The covering-pair form of the mu-vector, valid for 2-neighbourly
    complexes: an average of relative Betti numbers beta_i(X[B], X[B-x])
    over all pairs B, x in B, each the reduced Betti numbers of the cone
    of X[B] over X[B-x] (``homology._cone``).  The formula is independent
    of mu_vector's links and sigmas; the rank kernel, ``_boundary_ranks``,
    is the one both use."""
    if neighbourliness(X) < 2:
        raise ComplexError("mu_via_pairs needs a 2-neighbourly complex")
    m, d = X.m, X.dim
    if cap is not None and m > cap:
        raise BudgetError(f"pair enumeration on {m} vertices exceeds cap {cap}")
    faces_by_dim, w = _faces_by_dim(X), 1 << m
    sums = [[0] * (m + 1) for _ in range(d + 1)]  # over |B| = j
    for bmask in range(1, 1 << m):
        j = bmask.bit_count()
        notb = ~bmask
        K = [[f for f in fs if not f & notb] for fs in faces_by_dim]
        for x in bits(bmask):
            L = [[f for f in fs if not f >> x & 1] for fs in K]
            rel = reduced_betti_of_faces(_cone(K, L, w), field)
            for i in range(d + 1):
                sums[i][j] += rel[i]
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

    def to_json_dict(self) -> dict:
        return {
            "field": str(self.field),
            "sigma": [str(s) for s in self.sigma],
            "mu": [str(v) for v in self.mu],
            "beta": list(self.beta.beta),
            "slack": [str(s) for s in self.morse_slack],
            "verdict": self.verdict,
            "witnesses": [],  # kept so that the report keeps its keys
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def morse_report(X: Complex, field: FieldSpec, cap: int | None = SIGMA_CAP,
                 jobs: int = 1) -> MuReport:
    """Strong/weak Morse-inequality report.  The inequalities are only
    guaranteed for 2-neighbourly complexes and a point; other inputs get
    the verdict "not-applicable" with the numbers still computed."""
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
    if is_closed_pseudomanifold(X) and bt.beta[d] == 1:  # orientable
        duality = all(mu[d - j] == mu[j] for j in range(d + 1))
    verdict = _p18(_complete_edges(X), lambda: mu, bt.beta)
    return MuReport(field, sig, mu, bt, tuple(slack), weak_ok, duality, verdict)


def _complete_edges(X: Complex) -> bool:
    """P18's hypothesis: X has a vertex and an edge on every two vertices,
    so its 1-skeleton is complete, hence connected.  That is
    2-neighbourliness, or a point, whose ``neighbourliness`` is capped
    at 1."""
    return X.m >= 1 and X.n_faces(1) == comb(X.m, 2)


def _p18(complete: bool, mu, beta: tuple[int, ...]) -> str:
    """P18: "not-applicable" unless ``complete`` (``_complete_edges``);
    else "tight" iff mu = beta, where ``mu()`` gives mu and is called only
    in that case."""
    if not complete:
        return "not-applicable"
    return "tight" if list(mu()) == list(map(Fraction, beta)) else "not-tight"


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
    2-neighbourly complexes and a point (``_complete_edges``).
    """
    if mode == "direct":
        if cap is None:
            cap = DIRECT_CAP
        if X.m > cap:
            raise BudgetError(f"direct tightness on {X.m} vertices exceeds cap {cap}")
        if not is_connected(X):
            return TightnessResult(False, mode, ((), 0))
        if X.dim < 0:
            return TightnessResult(True, mode)
        fbd = _faces_by_dim(X)
        reduced = reduced_betti_of_faces(fbd, field)
        for amask in range(1 << X.m):
            defects = _exactness_defects(fbd, reduced, amask, 1 << X.m, field)
            for j, s in enumerate(defects):
                if s:  # the first nonzero s_j is k_j, as k_{j-1} = 0
                    return TightnessResult(False, mode,
                                           (tuple(X.name_of(v) for v in bits(amask)), j))
        return TightnessResult(True, mode)
    if mode == "p18":
        complete = _complete_edges(X)
        if not complete:
            return TightnessResult(False, mode)
        mu = mu_vector(X, field, SIGMA_CAP if cap is None else cap, jobs)
        beta = betti(X, field).beta
        return TightnessResult(_p18(complete, lambda: mu, beta) == "tight", mode,
                               None, mu, beta)
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
    if k < 0:
        raise RangeError(f"k={k} must be at least 0")
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
    if k < 0:
        raise RangeError(f"k={k} must be at least 0")
    lines: list[CheckLine] = []
    d = M.dim
    n = M.m
    f = f_vector(M)
    g = g_vector(M)
    nb = neighbourliness(M)
    complete = _complete_edges(M)
    closed = is_closed_pseudomanifold(M)
    beta_f = betti(M, field).beta
    orient = beta_f[d] == 1 if closed else None  # homology.orientable
    get_mu = lru_cache(maxsize=None)(lambda: mu_vector(M, field, cap, jobs))

    def tight() -> bool:
        # is_tight(M, field, "p18"), with the battery's own mu and beta
        return _p18(complete, get_mu, beta_f) == "tight"

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
        rhs = complete and bool(orient)
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
