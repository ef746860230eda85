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
   X[A] and X[g(A)] are isomorphic.  G is the automorphism group of X
   when there are at least 2^12 subsets, X is a pure, strongly connected
   weak pseudomanifold, and a search of at most 8 * 2^m steps finds it
   (``_isomorphisms`` from X to itself); otherwise G holds the identity
   alone and this is the subset loop, one run per subset.  From 2^12
   classes up, the runs are split over ``jobs`` processes.  The tests
   compare every path with a plain subset loop of their own.

The mu-vector computes one sigma per isomorphism class of links that the
same search tells apart: a link shares the sigma of an earlier link when
``_isomorphisms`` finds a map between them within 8 * 2^m steps, and any
other link gets its own.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import and_

from .core import Complex, ComplexError, DualGraph, _isomorphisms, \
    _map_jobs, _ridge_facets, bits, ids_of, is_closed_pseudomanifold, \
    is_connected, link, neighbourliness, popcount
from .exactlinalg import rank
from .homology import BettiTable, FieldSpec, _boundary_col_signed, \
    _faces_by_dim, _inclusion_test, betti, is_homology_sphere, orientable, \
    reduced_betti_of_faces
from .vectors import f_vector, g_vector

SIGMA_CAP = 16
DIRECT_CAP = 12
LARGE_LOOP = 1 << 12  # subsets to seek a group from; classes to split runs from
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
                field, dim)):
            if v:
                sums[i][j] += v * size
    return sums


def _class_sums(X: Complex, field: FieldSpec, group: list[tuple[int, ...]],
                jobs: int) -> list[list[int]]:
    """The table from one homology run per class {g(A) : g in group} of
    vertex subsets, at its least mask and weighted by its size, for a
    group of automorphisms of X given as vertex permutations.  The
    identity maps A to A and gets no byte table; under it alone this is
    the subset loop.  From LARGE_LOOP classes up, the runs are split
    over ``jobs`` processes."""
    m, dim = X.m, X.dim
    identity = tuple(range(m))
    tables = [_byte_tables([1 << w for w in perm])
              for perm in group if perm != identity]
    seen = bytearray(1 << m)
    classes = []
    for amask in range(1 << m):
        if seen[amask]:
            continue
        orbit = {amask}
        for perm_tables in tables:
            image, s = 0, amask
            for table in perm_tables:
                image |= table[s & 255]
                s >>= 8
            orbit.add(image)
        for image in orbit:
            seen[image] = 1
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
    ``_class_sums`` under the automorphism group that ``_isomorphisms``
    finds within 8 * 2^m steps when there are at least LARGE_LOOP
    subsets, and under the identity alone otherwise."""
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
    group = None
    if 1 << X.m >= LARGE_LOOP:
        # a step of the search costs well under a hundredth of a
        # homology run, so a spent budget adds a few per cent to the loop
        group = _isomorphisms(X, X, 8 << X.m)
    return _class_sums(X, field, group or [tuple(range(X.m))], jobs)


def sigma_vector(X: Complex, field: FieldSpec, cap: int | None = SIGMA_CAP,
                 jobs: int = 1) -> tuple[Fraction, ...]:
    """sigma_i = sum_j C(m,j)^-1 sum_{|A|=j} reduced beta_i(X[A]), the
    average running over all vertex subsets including the empty one.

    The sums come from ``_subset_sums``: the cone-apex path when some
    vertex lies in every facet, the duality path when X passes
    ``is_homology_sphere`` in dimension <= 3, the ball path when X's
    ``_ball_closure`` does, else the class path: one homology run per
    class of subsets under the group of X that ``_isomorphisms`` finds
    within a budget of 8 * 2^m steps when there are at least 2^12 subsets,
    or per subset when it finds none, with ``jobs`` processes once there
    are at least 2^12 classes.  The cap applies to m whichever path runs.

    With ``jobs`` > 1 the work goes to a ``multiprocessing`` pool
    with the platform's default start method.  Under ``spawn`` (macOS,
    Windows) or ``forkserver`` (Linux from Python 3.14) each worker
    re-imports the calling script, so a script that passes jobs > 1 must
    make the call under ``if __name__ == "__main__":``."""
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
    first one that ``_isomorphisms`` maps it onto within the class path's
    budget of 8 * 2^m steps (m = the link's vertex count); what the search
    needs of each link is worked out once, as its ``DualGraph``.  A link that
    matches none, or is not a pure, strongly connected weak
    pseudomanifold, gets its own sigma.  ``jobs`` is passed to each sigma.

    With ``jobs`` > 1 the work goes to a ``multiprocessing`` pool
    with the platform's default start method.  Under ``spawn`` (macOS,
    Windows) or ``forkserver`` (Linux from Python 3.14) each worker
    re-imports the calling script, so a script that passes jobs > 1 must
    make the call under ``if __name__ == "__main__":``."""
    d = X.dim
    mu = [Fraction(1)] + [Fraction(0)] * d
    if d >= 1:
        mu[1] = Fraction(1)
    known: list[tuple[DualGraph, tuple[Fraction, ...]]] = []
    for v in range(X.m):
        lk = link(X, (v,))
        walked = DualGraph(lk)
        sig = next((s for rep, s in known
                    if _isomorphisms(walked, rep, 8 << lk.m, first=True)), None)
        if sig is None:
            sig = sigma_vector(lk, field, cap, jobs)
            known.append((walked, sig))
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
                # rows without x lie in X[B - x] and are dropped
                cols = [{r: v for r, v in _boundary_col_signed(f).items()
                         if r & xbit} for f in per_dim[i]]
                ranks[i] = rank(cols, field)
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
        tests = [_inclusion_test(X, j, field) for j in range(X.dim + 1)]
        for amask in range(1 << X.m):
            for j, injective in enumerate(tests):
                if not injective(amask):
                    return TightnessResult(False, mode,
                                           (tuple(X.name_of(v) for v in bits(amask)), j))
        return TightnessResult(True, mode)
    if mode == "p18":
        if cap is None:
            cap = SIGMA_CAP
        # 2-neighbourly makes the 1-skeleton complete, hence connected
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
        if nb < 2:
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
