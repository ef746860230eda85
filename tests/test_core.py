"""Core complex representation and elementary constructions."""
import os
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stellar import core
from stellar.core import (Complex, InputError, NotAFaceError, RangeError,
                          StructureError, _classes, _dominated, _map_jobs,
                          _maximal, _invariant, _rebuild, _ridge_facets,
                          _vertex_links, _worker_count,
                          antistar, are_isomorphic, bits, boundary,
                          connected_sum, dual_graph, facet_hash, format_facets,
                          induced, is_closed_pseudomanifold, is_pseudomanifold,
                          is_weak_pseudomanifold, ids_of, join,
                          link, load_facets, mask_of, neighbourliness,
                          parse_facets, save_facets, skeleton, star, submasks)
from stellar.constructions import (corpus, cross_polytope, klee_novik,
                                   random_stacked_ball, random_stacked_sphere,
                                   standard_ball, standard_sphere)
from stellar.moves import _closure_complex, apply_bistellar, enumerate_bistellar
from stellar.vectors import f_vector


def mask(X, names):
    return [X.id_of(n) for n in names]


def test_from_facets_basic():
    X = Complex.from_facets([[1, 2], [2, 3], [3, 1]])
    assert X.dim == 1 and X.m == 3
    assert f_vector(X) == (3, 3)


def test_from_facets_sigma316(corp):
    X = corp["Sigma3_16"].complex
    assert X.m == 16 and X.dim == 3 and len(X.facets) == 90


def test_from_facets_drops_dominated():
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        X = Complex.from_facets([[1, 2, 3], [1, 2]])
    assert len(X.facets) == 1 and X.dim == 2
    assert any("dominated" in str(x.message) for x in w)


def test_empty_facet_beside_others_rejected():
    with pytest.raises(InputError, match=r"facet \(\) is contained"):
        Complex(["a"], [(), (0,)])


def test_from_facets_duplicate_vertex_rejected():
    with pytest.raises(InputError):
        Complex.from_facets([[1, 1, 2]])


def test_skeleton():
    s24 = standard_sphere(2)
    g = skeleton(s24, 1)
    assert f_vector(g) == (4, 6)  # K4
    assert skeleton(s24, s24.dim) == s24


def test_skeleton_s316_is_k16(corp):
    sk = skeleton(corp["S3_16"].complex, 1)
    assert f_vector(sk) == (16, 120)  # complete graph


def test_skeleton_range_error():
    with pytest.raises(Exception):
        skeleton(standard_sphere(2), 5)


def test_link_star_antistar():
    s24 = standard_sphere(2)
    lk = link(s24, mask(s24, ["1"]))
    assert lk.dim == 1 and lk.m == 3 and len(lk.facets) == 3
    ast = antistar(s24, s24.id_of("1"))
    assert ast.facets_as_names() == [("2", "3", "4")]
    with pytest.raises(NotAFaceError):
        link(standard_sphere(1), mask(standard_sphere(1), ["1", "2", "3"]))


def test_link_of_facet_is_empty_complex():
    s = standard_sphere(1)
    lk = link(s, mask(s, ["1", "2"]))
    assert lk.dim == -1 and lk == Complex.empty()


def _face_names(X):
    out = set()
    for t in range(X.dim + 1):
        for f in X.faces_of_dim(t):
            out.add(frozenset(X.names_of_mask(f)))
    return out


def test_star_antistar_partition(corp):
    # star(x) = x * link(x); X = star(x) + antistar(x), meeting in link(x)
    for name in corp:
        X = corp[name].complex
        for v in range(X.m):
            st = star(X, (v,))
            lk = link(X, (v,))
            cone = join(Complex.from_facets([("&apex",)]), lk)
            ren = Complex.from_facets(
                [tuple(X.name_of(v) if n == "&apex" else n for n in f)
                 for f in cone.facets_as_names()])
            assert ren == st
            ast = antistar(X, v)
            sf, af = _face_names(st), _face_names(ast)
            assert sf | af == _face_names(X)
            assert sf & af == _face_names(lk)


def test_star_reads_facets_not_the_face_index(corp):
    """star filters the facets, as link does, and never builds the face
    index; a non-face is refused by name."""
    tor = corp["torus_7"].complex
    X = Complex.from_facets(tor.facets_as_names())
    assert X._faces_by_dim is None
    for face in (["0"], ["0", "1"], list(X.facets_as_names()[0]), []):
        want = {f for f in X.facet_name_set() if f >= set(face)}
        assert star(X, mask(X, face)).facet_name_set() == want
    assert len(star(X, mask(X, ["0"])).facets) == 6
    with pytest.raises(NotAFaceError, match=r"\('0', '1', '2'\) is not a face"):
        star(X, mask(X, ["0", "1", "2"]))
    assert X._faces_by_dim is None


def test_induced():
    c4 = Complex.from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    two_points = induced(c4, mask(c4, ["1", "3"]))
    assert two_points.dim == 0 and two_points.m == 2
    assert induced(c4, range(c4.m)) == c4
    # ids outside V(X) are ignored
    assert induced(c4, [0, 99]) == induced(c4, [0])


def test_induced_cross_polytope_missing_diagonal():
    x = cross_polytope(3)
    pair = induced(x, mask(x, ["x1", "y1"]))
    assert pair.dim == 0 and pair.m == 2


def test_join():
    s0 = standard_sphere(0)
    s0b = Complex.from_facets([["a"], ["b"]])
    c4 = join(s0, s0b)
    assert c4.dim == 1 and f_vector(c4) == (4, 4)
    with pytest.raises(InputError):
        join(s0, s0)


def test_join_of_zero_spheres_is_cross_polytope():
    d = 2
    parts = [Complex.from_facets([[f"x{i}"], [f"y{i}"]]) for i in range(1, d + 2)]
    X = parts[0]
    for p in parts[1:]:
        X = join(X, p)
    assert are_isomorphic(X, cross_polytope(d))


def test_join_cone_euler():
    tor = corpus()["torus_7"].complex
    cone = join(tor, Complex.from_facets([["pt"]]))
    f = f_vector(cone)
    assert sum((-1) ** i * fi for i, fi in enumerate(f)) == 1


def test_join_associative_up_to_isomorphism():
    a = Complex.from_facets([["a1", "a2"]])
    b = Complex.from_facets([["b1"], ["b2"]])
    c = Complex.from_facets([["c1", "c2", "c3"]])
    left = join(join(a, b), c)
    right = join(a, join(b, c))
    assert are_isomorphic(left, right)


def test_boundary():
    for d in (1, 2, 3, 4):
        assert boundary(standard_ball(d)) == standard_sphere(d - 1)
    assert boundary(standard_ball(0)) == Complex.empty()  # S^{-1}
    assert boundary(standard_sphere(2)) == Complex.empty()
    with pytest.raises(StructureError):
        boundary(Complex.from_facets([[1, 2], [2, 3], [2, 4], [2, 5]]))


def test_boundary_of_boundary_empty_on_corpus_balls(corp):
    for name in ("ziegler_B1", "ziegler_B2", "lutz_B1", "lutz_B2", "B4_16"):
        assert boundary(boundary(corp[name].complex)) == Complex.empty()


def test_dual_graph(corp):
    dg = dual_graph(standard_sphere(2))
    assert dg.n == 4 and len(dg.edges) == 6  # K4
    assert dual_graph(corp["ziegler_B1"].complex).is_path()
    two = Complex.from_facets([[1, 2, 3], [4, 5, 6]])
    assert not is_pseudomanifold(two)
    assert is_weak_pseudomanifold(two)


def test_dual_graph_edge_count_is_interior_ridges(corp):
    for name in ("lutz_B2", "ziegler_B2", "S3_16", "torus_7"):
        X = corp[name].complex
        dg = dual_graph(X)
        d = X.dim
        interior = X.n_faces(d - 1) - len(boundary(X).facet_masks) \
            if boundary(X) != Complex.empty() else X.n_faces(d - 1)
        assert len(dg.edges) == interior


def test_neighbourliness(corp):
    assert neighbourliness(corp["S3_16"].complex) == 2
    for d in (1, 2, 3, 4):
        assert neighbourliness(standard_sphere(d)) == d + 1
    c4 = Complex.from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    assert neighbourliness(c4) == 1


def test_connected_sum_spheres():
    a = standard_sphere(2)
    b = Complex.from_facets([["p", "q", "r"], ["p", "q", "s"],
                             ["p", "r", "s"], ["q", "r", "s"]])
    glued = connected_sum(a, b, mask(a, ["1", "2", "3"]),
                          [b.id_of(v) for v in "pqr"],
                          {"p": "1", "q": "2", "r": "3"})
    assert f_vector(glued) == (5, 9, 6)
    assert boundary(glued) == Complex.empty()


def test_connected_sum_errors():
    a = standard_sphere(2)
    b = standard_sphere(1)
    with pytest.raises(InputError):
        connected_sum(a, b, mask(a, ["1", "2", "3"]), [0, 1], {"1": "1", "2": "2"})


def test_facet_file_round_trip(tmp_path, corp):
    X = corp["Sigma3_16"].complex
    p = tmp_path / "sigma.fct"
    p.write_text(format_facets(X), encoding="utf-8")
    Y = parse_facets(p.read_text(encoding="utf-8"))
    assert Y == X
    # second save is byte-identical
    assert format_facets(Y) == format_facets(X)


NAME_TOKENS = st.text(st.characters(blacklist_categories=("Cs", "Z", "Cc"),
                                    blacklist_characters="#"),
                      min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_save_load_round_trip(tmp_path_factory, data):
    d = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 10 ** 6))
    if data.draw(st.booleans()):
        X = random_stacked_sphere(d, data.draw(st.integers(d + 2, 12)), seed=seed)
    else:
        X = random_stacked_ball(d, data.draw(st.integers(1, 12)), seed=seed)
    names = data.draw(st.lists(NAME_TOKENS, min_size=X.m, max_size=X.m,
                               unique=True))
    X = Complex.from_facets([[names[v] for v in f] for f in X.facets])
    path = tmp_path_factory.mktemp("facets") / "x.txt"
    save_facets(X, path, header=data.draw(st.sampled_from((None, "h\ni"))))
    Y = load_facets(path)
    assert Y == X and facet_hash(Y) == facet_hash(X)
    assert format_facets(Y) == format_facets(X)


def test_facet_file_comments_and_tokens():
    X = parse_facets("# header\nx3 6' b  # trailing\n\nx3 a\n")
    assert X.m == 4 and X.dim == 2 and len(X.facets) == 2


def test_facet_hash_order_insensitive():
    a = Complex.from_facets([[1, 2, 3], [2, 3, 4]])
    b = Complex.from_facets([[4, 3, 2], [3, 2, 1]])
    assert facet_hash(a) == facet_hash(b)


def test_face_index_matches_direct_scan(corp):
    # oracle equivalence on a small complex: membership via subset scan
    X = corp["torus_7"].complex
    from itertools import combinations as comb
    for r in range(1, X.dim + 2):
        for sub in comb(range(X.m), r):
            direct = any(set(sub) <= set(f) for f in X.facets)
            assert X.has_face(sub) == direct


def test_isomorphism():
    a = Complex.from_facets([[1, 2], [2, 3], [3, 4], [4, 1]])
    b = Complex.from_facets([["w", "x"], ["x", "y"], ["y", "z"], ["z", "w"]])
    path = Complex.from_facets([[1, 2], [2, 3], [3, 4]])
    assert are_isomorphic(a, b)
    assert not are_isomorphic(a, path)
    (r0, i0), (r1, i1), (r2, i2) = _classes([a, path, b])
    assert (r0, i0, r1, i1, r2) == (0, [0, 1, 2, 3], 1, [0, 1, 2, 3], 0)
    assert {mask_of(i2[v] for v in f) for f in a.facets} == set(b.facet_masks)


def classes_reference(complexes):
    """``_classes`` as it compared each complex with every representative
    before it, whatever its ``_invariant``."""
    reps, out = [], []
    for i, Y in enumerate(complexes):
        for r in reps:
            image = core._isomorphism(complexes[r], Y)
            if image is not None:
                out.append((r, image))
                break
        else:
            reps.append(i)
            out.append((i, list(range(Y.m))))
    return out


@pytest.mark.parametrize("d,n,seed", [(2, 12, 0), (3, 20, 1), (4, 14, 2)])
def test_classes_compare_only_equal_invariants(monkeypatch, d, n, seed):
    X = random_stacked_sphere(d, n, seed=seed)
    links = [link(X, (v,)) for v in range(X.m)]
    want = classes_reference(links)
    compared = []
    real = core._isomorphism

    def spy(A, B, fixed=()):
        compared.append((A, B))
        return real(A, B, fixed)

    monkeypatch.setattr(core, "_isomorphism", spy)
    assert _classes(links) == want
    assert compared and all(_invariant(A) == _invariant(B) for A, B in compared)


def test_worker_count_refuses_below_one_and_caps_at_cpu_count(monkeypatch):
    for jobs in (0, -1):
        with pytest.raises(RangeError, match=f"jobs must be at least 1, got {jobs}"):
            _worker_count(jobs)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert [_worker_count(j) for j in (1, 2, 3, 64)] == [1, 2, 2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker
    assert _worker_count(5) == 1


def test_map_jobs_starts_one_worker_per_task_at_most(pool_sizes):
    assert _map_jobs(abs, [-1], 3) == [1]
    assert _map_jobs(abs, [], 3) == []
    assert pool_sizes == []
    assert _map_jobs(abs, [-1, -2], 3) == [1, 2]
    assert pool_sizes == [2]


def dominated_reference(masks):
    """The quadratic inclusion scan that ``_dominated`` replaces."""
    return [i for i, a in enumerate(masks)
            if any(a != b and a & b == a for b in masks)]


@st.composite
def facet_lists(draw):
    """Vertex lists of mixed or, sometimes, equal sizes, with duplicates
    and contained entries inserted, in shuffled vertex order."""
    size = draw(st.one_of(st.none(), st.integers(1, 4)))
    lo, hi = (1, 5) if size is None else (size, size)
    entry = st.lists(st.integers(0, 9), min_size=lo, max_size=hi, unique=True)
    entries = draw(st.lists(entry, min_size=1, max_size=20))
    for _ in range(draw(st.integers(0, 6))):
        src = draw(st.sampled_from(entries))
        low = 1 if size is None else len(src)
        sub = draw(st.lists(st.sampled_from(src), min_size=low,
                            max_size=len(src), unique=True))
        entries.insert(draw(st.integers(0, len(entries))), sub)
    return entries


@settings(max_examples=200, deadline=None)
@given(facet_lists())
def test_antichain_check_matches_quadratic_reference(entries):
    masks = [mask_of(f) for f in entries]
    bad = dominated_reference(masks)
    assert _dominated(masks) == bad
    # from_facets: first occurrences of the undominated entries survive
    kept = [entries[i] for i, a in enumerate(masks)
            if i not in bad and a not in masks[:i]]
    order = list(dict.fromkeys(str(v) for f in entries for v in f))
    used = {str(v) for f in kept for v in f}
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        X = Complex.from_facets(entries)
    dropped = len(entries) - len(kept)
    assert [str(x.message) for x in w] == (
        [f"dropped {dropped} inclusion-dominated input facet(s)"] if dropped else [])
    assert X.names == tuple(n for n in order if n in used)
    assert X.facet_name_set() == {frozenset(str(v) for v in f) for f in kept}
    # Complex(): the first offending facet in sorted order is reported
    ids = {v: i for i, v in enumerate(sorted({v for f in entries for v in f}))}
    norm = sorted({tuple(sorted(ids[v] for v in f)) for f in entries})
    first = dominated_reference([mask_of(f) for f in norm])
    if first:
        with pytest.raises(InputError, match=re.escape(
                f"facet {norm[first[0]]} is contained in another facet")):
            Complex([str(v) for v in ids], norm)
    else:
        assert Complex([str(v) for v in ids], norm).facets == tuple(norm)


def loop_from_facets(facet_list):
    """``Complex.from_facets`` with its own loops for the first-occurrence
    ids and the compaction of unused names: the oracle of the version
    built on ``_renumbered`` and ``_rebuild``."""
    if not facet_list:
        raise InputError("empty facet list")
    name_ids = {}
    raw = []
    for entry in facet_list:
        toks = [str(t) for t in entry]
        if not toks:
            raise InputError("empty facet in input")
        if len(set(toks)) != len(toks):
            raise InputError(f"duplicate vertex within facet {toks}")
        raw.append(tuple(sorted([name_ids.setdefault(t, len(name_ids))
                                 for t in toks])))
    masks = [mask_of(f) for f in raw]
    dominated = set(_dominated(masks))
    seen = set()
    keep = []
    dropped = 0
    for i, a in enumerate(masks):
        if i in dominated or a in seen:
            dropped += 1
        else:
            keep.append(raw[i])
        seen.add(a)
    if dropped:
        warnings.warn(f"dropped {dropped} inclusion-dominated input facet(s)")
    names = list(name_ids)
    used = set().union(*keep)
    if len(used) != len(names):
        remap = {}
        new_names = []
        for i, n in enumerate(names):
            if i in used:
                remap[i] = len(new_names)
                new_names.append(n)
        keep = [tuple(sorted(remap[v] for v in f)) for f in keep]
        names = new_names
    return Complex(names, keep)


@st.composite
def token_lists(draw):
    """``facet_lists`` spelt with int and str tokens (1 and "1" name one
    vertex), some vertices renamed to letters, and now and then an empty
    entry, a vertex repeated within an entry or no entry at all."""
    letters = draw(st.lists(st.booleans(), min_size=10, max_size=10))
    entries = [[("abcdefghij"[v] if letters[v] else
                 draw(st.sampled_from([v, str(v)]))) for v in f]
               for f in draw(facet_lists())]
    flaw = draw(st.sampled_from(["none", "none", "none", "empty", "repeat", "all"]))
    at = draw(st.integers(0, len(entries) - 1))
    if flaw == "empty":
        entries.insert(at, [])
    elif flaw == "repeat":
        entries[at].append(str(entries[at][0]))
    elif flaw == "all":
        entries = []
    return entries


def from_facets_outcome(build, entries):
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        try:
            X = build(entries)
        except InputError as exc:
            return "InputError", str(exc), [str(x.message) for x in w]
    return X.names, X.facets, [str(x.message) for x in w]


@settings(max_examples=150, deadline=None)
@given(token_lists())
def test_from_facets_matches_loop_reference(entries):
    assert from_facets_outcome(Complex.from_facets, entries) == \
        from_facets_outcome(loop_from_facets, entries)


def maximal_reference(masks):
    """The quadratic filter that ``core._maximal`` replaces: the distinct
    masks contained in no other mask."""
    ms = set(masks)
    return {a for a in ms if not any(a != b and a & b == a for b in ms)}


@settings(max_examples=100, deadline=None)
@given(facet_lists(), st.data())
def test_maximal_face_constructions_match_quadratic_filter(entries, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        X = Complex.from_facets(entries)  # pure or not

    def names(masks):
        return {frozenset(X.names_of_mask(a)) for a in maximal_reference(masks)}

    x = data.draw(st.integers(0, X.m - 1))
    assert antistar(X, x).facet_name_set() == names(
        f & ~(1 << x) for f in X.facet_masks)
    face = data.draw(st.sampled_from(sorted(X.faces_of_dim(0) | X.faces_of_dim(1))))
    assert link(X, bits(face)).facet_name_set() == names(
        f & ~face for f in X.facet_masks if f & face == face)
    amask = data.draw(st.integers(0, (1 << X.m) - 1))
    assert induced(X, bits(amask)).facet_name_set() == names(
        f & amask for f in X.facet_masks)
    t = data.draw(st.integers(0, X.dim))
    assert skeleton(X, t).facet_name_set() == names(
        s for u in range(t + 1) for s in X.faces_of_dim(u))
    depth = data.draw(st.integers(1, 3))
    cliques = [a for a in range(1 << X.m)
               if all(X.has_face(s) for s in submasks(a) if s.bit_count() <= depth)]
    assert _closure_complex(X, depth).facet_name_set() == names(cliques)


@settings(max_examples=200, deadline=None)
@given(facet_lists())
@example([[0], [1]])  # two points: each link is {∅}
@example([[3]])
@example([[0, 1], [4], [1, 2, 3]])  # non-pure, with an isolated vertex
def test_vertex_links_match_per_vertex_maximal_reference(entries):
    """``_vertex_links`` against the per-vertex construction that it
    replaced: the facets through v less v, filtered by ``_maximal``, as
    the same masks in the same order, and so the same complexes as
    ``link``.  The masks come in increasing id order, the order in which
    ``w_k_membership`` numbers a link."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        X = Complex.from_facets(entries)  # pure or not
    links = _vertex_links(X)
    assert len(links) == X.m
    for v, lk in enumerate(links):
        old = _maximal(f & ~(1 << v) for f in X.facet_masks if f >> v & 1)
        assert lk == old == sorted(lk, key=ids_of)
        got, want = _rebuild(X.names, lk), link(X, (v,))
        assert (got.names, got.facets) == (want.names, want.facets)
    assert _vertex_links(Complex.empty()) == []


def closure_reference(S, depth, limit=None):
    """The recursion that ``moves._closure_complex`` replaces: it extends
    each set by every later vertex with one ``has_face`` per subset, and
    fixes the ids that the stack listing must keep."""
    from itertools import combinations

    cliques: list[int] = []

    def extend(alpha: list[int], amask: int, start: int) -> bool:
        """Collect the cliques through alpha; True at a too large one."""
        cliques.append(amask)
        if len(alpha) == limit:
            return True
        for v in range(start, S.m):
            ok = True
            vm = 1 << v
            for r in range(min(depth - 1, len(alpha)) + 1):
                for sub in combinations(alpha, r):
                    if not S.has_face(mask_of(sub) | vm):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                alpha.append(v)
                if extend(alpha, amask | vm, v + 1):
                    return True
                alpha.pop()
        return False

    if extend([], 0, 0):
        return None
    return Complex.from_facets([S.names_of_mask(c) for c in _maximal(cliques)])


@st.composite
def walked_sphere_facets(draw):
    """The facets of a random stacked 2- or 3-sphere after up to three
    random bistellar moves."""
    d = draw(st.sampled_from((2, 3)))
    X = random_stacked_sphere(d, draw(st.integers(d + 2, 10)),
                              seed=draw(st.integers(0, 10 ** 6)))
    for _ in range(draw(st.integers(0, 3))):
        pool = enumerate_bistellar(X)
        if not pool:
            break
        X = apply_bistellar(X, draw(st.sampled_from(pool)))
    return X.facets_as_names()


def names_and_ids(X):
    return None if X is None else (X.names, X.facets)


@settings(max_examples=100, deadline=None)
@given(st.one_of(facet_lists(), walked_sphere_facets()), st.integers(1, 3),
       st.integers(1, 6))
@example(klee_novik(1, 4)[1].facets_as_names(), 3, 7)  # canonical M_1_4
def test_closure_limit_stops_only_at_a_set_that_large(entries, depth, limit):
    """With a vertex limit the closure is None exactly when its largest
    facet reaches the limit, and is otherwise the same complex; with or
    without a limit, it has the reference's names and ids."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        X = Complex.from_facets(entries)
    full = _closure_complex(X, depth)
    got = _closure_complex(X, depth, limit)
    if full.dim + 1 >= limit:
        assert got is None
    else:
        assert (got.names, got.facets) == (full.names, full.facets)
    assert names_and_ids(full) == names_and_ids(closure_reference(X, depth))
    assert names_and_ids(got) == names_and_ids(closure_reference(X, depth, limit))


def _two_spheres(X, Y, shared):
    """X and Y side by side, on disjoint names except ``shared`` of Y's
    ids, which are glued to X's ids of the same number."""
    def name(v):
        return f"x{v}" if v < shared else f"y{v}"
    return Complex.from_facets([[f"x{v}" for v in f] for f in X.facets]
                               + [[name(v) for v in f] for f in Y.facets])


@st.composite
def closed_or_not(draw):
    """Random non-pure and pure facet lists, stacked spheres and balls,
    spheres less a facet, two spheres apart or sharing vertices, and the
    complexes of dimension -1 and 0."""
    kind = draw(st.sampled_from(("facets", "sphere", "ball", "holed", "pair",
                                 "small")))
    if kind == "facets":
        return Complex.from_facets(draw(facet_lists()))
    if kind == "small":
        return draw(st.sampled_from((Complex.empty(), parse_facets("a"),
                                     parse_facets("a\nb"),
                                     parse_facets("a\nb\nc"))))
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10 ** 6))
    if kind == "ball":
        return random_stacked_ball(d, draw(st.integers(1, 8)), seed=seed)
    X = random_stacked_sphere(d, draw(st.integers(d + 2, 9)), seed=seed)
    if kind == "holed":
        return Complex.from_facets(X.facets[1:])
    if kind == "pair":
        Y = random_stacked_sphere(d, draw(st.integers(d + 2, 9)), seed=seed + 1)
        return _two_spheres(X, Y, draw(st.integers(0, d + 1)))
    return X


@pytest.mark.filterwarnings("ignore:dropped")
@settings(max_examples=300, deadline=None)
@given(closed_or_not())
def test_closed_pseudomanifold_matches_three_pass_reference(X):
    assert is_closed_pseudomanifold(X) == (
        is_pseudomanifold(X) and boundary(X) == Complex.empty())


def test_faces_of_dim_cannot_change_the_index():
    X = standard_sphere(2)
    f = f_vector(X)
    edges = X.faces_of_dim(1)
    missing = 1 | 1 << X.m  # an edge to a vertex X does not have
    with pytest.raises(AttributeError):
        edges.add(missing)
    with pytest.raises(AttributeError):
        edges.discard(next(iter(edges)))
    with pytest.raises(AttributeError):
        X.faces_of_dim(-1).clear()
    assert not X.has_face(missing)
    assert all(map(X.has_face, edges))
    assert f_vector(X) == f == (4, 6, 4)
    assert X.faces_of_dim(7) == frozenset()


def test_closed_pseudomanifold_cases(corp):
    assert is_closed_pseudomanifold(corp["S3_16"].complex)
    assert not is_closed_pseudomanifold(corp["lutz_B2"].complex)
    assert is_closed_pseudomanifold(parse_facets("a"))  # boundary {∅}
    assert is_closed_pseudomanifold(parse_facets("a\nb"))
    assert not is_closed_pseudomanifold(parse_facets("a\nb\nc"))
    two = _two_spheres(standard_sphere(2), standard_sphere(2), 0)
    assert not is_closed_pseudomanifold(two)  # closed, not connected


class EdgeListDualGraph:
    """The dual graph as an edge list with a depth-first search, as
    ``core.DualGraph`` was before it held the adjacency and the walk."""

    def __init__(self, n, edges):
        self.n = n
        self.edges = frozenset(tuple(sorted(e)) for e in edges)

    def is_connected(self):
        adj = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def is_tree(self):
        return len(self.edges) == self.n - 1 and self.is_connected()

    def is_path(self):
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return self.is_tree() and all(d <= 2 for d in deg)


def edge_list_dual_graph(X):
    """``dual_graph`` from the ridge map alone: the oracle of the shared
    adjacency and walk."""
    if not X.is_pure():
        raise StructureError("dual graph needs a pure complex")
    edges = []
    for owners in _ridge_facets(X.facet_masks).values():
        if len(owners) > 2:
            raise StructureError("not a weak pseudomanifold")
        if len(owners) == 2:
            edges.append(owners)
    return EdgeListDualGraph(len(X.facet_masks), edges)


def dual_graph_outcome(build, X):
    try:
        G = build(X)
    except StructureError as exc:
        return str(exc)
    return G.n, G.edges, G.is_connected(), G.is_tree(), G.is_path()


@st.composite
def dual_graph_inputs(draw):
    """The inputs of ``closed_or_not``, and stacked spheres and balls with
    one more facet on a ridge and a new vertex: a ridge on three facets
    when the ridge was inside."""
    X = draw(closed_or_not())
    if X.dim < 1 or not draw(st.booleans()):
        return X
    facet = draw(st.sampled_from(X.facets_as_names()))
    ridge = [n for n in facet if n != draw(st.sampled_from(facet))]
    return Complex.from_facets(X.facets_as_names() + [ridge + ["new"]])


@pytest.mark.filterwarnings("ignore:dropped")
@settings(max_examples=300, deadline=None)
@given(dual_graph_inputs())
def test_dual_graph_matches_edge_list_reference(X):
    expected = dual_graph_outcome(edge_list_dual_graph, X)
    assert dual_graph_outcome(dual_graph, X) == expected
    assert is_weak_pseudomanifold(X) == (not isinstance(expected, str))
    assert is_pseudomanifold(X) == (not isinstance(expected, str) and expected[2])


def test_dual_graph_matches_edge_list_reference_on_stacked_complexes():
    for d in (1, 2, 3):
        for seed in range(3):
            for X in (random_stacked_sphere(d, 30, seed=seed),
                      random_stacked_ball(d, 30, seed=seed)):
                assert dual_graph_outcome(dual_graph, X) == \
                    dual_graph_outcome(edge_list_dual_graph, X)
                assert is_pseudomanifold(X)
