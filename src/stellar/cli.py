"""Command-line front end.

Inputs are facet files or ``corpus:NAME`` pseudo-paths.  Exit codes:
0 success/verified, 1 property refuted, 2 budget exhausted, 3 input
error, 4 internal error (any other exception, so a crash never reads as
a verdict).  Reports are deterministic given identical inputs, flags and
seeds; every verb but ``corpus`` and ``verify-paper`` also takes
``--json PATH`` and writes a stable-ordered JSON report there.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import verify as verify_mod
from .constructions import CorpusError, corpus, corpus_complex, klee_novik
from .core import (Complex, ComplexError, InputError, _facet_lines,
                   _worker_count, facet_hash, load_facets, read_text, save_facets)
from .homology import FieldSpec, betti
from .moves import (HypothesisViolation, MoveError, canonical_ball,
                    canonical_manifold, ears, enumerate_bistellar,
                    find_shelling, is_1_stacked_via_tree, is_k_stacked_ball,
                    stellation_search, verify_shelling, w_k_membership)
from .tightness import (SIGMA_CAP, BudgetError, is_tight, morse_report,
                        sigma_vector)
from .vectors import (check_dehn_sommerville, check_klee, f_vector, g_vector,
                      h_vector)

OK, REFUTED, EXHAUSTED, BADINPUT, INTERNAL = 0, 1, 2, 3, 4


def _load(spec: str) -> Complex:
    if spec.startswith("corpus:"):
        return corpus_complex(spec.split(":", 1)[1])
    return load_facets(spec)


def _emit_json(args, payload: dict) -> None:
    if args.json:
        payload = {"verb": args.verb, "input": getattr(args, "input", None),
                   "seed": getattr(args, "seed", 0), **payload}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")


def _vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def cmd_vec(args, X, fld):
    name = args.verb[0]
    v = {"f": f_vector, "h": h_vector, "g": g_vector}[name](X)
    print(f"{name} = {_vec(v)}")
    _emit_json(args, {name: list(v)})
    return OK


def cmd_betti(args, X, fld):
    bt = betti(X, fld)
    print(f"betti({fld}) = {_vec(bt.beta)}")
    _emit_json(args, {"field": str(fld), "beta": list(bt.beta),
                      "reduced": list(bt.reduced)})
    return OK


def cmd_sigma(args, X, fld):
    sig = sigma_vector(X, fld, cap=args.cap, jobs=args.jobs)
    print(f"sigma({fld}) = {_vec(sig)}")
    _emit_json(args, {"field": str(fld), "sigma": [str(s) for s in sig]})
    return OK


def cmd_mu(args, X, fld):
    rep = morse_report(X, fld, cap=args.cap, jobs=args.jobs)
    print(f"mu({fld}) = {_vec(rep.mu)}")
    print(f"beta({fld}) = {_vec(rep.beta.beta)}")
    print(f"morse slack = {_vec(rep.morse_slack)}  verdict: {rep.verdict}")
    _emit_json(args, rep.to_json_dict())
    return OK


def cmd_tight(args, X, fld):
    res = is_tight(X, fld, mode=args.mode, cap=args.cap, jobs=args.jobs)
    if res.mode == "p18" and res.mu is not None:
        detail = f"mu = {_vec(res.mu)}, beta = {_vec(res.beta)}"
    elif res.witness:
        detail = f"witness A={res.witness[0]}, j={res.witness[1]}"
    else:
        detail = ""
    print(f"tight: {'yes' if res.tight else 'no'}" + (f"; {detail}" if detail else ""))
    _emit_json(args, {"tight": res.tight, "mode": res.mode,
                      "witness": list(res.witness) if res.witness else None,
                      "mu": [str(v) for v in res.mu] if res.mu else None,
                      "beta": list(res.beta) if res.beta else None})
    return OK if res.tight else REFUTED


def cmd_moves(args, X, fld):
    mvs = enumerate_bistellar(X)
    print(f"{len(mvs)} admissible bistellar moves of positive index "
          f"(0-moves are available at every one of the {len(X.facets)} facets)")
    for mv in mvs:
        print(f"  index {mv.index}: {' '.join(mv.alpha)} -> {' '.join(mv.beta)}")
    _emit_json(args, {"moves": [{"alpha": list(m.alpha), "beta": list(m.beta),
                                 "index": m.index} for m in mvs]})
    return OK


def cmd_stellate(args, X, fld):
    out = stellation_search(X, args.k, budget=args.budget, seed=args.seed)
    print(f"# seed={args.seed}")
    print(f"status: {out.status}; nodes: {out.nodes}")
    payload = {"status": out.status, "nodes": out.nodes}
    if out.found:
        print(f"certificate: {out.certificate.length} moves, "
              f"index counts {out.certificate.index_counts()}")
        payload["certificate"] = json.loads(out.certificate.to_json())
    _emit_json(args, payload)
    return OK if out.found else EXHAUSTED


def cmd_shellcheck(args, X, fld):
    if args.order:
        order = _facet_lines(read_text(args.order))
    elif args.input == "corpus:lutz_B2":
        order = [list(f) for f in corpus()["lutz_B2"].tags["shelling_order"]]
    else:
        print("no shelling order given (use --order FILE)", file=sys.stderr)
        return BADINPUT
    try:
        cert = verify_shelling(X, order)
    except (InputError, MoveError) as exc:  # a non-pure input is exit 3
        print(f"invalid shelling: {exc}")
        return REFUTED
    print(f"valid shelling; {cert.length} moves, k-bound {cert.k_bound}, "
          f"index counts {cert.index_counts()}")
    _emit_json(args, {"valid": True,
                      "certificate": json.loads(cert.to_json())})
    return OK


def cmd_shellfind(args, X, fld):
    out = find_shelling(X, budget=args.budget)
    print(f"status: {out.status}; nodes: {out.nodes}")
    if out.found:
        print(f"certificate: {out.certificate.length} moves, "
              f"k-bound {out.certificate.k_bound}")
    payload = {"status": out.status, "nodes": out.nodes}
    if out.found:
        payload["certificate"] = json.loads(out.certificate.to_json())
    _emit_json(args, payload)
    return {"found": OK, "none": REFUTED, "exhausted": EXHAUSTED}[out.status]


def cmd_ears(args, X, fld):
    es = ears(X)
    print(f"{len(es)} ear(s)")
    for e in es:
        print("  " + " ".join(e))
    _emit_json(args, {"ears": [list(e) for e in es]})
    return OK


def cmd_stacked(args, X, fld):
    ok = is_k_stacked_ball(X, args.k)
    tree = is_1_stacked_via_tree(X) if args.k == 1 else None
    print(f"{args.k}-stacked: {'yes' if ok else 'no'}"
          + (f" (dual graph tree: {tree})" if tree is not None else ""))
    _emit_json(args, {"k": args.k, "stacked": ok, "tree": tree})
    return OK if ok else REFUTED


def cmd_canonical(args, X, fld):
    build = canonical_ball if args.verb == "canonical-ball" else canonical_manifold
    try:
        out = build(X, args.k)
    except HypothesisViolation as exc:
        print(f"hypothesis violated: {exc}")
        return REFUTED
    print(f"built and validated: dim {out.dim}, {len(out.facets)} facets, "
          f"hash {facet_hash(out)[:16]}...")
    if args.save:
        save_facets(out, args.save)
        print(f"saved to {args.save}")
    _emit_json(args, {"dim": out.dim, "facets": len(out.facets),
                      "hash": facet_hash(out)})
    return OK


def cmd_wk(args, X, fld):
    rep = w_k_membership(X, args.k, budget=args.budget, seed=args.seed,
                         jobs=args.jobs)
    print(f"# seed={args.seed}")
    print(f"W_{args.k} membership: {rep.verdict}")
    for name, out in rep.per_vertex.items():
        extra = f" ({out.certificate.length} moves)" if out.found else ""
        print(f"  link of {name}: {out.status}{extra}")
    _emit_json(args, {"k": args.k, "verdict": rep.verdict,
                      "links": {n: o.status for n, o in rep.per_vertex.items()}})
    return OK if rep.certified else EXHAUSTED


def cmd_kn(args, X, fld):
    mbar, m = klee_novik(args.k, args.d)
    print(f"Mbar({args.k},{args.d}): {len(mbar.facets)} facets, f = {_vec(f_vector(mbar))}")
    print(f"M({args.k},{args.d}):    {len(m.facets)} facets, f = {_vec(f_vector(m))}")
    print(f"g(M) = {_vec(g_vector(m))}")
    if args.save:
        save_facets(m, args.save)
    if args.save_mbar:
        save_facets(mbar, args.save_mbar)
    _emit_json(args, {"k": args.k, "d": args.d, "f_mbar": list(f_vector(mbar)),
                      "f_m": list(f_vector(m)), "g_m": list(g_vector(m))})
    return OK


def cmd_corpus(args, X, fld):
    if args.action == "list":
        for name, e in sorted(corpus().items()):
            print(f"{name:16s} m={e.complex.m:3d} dim={e.complex.dim} "
                  f"f={_vec(e.expected_f)}")
        return OK
    if args.action == "verify":
        # an entry is checked on its first read: read them one at a time
        failed = []
        for name in sorted(corpus()):
            try:
                corpus()[name]
            except CorpusError as exc:
                failed.append(name)
                print(f"error: {exc}", file=sys.stderr)
            print(f"[{'FAIL' if name in failed else 'ok'}] {name}")
        return REFUTED if failed else OK
    # argparse admits no action but list, verify and export
    if not args.name or not args.path:
        print("corpus export NAME PATH", file=sys.stderr)
        return BADINPUT
    save_facets(corpus_complex(args.name), args.path, header=args.name)
    print(f"wrote {args.path}")
    return OK


def cmd_identities(args, X, fld):
    ds = check_dehn_sommerville(X)
    kl = check_klee(X)
    print(f"dehn-sommerville residuals: {_vec(ds.residuals)}  "
          f"{'zero' if ds.all_zero else 'NONZERO'}")
    print(f"klee residuals: {_vec(kl.residuals)}  "
          f"{'zero' if kl.all_zero else 'NONZERO'}")
    _emit_json(args, {"dehn_sommerville": [str(r) for r in ds.residuals],
                      "klee": [str(r) for r in kl.residuals]})
    return OK if kl.all_zero else REFUTED


def cmd_verify_paper(args, X, fld):
    ok = verify_mod.run_all(jobs=args.jobs)
    return OK if ok else REFUTED


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="stellar",
        description="Triangulated spheres/balls/manifolds: moves, vectors, "
                    "homology, tightness.")
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, fn, inputs=True, report=True, **flags):
        p = sub.add_parser(name)
        if inputs:
            p.add_argument("input", help="facet file path or corpus:NAME")
        if flags.get("field"):
            p.add_argument("--field", default="q",
                           help="q | z2 | z3 | z5 | zP (default q)")
        if flags.get("k"):
            p.add_argument("--k", type=int, required=flags["k"] == "required")
        if flags.get("budget"):
            p.add_argument("--budget", type=int, default=10 ** 6)
        if flags.get("seed"):
            p.add_argument("--seed", type=int, default=0)
        if flags.get("jobs"):
            p.add_argument("--jobs", type=int, default=1)
        if flags.get("cap"):
            p.add_argument("--cap", type=int, default=SIGMA_CAP)
        if flags.get("save"):
            p.add_argument("--save", default=None)
        if report:
            p.add_argument("--json", default=None, help="write a JSON report here")
        p.set_defaults(fn=fn)
        return p

    for verb in ("fvec", "hvec", "gvec"):
        add(verb, cmd_vec)
    add("betti", cmd_betti, field=True)
    add("sigma", cmd_sigma, field=True, cap=True, jobs=True)
    add("mu", cmd_mu, field=True, cap=True, jobs=True)
    p = add("tight", cmd_tight, field=True, cap=True, jobs=True)
    p.add_argument("--mode", choices=("direct", "p18"), default="p18")
    p.set_defaults(cap=None)
    add("moves", cmd_moves)
    add("stellate", cmd_stellate, k="required", budget=True, seed=True)
    p = add("shellcheck", cmd_shellcheck)
    p.add_argument("--order", default=None, help="file listing the facet order")
    add("shellfind", cmd_shellfind, budget=True)
    add("ears", cmd_ears)
    add("stacked", cmd_stacked, k="required")
    for verb in ("canonical-ball", "canonical-manifold"):
        add(verb, cmd_canonical, k="required", save=True)
    add("wk", cmd_wk, k="required", budget=True, seed=True, jobs=True)
    p = add("kn", cmd_kn, inputs=False, k="required", save=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--save-mbar", default=None)
    p = add("corpus", cmd_corpus, inputs=False, report=False)
    p.add_argument("action", choices=("list", "verify", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("path", nargs="?")
    add("identities", cmd_identities)
    add("verify-paper", cmd_verify_paper, inputs=False, report=False, jobs=True)
    return top


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return BADINPUT if exc.code not in (0, None) else OK
    for flag, least in (("jobs", 1), ("cap", 0), ("budget", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            print(f"error: --{flag} must be at least {least}, got {value}",
                  file=sys.stderr)
            return BADINPUT
    if getattr(args, "jobs", None) is not None:
        args.jobs = _worker_count(args.jobs)
    try:
        X = _load(args.input) if "input" in args else None
        fld = FieldSpec.parse(args.field) if "field" in args else None
        return args.fn(args, X, fld)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXHAUSTED
    except (ComplexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BADINPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
