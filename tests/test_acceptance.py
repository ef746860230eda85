"""Acceptance gate: one test per criterion, exact tolerances, one printed
pass/fail line each."""
import os

from stellar import verify
from stellar.tightness import CheckLine

JOBS = min(4, os.cpu_count() or 1)


def _run(label, fn, **kw):
    rows = fn(**kw)
    ok = all(r.ok for r in rows)
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {label} "
          f"({len(rows)} checks)")
    bad = [f"{r.name}: {r.detail}" for r in rows if not r.ok]
    assert ok, "; ".join(bad)


def test_criterion_1_corpus_exactness():
    _run("1 corpus exactness", verify.criterion_1_corpus_exactness)


def test_criterion_2_unflippability():
    _run("2 unflippability", verify.criterion_2_unflippability)


def test_criterion_3_homology_sphere():
    _run("3 homology sphere", verify.criterion_3_homology_sphere)


def test_criterion_4_ears_shellability():
    _run("4 ears/shellability", verify.criterion_4_ears_shellability)


def test_criterion_5_klee_novik():
    _run("5 Klee-Novik", verify.criterion_5_klee_novik, jobs=JOBS)


def test_criterion_6_cross_polytope():
    _run("6 cross-polytope sigma/mu", verify.criterion_6_cross_polytope,
         jobs=JOBS)


def test_criterion_7_tightness():
    _run("7 tightness witnesses", verify.criterion_7_tightness_witnesses,
         jobs=JOBS)


def test_criterion_8_lower_bounds():
    _run("8 lower-bound equalities", verify.criterion_8_lower_bounds)


def test_criterion_8_reads_p23_from_the_battery(monkeypatch):
    """The P23 rows are the battery's P23a and P23b lines on M(1,4) over
    Z2, so a battery line that says otherwise fails its row."""
    rows = verify.criterion_8_lower_bounds()
    assert [r.detail for r in rows[2:]] == ["P23a: equality (beta_1(Z2)=1)",
                                            "P23b: holds (21 >= 15)"]
    monkeypatch.setattr(verify, "criterion_battery", lambda M, k, field: [
        CheckLine("P23a", "holds"), CheckLine("P23b", "equality")])
    assert [r.ok for r in verify.criterion_8_lower_bounds()] == \
        [True, True, False, False]


def test_criterion_9_identities():
    _run("9 identity suites", verify.criterion_9_identities)


def test_criterion_10_oracles():
    _run("10 oracle equivalences", verify.criterion_10_oracles, jobs=JOBS)


def test_criterion_11_morse():
    _run("11 Morse inequalities", verify.criterion_11_morse, jobs=JOBS)
