"""CLI surface: verbs, exit codes, deterministic JSON."""
import contextlib
import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stellar import cli, constructions
from stellar import verify as verify_mod
from stellar.cli import run
from stellar.core import Complex, InputError, parse_facets


def test_fvec(capsys):
    assert run(["fvec", "corpus:Sigma3_16"]) == 0
    assert capsys.readouterr().out.strip() == "f = (16, 106, 180, 90)"


def test_tight_exit_codes(capsys):
    assert run(["tight", "corpus:torus_7", "--field", "q", "--mode", "p18"]) == 0
    out = capsys.readouterr().out
    assert "tight: yes" in out and "(1, 2, 1)" in out
    assert run(["tight", "corpus:rp2_6", "--field", "q"]) == 1


def test_tight_on_a_single_vertex(capsys, tmp_path):
    point = tmp_path / "point.txt"
    point.write_text("a\n")
    for mode in ("p18", "direct"):
        assert run(["tight", str(point), "--mode", mode]) == 0
        assert capsys.readouterr().out.startswith("tight: yes")


def test_bad_input_exit_code(capsys, tmp_path):
    assert run(["fvec", "corpus:nothing"]) == 3
    assert run(["betti", "corpus:torus_7", "--field", "z6"]) == 3
    assert run(["betti", "corpus:torus_7", "--field", "zx"]) == 3
    assert run(["sigma", "corpus:torus_7", "--field", "z"]) == 3
    assert run(["canonical-ball", "corpus:lutz_S2_8", "--k", "-1"]) == 3
    assert run(["canonical-manifold", "corpus:M_1_4", "--k", "-1"]) == 3
    # verbs that write no report take no --json; verify-paper's seeds are fixed
    assert run(["verify-paper", "--json", str(tmp_path / "v.json")]) == 3
    assert run(["corpus", "list", "--json", str(tmp_path / "c.json")]) == 3
    assert run(["verify-paper", "--seed", "1"]) == 3
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1 2 3\n2 3 \xff\n")
    assert run(["betti", str(bad)]) == 3
    assert run(["shellcheck", "corpus:lutz_B2", "--order", str(bad)]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(X):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "f_vector", broken)
    assert run(["fvec", "corpus:Sigma3_16"]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"


def test_jobs_checked_before_any_work(capsys, monkeypatch):
    def no_load(spec):
        raise AssertionError("input loaded before --jobs was checked")

    monkeypatch.setattr(cli, "_load", no_load)
    for jobs in ("0", "-3"):
        assert run(["sigma", "corpus:torus_7", "--jobs", jobs]) == 3
    assert run(["verify-paper", "--jobs", "0"]) == 3
    assert "--jobs" in capsys.readouterr().err


def test_negative_cap_and_budget_checked_before_any_work(capsys, monkeypatch):
    def no_load(spec):
        raise AssertionError("input loaded before --cap/--budget was checked")

    monkeypatch.setattr(cli, "_load", no_load)
    for argv, flag in ((["sigma", "corpus:torus_7", "--cap", "-1"], "--cap"),
                       (["tight", "corpus:torus_7", "--mode", "direct",
                         "--cap", "-3"], "--cap"),
                       (["stellate", "corpus:lutz_S3_8", "--k", "1",
                         "--budget", "-5"], "--budget"),
                       (["shellfind", "corpus:lutz_B2", "--budget", "-1"],
                        "--budget")):
        assert run(argv) == 3
        assert f"{flag} must be at least 0" in capsys.readouterr().err
    monkeypatch.undo()
    # 0 stays valid; these inputs exceed it
    assert run(["sigma", "corpus:torus_7", "--cap", "0"]) == 2
    assert run(["shellfind", "corpus:lutz_B2", "--budget", "0"]) == 2


def test_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    seen = []

    def fake_sigma(X, field, cap, jobs):
        seen.append(jobs)  # stands in for the pool, so no process starts
        return ()

    monkeypatch.setattr(cli, "sigma_vector", fake_sigma)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for jobs in ("1", "2", "64"):
        assert run(["sigma", "corpus:torus_7", "--jobs", jobs]) == 0
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run(["sigma", "corpus:torus_7", "--jobs", "3"]) == 0
    assert seen == [1, 2, 2, 1]


def test_budget_exit_code(capsys):
    assert run(["sigma", "corpus:S5_18"]) == 2  # 18 vertices > default cap


def test_stellate_and_wk(capsys):
    assert run(["stellate", "corpus:S3_16", "--k", "3", "--budget", "1000"]) == 2
    assert run(["wk", "corpus:M_1_2", "--k", "1"]) == 0


def test_shellfind_exit_codes(capsys, tmp_path):
    assert run(["shellfind", "corpus:ziegler_B2"]) == 1
    assert run(["shellfind", "corpus:lutz_B2"]) == 0
    pinched = tmp_path / "pinched.fct"  # refuted by the free-face test
    pinched.write_text("a b f\na b c\na c d\nc d e\nd e f\n")
    assert run(["shellfind", str(pinched)]) == 1
    sphere = tmp_path / "sphere.fct"  # shellable, but no ball: refused
    sphere.write_text("1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
    assert run(["shellfind", str(sphere)]) == 3


def test_ears_stacked(capsys):
    assert run(["ears", "corpus:ziegler_B2"]) == 0
    assert "0 ear(s)" in capsys.readouterr().out
    assert run(["stacked", "corpus:B4_16", "--k", "2"]) == 0
    assert run(["stacked", "corpus:B4_16", "--k", "1"]) == 1


def test_canonical_manifold_cli(capsys, tmp_path):
    out = tmp_path / "mbar.fct"
    assert run(["canonical-manifold", "corpus:M_1_4", "--k", "1",
                "--save", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()
    assert run(["canonical-ball", "corpus:lutz_S2_8", "--k", "1"]) == 0
    assert capsys.readouterr().out == ("built and validated: dim 3, 5 facets, "
                                       "hash ed2f2057c1ccaae9...\n")
    assert run(["canonical-ball", "corpus:torus_7", "--k", "1"]) == 1
    assert capsys.readouterr().out == (
        "hypothesis violated: closure complex failed validation: the input "
        "sphere is not 1-stellated/1-stacked with a recoverable ball\n")


def test_kn_verb(capsys):
    assert run(["kn", "--k", "1", "--d", "3"]) == 0
    assert "f = (10, 40, 60, 30)" in capsys.readouterr().out


def test_corpus_verbs(capsys, tmp_path):
    assert run(["corpus", "list"]) == 0
    assert run(["corpus", "verify"]) == 0
    dest = tmp_path / "t7.fct"
    assert run(["corpus", "export", "torus_7", str(dest)]) == 0
    assert run(["fvec", str(dest)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "f = (7, 21, 14)"


def test_corpus_verify_reports_each_entry(capsys, monkeypatch, fresh_corpus):
    # one wrong expected f-vector: verify lists every entry, fails that
    # one and the entries built from it, and exits 1; other verbs exit 3
    build, _, tags = constructions._ENTRIES["D4_16"]
    monkeypatch.setitem(constructions._ENTRIES, "D4_16",
                        (build, (16, 106, 232, 205, 65), tags))
    assert run(["corpus", "verify"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 26
    assert [ln for ln in lines if ln.startswith("[FAIL]")] == [
        "[FAIL] D4_16", "[FAIL] D6_18", "[FAIL] S5_18"]
    assert "[ok] Sigma3_16" in lines and "[ok] torus_7" in lines
    assert err.count("corpus entry D4_16: face vector") == 3
    assert run(["fvec", "corpus:torus_7"]) == 0
    for argv in (["fvec", "corpus:S5_18"], ["corpus", "list"],
                 ["corpus", "export", "D4_16", os.devnull]):
        assert run(argv) == 3


def test_identities_verb(capsys):
    assert run(["identities", "corpus:S3_16"]) == 0
    assert run(["identities", "corpus:torus_7"]) == 0


def test_shellcheck_builtin_order(capsys):
    assert run(["shellcheck", "corpus:lutz_B2"]) == 0
    assert "k-bound 2" in capsys.readouterr().out


def test_json_reports_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["mu", "corpus:torus_7", "--field", "q", "--json", str(a)])
    run(["mu", "corpus:torus_7", "--field", "q", "--json", str(b)])
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["mu"] == ["1", "2", "1"] and data["verdict"] == "tight"
    capsys.readouterr()
    common = ["verb", "input", "seed"]
    for argv, keys, line in (
            (["hvec"], ["h"], "h = (1, 4, 10, -1)"),
            (["gvec"], ["g"], "g = (1, 3, 6, -11)"),
            (["betti", "--field", "z2"], ["field", "beta", "reduced"],
             "betti(Z2) = (1, 2, 1)")):
        assert run([argv[0], "corpus:torus_7", *argv[1:], "--json", str(a)]) == 0
        assert capsys.readouterr().out == line + "\n"
        assert list(json.loads(a.read_text())) == common + keys


def test_verify_paper_exit_codes(capsys, monkeypatch):
    """A refuting row exits 1 and a crashing criterion 4, each after its
    FAIL line; both stop the run.  Stub criteria, so none of the battery
    runs."""
    def passing(jobs):
        return [verify_mod.Row("row", True)]

    def failing(jobs):
        return [verify_mod.Row("row", False, "detail")]

    def crashing(jobs):
        raise TypeError("boom")

    for stubs, code, out in (
            ([passing, passing], 0,
             "[PASS] criterion a\n[PASS] criterion b\n"),
            ([failing, passing], 1,
             "[FAIL] criterion a\n       - row: detail\n"),
            ([passing, crashing, passing], 4,
             "[PASS] criterion a\n[FAIL] criterion b\n"
             "       - b: TypeError: boom\n")):
        monkeypatch.setattr(verify_mod, "CRITERIA", list(zip("abc", stubs)))
        assert run(["verify-paper"]) == code
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == ("internal error: RuntimeError: criterion b "
                                "crashed\n" if code == 4 else "")


def test_moves_verb(capsys):
    assert run(["moves", "corpus:S3_16"]) == 0
    assert "0 admissible" in capsys.readouterr().out

EMPTY = "e3b0c44298fc1c14"  # the digest of no output
ARGPARSE = "argparse"  # stderr is argparse's usage text; see below

# one row per invocation: argv, exit code, and the first 16 hex digits of
# the SHA-256 of stdout, of stderr and of the --json file (None: no file)
CLI_PINS = [
    ("fvec corpus:torus_7 --json r.json", 0,
     "d1a3ee494c87c3e3", EMPTY, "d6178d7a1d963a94"),
    ("hvec corpus:lutz_S3_8 --json r.json", 0,
     "62be82c5357f0207", EMPTY, "c2b76cd0a3415f66"),
    ("gvec corpus:M_1_3 --json r.json", 0,
     "0e1373f58444e6aa", EMPTY, "a26b18731099adc3"),
    ("betti corpus:rp2_6 --field z2 --json r.json", 0,
     "d97ade09394896a3", EMPTY, "848164ad4c84eda1"),
    ("betti corpus:rp2_6", 0,
     "4e53507240c5d9bf", EMPTY, None),
    ("sigma corpus:torus_7 --field z3 --json r.json", 0,
     "a4d29253041eb9cc", EMPTY, "501d3c5554b0593d"),
    ("sigma corpus:torus_7 --cap 0", 2,
     EMPTY, "74f63587c9de356b", None),
    ("mu corpus:torus_7 --json r.json", 0,
     "bcf9c1699407fee9", EMPTY, "fb2abc4aab03fc8c"),
    ("mu corpus:rp2_6 --field z2 --json r.json", 0,
     "72ac6223c9b03d7e", EMPTY, "e1c7eb6918f1c624"),
    ("tight corpus:torus_7 --json r.json", 0,
     "39959186a861904a", EMPTY, "84c86f0a51ffd1b8"),
    ("tight corpus:rp2_6 --json r.json", 1,
     "f7961ff0bbf62c1b", EMPTY, "0e9a80c8dafa71f9"),
    ("tight corpus:rp2_6 --mode direct --json r.json", 1,
     "edd0196c12c2fb75", EMPTY, "7e74b7969aea1605"),
    ("moves corpus:lutz_S2_8 --json r.json", 0,
     "e8dca4aef2311cd2", EMPTY, "65de58a6b2710cdb"),
    ("moves corpus:S3_16", 0,
     "4c2b17a7e1ec5acd", EMPTY, None),
    ("stellate corpus:lutz_S3_8 --k 2 --json r.json", 0,
     "d13d09948d42edaf", EMPTY, "749d31a4c071595a"),
    ("stellate corpus:lutz_S2_8 --k 1 --seed 3", 0,
     "150bae04d0fd56e0", EMPTY, None),
    ("stellate corpus:S3_16 --k 3 --budget 100 --json r.json", 2,
     "8853502c5c34b3ba", EMPTY, "931cf295390b8cb8"),
    ("shellcheck corpus:lutz_B2 --json r.json", 0,
     "f1f78aed4c102a47", EMPTY, "22f82b0dd21352d6"),
    ("shellcheck corpus:lutz_B1 --order order.txt --json r.json", 1,
     "35da3a11b7b2682f", EMPTY, None),
    ("shellcheck corpus:lutz_B2 --order bad.fct", 3,
     EMPTY, "64ca8180995d9f25", None),
    ("shellcheck corpus:torus_7", 3,
     EMPTY, "bd07265e28a5445f", None),
    ("shellcheck dangling.fct --order dangling.fct", 3,
     EMPTY, "db64475a498c63c8", None),
    ("shellfind corpus:lutz_B2 --json r.json", 0,
     "8753d50bea368b4d", EMPTY, "f76b47e8a10751a2"),
    ("shellfind corpus:ziegler_B2 --json r.json", 1,
     "70d0447d856b0aa5", EMPTY, "708c34838ec9f1a0"),
    ("shellfind corpus:lutz_B2 --budget 0", 2,
     "e6b8c2b4243d8907", EMPTY, None),
    ("shellfind pinched.fct", 1,
     "70d0447d856b0aa5", EMPTY, None),
    ("shellfind tetra.fct", 3,
     EMPTY, "1c14245dd674c493", None),
    ("shellcheck twin.fct --order repeat.txt", 1,
     "a030d5ec134a7a43", EMPTY, None),
    ("ears corpus:ziegler_B2 --json r.json", 0,
     "fc9e3750a8d82ace", EMPTY, "620724d541114ee8"),
    ("ears corpus:lutz_B1", 0,
     "0053ae1818579240", EMPTY, None),
    ("ears dangling.fct", 3,
     EMPTY, "73b93e47eb7bd099", None),
    ("stacked corpus:lutz_B1 --k 1 --json r.json", 0,
     "44db4f5655b8780c", EMPTY, "33965cb26b8b2eed"),
    ("stacked corpus:B4_16 --k 1", 1,
     "c6876f154462ee3f", EMPTY, None),
    ("stacked corpus:B4_16 --k 2 --json r.json", 0,
     "85c534475d2025ca", EMPTY, "3fe2a703df13b253"),
    ("canonical-ball corpus:lutz_S2_8 --k 1 --save ball.fct --json r.json", 0,
     "7b7d2bd1b4a08def", EMPTY, "10cb8efdc82793e8"),
    ("canonical-ball corpus:torus_7 --k 1 --json r.json", 1,
     "772345c7417f0709", EMPTY, None),
    ("canonical-ball corpus:lutz_S2_8 --k -1", 3,
     EMPTY, "858e43b8a5e125ec", None),
    ("canonical-manifold corpus:M_1_4 --k 1 --save mbar.fct --json r.json", 0,
     "7924919b4c46caaa", EMPTY, "61001105117c3bc6"),
    ("canonical-manifold corpus:M_1_2 --k 1", 3,
     EMPTY, "77f354305a0cf63b", None),
    ("wk corpus:M_1_2 --k 1 --json r.json", 0,
     "8dc5c7e3d5a284d0", EMPTY, "66295c39140c3daa"),
    ("wk corpus:S3_16 --k 1 --budget 10 --json r.json", 2,
     "27e5d6aea3cc2848", EMPTY, "d94c93dbf7a5394d"),
    ("wk corpus:M_2_5 --k 9", 3,
     EMPTY, "20f73471984c106f", None),
    ("wk point.fct --k 0", 0,
     "edfd3da3f5e18b57", EMPTY, None),
    ("kn --k 1 --d 3 --save m.fct --save-mbar mbar.fct --json r.json", 0,
     "36f3169160352470", EMPTY, "dc68f052642ffa03"),
    ("corpus list", 0,
     "ca53916151c55c2c", EMPTY, None),
    ("corpus verify", 0,
     "639cb9772ea14ed5", EMPTY, None),
    ("corpus export torus_7 t7.fct", 0,
     "4afb0d5ba1937fb3", EMPTY, None),
    ("corpus export torus_7", 3,
     EMPTY, "b59c95ab32e24026", None),
    ("identities corpus:S3_16 --json r.json", 0,
     "c9966754e7e46686", EMPTY, "9ad9fce79d498516"),
    ("identities pinched.fct --json r.json", 1,
     "074fa4ea45117adc", EMPTY, "2059c7f70e0969b4"),
    ("identities corpus:rp2_6", 0,
     "71686fc808127954", EMPTY, None),
    ("fvec missing.fct", 3,
     EMPTY, "2098f449e4286874", None),
    ("fvec corpus:nothing", 3,
     EMPTY, "a2de863e6c6f68f4", None),
    ("betti bad.fct", 3,
     EMPTY, "64ca8180995d9f25", None),
    ("betti corpus:torus_7 --field z4", 3,
     EMPTY, "3cb64c00b941dc74", None),
    ("sigma corpus:torus_7 --jobs 0", 3,
     EMPTY, "0eedd0c4dc258f92", None),
    ("sigma corpus:torus_7 --cap -1", 3,
     EMPTY, "0f8401fb1843094e", None),
    ("stellate corpus:lutz_S3_8 --k 1 --budget -1", 3,
     EMPTY, "5d85b152b3916c5f", None),
    ("stellate corpus:lutz_S3_8 --k 9", 3,
     EMPTY, "a76c0aed243f717e", None),
    ("fvec", 3,
     EMPTY, ARGPARSE, None),
    ("frobnicate corpus:torus_7", 3,
     EMPTY, ARGPARSE, None),
]


@pytest.fixture
def cli_workdir(tmp_path, monkeypatch):
    """A working directory holding the rows' input files, so every path a
    message names is relative."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pinched.fct").write_text("a b f\na b c\na c d\nc d e\nd e f\n")
    (tmp_path / "bad.fct").write_bytes(b"1 2 3\n2 3 \xff\n")
    (tmp_path / "order.txt").write_text("1 2 3\n")
    (tmp_path / "dangling.fct").write_text("1 2 3\n3 4\n")
    (tmp_path / "point.fct").write_text("1\n")
    (tmp_path / "tetra.fct").write_text("1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
    (tmp_path / "twin.fct").write_text("1 2 3\n1 2 4\n")
    (tmp_path / "repeat.txt").write_text("1 2 3\n1 1 2 4\n")
    return tmp_path


def _digest(data):
    return None if data is None else hashlib.sha256(data).hexdigest()[:16]


def test_cli_outputs_pinned(cli_workdir, capsys):
    """Every verb but verify-paper, every exit code from 0 to 3 and the
    input-error paths give pinned stdout, stderr and --json bytes.  The
    wording of argparse's own errors varies between Python versions and
    terminal widths, so those rows pin stderr's first word only."""
    report = cli_workdir / "r.json"
    for argv, code, out_pin, err_pin, json_pin in CLI_PINS:
        got = run(argv.split())
        out, err = capsys.readouterr()
        written = report.read_bytes() if report.exists() else None
        report.unlink(missing_ok=True)
        assert got == code, argv
        assert _digest(out.encode()) == out_pin, argv
        if err_pin is ARGPARSE:
            assert err.startswith("usage: "), argv
        else:
            assert _digest(err.encode()) == err_pin, argv
        assert _digest(written) == json_pin, argv


# facet text with the separators the parser treats specially: line and
# comment breaks, ASCII and Unicode white space, and repeated tokens
FACET_TEXT = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(
        ["1", "2", "3", "4", "a", "b", " ", "\t", "\n", "\r", "#",
         "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u00a0", "\u3000"])))


@pytest.mark.filterwarnings("ignore:dropped")  # dominated lines are dropped
@settings(max_examples=300, deadline=None)
@given(FACET_TEXT)
def test_parse_facets_accepts_or_rejects_as_input_error(text):
    """Any text either parses or is an input error (exit 3), never a
    refutation or an internal error."""
    try:
        X = parse_facets(text)
    except InputError:
        return
    assert isinstance(X, Complex)


@pytest.mark.filterwarnings("ignore:dropped")
@settings(max_examples=150, deadline=None)
@given(st.one_of(st.binary(max_size=24),
                 FACET_TEXT.map(lambda t: t[:24].encode("utf-8"))))
def test_fvec_file_exits_0_or_3(tmp_path_factory, data):
    """``stellar fvec FILE`` on arbitrary bytes exits 0 or 3.  At most 24
    bytes keep a line below 13 vertices, so a simplex's 2^13 faces bound
    the time of one example."""
    path = tmp_path_factory.mktemp("fuzz") / "facets.txt"
    path.write_bytes(data)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = run(["fvec", str(path)])
    assert code in (0, 3), sink.getvalue()
