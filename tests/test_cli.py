"""CLI surface: verbs, exit codes, deterministic JSON."""
import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stellar import cli
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


def test_bad_input_exit_code(capsys, tmp_path):
    assert run(["fvec", "corpus:nothing"]) == 3
    assert run(["betti", "corpus:torus_7", "--field", "z6"]) == 3
    assert run(["betti", "corpus:torus_7", "--field", "zx"]) == 3
    assert run(["sigma", "corpus:torus_7", "--field", "z"]) == 3
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


def test_shellfind_exit_codes(capsys):
    assert run(["shellfind", "corpus:ziegler_B2"]) == 1
    assert run(["shellfind", "corpus:lutz_B2"]) == 0


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


def test_moves_verb(capsys):
    assert run(["moves", "corpus:S3_16"]) == 0
    assert "0 admissible" in capsys.readouterr().out


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
