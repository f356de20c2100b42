"""Command line behavior: formats, exit codes, determinism, cache wiring."""

import json
from fractions import Fraction

import pytest

from eigensplit import cli, lfunctions
from eigensplit.homotopy import SpectrumId, homotopy_of
from eigensplit.lfunctions import configure_cache
from eigensplit.padic import PadicCtx


def _run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out


def test_irregular_output_is_byte_exact(capsys):
    rc, out = _run(capsys, "irregular", "--prime", "37")
    assert rc == 0
    assert out == '{"prime":37,"irregular_pairs":[32]}\n'


def test_irregular_regular_prime(capsys):
    rc, out = _run(capsys, "irregular", "--prime", "7")
    assert rc == 0
    assert json.loads(out) == {"prime": 7, "irregular_pairs": []}


def test_teich_json_and_csv(capsys):
    rc, out = _run(capsys, "teich", "--prime", "5")
    assert rc == 0
    data = json.loads(out)
    assert data["prime"] == 5
    assert data["values"][0] == {"a": 1, "omega": 1}
    rc, out = _run(capsys, "teich", "--prime", "5", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "a,omega"
    assert len(lines) == 5


def test_units_coates_wiles(capsys):
    rc, out = _run(capsys, "units", "--prime", "5")
    assert rc == 0
    data = json.loads(out)
    assert data["unit"] == "coates-wiles"
    assert data["norm_compatible"] is True
    assert len(data["digits"]) == 4
    assert data["digits"][0] % 5 == 1  # a 1-unit


def test_units_lang_requires_lambda(capsys):
    rc, _ = _run(capsys, "units", "--prime", "5", "--unit", "lang")
    assert rc == 1
    rc, out = _run(capsys, "units", "--prime", "5", "--unit", "lang",
                   "--lambda", "2")
    assert rc == 0
    assert json.loads(out)["lambda"] == 2


def test_kummer_table_matches_reference(capsys):
    rc, out = _run(capsys, "kummer", "--prime", "7")
    assert rc == 0
    data = json.loads(out)
    assert all(row["match"] for row in data["values"])
    assert [row["i"] for row in data["values"]] == [1, 2, 3, 4, 5]


def test_lvalues_exact_branch(capsys):
    rc, out = _run(capsys, "lvalues", "--prime", "5", "--char", "2",
                   "--at", "-1")
    assert rc == 0
    data = json.loads(out)
    assert data["rational"] == "1/3"
    assert data["valuation"] == 0


def test_lvalues_exact_branch_honours_precision(capsys):
    rc, out = _run(capsys, "lvalues", "--prime", "5", "--char", "2",
                   "--at", "-1", "--precision", "8")
    assert rc == 0
    data = json.loads(out)
    assert data["modulus"] == 5 ** 8
    assert data["value"] == PadicCtx(5, 8).from_rational(Fraction(1, 3)).lift()


def test_lvalues_odd_character_is_usage_error(capsys):
    rc, _ = _run(capsys, "lvalues", "--prime", "5", "--char", "3",
                 "--at", "2")
    assert rc == 1


def test_precision_too_low_for_pi_window_is_usage_error(capsys):
    # the default pi window shrinks to the 4 digits one p-adic digit holds,
    # but the level-1 norm-compatible pair needs 2 p-adic digits; the
    # refusal names the flags the user set
    rc = cli.main(["units", "--prime", "5", "--precision", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0] == ("eigensplit: error: --unit coates-wiles needs "
                        "--precision >= 2 for its level-1 norm check, got 1")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, message", [
    (("units", "--prime", "5", "--pi-precision", "0"),
     "--pi-precision must be in 1..16"),
    (("kummer", "--prime", "5", "--pi-precision", "0"),
     "--pi-precision must be in 1..16"),
    (("lvalues", "--prime", "5", "--char", "2", "--at", "-1",
      "--precision", "0"), "precision must be >= 1, got 0"),
    (("lvalues", "--prime", "5", "--char", "2", "--at", "3",
      "--precision", "0"), "precision must be >= 1, got 0"),
])
def test_zero_precision_is_usage_error(capsys, argv, message):
    # 0 is refused by the library like any value below 1, not replaced
    # by a default
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"eigensplit: error: {message}")


def test_homotopy_graded_schema(capsys):
    rc, out = _run(capsys, "homotopy", "J", "--prime", "5",
                   "--from", "-8", "--to", "8")
    assert rc == 0
    data = json.loads(out)
    assert data["spectrum"] == "J"
    for cell in data["groups"]:
        assert set(cell) == {"degree", "rank", "torsion"}
    degrees = [c["degree"] for c in data["groups"]]
    assert degrees == [-1, 0, 7]


def test_homotopy_dense_csv(capsys):
    rc, out = _run(capsys, "homotopy", "J", "--prime", "5",
                   "--from", "-2", "--to", "1", "--format", "csv", "--dense")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "degree,kind,exponent"
    assert "-2,zero," in lines
    assert "0,free," in lines


def test_homotopy_needs_window(capsys):
    rc, _ = _run(capsys, "homotopy", "J", "--prime", "5")
    assert rc == 1


def test_homotopy_window_guard_is_strict(capsys):
    rc, _ = _run(capsys, "homotopy", "J", "--prime", "5",
                 "--from", "-41", "--to", "40")
    assert rc == 1  # the library's max(6(p-1), 40) bound


def test_homotopy_window_matches_library_guard(capsys):
    # the CLI once bounded windows by 6(p-1) = 24 at p = 5, refusing
    # windows the library accepts
    rc, out = _run(capsys, "homotopy", "J", "--prime", "5",
                   "--from", "-30", "--to", "30")
    assert rc == 0
    M = homotopy_of(SpectrumId("J", 5), (-30, 30))
    assert json.loads(out)["groups"] == [
        {"degree": n, "rank": M.entry(n).rank,
         "torsion": list(M.entry(n).torsion)}
        for n in M.degrees()
    ]


def test_kv_gate_exit_codes(capsys):
    rc, _ = _run(capsys, "homotopy", "y(2)", "--prime", "37",
                 "--from", "-4", "--to", "12")
    assert rc == 1
    rc, _ = _run(capsys, "homotopy", "y(2)", "--prime", "37",
                 "--from", "-4", "--to", "12", "--kv-assume")
    assert rc == 0


def test_duality_passes(capsys):
    rc, out = _run(capsys, "duality", "--prime", "5",
                   "--from", "-8", "--to", "16")
    assert rc == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["cells"]


def test_duality_full_guard_window(capsys):
    rc, out = _run(capsys, "duality", "--prime", "11",
                   "--from", "-60", "--to", "60")
    assert rc == 0
    assert '"passed":true' in out


@pytest.mark.parametrize("argv", [
    ("duality", "--prime", "11", "--from", "-61", "--to", "60"),
    ("homotopy", "TCZ", "--prime", "11", "--from", "-60", "--to", "61"),
    ("les", "--prime", "11", "--char", "2", "--from", "-61", "--to", "60"),
    ("duality", "--prime", "11", "--from", "3", "--to", "2"),
    ("homotopy", "J", "--prime", "11", "--from", "3", "--to", "2"),
    ("les", "--prime", "11", "--char", "2", "--from", "3", "--to", "2"),
])
def test_window_refused_with_exit_one(capsys, argv):
    rc, out = _run(capsys, *argv)
    assert (rc, out) == (1, "")


@pytest.mark.parametrize("argv", [
    (cmd, "--prime", "5", "--pi-precision", "8")
    for cmd in ("teich", "irregular")
] + [
    ("lvalues", "--prime", "5", "--char", "2", "--at", "-1",
     "--pi-precision", "8"),
    ("irregular", "--prime", "5", "--precision", "6"),
] + [
    (*cmd, "--prime", "5", "--from", "-8", "--to", "16", flag, *value)
    for cmd in (("homotopy", "J"), ("duality",), ("les", "--char", "2"))
    for flag, value in (("--precision", ("6",)), ("--pi-precision", ("8",)))
] + [
    (*cmd, "--prime", "5", "--from", "-8", "--to", "16", "--dense")
    for cmd in (("duality",), ("les", "--char", "2"))
])
def test_ignored_flags_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    assert err.value.code == 1
    capsys.readouterr()


def test_les_subcommand(capsys):
    rc, out = _run(capsys, "les", "--prime", "5", "--char", "2",
                   "--from", "-2", "--to", "20")
    assert rc == 0
    assert json.loads(out)["passed"] is True


def test_les_needs_char(capsys):
    rc, _ = _run(capsys, "les", "--prime", "5", "--from", "-2", "--to", "8")
    assert rc == 1


def test_bad_prime_is_usage_error(capsys):
    rc, _ = _run(capsys, "irregular", "--prime", "9")
    assert rc == 1
    rc, _ = _run(capsys, "irregular", "--prime", "2")
    assert rc == 1


def test_argparse_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["irregular"])  # missing --prime
    assert err.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        cli.main(["not-a-command"])
    assert err.value.code == 1
    capsys.readouterr()


def test_output_is_deterministic(capsys):
    args = ("duality", "--prime", "7", "--from", "-12", "--to", "24")
    rc1, out1 = _run(capsys, *args)
    rc2, out2 = _run(capsys, *args)
    assert (rc1, out1) == (rc2, out2)


def test_cache_dir_flag(tmp_path, capsys):
    try:
        rc, _ = _run(capsys, "irregular", "--prime", "37",
                     "--cache-dir", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "bernoulli.tsv").exists()
    finally:
        configure_cache(None)


@pytest.mark.parametrize("argv, reads_bernoulli", [
    (("teich", "--prime", "5"), False),
    (("kummer", "--prime", "5"), False),
    (("lvalues", "--prime", "5", "--char", "2", "--at", "-1"), True),
    (("irregular", "--prime", "37"), True),
    (("homotopy", "J", "--prime", "5", "--from", "-8", "--to", "8"), True),
    (("duality", "--prime", "5", "--from", "-8", "--to", "16"), True),
    (("les", "--prime", "5", "--char", "2", "--from", "-2", "--to", "20"),
     True),
], ids=lambda a: a[0] if isinstance(a, tuple) else None)
def test_only_bernoulli_subcommands_open_the_cache(tmp_path, capsys, argv,
                                                  reads_bernoulli):
    try:
        rc, _ = _run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "bernoulli.tsv").exists() == reads_bernoulli
    finally:
        configure_cache(None)


@pytest.mark.parametrize("make_cache_dir", [
    lambda tmp: (tmp / "bernoulli.tsv").mkdir() or tmp,
    lambda tmp: (tmp / "file").write_text("") or tmp / "file" / "cache",
], ids=["tsv-is-a-directory", "under-a-regular-file"])
def test_unusable_cache_dir_exits_1_with_one_line(tmp_path, capsys,
                                                  make_cache_dir):
    cache = make_cache_dir(tmp_path)
    try:
        rc = cli.main(["lvalues", "--prime", "5", "--char", "2", "--at", "-1",
                       "--cache-dir", str(cache)])
    finally:
        configure_cache(None)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith(
        f"eigensplit: error: cannot use Bernoulli cache {cache}")
    assert captured.err.count("\n") == 1


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    target = tmp_path / "via-env"
    target.mkdir()
    monkeypatch.setenv("EIGENSPLIT_CACHE", str(target))
    try:
        rc, _ = _run(capsys, "irregular", "--prime", "37")
        assert rc == 0
        assert (target / "bernoulli.tsv").exists()
    finally:
        configure_cache(None)


def test_cache_flag_beats_env(tmp_path, capsys, monkeypatch):
    via_env = tmp_path / "env"
    via_flag = tmp_path / "flag"
    via_env.mkdir()
    via_flag.mkdir()
    monkeypatch.setenv("EIGENSPLIT_CACHE", str(via_env))
    try:
        rc, _ = _run(capsys, "irregular", "--prime", "37",
                     "--cache-dir", str(via_flag))
        assert rc == 0
        assert (via_flag / "bernoulli.tsv").exists()
        assert not (via_env / "bernoulli.tsv").exists()
    finally:
        configure_cache(None)


@pytest.mark.parametrize("bad_row", [
    "2\t1\tx",   # not an integer
    "2\t1\t0",   # zero denominator
    "2\t1\t7",   # not the von Staudt-Clausen denominator 6
    "3\t1\t6",   # out of index order
])
def test_corrupt_cache_is_recomputed(tmp_path, capsys, monkeypatch, bad_row):
    args = ("lvalues", "--prime", "5", "--char", "2", "--at", "-1")
    monkeypatch.setattr(lfunctions, "_table", lfunctions.BernoulliTable())
    clean = _run(capsys, *args)
    rows = ["0\t1\t1", "1\t-1\t2", bad_row, "3\t0\t1", "4\t-1\t30"]
    (tmp_path / "bernoulli.tsv").write_text("\n".join(rows) + "\n")
    monkeypatch.setattr(lfunctions, "_table", lfunctions.BernoulliTable())
    try:
        assert _run(capsys, *args, "--cache-dir", str(tmp_path)) == clean
    finally:
        configure_cache(None)
    assert json.loads(clean[1])["rational"] == "1/3"


def test_text_formats_smoke(capsys):
    rc, out = _run(capsys, "irregular", "--prime", "37", "--format", "text")
    assert rc == 0
    assert "37" in out and "32" in out
    rc, out = _run(capsys, "duality", "--prime", "5",
                   "--from", "-8", "--to", "16", "--format", "text")
    assert rc == 0
    assert out.rstrip().endswith("PASS")
    rc, out = _run(capsys, "homotopy", "ell", "--prime", "5",
                   "--from", "0", "--to", "8", "--format", "text")
    assert rc == 0
    assert "pi_0" in out
