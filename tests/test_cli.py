"""Command line surface: exit codes, formats, config precedence, determinism."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornlab import (GENERATORS, format_number, sample_tropical_kappa,
                     triple_csv_header)
from hornlab.cli import (_FLAGS, PASS, FAIL, USAGE, PRECONDITION,
                         build_parser, main)

W2 = {"n": 2, "diagonals": ["2"], "sink_horizontals": ["1", "1"]}
# generic size-two instance with separation and margin both >= 1/2
SWEEP = {"n": 2, "diagonals": ["19/10"], "sink_horizontals": ["-1/5", "3/10"]}
# a generic size-three instance whose path matrix at tau = 150 has a
# smallest singular value below the float range
SWEEP3 = {"n": 3, "diagonals": ["19/10", "7/5", "3/5"],
          "sink_horizontals": ["-1/5", "3/10", "1/10"]}

INTERIOR_PATTERN = {"n": 2, "role": "tropical-gz",
                    "rows": [["0"], ["0", "1"], ["0", "3", "2"]]}
BROKEN_PATTERN = {"n": 2, "role": "tropical-gz",
                  "rows": [["0"], ["0", "3"], ["0", "1", "2"]]}
GOOD_HIVE = {"n": 2, "role": "hive", "rows": [["0"], ["1", "1"], ["0", "2", "2"]]}
BAD_HIVE = {"n": 2, "role": "hive", "rows": [["0"], ["1", "1"], ["0", "3", "2"]]}


def _dump(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


# -- structural commands -------------------------------------------------------

def test_gamma0_json(capsys):
    assert main(["gamma0", "--n", "2"]) == PASS
    d = json.loads(capsys.readouterr().out)
    assert d["rank"] == 2
    assert len(d["nodes"]) == 6 and len(d["edges"]) == 5


def test_gamma0_dot(capsys):
    assert main(["gamma0", "--n", "3", "--format", "dot"]) == PASS
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert out.count("->") == 11


def test_gamma0_out_file(tmp_path, capsys):
    dest = tmp_path / "g.json"
    assert main(["gamma0", "--n", "2", "--out", str(dest)]) == PASS
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["rank"] == 2


def test_trop_gz_lt_inverse_round_trip(tmp_path, capsys):
    wpath = _dump(tmp_path, "w.json", W2)
    patt = tmp_path / "p.json"
    assert main(["trop-gz", "--weights", wpath, "--out", str(patt)]) == PASS
    d = json.loads(patt.read_text())
    assert d["role"] == "tropical-gz"
    assert d["rows"][2] == ["0", "3", "2"]
    assert main(["lt-inverse", "--pattern", str(patt)]) == PASS
    back = json.loads(capsys.readouterr().out)
    assert back == W2


def test_gz_check_exit_codes(tmp_path, capsys):
    good = _dump(tmp_path, "good.json", INTERIOR_PATTERN)
    bad = _dump(tmp_path, "bad.json", BROKEN_PATTERN)
    assert main(["gz-check", "--pattern", good]) == PASS
    assert capsys.readouterr().out.strip() == "pass"
    assert main(["gz-check", "--pattern", bad]) == FAIL
    assert capsys.readouterr().out.strip() == "fail"
    # the interior pattern has margin 2, so delta 3 must push it out
    assert main(["gz-check", "--pattern", good, "--delta", "3"]) == FAIL


def test_hive_check_exit_codes(tmp_path, capsys):
    assert main(["hive-check", "--tableau", _dump(tmp_path, "h.json", GOOD_HIVE)]) == PASS
    capsys.readouterr()
    assert main(["hive-check", "--tableau", _dump(tmp_path, "b.json", BAD_HIVE)]) == FAIL


# -- membership ----------------------------------------------------------------

def test_kt_member_inline(capsys):
    assert main(["kt-member", "--triple", "1,0,1,0,2,0"]) == PASS
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# slack=0"
    assert out[1] == "index,member"
    assert out[2] == "0,true"
    assert main(["kt-member", "--triple", "1,0,1,0,4,0"]) == FAIL


def test_kt_member_csv(tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text("a1,a2,b1,b2,c1,c2\n1,0,1,0,2,0\n1,0,1,0,4,0\n")
    assert main(["kt-member", "--csv", str(csv)]) == FAIL
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["0,true", "1,false"]
    ok = tmp_path / "ok.csv"
    ok.write_text("a1,a2,b1,b2,c1,c2\n1,0,1,0,2,0\n")
    assert main(["kt-member", "--csv", str(ok)]) == PASS


@pytest.mark.parametrize("text", ["", "# n=2\n", "a1,a2,b1,b2,c1,c2\n",
                                  "# n=2\na1,a2,b1,b2,c1,c2\n\n"])
def test_kt_member_csv_without_rows(text, tmp_path, capsys):
    csv = tmp_path / "t.csv"
    csv.write_text(text)
    assert main(["kt-member", "--csv", str(csv)]) == PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no rows in %s\n" % csv


N6 = "2,3,3,3,3,3,1,2,2,2,2,2,3,5,5,5,5,5"


@pytest.mark.parametrize("source", ["triple", "csv"])
def test_kt_member_refuses_n_above_the_desk_scale(source, tmp_path, capsys):
    # 18 values make n = 6: a precondition, with nothing on stdout
    if source == "triple":
        argv = ["kt-member", "--triple", N6]
    else:
        csv = tmp_path / "t.csv"
        csv.write_text(",".join("%s%d" % (v, i) for v in "abc" for i in range(1, 7))
                       + "\n" + N6 + "\n")
        argv = ["kt-member", "--csv", str(csv)]
    assert main(argv) == PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be between 1 and 5\n"


def test_kt_member_input_validation(capsys):
    # exactly one of --csv / --triple
    assert main(["kt-member"]) == PRECONDITION
    assert main(["kt-member", "--triple", "1,0,1,0,2,0",
                 "--csv", "x.csv"]) == PRECONDITION
    assert main(["kt-member", "--triple", "1,0,1,0"]) == PRECONDITION
    assert main(["kt-member", "--csv", "/no/such/file.csv"]) == USAGE
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == USAGE
    with pytest.raises(SystemExit) as exc:
        main(["gamma0"])  # missing required --n
    assert exc.value.code == USAGE
    with pytest.raises(SystemExit) as exc:
        main(["kappa-sample", "--count=--"])  # argparse reads the value as []
    assert exc.value.code == USAGE
    capsys.readouterr()


# -- randomized commands -------------------------------------------------------

def _run_to_file(tmp_path, name, argv):
    dest = tmp_path / name
    rc = main(argv + ["--out", str(dest)])
    return rc, dest.read_text()


def test_kappa_sample_deterministic(tmp_path):
    argv = ["kappa-sample", "--r", "2,0", "--s", "1,0",
            "--count", "5", "--seed", "3"]
    rc1, a = _run_to_file(tmp_path, "a.csv", argv)
    rc2, b = _run_to_file(tmp_path, "b.csv", argv)
    assert rc1 == rc2 == PASS
    assert a == b
    lines = a.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert "# seed=3" in meta and "# count=5" in meta
    assert "a1,a2,b1,b2,c1,c2" in lines
    assert len(lines) == len(meta) + 1 + 5


def test_sample_csv_shape(tmp_path):
    rc, text = _run_to_file(tmp_path, "s.csv",
                            ["sample", "--generator", "hermitian-sum",
                             "--r", "2,0", "--s", "1,0",
                             "--count", "8", "--seed", "1"])
    assert rc == PASS
    lines = text.splitlines()
    rows = [ln for ln in lines if not ln.startswith("#") and not ln.startswith("t1")]
    assert lines[lines.index("t1,t2") + 1:] == rows and len(rows) == 8
    for ln in rows:
        t1, t2 = ln.split(",")
        # repr round trip: the printed floats reparse to the same doubles
        assert repr(float(t1)) == t1 and repr(float(t2)) == t2
        # trace slot: r2 + s2 = 0
        assert abs(float(t2)) <= 1e-9


_SPECTRA = ["--r", "3,4,3", "--s", "2,2.5,1.5"]


@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_sample_rows_are_the_vectors(gen, tmp_path):
    # the CSV rows come from the sample's array; they are the bytes the
    # tuple field renders to
    rc, text = _run_to_file(tmp_path, "s.csv", ["sample", "--generator", gen]
                            + _SPECTRA + ["--count", "300", "--seed", "21"])
    assert rc == PASS
    vectors = GENERATORS[gen]((3, 4, 3), (2, 2.5, 1.5), 300,
                              np.random.default_rng(21)).vectors
    lines = text.splitlines()
    assert lines[lines.index("t1,t2,t3") + 1:] == \
        [",".join(repr(float(x)) for x in vec) for vec in vectors]


def test_kappa_sample_rows_are_the_vectors(tmp_path):
    rc, text = _run_to_file(tmp_path, "k.csv", ["kappa-sample"] + _SPECTRA
                            + ["--count", "300", "--seed", "22"])
    assert rc == PASS
    vectors = sample_tropical_kappa((3, 4, 3), (2, 2.5, 1.5), 300,
                                    np.random.default_rng(22)).vectors
    prefix = "3.0,4.0,3.0,2.0,2.5,1.5"
    lines = text.splitlines()
    assert lines[lines.index(triple_csv_header(3)) + 1:] == \
        [",".join([prefix] + [format_number(x) for x in vec])
         for vec in vectors]


def test_measure_compare_residuals_are_the_vectors(tmp_path):
    rc, text = _run_to_file(tmp_path, "mc.json", ["measure-compare"]
                            + _SPECTRA + ["--count", "500", "--seed", "23"])
    assert rc in (PASS, FAIL)
    got = {row["generator"]: row["residual"]
           for row in json.loads(text)["total_identity"]}
    for j, name in enumerate(sorted(GENERATORS)):
        vectors = GENERATORS[name]((3, 4, 3), (2, 2.5, 1.5), 500,
                                   np.random.default_rng([23, j])).vectors
        assert got[name] == max(abs(v[-1] - (3.0 + 1.5)) for v in vectors)


def test_sample_rejects_unknown_generator(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--generator", "bogus", "--r", "1,0", "--s", "1,0"])
    assert exc.value.code == USAGE
    capsys.readouterr()


def test_config_precedence(tmp_path):
    cfg = _dump(tmp_path, "cfg.json",
                {"generator": "tropical-kappa", "r": "2,0", "s": "1,0",
                 "count": 4, "seed": 9})
    rc, text = _run_to_file(tmp_path, "c1.csv", ["sample", "--config", cfg])
    assert rc == PASS
    assert "# count=4" in text and "# seed=9" in text
    # a flag beats the config value
    rc, text = _run_to_file(tmp_path, "c2.csv",
                            ["sample", "--config", cfg, "--count", "6"])
    assert "# count=6" in text
    assert sum(1 for ln in text.splitlines()
               if ln and not ln.startswith(("#", "t1"))) == 6


def test_config_unknown_key_is_precondition(tmp_path, capsys):
    cfg = _dump(tmp_path, "cfg.json", {"weird": 1})
    assert main(["sample", "--config", cfg]) == PRECONDITION
    assert "unknown config keys" in capsys.readouterr().err


_SAMPLE = ["sample", "--generator", "tropical-kappa", "--r", "2,0", "--s", "1,0"]
_FORWARD = ["horn-forward", "--mode", "tropical"]


def test_config_null_leaves_the_setting_unset(tmp_path, capsys):
    cfg = _dump(tmp_path, "cfg.json", {"count": None, "seed": None})
    rc, text = _run_to_file(tmp_path, "n.csv", _SAMPLE + ["--config", cfg])
    assert rc == PASS and "# count=1000" in text and "# seed=0" in text
    cfg = _dump(tmp_path, "cfg2.json", {"generator": None, "r": "2,0",
                                        "s": "1,0"})
    assert main(["sample", "--config", cfg]) == USAGE
    assert "--generator is required" in capsys.readouterr().err


# n, count and seed refuse a value that is not an integer, from a flag and
# from the config alike, instead of truncating it
@pytest.mark.parametrize("argv, doc, name", [
    (_SAMPLE, {"count": 2.9}, "count"),
    (_SAMPLE, {"seed": 1.5}, "seed"),
    (_FORWARD, {"n": 2.7}, "n"),
    (_SAMPLE, {"count": "5/2"}, "count"),
    (_SAMPLE + ["--count", "2.9"], None, "count"),
    (_SAMPLE + ["--count", "abc"], None, "count"),
    (_SAMPLE + ["--seed", "x"], None, "seed"),
    (_FORWARD + ["--n", "x"], None, "n"),
])
def test_integer_settings_refuse_non_integers(argv, doc, name, tmp_path,
                                              capsys):
    if doc is not None:
        argv = argv + ["--config", _dump(tmp_path, "cfg.json", doc)]
    assert main(argv) == PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s must be an integer, got "
                                   % name)


def test_integer_settings_take_whole_numbers_in_any_form(tmp_path,
                                                         monkeypatch):
    # '3.0' and '6/2' are the integer 3 as a flag, in the config and in
    # HORNLAB_SEED, as the JSON number 3.0 already was
    rc, want = _run_to_file(tmp_path, "a.csv",
                            _SAMPLE + ["--count", "3", "--seed", "3"])
    assert rc == PASS
    cfg = _dump(tmp_path, "cfg.json", {"count": "6/2", "seed": 3.0})
    assert _run_to_file(tmp_path, "b.csv",
                        _SAMPLE + ["--count", "3.0", "--seed", "6/2"]) \
        == (PASS, want)
    assert _run_to_file(tmp_path, "c.csv", _SAMPLE + ["--config", cfg]) \
        == (PASS, want)
    monkeypatch.setenv("HORNLAB_SEED", "3.0")
    assert _run_to_file(tmp_path, "d.csv", _SAMPLE + ["--count", "3"]) \
        == (PASS, want)


def test_threshold_reads_the_number_grammar(tmp_path):
    argv = ["measure-compare", "--r", "2,0", "--s", "1,0", "--count", "300",
            "--seed", "5", "--threshold"]
    half = _run_to_file(tmp_path, "a.json", argv + ["1/2"])
    assert half == _run_to_file(tmp_path, "b.json", argv + ["0.5"])
    assert half[0] == PASS and json.loads(half[1])["threshold"] == 0.5


def test_no_setting_flag_has_an_argparse_type():
    # the reader in _FLAGS is the only parser of a setting's text, and no
    # other flag of any command is typed by argparse either
    assert all("type" not in kwargs for kwargs, _ in _FLAGS.values())
    commands = next(a for a in build_parser()._actions
                    if a.dest == "command").choices
    typed = [(name, a.dest) for name, p in commands.items()
             for a in p._actions if a.type is not None]
    assert typed == []


def test_gamma0_n_and_phase_seed_read_as_integers(tmp_path, capsys):
    # gamma0's --n and limit-sweep's --phase-seed read whole numbers in any
    # form, and refuse anything else with exit 3, as n and seed do
    sweep = ["limit-sweep", "--weights", _dump(tmp_path, "w.json", SWEEP),
             "--taus", "5,8", "--phase-seed"]
    for argv, name in ((["gamma0", "--n"], "n"), (sweep, "phase-seed")):
        outputs = []
        for text in ("3", "3.0", "6/2"):
            assert main(argv + [text]) == PASS
            outputs.append(capsys.readouterr().out)
        assert outputs[0] and outputs == [outputs[0]] * 3
        for text in ("x", "3.5", "7/2"):
            assert main(argv + [text]) == PRECONDITION
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: %s must be an integer, got %r\n" \
                % (name, text)


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("HORNLAB_SEED", "11")
    argv = ["kappa-sample", "--r", "2,0", "--s", "1,0", "--count", "4"]
    rc1, a = _run_to_file(tmp_path, "e1.csv", argv)
    rc2, b = _run_to_file(tmp_path, "e2.csv", argv)
    assert rc1 == rc2 == PASS and a == b
    assert "# seed=11" in a
    # explicit flag wins over the environment
    _, c = _run_to_file(tmp_path, "e3.csv", argv + ["--seed", "3"])
    assert "# seed=3" in c


def test_measure_compare_json(tmp_path):
    argv = ["measure-compare", "--r", "2,0", "--s", "1,0",
            "--count", "300", "--seed", "5", "--threshold", "0.9"]
    rc, text = _run_to_file(tmp_path, "mc.json", argv)
    assert rc == PASS
    rep = json.loads(text)
    # 3 generator pairs, n - 1 coordinates + 3 projections each; the final
    # coordinate is an atom and is scored as a residual instead
    assert len(rep["pairs"]) == 12
    assert {p["projection"] for p in rep["pairs"]} == {"t1", "p1", "p2", "p3"}
    assert len(rep["total_identity"]) == 3
    assert all(row["residual"] <= 1e-9 for row in rep["total_identity"])
    assert rep["pass"] is True and rep["max_statistic"] < 0.9
    argv[-1] = "1e-9"
    rc, text = _run_to_file(tmp_path, "mc2.json", argv)
    assert rc == FAIL and json.loads(text)["pass"] is False


def test_measure_compare_at_n1_rests_on_the_total_identity(tmp_path):
    # every draw at n = 1 is the atom r + s, and every random direction is
    # +-t1, so nothing is KS-scored: the check is the residual alone
    rc, text = _run_to_file(tmp_path, "mc1.json",
                            ["measure-compare", "--r", "2", "--s", "1",
                             "--count", "2000", "--seed", "3"])
    rep = json.loads(text)
    assert rc == PASS and rep["pass"] is True and rep["pairs"] == []
    assert rep["max_statistic"] == max(
        row["residual"] for row in rep["total_identity"]) < 1e-9


def test_limit_sweep_csv(tmp_path):
    wpath = _dump(tmp_path, "w.json", SWEEP)
    rc, text = _run_to_file(tmp_path, "sw.csv",
                            ["limit-sweep", "--weights", wpath,
                             "--taus", "5,8,11"])
    assert rc == PASS
    lines = text.splitlines()
    assert "# delta=0.5" in lines
    rows = [ln.split(",") for ln in lines if not ln.startswith(("#", "tau"))]
    errs = [float(e) for _, e in rows]
    assert errs[0] > errs[1] > errs[2]
    slope = next(ln for ln in lines if ln.startswith("# slope="))
    assert float(slope.split("=")[1]) < -0.375


def test_limit_sweep_needs_taus(tmp_path, capsys):
    wpath = _dump(tmp_path, "w.json", SWEEP)
    assert main(["limit-sweep", "--weights", wpath]) == PRECONDITION
    capsys.readouterr()


def test_horn_forward(capsys):
    rc = main(["horn-forward", "--mode", "tropical", "--n", "2",
               "--count", "5", "--seed", "2"])
    assert rc == PASS
    assert "pass_rate=1.0" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["hermitian", "multiplicative"])
def test_horn_forward_float_modes_pass_at_the_default_slack(mode, capsys):
    # float spectra land within rounding of the closed cone; at slack 0
    # most of these twenty triples used to fail
    rc = main(["horn-forward", "--mode", mode, "--n", "3",
               "--count", "20", "--seed", "2"])
    assert rc == PASS
    assert "failures=0" in capsys.readouterr().out


def test_exceptional_mass(capsys):
    rc = main(["exceptional-mass", "--r", "2,0", "--s", "1,0",
               "--count", "60", "--seed", "1"])
    assert rc == PASS
    assert "mass=0.0" in capsys.readouterr().out
    rc = main(["exceptional-mass", "--r", "2,0", "--s", "1,0",
               "--count", "60", "--slack=-1/10", "--seed", "1"])
    assert rc == FAIL
    assert "mass=0.0" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["horn-forward", "--mode", "tropical", "--count", "2"],
    ["horn-forward", "--n", "2", "--count", "2"],
    ["sample", "--r", "2,0", "--s", "1,0", "--count", "2"],
    ["sample", "--generator", "hermitian-sum", "--s", "1,0", "--count", "2"],
    ["kappa-sample", "--r", "2,0", "--count", "2"],
    ["measure-compare", "--s", "1,0", "--count", "2"],
    ["exceptional-mass", "--r", "2,0", "--count", "2"],
])
def test_missing_required_setting_is_usage_error(argv, capsys):
    assert main(argv) == USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "is required" in captured.err


def test_sample_mismatched_lengths_is_precondition(capsys):
    argv = ["sample", "--generator", "hermitian-sum", "--r", "1,0",
            "--s", "1,0,0", "--count", "2"]
    assert main(argv) == PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and "same length" in captured.err


# -- malformed input: exit 2 or 3, never a traceback ---------------------------

# Malformed documents, numbers and counts: one error line and exit 2 or 3,
# never a traceback, an exit 1 or an empty table.
MALFORMED = [
    (["trop-gz", "--weights"], {"n": 2}, PRECONDITION),
    (["limit-sweep", "--taus", "5", "--weights"], {"n": 2}, PRECONDITION),
    (["trop-gz", "--weights"], [1, 2], PRECONDITION),
    (["trop-gz", "--weights"], dict(W2, n="2"), PRECONDITION),
] + [
    ([cmd, flag], doc, PRECONDITION)
    for cmd, flag in (("lt-inverse", "--pattern"), ("gz-check", "--pattern"),
                      ("hive-check", "--tableau"))
    for doc in ({"rows": []}, {"n": 2}, [1])
] + [
    (["sample", "--config"], [1], PRECONDITION),
    (["horn-forward", "--mode", "tropical", "--n", "2", "--count", "0"],
     None, PRECONDITION),
    (["exceptional-mass", "--r", "2,0", "--s", "1,0", "--count", "0"],
     None, PRECONDITION),
    (["measure-compare", "--r", "2,0", "--s", "1,0", "--count", "0"],
     None, PRECONDITION),
    (["sample", "--generator", "hermitian-sum", "--r", "2,0", "--s", "1,0",
      "--count", "-1"], None, PRECONDITION),
    (["kappa-sample", "--r", "2,0", "--s", "1,0", "--count", "0"],
     None, PRECONDITION),
    (["kappa-sample", "--r", "1/0,0", "--s", "1,0", "--count", "2"],
     None, PRECONDITION),
    (["kappa-sample", "--r", "inf,0", "--s", "1,0", "--count", "2"],
     None, PRECONDITION),
    (["sample", "--generator", "multiplicative", "--r", "9999,0", "--s", "1,0",
      "--count", "2"], None, PRECONDITION),
    (["gz-check", "--pattern"],
     {"n": 2, "rows": [["0"], ["0", "1e400"], ["0", 0, 0.0]]}, PRECONDITION),
    (["trop-gz", "--weights"], "a directory", USAGE),
    (["limit-sweep", "--taus", "5", "--weights"],
     {"n": 1, "diagonals": [], "sink_horizontals": [3]}, PRECONDITION),
    (["horn-forward", "--mode", "tropical", "--n", "7", "--count", "1"],
     None, PRECONDITION),
    (["horn-forward", "--mode", "tropical", "--n", "-1", "--count", "1"],
     None, PRECONDITION),
    (["kappa-sample", "--r", "7,13,18,22,25,27,28",
      "--s", "7,13,18,22,25,27,28", "--count", "1", "--seed", "1"],
     None, PRECONDITION),
    (["kappa-sample", "--r", "1e308,0", "--s", "1,0", "--count", "2"],
     None, PRECONDITION),
] + [
    (["limit-sweep", "--taus=" + taus, "--weights"], SWEEP, PRECONDITION)
    for taus in ("0", "1e300", "-5,5", "1e-320", "5,5")
] + [
    (["measure-compare", "--r", "2,0", "--s", "1,0", "--count", "2",
      "--threshold=" + threshold], None, PRECONDITION)
    for threshold in ("nan", "0", "-1")
] + [
    (["sample", "--config"], {"r": [2, 0]}, PRECONDITION),
    (["sample", "--config"], {"seed": True}, PRECONDITION),
] + [
    # an empty field is a field: neither row is shifted into a 6-field triple
    (["kt-member", "--csv"], "a1,a2,b1,b2,c1,c2\n%s\n" % row, PRECONDITION)
    for row in ("1,,0,1,0,2,0", "1,0,1,0,2,0,")
] + [
    (["limit-sweep", "--taus=" + taus, "--weights"], SWEEP3, PRECONDITION)
    for taus in ("5,150", "200")
]


@pytest.mark.parametrize("argv, doc, code", MALFORMED)
def test_malformed_input_exit_code(argv, doc, code, tmp_path, capsys):
    if doc == "a directory":
        argv = argv + [str(tmp_path)]
    elif isinstance(doc, str):  # a CSV file
        (tmp_path / "doc.csv").write_text(doc, encoding="utf-8")
        argv = argv + [str(tmp_path / "doc.csv")]
    elif doc is not None:
        argv = argv + [_dump(tmp_path, "doc.json", doc)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# Spectra near the top of the float range, run as a real process so that a
# numpy warning would reach stderr: at 1e300 every pair still samples, through
# the exact route, and gives the rows it always gave; at 1e308 the pattern
# overflows and the run stops with one error line.
FLOAT_RANGE = [
    (["kappa-sample", "--r", "1e300,0", "--s", "1,0", "--count", "3",
      "--seed", "1"], PASS,
     ["a1,a2,b1,b2,c1,c2"] + ["1e+300,0.0,1.0,0.0,1e+300,0.0"] * 3, ""),
    (["kappa-sample", "--r", "1e308,0", "--s", "1,0", "--count", "3",
      "--seed", "1"], PRECONDITION, [],
     "error: input out of the float range"
     " (cannot convert Infinity to integer ratio)\n"),
]


def _out_of_range(cmd, r, s, reason, count="3"):
    """A run that exits 3 with no rows and one float-range error line."""
    return (cmd + ["--r", r, "--s", s, "--count", count, "--seed", "1"],
            PRECONDITION, [],
            "error: input out of the float range (%s)\n" % reason)


_NORM = "matrix norm out of the float range"
_WIDTH = "interlacing box width out of the float range"
_HERMITIAN = ["sample", "--generator", "hermitian-sum"]
_MULTIPLICATIVE = ["sample", "--generator", "multiplicative"]
# the matrix generators and the exceptional mass, where sums or exponentials
# of the spectra leave the float range: no numpy warning reaches stderr
FLOAT_RANGE += [
    _out_of_range(_HERMITIAN, "1e300,0", "1,0", _NORM),
    _out_of_range(_HERMITIAN, "1e308,0", "1e308,0", "non-finite matrix entry"),
    _out_of_range(_MULTIPLICATIVE, "1e300,0", "1,0", "math range error"),
    _out_of_range(_MULTIPLICATIVE, "1e308,0", "1e308,0",
                  "non-finite pattern entry"),
    _out_of_range(["exceptional-mass"], "1e300,0", "1,0", _NORM),
    _out_of_range(["exceptional-mass"], "1e308,0", "1e308,0",
                  "non-finite matrix entry"),
    # finite entries whose squares sum past the float range (the fourth
    # draw): refused like the Jacobi oracle refuses them
    _out_of_range(_HERMITIAN, "6e153,0", "6e153,0", _NORM, count="4"),
    # a finite spectrum whose interlacing box is wider than the float range
    _out_of_range(["kappa-sample"], "1.7e308,1.7e308,0", "1,0.5,0", _WIDTH),
    _out_of_range(_MULTIPLICATIVE, "1.7e308,1.7e308,0", "1,0.5,0", _WIDTH),
    # interlacing spectra whose exponentials are finite, but whose border
    # weight (e^600 - mu)(mu - 1) is not
    _out_of_range(_MULTIPLICATIVE, "300,0", "5,0",
                  "border weight out of the float range", count="5"),
    # spectra (10, 0, -10) and (8, 0, -8): the bordered matrix's condition
    # number e^40 is past 1/eps, and LAPACK's Cholesky refuses a draw
    (_MULTIPLICATIVE + ["--r", "10,10,0", "--s", "8,8,0", "--count", "300",
                        "--seed", "1"], PRECONDITION, [],
     "error: matrix is not positive definite\n"),
]


@pytest.mark.parametrize("argv, code, rows, err", FLOAT_RANGE,
                         ids=["1e300", "1e308",
                              "hermitian-sum-1e300", "hermitian-sum-1e308",
                              "multiplicative-1e300", "multiplicative-1e308",
                              "exceptional-mass-1e300",
                              "exceptional-mass-1e308",
                              "hermitian-sum-6e153", "kappa-sample-box-width",
                              "multiplicative-box-width",
                              "multiplicative-border-weight",
                              "multiplicative-wide-spectra"])
def test_float_range_spectra(argv, code, rows, err):
    run = subprocess.run([sys.executable, "-m", "hornlab"] + argv,
                         capture_output=True, text=True)
    assert run.returncode == code
    assert [ln for ln in run.stdout.splitlines()
            if not ln.startswith("#")] == rows
    assert run.stderr == err


def _run(argv, stdin=""):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_NUMBER_TEXT = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/0", "-1/2", "0.5", "inf", "nan", "1e400", "1e9999999",
                     "1e-9999999", "", "1//2", "abc"]),
    st.text(alphabet="0123456789/.-+eE", max_size=4))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(),
                     st.sampled_from([float("inf"), -float("inf"),
                                      float("nan")]),
                     _NUMBER_TEXT)
_JSON = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.sampled_from(["n", "rows", "role", "diagonals", "x"]),
                    inner, max_size=3)), max_leaves=8)
_SIZES = st.one_of(st.integers(-1, 3), _JSON)
_VECTORS = st.one_of(st.lists(_SCALARS, max_size=3), _JSON)
# entries of well-shaped documents: mostly exact numbers, sometimes junk
_ENTRIES = st.one_of(st.integers(-3, 3),
                     st.fractions(-3, 3, max_denominator=4).map(str), _SCALARS)


def _weighting(n):
    m = n * (n - 1) // 2
    return st.fixed_dictionaries({
        "n": st.just(n),
        "diagonals": st.lists(_ENTRIES, min_size=m, max_size=m),
        "sink_horizontals": st.lists(_ENTRIES, min_size=n, max_size=n)})


def _tableau(n):
    rows = st.tuples(*[st.lists(_ENTRIES, min_size=k, max_size=k)
                       .map(lambda row: ["0"] + row) for k in range(n + 1)])
    return st.fixed_dictionaries(
        {"n": st.just(n), "rows": rows.map(list)},
        optional={"role": st.sampled_from(["gz", "hive", "tropical-gz"])})


_WEIGHTINGS = st.one_of(_JSON, st.integers(1, 3).flatmap(_weighting),
                        st.fixed_dictionaries({
                            "n": _SIZES, "diagonals": _VECTORS,
                            "sink_horizontals": _VECTORS}))
_TABLEAUX = st.one_of(_JSON, st.integers(1, 3).flatmap(_tableau),
                      st.fixed_dictionaries({
                          "n": _SIZES,
                          "rows": st.one_of(st.lists(_VECTORS, max_size=5),
                                            st.lists(_SCALARS, min_size=1,
                                                     max_size=3), _JSON)},
                          optional={"role": _JSON}))
_DOCUMENTS = st.one_of(
    st.tuples(st.just(["trop-gz", "--weights", "-"]), _WEIGHTINGS),
    st.tuples(st.sampled_from([["lt-inverse", "--pattern", "-"],
                               ["gz-check", "--pattern", "-"],
                               ["hive-check", "--tableau", "-"]]), _TABLEAUX))


def _assert_contract(code, out, err, check_finished=False):
    assert code in (PASS, FAIL, USAGE, PRECONDITION), (code, err)
    if code == FAIL:
        assert check_finished and out == "fail\n"
    if code in (USAGE, PRECONDITION):
        assert out == "" and "error: " in err


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_fuzz_json_inputs_keep_the_exit_code_contract(case):
    argv, doc = case
    code, out, err = _run(argv, json.dumps(doc))
    _assert_contract(code, out, err, check_finished=argv[0] in ("gz-check",
                                                                "hive-check"))


_VECTOR_TEXT = st.one_of(
    st.sampled_from(["2,0", "1,0", "3,1,0", "2,1,0"]),
    st.lists(_NUMBER_TEXT, min_size=1, max_size=3).map(",".join),
    st.text(alphabet="0123456789,./-+eE", max_size=5))
_COUNT_TEXT = st.one_of(st.integers(-2, 12).map(str),
                        st.text(alphabet="0123456789-+x ", max_size=2))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([["kappa-sample"],
                        ["sample", "--generator", "hermitian-sum"],
                        ["sample", "--generator", "multiplicative"],
                        ["sample", "--generator", "tropical-kappa"]]),
       _COUNT_TEXT, _VECTOR_TEXT, _VECTOR_TEXT)
def test_fuzz_sample_settings_keep_the_exit_code_contract(cmd, count, r, s):
    argv = cmd + ["--count=" + count, "--r=" + r, "--s=" + s, "--seed", "1"]
    code, out, err = _run(argv)
    _assert_contract(code, out, err)
    assert code != FAIL


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([["kappa-sample"],
                        ["sample", "--generator", "hermitian-sum"],
                        ["sample", "--generator", "tropical-kappa"]]),
       _COUNT_TEXT, _VECTOR_TEXT, _VECTOR_TEXT)
def test_fuzz_sample_settings_read_the_same_from_flags_and_config(
        tmp_path_factory, cmd, count, r, s):
    cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg.write_text(json.dumps({"count": count, "r": r, "s": s}),
                   encoding="utf-8")
    by_flag = _run(cmd + ["--count=" + count, "--r=" + r, "--s=" + s,
                          "--seed", "1"])
    by_config = _run(cmd + ["--config", str(cfg), "--seed", "1"])
    if "--" in (count, r, s):  # argparse reserves '--' in a flag's value
        assert (by_flag[0], by_config[0]) == (USAGE, PRECONDITION)
    else:
        assert by_flag == by_config


def test_module_entry_point(tmp_path):
    # the installed package runs as python -m hornlab
    out = subprocess.run([sys.executable, "-m", "hornlab",
                          "gamma0", "--n", "1"],
                         capture_output=True, text=True)
    assert out.returncode == PASS
    assert json.loads(out.stdout)["rank"] == 1
