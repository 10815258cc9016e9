"""Tests for the command-line front end, exercised in process through
``main(argv)`` so exit codes and output routing are covered directly."""

import json
from pathlib import Path

import pytest

from charmod.anomaly import REGISTRY_IDS, VerificationReport
from charmod.cli import (
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_PRECISION,
    EXIT_USAGE,
    EXPANDABLE,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_single_id_text(capsys):
    code, out, err = run_cli(capsys, "verify", "--id", "wfh_main", "--order", "2")
    assert code == EXIT_PASS
    assert "wfh_main" in out
    assert "1/1 pass" in out
    assert err == ""


def test_verify_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--id", "o1", "--id", "o2", "--order", "2", "--format", "json"
    )
    assert code == EXIT_PASS
    payload = json.loads(out)
    reports = [VerificationReport.from_dict(entry) for entry in payload]
    assert [r.id for r in reports] == ["o1", "o2"]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("order", [6, 12, 24])
def test_verify_all_matches_golden_output(capsys, order):
    # the full registry JSON, byte for byte once the timings are removed
    code, out, _ = run_cli(
        capsys, "verify", "--id", "all", "--order", str(order), "--format", "json"
    )
    assert code == EXIT_PASS
    reports = json.loads(out)
    for report in reports:
        del report["millis"]
    golden = Path(__file__).parent / "golden" / ("registry_o%d.json" % order)
    assert json.dumps(reports, indent=2) + "\n" == golden.read_text()


def test_verify_unknown_id(capsys):
    code, out, err = run_cli(capsys, "verify", "--id", "nope")
    assert code == EXIT_USAGE
    assert "unknown id" in err


def test_verify_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--id",
        "bundle_xi_plus",
        "--order",
        "1",
        "--format",
        "json",
        "--output",
        str(target),
    )
    assert code == EXIT_PASS
    assert out == ""
    assert json.loads(target.read_text())[0]["id"] == "bundle_xi_plus"


def test_verify_output_to_a_missing_directory_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--id", "wfh_main", "--order", "1", "--output", str(target)
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: --output: cannot write %s: No such file or directory\n" % target


def test_an_unwritable_output_fails_before_any_check_runs(capsys, monkeypatch, tmp_path):
    def no_run(*args, **kwargs):
        raise AssertionError("run_registry ran before --output was checked")

    monkeypatch.setattr("charmod.cli.run_registry", no_run)
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--id", "all", "--order", "24", "--output", str(target)
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: --output: cannot write %s: No such file or directory\n" % target


def test_the_output_check_truncates_nothing(capsys, tmp_path):
    # the unknown id is found after --output is checked, so the file stays whole
    target = tmp_path / "report.json"
    target.write_text("kept\n")
    code, out, err = run_cli(capsys, "verify", "--id", "bogus", "--output", str(target))
    assert code == EXIT_USAGE
    assert "unknown id" in err
    assert target.read_text() == "kept\n"


def test_a_failed_command_leaves_no_file_the_output_check_made(capsys, tmp_path):
    # the check creates the file to prove it writable; exit 2 removes it again
    target = tmp_path / "new.json"
    code, out, err = run_cli(capsys, "verify", "--id", "bogus", "--output", str(target))
    assert code == EXIT_USAGE
    assert "unknown id" in err
    assert not target.exists()
    code, _, _ = run_cli(
        capsys, "verify", "--id", "wfh_main", "--order", "1", "--output", str(target)
    )
    assert code == EXIT_PASS
    assert "wfh_main" in target.read_text()


def test_verify_rejects_cap_below_12(capsys):
    # a cap of 8 drops every degree-12 part, so both sides would be 0
    code, out, err = run_cli(capsys, "verify", "--id", "fact_spinc_q", "--cap", "8")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == (
        "error: cap must be at least 12 to hold the degree-12 parts and at most 15 "
        "to leave V a character in x alone, got 8\n"
    )


def test_verify_rejects_cap_above_15(capsys):
    # above degree 15 E8 has a Weyl invariant of degree 8 in the roots, so
    # the E8 bundle V has no character in x alone
    code, out, err = run_cli(capsys, "verify", "--id", "all", "--cap", "16", "--order", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: " in err and "at most 15" in err


@pytest.mark.parametrize("order", ["0", "-1"])
def test_verify_rejects_order_below_1(capsys, order):
    code, out, err = run_cli(capsys, "verify", "--id", "fact_spinc_q", "--order", order)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: order must be at least 1 to match q^1 in the fact checks, got %s\n" % order


# ----------------------------------------------------------------------
# expand
# ----------------------------------------------------------------------


def test_expand_polynomial_class(capsys):
    code, out, _ = run_cli(capsys, "expand", "--class", "Ahat", "--cap", "8")
    assert code == EXIT_PASS
    assert "p1" in out


def test_expand_q_series(capsys):
    code, out, _ = run_cli(capsys, "expand", "--class", "Wc", "--order", "1")
    assert code == EXIT_PASS
    assert "q^0" in out and "q^1" in out


def test_expand_unknown_class(capsys):
    code, out, err = run_cli(capsys, "expand", "--class", "nope")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: argument --class: invalid choice: 'nope'")


@pytest.mark.parametrize("name", EXPANDABLE)
def test_expand_rejects_negative_order(capsys, name, tmp_path):
    # checked where --order is parsed, so Ahat and Lhat, which read no
    # order, reject it too, and no --output file is made
    target = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, "expand", "--class", name, "--order", "-1", "--output", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: argument --order: the series order must be at least 0, got -1\n"
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["expand", "--class", "Qc", "--order", "-1"],
         "argument --order: the series order must be at least 0, got -1"),
        (["verify", "--order", "x"], "argument --order: invalid int value: 'x'"),
        (["expand", "--class", "Qc", "--cap", "-1"], "the degree cap must be at least 0, got -1"),
        (["verify", "--id", "nope"], "unknown id 'nope' (known: %s)" % ", ".join(REGISTRY_IDS)),
    ],
    ids=["expand-order", "verify-order", "expand-cap", "verify-id"],
)
def test_every_usage_error_is_one_error_line(capsys, argv, message):
    # the parser's own errors and the commands' read alike: no usage lines
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: charmod")


@pytest.mark.parametrize("name", EXPANDABLE)
def test_expand_accepts_order_0(capsys, name):
    code, out, err = run_cli(capsys, "expand", "--class", name, "--order", "0")
    assert code == EXIT_PASS
    assert out and err == ""


def test_expand_rejects_negative_cap(capsys):
    code, out, err = run_cli(capsys, "expand", "--class", "Qc", "--cap", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: the degree cap must be at least 0, got -1\n"


@pytest.mark.parametrize("name", EXPANDABLE)
def test_expand_rejects_a_cap_above_15_for_every_class(capsys, name):
    # every class starts from Pontryagin root data through pi_3, so its
    # degree-16 part would miss pi_4 (Ahat's p1^4 would read 37/51609600)
    code, out, err = run_cli(capsys, "expand", "--class", name, "--cap", "16", "--order", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: " in err and "pi_4" in err


# ----------------------------------------------------------------------
# lattice
# ----------------------------------------------------------------------


def write_lattice(tmp_path, payload, name="lat.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_lattice_pass(capsys, tmp_path):
    path = write_lattice(
        tmp_path, {"rank": 1, "trilinear": [[[1]]], "a": [2], "seed": 3}
    )
    code, out, _ = run_cli(capsys, "lattice", "--file", path)
    assert code == EXIT_PASS
    assert "bhat: [4]" in out
    assert "passed: True" in out


def test_lattice_json_report(capsys, tmp_path):
    path = write_lattice(tmp_path, {"rank": 1, "trilinear": [[[1]]], "a": [0]})
    code, out, _ = run_cli(capsys, "lattice", "--file", path, "--format", "json")
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["bhat"] == [4]
    assert report["characteristic"] is True
    assert report["relations"]["passed"] is True


def test_lattice_no_solution(capsys, tmp_path):
    path = write_lattice(tmp_path, {"rank": 1, "trilinear": [[[1]]], "a": [1]})
    code, out, _ = run_cli(capsys, "lattice", "--file", path, "--format", "json")
    assert code == EXIT_FAIL
    report = json.loads(out)
    assert report["bhat"] is None
    # with no bhat there are no relations, so the command decides this itself
    assert report["characteristic"] is False
    assert "defect" in report["no_solution"]
    assert any("not characteristic" in w for w in report.get("warnings", []))


def test_lattice_decides_each_fact_once(capsys, tmp_path, monkeypatch):
    # solve_bhat runs its certificate once, the relations decide whether a
    # is characteristic, and the report reads that verdict from them
    import charmod.cli as cli
    import charmod.cubiclattice as cubiclattice

    calls = {"is_characteristic": 0, "solve_bhat": 0}
    for name in calls:
        original = getattr(cubiclattice, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cubiclattice, name, counted)
        monkeypatch.setattr(cli, name, counted)
    tensor = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    path = write_lattice(tmp_path, {"rank": 2, "trilinear": tensor, "a": [0, 0]})
    code, out, _ = run_cli(capsys, "lattice", "--file", path, "--format", "json")
    assert code == EXIT_PASS
    assert json.loads(out)["characteristic"] is True
    assert calls == {"is_characteristic": 2, "solve_bhat": 1}


@pytest.mark.parametrize("modulus", [3, 12])
def test_lattice_without_b_for_a_non_characteristic_a(capsys, tmp_path, modulus):
    # bhat exists mod 3 and mod 12, but the relations need b when a is not
    # characteristic: a usage error that names b, not an internal error
    path = write_lattice(
        tmp_path, {"rank": 1, "trilinear": [[[1]]], "a": [1], "modulus": modulus}
    )
    code, out, err = run_cli(capsys, "lattice", "--file", path)
    assert code == EXIT_USAGE
    assert out == ""
    assert "not characteristic" in err and "must give b" in err


def test_lattice_entries_past_int64(capsys, tmp_path):
    # b, a and the tensor may exceed 2^63: they stay exact Python ints
    path = write_lattice(
        tmp_path, {"rank": 1, "trilinear": [[[1]]], "a": [2], "b": [2**63 + 20]}
    )
    code, out, _ = run_cli(capsys, "lattice", "--file", path, "--format", "json")
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["bhat"] == [4]
    relations = report["relations"]
    assert relations["b"] == [2**63 + 20]
    assert relations["b_congruent_mod24"] is True
    assert relations["refine48"]["passed"] is True
    assert relations["refine24"]["passed"] is True

    # T = 2^63 = 8, a = 2^64 = 16 (mod 24): 4*8 + 6*8*16 + 3*8*16^2 = 8
    path = write_lattice(
        tmp_path, {"rank": 1, "trilinear": [[[2**63]]], "a": [2**64]}, name="big.json"
    )
    code, out, _ = run_cli(capsys, "lattice", "--file", path, "--format", "json")
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["characteristic"] is True
    assert report["bhat"] == [8]
    assert report["relations"]["passed"] is True


def test_lattice_rejects_entries_that_are_not_integers(capsys, tmp_path):
    for payload in (
        {"rank": 1, "trilinear": [[[1.5]]], "a": [2]},
        {"rank": 1, "trilinear": [[[1]]], "a": [2.5]},
        {"rank": 1, "trilinear": [[[1]]], "a": [2], "b": [4.5]},
    ):
        path = write_lattice(tmp_path, payload)
        code, out, err = run_cli(capsys, "lattice", "--file", path)
        assert code == EXIT_USAGE, payload
        assert "must be" in err and "integers" in err, err


def test_lattice_bad_file(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, "lattice", "--file", missing)
    assert code == EXIT_USAGE
    assert "cannot load" in err

    invalid = write_lattice(tmp_path, {"rank": 1}, name="bad.json")
    code, out, err = run_cli(capsys, "lattice", "--file", invalid)
    assert code == EXIT_USAGE

    # only an absent a or b takes the default: [] and 0 are malformed, not zero or unset
    rank2 = {"rank": 2, "trilinear": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}
    for payload in (
        {"rank": None, "trilinear": [[[1]]]},
        {"rank": 1, "trilinear": [[[1]]], "modulus": 5},
        dict(rank2, a=[]),
        dict(rank2, a=0),
        dict(rank2, b=[]),
        dict(rank2, b=0),
        # JSON true and false are not integers, though Python's bool is an int
        {"rank": True, "trilinear": [[[True]]], "a": [False]},
        {"rank": True, "trilinear": [[[1]]]},
        {"rank": 1, "trilinear": [[[True]]]},
        dict(rank2, a=[False, 0]),
        dict(rank2, b=[0, True]),
    ):
        invalid = write_lattice(tmp_path, payload, name="bad.json")
        code, out, err = run_cli(capsys, "lattice", "--file", invalid)
        assert code == EXIT_USAGE, payload
        assert "cannot load" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "must hold a JSON object"),
        ('"lattice"', "must hold a JSON object"),
        ("24", "must hold a JSON object"),
        ("null", "must hold a JSON object"),
        ("[" * 100000 + "]" * 100000, "nested too deeply"),
    ],
    ids=["list", "string", "number", "null", "deep"],
)
def test_lattice_file_without_a_json_object(capsys, tmp_path, text, message):
    # json.load reads each of these, but none is a lattice
    path = tmp_path / "lat.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "lattice", "--file", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert "cannot load" in err and message in err


# ----------------------------------------------------------------------
# e8
# ----------------------------------------------------------------------


def test_e8_comparison(capsys):
    code, out, _ = run_cli(capsys, "e8", "--order", "3")
    assert code == EXIT_PASS
    assert "[1, 240, 2160, 6720]" in out
    assert "[1, 248, 4124, 34752]" in out
    assert "equal: true" in out


def test_e8_matches_golden_output(capsys):
    code, out, _ = run_cli(capsys, "e8", "--order", "12")
    assert code == EXIT_PASS
    assert out == (Path(__file__).parent / "golden" / "e8_o12.txt").read_text()


@pytest.mark.parametrize("order", ["13", "-1"])
def test_e8_rejects_order_outside_0_to_12(capsys, order):
    code, out, err = run_cli(capsys, "e8", "--order", order)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: order must be between 0 and 12 for the lattice count, got %s\n" % order


def test_e8_output_to_a_directory_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "e8", "--order", "2", "--output", str(tmp_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: --output: cannot write %s: Is a directory\n" % tmp_path


# ----------------------------------------------------------------------
# theta-check
# ----------------------------------------------------------------------


def test_theta_check_text(capsys):
    code, out, _ = run_cli(
        capsys, "theta-check", "--kind", "theta", "--tau", "2i", "--v", "0.3+0.1i"
    )
    assert code == EXIT_PASS
    assert "passed: True" in out


def test_theta_check_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "theta-check",
        "--kind",
        "E2",
        "--tau",
        "0.5+1.5i",
        "--format",
        "json",
    )
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["kind"] == "E2"


def test_theta_check_bad_tau(capsys):
    # lower half plane is rejected as a usage problem
    code, out, err = run_cli(capsys, "theta-check", "--kind", "theta", "--tau=0-2i")
    assert code == EXIT_USAGE
    assert "tau" in err


@pytest.mark.parametrize(
    "kind, point",
    [("theta1", ["--tau=0.1+1i", "--v=nan"]), ("E2", ["--tau=0.1+nani"])],
    ids=["v-nan", "tau-nan"],
)
def test_theta_check_rejects_non_finite_points(capsys, kind, point):
    # a nan point made the tail bound nan, reported as a precision failure
    code, out, err = run_cli(capsys, "theta-check", "--kind", kind, *point)
    assert code == EXIT_USAGE
    assert out == ""
    assert "must be finite" in err


def test_theta_check_unparseable_tau(capsys):
    code, out, err = run_cli(capsys, "theta-check", "--kind", "theta", "--tau", "abc")
    assert code == EXIT_USAGE
    assert "cannot parse" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--terms", "0", "terms must be at least 1"),
        ("--terms", "-5", "terms must be at least 1"),
        ("--tol", "-1", "tol must be finite and positive"),
        ("--tol", "0", "tol must be finite and positive"),
        ("--tol", "nan", "tol must be finite and positive"),
        ("--tol", "inf", "tol must be finite and positive"),
    ],
)
def test_theta_check_rejects_meaningless_terms_and_tol(capsys, flag, value, message):
    # a tol of inf would pass having checked nothing; the others cannot be met
    code, out, err = run_cli(
        capsys, "theta-check", "--kind", "theta", "--tau", "2i", flag + "=" + value
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "kind, point",
    [
        ("theta", ["--tau=0.02i", "--terms=6"]),
        # the tail bound's exponentials overflow, or |z| underflows to 0
        ("theta", ["--tau=0.1+1i", "--v=0+100i"]),
        ("theta1", ["--tau=0.1+1i", "--v=0-1e200i"]),
        ("theta2", ["--tau=0.1+1i", "--v=0+1e200i"]),
        ("E2", ["--tau=0.1+1i", "--v=1e300"]),
    ],
    ids=["few-terms", "v-100i", "v-minus-1e200i", "v-1e200i", "v-1e300"],
)
def test_theta_check_precision_exit(capsys, kind, point):
    code, out, err = run_cli(capsys, "theta-check", "--kind", kind, *point)
    assert code == EXIT_PRECISION
    assert out == ""
    assert err.startswith("precision: ")
