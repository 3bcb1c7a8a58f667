import contextlib
import enum
import functools
import hashlib
import io
import json
import math
import os
import re
import sys
import time
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from punits import cli, oracle, theory, zpelin
from punits.cli import (
    SuiteConfig,
    SuiteInstance,
    default_suite_config,
    emit_report,
    main,
    parse_report_json,
    run_suite,
)
from punits.pgroup import GroupSpec
from punits.ring import RingSpec

from .helpers import SUITE_SHA256, alarm, fresh_python, partitions, stdlib_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_schema(reports) -> dict:
    """The README's JSON report schema as a dict, filled from the reports:
    emit_report's text must be its stdlib rendering."""
    checks = [c for r in reports for c in r.checks]
    failures = sum(not c.passed for c in checks)
    return {
        "instances": [
            {
                "group": {"p": r.group.p, "lambda": list(r.group.lambdas)},
                "e": r.e,
                "v_order": {"base": r.group.p, "exp": r.v_order_exp},
                "invariants": [
                    {"order_exp": exp, "multiplicity": mult} for exp, mult in r.invariants.entries
                ],
                "checks": [
                    {"id": c.check_id, "verdict": c.verdict, "predicted": c.predicted,
                     "observed": c.observed, "seed": c.seed}
                    for c in r.checks
                ],
            }
            for r in reports
        ],
        "summary": {"total_checks": len(checks), "failures": failures, "all_pass": failures == 0},
    }


def closed_form_instance(group: GroupSpec, e: int) -> cli.InstanceReport:
    """The report that `invariants` writes for (G, e)."""
    rep = theory.structure_report(group, e)
    return cli.InstanceReport(group, e, rep.v_order_exp, rep.v_invariants)


class TestInvariantsCommand:
    def test_corollary_text(self, capsys):
        code, out, _ = run(capsys, "invariants", "--p", "2", "--lambda", "1", "--e", "3")
        assert code == 0
        assert "V ≅ C_2 × C_4" in out

    # The text is verify's instance block; lambda = 11 lies past the dense
    # table cap, and e = 10^12 past the characteristic cap.
    @pytest.mark.parametrize(
        "lam, e, text",
        [
            ("3,1", 1, "p=2;lambda=3,1;e=1\n  |V| = 2^15\n  V ≅ C_2^10 × C_4 × C_8\n"),
            ("3,1", 2, "p=2;lambda=3,1;e=2\n  |V| = 2^30\n  V ≅ C_2^6 × C_4^9 × C_8^2\n"),
            ("11", 2, "p=2;lambda=11;e=2\n  |V| = 2^4094\n  V ≅ C_2^1024 × C_4^512 × C_8^256"
                      " × C_16^128 × C_32^64 × C_64^32 × C_128^16 × C_256^8 × C_512^4"
                      " × C_1024^2 × C_2048^2\n"),
            ("1", 10 ** 12, "p=2;lambda=1;e=1000000000000\n  |V| = 2^1000000000000\n"
                            "  V ≅ C_2 × C_{2^999999999999}\n"),
        ],
        ids=["3,1;e=1", "3,1;e=2", "11;e=2", "1;e=10^12"],
    )
    def test_full_text(self, capsys, lam, e, text):
        argv = ("invariants", "--p", "2", "--lambda", lam, "--e", str(e))
        assert run(capsys, *argv) == (0, text, "")
        group = GroupSpec(2, tuple(map(int, lam.split(","))))
        assert emit_report([closed_form_instance(group, e)], "text") == text

    @pytest.mark.parametrize(
        "lam, e", [("3,1", 2), ("11", 2), ("1", 10 ** 12)], ids=["3,1;e=2", "11;e=2", "1;e=10^12"]
    )
    def test_json_is_a_formula_only_suite(self, capsys, tmp_path, lam, e):
        path = tmp_path / "suite.json"
        instance = {"group": f"p=2;lambda={lam}", "e": e, "formula_only": True}
        path.write_text(json.dumps({"instances": [instance]}))
        suite = run(capsys, "suite", "--config", str(path))
        argv = ("invariants", "--p", "2", "--lambda", lam, "--e", str(e), "--format", "json")
        assert run(capsys, *argv) == suite
        assert suite[0] == 0 and json.loads(suite[1])["instances"][0]["checks"] == []

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--p", "2", "--lambda", "1", "--e", "3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        inst = payload["instances"][0]
        assert inst["group"] == {"p": 2, "lambda": [1]}
        assert inst["v_order"] == {"base": 2, "exp": 3}
        assert inst["invariants"] == [
            {"order_exp": 1, "multiplicity": 1},
            {"order_exp": 2, "multiplicity": 1},
        ]
        assert inst["checks"] == []

    def test_lambda_canonicalized_in_output(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--p", "2", "--lambda", "1,2", "--e", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["instances"][0]["group"]["lambda"] == [2, 1]

    def test_huge_e_stays_symbolic(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--p", "2", "--lambda", "1", "--e", "64",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["instances"][0]["v_order"] == {"base": 2, "exp": 64}

    def test_group_past_the_materialization_cap(self, capsys):
        # |G| = 2^128: the l copies of C_{2^8} are one exact multiplicity
        code, out, _ = run(
            capsys, "invariants", "--p", "2", "--lambda", "64,64", "--e", "9",
            "--format", "json",
        )
        assert code == 0
        # |G^{2^i}| = 2^{2(64-i)}; G itself has two cyclic factors of order 2^64
        sizes = [2 ** (2 * max(64 - i, 0)) for i in range(66)]
        s = [sizes[i - 1] - 2 * sizes[i] + sizes[i + 1] for i in range(1, 65)]
        s[63] -= 2
        pairs = json.loads(out)["instances"][0]["invariants"]
        assert {"order_exp": 8, "multiplicity": 2 ** 128 - 1 - sum(s)} in pairs

    def test_huge_order_exponent_in_text(self, capsys):
        code, out, _ = run(capsys, "invariants", "--p", "2", "--lambda", "1", "--e", "20000")
        assert code == 0
        assert "V ≅ C_2 × C_{2^19999}" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unprintable_number_prints_only_the_error(self, capsys, fmt):
        # |V| = 2^{2(2^2200 - 1)}: its exponent has 663 digits, past the
        # lowered int-to-str limit, so no line of the answer may come out.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(
                capsys, "invariants", "--p", "2", "--lambda", "2200", "--e", "2",
                "--format", fmt,
            )
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["invariants-text", "invariants-json", "suite"])
    def test_unprintable_number_is_refused_before_the_closed_forms(
        self, capsys, monkeypatch, tmp_path, command
    ):
        # The refusal reads only e(|G| - 1): with the closed forms made to
        # fail, the answer is still exit 2 and one error line.
        def unreachable(spec):
            raise AssertionError("the closed forms ran")

        monkeypatch.setattr(theory, "vzp_factor_counts", unreachable)
        if command == "suite":
            path = tmp_path / "suite.json"
            instance = {"p": 2, "lambda": [2200], "e": 2, "formula_only": True}
            path.write_text(json.dumps({"instances": [instance]}))
            argv = ["suite", "--config", str(path)]
        else:
            argv = ["invariants", "--p", "2", "--lambda", "2200", "--e", "2",
                    "--format", command.split("-")[1]]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "640 digits" in err

    def test_number_at_the_digit_limit_still_prints(self, capsys):
        # e(|G| - 1) = 2^2200 - 1 has exactly 663 digits.
        group = GroupSpec(2, (2200,))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(663)
        try:
            code, out, _ = run(
                capsys, "invariants", "--p", "2", "--lambda", "2200", "--e", "1",
                "--format", "json",
            )
            assert out == stdlib_json(report_schema([closed_form_instance(group, 1)]))
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert json.loads(out)["instances"][0]["v_order"]["exp"] == 2 ** 2200 - 1

    def test_json_is_the_stdlib_rendering(self):
        # What `invariants --format json` prints for every closed-form query
        # with p = 2, |lambda| <= 6 and p = 3, |lambda| <= 4, each at e = 1, 2, 3.
        queries = [
            (GroupSpec(p, lam), e)
            for p, top in ((2, 6), (3, 4))
            for n in range(1, top + 1)
            for lam in partitions(n)
            for e in (1, 2, 3)
        ]
        assert len(queries) == 120
        for group, e in queries:
            instance = closed_form_instance(group, e)
            assert emit_report([instance], "json") == stdlib_json(report_schema([instance]))


class TestOrderCommand:
    def test_paper_unit(self, capsys):
        code, out, _ = run(
            capsys, "order", "--p", "2", "--lambda", "1", "--e", "3",
            "--coeffs", "7,2",
        )
        assert code == 0
        assert out.strip() == "4"

    def test_json_base_exp_pair(self, capsys):
        code, out, _ = run(
            capsys, "order", "--p", "2", "--lambda", "1", "--e", "3",
            "--coeffs", "7,2", "--format", "json",
        )
        assert code == 0
        assert out == stdlib_json({"order": {"base": 2, "exp": 2}})

    def test_non_unit_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "order", "--p", "2", "--lambda", "1", "--e", "2",
            "--coeffs", "0,2",
        )
        assert code == 2
        assert "normalized unit" in err


class TestReduceCommand:
    def test_digitwise(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--p", "2", "--lambda", "1", "--e", "3",
            "--coeffs", "7,2", "--to", "2",
        )
        assert code == 0
        assert out.strip() == "p=2;lambda=1;e=2;coeffs=3,2"


class TestDimsubCommand:
    def test_formula_only(self, capsys):
        code, out, _ = run(
            capsys, "dimsub", "--p", "2", "--lambda", "3", "--e", "2", "--n", "2",
        )
        assert code == 0
        assert "D_2 = G^4" in out

    def test_whole_group(self, capsys):
        code, out, _ = run(
            capsys, "dimsub", "--p", "2", "--lambda", "1", "--e", "1", "--n", "1",
        )
        assert code == 0
        assert "D_1 = G" in out

    def test_oracle_agrees(self, capsys):
        code, out, _ = run(
            capsys, "dimsub", "--p", "2", "--lambda", "2", "--e", "2",
            "--n", "2", "--oracle",
        )
        assert code == 0
        assert "oracle agreement: pass" in out

    def test_oracle_on_a_large_group(self, capsys):
        # |G| = 256: only the three levels asked for are built.
        code, out, _ = run(
            capsys, "dimsub", "--p", "2", "--lambda", "8", "--e", "1", "--n", "3",
            "--oracle",
        )
        assert code == 0
        assert "oracle agreement: pass" in out

    def test_oracle_past_the_nilpotency_index(self, capsys):
        # lemma3 takes any n >= 1, not only the planned 1 ... nu (nu = 4 here).
        code, out, _ = run(
            capsys, "dimsub", "--p", "2", "--lambda", "2", "--e", "1", "--n", "9",
            "--oracle",
        )
        assert (code, out) == (0, "D_9 = G^16\noracle agreement: pass\n")

    def test_oracle_at_a_huge_n_reads_no_level_past_d_n_trivial(self, capsys):
        # At e = 1 any n is one comparison with G's depths, and no chain
        # level is built; a step per level up to n would not end.
        zpelin._chain.cache_clear()
        with alarm(5):
            rs = RingSpec(GroupSpec(2, (2,)), 1)
            assert oracle.verify_check("lemma3", rs, {"n": 10 ** 12}).passed
            code, out, _ = run(
                capsys, "dimsub", "--p", "2", "--lambda", "2", "--e", "1",
                "--n", str(10 ** 12), "--oracle",
            )
        assert code == 0
        assert out.endswith("oracle agreement: pass\n")
        assert zpelin._chain.cache_info().currsize == 0

    def test_oracle_at_a_huge_n_at_e2_stops_the_walk_at_d_n_trivial(self, capsys, monkeypatch):
        # At e = 2, D_n = {1} from n = 2 on (nu = 6): every g != 1 has depth
        # 1, so G's depths take one test against R_2 alone, whatever n is,
        # and no chain is built.
        def refused(*args):
            raise AssertionError("an ideal chain was built")

        monkeypatch.setattr(zpelin._IdealChain, "__init__", refused)
        zpelin._depths.cache_clear()
        zpelin._remainder.cache_clear()
        rs = RingSpec(GroupSpec(2, (2,)), 2)
        with alarm(5):
            assert oracle.verify_check("lemma3", rs, {"n": 10 ** 12}).passed
            code, out, _ = run(
                capsys, "dimsub", "--p", "2", "--lambda", "2", "--e", "2",
                "--n", str(10 ** 12), "--oracle",
            )
        assert code == 0
        assert out.endswith("oracle agreement: pass\n")
        assert zpelin._depths(rs).tolist() == [6, 1, 1, 1]
        assert zpelin._remainder.cache_info().currsize == 1

    def test_oracle_at_e1_builds_no_ideal_chain(self, capsys, monkeypatch):
        # |G| = 1024 at n = 600: at e = 1 lemma3 reads G's depths, the
        # least degrees, and builds no R_n; a chain built on the way would
        # fail the run.
        def refused(*args):
            raise AssertionError("an ideal chain was built at e = 1")

        zpelin._depths.cache_clear()
        zpelin._remainder.cache_clear()
        monkeypatch.setattr(zpelin._IdealChain, "__init__", refused)
        code, out, _ = run(
            capsys, "dimsub", "--p", "2", "--lambda", "10", "--e", "1", "--n", "600",
            "--oracle",
        )
        assert (code, out) == (0, "D_600 = G^1024\noracle agreement: pass\n")
        assert zpelin._remainder.cache_info().currsize == 0

    def test_default_suite_and_the_ideals_rings_build_no_chain(self, capsys, monkeypatch):
        # No check builds an ideal chain: the default suite, in process,
        # keeps its bytes with _IdealChain.__init__ raising, and so do
        # nu and lemma3 at every n up to it on the ten rings of perfbench's
        # ideals workload.
        def refused(*args):
            raise AssertionError("an ideal chain was built")

        zpelin._chain.cache_clear()
        monkeypatch.setattr(zpelin._IdealChain, "__init__", refused)
        code, out, _ = run(capsys, "suite")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SUITE_SHA256
        for p, lams, e in [
            (2, (3, 3), 1), (2, (6,), 1), (2, (2, 2, 2), 1), (2, (1,) * 6, 1), (2, (4, 2), 2),
            (2, (2, 1, 1), 3), (3, (2, 2), 1), (3, (4,), 1), (3, (1, 1, 1), 2), (7, (2,), 1),
        ]:
            rs = RingSpec(GroupSpec(p, lams), e)
            for n in range(1, zpelin.nilpotency_index(rs) + 1):
                assert oracle.verify_check("lemma3", rs, {"n": n}).passed

    def test_oracle_at_e2_on_ten_factors_stays_small(self):
        # C_2^10 at e = 2 (|G| = 1024): lemma3 reads G's depths, whose
        # columns are transformed in blocks, and builds no Howell form 1024
        # columns wide (G's own chain peaked at 293 MB).  A fresh
        # interpreter runs the command as its one child and reports that
        # child's peak RSS (ru_maxrss, in KiB on Linux).
        wrapper = (
            "import json, resource, subprocess, sys\n"
            "run = subprocess.run([sys.executable, '-m', 'punits', *sys.argv[1:]],"
            " capture_output=True, text=True)\n"
            "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "print(json.dumps([run.returncode, run.stdout, peak]))\n"
        )
        argv = "dimsub --p 2 --lambda 1,1,1,1,1,1,1,1,1,1 --e 2 --n 3 --oracle"
        proc = fresh_python("-c", wrapper, *argv.split())
        code, out, peak_kib = json.loads(proc.stdout)
        assert (code, out) == (0, "D_3 = G^8\noracle agreement: pass\n")
        assert peak_kib < 100 << 10

    @pytest.mark.parametrize("e", ["20000", "1000000"])
    def test_answer_past_the_digit_limit_is_refused(self, capsys, e):
        # D_2 = G^(2^e), and 2^20000 has 6021 digits, past the default
        # int-to-str limit of 4300: refused before the power is built.
        code, out, err = run(
            capsys, "dimsub", "--p", "2", "--lambda", "1", "--e", e, "--n", "2",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: D_2 = G^(2^{e}): 2^{e} has more than 4300 digits, "
            f"past the int-to-str limit\n"
        )

    def test_answer_below_the_digit_limit_prints(self, capsys):
        # 2^14000 has 4215 digits.
        code, out, _ = run(
            capsys, "dimsub", "--p", "2", "--lambda", "1", "--e", "14000", "--n", "2",
        )
        assert (code, out) == (0, f"D_2 = G^{2 ** 14000}\n")

    @pytest.mark.parametrize("e", ["1", "40"])
    def test_oracle_failure_leaves_only_the_error_line(self, capsys, e):
        # |G| = 2048 is past the dense table cap, and 2^40 past the
        # characteristic cap; the formula's line must not come out alone.
        code, out, err = run(
            capsys, "dimsub", "--p", "2", "--lambda", "5,6", "--e", e, "--n", "2",
            "--oracle",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def _past_digit_limit(base: int, exp: int) -> bool:
    try:
        cli._check_digits(base, exp, "x")
    except ValueError as exc:
        assert str(exc).startswith("x has more than ")
        return True
    return False


def test_digit_limit_predicate():
    # base**exp is refused iff it is at least 10^limit, decided exactly
    # next to the limit and without building it far from it.
    assert _past_digit_limit(2, 10 ** 30)
    assert _past_digit_limit(2 ** 64 - 59, 10 ** 30)
    assert not _past_digit_limit(0, 10 ** 30)
    assert not _past_digit_limit(1, 10 ** 30)
    assert not _past_digit_limit(10 ** 30, 0)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        for base in (2, 3, 7, 10, 99, 2 ** 61 - 1, 10 ** 640 - 1, 10 ** 640):
            near = round(640 / math.log10(base))
            for exp in range(max(near - 2, 0), near + 3):
                expected = base ** exp >= 10 ** 640
                assert _past_digit_limit(base, exp) == expected, (base, exp)
        sys.set_int_max_str_digits(0)  # no limit
        assert not _past_digit_limit(2, 10 ** 30)
    finally:
        sys.set_int_max_str_digits(limit)


class TestOutPath:
    @pytest.mark.parametrize(
        "argv", [("verify", "--p", "2", "--lambda", "1", "--e", "1"), ("suite",)]
    )
    def test_missing_directory_fails_before_any_check(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        target = str(tmp_path / "missing" / "x.json")
        runs = []
        monkeypatch.setattr(cli, "run_suite", runs.append)
        code, out, err = run(capsys, *argv, "--out", target)
        assert (code, out, runs) == (2, "", [])
        assert err == f"error: cannot write {target}: its directory does not exist\n"

    @pytest.mark.parametrize(
        "argv", [("verify", "--p", "2", "--lambda", "1", "--e", "1"), ("suite",)]
    )
    def test_directory_fails_before_any_check(self, capsys, monkeypatch, tmp_path, argv):
        runs = []
        monkeypatch.setattr(cli, "run_suite", runs.append)
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert (code, out, runs) == (2, "", [])
        assert err == f"error: cannot write {tmp_path}: it is a directory\n"

    def test_write_error_names_the_given_path(self, tmp_path):
        # A directory as the target fails at the final rename; the error
        # names it, not the temporary file, and no temporary file is left.
        with pytest.raises(OSError) as info:
            cli._write_atomic(str(tmp_path), "x")
        assert str(info.value).startswith(f"cannot write {tmp_path}: ")
        assert list(tmp_path.iterdir()) == []


class TestVerifyCommand:
    def test_single_check_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--p", "2", "--lambda", "1,1", "--e", "2",
            "--checks", "theorem2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        checks = payload["instances"][0]["checks"]
        assert [c["id"] for c in checks] == ["theorem2"]
        assert checks[0]["verdict"] == "pass"

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--p", "2", "--lambda", "1", "--e", "2",
            "--checks", "lemma1",
        )
        assert code == 2
        assert "unknown check" in err

    def test_inapplicable_check_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--p", "2", "--lambda", "1", "--e", "1",
            "--checks", "theorem1",
        )
        assert code == 2

    def test_budget_violation_is_exit_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "--p", "3", "--lambda", "1", "--e", "2",
            "--checks", "theorem2", "--budget", "80",
        )
        assert code == 2

    def test_out_file_is_written(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "verify", "--p", "2", "--lambda", "1", "--e", "2",
            "--checks", "theorem2", "--out", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["summary"]["all_pass"] is True

    def test_text_with_out_writes_the_json_report(self, capsys, tmp_path):
        # --out takes the bytes that --format json prints, whatever --format
        # prints; the text differs from the report's own only in its timings.
        target = tmp_path / "report.json"
        argv = ("verify", "--p", "2", "--lambda", "1", "--e", "2", "--checks", "theorem1,theorem2")
        code, text, _ = run(capsys, *argv, "--format", "text", "--out", str(target))
        assert code == 0
        _, payload, _ = run(capsys, *argv, "--format", "json")
        assert target.read_bytes() == payload.encode()
        timing = re.compile(r"\(\d+\.\d{3}s\)")
        expected = emit_report(parse_report_json(payload), "text")
        assert timing.sub("", text) == timing.sub("", expected)

    @pytest.mark.parametrize("command", ["invariants", "verify"])
    def test_text_alone_forms_no_json_report(self, capsys, monkeypatch, command):
        formats = []

        def emit(reports, fmt="json"):
            formats.append(fmt)
            return emit_report(reports, fmt)

        monkeypatch.setattr(cli, "emit_report", emit)
        code, _, _ = run(capsys, command, "--p", "2", "--lambda", "1", "--e", "2")
        assert (code, formats) == (0, ["text"])

    # |G| = 2^21 lies past the materialization cap too; the table cap is
    # decided from |G|'s exponent, so it is answered as 2^11 is.  Only the
    # checks need the ring Z_{p^e}G, so p^e = 2^(10^12), past the
    # characteristic cap, is answered so too.
    @pytest.mark.parametrize("lam, e", [("11", "2"), ("21", "2"), ("1", str(10 ** 12))])
    def test_past_a_cap_reports_the_closed_forms(self, capsys, lam, e):
        # Every check reads the |G| x |G| gather table, so an instance past
        # its cap reports what invariants reports, with no checks.
        args = ("--p", "2", "--lambda", lam, "--e", e, "--format", "json")
        code, out, _ = run(capsys, "verify", *args)
        assert code == 0
        assert json.loads(out)["instances"][0]["checks"] == []
        assert out == run(capsys, "invariants", *args)[1]

    @pytest.mark.parametrize(
        "lam, e, check, reason",
        [
            ("11", "2", "lemma2", "|G| = 2^11 > 1024, the dense table cap"),
            ("21", "2", "theorem2", "|G| = 2^21 > 1024, the dense table cap"),
            ("1", str(10 ** 12), "lemma2",
             f"e = {10 ** 12}: characteristic 2^{10 ** 12} exceeds cap 2147483648"),
        ],
    )
    def test_check_named_past_a_cap_is_not_applicable(self, capsys, lam, e, check, reason):
        code, out, err = run(
            capsys, "verify", "--p", "2", "--lambda", lam, "--e", e, "--checks", check,
        )
        assert (code, out) == (2, "")
        assert err == f"error: checks not applicable to any instance: {check} ({reason})\n"

    @pytest.mark.parametrize(
        "instances, checks, budget, reason",
        [
            ([{"p": 2, "lambda": [1], "e": 1}], ["theorem1"], None, "theorem1 (requires e >= 2)"),
            ([{"p": 2, "lambda": [1], "e": 1}], ["lemma9"], None, "lemma9 (requires 1 <= d < e)"),
            ([{"p": 2, "lambda": [4], "e": 2}], ["lemma5"], None,
             "lemma5 (capped at |G| <= 8, e <= 2)"),
            ([{"p": 3, "lambda": [1], "e": 2}], ["theorem2"], 80,
             "theorem2 (|V| = 3^4 exceeds the enumeration budget 80)"),
            ([{"p": 2, "lambda": [1], "e": 2, "formula_only": True}], ["lemma2"], None,
             "lemma2 (formula_only)"),
            # one reason per distinct cause, in instance order
            ([{"p": 2, "lambda": [1], "e": 1}, {"p": 3, "lambda": [1], "e": 1},
              {"p": 2, "lambda": [11], "e": 2}], ["lemma6"], None,
             "lemma6 (requires e >= 2; |G| = 2^11 > 1024, the dense table cap)"),
            ([{"p": 2, "lambda": [1], "e": 10 ** 12}], ["lemma2"], None,
             f"lemma2 (e = {10 ** 12}: characteristic 2^{10 ** 12} exceeds cap 2147483648)"),
        ],
    )
    def test_unplanned_check_names_its_reason(
        self, capsys, tmp_path, instances, checks, budget, reason
    ):
        config = {"instances": instances, "checks": checks}
        if budget is not None:
            config["budget"] = budget
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "suite", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: checks not applicable to any instance: {reason}\n"

    def test_same_seed_byte_identical(self, capsys):
        args = (
            "verify", "--p", "2", "--lambda", "1", "--e", "3",
            "--seed", "5", "--format", "json",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestUsageErrors:
    def test_missing_flag(self, capsys):
        code, _, _ = run(capsys, "invariants", "--p", "2", "--lambda", "1")
        assert code == 2

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_subcommand_help_is_argparse_usage(self, capsys, command):
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: punits {command} [-h]")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a value of the wrong type, on each subcommand
            (("invariants", "--p", "2", "--lambda", "1", "--e", "x"),
             "argument --e: invalid int value: 'x'"),
            (("verify", "--p", "2", "--lambda", "1", "--e", "2", "--budget", "x"),
             "argument --budget: invalid int value: 'x'"),
            (("suite", "--workers", "2.5"), "argument --workers: invalid int value: '2.5'"),
            (("order", "--p", "two", "--lambda", "1", "--e", "2", "--coeffs", "1,0"),
             "argument --p: invalid int value: 'two'"),
            (("reduce", "--p", "2", "--lambda", "1", "--e", "2", "--coeffs", "1,0", "--to", "x"),
             "argument --to: invalid int value: 'x'"),
            (("dimsub", "--p", "2", "--lambda", "1", "--e", "2", "--n", ""),
             "argument --n: invalid int value: ''"),
            (("invariants", "--p", "2", "--lambda", "1", "--e", "2", "--format", "xml"),
             "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
            # a missing required flag; suite has none, so a flag without its value
            (("invariants", "--p", "2", "--lambda", "1"),
             "the following arguments are required: --e"),
            (("verify", "--p", "2", "--e", "2"),
             "the following arguments are required: --lambda"),
            (("suite", "--config"), "argument --config: expected one argument"),
            (("order", "--p", "2", "--lambda", "1", "--e", "2"),
             "the following arguments are required: --coeffs"),
            (("reduce", "--p", "2", "--lambda", "1", "--e", "2", "--coeffs", "1,0"),
             "the following arguments are required: --to"),
            (("dimsub", "--lambda", "1", "--e", "2", "--n", "2"),
             "the following arguments are required: --p"),
            ((), "the following arguments are required: command"),
        ],
    )
    def test_argparse_error_is_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_composite_p(self, capsys):
        code, _, err = run(
            capsys, "invariants", "--p", "6", "--lambda", "1", "--e", "1",
        )
        assert code == 2
        assert "prime" in err

    def test_large_prime_p_answers_at_once(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "invariants", "--p", "1000000000000000003", "--lambda", "1", "--e", "1",
        )
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out.startswith("p=1000000000000000003;lambda=1;e=1\n")

    def test_p_past_2_to_the_64_is_refused(self, capsys):
        code, out, err = run(
            capsys, "invariants", "--p", str(2 ** 89 - 1), "--lambda", "1", "--e", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            (("invariants", "--p", "2", "--lambda", "1,,2", "--e", "1"), "--lambda", "1,,2"),
            (("dimsub", "--p", "2", "--lambda", "2,", "--e", "1", "--n", "1"), "--lambda", "2,"),
            (("order", "--p", "2", "--lambda", "1", "--e", "3", "--coeffs", "7,,2"),
             "--coeffs", "7,,2"),
            (("reduce", "--p", "2", "--lambda", "1", "--e", "3", "--to", "1", "--coeffs", "7,x"),
             "--coeffs", "7,x"),
        ],
    )
    def test_bad_comma_list_names_its_flag(self, capsys, argv, flag, text):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {flag}: expected comma-separated integers, got {text!r}\n"


# Inputs whose |G| = p^s has far more digits than the int-to-str limit
# prints: each size test must decide from s alone, as building p^s would
# take minutes or more memory than the child may have.
_HUGE_ARGVS = [
    ["invariants", "--p", "2", "--lambda", "4294967296", "--e", "2"],
    ["invariants", "--p", "2", "--lambda", "99999999999999999999", "--e", "2"],
    ["invariants", "--p", "7", "--lambda", "4294967296", "--e", "2"],
    ["verify", "--p", "2", "--lambda", "4294967296", "--e", "2"],
    ["order", "--p", "2", "--lambda", "4294967296", "--e", "2", "--coeffs", "1,1"],
    ["dimsub", "--p", "3", "--lambda", "4294967296", "--e", "2", "--n", "2", "--oracle"],
]

# Run in a child, which caps its own address space at 1 GiB before it
# imports punits, so that a regression fails the test, not the host.
_REFUSE_IN_CHILD = """
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from punits.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append((code, out.getvalue(), err.getvalue(), time.perf_counter() - start))
print(json.dumps(results))
"""


def test_huge_groups_are_refused_at_once_under_an_address_space_limit():
    proc = fresh_python(
        "-c", _REFUSE_IN_CHILD, json.dumps(_HUGE_ARGVS),
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    for argv, (code, out, err, seconds) in zip(_HUGE_ARGVS, json.loads(proc.stdout)):
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert seconds < 1, argv


@pytest.mark.parametrize(
    "argv",
    ["verify --p 2 --lambda 1 --e 2", "suite", "suite --workers 2",
     "invariants --p 2 --lambda 1 --e 2"],
)
def test_inconsistent_closed_form_is_one_error_line(capsys, monkeypatch, argv):
    # A complement count l one too large breaks structure_report's size
    # check at e >= 2.  That ArithmeticError is the closed forms contradicting
    # themselves: exit 1 and one error line that names the check, no
    # traceback and no report.
    s_and_l = theory.s_and_l
    monkeypatch.setattr(theory, "s_and_l", lambda spec: (s_and_l(spec)[0], s_and_l(spec)[1] + 1))
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err.startswith("error: invariant size exponent ") and err.count("\n") == 1
    assert "!= e(|G|-1)" in err


# Quotes, backslashes, control characters, non-ASCII in the BMP, astral
# characters and a lone surrogate: every kind of escape the report can need.
_JSON_TEXT = st.text(
    st.sampled_from('az"\\/\b\f\n\r\t\x00\x1f\x7f' "é\u2028\uffff\U0001f600\U0010ffff\udc00")
)
_JSON_INT = (
    st.integers(-(2 ** 70), 2 ** 70)
    | st.integers(min_value=2 ** 63)
    | st.integers(max_value=-(2 ** 63) - 1)
)
_JSON_TREE = st.recursive(
    st.none() | st.booleans() | _JSON_INT | _JSON_TEXT,
    lambda kids: st.lists(kids, max_size=3)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_JSON_TEXT, kids, max_size=3),
    max_leaves=8,
)


def _report_observing(value) -> cli.InstanceReport:
    group = GroupSpec(2, (1,))
    rep = theory.structure_report(group, 1)
    check = oracle.VerificationReport(
        "theorem2", group, 1, predicted={}, observed={"x": [value]},
        verdict="pass", seed=0,
    )
    return cli.InstanceReport(group, 1, rep.v_order_exp, rep.v_invariants, (check,))


_GROUPS = st.builds(
    GroupSpec, st.sampled_from([2, 3, 5]), st.lists(st.integers(1, 4), min_size=1, max_size=3)
)
_COUNT = st.integers(0, 2 ** 70)
_CHECKS = st.builds(
    oracle.VerificationReport,
    check_id=_JSON_TEXT,
    group=_GROUPS,
    e=st.integers(1, 3),
    predicted=_JSON_TREE,
    observed=_JSON_TREE,
    verdict=st.sampled_from(["pass", "fail"]) | _JSON_TEXT,
    seed=_COUNT,
)
# Lists of reports as a run makes them: several instances or none, each
# with no checks or with checks whose payloads are free-form JSON trees.
_REPORTS = st.lists(
    st.builds(
        cli.InstanceReport,
        group=_GROUPS,
        e=st.integers(1, 2 ** 70),
        v_order_exp=_COUNT,
        invariants=st.lists(st.tuples(_COUNT, _COUNT), max_size=4).map(
            lambda pairs: theory.AbelianInvariants(tuple(pairs))
        ),
        checks=st.lists(_CHECKS, max_size=3).map(tuple),
    ),
    max_size=3,
)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 1 << 70


class _Name(str):
    pass


class TestJsonEmitter:
    @given(_JSON_TREE)
    def test_matches_the_stdlib_rendering(self, obj):
        assert cli._dump_json(obj) == stdlib_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            [True, False, None, 0, 1],
            {"a": True, "b": [False], "c": {"d": True}},
            _Level.HIGH,
            [_Level.LOW, {"level": _Level.HIGH}],
            _Name("x\u00e9"),
            {"name": _Name("y"), _Name("key"): [_Name("z\n")]},
            (True, ("x", 1)),
        ],
        ids=["bools-in-a-list", "bools-in-dicts", "int-enum", "int-enums-inside",
             "str-subclass", "str-subclasses-inside", "tuples"],
    )
    def test_subclasses_of_int_and_str_match_the_stdlib_rendering(self, obj):
        # Only exact int and str children are written inline; these take
        # the isinstance tests and must still render as the stdlib does.
        assert cli._dump_json(obj) == stdlib_json(obj)

    @pytest.mark.parametrize(
        "value",
        [0.25, np.int64(1), {1: "x"}, {1}],
        ids=["float", "numpy-int64", "int-key", "set"],
    )
    def test_refuses_what_a_report_does_not_carry(self, value):
        with pytest.raises(TypeError):
            cli._dump_json(value)
        with pytest.raises(TypeError):
            emit_report([_report_observing(value)], "json")
        with pytest.raises(TypeError):
            emit_report([replace(_report_observing(0), e=value)], "json")
        with pytest.raises(TypeError):
            emit_report([replace(_report_observing(0), v_order_exp=value)], "json")

    def test_keeps_the_int_to_str_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ValueError) as ours:
                cli._dump_json({"exp": 10 ** 640})
            with pytest.raises(ValueError) as stdlib:
                stdlib_json({"exp": 10 ** 640})
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(ours.value) == str(stdlib.value)

    @pytest.mark.parametrize("field", ["e", "v_order_exp", "observed", "seed"])
    def test_report_keeps_the_int_to_str_digit_limit(self, field):
        # emit_report's refusal of a number too long to print is the
        # stdlib's, wherever in the report the number is.
        big = 10 ** 640
        report = _report_observing(big if field == "observed" else 0)
        if field in ("e", "v_order_exp"):
            report = replace(report, **{field: big})
        elif field == "seed":
            report = replace(report, checks=(replace(report.checks[0], seed=big),))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ValueError) as ours:
                emit_report([report], "json")
            with pytest.raises(ValueError) as stdlib:
                stdlib_json(report_schema([report]))
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(ours.value) == str(stdlib.value)


_DROP = object()
# (path into the payload of a one-check report, value put there or _DROP,
# what the refusal names): each makes a report that emit_report cannot
# give back.
_INSTANCE = ("instances", 0)
_CHECK = _INSTANCE + ("checks", 0)
_UNINVERTIBLE = [
    ((), {}, "report lacks instances, summary"),
    ((), [], "report must be a JSON object, got list"),
    (("extra",), 1, "unknown report keys: extra"),
    (("instances",), {}, "instances must be a list"),
    (_INSTANCE + ("e",), _DROP, "report instance lacks e"),
    (_INSTANCE + ("e",), 1.0, "a report holds no floats"),
    (_INSTANCE + ("e",), 0, "e must be >= 1"),
    (_INSTANCE + ("group", "p"), _DROP, "group lacks p"),
    (_INSTANCE + ("group", "p"), 4, "p must be prime"),
    (_INSTANCE + ("group", "lambda"), 1, "lambda must be a nonempty list"),
    (_INSTANCE + ("v_order", "base"), 3, "v_order.base must be p = 2, got 3"),
    (_INSTANCE + ("v_order", "exp"), "1", "v_order.exp must be an integer"),
    (_INSTANCE + ("invariants",), [[1, 1]], "invariants entry must be a JSON object"),
    (_INSTANCE + ("invariants", 0, "order_exp"), -1, "order_exp must be >= 0"),
    (_INSTANCE + ("checks",), None, "checks must be a list"),
    (_CHECK + ("seed",), _DROP, "check lacks seed"),
    (_CHECK + ("seed",), True, "check seed must be an integer"),
    (_CHECK + ("observed",), [0.5], "a report holds no floats"),
    (_CHECK + ("verdict",), "fail", "summary must be"),
    (("summary", "all_pass"), False, "summary must be"),
    (("summary", "all_pass"), 1, "summary must be"),
]


class TestReportJson:
    @given(_REPORTS)
    @example([])
    def test_is_the_stdlib_rendering_of_the_schema(self, reports):
        assert emit_report(reports, "json") == stdlib_json(report_schema(reports))

    @pytest.mark.parametrize("value", [True, False, _Level.LOW, _Level.HIGH])
    def test_e_and_order_exponent_of_an_int_subclass(self, value):
        # Fields that are not exactly int render as the stdlib renders them.
        report = replace(_report_observing(0), e=value, v_order_exp=value)
        assert emit_report([report], "json") == stdlib_json(report_schema([report]))

    @given(_REPORTS)
    @example([])
    def test_parse_inverts_emit(self, reports):
        text = emit_report(reports, "json")
        assert emit_report(parse_report_json(text), "json") == text

    @pytest.mark.parametrize(
        "path, value, field", _UNINVERTIBLE, ids=[case[2] for case in _UNINVERTIBLE]
    )
    def test_parse_refuses_what_it_cannot_invert(self, path, value, field):
        payload = json.loads(emit_report([_report_observing(0)], "json"))
        if not path:
            payload = value
        else:
            *head, last = path
            parent = functools.reduce(lambda node, key: node[key], head, payload)
            if value is _DROP:
                del parent[last]
            else:
                parent[last] = value
        with pytest.raises(ValueError, match=re.escape(field)):
            parse_report_json(json.dumps(payload))

    def test_parse_refuses_nan(self):
        text = emit_report([_report_observing(0)], "json").replace('"x": [', '"x": [NaN,')
        with pytest.raises(ValueError, match="a report holds no floats, got NaN"):
            parse_report_json(text)


class TestReportSerialization:
    def _small_reports(self):
        config = SuiteConfig(
            instances=(
                SuiteInstance(GroupSpec(2, (1,)), 2),
                SuiteInstance(GroupSpec(3, (1,)), 1),
                SuiteInstance(GroupSpec(2, (1,)), 4, formula_only=True),
            ),
            seed=3,
        )
        return run_suite(config)

    def test_json_round_trip(self):
        reports = self._small_reports()
        parsed = parse_report_json(emit_report(reports, "json"))
        assert parsed == reports

    def test_formula_only_has_no_checks(self):
        reports = self._small_reports()
        assert reports[2].checks == ()
        assert reports[2].invariants.entries  # structure still reported

    def test_text_format_mentions_every_check(self):
        reports = self._small_reports()
        text = emit_report(reports, "text")
        assert "V ≅" in text
        for rep in reports:
            for check in rep.checks:
                assert check.check_id in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "yaml")

    def test_power_map_released_after_the_run(self, monkeypatch):
        # While the suite runs, at most one instance's Units holds a power
        # map; once it returns, every Units it built is gone.
        built = []

        class Tracked(oracle.Units):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(weakref.ref(self))

        def holding_power_map():
            return sum("power_map" in vars(u) for u in (ref() for ref in built) if u)

        def checked(*args, **kwargs):
            assert holding_power_map() <= 1
            report = oracle.verify_check(*args, **kwargs)
            assert holding_power_map() <= 1
            return report

        monkeypatch.setattr(cli, "Units", Tracked)
        monkeypatch.setattr(cli, "verify_check", checked)
        self._small_reports()
        assert len(built) == 2  # one per instance that runs checks
        assert all(ref() is None for ref in built)

    def test_one_power_map_per_instance(self, monkeypatch):
        builds, seen = [], []

        class Counting(oracle.Units):
            @functools.cached_property
            def kernel(self):
                builds.append(("kernel", self.rs))
                return super().kernel

            @functools.cached_property
            def power_map(self):
                builds.append(("power_map", self.rs))
                return super().power_map

        def checked(check, units, params, *, seed):
            report = oracle.verify_check(check, units, params, seed=seed)
            seen.append((check, units.__dict__.get("power_map")))
            return report

        monkeypatch.setattr(cli, "Units", Counting)
        monkeypatch.setattr(cli, "verify_check", checked)
        rs = RingSpec(GroupSpec(3, (1,)), 2)
        config = SuiteConfig(
            instances=(SuiteInstance(rs.group, rs.e),),
            checks=("theorem1", "theorem2", "lemma6"),
        )
        (report,) = run_suite(config)
        assert report.all_pass()
        assert sorted(builds) == [("kernel", rs), ("power_map", rs)]
        assert [c for c, _ in seen] == ["theorem1", "theorem2", "lemma6"]
        assert all(pm is seen[0][1] is not None for _, pm in seen)
        # One representative per coset of the kernel of reduction mod 3.
        assert len(seen[0][1].chi) == oracle.unit_count(rs) // 3 ** 2


class TestSuiteCommand:
    def test_config_round_trip_and_atomic_out(self, capsys, tmp_path):
        config_path = tmp_path / "suite.json"
        out_path = tmp_path / "out" / "result.json"
        os.makedirs(out_path.parent)
        config_path.write_text(
            json.dumps(
                {
                    "instances": [
                        {"p": 2, "lambda": [1], "e": 2},
                        {"group": "p=3;lambda=1", "e": 1},
                    ],
                    "checks": ["theorem2", "lemma2"],
                    "seed": 9,
                    "out": str(out_path),
                }
            )
        )
        code, out, _ = run(capsys, "suite", "--config", str(config_path))
        assert code == 0
        assert str(out_path) in out
        payload = json.loads(out_path.read_text())
        assert payload["summary"]["all_pass"] is True
        ids = [
            c["id"] for inst in payload["instances"] for c in inst["checks"]
        ]
        assert set(ids) == {"theorem2", "lemma2"}

    def test_worker_override_is_byte_identical(self, capsys, tmp_path):
        config_path = tmp_path / "suite.json"
        config_path.write_text(
            json.dumps({"instances": [{"p": 2, "lambda": [2], "e": 2}], "seed": 1})
        )
        _, out1, _ = run(capsys, "suite", "--config", str(config_path), "--workers", "1")
        _, out4, _ = run(capsys, "suite", "--config", str(config_path), "--workers", "4")
        assert out1 == out4

    def test_empty_config_rejected(self, capsys, tmp_path):
        config_path = tmp_path / "empty.json"
        config_path.write_text("{}")
        code, _, err = run(capsys, "suite", "--config", str(config_path))
        assert code == 2

    def test_default_catalog_contents(self):
        config = default_suite_config()
        seen = {(i.group.p, i.group.lambdas, i.e) for i in config.instances}
        assert (2, (1,), 20) in seen
        assert (2, (2, 2), 1) in seen
        assert (2, (2, 2), 2) not in seen
        assert (3, (1,), 6) in seen
        assert (5, (1,), 3) in seen
        assert (5, (1,), 4) not in seen

    def test_instance_past_the_table_cap_leaves_the_others_checked(self, capsys, tmp_path):
        small = {"p": 2, "lambda": [1], "e": 2}
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"instances": [{"p": 2, "lambda": [11], "e": 2}, small]}))
        code, out, _ = run(capsys, "suite", "--config", str(path))
        assert code == 0
        large, checked = json.loads(out)["instances"]
        assert large["checks"] == []
        plan = oracle.plan_checks(RingSpec(GroupSpec(2, (1,)), 2))
        assert len(checked["checks"]) == len(plan) > 0
        assert all(c["verdict"] == "pass" for c in checked["checks"])

    def test_instance_past_the_materialization_cap_reports_the_closed_forms(
        self, capsys, tmp_path
    ):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"instances": [{"p": 2, "lambda": [21], "e": 2}]}))
        code, out, _ = run(capsys, "suite", "--config", str(path))
        assert code == 0
        assert json.loads(out)["instances"][0]["checks"] == []
        args = ("--p", "2", "--lambda", "21", "--e", "2", "--format", "json")
        assert out == run(capsys, "invariants", *args)[1]

    def test_formula_only_instance_past_the_cap(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(
            json.dumps({"instances": [{"p": 2, "lambda": [21], "e": 2, "formula_only": True}]})
        )
        code, out, _ = run(capsys, "suite", "--config", str(path))
        assert code == 0
        assert json.loads(out)["instances"][0]["v_order"] == {"base": 2, "exp": 2 ** 22 - 2}


_ONE = {"p": 2, "lambda": [1], "e": 2}


# What a `python -m punits` child must print: a refusal one line on stderr,
# and a run, with exit 0, JSON that is the stdlib's rendering of what it
# holds, and more for some.
def _refused(proc):
    assert (proc.returncode, proc.stdout) == (2, b"")
    err = proc.stderr.decode()
    assert err.startswith("error: ") and err.count("\n") == 1


def _rendered(proc) -> dict:
    assert proc.returncode == 0, proc.stderr.decode()
    out = proc.stdout.decode()
    report = json.loads(out)
    assert out == stdlib_json(report)
    return report


def _suite_pinned(proc):
    _rendered(proc)
    assert hashlib.sha256(proc.stdout).hexdigest() == SUITE_SHA256


def _lemma9_z8c4(proc):
    # d = 1: all 3072 exceptional units, each held to its order.
    (inst,) = _rendered(proc)["instances"]
    (d1,) = [c["observed"] for c in inst["checks"] if c["id"] == "lemma9:d=1"]
    assert (d1["exceptional"], d1["mismatches"]) == (3072, 0)


def _lemma2_cap(proc):
    # |G| = 1024, the dense table cap: 14 cases per group element.
    (inst,) = _rendered(proc)["instances"]
    assert [c["observed"] for c in inst["checks"]] == [{"cases": 14336, "violations": 0}]


def _census_cap(proc):
    # 2^22 units, the default budget's largest census.
    (inst,) = _rendered(proc)["instances"]
    assert [(c["id"], c["verdict"]) for c in inst["checks"]] == [
        ("theorem1", "pass"),
        ("theorem2", "pass"),
    ]


def _lemma9_c16xc16(proc):
    # |G| = 256: d = 1's 1000 columns in four blocks, every unit exceptional.
    (inst,) = _rendered(proc)["instances"]
    observed = {"cases": 1000, "exceptional": 1000, "mismatches": 0, "order_bound_violations": 0}
    assert [c["observed"] for c in inst["checks"]] == [observed]


def _lemma9_z7_11c7(proc):
    # An odd modulus near 2^31: all 10 d's, in two chunks.
    (inst,) = _rendered(proc)["instances"]
    assert [c["observed"]["mismatches"] for c in inst["checks"]] == [0] * 10


class TestMalformedInput:
    """Every malformed suite config or flag is exit 2 with one error line:
    never a traceback, exit 1 or a vacuous all_pass."""

    @pytest.mark.parametrize(
        "config",
        [
            {"instances": [_ONE], "checks": ["theorm2"]},
            {"instances": [_ONE], "checks": [["theorem2"]]},
            {"instances": [_ONE], "checks": "theorem2"},
            {"instances": [_ONE], "checks": []},
            {"instances": [{**_ONE, "formula_only": "false"}]},
            {"instances": [{"p": 2, "e": 2}]},
            [_ONE],
            {"instances": [{**_ONE, "e": 2.9}]},
            {"instances": [_ONE], "chekcs": ["theorem2"]},
            {"instances": [_ONE], "budget": -5},
            {"instances": [_ONE], "workers": 0},
            {"instances": [{**_ONE, "e": 1}], "checks": ["theorem1"]},
            {"instances": [{"p": 3, "lambda": [1], "e": 2}], "checks": ["theorem2"], "budget": 80},
            {"instances": [{**_ONE, "formula_only": True}], "checks": ["lemma2"]},
            {"instances": {"p": 2}},
            {"instances": [3]},
            {"instances": [{**_ONE, "lambda": 1}]},
            {"instances": [{**_ONE, "p": "2"}]},
            {"instances": [{"group": 5, "e": 1}]},
            {"instances": [{"group": "p=2;lambda=1", "p": 2, "e": 1}]},
            {"instances": [_ONE], "seed": "0"},
            {"instances": [_ONE], "out": 5},
            {"instances": [{"group": "p=2;lambda=1;e=3", "e": 1}]},
            {"instances": [{"group": "p=2;lambda=1,,2", "e": 1}]},
        ],
    )
    def test_suite_config(self, capsys, tmp_path, config):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "suite", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("data", [b"", b"{'instances': []}", b"\xff{}"])
    def test_unreadable_config_names_the_file(self, capsys, tmp_path, data):
        # Not JSON, or not UTF-8.
        path = tmp_path / "suite.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "suite", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read suite config {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("missing", [True, False])
    def test_config_that_cannot_be_opened_names_the_file(self, capsys, tmp_path, missing):
        # A file that does not exist, or a directory.
        path = tmp_path / "suite.json" if missing else tmp_path
        code, out, err = run(capsys, "suite", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read suite config {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("suite", "--workers", "-3"),
            ("suite", "--budget", "0"),
            ("verify", "--p", "2", "--lambda", "1", "--e", "2", "--budget", "-5"),
            ("verify", "--p", "2", "--lambda", "1", "--e", "2", "--workers", "0"),
            ("verify", "--p", "2", "--lambda", "1", "--e", "2", "--checks", ""),
            # |V| = 2^31 fits the budget but not the int32 enumeration index
            ("verify", "--p", "2", "--lambda", "1", "--e", "31",
             "--budget", str(1 << 40), "--checks", "theorem2"),
        ],
    )
    def test_flags(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", [1 << 32, -1])
    @pytest.mark.parametrize("source", ["verify", "suite", "config"])
    def test_seed_outside_32_bits(self, capsys, tmp_path, source, seed):
        # Seeds are mixed into a 32-bit CRC, so 2^32 would repeat seed 0 and
        # -1 seed 2^32 - 1: both are refused, naming the seed, before any check.
        if source == "config":
            path = tmp_path / "suite.json"
            path.write_text(json.dumps({"instances": [_ONE], "seed": seed}))
            argv = ("suite", "--config", str(path))
        elif source == "suite":
            argv = ("suite", f"--seed={seed}")
        else:
            argv = ("verify", "--p", "2", "--lambda", "1", "--e", "5",
                    "--checks", "lemma9", f"--seed={seed}", "--format", "json")
        with mock.patch.object(cli, "run_suite") as run_suite:
            code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: seed must be ") and err.count("\n") == 1
        assert not run_suite.called

    def test_unknown_check_is_refused_with_no_instance_to_plan(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        config = {"instances": [{**_ONE, "formula_only": True}], "checks": ["lemma1"]}
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "suite", "--config", str(path))
        assert (code, out) == (2, "")
        assert "unknown check" in err and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, expect",
        [
            ("suite --config suite.json", _refused),
            ("invariants --p 2 --lambda 3,1 --e 2 --format json", _rendered),
            ("suite --workers 2", _suite_pinned),
            ("verify --p 2 --lambda 2 --e 3 --checks lemma9 --format json", _lemma9_z8c4),
            ("verify --p 7 --lambda 1 --e 11 --checks lemma9 --format json", _lemma9_z7_11c7),
            ("verify --p 2 --lambda 4,4 --e 2 --checks lemma9 --format json", _lemma9_c16xc16),
            ("verify --p 2 --lambda 5,5 --e 1 --checks lemma2 --format json", _lemma2_cap),
            ("verify --p 2 --lambda 1 --e 22 --checks theorem1,theorem2 --format json",
             _census_cap),
        ],
        ids=["refusal", "invariants", "suite", "lemma9-z8c4", "lemma9-z7^11c7",
             "lemma9-c16xc16", "lemma2-cap", "census-cap"],
    )
    def test_python_dash_m_entry_point(self, tmp_path, monkeypatch, argv, expect):
        # The real entry point, end to end in a fresh process; the refusal
        # reads its config from the working directory.
        (tmp_path / "suite.json").write_text(json.dumps({"instances": [3]}))
        monkeypatch.chdir(tmp_path)
        expect(fresh_python("-m", "punits", *argv.split()))

    def test_explicit_check_needs_only_one_instance(self, capsys, tmp_path):
        # theorem1 plans on the e = 2 instance, so the e = 1 one is no error
        path = tmp_path / "suite.json"
        path.write_text(
            json.dumps({"instances": [_ONE, {**_ONE, "e": 1}], "checks": ["theorem1"]})
        )
        code, out, _ = run(capsys, "suite", "--config", str(path))
        assert code == 0
        assert json.loads(out)["summary"]["total_checks"] == 1


# The CLI fuzz: an argv names one subcommand and one of a few instances,
# and takes each flag's value from the instance or the flag's pool or, one
# time in five, from a pool of hostile values.  suite always gets a
# --config, so no argv runs the whole default catalog, and every instance
# here is small enough that each valid call ends in well under a second.
_HOSTILE = ["0", "-1", "-7", "1.5", "", "x", "xml", "1e3", "1,,2", ",", "4294967296",
            "99999999999999999999", str(2 ** 89 - 1)]
# (--p, --lambda, --e, |G|): |G| = 2048 is past the dense table cap, and
# 2^61 - 1 a prime past the characteristic cap, whose ring is refused before
# any --coeffs are read (so its 1 only sizes them).
_FUZZ_INSTANCES = [("2", "1", "2", 2), ("3", "1", "2", 3), ("2", "1,1", "1", 4),
                   ("2", "2,1", "3", 8), ("5", "1", "1", 5), ("2", "1", "31", 2),
                   ("2", "11", "2", 2048), (str(2 ** 61 - 1), "1", "1", 1)]
_FLAG_POOLS = {
    "--checks": [*oracle.CHECK_IDS, "theorem2,lemma3", "lemma9,lemma9", "lemma1"],
    "--budget": ["4194304", "80"],
    "--workers": ["1", "2"],
    "--seed": ["0", "5", str(1 << 32)],
    "--format": ["json", "text"],
    "--to": ["1", "2"],
    "--n": ["2", "1", "9"],
}
_INSTANCE_FLAGS = ("--p", "--lambda", "--e")
_RUN_FLAGS = ("--budget", "--workers", "--seed", "--out")
# Each subcommand's (required, optional) flags.
_SUBCOMMANDS = {
    "invariants": (_INSTANCE_FLAGS, ("--format",)),
    "verify": (_INSTANCE_FLAGS, ("--checks", *_RUN_FLAGS, "--format")),
    "suite": ((), _RUN_FLAGS),
    "order": ((*_INSTANCE_FLAGS, "--coeffs"), ("--format",)),
    "reduce": ((*_INSTANCE_FLAGS, "--coeffs", "--to"), ()),
    "dimsub": ((*_INSTANCE_FLAGS, "--n"), ("--oracle",)),
}
# Suite configs by file name; "checks" names checks explicitly.
_FUZZ_CONFIGS = {
    "plain.json": {"instances": [_ONE, {"group": "p=3;lambda=1", "e": 1,
                                        "formula_only": True}]},
    "named.json": {"instances": [_ONE], "checks": ["theorem1", "lemma9"]},
    "unplanned.json": {"instances": [{**_ONE, "e": 1}], "checks": ["theorem1"]},
    "unknown.json": {"instances": [{**_ONE, "formula_only": True}], "checks": ["lemma1"]},
}
_REPORT_LINE = re.compile(r"  ([a-z0-9]+)(?::\S+)?: (?:pass|fail)  \(")


@st.composite
def _fuzz_argvs(draw, directory):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    required, optional = _SUBCOMMANDS[command]
    p, lambdas, e, size = draw(st.sampled_from(_FUZZ_INSTANCES))
    units = [",".join(["1"] + ["0"] * (size - 1)), ",".join(["0", "1"] + ["0"] * (size - 2))]
    pools = {**_FLAG_POOLS, "--p": [p], "--lambda": [lambdas], "--e": [e],
             "--coeffs": [*units, ",".join(["2"] + ["0"] * (size - 1))]}
    argv = [command]
    if command == "suite":
        names = [*_FUZZ_CONFIGS, "missing.json", ""]
        argv += ["--config", str(directory / draw(st.sampled_from(names)))]
    for flag in required + optional:
        # A required flag is left out one time in twenty, an optional one
        # about half the time.
        if draw(st.integers(0, 19)) >= (19 if flag in required else 10):
            continue
        if flag == "--oracle":
            argv.append(flag)
        elif flag == "--out":
            name = draw(st.sampled_from(["out.json", "missing/out.json", ""]))
            argv += [flag, str(directory / name) if name else ""]
        else:
            hostile = draw(st.integers(0, 4)) == 4
            argv += [flag, draw(st.sampled_from(_HOSTILE if hostile else pools[flag]))]
    return argv


def _named_checks(argv, directory) -> set[str]:
    """The check ids that argv names explicitly, by --checks or its config."""
    if "--checks" in argv:
        return set(argv[argv.index("--checks") + 1].split(","))
    if "--config" in argv:
        name = os.path.relpath(argv[argv.index("--config") + 1], directory)
        return set(_FUZZ_CONFIGS.get(name, {}).get("checks", ()))
    return set()


def _reported_checks(out: str, directory) -> set[str]:
    """The check ids of the report that out prints or, for suite's summary
    line, names."""
    if out.startswith("{"):
        payload = json.loads(out)
    elif " -> " in out:
        payload = json.loads((directory / "out.json").read_text())
    else:
        return set(_REPORT_LINE.findall(out))
    return {c["id"].split(":")[0] for r in payload["instances"] for c in r["checks"]}


def test_cli_fuzz(tmp_path):
    # Every call ends in exit 0, 1 or 2; exit 2 exactly when stderr is one
    # error line; no traceback; and a check named explicitly appears in any
    # report printed, so one planned nowhere prints none.
    for name, config in _FUZZ_CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(config))

    @settings(max_examples=300)
    @example(["dimsub", "--p", "3", "--lambda", "4294967296", "--e", "2", "--n", "2",
              "--oracle"])
    @given(_fuzz_argvs(tmp_path))
    def call(argv):
        (tmp_path / "out.json").unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with alarm(5), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), argv
        assert (code == 2) == (err.startswith("error: ") and err.count("\n") == 1), argv
        assert "Traceback" not in out + err, argv
        if code == 2:
            assert out == "", argv
        elif named := _named_checks(argv, tmp_path):
            assert named <= _reported_checks(out, tmp_path), argv

    call()
