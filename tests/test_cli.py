import functools
import json
import math
import os
import subprocess
import sys
import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from punits import cli, oracle, theory
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

from .helpers import partitions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdlib_json(obj) -> str:
    """The rendering cli._dump_json must match byte for byte."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def dumped(monkeypatch):
    """Every (payload, text) pair that cli._dump_json makes in the test."""
    pairs = []
    dump = cli._dump_json

    def recording(obj):
        text = dump(obj)
        pairs.append((obj, text))
        return text

    monkeypatch.setattr(cli, "_dump_json", recording)
    return pairs


class TestInvariantsCommand:
    def test_corollary_text(self, capsys):
        code, out, _ = run(capsys, "invariants", "--p", "2", "--lambda", "1", "--e", "3")
        assert code == 0
        assert "V ≅ C_2 × C_4" in out

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

    def test_number_at_the_digit_limit_still_prints(self, capsys, dumped):
        # e(|G| - 1) = 2^2200 - 1 has exactly 663 digits.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(663)
        try:
            code, out, _ = run(
                capsys, "invariants", "--p", "2", "--lambda", "2200", "--e", "1",
                "--format", "json",
            )
            [(payload, text)] = dumped
            assert out == text == stdlib_json(payload)
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert json.loads(out)["instances"][0]["v_order"]["exp"] == 2 ** 2200 - 1

    def test_json_is_the_stdlib_rendering(self, dumped):
        # What `invariants --format json` prints for every closed-form query
        # with p = 2, |lambda| <= 6 and p = 3, |lambda| <= 4, each at e = 1, 2, 3.
        queries = [
            (GroupSpec(p, lam), e)
            for p, top in ((2, 6), (3, 4))
            for n in range(1, top + 1)
            for lam in partitions(n)
            for e in (1, 2, 3)
        ]
        for group, e in queries:
            rep = theory.structure_report(group, e)
            instance = cli.InstanceReport(group, e, rep.v_order_exp, rep.v_invariants)
            assert emit_report([instance], "json") == stdlib_json(dumped[-1][0])
        assert len(dumped) == len(queries) == 120


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

    def test_past_the_table_cap_reports_the_closed_forms(self, capsys):
        # Every check reads the |G| x |G| gather table, so an instance past
        # its cap reports what invariants reports, with no checks.
        args = ("--p", "2", "--lambda", "11", "--e", "2", "--format", "json")
        code, out, _ = run(capsys, "verify", *args)
        assert code == 0
        assert json.loads(out)["instances"][0]["checks"] == []
        assert out == run(capsys, "invariants", *args)[1]

    def test_check_named_past_the_table_cap_is_not_applicable(self, capsys):
        code, out, err = run(
            capsys, "verify", "--p", "2", "--lambda", "11", "--e", "2",
            "--checks", "lemma2",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: checks not applicable") and err.count("\n") == 1
        assert "lemma2 (|G| = 2048 > 1024, the dense table cap)" in err

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
             "lemma6 (requires e >= 2; |G| = 2048 > 1024, the dense table cap)"),
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


class TestJsonEmitter:
    @given(_JSON_TREE)
    def test_matches_the_stdlib_rendering(self, obj):
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

    def test_formula_only_instance_past_the_cap(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(
            json.dumps({"instances": [{"p": 2, "lambda": [21], "e": 2, "formula_only": True}]})
        )
        code, out, _ = run(capsys, "suite", "--config", str(path))
        assert code == 0
        assert json.loads(out)["instances"][0]["v_order"] == {"base": 2, "exp": 2 ** 22 - 2}


_ONE = {"p": 2, "lambda": [1], "e": 2}


class TestMalformedInput:
    """Every malformed suite config or flag is exit 2 with one error line:
    never a traceback, exit 1 or a vacuous all_pass."""

    @pytest.mark.parametrize(
        "config",
        [
            {"instances": [_ONE], "checks": ["theorm2"]},
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
            # the cap on |G| still holds where coefficient vectors are built
            {"instances": [{"p": 2, "lambda": [21], "e": 2}]},
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

    @pytest.mark.parametrize(
        "argv",
        [
            ("suite", "--workers", "-3"),
            ("suite", "--budget", "0"),
            ("verify", "--p", "2", "--lambda", "1", "--e", "2", "--budget", "-5"),
            ("verify", "--p", "2", "--lambda", "1", "--e", "2", "--workers", "0"),
            ("verify", "--p", "2", "--lambda", "1", "--e", "2", "--checks", ""),
            ("verify", "--p", "2", "--lambda", "1", "--e", str(10 ** 12)),
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

    def test_python_dash_m_entry_point(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"instances": [3]}))
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "punits", "suite", "--config", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_explicit_check_needs_only_one_instance(self, capsys, tmp_path):
        # theorem1 plans on the e = 2 instance, so the e = 1 one is no error
        path = tmp_path / "suite.json"
        path.write_text(
            json.dumps({"instances": [_ONE, {**_ONE, "e": 1}], "checks": ["theorem1"]})
        )
        code, out, _ = run(capsys, "suite", "--config", str(path))
        assert code == 0
        assert json.loads(out)["summary"]["total_checks"] == 1
