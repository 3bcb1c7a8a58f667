"""Command-line front end and report serialization.

Subcommands:

    invariants  closed-form structure of V(Z_{p^e}G), no enumeration
    verify      run verification checks on one instance
    suite       run a catalog of instances, write a JSON summary
    order       order of a normalized unit given by its coefficients
    reduce      coefficientwise reduction of an element to a smaller e
    dimsub      dimension subgroup G ∩ (1 + w^n), formula and oracle

Exit codes: 0 success / all checks pass, 1 at least one check failed,
2 usage, budget or validation error.

JSON is the machine contract: reports are emitted with sorted keys, no
wall-clock data, and orders as (base, exponent) pairs, so identical
invocations (same seed, any worker count) are byte-identical.  Every JSON
output's bytes equal ``json.dumps(obj, indent=2, sort_keys=True)`` plus a
newline, without the stdlib's pure-Python indent encoder.  ``emit_report``
writes the report's skeleton itself, straight from the reports' fields
with the schema's keys as literals; ``_emit_json`` (``_dump_json``) writes
the free-form check payloads in it and ``order --format json``.  Both
accept str, int, bool, None, list, tuple and dict with str keys, and raise
TypeError on anything else (a float, a numpy scalar, a non-str key, a
set).  The stdlib ``json`` module only parses reports and suite configs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Sequence

from . import theory
from .oracle import (
    DEFAULT_BUDGET,
    SEED_MAX,
    BudgetExceededError,
    Units,
    VerificationReport,
    _lookup,
    plan_checks,
    unplanned_reason,
    verify_check,
)
from .pgroup import GroupSpec, checked_int, int_list, p_valuation, power_exceeds
from .ring import RingElement, RingSpec, reduce_mod, unit_order
from .theory import AbelianInvariants, structure_report


@functools.lru_cache(maxsize=1)
def _largest_printable(limit: int) -> int:
    """The largest int that an int-to-str limit of ``limit`` digits prints."""
    return 10**limit - 1


def _check_digits(base: int, exp: int, what: str) -> None:
    """Refuse base**exp, named ``what``, if it has more digits than Python's
    int-to-str limit prints; ``power_exceeds`` builds it only near the limit."""
    limit = sys.get_int_max_str_digits()
    if limit and power_exceeds(base, exp, _largest_printable(limit)):
        raise ValueError(f"{what} has more than {limit} digits, past the int-to-str limit")


def _check_printable(group: GroupSpec, e: int) -> None:
    """Refuse an instance whose answer holds a number too long to print.

    The largest number an answer prints is the exponent e(|G| - 1) of |V|,
    so its digit count decides, before the closed forms build the agemo
    sizes.  It has at least the digits of |G| = p^s, which is no power of
    10, so p^s is tested from s first and built only once it is printable.
    """
    what = "the exponent e(|G| - 1) of |V|"
    _check_digits(group.p, group.size_exp, what)
    _check_digits(theory.v_order_exp(group, e), 1, what)


@dataclass(frozen=True)
class InstanceReport:
    """One (G, e) instance: closed-form structure plus check outcomes."""

    group: GroupSpec
    e: int
    v_order_exp: int
    invariants: AbelianInvariants
    checks: tuple[VerificationReport, ...] = ()

    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class SuiteInstance:
    group: GroupSpec
    e: int
    formula_only: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", checked_int(self.e, "e", 1))
        _check_printable(self.group, self.e)
        if not isinstance(self.formula_only, bool):
            raise ValueError(
                f"formula_only must be true or false, got {self.formula_only!r}"
            )


@dataclass(frozen=True)
class SuiteConfig:
    """A validated suite run.  ``checks`` None means every applicable check;
    else it is a nonempty list of ids, each of which ``run_suite`` reads
    through ``oracle._lookup``, the one refusal of an unknown id, and must
    plan on at least one instance."""

    instances: tuple[SuiteInstance, ...]
    checks: Optional[tuple[str, ...]] = None
    budget: int = DEFAULT_BUDGET
    workers: int = 1
    seed: int = 0
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.instances, (list, tuple)) or not self.instances:
            raise ValueError("suite config lists no instances")
        object.__setattr__(self, "instances", tuple(self.instances))
        if self.checks is not None:
            if not isinstance(self.checks, (list, tuple)) or not self.checks:
                raise ValueError(
                    f"checks must be a nonempty list of check ids, got {self.checks!r}"
                )
            object.__setattr__(self, "checks", tuple(self.checks))
        object.__setattr__(self, "budget", checked_int(self.budget, "budget", 1))
        object.__setattr__(self, "workers", checked_int(self.workers, "workers", 1))
        object.__setattr__(self, "seed", checked_int(self.seed, "seed", 0, SEED_MAX))
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a file name, got {self.out!r}")
        if self.out and not os.path.isdir(os.path.dirname(os.path.abspath(self.out))):
            raise ValueError(f"cannot write {self.out}: its directory does not exist")
        if self.out and os.path.isdir(self.out):
            raise ValueError(f"cannot write {self.out}: it is a directory")


# ---------------------------------------------------------------------------
# Serialization.


def _dump_json(obj) -> str:
    r"""The report's bytes: equal to ``json.dumps(obj, indent=2,
    sort_keys=True) + "\n"``, for the types a report carries.

    Accepts str, int, bool, None, list, tuple and dict with str keys, and
    raises TypeError on anything else (a float such as a wall time, a numpy
    scalar, a non-str key, a set), so no such value changes the bytes.

    >>> print(_dump_json({"name": "Zürich", "b": {"e": [], "ok": True}}), end="")
    {
      "b": {
        "e": [],
        "ok": true
      },
      "name": "Z\u00fcrich"
    }
    """
    return _scalar(obj, "\n") + "\n"


def _emit_json(obj, out: list[str], newline: str) -> None:
    # newline is the line break and indent of obj's own level.  A dict or
    # list writes a child whose type is exactly int or str inline; any other
    # child, a bool or an int or str subclass among them, takes one call of
    # its own, and so the isinstance tests and their TypeError.
    if isinstance(obj, (dict, list, tuple)):
        keyed = isinstance(obj, dict)
        brackets = "{}" if keyed else "[]"
        if not obj:
            out.append(brackets)
            return
        inner = newline + "  "
        sep = brackets[0] + inner
        # A dict's keys are unique, so its items sort by key; _quote raises
        # TypeError on a key that is not a str.
        for key, value in sorted(obj.items()) if keyed else enumerate(obj):
            head = f"{sep}{_quote(key)}: " if keyed else sep
            kind = type(value)
            if kind is int:
                out.append(head + int.__repr__(value))
            elif kind is str:
                out.append(head + _quote(value))
            else:
                out.append(head)
                _emit_json(value, out, inner)
            sep = "," + inner
        out.append(newline + brackets[1])
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, int):
        # bool is an int: test for it first; int.__repr__ keeps the
        # int-to-str digit limit.
        out.append("true" if obj is True else "false" if obj is False else int.__repr__(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"a JSON report cannot hold {type(obj).__name__} {obj!r}")


def _tally(reports: Sequence[InstanceReport]) -> tuple[int, int]:
    """(checks, failures) over the reports: the one count behind the JSON
    summary, suite's summary line and the exit code."""
    checks = [c for r in reports for c in r.checks]
    return len(checks), sum(not c.passed for c in checks)


# The line break and indent of level n of the report, n = 1..5.
_L1, _L2, _L3, _L4, _L5 = ("\n" + "  " * n for n in range(1, 6))


def _scalar(value, newline: str) -> str:
    """value as _emit_json writes it at the level whose line break is
    newline; an exact int takes no _emit_json call."""
    if type(value) is int:
        return int.__repr__(value)
    out: list[str] = []
    _emit_json(value, out, newline)
    return "".join(out)


def _array(items: list[str], newline: str) -> str:
    """The JSON array of items, each written with its own line break, at
    the level whose line break is newline."""
    return "[" + ",".join(items) + newline + "]" if items else "[]"


def emit_report(reports: Sequence[InstanceReport], fmt: str = "json") -> str:
    """Serialize instance reports; JSON is byte-stable, text is for humans.

    The JSON is written straight from the reports' fields in one pass, with
    the schema's keys as literals in their sorted order: its bytes are
    ``_dump_json``'s of the README schema.  A check entry goes through
    ``_emit_json``, and so do ``e`` and ``v_order_exp`` unless their type
    is exactly int.
    """
    if fmt == "json":
        total, failures = _tally(reports)
        instances = []
        for r in reports:
            # GroupSpec and AbelianInvariants hold only exact ints (checked_int).
            p = int.__repr__(r.group.p)
            lams = f",{_L5}".join(map(int.__repr__, r.group.lambdas))
            pairs = [
                f'{_L4}{{{_L5}"multiplicity": {int.__repr__(m)},'
                f'{_L5}"order_exp": {int.__repr__(x)}{_L4}}}'
                for x, m in r.invariants.entries
            ]
            checks = [
                _L4 + _scalar({"id": c.check_id, "observed": c.observed, "predicted": c.predicted,
                               "seed": c.seed, "verdict": c.verdict}, _L4)
                for c in r.checks
            ]
            instances.append(
                f'{_L2}{{{_L3}"checks": {_array(checks, _L3)},{_L3}"e": {_scalar(r.e, _L3)},'
                f'{_L3}"group": {{{_L4}"lambda": [{_L5}{lams}{_L4}],{_L4}"p": {p}{_L3}}},'
                f'{_L3}"invariants": {_array(pairs, _L3)},{_L3}"v_order": {{{_L4}"base": {p},'
                f'{_L4}"exp": {_scalar(r.v_order_exp, _L4)}{_L3}}}{_L2}}}'
            )
        all_pass = "true" if failures == 0 else "false"
        return (
            f'{{{_L1}"instances": {_array(instances, _L1)},{_L1}"summary": {{'
            f'{_L2}"all_pass": {all_pass},{_L2}"failures": {failures},'
            f'{_L2}"total_checks": {total}{_L1}}}\n}}\n'
        )
    if fmt == "text":
        lines = []
        for r in reports:
            p = r.group.p
            lines.append(f"{r.group.to_text()};e={r.e}")
            lines.append(f"  |V| = {p}^{r.v_order_exp}")
            lines.append(f"  V ≅ {r.invariants.describe(p)}")
            for c in r.checks:
                lines.append(f"  {c.check_id}: {c.verdict}  ({c.wall_time:.3f}s)")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _no_float(text: str):
    raise ValueError(f"a report holds no floats, got {text}")


def parse_report_json(text: str) -> list[InstanceReport]:
    """Inverse of emit_report(..., 'json'), up to wall-clock data.

    What it cannot invert (a missing or stray key, a value of the wrong
    type, a float, a ``v_order.base`` other than p, a summary that the
    checks do not add up to) is one ValueError naming the field.
    """
    payload = json.loads(text, parse_float=_no_float, parse_constant=_no_float)
    payload = _json_fields(payload, "report", {"instances", "summary"})
    reports = []
    for d in _json_list(payload["instances"], "instances"):
        d = _json_fields(d, "report instance", {"checks", "e", "group", "invariants", "v_order"})
        g = _json_fields(d["group"], "group", {"p", "lambda"})
        group, e = GroupSpec(g["p"], g["lambda"]), checked_int(d["e"], "e", 1)
        order = _json_fields(d["v_order"], "v_order", {"base", "exp"})
        if order["base"] != group.p:
            raise ValueError(f"v_order.base must be p = {group.p}, got {order['base']!r}")
        invariants = AbelianInvariants.from_pairs(
            _json_fields(x, "invariants entry", {"order_exp", "multiplicity"})
            for x in _json_list(d["invariants"], "invariants")
        )
        checks = tuple(
            VerificationReport(c["id"], group, e, c["predicted"], c["observed"], c["verdict"],
                               checked_int(c["seed"], "check seed", 0))
            for c in (
                _json_fields(c, "check", {"id", "observed", "predicted", "seed", "verdict"})
                for c in _json_list(d["checks"], "checks")
            )
        )
        exp = checked_int(order["exp"], "v_order.exp", 0)
        reports.append(InstanceReport(group, e, exp, invariants, checks))
    total, failures = _tally(reports)
    summary = {"all_pass": failures == 0, "failures": failures, "total_checks": total}
    # Compared as written, so that an all_pass of 1 is not taken for true.
    if _dump_json(payload["summary"]) != _dump_json(summary):
        raise ValueError(f"summary must be {summary} for these checks, got {payload['summary']!r}")
    return reports


def _write_atomic(path: str, data: str) -> None:
    """Write data to path through a temporary file beside it; an OSError
    names path, not the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".punits-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# Suite catalog and runner.

_CATALOG = (
    # (p, lambdas, max size exponent of |V| = p^{e(|G|-1)})
    (2, ((1,), (2,), (3,), (1, 1), (1, 2), (1, 1, 1), (2, 2)), 20),
    (3, ((1,), (2,), (1, 1)), 13),
    (5, ((1,),), 12),
)


def default_suite_config(**settings) -> SuiteConfig:
    """The built-in catalog: every desk-scale (p, lambda, e) instance, with
    SuiteConfig's other fields (budget, workers, seed, out) given by name.

    Instances whose |V| exceeds the enumeration budget still appear (their
    closed forms and the non-enumerative checks run); the enumeration
    checks are skipped for them by the planner.
    """
    instances = []
    for p, lambda_lists, cap_exp in _CATALOG:
        for lams in lambda_lists:
            group = GroupSpec(p, lams)
            per_e = group.order() - 1
            for e in range(1, cap_exp // per_e + 1):
                instances.append(SuiteInstance(group=group, e=e))
    return SuiteConfig(instances=tuple(instances), **settings)


def _json_fields(raw, what: str, keys: set[str], required: Optional[set[str]] = None) -> dict:
    """raw as a JSON object with no key outside keys and every key of
    required (default: every key of keys)."""
    required = keys if required is None else required
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(raw).__name__}")
    if raw.keys() - keys:
        raise ValueError(f"unknown {what} keys: {', '.join(sorted(raw.keys() - keys))}")
    if required - raw.keys():
        raise ValueError(f"{what} lacks {', '.join(sorted(required - raw.keys()))}")
    return raw


def _json_list(raw, what: str) -> list:
    if not isinstance(raw, list):
        raise ValueError(f"{what} must be a list, got {type(raw).__name__}")
    return raw


def _config_instance(raw) -> SuiteInstance:
    form = {"group"} if isinstance(raw, dict) and "group" in raw else {"p", "lambda"}
    item = _json_fields(raw, "suite instance", form | {"e", "formula_only"}, form | {"e"})
    if "group" in item:
        group = GroupSpec.from_text(item["group"])
    else:
        group = GroupSpec(item["p"], item["lambda"])
    return SuiteInstance(group, item["e"], item.get("formula_only", False))


def load_suite_config(path: str) -> SuiteConfig:
    """Map a JSON suite config onto SuiteConfig, which validates it."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8 or not JSON
        why = getattr(exc, "strerror", None) or exc
        raise ValueError(f"cannot read suite config {path}: {why}") from None
    keys = {f.name for f in fields(SuiteConfig)}
    raw = _json_fields(raw, "suite config", keys, set())
    instances = _json_list(raw.get("instances", []), "instances")
    return SuiteConfig(**{**raw, "instances": [_config_instance(i) for i in instances]})


def _ring(inst: SuiteInstance) -> RingSpec | str:
    """The ring the instance's checks run on, or why it has none:
    ``formula_only``, or e past the characteristic cap that RingSpec reads
    (``ring.checked_modulus_exp``)."""
    try:
        return "formula_only" if inst.formula_only else RingSpec(inst.group, inst.e)
    except ValueError as exc:
        return str(exc)


def _run_instance(task) -> InstanceReport:
    """(instance, ring, plan, budget, seed) -> its InstanceReport, the one
    place where closed forms become a report; the ring is read only if the
    plan is not empty."""
    inst, rs, plan, budget, seed = task
    rep = structure_report(inst.group, inst.e)
    # The checks share one Units, and so one power map, freed on return.
    units = Units(rs, budget) if plan else None
    checks = tuple(verify_check(check, units, params, seed=seed) for check, params in plan)
    return InstanceReport(inst.group, inst.e, rep.v_order_exp, rep.v_invariants, checks)


def run_suite(config: SuiteConfig) -> list[InstanceReport]:
    """Plan every instance, then run the plans: in a pool of P = min(workers,
    instances, CPUs) forked processes if P > 1 and ``fork`` exists, else
    here.  Reports, and a check's exception, come as from a serial run; a
    pool process that dies raises OSError.

    Raises ValueError, naming why, before any check runs when a check
    listed explicitly in ``config.checks`` is unknown (``oracle._lookup``)
    or planned on no instance.  An instance with no ring (``_ring``) plans
    no check and still reports its closed forms.
    """
    enabled = None if config.checks is None else {_lookup(c).id for c in config.checks}
    rings = [_ring(inst) for inst in config.instances]
    plans = [
        [] if isinstance(rs, str) else plan_checks(rs, enabled, config.budget)
        for rs in rings
    ]
    missing = sorted((enabled or set()) - {check for plan in plans for check, _ in plan})
    if missing:
        reasons = [
            dict.fromkeys(
                rs if isinstance(rs, str) else unplanned_reason(c, rs, config.budget)
                for rs in rings
            )
            for c in missing
        ]
        listed = ", ".join(f"{c} ({'; '.join(r)})" for c, r in zip(missing, reasons))
        raise ValueError(f"checks not applicable to any instance: {listed}")
    tasks = [
        (inst, rs, plan, config.budget, config.seed)
        for inst, rs, plan in zip(config.instances, rings, plans)
    ]
    procs = min(config.workers, len(tasks), os.cpu_count() or 1)
    if procs < 2 or not hasattr(os, "fork"):
        return [_run_instance(task) for task in tasks]
    # Imported only here: loading the pool machinery costs 20-40 ms and
    # about 1 MB of RSS, which a one-worker run and ``import punits`` skip.
    # Forked, as a spawned process would import numpy and punits again.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            return list(pool.map(_run_instance, tasks))
        except BrokenProcessPool as exc:
            raise OSError(f"a worker process died: {exc}") from None


# ---------------------------------------------------------------------------
# Argument parsing and subcommands.


def _add_instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True, help="prime p")
    sub.add_argument(
        "--lambda",
        dest="lambdas",
        required=True,
        help="comma-separated cyclic factor exponents, e.g. 1,2",
    )
    sub.add_argument("--e", type=int, required=True, help="coefficient ring is Z_{p^e}")


def _add_run_args(sub: argparse.ArgumentParser, what: str) -> None:
    """verify's and suite's flags that override the SuiteConfig field of
    the same name (``_run_config``); unset, they leave it as it is."""
    for name in ("budget", "workers", "seed"):
        sub.add_argument(f"--{name}", type=int)
    sub.add_argument("--out", help=f"write the JSON {what} to this file (atomic)")


def _parse_group(args) -> GroupSpec:
    return GroupSpec(args.p, int_list(args.lambdas, "--lambda"))


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors, its subparsers' too, end in one
    ``error:`` line and exit 2, as every other refusal does; --help prints
    as argparse's does."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="punits",
        description="Structure of the normalized unit group V(Z_{p^e}G) "
        "of a finite abelian p-group, with exhaustive verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("invariants", help="closed-form invariants of V")
    _add_instance_args(sub)
    sub.add_argument("--format", choices=("text", "json"), default="text")

    sub = subs.add_parser("verify", help="run verification checks")
    _add_instance_args(sub)
    sub.add_argument("--checks", help="comma-separated check ids (default: all applicable)")
    _add_run_args(sub, "report")
    sub.add_argument("--format", choices=("text", "json"), default="text")

    sub = subs.add_parser("suite", help="run the default or a configured catalog")
    sub.add_argument("--config", help="JSON suite configuration file")
    _add_run_args(sub, "summary")

    sub = subs.add_parser("order", help="order of a normalized unit")
    _add_instance_args(sub)
    sub.add_argument("--coeffs", required=True, help="comma-separated residues")
    sub.add_argument("--format", choices=("text", "json"), default="text")

    sub = subs.add_parser("reduce", help="reduce an element mod p^e_target")
    _add_instance_args(sub)
    sub.add_argument("--coeffs", required=True, help="comma-separated residues")
    sub.add_argument("--to", type=int, required=True, help="target exponent e")

    sub = subs.add_parser("dimsub", help="dimension subgroup G ∩ (1 + w^n)")
    _add_instance_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--oracle", action="store_true", help="cross-check by membership in w^n")

    return parser


def _run_config(args, config: SuiteConfig) -> int:
    """The body of invariants, verify and suite: run config with the run
    flags given (a flag that the command lacks counts as unset), and print
    the report in ``--format`` (JSON for suite).  With ``out`` set, the JSON
    report is also written there, and suite prints one summary line instead.
    The JSON report is formed only for ``out`` or for printing, and the
    whole text is formed before any of it is written, so a failing run
    leaves only the error line."""
    flags = {name: getattr(args, name, None) for name in ("budget", "workers", "seed", "out")}
    config = replace(config, **{k: v for k, v in flags.items() if v is not None})
    reports = run_suite(config)
    total, failures = _tally(reports)
    fmt = getattr(args, "format", "json")
    text = emit_report(reports, fmt)
    if config.out:
        _write_atomic(config.out, text if fmt == "json" else emit_report(reports, "json"))
    if args.command == "suite" and config.out:
        text = f"{len(reports)} instances, {total} checks, {failures} failures -> {config.out}\n"
    sys.stdout.write(text)
    return 1 if failures else 0


def _cmd_invariants(args) -> int:
    instance = SuiteInstance(_parse_group(args), args.e, formula_only=True)
    return _run_config(args, SuiteConfig((instance,)))


def _cmd_verify(args) -> int:
    checks = None if args.checks is None else tuple(args.checks.split(","))
    return _run_config(args, SuiteConfig((SuiteInstance(_parse_group(args), args.e),), checks))


def _cmd_suite(args) -> int:
    return _run_config(
        args, load_suite_config(args.config) if args.config else default_suite_config()
    )


def _parse_element(args) -> RingElement:
    """The element of Z_{p^e}G given by --p, --lambda, --e and --coeffs."""
    return RingElement(RingSpec(_parse_group(args), args.e), int_list(args.coeffs, "--coeffs"))


def _cmd_order(args) -> int:
    element = _parse_element(args)
    order, p = unit_order(element), element.spec.p  # unit_order refuses a non-unit
    if args.format == "json":
        sys.stdout.write(_dump_json({"order": {"base": p, "exp": p_valuation(order, p)}}))
    else:
        print(order)
    return 0


def _cmd_reduce(args) -> int:
    print(reduce_mod(_parse_element(args), args.to).to_text())
    return 0


def _cmd_dimsub(args) -> int:
    group = _parse_group(args)
    index = theory.dimension_subgroup(group, args.e, args.n)
    _check_digits(group.p, index, f"D_{args.n} = G^({group.p}^{index}): {group.p}^{index}")
    text = f"D_{args.n} = G\n" if index == 0 else f"D_{args.n} = G^{group.p ** index}\n"
    passed = True
    # As in _run_config, the whole text is built before any of it is
    # written, so a failing oracle run leaves only the error line.
    if args.oracle:
        report = verify_check("lemma3", RingSpec(group, args.e), {"n": args.n})
        text += f"oracle agreement: {report.verdict}\n"
        passed = report.passed
    sys.stdout.write(text)
    return 0 if passed else 1


_COMMANDS = {
    "invariants": _cmd_invariants,
    "verify": _cmd_verify,
    "suite": _cmd_suite,
    "order": _cmd_order,
    "reduce": _cmd_reduce,
    "dimsub": _cmd_dimsub,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except (BudgetExceededError, ValueError, OSError, ArithmeticError) as exc:
        # ArithmeticError is the library's own consistency checks: the closed
        # forms or the oracle contradicted themselves, which is no refusal.
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ArithmeticError) else 2


if __name__ == "__main__":
    sys.exit(main())
