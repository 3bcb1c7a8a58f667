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
output is written by ``_dump_json``, punits' own emitter: its bytes equal
``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, without the
stdlib's pure-Python indent encoder.  It accepts str, int, bool, None,
list, tuple and dict with str keys, and raises TypeError on anything else
(a float, a numpy scalar, a non-str key, a set).  The stdlib ``json``
module only parses reports and suite configs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Sequence

from . import theory
from .oracle import (
    CHECK_IDS,
    DEFAULT_BUDGET,
    SEED_MAX,
    BudgetExceededError,
    Units,
    VerificationReport,
    plan_checks,
    unplanned_reason,
    verify_check,
)
from .pgroup import GroupSpec, checked_int, int_list, p_valuation
from .ring import RingElement, RingSpec, is_normalized_unit, reduce_mod, unit_order
from .theory import AbelianInvariants, structure_report


def _check_digits(base: int, exp: int, what: str) -> None:
    """Refuse base**exp, named ``what``, if it has more digits than Python's
    int-to-str limit prints; it is built only when its bit length puts it
    near the limit, where that is cheap."""
    limit = sys.get_int_max_str_digits()
    if not limit or base < 2 or exp * base.bit_length() <= 3 * limit:
        return  # below 2^(3 limit) < 10^limit
    # 2^(4 limit) > 10^limit
    if exp * (base.bit_length() - 1) >= 4 * limit or base**exp >= 10**limit:
        raise ValueError(f"{what} has more than {limit} digits, past the int-to-str limit")


def _check_printable(group: GroupSpec, e: int) -> None:
    """Refuse an instance whose answer holds a number too long to print.

    The largest number an answer prints is the exponent e(|G| - 1) of |V|,
    so its digit count decides, before the closed forms build the agemo
    sizes.  It costs O(sum of lambda) bits.
    """
    _check_digits(theory.v_order_exp(group, e), 1, "the exponent e(|G| - 1) of |V|")


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
    a check listed explicitly must be planned on at least one instance."""

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
            unknown = [c for c in self.checks if c not in CHECK_IDS]
            if unknown:
                raise ValueError(f"unknown check ids: {', '.join(map(repr, unknown))}")
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


def _instance_to_json(r: InstanceReport) -> dict:
    return {
        "group": {"p": r.group.p, "lambda": list(r.group.lambdas)},
        "e": r.e,
        "v_order": {"base": r.group.p, "exp": r.v_order_exp},
        "invariants": r.invariants.to_pairs(),
        "checks": [
            {
                "id": c.check_id,
                "verdict": c.verdict,
                "predicted": c.predicted,
                "observed": c.observed,
                "seed": c.seed,
            }
            for c in r.checks
        ],
    }


def _instance_from_json(d: dict) -> InstanceReport:
    group = GroupSpec(d["group"]["p"], tuple(d["group"]["lambda"]))
    checks = tuple(
        VerificationReport(
            check_id=c["id"],
            group=group,
            e=d["e"],
            predicted=c["predicted"],
            observed=c["observed"],
            verdict=c["verdict"],
            seed=c["seed"],
        )
        for c in d["checks"]
    )
    return InstanceReport(
        group=group,
        e=d["e"],
        v_order_exp=d["v_order"]["exp"],
        invariants=AbelianInvariants.from_pairs(d["invariants"]),
        checks=checks,
    )


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
    out: list[str] = []
    _emit_json(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _emit_json(obj, out: list[str], newline: str) -> None:
    # newline is the line break and indent of obj's own level.
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, int):
        # bool is an int: test for it first; int.__repr__ keeps the
        # int-to-str digit limit.
        out.append("true" if obj is True else "false" if obj is False else int.__repr__(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        # _quote raises TypeError on a key that is not a str.
        for key in sorted(obj):
            out.append(sep + _quote(key) + ": ")
            _emit_json(obj[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _emit_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"a JSON report cannot hold {type(obj).__name__} {obj!r}")


def emit_report(reports: Sequence[InstanceReport], fmt: str = "json") -> str:
    """Serialize instance reports; JSON is byte-stable, text is for humans."""
    if fmt == "json":
        total = sum(len(r.checks) for r in reports)
        failures = sum(
            1 for r in reports for c in r.checks if not c.passed
        )
        payload = {
            "instances": [_instance_to_json(r) for r in reports],
            "summary": {
                "total_checks": total,
                "failures": failures,
                "all_pass": failures == 0,
            },
        }
        return _dump_json(payload)
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


def parse_report_json(text: str) -> list[InstanceReport]:
    """Inverse of emit_report(..., 'json'), up to wall-clock data."""
    payload = json.loads(text)
    return [_instance_from_json(d) for d in payload["instances"]]


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


def default_suite_config(
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
    seed: int = 0,
    out: Optional[str] = None,
) -> SuiteConfig:
    """The built-in catalog: every desk-scale (p, lambda, e) instance.

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
    return SuiteConfig(
        instances=tuple(instances),
        budget=budget,
        workers=workers,
        seed=seed,
        out=out,
    )


def _json_fields(raw, what: str, keys: set[str], required: set[str]) -> dict:
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(raw).__name__}")
    if raw.keys() - keys:
        raise ValueError(f"unknown {what} keys: {', '.join(sorted(raw.keys() - keys))}")
    if required - raw.keys():
        raise ValueError(f"{what} lacks {', '.join(sorted(required - raw.keys()))}")
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
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"cannot read suite config {path}: {exc}") from None
    keys = {f.name for f in fields(SuiteConfig)}
    raw = _json_fields(raw, "suite config", keys, set())
    instances = raw.get("instances", [])
    if not isinstance(instances, list):
        raise ValueError(f"instances must be a list, got {type(instances).__name__}")
    return SuiteConfig(**{**raw, "instances": [_config_instance(i) for i in instances]})


def _run_instance(task) -> InstanceReport:
    """(instance, ring or None, plan, budget, seed) -> its InstanceReport."""
    inst, rs, plan, budget, seed = task
    rep = structure_report(inst.group, inst.e)
    # The checks share one Units, and so one power map, freed on return.
    units = None if rs is None else Units(rs, budget)
    checks = tuple(verify_check(check, units, params, seed=seed) for check, params in plan)
    return InstanceReport(inst.group, inst.e, rep.v_order_exp, rep.v_invariants, checks)


def run_suite(config: SuiteConfig) -> list[InstanceReport]:
    """Plan every instance, then run the plans: in a pool of P = min(workers,
    instances, CPUs) forked processes if P > 1 and ``fork`` exists, else
    here.  Reports, and a check's exception, come as from a serial run; a
    pool process that dies raises OSError.

    Raises ValueError, naming why, before any check runs when a check
    listed explicitly in ``config.checks`` is planned on no instance.
    """
    enabled = None if config.checks is None else set(config.checks)
    rings = [
        None if inst.formula_only else RingSpec(inst.group, inst.e)
        for inst in config.instances
    ]
    plans = [
        [] if rs is None else plan_checks(rs, enabled, config.budget) for rs in rings
    ]
    missing = sorted((enabled or set()) - {check for plan in plans for check, _ in plan})
    if missing:
        reasons = [
            dict.fromkeys(
                unplanned_reason(c, rs, config.budget) if rs else "formula_only"
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
    # Forked, as a spawned process would import numpy and punits again and
    # build the plans' ideal chains anew.
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


def _parse_group(args) -> GroupSpec:
    return GroupSpec(args.p, int_list(args.lambdas, "--lambda"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="write the JSON report to this file (atomic)")
    sub.add_argument("--format", choices=("text", "json"), default="text")

    sub = subs.add_parser("suite", help="run the default or a configured catalog")
    sub.add_argument("--config", help="JSON suite configuration file")
    sub.add_argument("--budget", type=int)
    sub.add_argument("--workers", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", help="write the JSON summary to this file (atomic)")

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
    sub.add_argument("--oracle", action="store_true", help="cross-check by Howell membership")

    return parser


def _cmd_invariants(args) -> int:
    group = _parse_group(args)
    _check_printable(group, args.e)
    rep = structure_report(group, args.e)
    instance = InstanceReport(
        group=group,
        e=args.e,
        v_order_exp=rep.v_order_exp,
        invariants=rep.v_invariants,
    )
    # The whole text is built before any of it is written, so a number too
    # long to print leaves only the error line.
    if args.format == "json":
        text = emit_report([instance], "json")
    else:
        p = group.p
        text = "".join(
            f"{line}\n"
            for line in (
                f"{group.to_text()};e={args.e}",
                f"|V| = {p}^{rep.v_order_exp}",
                f"V ≅ {rep.v_invariants.describe(p)}",
                f"s = {list(rep.s)}, l = {rep.l}, p-rank of V(Z_pG) = {rep.p_rank}",
                f"|V[{p}]| = {p}^{rep.v_p_torsion_exp}",
            )
        )
    sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    config = SuiteConfig(
        instances=(SuiteInstance(_parse_group(args), args.e),),
        checks=None if args.checks is None else tuple(args.checks.split(",")),
        budget=args.budget,
        workers=args.workers,
        seed=args.seed,
        out=args.out,
    )
    reports = run_suite(config)
    payload = emit_report(reports, "json")
    if config.out:
        _write_atomic(config.out, payload)
    sys.stdout.write(payload if args.format == "json" else emit_report(reports, "text"))
    return 0 if reports[0].all_pass() else 1


def _cmd_suite(args) -> int:
    config = load_suite_config(args.config) if args.config else default_suite_config()
    overrides = {
        name: getattr(args, name)
        for name in ("budget", "workers", "seed", "out")
        if getattr(args, name) is not None
    }
    config = replace(config, **overrides)
    reports = run_suite(config)
    payload = emit_report(reports, "json")
    if config.out:
        _write_atomic(config.out, payload)
        failures = sum(1 for r in reports for c in r.checks if not c.passed)
        total = sum(len(r.checks) for r in reports)
        print(
            f"{len(reports)} instances, {total} checks, {failures} failures "
            f"-> {config.out}"
        )
    else:
        sys.stdout.write(payload)
    return 0 if all(r.all_pass() for r in reports) else 1


def _cmd_order(args) -> int:
    group = _parse_group(args)
    rs = RingSpec(group, args.e)
    coeffs = int_list(args.coeffs, "--coeffs")
    element = RingElement(rs, coeffs)
    if not is_normalized_unit(element):
        raise ValueError("element is not a normalized unit (augmentation != 1)")
    order = unit_order(element)
    if args.format == "json":
        exp = p_valuation(order, group.p)
        sys.stdout.write(_dump_json({"order": {"base": group.p, "exp": exp}}))
    else:
        print(order)
    return 0


def _cmd_reduce(args) -> int:
    group = _parse_group(args)
    rs = RingSpec(group, args.e)
    coeffs = int_list(args.coeffs, "--coeffs")
    element = RingElement(rs, coeffs)
    print(reduce_mod(element, args.to).to_text())
    return 0


def _cmd_dimsub(args) -> int:
    group = _parse_group(args)
    index = theory.dimension_subgroup(group, args.e, args.n)
    _check_digits(group.p, index, f"D_{args.n} = G^({group.p}^{index}): {group.p}^{index}")
    text = f"D_{args.n} = G\n" if index == 0 else f"D_{args.n} = G^{group.p ** index}\n"
    passed = True
    # As in _cmd_invariants, the whole text is built before any of it is
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
    except (BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
