"""Write the benchmark's reference answers into perfbench/reference/.

Run once at the commit whose answers are the reference (cd49e2d for the
files here):

    python3 perfbench/make_reference.py

catalog.json holds the suite JSON sha256 for seeds 0..31 and one
digest per check of its seed-independent content; closed_forms.json the
invariants of every query and the sha256 of all outputs; ideals.json the
nilpotency index of each instance and a digest of each lemma3 verdict.
The catalog runs with two workers; seed 0 is also run with one worker,
and the two must give the same bytes.
"""

from __future__ import annotations

import json
import sys

import workloads as wl
from punits import cli, zpelin

# Catalog seeds 0..REFERENCE_SEEDS-1 get a full suite-JSON sha256.
REFERENCE_SEEDS = 32


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _write(name: str, payload: dict) -> None:
    """JSON with one line per entry of each table, so diffs stay readable."""
    fields = []
    for field, value in sorted(payload.items()):
        if isinstance(value, dict):
            rows = ",\n".join(f"  {_compact(k)}: {_compact(v)}" for k, v in sorted(value.items()))
            value_text = "{\n" + rows + "\n }"
        else:
            value_text = _compact(value)
        fields.append(f" {_compact(field)}: {value_text}")
    wl.REFERENCE.mkdir(exist_ok=True)
    with open(wl.REFERENCE / f"{name}.json", "w") as handle:
        handle.write("{\n" + ",\n".join(fields) + "\n}\n")


def catalog() -> dict:
    hashes, checks = {}, None
    for seed in range(REFERENCE_SEEDS):
        reports = cli.run_suite(cli.default_suite_config(workers=2, seed=seed))
        text = cli.emit_report(reports, "json")
        hashes[str(seed)] = wl.sha256(text)
        got = wl.catalog_check_digests(text)
        if any(verdict != "pass" for verdict, _ in got.values()):
            raise SystemExit(f"seed {seed}: a catalog check fails")
        digests = {key: dig for key, (_, dig) in got.items()}
        if checks is not None and digests != checks:
            raise SystemExit(f"seed {seed}: seed-independent content changed")
        checks = digests
        print(f"catalog seed {seed}: {hashes[str(seed)]}", file=sys.stderr)
    single = cli.emit_report(cli.run_suite(cli.default_suite_config(workers=1, seed=0)), "json")
    if wl.sha256(single) != hashes["0"]:
        raise SystemExit("workers=1 and workers=2 suite JSON differ")
    return {"suite_sha256": hashes, "checks": checks}


def closed_forms() -> dict:
    queries = wl.closed_form_queries()
    keys = [wl.instance_key(g, e) for g, e in queries]
    texts = [wl.closed_form_query(g, e) for g, e in queries]
    return {
        "answers": {k: wl.closed_form_answer(t) for k, t in zip(keys, texts)},
        "all_sha256": wl.closed_form_digest(keys, texts),
    }


def ideals() -> dict:
    nilpotency = {}
    for p, lam, e in wl.IDEAL_INSTANCES:
        rs = wl.RingSpec(wl.GroupSpec(p, lam), e)
        nilpotency[wl.instance_key(rs.group, e)] = zpelin.nilpotency_index(rs)
    answers = {}
    for key, rs, n in wl.ideal_ops(nilpotency):
        answer = wl.ideal_answer(rs, n)
        if n and answer[0] != "pass":
            raise SystemExit(f"{key}: lemma3 fails")
        answers[key] = answer if n == 0 else wl.digest(answer)
    return {"nilpotency": nilpotency, "answers": answers}


def main() -> int:
    _write("ideals", ideals())
    _write("closed_forms", closed_forms())
    _write("catalog", catalog())
    return 0


if __name__ == "__main__":
    sys.exit(main())
