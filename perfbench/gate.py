"""Output gate: every job's output against the frozen reference.

The reference (reference.json, written by freeze.py at the seed commit)
holds, with no timings:

    verify-default  (id, status, nonzero_entries) of every check
    spectrum-deep   sha256 of every line `spectrum --op X --nmax 7` prints
    sweep-small     the check-id set per (legs, nmax), and the sha256 of
                    the pentagon DOT, which does not depend on q or k

gate() returns (attempted, failed, problems): attempted counts checks
(verify) or weight blocks (spectrum) or compass graphs; failed counts
those whose output disagrees with the reference or whose gating check
is not ok.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verify_exact(expected, result, problems):
    """Per-check comparison with a frozen (id, status, nonzero) list."""
    got = {c[0]: c for c in (result or {}).get("checks") or []}
    failed = 0
    for cid, status, nonzero in expected:
        c = got.pop(cid, None)
        if c is None or (c[1], c[2]) != (status, nonzero) or (c[3] and not c[4]):
            failed += 1
            problems.append(f"check {cid}: got {c[1:3] if c else 'nothing'}, want {[status, nonzero]}")
    failed += len(got)
    problems.extend(f"unexpected check {cid}" for cid in got)
    return _exit_ok(result, failed, problems)


def _verify_ids(expected_ids, result, problems):
    """Same check ids as the reference, and every gating check ok."""
    checks = (result or {}).get("checks") or []
    got = {c[0] for c in checks}
    expected = set(expected_ids)
    bad = {c[0] for c in checks if c[3] and not c[4]}
    wrong = (expected - got) | (got - expected) | bad
    problems.extend(f"check {cid} missing, unexpected or not ok" for cid in sorted(wrong))
    return _exit_ok(result, len(wrong), problems)


def _exit_ok(result, failed, problems):
    if result is None or result["rc"] != 0:
        problems.append(f"exit code {None if result is None else result['rc']}")
        failed = max(failed, 1)
    return failed


def _spectrum(expected_lines, result, problems, op):
    """expected_lines: sha256 of the header line, then one per block."""
    blocks = len(expected_lines) - 1
    lines = (result or {}).get("stdout", "").splitlines()
    if result is None or result["rc"] != 0 or not lines or sha256(lines[0]) != expected_lines[0]:
        problems.append(f"spectrum {op}: bad exit code or header")
        return blocks
    failed = 0
    for i in range(1, max(len(lines), len(expected_lines))):
        want = expected_lines[i] if i < len(expected_lines) else None
        if i >= len(lines) or sha256(lines[i]) != want:
            failed += 1
            problems.append(f"spectrum {op} line {i} differs")
    return min(failed, blocks)


def gate(workload: str, jobs: list, results, ref: dict):
    """Compare one repetition's job results (None: the repetition
    failed) with the reference."""
    ref = ref[workload]
    results = results or [None] * len(jobs)
    attempted = failed = 0
    problems: list[str] = []
    for job, result in zip(jobs, results):
        if workload == "verify-default":
            attempted += len(ref["checks"])
            failed += _verify_exact(ref["checks"], result, problems)
        elif workload == "spectrum-deep":
            expected = ref[job["op"]]
            attempted += len(expected) - 1
            failed += _spectrum(expected, result, problems, job["op"])
        elif job["kind"] == "verify":
            cfg = job["config"]
            expected = ref["check_ids"][f"{cfg['legs']},{cfg['nmax']}"]
            attempted += len(expected)
            failed += _verify_ids(expected, result, problems)
        else:
            attempted += 1
            if result is None or result["rc"] != 0 or sha256(result["stdout"]) != ref["compass_sha256"]:
                failed += 1
                problems.append(f"compass {job['config']}: bad exit code or graph")
    return attempted, min(failed, attempted), problems
