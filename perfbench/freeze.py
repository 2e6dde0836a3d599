"""Write reference.json from the program as it is now.

    python3 perfbench/freeze.py

The reference in the repository was frozen at the seed commit of the
benchmark.  Write it again only in a change whose purpose is to alter
what the program reports, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
import workloads

# one fixed configuration per sweep-small cell; check ids do not depend on q or k
CELL_JOBS = [
    {
        "kind": "verify",
        "config": {"legs": legs, "nmax": nmax},
        "argv": ["verify", "--k", ",".join("1213"[:legs]), "--legs", str(legs), "--nmax", str(nmax), "--report", workloads.REPORT],
    }
    for legs in (3, 4)
    for nmax in (2, 3)
]
COMPASS_JOB = {"kind": "compass", "argv": ["compass", "--nmax", "2"]}


def outputs(jobs):
    run.RESULTS.mkdir(exist_ok=True)
    workdir = run.RESULTS / "freeze"
    workdir.mkdir(exist_ok=True)
    try:
        payload = run.run_child({"mode": "run", "jobs": jobs}, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for job, result in zip(jobs, payload["jobs"]):
        if result["rc"] != 0:
            raise SystemExit(f"{job['argv']} exited {result['rc']}: {result['stderr']}")
    return payload["jobs"]


def main() -> int:
    verify = outputs(workloads.jobs("verify-default", 0))[0]
    spectrum_jobs = workloads.jobs("spectrum-deep", 0)
    spectrum = outputs(spectrum_jobs)
    sweep = outputs(CELL_JOBS + [COMPASS_JOB])
    ref = {
        "commit": run.git_commit(),
        "verify-default": {"checks": [c[:3] for c in verify["checks"]]},
        "spectrum-deep": {
            job["op"]: [gate.sha256(line) for line in result["stdout"].splitlines()]
            for job, result in zip(spectrum_jobs, spectrum)
        },
        "sweep-small": {
            "check_ids": {
                f"{job['config']['legs']},{job['config']['nmax']}": sorted(c[0] for c in result["checks"])
                for job, result in zip(CELL_JOBS, sweep)
            },
            "compass_sha256": gate.sha256(sweep[-1]["stdout"]),
        },
    }
    gate.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {gate.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
