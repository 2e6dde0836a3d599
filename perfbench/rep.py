"""One repetition of a workload, in a fresh process.

    python3 perfbench/rep.py SPEC OUT

SPEC is a JSON file written by run.py:

    src    directory holding the awalgebra package
    mode   "run"    run the jobs; time the package import and every
                    realization build (cli.build_registry, cli.casimir)
           "trace"  run the jobs under the layer tracer, write the
                    spans to `spans`
    jobs   the CLI jobs (workloads.jobs); REPORT names a temp file in `tmp`

OUT receives the timings, the peak resident memory of this process
(RUSAGE_SELF, so nothing from an earlier repetition), the backend and
every job's exit code, standard output and report checks.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import REPORT  # noqa: E402

SETUP_CALLS = ("build_registry", "casimir")


def _import_cli(src):
    sys.path.insert(0, src)
    t = time.perf_counter()
    import awalgebra.cli as cli

    return cli, time.perf_counter() - t


def _record_setup(cli, timings):
    """Time the realization builds the CLI makes, in the CLI's namespace."""

    def timed(fn):
        def call(*args, **kwargs):
            t = time.perf_counter()
            result = fn(*args, **kwargs)
            timings.append(time.perf_counter() - t)
            return result

        return call

    for name in SETUP_CALLS:
        setattr(cli, name, timed(getattr(cli, name)))


def _checks(report_text):
    report = json.loads(report_text)
    return [
        [c["id"], c["status"], c["residual_summary"].get("nonzero_entries"), c["gating"], c["ok"]]
        for c in report["checks"]
    ]


def run_jobs(spec):
    cli, import_s = _import_cli(spec["src"])
    tracer = None
    build_times = []
    if spec["mode"] == "trace":
        from layers import Tracer

        modules = {
            name: importlib.import_module(f"awalgebra.{name}")
            for name in (
                "cli", "compass", "fockspace", "opalgebra", "relcheck",
                "reporting", "sparse", "spectra", "uqrep",
            )
        }
        tracer = Tracer()
        tracer.install(modules)
    else:
        _record_setup(cli, build_times)

    tmp = Path(spec["tmp"])
    results = []
    for i, job in enumerate(spec["jobs"]):
        report = tmp / f"report-{i}.json"
        argv = [str(report) if a == REPORT else a for a in job["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        results.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "report": report})
    wall_s = time.perf_counter() - START
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for res in results:
        report = res.pop("report")
        res["checks"] = _checks(report.read_text()) if report.exists() else None
        report.unlink(missing_ok=True)

    from awalgebra import exactnum

    payload = {
        "wall_s": wall_s,
        "setup_s": import_s + sum(build_times),
        "rss_mb": rss_mb,
        "backend": exactnum.BACKEND,
        "jobs": results,
    }
    if tracer is not None:
        payload["layers"] = tracer.metrics(wall_s)
        payload["span_names"] = sorted(tracer.span_names())
        payload["bookkeeping_s"] = tracer.bookkeeping
        with open(spec["spans"], "w") as f:
            json.dump(tracer.spans(), f)
    return payload


def main(argv):
    spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text())
    Path(out_path).write_text(json.dumps(run_jobs(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
