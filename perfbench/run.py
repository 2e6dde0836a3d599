"""awalgebra benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 20 --trace 0

Run from the root of a checkout holding src/awalgebra and
BENCHMARK.json.  Every repetition runs in a fresh process (rep.py)
through the public entry point awalgebra.cli.main, single-process and
single-threaded.  Full repetitions are started until --seconds have
passed, so a run measures at least that long.  Every repetition's
output is checked against reference.json (gate.py).

--trace 0 reports the end-to-end metrics, medians over the run's
repetitions:
    wall_s       wall time of one repetition (package import and jobs)
    setup_s      package import plus every realization build the
                 repetition makes (cli.build_registry, cli.casimir),
                 timed around those calls inside the repetition
    peak_rss_mb  peak resident memory of the repetition's process
A repetition of verify-default takes longer than --seconds 20, so such
a run holds one sample and the spread of its metrics shows only across
repeated runs; spectrum-deep and sweep-small hold two.
--trace 1 runs the same untraced repetitions, then one repetition under
the layer tracer (layers.py), and reports the per-layer metrics;
trace.overhead_s is the traced wall time minus the untraced median.

Human-readable lines (run metadata, median, quartiles and sample count
of every metric, failed_ratio) come first; the last line of standard
output is the JSON result.  A full record, with the backend, Python
version, core count, commit and seed, goes to
perfbench/results/<workload>-seed<seed>-trace<0|1>.json, and a traced
run's spans to perfbench/results/spans-<workload>-seed<seed>.json.
Exit code 0 when every output matches, 1 when not, 2 when the source
tree or the reference is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
CHILD_TIMEOUT_S = 170


class RepFailed(RuntimeError):
    pass


def run_child(spec: dict, workdir: Path) -> dict:
    """Run rep.py on spec in a fresh process; its JSON payload."""
    spec_path, out_path = workdir / "spec.json", workdir / "out.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "tmp": str(workdir), **spec}))
    out_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), str(spec_path), str(out_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not out_path.exists():
        raise RepFailed(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(out_path.read_text())


def summary(values):
    """(median, q1, q3, n) of a list of samples."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def per_layer_units() -> dict:
    """name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "awalgebra").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(args, jobs, ref, workdir):
    """Run the repetitions; samples, gate totals and the traced payload."""
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": []}
    attempted = failed = 0
    problems: list[str] = []
    backend = None

    def checked(payload):
        nonlocal attempted, failed, backend
        a, f, p = gate.gate(args.workload, jobs, payload["jobs"] if payload else None, ref)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)
        if payload:
            backend = payload["backend"]

    def rep(mode):
        try:
            payload = run_child({"mode": mode, "jobs": jobs, "spans": str(workdir / "spans.json")}, workdir)
        except (RepFailed, subprocess.TimeoutExpired) as e:
            problems.append(str(e))
            payload = None
        checked(payload)
        return payload

    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not samples["wall_s"]:
        payload = rep("run")
        if payload is None:
            return samples, attempted, failed, problems, backend, None
        samples["wall_s"].append(payload["wall_s"])
        samples["setup_s"].append(payload["setup_s"])
        samples["peak_rss_mb"].append(payload["rss_mb"])
    traced = rep("trace") if args.trace else None
    return samples, attempted, failed, problems, backend, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "awalgebra" / "cli.py").is_file():
        print(f"error: no awalgebra source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        ref = gate.load_reference()
        layer_units = per_layer_units()
    except (OSError, ValueError, KeyError) as e:
        print(f"error: cannot read the reference or BENCHMARK.json: {e}", file=sys.stderr)
        return 2

    jobs = workloads.jobs(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        samples, attempted, failed, problems, backend, traced = measure(args, jobs, ref, workdir)
        if traced is not None:
            shutil.copyfile(workdir / "spans.json", RESULTS / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }
    print("meta " + json.dumps(meta))
    stats = {name: summary(v) for name, v in samples.items() if v}
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    for name, (med, q1, q3, n) in stats.items():
        print(f"{name:<16} median {med:.4f} {units[name]}  (q1 {q1:.4f}, q3 {q3:.4f}, n={n})")
    failed_ratio = failed / attempted if attempted else 1.0
    print(f"{'failed_ratio':<16} {failed_ratio:.4f} ratio  ({failed} of {attempted} checks or blocks)")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)

    correct = failed == 0 and attempted > 0 and "wall_s" in stats and (traced is not None or not args.trace)
    if args.trace:
        metrics = {}
        if traced is not None:
            values = dict(traced["layers"])
            values["trace.overhead_s"] = traced["wall_s"] - stats["wall_s"][0]
            missing = set(layers.EXPECTED_SPANS[args.workload]) - set(traced["span_names"])
            if missing:
                print(f"warning: no span recorded for {', '.join(sorted(missing))}", file=sys.stderr)
            print(f"traced wall {traced['wall_s']:.4f} s, tracer bookkeeping {traced['bookkeeping_s']:.4f} s")
            for name, unit in layer_units.items():
                print(f"{name:<30} {values[name]:>16.6g} {unit:<5}  moves: {layers.MOVES[name]}")
                metrics[name] = {"value": values[name], "unit": unit}
    else:
        metrics = {name: {"value": stats[name][0], "unit": units[name]} for name in stats}
    record = {
        "meta": meta,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed_ratio,
        "problems": problems,
        "samples": samples,
        "summary": {name: dict(zip(("median", "q1", "q3", "n"), s)) for name, s in stats.items()},
        "metrics": metrics,
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
