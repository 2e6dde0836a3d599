"""Command line front end.

    awalgebra verify   --suite all --report out.json
    awalgebra spectrum --op Q123 [--weight 2]
    awalgebra compass  [--dot pentagon.dot]
    awalgebra tables

Exit codes: 0 all gating checks ok, 1 a gating check is not ok,
2 invalid configuration, 3 output could not be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import relcheck
from .compass import CompassError, build_compass, export_dot
from .exactnum import parse as parse_rational, to_text
from .opalgebra import build_registry, is_consecutive, label_of_subset, subset_of_label
from .spectra import annihilating_residual, predicted_eigenvalues
from .uqrep import RepParams, casimir

SUITE_ORDER = (
    "defining",
    "prop1",
    "prop2",
    "aw3",
    "aw3-quadratic",
    "master",
    "spectra",
    "independence",
)

FORMAT_VERSION = 1

# Fewest basis states at which a four-leg verify hands suites to a
# worker process.  A spawned worker starts a fresh interpreter and
# rebuilds the realization, which costs more than it saves on small
# bases.  Serial against parallel wall time of one verify run in a fresh
# process (fractions backend, 2 cores, medians of six): four legs,
# 0.52 s against 0.58 s at nmax 4 (70 states), 1.02 s against 0.88 s at
# nmax 5 (126 states).  Three-leg runs stay serial at any size: their
# spectra suite holds most of the work, so a worker saves less than it
# costs (medians of four: 0.20 s against 0.42 s at nmax 6, 0.91 s
# against 0.99 s at nmax 10, 286 states).
PARALLEL_MIN_STATES = 126

DEFAULT_K = (1, 2, 1, 3)


def make_config(args) -> RepParams:
    try:
        q = parse_rational(args.q)
    except ZeroDivisionError:
        raise ValueError(f"q has a zero denominator: {args.q!r}")
    if args.k is None:
        k = DEFAULT_K[: args.legs]
    else:
        try:
            k = tuple(int(x) for x in args.k.split(","))
        except ValueError:
            raise ValueError(f"k must be comma-separated integers, got {args.k!r}")
    return RepParams(q=q, k=k, legs=args.legs, n_max=args.nmax)


def suite_obstacle(name: str, p: RepParams) -> str | None:
    """Why a suite cannot run at this configuration, or None."""
    if name in ("prop2", "master", "independence") and p.legs != 4:
        return "needs legs=4"
    if name in ("aw3", "aw3-quadratic") and p.legs < 3:
        return "needs legs>=3"
    if name == "independence" and p.n_max < 2:
        return "needs nmax>=2"
    return None


def run_suite(name: str, p: RepParams) -> list:
    """Reports of one suite at p; registries come from build_registry's
    cache, and the defining suite needs none."""
    if name == "defining":
        return relcheck.check_defining_relations(p) + relcheck.check_coassociativity(p)
    if name == "aw3-quadratic":
        # three-leg sub-realization on the first three legs
        return relcheck.check_aw3_quadratic(
            build_registry(replace(p, legs=3, k=p.k[:3]))
        )
    if name not in SUITE_ORDER:
        raise ValueError(f"unknown suite {name!r}")
    reg = build_registry(p)
    if name == "prop1":
        return relcheck.check_prop1(reg)
    if name == "prop2":
        return relcheck.check_prop2(reg)
    if name == "aw3":
        reports = []
        if p.legs == 4:
            # weight blocks <= 3 pre-screen orientation assignments; the
            # full registry always confirms
            probe = reg.restricted(3) if p.n_max > 3 else None
            for triple in relcheck.enumerate_allowable():
                reports.extend(relcheck.check_aw3_symmetric(reg, triple, probe))
            tag = "linear-embedded"
        else:
            reports.extend(relcheck.check_aw3_symmetric(reg, ((1,), (2,), (3,))))
            tag = "linear"
        reports.extend(relcheck.check_aw3_linear(reg, tag=tag))
        return reports
    if name == "master":
        return relcheck.check_master_all(reg)
    if name == "spectra":
        return relcheck.check_spectra(reg)
    return [relcheck.check_independence(reg)]


def _timed_suite(name: str, p: RepParams):
    """(reports, elapsed ms) of run_suite(name, p).  Module level, so a
    worker process can be sent it by name."""
    start = time.perf_counter()
    reports = run_suite(name, p)
    return reports, int((time.perf_counter() - start) * 1000)


def usable_cpus() -> int:
    """CPUs this process may run on (all of them where the platform
    cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def use_worker(n_suites: int, p: RepParams, cpus: int) -> bool:
    """Whether verify hands suites to one worker process: at least two
    suites, two usable CPUs, four legs and PARALLEL_MIN_STATES basis
    states.  One worker is the only count measured (on 2 cores), so
    more CPUs do not add workers."""
    return n_suites >= 2 and cpus >= 2 and p.legs >= 4 and len(p.basis) >= PARALLEL_MIN_STATES


def suite_results(names, p: RepParams, worker: bool):
    """Yield (name, reports, elapsed ms) for each suite, in order.

    With a worker, the suites nobody has taken yet form one deque.  A
    spawn-context pool of one process takes them from the back, one at
    a time: a feeder thread submits the next suite only when the
    worker's last one is done.  This process takes them from the front
    and waits for the worker's result when it reaches a suite the worker
    took.  If the worker dies (BrokenProcessPool; a spawned worker
    re-imports the main script, so an unguarded script that calls main
    kills it), this process runs the worker's suites too.
    """
    if not worker:
        for name in names:
            yield name, *_timed_suite(name, p)
        return
    import multiprocessing
    import threading
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    left = deque(names)
    lock = threading.Lock()

    def feed(future):
        while future.exception() is None:
            with lock:
                if not left:
                    return
                try:
                    future = pool.submit(_timed_suite, left[-1], p)
                except BrokenProcessPool:
                    return
                taken[left.pop()] = future

    pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn"))
    feeder = None
    try:
        # the first submit starts the worker; a failure to start it
        # raises here, in this thread
        first = pool.submit(_timed_suite, left[-1], p)
        taken = {left.pop(): first}
        feeder = threading.Thread(target=feed, args=(first,))
        feeder.start()
        for name in names:
            with lock:
                mine = bool(left) and left[0] == name
                if mine:
                    left.popleft()
            if mine:
                result = _timed_suite(name, p)
            else:
                try:
                    result = taken[name].result()
                except BrokenProcessPool:
                    result = _timed_suite(name, p)
            yield name, *result
    finally:
        with lock:
            left.clear()
        pool.shutdown()
        if feeder is not None:
            feeder.join()


def cmd_verify(args, p: RepParams) -> int:
    requested = args.suite.split(",")
    for name in requested:
        if name != "all" and name not in SUITE_ORDER:
            print(
                f"error: unknown suite {name!r}; choose from "
                f"{', '.join(SUITE_ORDER)} or all",
                file=sys.stderr,
            )
            return 2
    skipped = {}
    if "all" in requested:
        names = []
        for name in SUITE_ORDER:
            reason = suite_obstacle(name, p)
            if reason is None:
                names.append(name)
            else:
                skipped[name] = reason
    else:
        names = [n for n in SUITE_ORDER if n in requested]
        for name in names:
            reason = suite_obstacle(name, p)
            if reason is not None:
                print(f"error: suite {name} {reason}", file=sys.stderr)
                return 2

    q_text = to_text(p.q)
    print(
        f"params: q={q_text} k={','.join(map(str, p.k))} "
        f"legs={p.legs} nmax={p.n_max}"
    )
    all_reports = []
    timings = {}
    worker = use_worker(len(names), p, usable_cpus())
    for name, reports, ms in suite_results(names, p, worker):
        timings[name] = ms
        all_reports.extend(reports)
        ok = sum(r.ok for r in reports)
        info = sum(not r.gating for r in reports)
        line = f"{name:<14} {len(reports):>3} checks, {ok:>3} ok"
        if info:
            line += f" ({info} informational)"
        print(f"{line}   [{timings[name] / 1000:.1f}s]")
        for r in reports:
            if not r.ok:
                sample = r.residual_summary.get("sample") or ""
                note = r.residual_summary.get("note") or ""
                detail = note or sample
                tag = "FAIL" if r.gating else "info"
                print(f"    {tag} {r.id}  {detail}")
    for name, reason in skipped.items():
        print(f"{name:<14} skipped ({reason})")

    problems = [r for r in all_reports if r.gating and not r.ok]
    verdict = "PASS" if not problems else "FAIL"
    print(
        f"VERDICT: {verdict} ({len(names)} suites, {len(all_reports)} checks, "
        f"{len(problems)} problems, {len(skipped)} skipped)"
    )
    if args.report:
        payload = {
            "format_version": FORMAT_VERSION,
            "params": {
                "q": q_text,
                "k": list(p.k),
                "legs": p.legs,
                "nmax": p.n_max,
            },
            "suites": names,
            "skipped_suites": skipped,
            "checks": [r.to_json() for r in all_reports],
            "summary": {
                "pass": sum(r.ok for r in all_reports),
                "fail": sum(not r.ok for r in all_reports),
                "skipped": len(skipped),
            },
            "timings_ms": timings,
        }
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
    return 0 if not problems else 1


def cmd_spectrum(args, p: RepParams) -> int:
    try:
        subset = subset_of_label(args.op)
        if not subset or not is_consecutive(subset):
            raise ValueError
        interval = (subset[0], subset[-1])
        if interval[1] > p.legs or args.op != label_of_subset(subset):
            raise ValueError
    except ValueError:
        print(
            f"error: {args.op!r} is not an interval Casimir label at "
            f"legs={p.legs}",
            file=sys.stderr,
        )
        return 2
    if args.weight is not None and not 0 <= args.weight <= p.n_max:
        print(
            f"error: weight {args.weight} outside 0..{p.n_max}",
            file=sys.stderr,
        )
        return 2
    op = casimir(p, interval)
    k_a = p.interval_weight(interval)
    print(f"operator {args.op}, interval weight k_A = {k_a}, q = {to_text(p.q)}")
    weights = range(p.n_max + 1) if args.weight is None else [args.weight]
    failures = 0
    for w in weights:
        lams = predicted_eigenvalues(p, interval, w)
        block = op.basis.weight_block(w)
        nonzero = annihilating_residual(op, lams, block)
        status = "ok" if nonzero == 0 else "NONZERO RESIDUAL"
        failures += nonzero != 0
        values = ", ".join(to_text(x) for x in lams)
        print(f"weight {w} (block size {len(block)}): [{values}]  {status}")
    return 0 if failures == 0 else 1


def cmd_compass(args, p: RepParams) -> int:
    reg = build_registry(p)
    try:
        graph = build_compass(reg)
    except CompassError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    dot = export_dot(graph)
    if args.dot:
        Path(args.dot).write_text(dot)
        print(f"wrote {args.dot}")
    else:
        print(dot, end="")
    return 0


def cmd_tables(args, p=None) -> int:
    for row in relcheck.load_master_rows():
        cells = " | ".join(
            "(" + ", ".join(triple) + ")" for triple in row.triples
        )
        print(f"{row.table} row {row.index:>2}: {cells}")
    return 0


def _add_params(sub, nmax_default=6):
    sub.add_argument(
        "--q", default="5/3", help="deformation parameter, a/b or -a/b"
    )
    sub.add_argument(
        "--k",
        help="weight labels, comma separated (default: the first --legs of 1,2,1,3)",
    )
    sub.add_argument("--legs", type=int, default=4, choices=(2, 3, 4))
    sub.add_argument("--nmax", type=int, default=nmax_default, help="truncation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awalgebra",
        description="exact verification of coupled Casimir algebras",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify", help="run relation suites")
    _add_params(verify)
    verify.add_argument(
        "--suite",
        default="all",
        help=f"comma list from: {', '.join(SUITE_ORDER)}, all",
    )
    verify.add_argument("--report", help="write a JSON report here")
    verify.set_defaults(func=cmd_verify, needs_config=True)

    spectrum = subs.add_parser(
        "spectrum", help="eigenvalues of one interval Casimir"
    )
    _add_params(spectrum)
    spectrum.add_argument("--op", required=True, help="label, e.g. Q123")
    spectrum.add_argument("--weight", type=int, default=None)
    spectrum.set_defaults(func=cmd_spectrum, needs_config=True)

    compass = subs.add_parser("compass", help="pentagon graph as DOT")
    _add_params(compass, nmax_default=2)
    compass.add_argument("--dot", help="write DOT here instead of stdout")
    compass.set_defaults(func=cmd_compass, needs_config=True)

    tables = subs.add_parser("tables", help="print the exchange-identity rows")
    tables.set_defaults(func=cmd_tables, needs_config=False)

    return parser


def _join_negative_q(argv) -> list:
    """argparse reads a separate "-a/b" as an option, so "--q -a/b"
    becomes "--q=-a/b"."""
    out = []
    for arg in argv:
        if out and out[-1] == "--q" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--q={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_q(argv))
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    p = None
    if args.needs_config:
        try:
            p = make_config(args)
        except (ValueError, ZeroDivisionError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    try:
        return args.func(args, p)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
