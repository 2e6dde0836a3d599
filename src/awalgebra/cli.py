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
import threading
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
# worker process.  The worker is forked from the built realization, so
# it costs a fork and no rebuild.  Serial against forked wall time of
# one verify run in a fresh process (fractions backend, 2 cores, medians
# of seven): four legs, 0.28 s against 0.28 s at nmax 3 (35 states),
# 0.55 s against 0.43 s at nmax 4 (70 states), 1.01 s against 0.67 s at
# nmax 5 (126 states); three legs, 0.19 s against 0.22 s at nmax 6
# (84 states), 0.49 s against 0.37 s at nmax 8, 0.90 s against 0.78 s
# at nmax 10.  The crossover is lower than this bound, and three-leg
# runs above about 100 states would gain too, but the benchmark's
# traced nmax-4 verify must stay in one process until its tracer sees
# the worker, so the bound and the four-leg rule stay for now.
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
    """(reports, elapsed ms) of run_suite(name, p)."""
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
    """Whether verify hands suites to one forked worker process: at
    least two suites, two usable CPUs, a platform that can fork, no
    other thread in this process (a fork copies the locks other threads
    hold), four legs and PARALLEL_MIN_STATES basis states.  One worker
    is the only count measured (on 2 cores), so more CPUs do not add
    workers."""
    return (
        n_suites >= 2
        and cpus >= 2
        and hasattr(os, "fork")
        and threading.active_count() == 1
        and p.legs >= 4
        and len(p.basis) >= PARALLEL_MIN_STATES
    )


def _worker(names, p: RepParams, ends, out):
    """Take suites from the back of [front, back), one at a time, and
    send (index, (reports, ms)) for each."""
    while True:
        with ends.get_lock():
            if ends[0] >= ends[1]:
                return
            ends[1] -= 1
            i = ends[1]
        out.send((i, _timed_suite(names[i], p)))


def suite_results(names, p: RepParams, worker: bool):
    """Yield (name, reports, elapsed ms) for each suite, in order.

    With a worker, this process runs the first suite and builds the
    registry, as a serial run does, then forks one worker that inherits
    every cache.  The untaken suites are the index range [front, back)
    in shared memory: the worker takes back - 1 and sends its results
    through a pipe, this process takes front.  After each of its own
    suites this process drains the pipe, and at a suite the worker took
    it reads until that result arrives.  A suite whose result never
    comes (the worker died) runs here.  All results but the first
    pickle to 38.5 KB at nmax 6 and 46.6 KB at nmax 8, within a Linux
    pipe's 64 KiB, so the worker does not wait to send.
    """
    if not worker:
        for name in names:
            yield name, *_timed_suite(name, p)
        return
    import multiprocessing

    yield names[0], *_timed_suite(names[0], p)
    build_registry(p)
    ctx = multiprocessing.get_context("fork")
    ends = ctx.Array("i", (1, len(names)))
    inbox, out = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_worker, args=(names, p, ends, out), daemon=True)
    child.start()
    out.close()
    done = {}
    try:
        for i in range(1, len(names)):
            with ends.get_lock():
                mine = ends[0] < ends[1]
                if mine:
                    ends[0] += 1
            result = _timed_suite(names[i], p) if mine else None
            try:
                while (not mine and i not in done) or inbox.poll():
                    j, sent = inbox.recv()
                    done[j] = sent
            except EOFError:
                pass
            yield names[i], *(result or done.pop(i, None) or _timed_suite(names[i], p))
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        inbox.close()


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
        Path(args.report).write_text(json.dumps(payload) + "\n")
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
