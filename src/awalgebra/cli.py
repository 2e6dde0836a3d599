"""Command line front end.

    awalgebra verify   --suite all --report out.json
    awalgebra spectrum --op Q123 [--weight 2]
    awalgebra compass  [--dot pentagon.dot]
    awalgebra tables

Exit codes: 0 every check ok, 1 some check is not ok, 2 invalid
configuration, 3 output could not be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from functools import cache
from pathlib import Path

from .compass import CompassError, build_compass, export_dot
from .exactnum import parse as parse_rational, parse_integer, to_text
from .opalgebra import build_registry, consecutive_subsets, label_of_subset
# annihilating_residual is called by no command: the benchmark's layer
# tracer (perfbench/layers.py) patches it here
from .spectra import annihilating_residual, spectrum_reports  # noqa: F401
from .uqrep import RepParams, casimir, clear_fold_caches, interval_ops

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

# Fewest basis states at which a four-leg verify is shared with forked
# workers (suite_results): one for the registry-free suites, forked
# once the left folds are built, and one forked from the built
# realization and its quotient table, which rebuilds nothing.  Smaller
# runs stay in one process: each fork, its pipe and the reaping cost a
# few ms whatever the size, and the benchmark's traced nmax-4 verify
# must stay in one process until its tracer sees the workers.  The
# serial against forked timings behind this value are in README.md.
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
            k = tuple(parse_integer(x) for x in args.k.split(","))
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
    # imported here, so that spectrum, compass and tables runs do not
    # load the suites
    from . import relcheck

    if name == "defining":
        return relcheck.check_defining_relations(p) + relcheck.check_coassociativity(p)
    if name == "aw3-quadratic":
        # three-leg sub-realization on the first three legs
        return relcheck.check_aw3_quadratic(build_registry(p.interval_realization((1, 3))))
    if name not in SUITE_ORDER:
        raise ValueError(f"unknown suite {name!r}")
    reg = build_registry(p)
    if name == "prop1":
        return relcheck.check_prop1(reg)
    if name == "prop2":
        return relcheck.check_prop2(reg)
    if name == "aw3":
        if p.legs == 3:
            # the linearized pair on three legs is aw3-quadratic's
            return relcheck.check_aw3_symmetric(reg, ((1,), (2,), (3,)))
        # weight blocks <= 3 pre-screen orientation assignments; the
        # full registry always confirms
        probe = reg.restricted(3) if p.n_max > 3 else None
        reports = []
        for triple in relcheck.enumerate_allowable():
            reports.extend(relcheck.check_aw3_symmetric(reg, triple, probe))
        return reports + relcheck.check_aw3_linear(reg)
    if name == "master":
        return relcheck.check_master_all(reg)
    if name == "spectra":
        return relcheck.check_spectra(reg)
    return [relcheck.check_independence(reg)]


def usable_cpus() -> int:
    """CPUs this process may run on (all of them where the platform
    cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def can_fork(cpus: int) -> bool:
    """Whether forked processes can help: two usable CPUs, a platform
    that can fork and no other thread in this process (a fork copies the
    locks other threads hold).  suite_results' two workers are the only
    layout measured (on 2 cores), so more CPUs do not add workers."""
    return cpus >= 2 and hasattr(os, "fork") and threading.active_count() == 1


def use_worker(n_suites: int, p: RepParams, cpus: int) -> bool:
    """Whether verify hands suites to forked worker processes
    (suite_results): at least two suites, four legs,
    PARALLEL_MIN_STATES basis states and can_fork."""
    return (
        n_suites >= 2
        and p.legs >= 4
        and len(p.basis) >= PARALLEL_MIN_STATES
        and can_fork(cpus)
    )


class _Worker:
    """A forked process that runs the suites names in order and sends
    each (name, reports, elapsed ms) through a pipe as a pickle as it
    finishes.  result(name) gives the next one sent, or runs name in
    this process when none comes: the worker died, or it could not start
    (an OSError from os.pipe or os.fork), and then every later suite of
    names runs here too.  The worker leaves through os._exit, so it
    flushes no copy of this process's output buffers.

    A Linux pipe holds 64 KiB.  The worker waits to send only when that
    much of its output is unread, and then until this process reads its
    next result; this process waits only on the worker whose result is
    due, so no two processes wait on each other.  At the default q and
    k the registry-free suites' results pickle to 4.1 KB, and those of
    master, spectra and independence to 17.1 KB at nmax 6 and 48.7 KB at
    nmax 12 (spectra's reports grow with nmax), so at those sizes no
    worker waits.
    """

    def __init__(self, names, timed):
        # imported here, so that runs which never fork do not load it
        import pickle

        self.names = names
        self.timed = timed
        self.pid = self.inbox = None
        fds = []
        try:
            fds.extend(os.pipe())
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return
        read_end, write_end = fds
        if pid == 0:
            code = 1
            try:
                os.close(read_end)
                with open(write_end, "wb") as out:
                    for name in names:
                        pickle.dump(timed(name), out)
                        out.flush()
                code = 0
            finally:
                os._exit(code)
        self.pid = pid
        os.close(write_end)
        self.inbox = open(read_end, "rb")

    def result(self, name):
        """(name, reports, ms) for name, the next of names not yet
        given."""
        import pickle

        if self.inbox is not None:
            try:
                return pickle.load(self.inbox)
            except (EOFError, pickle.UnpicklingError):
                self.inbox.close()
                self.inbox = None
        return self.timed(name)

    def stop(self):
        """Send the worker SIGTERM."""
        import signal

        if self.pid is not None:
            os.kill(self.pid, signal.SIGTERM)

    def close(self):
        """Close the pipe and reap the worker."""
        if self.inbox is not None:
            self.inbox.close()
        if self.pid is not None:
            os.waitpid(self.pid, 0)


def suite_results(names, p: RepParams, worker: bool):
    """Yield (name, reports, elapsed ms) for each suite, in order.

    With a worker, this process first imports relcheck and builds the
    left fold of every consecutive interval, then forks a first worker
    for the registry-free suites, which inherits both.  Meanwhile it
    builds the registry and its quotient table, as a serial run does
    before its registry suites.  Of the other suites, own, it forks a
    second worker for the back half own[(len(own) + 1) // 2:], which
    inherits the built operators and rebuilds nothing, empties uqrep's
    fold and leg caches (clear_fold_caches) unless a suite of the front
    half reads p's folds, and runs the front half itself.
    With no registry-free suite there is no first worker; with only
    registry-free suites nothing is built and they are split as own is.
    Each suite runs once, in one process (_Worker runs a dead worker's
    unsent suites here, rebuilding what they need).  Results are yielded
    in the order of names, a worker's read when its next suite is due.
    When this process raises, or its caller closes the generator early,
    every worker is sent SIGTERM; each is reaped and its pipe closed on
    every path.
    """

    def timed(name):
        start = time.perf_counter()
        reports = run_suite(name, p)
        return name, reports, int((time.perf_counter() - start) * 1000)

    if not worker:
        yield from map(timed, names)
        return
    # defining checks the interval folds alone, and aw3-quadratic builds
    # its own three-leg registry: neither needs the four-leg registry
    free = [name for name in names if name in ("defining", "aw3-quadratic")]
    own = [name for name in names if name not in free]
    workers = []
    try:
        if own:
            # loaded and built before the first fork, so that both
            # workers inherit them
            from . import relcheck  # noqa: F401

            for interval in consecutive_subsets(p.legs):
                interval_ops(p, interval)
            if free:
                workers.append(_Worker(free, timed))
            build_registry(p).quotient
        else:
            own = free
        half = (len(own) + 1) // 2
        back = own[half:]
        if back:
            workers.append(_Worker(back, timed))
            # defining and spectra read p's folds, the other suites only
            # the registry and its quotient
            if not {"defining", "spectra"} & set(own[:half]):
                clear_fold_caches()
        source = {name: w for w in workers for name in w.names}
        for name in names:
            w = source.get(name)
            yield timed(name) if w is None else w.result(name)
    except BaseException:
        for w in workers:
            w.stop()
        raise
    finally:
        for w in workers:
            w.close()


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
        print(f"{name:<14} {len(reports):>3} checks, {ok:>3} ok   [{timings[name] / 1000:.1f}s]")
        for r in reports:
            if not r.ok:
                sample = r.residual_summary.get("sample") or ""
                note = r.residual_summary.get("note") or ""
                print(f"    FAIL {r.id}  {note or sample}")
    for name, reason in skipped.items():
        print(f"{name:<14} skipped ({reason})")

    problems = [r for r in all_reports if not r.ok]
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
    intervals = {label_of_subset(range(lo, hi + 1)): (lo, hi) for lo, hi in consecutive_subsets(p.legs)}
    interval = intervals.get(args.op)
    if interval is None:
        print(f"error: {args.op!r} is not an interval Casimir label at legs={p.legs}", file=sys.stderr)
        return 2
    if args.weight is not None and not 0 <= args.weight <= p.n_max:
        print(f"error: weight {args.weight} outside 0..{p.n_max}", file=sys.stderr)
        return 2
    k_a = p.interval_weight(interval)
    print(f"operator {args.op}, interval weight k_A = {k_a}, q = {to_text(p.q)}")
    weights = range(p.n_max + 1) if args.weight is None else [args.weight]
    # p_A's Casimir, built here so that the benchmark times it as setup
    # (perfbench/rep.py); spectrum_reports reads it from uqrep's cache
    sub = p.interval_realization(interval)
    casimir(sub, (1, sub.legs))
    reports = spectrum_reports(p, interval, weights)
    for w, r in zip(weights, reports):
        status = "ok" if r.ok else "NONZERO RESIDUAL"
        values = ", ".join(r.inputs["eigenvalues"])
        print(f"weight {w} (block size {len(p.basis.weight_block(w))}): [{values}]  {status}")
    return 0 if all(r.ok for r in reports) else 1


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
    from . import relcheck

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
    sub.add_argument("--legs", type=parse_integer, default=4, choices=(2, 3, 4))
    sub.add_argument("--nmax", type=parse_integer, default=nmax_default, help="truncation")


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
    spectrum.add_argument("--weight", type=parse_integer, default=None)
    spectrum.set_defaults(func=cmd_spectrum, needs_config=True)

    compass = subs.add_parser("compass", help="pentagon graph as DOT")
    _add_params(compass, nmax_default=2)
    compass.add_argument("--dot", help="write DOT here instead of stdout")
    compass.set_defaults(func=cmd_compass, needs_config=True)

    tables = subs.add_parser("tables", help="print the exchange-identity rows")
    tables.set_defaults(func=cmd_tables, needs_config=False)

    return parser


# Built once per process: parse_args fills a fresh namespace on every
# call, so successive main calls share no option values.
_parser = cache(build_parser)


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
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(_join_negative_q(argv))
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    p = None
    if args.needs_config:
        try:
            p = make_config(args)
        except (ValueError, ZeroDivisionError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    # exact values outgrow Python's 4300-digit int-to-str limit (a
    # ValueError), so it is lifted for the command and restored on return
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args, p)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
