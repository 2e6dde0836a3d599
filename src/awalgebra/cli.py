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
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import relcheck
from .compass import CompassError, build_compass, export_dot
from .exactnum import parse as parse_rational, to_text
from .fockspace import TruncatedBasis
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

DEFAULT_K = (1, 2, 1, 3)


@dataclass
class RunConfig:
    params: RepParams
    basis: TruncatedBasis
    q_text: str


def make_config(args) -> RunConfig:
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
    params = RepParams(q=q, k=k, legs=args.legs, n_max=args.nmax)
    basis = TruncatedBasis(params.legs, params.n_max)
    return RunConfig(params=params, basis=basis, q_text=to_text(q))


def suite_obstacle(name: str, cfg: RunConfig) -> str | None:
    """Why a suite cannot run at this configuration, or None."""
    legs = cfg.params.legs
    if name in ("prop2", "master", "independence") and legs != 4:
        return "needs legs=4"
    if name in ("aw3", "aw3-quadratic") and legs < 3:
        return "needs legs>=3"
    if name == "independence" and cfg.params.n_max < 2:
        return "needs nmax>=2"
    return None


class _Realizations:
    """Lazy shared registries for one verify run."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._reg = None
        self._probe = None
        self._reg3 = None

    @property
    def reg(self):
        if self._reg is None:
            self._reg = build_registry(self.cfg.params, self.cfg.basis)
        return self._reg

    @property
    def probe(self):
        """Weight blocks <= 3 of the registry, used to pre-screen
        orientation assignments; the full registry always confirms."""
        if self.cfg.params.n_max <= 3:
            return None
        if self._probe is None:
            self._probe = self.reg.restricted(3)
        return self._probe

    @property
    def reg3(self):
        """Three-leg sub-realization on the first three legs."""
        p = self.cfg.params
        if p.legs == 3:
            return self.reg
        if self._reg3 is None:
            sub = RepParams(q=p.q, k=p.k[:3], legs=3, n_max=p.n_max)
            self._reg3 = build_registry(sub, TruncatedBasis(3, p.n_max))
        return self._reg3


def run_suite(name: str, real: _Realizations) -> list:
    cfg = real.cfg
    if name == "defining":
        return relcheck.check_defining_relations(
            cfg.params, cfg.basis
        ) + relcheck.check_coassociativity(cfg.params, cfg.basis)
    if name == "prop1":
        return relcheck.check_prop1(real.reg)
    if name == "prop2":
        return relcheck.check_prop2(real.reg)
    if name == "aw3":
        reports = []
        if cfg.params.legs == 4:
            for triple in relcheck.enumerate_allowable():
                reports.extend(
                    relcheck.check_aw3_symmetric(real.reg, triple, real.probe)
                )
            tag = "linear-embedded"
        else:
            reports.extend(
                relcheck.check_aw3_symmetric(real.reg, ((1,), (2,), (3,)))
            )
            tag = "linear"
        reports.extend(relcheck.check_aw3_linear(real.reg, tag=tag))
        return reports
    if name == "aw3-quadratic":
        return relcheck.check_aw3_quadratic(real.reg3)
    if name == "master":
        return relcheck.check_master_all(real.reg)
    if name == "spectra":
        return relcheck.check_spectra(real.reg)
    if name == "independence":
        return [relcheck.check_independence(real.reg)]
    raise ValueError(f"unknown suite {name!r}")


def cmd_verify(args, cfg: RunConfig) -> int:
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
            reason = suite_obstacle(name, cfg)
            if reason is None:
                names.append(name)
            else:
                skipped[name] = reason
    else:
        names = [n for n in SUITE_ORDER if n in requested]
        for name in names:
            reason = suite_obstacle(name, cfg)
            if reason is not None:
                print(f"error: suite {name} {reason}", file=sys.stderr)
                return 2

    print(
        f"params: q={cfg.q_text} k={','.join(map(str, cfg.params.k))} "
        f"legs={cfg.params.legs} nmax={cfg.params.n_max}"
    )
    real = _Realizations(cfg)
    all_reports = []
    timings = {}
    for name in names:
        start = time.perf_counter()
        reports = run_suite(name, real)
        timings[name] = int((time.perf_counter() - start) * 1000)
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
                "q": cfg.q_text,
                "k": list(cfg.params.k),
                "legs": cfg.params.legs,
                "nmax": cfg.params.n_max,
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


def cmd_spectrum(args, cfg: RunConfig) -> int:
    try:
        subset = subset_of_label(args.op)
        if not subset or not is_consecutive(subset):
            raise ValueError
        interval = (subset[0], subset[-1])
        if interval[1] > cfg.params.legs or args.op != label_of_subset(subset):
            raise ValueError
    except ValueError:
        print(
            f"error: {args.op!r} is not an interval Casimir label at "
            f"legs={cfg.params.legs}",
            file=sys.stderr,
        )
        return 2
    if args.weight is not None and not 0 <= args.weight <= cfg.params.n_max:
        print(
            f"error: weight {args.weight} outside 0..{cfg.params.n_max}",
            file=sys.stderr,
        )
        return 2
    op = casimir(cfg.params, cfg.basis, interval)
    k_a = cfg.params.interval_weight(interval)
    print(f"operator {args.op}, interval weight k_A = {k_a}, q = {cfg.q_text}")
    weights = (
        range(cfg.params.n_max + 1) if args.weight is None else [args.weight]
    )
    failures = 0
    for w in weights:
        lams = predicted_eigenvalues(cfg.params, interval, w)
        block = cfg.basis.weight_block(w)
        nonzero = annihilating_residual(op, lams, block)
        status = "ok" if nonzero == 0 else "NONZERO RESIDUAL"
        failures += nonzero != 0
        values = ", ".join(to_text(x) for x in lams)
        print(f"weight {w} (block size {len(block)}): [{values}]  {status}")
    return 0 if failures == 0 else 1


def cmd_compass(args, cfg: RunConfig) -> int:
    reg = build_registry(cfg.params, cfg.basis)
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


def cmd_tables(args, cfg=None) -> int:
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
    cfg = None
    if args.needs_config:
        try:
            cfg = make_config(args)
        except (ValueError, ZeroDivisionError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    try:
        return args.func(args, cfg)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
