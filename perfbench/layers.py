"""Layer spans recorded from outside the program.

The tracer replaces public functions of the awalgebra modules, in every
namespace that holds them (a `from x import f` copies the name), with
wrappers that record a span: name, parent span, start and end.  A few
wrappers also count work at the boundary (multiply-adds from operand
structure, states per basis, block sizes).  Counting runs outside the
spans and is booked as bookkeeping, so it is charged to no layer.

Spans stay in memory; `spans()` hands them out at the end of the run.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import repeat
from time import perf_counter

SUITES = (
    "defining",
    "prop1",
    "prop2",
    "aw3",
    "aw3-quadratic",
    "master",
    "spectra",
    "independence",
)
_ALL = "all workloads"
# Per-layer metrics (units in BENCHMARK.json): name -> the end-to-end metrics it should move.
MOVES = {
    "fockspace.basis_s": f"setup_s, {_ALL}",
    "fockspace.bases": f"setup_s, {_ALL}",
    "fockspace.states": f"setup_s, {_ALL}",
    "uqrep.leg_ops_s": f"setup_s, {_ALL}",
    "uqrep.fold_s": f"setup_s, {_ALL}",
    "uqrep.casimir_s": f"setup_s, {_ALL}",
    "uqrep.cache_hits": "setup_s, all; peak_rss_mb on sweep-small",
    "uqrep.cache_misses": "setup_s, all; peak_rss_mb on sweep-small",
    "opalgebra.registry_s": "wall_s on verify-default; setup_s on sweep-small",
    "opalgebra.registries": "setup_s on sweep-small",
    "opalgebra.product_calls": "wall_s on verify-default",
    "opalgebra.product_hits": "wall_s on verify-default",
    "opalgebra.product_hit_ratio": "wall_s on verify-default",
    "sparse.mul_s": "wall_s on verify-default, sweep-small; none on spectrum-deep",
    "sparse.mul_calls": "wall_s on verify-default, sweep-small",
    "sparse.mul_madds": "wall_s on verify-default, sweep-small",
    "sparse.add_s": "wall_s on verify-default, sweep-small",
    "sparse.add_calls": "wall_s on verify-default, sweep-small",
    "sparse.scale_s": "wall_s on verify-default, sweep-small",
    "sparse.scale_entries": "wall_s on verify-default, sweep-small",
    "sparse.out_nnz": "wall_s, peak_rss_mb on verify-default",
    "sparse.max_entry_bits": "wall_s on verify-default",
    "sparse.rank_s": "wall_s on verify-default",
    "sparse.rank_calls": "wall_s on verify-default",
    "spectra.annihilate_s": "wall_s on spectrum-deep, spectra suite of verify-default",
    "spectra.annihilate_calls": "wall_s on spectrum-deep",
    "spectra.block_states": "wall_s on spectrum-deep",
    "spectra.factors": "wall_s on spectrum-deep",
    **{
        f"relcheck.{s}_s": "wall_s on verify-default, sweep-small"
        for s in SUITES
    },
    "relcheck.self_s": "wall_s on verify-default, sweep-small",
    "relcheck.aw3_residuals": "wall_s on verify-default vs sweep-small",
    "relcheck.aw3_probe_residuals": "wall_s on verify-default",
    "relcheck.aw3_useful_ratio": "wall_s on verify-default vs sweep-small",
    "reporting.scan_s": "wall_s, small on all",
    "reporting.reports": "wall_s, small on all",
    "compass.build_s": "wall_s on sweep-small",
    "cli.self_s": "none (bookkeeping)",
    "trace.overhead_s": "none (bookkeeping)",
}

# Span names that a traced repetition of each workload must record.
_BUILD = ("fockspace.basis", "uqrep.leg_ops", "uqrep.fold", "uqrep.casimir")
_KERNEL = ("sparse.mul", "sparse.add", "sparse.scale")
EXPECTED_SPANS = {
    "verify-default": _BUILD
    + _KERNEL
    + ("opalgebra.registry", "opalgebra.product", "sparse.rank", "spectra.annihilate", "reporting.scan")
    + tuple(f"relcheck.{s}" for s in SUITES),
    "spectrum-deep": _BUILD + _KERNEL + ("spectra.annihilate",),
    "sweep-small": _BUILD
    + _KERNEL
    + ("opalgebra.registry", "opalgebra.product", "sparse.rank", "spectra.annihilate", "reporting.scan", "compass.build")
    + tuple(f"relcheck.{s}" for s in SUITES),
}

# Counts that must repeat exactly between traced runs of the same inputs.
EXACT_COUNTS = (
    "sparse.mul_calls",
    "sparse.mul_madds",
    "opalgebra.product_calls",
    "relcheck.aw3_residuals",
)


class Tracer:
    def __init__(self):
        # one record per span: [name, parent, start, end, child_time, children]
        self._spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.bookkeeping = 0.0
        self._aw3_probe = None
        self._lru = []

    # -- recording ---------------------------------------------------

    def _book(self, seconds):
        self.bookkeeping += seconds
        if self._stack:
            self._spans[self._stack[-1]][4] += seconds

    def wrap(self, name, fn, pre=None, post=None):
        """fn with a span named `name` (or name(args) when callable);
        pre(args) runs before and post(args, result) after the span."""
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            if pre is not None:
                t = perf_counter()
                pre(args)
                self._book(perf_counter() - t)
            idx = len(spans)
            spans.append([name(args) if callable(name) else name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, 0])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec = spans[idx]
                rec[2], rec[3] = start, end
                if rec[1] >= 0:
                    parent = spans[rec[1]]
                    parent[4] += end - start
                    parent[5] += 1
            if post is not None:
                t = perf_counter()
                post(args, result)
                self._book(perf_counter() - t)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self, modules):
        """Wrap the layer boundaries in the awalgebra modules given as a
        dict name -> module (cli, compass, fockspace, opalgebra,
        relcheck, reporting, sparse, spectra, uqrep)."""
        m = modules
        counts = self.counts
        Sparse = m["sparse"].SparseOperator
        self._lru = [
            m["uqrep"]._leg_ops,
            m["uqrep"].interval_ops,
            m["uqrep"].casimir,
            m["uqrep"].casimir_unshifted,
        ]

        def patch(module_names, attr, span, **hooks):
            for mod in module_names:
                original = getattr(m[mod], attr)
                setattr(m[mod], attr, self.wrap(span, original, **hooks))

        def basis_post(args, _):
            counts["fockspace.bases"] += 1
            counts["fockspace.states"] += len(args[0])

        basis_cls = m["fockspace"].TruncatedBasis
        basis_cls.__init__ = self.wrap("fockspace.basis", basis_cls.__init__, post=basis_post)

        patch(["uqrep"], "primitive_generator", "uqrep.leg_ops")
        patch(["uqrep", "relcheck"], "interval_ops", "uqrep.fold")
        patch(["uqrep", "opalgebra", "cli"], "casimir", "uqrep.casimir")
        patch(["uqrep", "relcheck"], "casimir_unshifted", "uqrep.casimir")
        patch(["opalgebra", "cli"], "build_registry", "opalgebra.registry")

        registry_cls = m["opalgebra"].GeneratorRegistry
        registry_cls.product = self.wrap("opalgebra.product", registry_cls.product)

        def mul_pre(args):
            a, b = args
            lens = {i: len(col) for i, col in a.cols.items()}
            get = lens.get
            counts["sparse.mul_madds"] += sum(
                sum(map(get, col, repeat(0))) for col in b.cols.values()
            )

        def mul_post(_args, out):
            counts["sparse.out_nnz"] += out.nnz()
            bits = self.max_bits
            for col in out.cols.values():
                for v in col.values():
                    n = v.numerator.bit_length()
                    d = v.denominator.bit_length()
                    if n > bits or d > bits:
                        bits = max(n, d)
            self.max_bits = bits

        mul = Sparse.__mul__
        traced_mul = self.wrap("sparse.mul", mul, pre=mul_pre, post=mul_post)

        def product_or_scaling(a, b):
            # a scalar operand is a scaling, traced as sparse.scale
            return traced_mul(a, b) if isinstance(b, Sparse) else mul(a, b)

        Sparse.__mul__ = product_or_scaling
        Sparse.__add__ = self.wrap("sparse.add", Sparse.__add__)

        def scale_pre(args):
            counts["sparse.scale_entries"] += args[0].nnz()

        Sparse.scale = self.wrap("sparse.scale", Sparse.scale, pre=scale_pre)
        patch(["sparse", "relcheck"], "fraction_free_rank", "sparse.rank")

        def annihilate_pre(args):
            _, eigenvalues, block = args
            counts["spectra.block_states"] += len(block)
            counts["spectra.factors"] += len(eigenvalues)

        patch(["spectra", "cli"], "annihilating_residual", "spectra.annihilate", pre=annihilate_pre)
        patch(["reporting", "relcheck"], "residual_report", "reporting.scan")
        patch(["compass", "cli"], "build_compass", "compass.build")

        m["cli"].run_suite = self.wrap(lambda args: f"relcheck.{args[0]}", m["cli"].run_suite)

        relcheck = m["relcheck"]
        symmetric, residual = relcheck.check_aw3_symmetric, relcheck._aw3_residual

        def check_symmetric(reg, triple, probe_reg=None):
            self._aw3_probe = probe_reg
            try:
                reports = symmetric(reg, triple, probe_reg)
            finally:
                self._aw3_probe = None
            counts["relcheck.aw3_reported"] += len(reports)
            return reports

        def counted_residual(reg, *args):
            probe = self._aw3_probe is not None and reg is self._aw3_probe
            counts["relcheck.aw3_probe_residuals" if probe else "relcheck.aw3_residuals"] += 1
            return residual(reg, *args)

        relcheck.check_aw3_symmetric = check_symmetric
        relcheck._aw3_residual = counted_residual

    # -- results -------------------------------------------------------

    def spans(self) -> list[list]:
        """[name, parent, start, end] per span, in start order."""
        return [rec[:4] for rec in self._spans]

    def span_names(self) -> set:
        return {rec[0] for rec in self._spans}

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of a traced run of `wall` seconds (all
        except trace.overhead_s, which needs the untraced run)."""
        self_time = defaultdict(float)
        total = defaultdict(float)
        calls = Counter()
        product_hits = 0
        for name, _parent, start, end, child, children in self._spans:
            self_time[name] += end - start - child
            total[name] += end - start
            calls[name] += 1
            if name == "opalgebra.product" and children == 0:
                product_hits += 1
        c = self.counts
        hits = sum(f.cache_info().hits for f in self._lru)
        misses = sum(f.cache_info().misses for f in self._lru)
        products = calls["opalgebra.product"]
        real_aw3 = c["relcheck.aw3_residuals"]
        all_aw3 = real_aw3 + c["relcheck.aw3_probe_residuals"]
        out = {
            "fockspace.basis_s": self_time["fockspace.basis"],
            "fockspace.bases": c["fockspace.bases"],
            "fockspace.states": c["fockspace.states"],
            "uqrep.leg_ops_s": self_time["uqrep.leg_ops"],
            "uqrep.fold_s": self_time["uqrep.fold"],
            "uqrep.casimir_s": self_time["uqrep.casimir"],
            "uqrep.cache_hits": hits,
            "uqrep.cache_misses": misses,
            "opalgebra.registry_s": self_time["opalgebra.registry"],
            "opalgebra.registries": calls["opalgebra.registry"],
            "opalgebra.product_calls": products,
            "opalgebra.product_hits": product_hits,
            "opalgebra.product_hit_ratio": product_hits / products if products else 0.0,
            "sparse.mul_s": self_time["sparse.mul"],
            "sparse.mul_calls": calls["sparse.mul"],
            "sparse.mul_madds": c["sparse.mul_madds"],
            "sparse.add_s": self_time["sparse.add"],
            "sparse.add_calls": calls["sparse.add"],
            "sparse.scale_s": self_time["sparse.scale"],
            "sparse.scale_entries": c["sparse.scale_entries"],
            "sparse.out_nnz": c["sparse.out_nnz"],
            "sparse.max_entry_bits": self.max_bits,
            "sparse.rank_s": self_time["sparse.rank"],
            "sparse.rank_calls": calls["sparse.rank"],
            "spectra.annihilate_s": self_time["spectra.annihilate"],
            "spectra.annihilate_calls": calls["spectra.annihilate"],
            "spectra.block_states": c["spectra.block_states"],
            "spectra.factors": c["spectra.factors"],
            **{f"relcheck.{s}_s": total[f"relcheck.{s}"] for s in SUITES},
            "relcheck.self_s": sum(self_time[f"relcheck.{s}"] for s in SUITES),
            "relcheck.aw3_residuals": real_aw3,
            "relcheck.aw3_probe_residuals": c["relcheck.aw3_probe_residuals"],
            "relcheck.aw3_useful_ratio": c["relcheck.aw3_reported"] / all_aw3 if all_aw3 else 0.0,
            "reporting.scan_s": self_time["reporting.scan"],
            "reporting.reports": calls["reporting.scan"],
            "compass.build_s": self_time["compass.build"],
            "cli.self_s": wall - sum(self_time.values()) - self.bookkeeping,
        }
        return out
