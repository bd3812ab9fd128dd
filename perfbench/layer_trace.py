"""Run one ``uqsl2`` command in this process with each layer's public
functions wrapped, and write per-layer counts, self times and spans.

    python3 perfbench/layer_trace.py OUT_PREFIX -- verify --p 2 --format json

The report goes to standard output exactly as ``python -m
uqsl2.cli_report`` would print it, and the exit code is the same.
``OUT_PREFIX.summary.json`` receives the layer metrics and
``OUT_PREFIX.spans.jsonl`` one line per span: [name, start_ns, end_ns,
parent index or -1].

Self time is a span's duration minus the durations of its direct child
spans, so the self times of nested layers never overlap.  Kernel
functions run about 10^6 times per pass: ``kmul`` and the field product
are counted only, and ``krow_axpy`` is timed into its layer without a
span record of its own.

Callers bind many of these functions by name at import (``from
uqsl2._kernel import kmul``), so each wrapper replaces every reference to
the original object in the loaded ``uqsl2`` modules and classes, not just
the defining one.  A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from importlib import import_module
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent index]
        self.stack: list = []  # open frames: [span index or -1, child ns]
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.maxima: Counter = Counter()
        self.pairs: set = set()
        self.measured: set = set()
        self.missing: set = set()

    def counted(self, metric, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name, fn, calls=None, record=True, after=None):
        """Wrap ``fn`` in a span charged to ``name``.

        ``after(args, result)`` runs once the span has ended; its cost is
        hidden from the parent's self time.
        """
        spans, stack, counts, self_ns = self.spans, self.stack, self.counts, self.self_ns

        def wrapper(*args, **kwargs):
            if record:
                index = len(spans)
                spans.append([name, 0, 0, stack[-1][0] if stack else -1])
            else:
                index = -1
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self_ns[name] += end - start - frame[1]
                if calls:
                    counts[calls] += 1
                if record:
                    spans[index][1:3] = start, end
            if after is not None:
                after(args, result)
            if stack:
                stack[-1][1] += perf_counter_ns() - start
            return result

        return wrapper

    def install(self, module_name: str, path: str, metrics: tuple, make) -> None:
        """Replace every reference to ``module.path`` with ``make(original)``."""
        try:
            owner = import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
        except (ImportError, AttributeError):
            self.missing.update(metrics)
            return
        self.measured.update(metrics)
        wrapper = make(original)
        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "uqsl2"]:
            for scope in [mod] + [c for c in vars(mod).values() if isinstance(c, type)]:
                for attr, value in list(vars(scope).items()):
                    if value is original:
                        setattr(scope, attr, wrapper)

    def summary(self) -> dict:
        return {
            "counts": dict(self.counts),
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "maxima": dict(self.maxima),
            "hom_pairs": len(self.pairs),
            "absent": sorted(self.missing - self.measured),
        }


def _pivot_stats(tracer: Tracer):
    counts, maxima = tracer.counts, tracer.maxima

    def after(args, grew):
        if not grew:
            return
        row = args[1]
        counts["elim.rank"] += 1
        counts["elim.pivot_nnz"] += len(row)
        bits = max(max(abs(a).bit_length() for a in nums) for nums, _ in row.values())
        bits = max(bits, max(den.bit_length() for _, den in row.values()))
        maxima["elim.max_coeff_bits"] = max(maxima["elim.max_coeff_bits"], bits)

    return after


def _axpy_entries(tracer: Tracer):
    counts = tracer.counts

    def after(args, _):
        counts["kernel.axpy_entries"] += len(args[1])

    return after


def _hom_pair(tracer: Tracer):
    def after(args, _):
        src, tgt = args[0], args[1]
        tracer.pairs.add((src.ctx.p, src.label, tgt.label))

    return after


def install_all(tracer: Tracer) -> None:
    t = tracer

    def span(name, calls=None, extra=(), **kw):
        metrics = tuple(m for m in (name, calls) if m) + extra
        return metrics, lambda fn: t.timed(name, fn, calls=calls, **kw)

    def count(metric):
        return (metric,), lambda fn: t.counted(metric, fn)

    targets = [
        ("uqsl2._kernel", "kmul", count("kernel.kmul_calls")),
        ("uqsl2._kernel", "krow_axpy",
         span("kernel.axpy_s", calls="kernel.axpy_calls", extra=("kernel.axpy_entries",),
              record=False, after=_axpy_entries(t))),
        ("uqsl2.cyclo_field", "CycloNum.__mul__", count("field.mul_calls")),
        ("uqsl2.cyclo_field", "CycloNum.inv", span("field.inv_s", calls="field.inv_calls")),
        ("uqsl2._elim", "SparseRref.add_row",
         span("elim.add_row_s", calls="elim.rows_in",
              extra=("elim.rank", "elim.pivot_nnz", "elim.max_coeff_bits"),
              after=_pivot_stats(t))),
        ("uqsl2._elim", "nullspace", span("elim.nullspace_s", calls="elim.nullspace_calls")),
        ("uqsl2.tensor_space", "LinOp.__mul__",
         span("tensor.compose_s", calls="tensor.compose_calls")),
        ("uqsl2.tensor_space", "LinOp.tensor", span("tensor.kron_s")),
        ("uqsl2.tensor_space", "op_E", span("tensor.op_ef_s")),
        ("uqsl2.tensor_space", "op_F", span("tensor.op_ef_s")),
        ("uqsl2.diagram_algebra", "diagram_to_matrix", span("diagram.to_matrix_s")),
        ("uqsl2.diagram_algebra", "rotation", span("diagram.rotation_s")),
        ("uqsl2.diagram_algebra", "jw_closed", span("diagram.jw_s")),
        ("uqsl2.diagram_algebra", "jw_recursive", span("diagram.jw_s")),
        ("uqsl2.diagram_algebra", "cup", span("diagram.cupcap_s")),
        ("uqsl2.diagram_algebra", "cap", span("diagram.cupcap_s")),
        ("uqsl2.diagram_algebra", "e_op", span("diagram.cupcap_s")),
        ("uqsl2.pa_generators", "make_generators", span("gens.make_s")),
        ("uqsl2.pa_generators", "embed", span("gens.embed_s")),
        ("uqsl2.pa_generators", "partial_trace_left", span("gens.ptrace_s")),
        ("uqsl2.pa_generators", "partial_trace_right", span("gens.ptrace_s")),
        ("uqsl2.pa_generators", "partial_trace_comparison", span("gens.ptrace_s")),
        ("uqsl2.relation_engine", "verify", span("relation.check_s", calls="relation.checks")),
        ("uqsl2.relation_engine", "commutant_dim",
         span("relation.solve_s", calls="relation.solve_calls")),
        ("uqsl2.relation_engine", "rank_of_linops", span("relation.rank_s")),
        ("uqsl2.rep_modules", "intertwiner_space",
         span("rep.hom_solve_s", calls="rep.hom_solves", extra=("rep.hom_pairs",),
              after=_hom_pair(t))),
        ("uqsl2.rep_modules", "mat_mul", span("rep.matmul_s")),
        ("uqsl2.cli_report", "render", span("cli.render_s")),
    ]
    for module_name, path, (metrics, make) in targets:
        t.install(module_name, path, metrics, make)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    prefix, cli_args = argv[0], argv[2:]
    from uqsl2 import cli_report
    from uqsl2 import relation_engine

    solver = getattr(relation_engine, "commutant_dim", None)
    tracer = Tracer()
    install_all(tracer)
    code = cli_report.main(cli_args)
    sys.stdout.flush()
    summary = tracer.summary()
    if hasattr(solver, "cache_info"):
        summary["counts"]["relation.solve_cache_hits"] = solver.cache_info().hits
    else:
        summary["absent"].append("relation.solve_cache_hits")
    with open(prefix + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    with open(prefix + ".spans.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
