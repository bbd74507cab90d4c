"""The traced run: spans around calls into each riskspan layer, from outside.

Wrappers replace every module attribute (and the two class attributes)
that refers to a wrapped function, because ``bodies``, ``risk`` and
``market`` import ``solve``, ``vertex_enumeration``, ``gauge``,
``span_basis`` and ``pairing`` by name.  A span records its name, start,
end, parent span and op id in flat arrays kept in memory; they are
written out when the run ends.  Self time is a span's duration minus the
durations of its child spans.  Pivot counts and tableau internals would
need tracing inside ``exactlp`` and are not measured here.
"""

from __future__ import annotations

import sys
import time
from array import array
from fractions import Fraction
from typing import Callable

import riskspan
from riskspan import exactlp, market

# The lru_cache object itself, captured before any wrapper replaces it.
_SPAN_BASIS = riskspan.bodies.span_basis

# (module, attribute, span name); several attributes may share one span name.
SPANS = (
    ("riskspan.exactlp", "solve", "exactlp.solve"),
    ("riskspan.exactlp", "vertex_enumeration", "exactlp.vertex_enumeration"),
    ("riskspan.linalg", "rank", "linalg.rank"),
    ("riskspan.linalg", "solve_exact", "linalg.solve_exact"),
    ("riskspan.linalg", "independent_rows", "linalg.independent_rows"),
    ("riskspan.linalg", "in_span", "linalg.in_span"),
    ("riskspan.bodies", "gauge", "bodies.gauge"),
    ("riskspan.bodies", "polar_gauge", "bodies.polar_gauge"),
    ("riskspan.bodies", "bipolar_member", "bodies.bipolar_member"),
    ("riskspan.bodies", "solid_hull_member", "bodies.solid_hull_member"),
    ("riskspan.bodies", "solid_check", "bodies.solid_check"),
    ("riskspan.bodies", "span_basis", "bodies.span_basis"),
    ("riskspan.risk", "evaluate", "risk.evaluate"),
    ("riskspan.risk", "conjugate", "risk.conjugate"),
    ("riskspan.risk", "dual_rep_evaluate", "risk.dual_rep_evaluate"),
    ("riskspan.risk", "extend", "risk.extend"),
    ("riskspan.risk", "monotone_certifiable", "risk.monotone_certifiable"),
    ("riskspan.risk", "fatou_probe", "risk.fatou_probe"),
    ("riskspan.market", "viability_certificate", "market.viability_certificate"),
    ("riskspan.market", "nonsolidity_witness", "market.nonsolidity_witness"),
    ("riskspan.market", "attainable", "market.attainable"),
    ("riskspan.market", "attainable_ball", "market.attainable_ball"),
    ("riskspan.measure", "ky_fan_distance", "measure.ky_fan_distance"),
    ("riskspan.schema", "load_document", "schema.parse"),
    ("riskspan.schema", "body_from_json", "schema.parse"),
    ("riskspan.schema", "risk_from_json", "schema.parse"),
    ("riskspan.schema", "market_from_json", "schema.parse"),
    ("riskspan.schema", "fatou_from_json", "schema.parse"),
    ("riskspan.schema", "parse_point", "schema.parse"),
    ("riskspan.schema", "canonical_json", "schema.render"),
    ("riskspan.cli", "main", "cli.main"),
)
METHOD_SPANS = (
    (market.MartingaleMeasureSet, "bounds", "market.bounds"),
    (market.MartingaleMeasureSet, "vertices", "market.emm_vertices"),
)
# Called per scenario and basis vector: counted, not timed, to keep the
# tracing overhead down.
COUNTED = (("riskspan.measure", "pairing", "measure.pairing"),)

# Spans whose nested LP solves are reported as "<name>.lps".
LP_OWNERS = (
    "bodies.solid_hull_member",
    "bodies.solid_check",
    "risk.conjugate",
    "market.nonsolidity_witness",
    "market.attainable",
)

# Wrappers that must fire on each workload; a miss fails the traced run so
# that a wrapper on a stale name cannot read as zero time.
EXPECTED = {
    "body_lp": (
        "exactlp.solve", "bodies.gauge", "bodies.polar_gauge", "bodies.bipolar_member",
        "bodies.solid_hull_member", "bodies.solid_check",
    ),
    "market_tree": (
        "exactlp.solve", "exactlp.vertex_enumeration", "linalg.rank", "linalg.solve_exact",
        "linalg.independent_rows", "market.viability_certificate", "market.bounds",
        "market.nonsolidity_witness", "market.attainable", "market.attainable_ball",
        "market.emm_vertices",
    ),
    "risk_desk": (
        "exactlp.solve", "linalg.rank", "linalg.independent_rows", "linalg.in_span",
        "bodies.gauge", "bodies.span_basis", "risk.evaluate", "risk.conjugate",
        "risk.dual_rep_evaluate", "risk.extend", "risk.monotone_certifiable",
        "risk.fatou_probe", "measure.ky_fan_distance", "measure.pairing",
    ),
    "cli_batch": (
        "schema.parse", "schema.render", "cli.main", "exactlp.solve",
        "exactlp.vertex_enumeration", "bodies.gauge", "bodies.polar_gauge",
        "bodies.solid_hull_member", "bodies.solid_check", "risk.evaluate", "risk.conjugate",
        "risk.extend", "risk.fatou_probe", "market.viability_certificate", "market.bounds",
        "market.nonsolidity_witness", "market.attainable", "market.attainable_ball",
        "market.emm_vertices",
    ),
}

# name -> unit, in report order.
PER_LAYER = {
    "exactlp.solve.calls": "count",
    "exactlp.solve.ms": "ms",
    "exactlp.verify.ms": "ms",
    "exactlp.lp.rows": "count",
    "exactlp.lp.vars": "count",
    "exactlp.status.infeasible": "count",
    "exactlp.max_bits": "bits",
    "exactlp.vertex_enumeration.calls": "count",
    "exactlp.vertex_enumeration.ms": "ms",
    "linalg.rank.calls": "count",
    "linalg.rank.ms": "ms",
    "linalg.solve_exact.calls": "count",
    "linalg.solve_exact.ms": "ms",
    "linalg.independent_rows.ms": "ms",
    "linalg.in_span.calls": "count",
    "linalg.in_span.ms": "ms",
    "bodies.gauge.ms": "ms",
    "bodies.polar_gauge.ms": "ms",
    "bodies.bipolar_member.ms": "ms",
    "bodies.solid_hull_member.ms": "ms",
    "bodies.solid_hull_member.lps": "count",
    "bodies.solid_check.ms": "ms",
    "bodies.solid_check.lps": "count",
    "bodies.span_basis.hits": "count",
    "bodies.span_basis.misses": "count",
    "risk.evaluate.ms": "ms",
    "risk.conjugate.calls": "count",
    "risk.conjugate.lps": "count",
    "risk.conjugate.ms": "ms",
    "risk.dual_rep_evaluate.ms": "ms",
    "risk.extend.ms": "ms",
    "risk.monotone_certifiable.ms": "ms",
    "risk.fatou_probe.ms": "ms",
    "market.viability_certificate.ms": "ms",
    "market.bounds.calls": "count",
    "market.nonsolidity_witness.ms": "ms",
    "market.nonsolidity_witness.lps": "count",
    "market.attainable.ms": "ms",
    "market.attainable.lps": "count",
    "market.attainable_ball.ms": "ms",
    "market.emm_vertices.ms": "ms",
    "measure.ky_fan_distance.ms": "ms",
    "measure.pairing.calls": "count",
    "schema.parse.ms": "ms",
    "schema.render.ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.ops": "count",
    "trace.op_p50_ms": "ms",
}


class Tracer:
    """Span store plus the LP sink of the traced run.

    Wrappers record only between ``begin_op`` and ``end_op``, so the warm-up
    and the checks that re-run CLI commands add nothing.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.current_op = -1
        self.counts: dict[str, int] = {}
        # LP statistics over the timed ops
        self.pending: list[tuple] = []
        self.lps = 0
        self.rows = 0
        self.vars = 0
        self.infeasible = 0
        self.max_bits = 0
        self.verify_ns = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache_at_begin = (0, 0)

    # -- spans ------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn: Callable) -> Callable:
        nid = self._intern(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if self.current_op < 0:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        self.counts[name] = 0

        def wrapper(*args, **kwargs):
            if self.current_op >= 0:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "riskspan" or n.startswith("riskspan.")]
        for module_name, attr, span in SPANS + COUNTED:
            original = getattr(sys.modules[module_name], attr)
            make = self.counted if (module_name, attr, span) in COUNTED else self.spanned
            wrapper = make(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for cls, attr, span in METHOD_SPANS:
            setattr(cls, attr, self.spanned(span, getattr(cls, attr)))

    # -- ops: spans, counts and cache figures cover timed ops only ---------

    def begin_op(self, op_id: int) -> None:
        self.current_op = op_id
        self._cache_at_begin = span_basis_cache()

    def end_op(self) -> None:
        self.current_op = -1
        hits, misses = span_basis_cache()
        self.cache_hits += hits - self._cache_at_begin[0]
        self.cache_misses += misses - self._cache_at_begin[1]
        self._settle_lps()

    # -- LP sink (riskspan.record_outcomes calls append) -------------------

    def append(self, pair) -> None:
        self.pending.append(pair)

    def _settle_lps(self) -> None:
        """Replay the op's certificates and fold its LP statistics in."""
        for lp, outcome in self.pending:
            t = time.perf_counter_ns()
            exactlp.verify_outcome(lp, outcome)
            self.verify_ns += time.perf_counter_ns() - t
            self.lps += 1
            self.vars += len(lp.objective)
            self.rows += len(lp.constraints) + sum(b is not None for b in lp.lower + lp.upper)
            self.infeasible += outcome.status is exactlp.LPStatus.INFEASIBLE
            self.max_bits = max(self.max_bits, _outcome_bits(outcome))
        self.pending.clear()

    # -- report -----------------------------------------------------------

    def metrics(self, ops: int, p50_ms: float, scale: float) -> dict:
        """Per-layer metrics; times are ms per op, scaled to reference host speed."""
        span_stats = self.span_stats()

        def per_op_ms(name: str) -> float:
            return span_stats.get(name, (0, 0))[1] / 1e6 / ops * scale

        def calls(name: str) -> int:
            return span_stats.get(name, (0, 0))[0]

        lp_owned = self.lp_owners()
        values = {
            "exactlp.verify.ms": self.verify_ns / 1e6 / ops * scale,
            "exactlp.lp.rows": self.rows / max(self.lps, 1),
            "exactlp.lp.vars": self.vars / max(self.lps, 1),
            "exactlp.status.infeasible": self.infeasible,
            "exactlp.max_bits": self.max_bits,
            "bodies.span_basis.hits": self.cache_hits,
            "bodies.span_basis.misses": self.cache_misses,
            "measure.pairing.calls": self.counts["measure.pairing"],
            "trace.ops": ops,
            "trace.op_p50_ms": p50_ms,
        }
        for owner in LP_OWNERS:
            values[f"{owner}.lps"] = lp_owned.get(owner, 0)
        for key in PER_LAYER:
            if key in values:
                continue
            stem, _, field = key.rpartition(".")  # field is calls, ms or self_ms
            values[key] = calls(stem) if field == "calls" else per_op_ms(stem)
        return {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER.items()}

    def span_stats(self) -> dict:
        """name -> (calls, self time in ns) over spans of timed ops."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats: dict[str, list[int]] = {}
        for i in range(n):
            entry = stats.setdefault(self.names[self.name[i]], [0, 0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        return {k: (v[0], v[1]) for k, v in stats.items()}

    def lp_owners(self) -> dict[str, int]:
        solve_id = self._ids["exactlp.solve"]
        owner_ids = {self._ids[o]: o for o in LP_OWNERS if o in self._ids}
        out: dict[str, int] = {}
        for i in range(len(self.name)):
            if self.name[i] != solve_id:
                continue
            seen = set()
            p = self.parent[i]
            while p >= 0:
                owner = owner_ids.get(self.name[p])
                if owner is not None and owner not in seen:
                    seen.add(owner)
                    out[owner] = out.get(owner, 0) + 1
                p = self.parent[p]
        return out

    def fired(self) -> set[str]:
        names = {self.names[i] for i in set(self.name)}
        return names | {k for k, v in self.counts.items() if v}

    def write(self, path: str, origin_ns: int) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                out.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - origin_ns}\t{self.end[i] - origin_ns}\n"
                )


def _outcome_bits(outcome) -> int:
    best = 0
    for field in (
        outcome.point, outcome.dual, outcome.reduced_costs, outcome.farkas,
        outcome.farkas_lower, outcome.farkas_upper, outcome.ray, (outcome.value,),
    ):
        for x in field or ():
            if isinstance(x, Fraction):
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def span_basis_cache() -> tuple[int, int]:
    info = _SPAN_BASIS.cache_info()
    return info.hits, info.misses
