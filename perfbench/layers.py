"""Per-layer metrics: the traced run (``run.py --trace 1``).

Nothing here feeds the end-to-end metrics; the timed runs never trace.
One traced run of a workload does five things:

1. times the benchmark's own calls into each layer's public function on
   the workload's inputs: XML parse, query parse, optimize, analyze,
   structural-index build, SQL shred, one document registration;
2. runs whole rounds with ``trace=True`` for the run length and folds
   every span tree into self time, counts and attributes per
   (engine, span name), reads the session's cache and SQL-pool
   counters before and after, and counts and times every SQL statement
   the SQL engine's executor runs (:class:`SqlMeter`);
3. runs each distinct query plain, traced and through
   ``QueryService.handle_query`` and takes the best of three of each:
   the differences are the tracing and service overheads;
4. profiles one round under ``cProfile`` for the hot functions;
5. where the workload's own queries never reach the SQL or algebra
   engine (the Table-2 workloads), runs the closure pool once on that
   engine over the same documents, so those layers are still measured.

The report, with the folded span table and the profile's top functions,
is written to ``perfbench/reports/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import sqlite3
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import inputs
import workloads
from repro import Session
from repro.analysis import analyze_module
from repro.service.server import QueryService
from repro.sqlbackend.shredder import SqlDocumentStore
from repro.xdm.index import index_for
from repro.xmlio.parser import parse_xml
from repro.xquery.optimizer import optimize_module
from repro.xquery.parser import parse_query

HERE = os.path.dirname(os.path.abspath(__file__))

#: (source file suffix, function name) of the profiled hot spots.
HOT = {"ddo": ("xdm/sequence.py", "ddo"), "fn_id": ("xquery/functions.py", "fn_id"),
       "batch_step": ("xdm/index.py", "batch_step"), "is_node": ("xdm/items.py", "is_node")}


class SpanFold:
    """Span trees folded per (engine, span name)."""

    def __init__(self):
        self.queries: Counter = Counter()
        self.count: Counter = Counter()
        self.total_ms: Counter = Counter()
        self.self_ms: Counter = Counter()
        self.attributes: dict = defaultdict(Counter)

    def add(self, engine: str, tree: dict) -> None:
        self.queries[engine] += 1
        stack = [tree]
        while stack:
            span = stack.pop()
            children = span["children"]
            key = (engine, span["name"])
            self.count[key] += 1
            self.total_ms[key] += span["elapsed_ms"]
            self.self_ms[key] += span["elapsed_ms"] - sum(c["elapsed_ms"] for c in children)
            for name, value in span["attributes"].items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    self.attributes[key][name] += value
                elif name in ("path", "plan_cache"):
                    self.count[engine, f"{span['name']}:{name}={value}"] += 1
                    self.total_ms[engine, f"{span['name']}:{name}={value}"] += span["elapsed_ms"]
            stack.extend(children)

    def engines(self) -> list[str]:
        return sorted(self.queries)

    def total(self, measure: Counter, name: str, engines=None) -> float:
        return sum(measure[engine, name] for engine in engines or self.engines())

    def attribute(self, name: str, attribute: str, engines=None) -> float:
        return sum(self.attributes[engine, name][attribute] for engine in engines or self.engines())

    def query_count(self, engines=None) -> int:
        return sum(self.queries[engine] for engine in engines or self.engines())

    def table(self) -> list[dict]:
        return [{"engine": engine, "span": name, "count": self.count[engine, name],
                 "total_ms": round(self.total_ms[engine, name], 3),
                 "self_ms": round(self.self_ms[engine, name], 3),
                 **{key: value for key, value in self.attributes[engine, name].items()}}
                for engine, name in sorted(self.count)]


class SqlMeter:
    """Statements the SQL engine runs, counted and timed.

    While :func:`metered_sql` is active, every new SQLite connection is a
    :class:`_MeteredConnection`.  A statement counts when the executor
    (``sqlbackend/executor.py``) issues it: recursive CTEs, guards, and the
    driver loop's temp-table statements alike; the shredder's inserts do
    not.  Its time covers the execute call and every fetch of its rows.
    """

    EXECUTOR = "sqlbackend/executor.py"

    def __init__(self):
        self.active = False
        self.statements = 0
        self.seconds = 0.0

    @contextmanager
    def counting(self):
        """Count from zero inside the block; (statements, seconds) stay readable after."""
        self.statements, self.seconds, self.active = 0, 0.0, True
        try:
            yield self
        finally:
            self.active = False


METER = SqlMeter()


class _MeteredCursor(sqlite3.Cursor):
    counted = False

    def _timed(self, method, *args):
        if not self.counted:
            return method(self, *args)
        start = time.perf_counter()
        try:
            return method(self, *args)
        finally:
            METER.seconds += time.perf_counter() - start

    def fetchone(self):
        return self._timed(sqlite3.Cursor.fetchone)

    def fetchmany(self, *args):
        return self._timed(sqlite3.Cursor.fetchmany, *args)

    def fetchall(self):
        return self._timed(sqlite3.Cursor.fetchall)

    def __next__(self):
        return self._timed(sqlite3.Cursor.__next__)


class _MeteredConnection(sqlite3.Connection):
    def cursor(self, factory=_MeteredCursor):
        return super().cursor(factory)

    def execute(self, sql, parameters=(), /):
        return self._run(sqlite3.Cursor.execute, sql, parameters)

    def executemany(self, sql, parameters, /):
        return self._run(sqlite3.Cursor.executemany, sql, parameters)

    def _run(self, method, sql, parameters):
        cursor = self.cursor()
        caller = sys._getframe(2).f_code.co_filename.replace(os.sep, "/")
        if not (METER.active and caller.endswith(SqlMeter.EXECUTOR)):
            return method(cursor, sql, parameters)
        cursor.counted = True
        METER.statements += 1
        return cursor._timed(method, sql, parameters)


@contextmanager
def metered_sql():
    """Make every SQLite connection opened inside the block metered."""
    connect = sqlite3.connect
    sqlite3.connect = functools.partial(connect, factory=_MeteredConnection)
    try:
        yield
    finally:
        sqlite3.connect = connect


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _best_ms(function, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function(*args)
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def layer_calls(workload: workloads.Workload) -> dict:
    """Step 1: the benchmark's own timed calls into each layer."""
    texts = list(workload.texts.values())
    documents = [parse_xml(text, id_attributes=inputs.ID_ATTRIBUTES) for text in texts]
    query_texts = sorted({text for text, _ in workload.query_texts()})
    modules = [parse_query(text) for text in query_texts]
    optimized = [optimize_module(module) for module in modules]

    def index_build_ms(text):
        # Freshly parsed trees are not in the index registry: each builds.
        fresh = [parse_xml(text, id_attributes=inputs.ID_ATTRIBUTES) for _ in range(3)]
        return min(_best_ms(index_for, tree, repeats=1) for tree in fresh)

    def shred(document):
        store = SqlDocumentStore()
        try:
            store.shred(document)
        finally:
            store.close()

    def register(kind):
        session = Session(id_attributes=inputs.ID_ATTRIBUTES)
        try:
            QueryService(session).handle_register(
                {"uri": inputs.URIS[kind], "xml": workload.texts[kind]})
        finally:
            session.close()

    return {
        "xmlio.parse_ms_per_doc": statistics.mean(
            _best_ms(parse_xml, text, inputs.ID_ATTRIBUTES) for text in texts),
        "service.register_ms": statistics.mean(_best_ms(register, kind) for kind in workload.texts),
        "xquery.parse_ms": statistics.mean(_best_ms(parse_query, t) for t in query_texts),
        "xquery.optimize_ms": statistics.mean(_best_ms(optimize_module, m) for m in modules),
        "analysis.analyze_ms": statistics.mean(_best_ms(analyze_module, m) for m in optimized),
        "index.build_ms": statistics.mean(index_build_ms(text) for text in texts),
        "sql.shred_ms_per_doc": statistics.mean(_best_ms(shred, d) for d in documents),
    }


def traced_rounds(workload: workloads.Workload, seconds: float, fold: SpanFold,
                  recorder: workloads.Recorder) -> dict:
    """Step 2: whole traced rounds; returns the session counters' change."""
    before = workload.session.stats()
    start = time.perf_counter()
    with METER.counting():
        while True:
            for engine, tree in workload.round(recorder, trace=True):
                fold.add(engine, tree)
            if time.perf_counter() - start >= seconds:
                break
    after = workload.session.stats()
    changes = {}
    for cache in ("module", "plan", "analysis"):
        hits = after[cache]["hits"] - before[cache]["hits"]
        misses = after[cache]["misses"] - before[cache]["misses"]
        changes[cache] = _ratio(hits, hits + misses)
    changes["stores_created"] = after["sql_pool"]["created"] - before["sql_pool"]["created"]
    changes["sql_statements"], changes["sql_seconds"] = METER.statements, METER.seconds
    return changes


def overheads(workload: workloads.Workload) -> tuple[float, float]:
    """Step 3: (tracing, service) overhead in ms per query.

    Each query runs three times in each of three rotated orders, so that
    a call paying for its predecessor's side effects (a re-shred after an
    element constructor) is never always the same kind of call.
    """
    session, service = workload.session, workload.service
    traced, served = [], []
    for text, engine in workload.query_texts():
        calls = {"plain": lambda: session.evaluate(text, engine=engine),
                 "traced": lambda: session.evaluate(text, engine=engine, trace=True),
                 "served": lambda: service.handle_query({"query": text, "engine": engine})}
        best = dict.fromkeys(calls, float("inf"))
        order = list(calls)
        for _ in range(len(order)):
            for kind in order:
                start = time.perf_counter()
                calls[kind]()
                best[kind] = min(best[kind], time.perf_counter() - start)
            order = order[1:] + order[:1]
        traced.append(best["traced"] - best["plain"])
        served.append(best["served"] - best["plain"])
    return statistics.mean(traced) * 1000.0, statistics.mean(served) * 1000.0


def profile_round(workload: workloads.Workload) -> tuple[dict, list]:
    """Step 4: one round under cProfile; hot-function shares and top list."""
    recorder = workloads.Recorder()
    profiler = cProfile.Profile()
    profiler.enable()
    workload.round(recorder)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    total = sum(entry[2] for entry in stats.values())
    hot = {}
    for label, (suffix, function) in HOT.items():
        entries = [entry for (path, _, name), entry in stats.items()
                   if name == function and path.replace(os.sep, "/").endswith(suffix)]
        hot[label] = {"self_s": sum(e[2] for e in entries), "calls": sum(e[1] for e in entries)}
    queries = len(recorder.query_s)
    metrics = {
        "hot.ddo.self_share": hot["ddo"]["self_s"] / total,
        "hot.fn_id.self_share": hot["fn_id"]["self_s"] / total,
        "hot.batch_step.self_share": hot["batch_step"]["self_s"] / total,
        "hot.is_node.calls_per_query": hot["is_node"]["calls"] / queries,
    }
    top = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)[:25]
    listing = [{"function": f"{os.path.basename(path)}:{line}:{name}", "calls": entry[1],
                "self_s": round(entry[2], 4), "cumulative_s": round(entry[3], 4)}
               for (path, line, name), entry in top]
    return metrics, listing


def stores_by_query(workload: workloads.Workload) -> dict:
    """SQL stores created by each query of one round, in round order (the
    Table-2 workloads on the SQL engine): a store is rebuilt, and the
    corpus re-shredded, after every query that constructs an element."""
    if workload.name != "table2-sql":
        return {}
    created = {}
    for op in workload.ops:
        before = workload.session.stats()["sql_pool"]["created"]
        workload.run(workloads.Recorder(), op, {})
        created[f"{op.query}/{op.form}"] = workload.session.stats()["sql_pool"]["created"] - before
    return created


def probe(workload: workloads.Workload, engines: list[str]) -> tuple[SpanFold, dict]:
    """Step 5: the closure pool on *engines*, traced, on the same documents.

    Returns the fold and the probe's SQL counters: stores the probe
    session created, statements and their seconds.
    """
    closures = workloads.ClosureChurn(workload.seed, workload.size)
    closures.load(workloads.Recorder())
    fold = SpanFold()
    created = closures.session.stats()["sql_pool"]["created"]
    try:
        with METER.counting():
            for closure in closures.pool:
                for engine in engines:
                    response, _ = closures.query(workloads.Recorder(), closure, engine,
                                                 trace=True)
                    fold.add(engine, response["trace"])
        created = closures.session.stats()["sql_pool"]["created"] - created
    finally:
        closures.close()
    return fold, {"stores_created": created, "sql_statements": METER.statements,
                  "sql_seconds": METER.seconds}


def traced(name: str, seed: int, seconds: float, size: str) -> tuple[int, dict]:
    """Steps 1 to 5 on one workload; returns (operations attempted, metrics)."""
    with metered_sql():
        return _traced(name, seed, seconds, size)


def _traced(name: str, seed: int, seconds: float, size: str) -> tuple[int, dict]:
    workload = workloads.make(name, seed, size)
    workload.setup(workloads.Recorder())
    try:
        metrics = {"inputs.generate_s": workload.generate_s}
        metrics.update(layer_calls(workload))

        fold = SpanFold()
        window = workloads.Recorder()
        counters = traced_rounds(workload, seconds, fold, window)
        metrics["trace.overhead_ms_per_query"], metrics["service.overhead_ms_per_query"] = (
            overheads(workload))
        hot, top_functions = profile_round(workload)
        metrics.update(hot)
        stores = stores_by_query(workload)
    finally:
        workload.close()

    queries = fold.query_count()
    metrics.update({
        "session.module_cache_hit_ratio": counters["module"],
        "session.plan_cache_hit_ratio": counters["plan"],
        "session.analysis_cache_hit_ratio": counters["analysis"],
        "index.builds_per_query": fold.total(fold.count, "index-build") / queries,
        "execute.self_ms_per_query": fold.total(fold.self_ms, "execute") / queries,
        "fixpoint.rounds_per_query": fold.total(fold.count, "round") / queries,
        "fixpoint.nodes_fed_back_per_query": fold.attribute("round", "fed") / queries,
        "fixpoint.round_self_ms": _ratio(fold.total(fold.self_ms, "round"),
                                         fold.total(fold.count, "round")),
    })
    kernels = [counts for (_, span), counts in fold.attributes.items()
               if span.startswith("kernel:")]
    batch = sum(counts["batch"] for counts in kernels)
    fallback = sum(counts["fallback"] for counts in kernels)
    metrics.update({"kernel.batch_per_query": batch / queries,
                    "kernel.fallback_per_query": fallback / queries,
                    "kernel.batch_ratio": _ratio(batch, batch + fallback)})

    missing = [engine for engine in ("sql", "algebra") if engine not in fold.queries]
    sql_fold, algebra_fold, sql_counters = fold, fold, counters
    probed = {}
    if missing:
        probe_fold, probe_counters = probe(workload, missing)
        probed = {engine: probe_fold.queries[engine] for engine in missing}
        if "sql" in missing:
            sql_fold, sql_counters = probe_fold, probe_counters
        if "algebra" in missing:
            algebra_fold = probe_fold
    sql, algebra = ["sql"], ["algebra"]
    sql_queries = sql_fold.query_count(sql)
    algebra_queries = algebra_fold.query_count(algebra)
    compile_cold = [f"compile:plan_cache={state}" for state in ("miss", "bypass")]
    cold_compiles = sum(algebra_fold.total(algebra_fold.count, n, algebra) for n in compile_cold)
    cold_compile_ms = sum(algebra_fold.total(algebra_fold.total_ms, n, algebra)
                          for n in compile_cold)
    metrics.update({
        "sql.stores_created_per_query": sql_counters["stores_created"] / sql_queries,
        "sql.statements_per_query": sql_counters["sql_statements"] / sql_queries,
        "sql.statement_ms_per_query": sql_counters["sql_seconds"] * 1000.0 / sql_queries,
        "sql.cte_fixpoints_per_query":
            sql_fold.total(sql_fold.count, "fixpoint:path=cte", sql) / sql_queries,
        "sql.driver_fixpoints_per_query":
            sql_fold.total(sql_fold.count, "fixpoint:path=driver", sql) / sql_queries,
        "sql.decode_ms_per_query": sql_fold.total(sql_fold.total_ms, "decode", sql) / sql_queries,
        "algebra.compile_ms": _ratio(cold_compile_ms, cold_compiles),
        "algebra.execute_ms_per_query":
            algebra_fold.total(algebra_fold.total_ms, "execute", algebra) / algebra_queries,
        "algebra.rows_fed_back_per_query":
            algebra_fold.attribute("round", "fed", algebra) / algebra_queries,
    })

    report = {"workload": name, "seed": seed, "size": size, "seconds": seconds,
              "traced_queries": dict(fold.queries), "probe_queries": probed,
              "metrics": metrics, "sql_stores_created_by_query": stores,
              "spans": fold.table(), "profile_top": top_functions}
    os.makedirs(os.path.join(HERE, "reports"), exist_ok=True)
    path = os.path.join(HERE, "reports", f"trace-{name}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)
    return window.operations, metrics
