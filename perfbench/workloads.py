"""The three workloads: set-up, one round of operations, answer checks.

A *round* is a fixed list of operations; a run repeats whole rounds, so
every run attempts the same operations in the same proportions.  Every
answer is compared with :mod:`oracle` as it arrives; a wrong answer
raises :class:`WrongAnswer` and ends the run without a result.

All calls go in-process and single-threaded through the program's public
entry points: ``Session.evaluate`` for the Table-2 workloads and
``QueryService.handle_query`` / ``handle_register`` for closure-churn and
for every document registration.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from collections.abc import Callable

import inputs
import oracle
import queries
from repro import Session
from repro.service.server import QueryService
from repro.xdm.index import clear_index_registry

ENGINES = ("interpreter", "sql", "algebra")


class WrongAnswer(AssertionError):
    """An answer disagreed with the oracle, or a property check failed."""


@dataclass
class Recorder:
    """Latency, CPU and busy time of the program calls of one window."""

    query_s: list[float] = field(default_factory=list)
    register_s: list[float] = field(default_factory=list)
    cold_s: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    cpu_s: float = 0.0

    def call(self, function: Callable, *args, **kwargs):
        """Run one program call; returns (result, wall seconds)."""
        cpu = time.process_time()
        start = time.perf_counter()
        result = function(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.cpu_s += time.process_time() - cpu
        self.busy_s += elapsed
        return result, elapsed

    @property
    def operations(self) -> int:
        return len(self.query_s) + len(self.register_s)


def _attribute(node, name: str) -> str:
    attribute = node.get_attribute(name)
    return attribute.value if attribute is not None else ""


#: How each Table-2 query's result items are read into the oracle's shape.
READERS: dict[str, Callable[[list], list]] = {
    "bidder-network": lambda items: [(_attribute(n, "id"), n.string_value()) for n in items],
    "dialogs": lambda items: [n.string_value() for n in items],
    "curriculum": lambda items: [_attribute(n, "code") for n in items],
    "hospital": lambda items: [(_attribute(n, "id"), n.string_value()) for n in items],
}

_START_TAG = re.compile(r'<([A-Za-z_]+)(?:[^>]*?\s(?:id|code)="([^"]*)")?')


def read_serialized(items: list[str]) -> list[tuple[str, str]]:
    """(element name, ID) of each serialized node of a service response."""
    found = []
    for item in items:
        match = _START_TAG.match(item)
        if match is None:
            raise WrongAnswer(f"closure returned a non-element item {item[:60]!r}")
        found.append((match.group(1), match.group(2) or ""))
    return found


class Workload:
    """Shared set-up: a session with a service over it, documents
    registered through ``handle_register``."""

    name = ""
    kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = size
        self.generate_s = 0.0
        self.session: Session | None = None
        self.service: QueryService | None = None
        self.models: dict[str, object] = {}
        self.texts: dict[str, str] = {}

    def setup(self, recorder: Recorder) -> None:
        """Load the inputs and warm every cache with one checked pass
        over the operations."""
        self.load(recorder)
        self.warm(recorder)

    def load(self, recorder: Recorder) -> None:
        """Generate the inputs and register them with a fresh session."""
        start = time.perf_counter()
        corpus = inputs.make_corpus(self.kinds, self.seed, self.size)
        self.generate_s = time.perf_counter() - start
        self.models = {kind: model for kind, (model, _) in corpus.items()}
        self.texts = {kind: text for kind, (_, text) in corpus.items()}
        self.session = Session(id_attributes=inputs.ID_ATTRIBUTES)
        self.service = QueryService(self.session)
        for kind in self.kinds:
            self.register(recorder, kind, self.texts[kind])

    def register(self, recorder: Recorder, kind: str, text: str) -> None:
        """Register one document through the service."""
        payload = {"uri": inputs.URIS[kind], "xml": text}
        response, elapsed = recorder.call(self.service.handle_register, payload)
        if not response.get("ok"):
            raise WrongAnswer(f"registering {kind} failed: {response}")
        recorder.register_s.append(elapsed)

    def warm(self, recorder: Recorder) -> None:
        raise NotImplementedError

    def settle(self, recorder: Recorder) -> None:
        """Untimed work between the last set-up and the timed window, to
        bring the program's caches to their steady size (none by default)."""

    def round(self, recorder: Recorder, trace: bool = False) -> list[tuple[str, dict | None]]:
        """Run one round; returns (engine, trace tree or None) per query."""
        raise NotImplementedError

    def query_texts(self) -> list[tuple[str, str]]:
        """The distinct (query text, engine) pairs of a round."""
        raise NotImplementedError

    def close(self) -> None:
        """Close the session and drop the roots it left in the program's
        global index registry, which ``Session.close`` keeps: the next
        set-up then starts like a fresh process."""
        if self.session is not None:
            self.session.close()
            clear_index_registry()


# ---------------------------------------------------------------------------
# table2-interp / table2-sql
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Op:
    query: str          # Table-2 query name
    form: str           # ifp-naive, ifp-delta, udf-fix, udf-delta
    text: str
    kind: str


class Table2Workload(Workload):
    """The four Table-2 queries on one engine, all forms, fixed order."""

    kinds = ("auction", "play", "curriculum", "hospital")

    def __init__(self, seed: int, size: str = "full", engine: str = "interpreter"):
        super().__init__(seed, size)
        self.engine = engine
        self.name = "table2-interp" if engine == "interpreter" else "table2-sql"
        limits = queries.SEED_LIMITS[size]
        forms = ["ifp-naive", "ifp-delta"]
        if engine == "interpreter":
            forms += ["udf-fix", "udf-delta"]
        self.ops = []
        for query in queries.TABLE2:
            for form in forms:
                style, variant = form.split("-")
                text = (query.ifp(variant, limits[query.name]) if style == "ifp"
                        else query.udf(variant, limits[query.name]))
                self.ops.append(Table2Op(query.name, form, text, query.kind))
        self.expected: dict[str, list] = {}

    def warm(self, recorder: Recorder) -> None:
        limits = queries.SEED_LIMITS[self.size]
        self.expected = {query.name: oracle.TABLE2[query.name](self.models[query.kind],
                                                               limits[query.name])
                         for query in queries.TABLE2}
        properties: dict = {}
        for number, op in enumerate(self.ops):
            _, elapsed = self.run(recorder, op, properties)
            if number == 0:  # the engine's first query after the registrations
                recorder.cold_s.append(elapsed)

    def run(self, recorder: Recorder, op: Table2Op, properties: dict, trace: bool = False):
        settings = {"engine": self.engine, "trace": True} if trace else {"engine": self.engine}
        result, elapsed = recorder.call(self.session.evaluate, op.text, **settings)
        self.check(op, result, properties)
        return result, elapsed

    def check(self, op: Table2Op, result, properties: dict) -> None:
        answer = READERS[op.query](result.items)
        if answer != self.expected[op.query]:
            raise WrongAnswer(f"{self.name} {op.query}/{op.form}: answer differs from the "
                              f"oracle: {answer[:5]!r} vs {self.expected[op.query][:5]!r}")
        if op.form.startswith("ifp"):
            # Delta feeds back only new nodes, Naive the whole accumulator:
            # Delta can never feed back more (SQL CTE runs report 0).
            properties[op.query, op.form] = result.nodes_fed_back
            naive = properties.get((op.query, "ifp-naive"))
            delta = properties.get((op.query, "ifp-delta"))
            if naive is not None and delta is not None and delta > naive:
                raise WrongAnswer(f"{self.name} {op.query}: Delta fed back {delta} nodes, "
                                  f"Naive {naive}")

    def round(self, recorder: Recorder, trace: bool = False) -> list[tuple[str, dict | None]]:
        properties: dict = {}
        traces = []
        for op in self.ops:
            result, elapsed = self.run(recorder, op, properties, trace)
            recorder.query_s.append(elapsed)
            traces.append((self.engine, result.trace.to_dict() if trace else None))
        return traces

    def query_texts(self) -> list[tuple[str, str]]:
        return [(op.text, self.engine) for op in self.ops]


# ---------------------------------------------------------------------------
# closure-churn
# ---------------------------------------------------------------------------


class ClosureChurn(Workload):
    """Top-level closures on all three engines, with document writes.

    A round is one write cycle per document, in ``kinds`` order.  A cycle
    replaces the document with a fresh variant, asks one closure on that
    document per engine (the cold queries), then asks every
    (closure, engine) pair of the pool ``PASSES_PER_WRITE`` times in a
    seeded random order, so plans and indexes are reused between writes.
    """

    name = "closure-churn"
    kinds = ("curriculum", "hospital")
    #: The write cadence, a chosen assumption: no traffic record says how
    #: often documents change.  2 gives one write per 3 + 2 * 72 = 147
    #: queries, the two documents taking turns.
    PASSES_PER_WRITE = 2
    #: Write cycles (cold queries only) before the timed window.  The
    #: index registry keeps the last 64 indexed roots, replaced ones
    #: included, and the plan cache 64 plans; after more writes than that
    #: they are at their steady size, so peak RSS no longer grows with the
    #: number of writes the window fits.
    SETTLE_WRITES = 80

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.pool = queries.closure_pool(size)
        self.rng = random.Random(f"closure-churn:{seed}")
        self.writes = 0
        self._answers: dict = {}

    def warm(self, recorder: Recorder) -> None:
        for closure in self.pool:
            for engine in ENGINES:
                self.query(recorder, closure, engine)

    def settle(self, recorder: Recorder) -> None:
        for number in range(self.SETTLE_WRITES):
            self.cycle(recorder, self.kinds[number % len(self.kinds)], passes=0)

    def query(self, recorder: Recorder, closure: queries.Closure, engine: str,
              trace: bool = False) -> tuple[dict, float]:
        payload = {"query": closure.text, "engine": engine}
        if trace:
            payload["trace"] = True
        response, elapsed = recorder.call(self.service.handle_query, payload)
        model = self.models[closure.kind]
        key = (id(model), closure.shape, closure.key)
        expected = self._answers.get(key)
        if expected is None:
            expected = self._answers[key] = oracle.closure_answer(
                model, closure.shape, closure.key)
        answer = read_serialized(response["items"])
        if answer != expected:
            raise WrongAnswer(f"closure-churn {engine} {closure}: answer differs from the "
                              f"oracle after {self.writes} writes: {answer[:4]!r} vs "
                              f"{expected[:4]!r}")
        return response, elapsed

    def write(self, recorder: Recorder, kind: str) -> None:
        self.writes += 1
        model, text = inputs.make_document(kind, f"{self.seed}/{self.writes}", self.size)
        self.register(recorder, kind, text)
        self.models[kind] = model
        self._answers.clear()

    def cycle(self, recorder: Recorder, kind: str, passes: int,
              trace: bool = False) -> list[tuple[str, dict | None]]:
        """One write, its cold queries and *passes* passes over the pool."""
        self.write(recorder, kind)
        own = [closure for closure in self.pool if closure.kind == kind]
        asks = [(self.rng.choice(own), engine, True) for engine in ENGINES]
        mix = [(closure, engine, False) for closure in self.pool for engine in ENGINES]
        mix *= passes
        self.rng.shuffle(mix)
        traces = []
        for closure, engine, cold in asks + mix:
            response, elapsed = self.query(recorder, closure, engine, trace)
            if cold:
                recorder.cold_s.append(elapsed)
            recorder.query_s.append(elapsed)
            traces.append((engine, response.get("trace")))
        return traces

    def round(self, recorder: Recorder, trace: bool = False) -> list[tuple[str, dict | None]]:
        traces = []
        for kind in self.kinds:
            traces += self.cycle(recorder, kind, self.PASSES_PER_WRITE, trace)
        return traces

    def query_texts(self) -> list[tuple[str, str]]:
        return [(closure.text, engine) for closure in self.pool for engine in ENGINES]


def make(name: str, seed: int, size: str = "full") -> Workload:
    if name == "table2-interp":
        return Table2Workload(seed, size, "interpreter")
    if name == "table2-sql":
        return Table2Workload(seed, size, "sql")
    if name == "closure-churn":
        return ClosureChurn(seed, size)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("table2-interp", "table2-sql", "closure-churn")
