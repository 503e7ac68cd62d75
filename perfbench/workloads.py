"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one client in one process, no threads, the
next operation sent only after the previous one returned.  Everything goes
through the public API (``MemoryEngine``, ``graphmem.store``,
``graphmem.http.http_bundle``); the engine receives only generated inputs.
Timing uses the benchmark's own clock: the call log's ``elapsed`` field is
always 0.0 under the mock providers.

Every operation is timed at a nominal machine speed and raw (see
:mod:`speed`).  Every timed sequence but query_8x's build runs two to four
times, each time on a fresh engine, seconds apart.  A timing metric takes each operation's median
time over those runs (see :func:`per_operation`), then the median or the
tail over the operations.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import random
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from graphmem import store
from graphmem.config import EngineConfig
from graphmem.core import snapshot_hash
from graphmem.engine import MemoryEngine
from graphmem.http import HttpConfig, http_bundle
from graphmem.metrics import recall_at_k
from graphmem.providers import MockEntailmentChecker, MockRelationScorer, mock_bundle
from graphmem.retrieval import event_lookup

import corpus
import tracing
from fake_transport import FakeTransport
from speed import MIXED, SCAN, Meter

CONFIG = EngineConfig()
PINS_FILE = Path(__file__).with_name("pins.json")

#: How often each timed sequence runs at least; see per_operation.
INGEST_PASSES = 2
CHAT_CONVERSATIONS = 3
#: ingest_8x reads back the QA items plus this many pool questions on each
#: pass's engine, and on fresh engines over this many loaded copies.
READBACK_POOL = 92
READBACK_COPIES = 2
#: query_8x asks its query list on this many engines, each over its own
#: snapshot object: the one it built and loaded copies of that.
QUERY_ROUNDS = 4
#: query_8x asks at least this many queries per round, so its tail is a p95.
QUERY_FLOOR = 200
#: query_8x re-asks one QA item every this many queries.
QA_EVERY = 50
#: chat_http: one query after every this many turns.
CHAT_QUERY_EVERY = 12
#: chat_http: per-call transport delay and client backoff, in seconds.
CHAT_DELAY = 0.0005
SAVE_LOAD_REPEATS = 8
SETUP_REPEATS = 9
#: Smoke mode: query_8x queries per round and chat_http turns.
SMOKE_QUERIES = 24
SMOKE_CHAT_TURNS = 240
#: chat_http's set-up warms up on this many turns of the conversation.
CHAT_WARMUP_TURNS = 240


@dataclass
class Run:
    root: Path
    out: Path
    seed: int
    seconds: float
    workload: str = ""
    trace: bool = False
    smoke: bool = False
    scale: int = 8
    pins: dict = field(default_factory=dict)


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    meter: Meter = field(default_factory=Meter)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# statistics

TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def per_operation(runs: list[list[float]]) -> list[float]:
    """Per-operation median over repeated runs of the same operations.

    Runs of one sequence sit seconds apart, so they fall in different phases
    of the machine's load.  The median of scaled times is steadier from run
    to run than the minimum, which picks whichever run's reference timing
    happened to be slowest and so scaled its operations down most.
    """
    return [statistics.median(column) for column in zip(*runs, strict=True)]


def tail(values: list[float], floor: int) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile that leaves at
    least ten samples beyond it at the workload's guaranteed sample floor."""
    if len(values) < floor:
        raise ValueError(f"{len(values)} samples, below the floor {floor}")
    pct = next(p for p in TAIL_LADDER if floor * (100.0 - p) / 100.0 >= 10)
    ordered = sorted(values)
    return pct, ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100.0))]


def ms(seconds: float) -> float:
    return seconds * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ranking_digest(ranked) -> str:
    text = ";".join(f"{c.event_node_id}:{c.score!r}" for c in ranked)
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def canonical_hash(snapshot, turns: list[corpus.Turn]) -> str:
    """``snapshot_hash`` after mapping seeded session names back to the
    seed-independent ones, so one pinned value covers every seed."""
    rename = {t.session_id: t.canonical_session for t in turns}

    def graph(g):
        nodes = tuple(replace(n, session_id=rename[n.session_id]) for n in g.nodes)
        return replace(g, nodes=nodes)

    return snapshot_hash(
        replace(
            snapshot,
            archive={k: graph(g) for k, g in snapshot.archive.items()},
            active_event_graph=graph(snapshot.active_event_graph),
        )
    )


def _turn_keys(turns: list[corpus.Turn]):
    """(session, turn index, turn) per input turn; a missing index is the
    next one in its session, as the engine derives it."""
    position: dict[str, int] = {}
    for t in turns:
        index = t.turn_index if t.turn_index is not None else position.get(t.session_id, 0)
        position[t.session_id] = index + 1
        yield t.session_id, index, t


def check_snapshot(snapshot, turns, pinned: str | None, outcome: Outcome) -> None:
    """Every ingested turn stored exactly once across the archives and the
    buffer, and the snapshot hash equal to the pinned one, if given."""
    expected = Counter((s, i, t.speaker, t.text) for s, i, t in _turn_keys(turns))
    stored = Counter(
        (n.session_id, n.turn_index, n.speaker, n.text)
        for graph in [snapshot.active_event_graph, *snapshot.archive.values()]
        for n in graph.nodes
    )
    outcome.check(stored == expected, "turns lost or duplicated")
    if pinned is not None:
        digest = canonical_hash(snapshot, turns)
        outcome.check(digest == pinned, f"snapshot hash {digest} != pinned {pinned}")


def source_ids(snapshot, turns: list[corpus.Turn]) -> dict[str, str]:
    """Event node id -> fixture turn id ("s01:2"), for evidence recall."""
    source = {(s, i): t.source_id for s, i, t in _turn_keys(turns)}
    return {
        node_id: source[(n.session_id, n.turn_index)]
        for node_id, n in event_lookup(snapshot).items()
    }


# ---------------------------------------------------------------------------
# shared steps

#: One timed operation: (seconds at nominal speed, raw seconds).
Timed = tuple[float, float]


@dataclass
class Ingest:
    """One run of a turn sequence: each ``observe`` by position, the final
    ``end_session``, and which of those committed a theme.  ``transport`` is
    the fake transport the engine's providers wait on, if any; ``exponent``
    is the speed scaling exponent (see :mod:`speed`)."""

    transport: FakeTransport | None = None
    exponent: float = SCAN
    observe: list[Timed] = field(default_factory=list)
    committed: list[int] = field(default_factory=list)
    end: Timed = (0.0, 0.0)
    end_committed: bool = False
    tokens: int = 0

    def timed_observe(self, meter: Meter, engine: MemoryEngine, t: corpus.Turn) -> None:
        reports, timed = meter.timed(
            engine.observe, t.session_id, t.speaker, t.text, t.timestamp, t.turn_index,
            transport=self.transport, exponent=self.exponent,
        )
        self.observe.append(timed)
        if reports:
            self.committed.append(len(self.observe) - 1)

    def timed_end(self, meter: Meter, engine: MemoryEngine) -> None:
        reports, self.end = meter.timed(
            engine.end_session, transport=self.transport, exponent=self.exponent
        )
        self.end_committed = bool(reports)


def ingest(engine: MemoryEngine, turns: list[corpus.Turn], outcome: Outcome) -> Ingest:
    """Every turn through ``observe``, then the final ``end_session``."""
    stats = Ingest()
    log_start = len(engine.providers.call_log)
    for t in turns:
        stats.timed_observe(outcome.meter, engine, t)
    stats.timed_end(outcome.meter, engine)
    outcome.attempted += len(turns) + 1
    stats.tokens = sum(engine.providers.call_log.token_totals(log_start))
    return stats


@dataclass
class Queries:
    """One run of a query sequence, by position; ``tokens`` is filled in by
    the caller from the call log once the sequence is done."""

    transport: FakeTransport | None = None
    latency: list[Timed] = field(default_factory=list)
    calls: int = 0
    tokens: int = 0
    digests: list[str] = field(default_factory=list)
    ranked: list = field(default_factory=list)


def ask(engine: MemoryEngine, text: str, pinned: str | None, queries: Queries, outcome: Outcome):
    """One timed query; its ranking digest must equal ``pinned``, if given."""
    log = engine.providers.call_log
    start = len(log)
    ranked, timed = outcome.meter.timed(
        engine.query, text, transport=queries.transport, exponent=MIXED
    )
    queries.latency.append(timed)
    queries.calls += len(log) - start
    digest = ranking_digest(ranked)
    queries.digests.append(digest)
    queries.ranked.append(ranked)
    outcome.attempted += 1
    if pinned is not None:
        outcome.check(digest == pinned, f"ranking of {text!r}: digest {digest} != pinned {pinned}")


def qa_recall(ranked_lists, qa, sources) -> float:
    """Mean evidence recall@10 over the QA items, one ranking per item."""
    return statistics.fmean(
        recall_at_k([sources[c.event_node_id] for c in ranked], item.evidence)
        for ranked, item in zip(ranked_lists, qa, strict=True)
    )


def save_load(snapshot, run: Run, outcome: Outcome, timings: "Timings", copies: int = 1) -> list:
    """Save and load ``snapshot`` a few times, recording the times; checks
    the round trip and returns ``copies`` loaded copies, each its own object.

    Each save and load starts right after a full collection, with no earlier
    loaded copy alive, so whether the collector runs inside it does not
    depend on what ran before it.
    """
    run.out.mkdir(parents=True, exist_ok=True)
    path = run.out / "snapshot.json"
    expected = snapshot_hash(snapshot)
    try:
        for _ in range(SAVE_LOAD_REPEATS):
            loaded = None
            gc.collect()
            _, timed = outcome.meter.timed(store.save, snapshot, path, exponent=MIXED)
            timings.saves.append(timed)
            gc.collect()
            loaded, timed = outcome.meter.timed(store.load, path, exponent=MIXED)
            timings.loads.append(timed)
        timings.file_bytes = path.stat().st_size
        result = [loaded] + [store.load(path) for _ in range(copies - 1)]
    finally:
        path.unlink(missing_ok=True)
    outcome.attempted += 2 * SAVE_LOAD_REPEATS
    outcome.check(snapshot_hash(loaded) == expected, "loaded snapshot differs from the saved one")
    return result


def http_engine_bundle(seed: int, tracer: tracing.Tracer | None):
    transport = FakeTransport(CONFIG, CHAT_DELAY, seed)
    http_config = HttpConfig(
        base_url="http://fake-model.invalid/v1", model="mock", backoff=CHAT_DELAY
    )
    bundle = http_bundle(http_config, CONFIG.embedding_dim, transport=transport)
    # The client's backoff waits on the transport, so it counts as waiting.
    bundle.embedder.client.sleep = transport.sleep
    if tracer is not None:
        tracer.add_bundle(bundle, transport)
    return bundle, transport


def transport_check(snapshot, seed: int, tracer, outcome: Outcome) -> None:
    """The fake transport's own check: over the HTTP client, its relation
    and entailment answers equal the mock providers' for the same inputs."""
    bundle, _ = http_engine_bundle(seed, tracer)
    graph = snapshot.topic_graph
    topics = [graph.nodes[k] for k in sorted(graph.nodes)][-12:]
    relation, entailment = MockRelationScorer(), MockEntailmentChecker()
    for first, second in zip(topics, topics[1:]):
        got = bundle.relation_scorer.score(first.summary, second.summary)
        want = relation.score(first.summary, second.summary)
        outcome.check(got == want, f"transport relation {got} != mock {want}")
    for topic in topics:
        text = snapshot.archive[topic.source_archive_id].nodes[0].text
        got = bundle.entailment.entails(topic.summary, text)
        want = entailment.entails(topic.summary, text)
        outcome.check(got == want, f"transport entailment {got} != mock {want}")
    outcome.attempted += 2 * len(topics) - 1


@dataclass
class Timings:
    """The measurements behind a run's timing metrics."""

    setup: Timed = (0.0, 0.0)
    ingests: list[Ingest] = field(default_factory=list)
    queries: list[Queries] = field(default_factory=list)
    query_floor: int = 0
    query_kind: str = "queries"
    saves: list[Timed] = field(default_factory=list)
    loads: list[Timed] = field(default_factory=list)
    file_bytes: int = 0


def timing_metrics(t: Timings, part: int) -> tuple[dict[str, float], str]:
    """Every timing metric from ``part`` 0 (nominal speed) or 1 (raw) of
    the timings, and a note on how each was taken."""
    n_turns = len(t.ingests[0].observe)
    observe = per_operation([[x[part] for x in r.observe] for r in t.ingests])
    end = statistics.median(r.end[part] for r in t.ingests)
    consolidation = [observe[i] for i in t.ingests[0].committed]
    if t.ingests[0].end_committed:
        consolidation.append(end)
    latency = per_operation([[x[part] for x in r.latency] for r in t.queries])
    observe_pct, observe_tail = tail(observe, n_turns)
    query_pct, query_tail = tail(latency, t.query_floor)
    metrics = {
        "setup_s": t.setup[part],
        "ingest_turns_per_s": n_turns / (sum(observe) + end),
        "observe_p50_ms": ms(statistics.median(observe)),
        "observe_tail_ms": ms(observe_tail),
        "consolidation_p50_ms": ms(statistics.median(consolidation)),
        "query_p50_ms": ms(statistics.median(latency)),
        "query_tail_ms": ms(query_tail),
        "snapshot_save_ms": ms(statistics.median(x[part] for x in t.saves)),
        "snapshot_load_ms": ms(statistics.median(x[part] for x in t.loads)),
    }
    note = (
        f"median of {len(t.ingests)} runs per observe, of {len(t.queries)} per query,"
        f" median of {len(t.saves)} per save and load; observe_tail_ms is p{observe_pct:g} of"
        f" {n_turns} observes; consolidation_p50_ms is over {len(consolidation)} calls that"
        f" committed a theme; query_tail_ms is p{query_pct:g} of {len(latency)} {t.query_kind}"
    )
    return metrics, note


def count_metrics(outcome: Outcome, t: Timings, turns) -> None:
    first, queries = t.ingests[0], t.queries[0]
    m = outcome.metrics
    m["snapshot_bytes_per_input_byte"] = t.file_bytes / sum(len(x.text.encode()) for x in turns)
    m["provider_calls_per_query"] = queries.calls / len(queries.latency)
    m["tokens_per_query"] = queries.tokens / len(queries.latency)
    m["tokens_per_turn"] = first.tokens / len(first.observe)


def quarter_curve(ingest: Ingest) -> dict[str, float]:
    """p50 observe latency, at nominal speed, over the first and the last
    quarter of a run."""
    observe = [x[0] for x in ingest.observe]
    quarter = len(observe) // 4
    first = ms(statistics.median(observe[:quarter]))
    last = ms(statistics.median(observe[-quarter:]))
    return {
        "engine.observe.p50_ms.first_quarter": first,
        "engine.observe.p50_ms.last_quarter": last,
        "engine.observe.p50_ms.quarter_ratio": last / first,
    }


def timed_setup(meter: Meter, build) -> tuple[Timed, object]:
    """Median time of SETUP_REPEATS calls to ``build``, whose time goes
    mostly into a 1x warm-up ingest; returns the last result."""
    times = []
    for _ in range(SETUP_REPEATS):
        result, timed = meter.timed(build, exponent=MIXED)
        times.append(timed)
    return (statistics.median(x[0] for x in times), statistics.median(x[1] for x in times)), result


def traced_if(tracer: tracing.Tracer | None):
    return tracing.instrument(tracer) if tracer is not None else contextlib.nullcontext()


def finish(outcome: Outcome, run: Run, timings: Timings, turns, tracer,
           wall: tuple[float, float], writer: MemoryEngine) -> Outcome:
    """The end-to-end metrics and, in a traced run, the per-layer ones.

    ``wall`` is (traced, untraced) wall time of the same work; ``writer`` is
    the engine whose trigger counts are reported.
    """
    metrics, note = timing_metrics(timings, 0)
    raw, _ = timing_metrics(timings, 1)
    outcome.metrics.update(metrics)
    count_metrics(outcome, timings, turns)
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    outcome.notes.append(note)
    references = outcome.meter.references
    outcome.notes.append(
        f"timings at nominal speed: the reference task took {min(references) * 1e3:.3f}"
        f"–{max(references) * 1e3:.3f} ms (median {statistics.median(references) * 1e3:.3f})"
        f" over {len(references)} timings; raw: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
    )
    curve = quarter_curve(timings.ingests[0])
    outcome.notes.append(
        "observe p50 first quarter {:.3f} ms, last quarter {:.3f} ms, ratio {:.2f}".format(
            *curve.values()
        )
    )
    if tracer is None:
        return outcome
    traced_wall, untraced_wall = wall
    layers, notes = tracing.layer_metrics(tracer, traced_wall)
    layers.update(curve)
    for kind in ("session_end", "interaction_pause", "buffer_overflow"):
        count = sum(v for k, v in writer.trigger_counts.items() if k.value == kind)
        layers[f"engine.triggers.{kind}"] = float(count)
    layers["tracing.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    outcome.layers = layers
    outcome.notes += notes
    outcome.notes.append(
        f"tracing overhead: traced {traced_wall:.3f} s vs untraced {untraced_wall:.3f} s"
        f" for the same work ({layers['tracing.overhead_share']:+.1%})"
    )
    tracer.write(run.out / f"trace-{run.workload}.json.gz")
    return outcome


# ---------------------------------------------------------------------------
# ingest_8x


def ingest_8x(run: Run) -> Outcome:
    """The write path at the largest scale: the fixture repeated ``scale``
    times with renamed sessions, each pass read back by 100 queries on its
    engine; the first pass's snapshot is also saved, loaded, and read back
    on fresh engines over loaded copies."""
    outcome = Outcome()
    pins = run.pins["ingest"][str(run.scale)]

    def setup():
        rows, qa = corpus.load_fixture(run.root)
        warm = MemoryEngine(mock_bundle(CONFIG), CONFIG)
        ingest(warm, corpus.scale_corpus(rows, 1, run.seed), Outcome())
        pool = corpus.query_pool(rows, READBACK_POOL)
        readback = [(item.question, pin) for item, pin in zip(qa, pins["qa"], strict=True)]
        readback += [(q.text, pin) for q, pin in zip(pool, pins["pool"])]
        return corpus.scale_corpus(rows, run.scale, run.seed), qa, readback

    timings = Timings(query_kind="read-back queries")
    timings.setup, (turns, qa, readback) = timed_setup(outcome.meter, setup)
    timings.query_floor = len(readback)
    tracer = tracing.Tracer() if run.trace else None
    traced_wall = untraced_wall = 0.0
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(timings.ingests) == 1
        engine = MemoryEngine(mock_bundle(CONFIG), CONFIG)
        with traced_if(tracer if traced else None):
            if traced:
                tracer.add_bundle(engine.providers)
            before = time.perf_counter()
            stats = ingest(engine, turns, outcome)
            q = Queries()
            log_start = len(engine.providers.call_log)
            for text, pin in readback:
                ask(engine, text, pin, q, outcome)
            q.tokens = sum(engine.providers.call_log.token_totals(log_start))
            wall = time.perf_counter() - before
            check_snapshot(engine.snapshot, turns, pins["snapshot"], outcome)
            # Saving, loading and the read-back over loaded copies happen
            # once per run, after the first pass.
            copies = []
            if traced or not timings.ingests:
                n_copies = 1 if traced else READBACK_COPIES
                copies = save_load(engine.snapshot, run, outcome, timings, n_copies)
            if traced:
                transport_check(engine.snapshot, run.seed, tracer, outcome)
                traced_wall = wall
                break
        timings.ingests.append(stats)
        timings.queries.append(q)
        # The read-back again on fresh engines over loaded copies.
        for copy in copies:
            reader, reread = MemoryEngine(mock_bundle(CONFIG), CONFIG, snapshot=copy), Queries()
            for text, pin in readback:
                ask(reader, text, pin, reread, outcome)
            timings.queries.append(reread)
        untraced_wall = wall
        if tracer is None and len(timings.ingests) >= INGEST_PASSES and (
            run.smoke or time.perf_counter() - started >= run.seconds
        ):
            break

    outcome.metrics["recall_at_10"] = qa_recall(
        timings.queries[0].ranked[: len(qa)], qa, source_ids(engine.snapshot, turns)
    )
    if tracer is None:
        transport_check(engine.snapshot, run.seed, None, outcome)
    graph = engine.snapshot.topic_graph
    outcome.notes.append(
        f"{len(timings.ingests)} untraced pass(es) of {len(turns)} turns;"
        f" {len(graph.nodes)} themes, {len(graph.edges)} topic edges"
    )
    return finish(outcome, run, timings, turns, tracer, (traced_wall, untraced_wall), engine)


# ---------------------------------------------------------------------------
# query_8x


def query_stream(seed: int, pool_size: int, n_qa: int):
    """Seeded (kind, index) pairs: every QA item first, then pool draws with
    one QA item re-asked every QA_EVERY queries."""
    rng = random.Random(seed)
    order = list(range(n_qa))
    rng.shuffle(order)
    for i in order:
        yield "qa", i
    count = 0
    while True:
        count += 1
        if count % QA_EVERY == 0:
            yield "qa", order[(count // QA_EVERY) % n_qa]
        else:
            yield "pool", rng.randrange(pool_size)


def query_8x(run: Run) -> Outcome:
    """The read path with no writes, over snapshots the set-up builds."""
    outcome = Outcome()
    scale = 1 if run.smoke else 8
    pins = run.pins["ingest"][str(scale)]
    tracer = tracing.Tracer() if run.trace else None
    timings = Timings(query_floor=SMOKE_QUERIES if run.smoke else QUERY_FLOOR)

    def prepare():
        rows, qa = corpus.load_fixture(run.root)
        pool = corpus.query_pool(rows, len(pins["pool"]))
        return corpus.scale_corpus(rows, scale, run.seed), qa, pool

    (turns, qa, pool), prepared = outcome.meter.timed(prepare)
    writer = MemoryEngine(mock_bundle(CONFIG), CONFIG)
    with traced_if(tracer):
        if tracer is not None:
            tracer.add_bundle(writer.providers)
        build = ingest(writer, turns, outcome)
        timings.ingests.append(build)
        timings.setup = tuple(
            prepared[i] + sum(x[i] for x in build.observe) + build.end[i] for i in (0, 1)
        )
        check_snapshot(writer.snapshot, turns, pins["snapshot"], outcome)
        copies = save_load(writer.snapshot, run, outcome, timings, copies=QUERY_ROUNDS - 1)
    snapshots = [writer.snapshot, *copies]

    # Each round asks the same list on its own engine over its own snapshot
    # object, so no round can reuse another's work.
    n_rounds = 2 if tracer is not None else QUERY_ROUNDS
    stream = query_stream(run.seed, len(pool), len(qa))
    asked: list[tuple[str, str]] = []
    qa_position: dict[int, int] = {}
    drawn: list[int] = []
    traced_wall = untraced_wall = 0.0
    for r in range(n_rounds):
        traced = tracer is not None and r == 1
        engine = MemoryEngine(mock_bundle(CONFIG), CONFIG, snapshot=snapshots[r])
        q = Queries()
        with traced_if(tracer if traced else None):
            if traced:
                tracer.add_bundle(engine.providers)
            before = time.perf_counter()
            if r == 0:
                while len(asked) < timings.query_floor or (
                    not run.smoke and time.perf_counter() - before < run.seconds / n_rounds
                ):
                    kind, i = next(stream)
                    if kind == "qa":
                        qa_position.setdefault(i, len(asked))
                        asked.append((qa[i].question, pins["qa"][i]))
                    else:
                        drawn.append(i)
                        asked.append((pool[i].text, pins["pool"][i]))
                    ask(engine, *asked[-1], q, outcome)
            else:
                for text, pin in asked:
                    ask(engine, text, pin, q, outcome)
            wall = time.perf_counter() - before
            q.tokens = sum(engine.providers.call_log.token_totals())
            if traced:
                transport_check(engine.snapshot, run.seed, tracer, outcome)
                traced_wall = wall
        if not traced:
            untraced_wall = wall
            timings.queries.append(q)

    first = timings.queries[0]
    outcome.metrics["recall_at_10"] = qa_recall(
        [first.ranked[qa_position[i]] for i in range(len(qa))], qa, source_ids(snapshots[0], turns)
    )
    if tracer is None:
        transport_check(snapshots[0], run.seed, None, outcome)
    distinct = [pool[i] for i in set(drawn)]
    outcome.notes.append(
        f"{len(asked)} queries per round, {len(timings.queries)} untraced round(s);"
        f" {len(asked) - len(drawn)} QA, {len(drawn)} pool, repeated share within a round"
        f" {1 - len(distinct) / len(drawn):.3f}; of the distinct pool queries"
        f" {sum(p.speaker for p in distinct) / len(distinct):.2f} name a speaker,"
        f" {sum(p.temporal for p in distinct) / len(distinct):.2f} are temporal,"
        f" {sum(p.off_topic for p in distinct) / len(distinct):.2f} are off-topic"
    )
    return finish(outcome, run, timings, turns, tracer, (traced_wall, untraced_wall), writer)


# ---------------------------------------------------------------------------
# chat_http


def chat_inputs(root: Path, smoke: bool):
    """The conversation, the QA items and the interleaved questions."""
    rows, qa = corpus.load_fixture(root)
    turns = corpus.conversation(rows)[: SMOKE_CHAT_TURNS if smoke else None]
    pool = corpus.query_pool(rows, len(turns) // CHAT_QUERY_EVERY)
    return turns, qa, pool


@dataclass
class Chat:
    ingest: Ingest
    queries: Queries
    digest: str
    engine: MemoryEngine
    transport: FakeTransport


def chat_unit(turns, qa, pool, seed: int, tracer, outcome: Outcome) -> Chat:
    """One conversation over the HTTP bundle, with a query every few turns
    and the QA items asked at its end.  Its digest covers the final
    snapshot and every ranking."""
    bundle, transport = http_engine_bundle(seed, tracer)
    engine = MemoryEngine(bundle, CONFIG)
    stats = Ingest(transport, MIXED)
    q = Queries(transport)
    log = bundle.call_log
    for n, t in enumerate(turns, 1):
        log_start = len(log)
        stats.timed_observe(outcome.meter, engine, t)
        if len(log) != log_start:
            stats.tokens += sum(log.token_totals(log_start))
        if n % CHAT_QUERY_EVERY == 0:
            ask(engine, pool[n // CHAT_QUERY_EVERY - 1].text, None, q, outcome)
    log_start = len(log)
    stats.timed_end(outcome.meter, engine)
    stats.tokens += sum(log.token_totals(log_start))
    outcome.attempted += len(turns) + 1
    for item in qa:
        ask(engine, item.question, None, q, outcome)
    q.tokens = sum(log.token_totals()) - stats.tokens
    digest = hashlib.sha256(
        (snapshot_hash(engine.snapshot) + "".join(q.digests)).encode()
    ).hexdigest()[:16]
    return Chat(stats, q, digest, engine, transport)


def chat_http(run: Run) -> Outcome:
    """One long conversation against a model behind HTTP: waiting on model
    calls dominates, and writes interleave with reads."""
    outcome = Outcome()
    pinned = run.pins["chat"]["smoke" if run.smoke else "full"]
    timings = Timings(query_kind="interleaved and QA queries")
    def setup():
        inputs = chat_inputs(run.root, run.smoke)
        # Warm-up: the start of the conversation through the mock providers.
        warm = MemoryEngine(mock_bundle(CONFIG), CONFIG)
        ingest(warm, inputs[0][:CHAT_WARMUP_TURNS], Outcome())
        return inputs

    timings.setup, (turns, qa, pool) = timed_setup(outcome.meter, setup)
    tracer = tracing.Tracer() if run.trace else None
    units: list[Chat] = []
    traced_wall = untraced_wall = 0.0
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(units) == 1
        seed = run.seed * 1000 + len(units)
        with traced_if(tracer if traced else None):
            before = time.perf_counter()
            unit = chat_unit(turns, qa, pool, seed, tracer if traced else None, outcome)
            wall = time.perf_counter() - before
            outcome.check(unit.digest == pinned, f"chat digest {unit.digest} != pinned {pinned}")
            check_snapshot(unit.engine.snapshot, turns, None, outcome)
            save_load(unit.engine.snapshot, run, outcome, timings)
            if traced:
                transport_check(unit.engine.snapshot, run.seed, tracer, outcome)
                traced_wall = wall
                break
        units.append(unit)
        timings.ingests.append(unit.ingest)
        timings.queries.append(unit.queries)
        untraced_wall = wall
        if tracer is None and len(units) >= CHAT_CONVERSATIONS and (
            run.smoke or time.perf_counter() - started >= run.seconds
        ):
            break

    first = units[0]
    timings.query_floor = len(first.queries.latency)
    outcome.metrics["recall_at_10"] = qa_recall(
        first.queries.ranked[-len(qa):], qa, source_ids(first.engine.snapshot, turns)
    )
    if tracer is None:
        transport_check(first.engine.snapshot, run.seed, None, outcome)
    t = first.transport
    outcome.notes.append(
        f"{len(units)} untraced conversation(s) of {len(turns)} turns and"
        f" {len(first.queries.latency)} queries; per conversation {t.calls} transport calls,"
        f" {t.wait_s:.2f} s waiting, {t.served_503} 503s and {t.served_unparseable}"
        " unparseable replies served"
    )
    return finish(outcome, run, timings, turns, tracer, (traced_wall, untraced_wall), unit.engine)


WORKLOADS = {"ingest_8x": ingest_8x, "query_8x": query_8x, "chat_http": chat_http}

#: Scale -> number of pool questions pinned there.  ingest_8x reads back
#: READBACK_POOL of them at any scale; query_8x draws from all of the 8x
#: ones, and in smoke mode from the 1x ones.
PINNED_SCALES = {1: READBACK_POOL, 4: READBACK_POOL, 8: corpus.POOL_SIZE}


def compute_pins(root: Path) -> dict:
    """Every pinned output, recomputed with the code under test.

    For a change that is meant to alter the engine's output, made on its
    own.  The seed does not enter any pinned value.
    """
    rows, qa = corpus.load_fixture(root)
    pins: dict = {"ingest": {}, "chat": {}}
    discarded = Outcome()
    for scale, n_pool in PINNED_SCALES.items():
        turns = corpus.scale_corpus(rows, scale, 0)
        engine = MemoryEngine(mock_bundle(CONFIG), CONFIG)
        ingest(engine, turns, discarded)
        qa_queries, pool_queries = Queries(), Queries()
        for item in qa:
            ask(engine, item.question, None, qa_queries, discarded)
        for query in corpus.query_pool(rows, n_pool):
            ask(engine, query.text, None, pool_queries, discarded)
        pins["ingest"][str(scale)] = {
            "snapshot": canonical_hash(engine.snapshot, turns),
            "qa": qa_queries.digests,
            "pool": pool_queries.digests,
        }
    for name, smoke in (("full", False), ("smoke", True)):
        turns, qa, pool = chat_inputs(root, smoke)
        digests = {chat_unit(turns, qa, pool, seed, None, discarded).digest for seed in (0, 1)}
        if len(digests) != 1:
            raise RuntimeError(f"chat digest depends on the transport seed: {digests}")
        pins["chat"][name] = digests.pop()
    return pins
