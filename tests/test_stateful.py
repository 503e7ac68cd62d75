"""A hypothesis state machine over ``MemoryEngine`` with the mock providers.

Rules observe turns in four sessions, end sessions, request checks, query,
round-trip the snapshot through save and load, continuing on the loaded
copy, restart (the same with fresh providers, as a new process would), and
fork: a second engine, with the plain mocks and the default segmenter,
continues from the current snapshot, queries and saves its own, so the
fork shares archives with the main chain.  A small buffer budget makes
overflows fire.

Three kinds of draw reach where the engine meets what it does not control:

- the segmenter: a rule installs one that answers drawn verdicts in turn,
  empty ones and splits past the buffer among them, or puts the default
  back;
- the providers: each run starts with no faults or with a fault plan over
  all six mocks (:func:`drawn_bundle`), and a rule draws a new plan
  mid-run, so faults also meet states grown without them.  A call
  whose input text falls in a drawn quarter of all texts raises
  ``ProviderTransportError`` or ``ProviderParseError``, or answers a
  malformed reply.  The plan is a function of the text alone, so the
  reference, which asks once per position, and the engine, which asks
  once per distinct text, meet the same faults.  Each plan comes with a
  draw of whether the relevance scorer has ``score_many``;
- the input: a turn may carry a field of the wrong type, a negative turn
  index or blank text, and a query a text or ``k`` the engine refuses.

Every engine call runs under one escape check, :func:`attempt`: only a
``GraphMemError`` or ``OSError`` may leave a step, or the ``ValueError`` of
a turn or query that :func:`refused_turn` or :func:`refused_query` says is
refused, which must leave the snapshot object as it was.

Every step is checked against a plain model (the list of accepted turns
and the number of committed consolidations) and against the scan-only
reference engine in ``reference.py``:

- each query's full ranking, down to the bits of every score, or the
  type of the error it raises;
- each fired check, from its verdict alone (:func:`check_verdict`): the
  segments it cuts, each committed as the reference commits it until the
  first the reference aborts, after which the rest stays buffered.  An
  overflow verdict with no split takes the whole buffer; a split past the
  buffer raises ``StateError`` before any provider call; an error of the
  segmenter is the error of the step.  Each commit adds one entailment
  call per distinct text of its segment, and one relation call per
  distinct summary of its candidate pool;
- each saved file, which must be byte for byte the file the reference
  writer writes, and which the reference loader must read back as the
  snapshot saved;
- each value the engine carries from snapshot to snapshot, against its
  scan (:meth:`EngineMachine.carried_values_match_a_scan`).  A new carried
  value gets one line there.
"""

import logging
import math
import os
import tempfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from graphmem import consolidation
from graphmem.boundary import BoundaryVerdict, TriggerKind
from graphmem.config import EngineConfig, estimate_tokens
from graphmem.core import (
    LIVE_BUFFER_ID,
    EventNode,
    MemorySnapshot,
    next_archive_id,
    next_event_id,
    next_topic_id,
    snapshot_hash,
    stable_layer_hash,
)
from graphmem.engine import MemoryEngine
from graphmem.errors import GraphMemError, ProviderParseError, ProviderTransportError, StateError
from graphmem.providers import ProviderBundle, SummaryResult, mock_bundle
from graphmem.retrieval import Query
from graphmem.store import load, save, validate_snapshot

from reference import (
    highest_turns,
    next_ids,
    reference_consolidate,
    reference_file,
    reference_load,
    reference_neighbours,
    reference_retrieve,
    stored_nodes,
)
from test_provider_replies import BAD_RELATIONS, DIM, HUGE, SHORT, THEME, Reply

WORDS = ("garden", "compost", "puppy", "leash", "ferry", "passport", "yesterday", "the")

texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join) | st.text(
    min_size=1, max_size=20
).filter(str.strip)
# "Garden" is named by any query with the word, which boosts its turns.
speakers = st.sampled_from(("ana", "riley", "Garden")) | st.text(max_size=5)
# Minutes after 09:00, so gaps both under and over the 30-minute pause
# occur, and stamps outside the grammar or with an offset, which never do.
timestamps = (
    st.none()
    | st.integers(0, 600).map(lambda m: f"2026-01-05T{9 + m // 60:02d}:{m % 60:02d}:00")
    | st.sampled_from(("", "not a time", "2026-01-05T09:00:00Z", "2026-01-05T11:00:00+02:00"))
)
turns = st.fixed_dictionaries(
    {
        "session_id": st.sampled_from(("s1", "s2", "s3", "")),
        "speaker": speakers,
        "text": texts,
        "timestamp": timestamps,
        "turn_index": st.none() | st.integers(-1, 40),
    }
)
#: Values for one field of a turn or query: each is refused in some field
#: and accepted in another.
ODD_VALUES = (None, 0, -1, 7, 2.0, True, "", "   ", "3", b"garden")

# ---------------------------------------------------------------------------
# refusals and the escape check


def refused_turn(session_id, speaker, text, timestamp, turn_index) -> bool:
    """Whether ``observe`` refuses the turn: a field of the wrong type, a
    negative turn index, or blank text."""
    return not (
        type(session_id) is str
        and type(speaker) is str
        and type(text) is str
        and text.strip()
        and (timestamp is None or type(timestamp) is str)
        and (turn_index is None or type(turn_index) is int and turn_index >= 0)
    )


def refused_query(text, time_sensitive, k) -> bool:
    """Whether ``query`` refuses: text that is not a non-blank ``str``, a
    ``time_sensitive`` that is neither ``None`` nor a bool, or a ``k`` that
    is neither ``None`` nor an int of at least 1."""
    return not (
        type(text) is str
        and text.strip()
        and (time_sensitive is None or type(time_sensitive) is bool)
        and (k is None or type(k) is int and k >= 1)
    )


def attempt(call, refused: bool):
    """``(result, None)`` for a call that returns, ``(None, error)`` for
    an error that may leave a step: a ``GraphMemError`` or ``OSError``, or
    a ``ValueError`` if the input is ``refused``, which it must then be.
    Anything else fails the machine."""
    try:
        result = call()
    except (GraphMemError, OSError) as exc:
        assert not refused, f"{exc!r} for a refused input"
        return None, exc
    except ValueError as exc:
        assert refused, f"{exc!r} escaped for an accepted input"
        return None, exc
    assert not refused, "a refused input was accepted"
    return result, None


# ---------------------------------------------------------------------------
# drawn providers


#: Replies other than the mock's, by provider: malformed ones, from the
#: named cases of ``tests/test_provider_replies.py`` among them, and a few
#: well-formed ones the mocks never give.
REPLIES = {
    "embedder": (None, [math.nan] * DIM, SHORT, HUGE, [0.0] * DIM, [1.0] + [0.0] * (DIM - 1)),
    "discriminator": ([0.5], None, (0,), "0", [True], {0: 1}, [-1, 0, 99]),
    "summarizer": (
        None,
        {"summary": THEME, "keywords": ("pets",)},
        SummaryResult((), None),
        SummaryResult(("pets",), 42),
        SummaryResult((1, 2), THEME),
        SummaryResult(None, THEME),
        SummaryResult(("pets",), "   "),
        SummaryResult(("pets",), THEME),
    ),
    "relation_scorer": (
        *BAD_RELATIONS,
        ("semantic", math.nan),
        ("semantic", -0.5),
        ("semantic", math.inf),
        ("sideways", 0.9),
        ("support", 1.7),
        ("causal", 0.9),
        ("coreference", 1),
    ),
    "relevance_scorer": (
        None,
        "high",
        [0.5],
        True,
        10**400,
        math.nan,
        math.inf,
        -math.inf,
        -0.5,
        1.5,
        np.float64(0.5),
        1,
    ),
    "entailment": (None, "yes", 1, np.True_, np.False_, False),
}
#: How a batch of relevance replies can break as a whole.
BATCH_SHAPES = ("raises", "short", "long", "tuple")
ERRORS = (ProviderTransportError, ProviderParseError)
#: What a call of each provider may get in place of the mock's reply.
FAULTS = {
    **{name: st.sampled_from((*ERRORS, *map(Reply, replies))) for name, replies in REPLIES.items()},
    "relevance_batch": st.sampled_from(BATCH_SHAPES),
}
#: For each provider, up to three faults: each a quarter of all texts, by
#: CRC-32, and what a call with a text there gets.
fault_plans = st.fixed_dictionaries(
    {
        name: st.lists(st.tuples(st.integers(0, 3), fault), max_size=3)
        for name, fault in FAULTS.items()
    }
)


def drawn_fault(plan, provider, text):
    """The first of ``provider``'s drawn faults whose quarter holds ``text``."""
    quarter = zlib.crc32(text.encode()) % 4
    return next((fault for drawn, fault in plan.get(provider, ()) if drawn == quarter), None)


def answered(fault, reply):
    """The mock's ``reply``, or in its place the drawn fault: an error
    class is raised, a :class:`Reply` answered."""
    if fault is None:
        return reply
    if isinstance(fault, Reply):
        return fault.value
    raise fault(f"drawn {fault.__name__}")


def drawn_bundle(config, plan, batch):
    """The mock bundle with ``plan``'s faults: each call is still made, and
    recorded, by the mock; then the fault drawn for the call's input text,
    if any, replaces the reply.  The relevance scorer has ``score_many``
    only if ``batch``; its items fault by candidate text, and the batch as
    a whole by the query (``plan["relevance_batch"]``)."""
    mock = mock_bundle(config)

    def faulty(provider, ask, text):
        return lambda *args: answered(drawn_fault(plan, provider, text(*args)), ask(*args))

    relevance = SimpleNamespace(
        score=faulty("relevance_scorer", mock.relevance_scorer.score, lambda query, text: text)
    )
    if batch:

        def score_many(query, texts):
            items = []
            for text, reply in zip(texts, mock.relevance_scorer.score_many(query, texts)):
                fault = drawn_fault(plan, "relevance_scorer", text)
                items.append(fault(f"drawn {fault.__name__}") if fault in ERRORS else answered(fault, reply))
            shape = drawn_fault(plan, "relevance_batch", query)
            if shape == "raises":
                raise ProviderTransportError("drawn batch failure")
            return {"short": items[:-1], "long": items + [0.5], "tuple": tuple(items)}.get(shape, items)

        relevance.score_many = score_many
    return ProviderBundle(
        embedder=SimpleNamespace(
            dim=mock.embedder.dim, embed=faulty("embedder", mock.embedder.embed, lambda text: text)
        ),
        discriminator=SimpleNamespace(
            detect=faulty(
                "discriminator",
                mock.discriminator.detect,
                lambda utterances: "\n".join(u.text for u in utterances),
            )
        ),
        summarizer=SimpleNamespace(
            summarize=faulty("summarizer", mock.summarizer.summarize, lambda content: content)
        ),
        relation_scorer=SimpleNamespace(
            score=faulty("relation_scorer", mock.relation_scorer.score, lambda a, b: f"{a}\n{b}")
        ),
        relevance_scorer=relevance,
        entailment=SimpleNamespace(
            entails=faulty("entailment", mock.entailment.entails, lambda a, b: f"{a}\n{b}")
        ),
        call_log=mock.call_log,
    )


# ---------------------------------------------------------------------------
# checks


def stored(node: EventNode) -> tuple:
    return (node.session_id, node.speaker, node.text, node.timestamp, node.turn_index)


def next_turn(turns: list[tuple], session: str) -> int:
    """The turn index the model derives: one past the session's highest."""
    return 1 + max((t[4] for t in turns if t[0] == session), default=-1)


def check_file(snapshot: MemorySnapshot, path: str) -> None:
    """Save ``snapshot``: the file it keeps is the one the reference writer
    writes, the engine's loader and the reference loader both read it back
    as ``snapshot``, so no carried value is saved or compared, and a save
    of the loaded copy writes the file again byte for byte.  It is hashed
    first, so a hash that kept anything would show in the file."""
    digest = snapshot_hash(snapshot)
    save(snapshot, path)
    assert snapshot.saved_bytes == reference_file(snapshot)
    loaded = load(path)
    assert loaded == reference_load(path) == snapshot
    assert snapshot_hash(loaded) == digest
    save(loaded, path)
    assert loaded.saved_bytes == snapshot.saved_bytes


def shown(ranking) -> list[tuple]:
    """Every field of a ranking, each float by its ``repr``, which tells
    its bits, the sign of a zero, and a numpy float from a float."""
    return [
        (c.rank, c.event_node_id, c.source_archive_id, c.anchor_topic_id, c.indicators)
        + (repr(c.p_sem), repr(c.score), c.degraded)
        for c in ranking
    ]


@contextmanager
def warnings_of(name: str):
    """The messages logger ``name`` warns inside the block."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger(name)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def check_query(engine: MemoryEngine, providers, text, time_sensitive, k) -> None:
    """The engine answers as the reference does, over oracle providers
    from ``providers(config)``: the same ranking or the same error type,
    the same warnings, and the same calls in the same order, which asks
    the relevance scorer once per distinct candidate text.  Either way the
    snapshot stays as it was, and a refused query calls nothing."""
    before = engine.snapshot
    log = engine.providers.call_log
    start = len(log)
    refused = refused_query(text, time_sensitive, k)
    with warnings_of("graphmem.retrieval") as warned:
        ranked, error = attempt(lambda: engine.query(Query(text, time_sensitive), k=k), refused)
    assert engine.snapshot is before
    if refused:
        assert len(log) == start and warned == []
        return
    oracle = providers(before.config)
    with warnings_of("graphmem.retrieval") as expected_warnings:
        try:
            query = Query(text, time_sensitive)
            expected = shown(reference_retrieve(before, query, oracle, k or before.config.retrieval_k))
        except GraphMemError as exc:
            expected = type(exc)
    assert (shown(ranked) if error is None else type(error)) == expected
    assert warned == expected_warnings
    assert log.entries()[start:] == oracle.call_log.entries()


@dataclass
class Check:
    """One fired boundary check: its trigger, the snapshot it was asked
    about, the segmenter's verdict or error, the call log's length once it
    answered, and the consolidations committed after it, each as
    ``(parent, segment length, report, result)``."""

    trigger: TriggerKind
    snapshot: MemorySnapshot
    verdict: BoundaryVerdict | None = None
    error: GraphMemError | None = None
    calls: int = 0
    commits: list = field(default_factory=list)


class Recorder:
    """An engine's segmenter: answers ``verdicts`` in turn, or the default
    segmenter's verdict for ``None``, and records each check."""

    def __init__(self, engine: MemoryEngine, verdicts=None):
        self.engine, self.verdicts, self.asked = engine, verdicts, 0
        self.checks: list[Check] = []
        engine.segmenter = self

    def __call__(self, snapshot, trigger):
        check = Check(trigger, snapshot)
        self.checks.append(check)
        if self.verdicts is None:
            try:
                check.verdict = self.engine.detect_boundary(snapshot, trigger)
            except GraphMemError as exc:
                check.error = exc
                raise
        else:
            check.verdict = self.verdicts[self.asked % len(self.verdicts)]
            self.asked += 1
        check.calls = len(self.engine.providers.call_log)
        return check.verdict


@contextmanager
def committing(recorder: Recorder):
    """Inside the block, each committed consolidation is recorded on the
    recorder's latest check."""
    original = consolidation.consolidate_segment

    def recorded(snapshot, segment, providers, forced=False):
        report, result = original(snapshot, segment, providers, forced)
        recorder.checks[-1].commits.append((snapshot, len(segment), report, result))
        return report, result

    consolidation.consolidate_segment = recorded
    try:
        yield
    finally:
        consolidation.consolidate_segment = original


def check_verdict(check: Check, providers):
    """What a fired check consumes, from its verdict alone: each segment
    up to the last split, or for an overflow verdict with no split the
    whole buffer; each is committed as the reference commits it, over
    oracle providers from ``providers(config)``, until the first the
    reference aborts, and the rest stays buffered.  Returns the error the
    step must raise: the segmenter's own, or ``StateError`` for a split
    past the buffer, which commits nothing."""
    if check.error is not None:
        assert check.commits == []
        return check.error
    size = len(check.snapshot.buffer)
    splits, forced = check.verdict.split_indices, check.verdict.forced
    if check.trigger is TriggerKind.BUFFER_OVERFLOW and not splits:
        splits, forced = (size - 1,), True
    if splits and splits[-1] >= size:
        assert check.commits == []
        return StateError
    state, commits = check.snapshot, iter(check.commits)
    for length in (end - start for start, end in zip((-1,) + splits, splits)):
        expected = reference_consolidate(state, state.buffer[:length], providers(state.config))
        if expected is None:
            break
        parent, committed_length, report, result = next(commits, (None,) * 4)
        assert report is not None, "the engine aborted a consolidation the reference commits"
        fields, snapshot = expected
        assert parent is state and committed_length == length and report.forced is forced
        assert {name: getattr(report, name) for name in fields} == fields
        assert result == snapshot
        assert stable_layer_hash(result) == stable_layer_hash(snapshot)
        state = result
    assert next(commits, None) is None, "the engine committed a consolidation the reference aborts"
    return None


def check_calls(commits: list[tuple], calls) -> None:
    """``calls`` hold each commit's scorer calls in order: the entailment
    checker once per distinct text of its segment and the relation scorer
    once per distinct summary of its candidate pool, each in
    first-occurrence order (the mock records the tokens of each pair it is
    asked)."""
    entailed, related = [], []
    for parent, length, report, result in commits:
        summary = estimate_tokens(result.topic_graph.nodes[report.new_topic_id].summary)
        pool = [parent.topic_graph.nodes[t].summary for t, _ in report.candidate_pool]
        segment = parent.buffer[:length]
        entailed += [summary + estimate_tokens(t) for t in dict.fromkeys(n.text for n in segment)]
        related += [summary + estimate_tokens(other) for other in dict.fromkeys(pool)]
    assert [r.input_tokens for r in calls if r.provider == "entailment"] == entailed
    assert [r.input_tokens for r in calls if r.provider == "relation_scorer"] == related


def run_step(recorder: Recorder, call, providers, refused=False):
    """Run an engine call that may fire checks, under the escape check,
    and check each fired check, the calls its commits add, and the one
    warning for each candidate a commit skips.  Returns the error the call
    raised, or ``None``."""
    log = recorder.engine.providers.call_log
    start, before = len(log), recorder.engine.snapshot
    recorder.checks = []
    with committing(recorder), warnings_of("graphmem.consolidation") as warned:
        reports, error = attempt(call, refused)
    if refused:
        assert recorder.checks == [] and recorder.engine.snapshot is before
        return error
    expected = None
    for check in recorder.checks:
        assert expected is None, "a check fired after one that raised"
        expected = check_verdict(check, providers)
    commits = [commit for check in recorder.checks for commit in check.commits]
    if expected is StateError:
        assert type(error) is StateError and len(log) == recorder.checks[-1].calls
    else:
        assert error is expected
    if error is None:
        assert reports == [report for _, _, report, _ in commits]
    check_calls(commits, log.entries()[start:])
    skips = [m.split(":")[0] for m in warned if m.startswith("relation scoring failed")]
    skipped = [t for _, _, report, _ in commits for t in report.skipped_candidates]
    assert skips == [f"relation scoring failed for {t}" for t in skipped]
    return error


#: Boosts within the range the config accepts without a warning.
BETAS = (1.0, 1.2, 1.4, 2.0)
verdicts = st.builds(
    BoundaryVerdict,
    st.lists(st.integers(0, 5), unique=True, max_size=3).map(sorted).map(tuple),
    st.booleans(),
)


class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.config = EngineConfig(buffer_token_limit=8)
        self.turns: list[tuple] = []
        self.committed = 0
        self.checked: MemorySnapshot | None = None
        self.directory = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.directory.name, "memory.json")
        self.fork_path = os.path.join(self.directory.name, "fork.json")

    def teardown(self):
        self.directory.cleanup()

    def providers(self, config):
        """A fresh bundle with this run's drawn faults."""
        return drawn_bundle(config, self.plan, self.batch)

    def start(self, bundle, snapshot=None):
        self.engine = MemoryEngine(bundle, self.config, snapshot)
        self.recorder = Recorder(self.engine, self.verdicts)

    @initialize(
        plan=st.just({}) | fault_plans,
        batch=st.booleans(),
        betas=st.lists(st.sampled_from(BETAS), min_size=3, max_size=3),
    )
    def draw_providers(self, plan, batch, betas):
        self.plan, self.batch, self.verdicts = plan, batch, None
        self.config = replace(self.config, **dict(zip(("beta_time", "beta_conf", "beta_role"), betas)))
        self.start(self.providers(self.config))

    @rule(plan=fault_plans, batch=st.booleans())
    def redraw_faults(self, plan, batch):
        # The engine continues on its snapshot with other faulty providers.
        self.plan, self.batch = plan, batch
        self.start(self.providers(self.config), self.engine.snapshot)

    def consolidating(self, call, refused=False):
        error = run_step(self.recorder, call, self.providers, refused)
        self.committed += sum(len(check.commits) for check in self.recorder.checks)
        return error

    def observe_turn(self, turn):
        expected = turn["turn_index"]
        refused = refused_turn(**turn)
        if not refused and expected is None:
            expected = next_turn(self.turns, turn["session_id"])
        error = self.consolidating(lambda: self.engine.observe(**turn), refused)
        # A failed check has stored the turn only if it fired after the
        # append, which only the overflow check does.
        checks = self.recorder.checks
        if not refused and (
            error is None or checks[-1].trigger is TriggerKind.BUFFER_OVERFLOW
        ):
            fields = ("session_id", "speaker", "text", "timestamp")
            self.turns.append((*map(turn.get, fields), expected))

    @rule(batch=st.lists(turns, min_size=1, max_size=4))
    def observe(self, batch):
        # Several turns a step, so that runs grow deep enough for overflows
        # and edges to mix; each turn is checked as its own step.
        for turn in batch:
            self.observe_turn(turn)

    @rule(
        turn=turns,
        name=st.sampled_from(("session_id", "speaker", "text", "timestamp", "turn_index")),
        value=st.sampled_from(ODD_VALUES),
    )
    def observe_an_odd_field(self, turn, name, value):
        self.observe_turn({**turn, name: value})

    def fire(self, call):
        # An aborted consolidation, or a check that raises, keeps the last
        # committed snapshot and its buffer.
        before = self.engine.snapshot
        self.consolidating(call)
        commits = [commit for check in self.recorder.checks for commit in check.commits]
        assert self.engine.snapshot is (commits[-1][3] if commits else before)

    @rule()
    def end_session(self):
        self.fire(self.engine.end_session)

    @rule()
    def check_now(self):
        self.fire(self.engine.check_now)

    @rule(verdicts=st.none() | st.lists(verdicts, min_size=1, max_size=4))
    def segment_by(self, verdicts):
        self.verdicts = verdicts
        self.recorder = Recorder(self.engine, verdicts)

    @rule(text=texts, time_sensitive=st.none() | st.booleans(), k=st.none() | st.integers(1, 5))
    def query(self, text, time_sensitive, k):
        check_query(self.engine, self.providers, text, time_sensitive, k)

    @rule(
        text=texts,
        name=st.sampled_from(("text", "time_sensitive", "k")),
        value=st.sampled_from(ODD_VALUES),
    )
    def query_an_odd_value(self, text, name, value):
        query = {"text": text, "time_sensitive": None, "k": None, name: value}
        check_query(self.engine, self.providers, **query)

    @rule(
        turns=st.lists(
            st.tuples(st.sampled_from(("s1", "s4")), st.sampled_from(("ana", "riley")), texts),
            min_size=1,
            max_size=8,
        ),
        k=st.integers(1, 5),
    )
    def fork(self, turns, k):
        # The fork runs on the main snapshot, consolidates, queries the
        # archives it shares with the main chain, and saves before the main
        # engine saves again.
        parent = self.engine.snapshot
        fork = MemoryEngine(mock_bundle(parent.config), snapshot=parent)
        recorder = Recorder(fork)
        model = list(self.turns)
        for session, speaker, text in turns:
            assert run_step(recorder, lambda: fork.observe(session, speaker, text), mock_bundle) is None
            model.append((session, speaker, text, None, next_turn(model, session)))
        assert run_step(recorder, fork.end_session, mock_bundle) is None
        assert [stored(n) for n in stored_nodes(fork.snapshot)] == model
        check_query(fork, mock_bundle, turns[0][2], None, k)
        validate_snapshot(fork.snapshot)
        check_file(fork.snapshot, self.fork_path)
        assert self.engine.snapshot is parent

    @rule()
    def continue_on_loaded_copy(self):
        save(self.engine.snapshot, self.path)
        self.start(self.engine.providers, load(self.path))

    @rule()
    def restart(self):
        # As a new process would: nothing but the file carries over, so the
        # loaded snapshot's derived values are built afresh on first use.
        save(self.engine.snapshot, self.path)
        loaded = load(self.path)
        assert loaded.turn_max is None
        assert loaded.saved_bytes is None
        assert "adjacency" not in vars(loaded.topic_graph)
        assert all(g.candidates is None for g in loaded.archive.values())
        self.start(self.providers(loaded.config), loaded)

    @invariant()
    def each_accepted_turn_stored_once_in_id_order(self):
        nodes = stored_nodes(self.engine.snapshot)
        assert [stored(n) for n in nodes] == self.turns
        ids = [n.id for n in nodes]
        assert ids == sorted(set(ids))

    @invariant()
    def each_id_is_its_creation_position(self):
        snapshot = self.engine.snapshot
        kinds = (
            ("e", [n.id for n in stored_nodes(snapshot)]),
            ("t", list(snapshot.topic_graph.nodes)),
            ("a", list(snapshot.archive)),
        )
        for prefix, ids in kinds:
            assert ids == [f"{prefix}{n:06d}" for n in range(1, len(ids) + 1)]

    @invariant()
    def one_theme_per_committed_consolidation(self):
        assert len(self.engine.snapshot.topic_graph.nodes) == self.committed

    @invariant()
    def the_clock_ticks_once_per_turn_and_twice_per_consolidation(self):
        assert self.engine.snapshot.logical_clock == len(self.turns) + 2 * self.committed

    @invariant()
    def theme_k_consolidates_archive_k(self):
        snapshot = self.engine.snapshot
        themes = len(snapshot.topic_graph.nodes)
        assert len(snapshot.archive) == themes
        assert snapshot.cross_index == {f"t{k:06d}": f"a{k:06d}" for k in range(1, themes + 1)}

    @invariant()
    def carried_values_match_a_scan(self):
        # One line per value the engine carries, checked whenever built.
        snapshot = self.engine.snapshot
        ids = next_ids(snapshot)
        allocated = (next_event_id(snapshot), next_topic_id(snapshot), next_archive_id(snapshot))
        assert allocated == (ids["e"], ids["t"], ids["a"])
        if snapshot.turn_max is not None:
            assert snapshot.turn_max == highest_turns(snapshot)
        buffer = snapshot.active_event_graph
        if "token_total" in vars(buffer):
            assert buffer.token_total == sum(n.token_count for n in buffer.nodes)
        themes = snapshot.topic_graph
        if "adjacency" in vars(themes):
            scanned = {t: ends for t in themes.nodes if (ends := reference_neighbours(themes, t))}
            assert themes.adjacency == scanned
        if themes.vector_index is not None:
            order = sorted(themes.nodes)
            rows = np.array([themes.nodes[t].embedding for t in order], dtype=float)
            assert themes.vector_index.ids == tuple(order)
            assert themes.vector_index.matrix.tobytes() == rows.tobytes()
        for graph_id, graph in [*snapshot.archive.items(), (LIVE_BUFFER_ID, buffer)]:
            if graph.candidates is not None:
                anchor = LIVE_BUFFER_ID if graph_id == LIVE_BUFFER_ID else "t" + graph_id[1:]
                built = [(c.node, c.source_archive_id, c.anchor_topic_id) for c in graph.candidates]
                assert built == [(n, graph_id, anchor) for n in graph.nodes]
        # The bytes a save keeps are checked by check_file.

    @invariant()
    def the_saved_file_reads_back_as_the_snapshot(self):
        # A step that kept the snapshot, such as a query, would only write
        # the same file again.
        snapshot = self.engine.snapshot
        if snapshot is not self.checked:
            validate_snapshot(snapshot)
            check_file(snapshot, self.path)
            self.checked = snapshot


# Long enough runs for overflows, pauses, faults and reloads to mix.
EngineMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None
)
TestEngineMachine = EngineMachine.TestCase
