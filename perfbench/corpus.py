"""Benchmark inputs: the scaling fixture, scaled copies of it, and queries.

The fixture files are read with a plain JSON-lines reader, so the inputs do
not depend on the code under test.  Every generator here is a pure function
of its arguments: the same seed gives the same inputs.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

FIXTURE_TURNS = Path("fixtures") / "scaling_turns.jsonl"
FIXTURE_QA = Path("fixtures") / "scaling_qa.jsonl"

#: The query pool is fixed; the workload seed only chooses from it, so every
#: pool entry can carry a pinned ranking digest.
POOL_SEED = 20260417
POOL_SIZE = 4096

_WORD = re.compile(r"[a-z0-9]+")
_FUNCTION_WORDS = frozenset(
    """a an the and or but of to in on at for with from by as is are was were
    be will did do does have had it its that this my your we you i""".split()
)
#: Topic words for queries that miss every theme; anything that also occurs
#: in the corpus is dropped at generation time.
OFF_TOPIC = (
    "easel", "canvas", "watercolor", "palette", "varnish", "mural", "robot",
    "servo", "gripper", "firmware", "actuator", "chassis", "glacier",
    "volcano", "harpoon", "origami", "violin", "saxophone", "tapestry",
)
TEMPORAL_OPENINGS = (
    "when was", "what happened last week with", "yesterday we talked about",
    "what did we decide on monday about", "how long ago was",
)
PLAIN_OPENINGS = (
    "what about", "tell me about", "remind me of", "what do we know about",
    "anything on",
)


@dataclass(frozen=True)
class Turn:
    """One utterance as the engine receives it.

    ``canonical_session`` names the session independently of the seed, so a
    snapshot built from any seed maps back to one pinned hash.
    """

    session_id: str
    speaker: str
    text: str
    timestamp: str | None
    turn_index: int | None
    canonical_session: str
    source_id: str  # "<fixture session>:<fixture turn index>"


@dataclass(frozen=True)
class QAItem:
    question: str
    evidence: frozenset[str]


@dataclass(frozen=True)
class PoolQuery:
    text: str
    speaker: bool
    temporal: bool
    off_topic: bool


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def load_fixture(root: Path) -> tuple[list[dict], list[QAItem]]:
    rows = read_jsonl(root / FIXTURE_TURNS)
    qa = [
        QAItem(row["question"], frozenset(row["evidence_turn_ids"]))
        for row in read_jsonl(root / FIXTURE_QA)
    ]
    return rows, qa


def scale_corpus(rows: list[dict], scale: int, seed: int) -> list[Turn]:
    """The fixture repeated ``scale`` times, each copy's sessions renamed.

    The seed picks a distinct four-hex-digit tag per copy.  Tags have fixed
    width, so the snapshot size does not depend on the seed.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    tags = random.Random(seed).sample(range(16**4), scale)
    return [
        Turn(
            session_id=f"{tags[copy]:04x}-{row['session_id']}",
            speaker=row["speaker"],
            text=row["text"],
            timestamp=row.get("timestamp"),
            turn_index=row["turn_index"],
            canonical_session=f"c{copy:03d}-{row['session_id']}",
            source_id=f"{row['session_id']}:{row['turn_index']}",
        )
        for copy in range(scale)
        for row in rows
    ]


def conversation(rows: list[dict], session_id: str = "chat") -> list[Turn]:
    """The fixture as one long chat: one session, no timestamps or indices."""
    return [
        Turn(
            session_id=session_id,
            speaker=row["speaker"],
            text=row["text"],
            timestamp=None,
            turn_index=None,
            canonical_session=session_id,
            source_id=f"{row['session_id']}:{row['turn_index']}",
        )
        for row in rows
    ]


def _content(text: str) -> list[str]:
    return [w for w in _WORD.findall(text.lower()) if w not in _FUNCTION_WORDS]


def query_pool(rows: list[dict], size: int = POOL_SIZE, seed: int = POOL_SEED) -> list[PoolQuery]:
    """Generated questions varying the properties retrieval depends on.

    Length runs from two to about sixteen words.  About a third name a
    speaker (role boost), about a third carry a temporal word (time boost),
    and about one in eight uses only words absent from the corpus, so every
    theme is a poor anchor.  The rest draw their topic words from one or two
    fixture turns.
    """
    rng = random.Random(seed)
    vocabulary = {w for row in rows for w in _content(row["text"])}
    off_topic = [w for w in OFF_TOPIC if w not in vocabulary]
    speakers = sorted({row["speaker"] for row in rows})
    pool = []
    for _ in range(size):
        off = rng.random() < 0.125
        if off:
            topic = rng.sample(off_topic, rng.randint(1, 3))
        else:
            sources = rng.sample(rows, rng.choice((1, 1, 2)))
            topic = []
            for row in sources:
                words = _content(row["text"])
                topic.extend(rng.sample(words, min(len(words), rng.randint(1, 4))))
        temporal = rng.random() < 0.33
        speaker = rng.random() < 0.33
        opening = rng.choice(TEMPORAL_OPENINGS if temporal else PLAIN_OPENINGS)
        parts = [opening]
        if speaker:
            parts.append(f"what {rng.choice(speakers)} said on")
        parts.append(" and ".join(f"the {w}" for w in topic))
        if rng.random() < 0.25:
            parts = parts[-1:]  # bare keywords, the shortest form
            temporal = speaker = False
        pool.append(PoolQuery(" ".join(parts), speaker, temporal, off))
    return pool
