"""Seeded synthetic corpora used by the tests, demos and CI runs.

Three corpora are generated: a two-topic single-session smoke corpus, a
three-session golden corpus with ten QA items, and a 27-session scaling
corpus (about 650 turns).  Construction guarantees two properties the suite
leans on: every utterance of a topic contains that topic's anchor word, and
topic vocabularies are pairwise disjoint outside stopwords, so the keyword
discriminator detects exactly the planted shifts.

Run ``python -m graphmem.fixtures <directory>`` to (re)write the JSONL
files; generation is fully determined by the seeds below.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from .core import Utterance
from .harness import DialogueCorpus, QAItem, write_corpus
from .providers import STOPWORDS, content_words

SMOKE_SEED = 11
GOLDEN_SEED = 7
SCALING_SEED = 13

SPEAKERS = ("ana", "riley", "jordan", "sam")

#: word[0] is the anchor and appears in every utterance of the topic.
TOPIC_POOLS = {
    "gardening": [
        "garden", "tomato", "seedlings", "compost", "greenhouse", "watering",
        "soil", "pruning", "mulch", "harvest", "trellis", "herbs",
    ],
    "interviews": [
        "interview", "resume", "recruiter", "salary", "offer", "panel",
        "hiring", "negotiation", "onboarding", "references", "whiteboard",
    ],
    "astronomy": [
        "telescope", "nebula", "galaxy", "eclipse", "quasar", "comet",
        "observatory", "constellation", "meteor", "lunar", "orbit",
    ],
    "cooking": [
        "kitchen", "risotto", "saucepan", "simmer", "garlic", "seasoning",
        "broth", "skillet", "paprika", "marinade", "stew", "ladle",
    ],
    "pets": [
        "puppy", "adoption", "shelter", "kennel", "leash", "grooming",
        "vaccination", "treats", "collar", "whiskers", "rescue",
    ],
    "finance": [
        "budget", "savings", "mortgage", "dividend", "invoice", "ledger",
        "refinance", "spreadsheet", "expenses", "audit", "banking",
    ],
    "travel": [
        "passport", "itinerary", "airport", "luggage", "visa", "hostel",
        "boarding", "souvenir", "customs", "ferry", "layover",
    ],
    "chess": [
        "chess", "gambit", "endgame", "checkmate", "bishop", "rook",
        "castling", "blunder", "tournament", "grandmaster", "opening",
    ],
    "music": [
        "guitar", "chord", "melody", "rehearsal", "amplifier", "drummer",
        "setlist", "vinyl", "tempo", "bassline", "encore",
    ],
    "hiking": [
        "trail", "summit", "ridge", "blister", "campsite", "elevation",
        "switchback", "waterfall", "boots", "compass", "thermos",
    ],
    "painting": [
        "easel", "canvas", "watercolor", "brushstroke", "palette", "varnish",
        "gallery", "sketchbook", "pigment", "mural", "framing",
    ],
    "robotics": [
        "robot", "servo", "sensor", "gripper", "firmware", "actuator",
        "chassis", "calibration", "battery", "gearbox", "motor",
    ],
}

POOL_NAMES = tuple(TOPIC_POOLS)

_TEMPLATES3 = (
    "the {0} and the {1} will be at the {2}",
    "it is the {0} that we will have with the {1} and the {2}",
    "my {0} and your {1} are with the {2}",
    "was the {0} from the {1} at the {2}",
)
_TEMPLATES2 = (
    "i did have the {0} with my {1}",
    "do you have the {0} for the {1}",
    "the {0} will be with the {1}",
)


def _check_pools() -> None:
    for name, pool in TOPIC_POOLS.items():
        overlap = set(pool) & STOPWORDS
        if overlap:
            raise AssertionError(f"pool {name} contains stopwords {overlap}")
    names = list(TOPIC_POOLS)
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            shared = set(TOPIC_POOLS[first]) & set(TOPIC_POOLS[second])
            if shared:
                raise AssertionError(f"pools {first}/{second} share {shared}")


_check_pools()


def _topic_text(rng: random.Random, topic: str) -> str:
    pool = TOPIC_POOLS[topic]
    anchor = pool[0]
    if rng.random() < 0.5:
        extras = rng.sample(pool[1:], 2)
        template = _TEMPLATES3[rng.randrange(len(_TEMPLATES3))]
        return template.format(anchor, *extras)
    extras = rng.sample(pool[1:], 1)
    template = _TEMPLATES2[rng.randrange(len(_TEMPLATES2))]
    return template.format(anchor, *extras)


def _timestamp(day: int, minute: int) -> str:
    return f"2026-01-{5 + day:02d}T09:{minute:02d}:00"


def _session_turns(
    rng: random.Random,
    session_id: str,
    day: int,
    topics: list[str],
    turns_per_topic: int,
    speakers: tuple[str, ...],
    facts: dict[int, tuple[str, str]] | None = None,
) -> list[Utterance]:
    """One session's turns; ``facts`` overrides (index -> (speaker, text))."""
    facts = facts or {}
    turns = []
    index = 0
    for topic in topics:
        for _ in range(turns_per_topic):
            speaker = speakers[index % len(speakers)]
            text = _topic_text(rng, topic)
            if index in facts:
                speaker, text = facts[index]
            anchor = TOPIC_POOLS[topic][0]
            if anchor not in content_words(text):
                raise AssertionError(f"fact at {session_id}:{index} drops anchor {anchor}")
            turns.append(Utterance(session_id, speaker, text, _timestamp(day, index), index))
            index += 1
    return turns


def make_smoke_corpus(seed: int = SMOKE_SEED) -> DialogueCorpus:
    """Single session, two topics, planted shift between turns 3 and 4."""
    rng = random.Random(seed)
    facts = {
        1: ("ana", "the puppy adoption at the shelter was for the spotted collar rescue"),
        6: ("riley", "the interview panel did have the whiteboard offer for the recruiter"),
    }
    turns = _session_turns(
        rng, "s1", 0, ["pets", "interviews"], 4, ("ana", "riley"), facts
    )
    qa = (
        QAItem(
            question="which collar was at the puppy adoption shelter",
            gold_answer="the spotted collar",
            category="single_hop",
            evidence_turn_ids=frozenset({"s1:1"}),
        ),
        QAItem(
            question="what did the interview panel have for the recruiter",
            gold_answer="the whiteboard offer",
            category="single_hop",
            evidence_turn_ids=frozenset({"s1:6"}),
        ),
    )
    return DialogueCorpus(tuple(turns), qa)


_GOLDEN_FACTS = {
    "s1": {
        2: ("ana", "the heirloom tomato seedlings are in the garden greenhouse with the compost"),
        6: ("sam", "the trellis herbs and the mulch harvest are with the garden soil"),
        12: ("riley", "the paprika marinade will simmer in the kitchen saucepan with the garlic broth"),
    },
    "s2": {
        3: ("sam", "the quasar and the nebula are from the telescope observatory at the eclipse"),
        6: ("jordan", "the meteor eclipse was on monday 2025 at the lunar telescope observatory"),
        11: ("riley", "the mortgage refinance will be in the banking ledger from the budget audit"),
    },
    "s3": {
        2: ("jordan", "the passport visa was from the airport customs at the itinerary layover"),
        4: ("ana", "the passport ferry boarding was last friday at the customs with the luggage"),
        10: ("sam", "the chess gambit endgame was at the tournament with the grandmaster"),
        13: ("riley", "the chess rook castling was a blunder at the bishop opening"),
    },
}


def make_golden_corpus(seed: int = GOLDEN_SEED) -> DialogueCorpus:
    """Three sessions, two topics each, ten QA items over planted facts."""
    rng = random.Random(seed)
    plan = [
        ("s1", ["gardening", "cooking"], ("ana", "riley")),
        ("s2", ["astronomy", "finance"], ("sam", "jordan")),
        ("s3", ["travel", "chess"], SPEAKERS),
    ]
    turns: list[Utterance] = []
    for day, (session_id, topics, speakers) in enumerate(plan):
        turns.extend(
            _session_turns(
                rng, session_id, day, topics, 8, speakers, _GOLDEN_FACTS[session_id]
            )
        )
    qa = (
        QAItem(
            "which tomato seedlings are in the garden greenhouse",
            "the heirloom seedlings",
            "single_hop",
            frozenset({"s1:2"}),
        ),
        QAItem(
            "what will simmer in the kitchen saucepan",
            "the paprika marinade with the garlic broth",
            "single_hop",
            frozenset({"s1:12"}),
        ),
        QAItem(
            "was the quasar from the telescope observatory",
            "yes the quasar and the nebula",
            "single_hop",
            frozenset({"s2:3"}),
        ),
        QAItem(
            "was the mortgage refinance in the ledger and the passport visa at the customs",
            "yes both",
            "multi_hop",
            frozenset({"s2:11", "s3:2"}),
        ),
        QAItem(
            "are the heirloom seedlings in the greenhouse and the paprika marinade in the saucepan",
            "yes both",
            "multi_hop",
            frozenset({"s1:2", "s1:12"}),
        ),
        QAItem(
            "was the telescope quasar at the chess tournament gambit",
            "no they were separate",
            "multi_hop",
            frozenset({"s2:3", "s3:10"}),
        ),
        QAItem(
            "when was the passport ferry boarding at the customs",
            "last friday",
            "temporal",
            frozenset({"s3:4"}),
        ),
        QAItem(
            "when was the meteor eclipse at the lunar observatory",
            "on monday 2025",
            "temporal",
            frozenset({"s2:6"}),
        ),
        QAItem(
            "what did riley say about the chess rook castling",
            "it was a blunder at the bishop opening",
            "open_domain",
            frozenset({"s3:13"}),
        ),
        QAItem(
            "what is with the garden soil from the mulch harvest",
            "the trellis herbs",
            "open_domain",
            frozenset({"s1:6"}),
        ),
    )
    return DialogueCorpus(tuple(turns), qa)


#: The scaling rotation cycles the first ten pools, so each theme recurs
#: ten to eleven times: enough recurrences that the anchor seeds plus their
#: one-hop theme neighbors span a whole topic cluster without pulling in
#: unrelated clusters.
SCALING_POOLS = POOL_NAMES[:10]


def make_scaling_corpus(seed: int = SCALING_SEED) -> DialogueCorpus:
    """27 sessions, four topics each (10 pools cycled), 648 turns total."""
    rng = random.Random(seed)
    turns: list[Utterance] = []
    # Topic layout repeats every five sessions (4 topics over 10 pools), so
    # fact indices below are pinned to the segment that actually holds them.
    fact_plan: dict[str, dict[int, tuple[str, str]]] = {
        "s01": {2: ("ana", "the garden trellis compost was with the heirloom tomato seedlings")},
        "s04": {
            3: ("riley", "the telescope quasar orbit was from the comet observatory"),
            8: ("jordan", "the kitchen paprika stew will simmer with the garlic ladle"),
        },
        "s12": {7: ("sam", "the budget refinance audit was in the banking spreadsheet ledger")},
        "s17": {14: ("ana", "the passport ferry layover was last friday at the customs")},
        "s22": {20: ("riley", "the chess grandmaster gambit was a checkmate blunder")},
        "s25": {
            14: ("jordan", "the guitar bassline tempo was at the vinyl rehearsal encore"),
            19: ("sam", "the trail summit compass was at the waterfall campsite ridge"),
        },
    }
    for day in range(27):
        session_id = f"s{day + 1:02d}"
        topics = [SCALING_POOLS[(4 * day + j) % len(SCALING_POOLS)] for j in range(4)]
        speakers = (SPEAKERS[day % 4], SPEAKERS[(day + 1) % 4])
        turns.extend(
            _session_turns(
                rng,
                session_id,
                day,
                topics,
                6,
                speakers,
                fact_plan.get(session_id),
            )
        )
    qa = (
        QAItem(
            "which seedlings were with the garden trellis compost",
            "the heirloom tomato seedlings",
            "single_hop",
            frozenset({"s01:2"}),
        ),
        QAItem(
            "was the telescope quasar orbit from the comet observatory",
            "yes it was",
            "single_hop",
            frozenset({"s04:3"}),
        ),
        QAItem(
            "what will simmer with the garlic ladle in the kitchen",
            "the paprika stew",
            "single_hop",
            frozenset({"s04:8"}),
        ),
        QAItem(
            "was the budget refinance audit in the spreadsheet and the chess gambit a blunder",
            "yes both",
            "multi_hop",
            frozenset({"s12:7", "s22:20"}),
        ),
        QAItem(
            "when was the passport ferry layover at the customs",
            "last friday",
            "temporal",
            frozenset({"s17:14"}),
        ),
        QAItem(
            "what did jordan say about the guitar bassline tempo",
            "it was at the vinyl rehearsal encore",
            "open_domain",
            frozenset({"s25:14"}),
        ),
        QAItem(
            "where was the trail summit compass",
            "at the waterfall campsite ridge",
            "open_domain",
            frozenset({"s25:19"}),
        ),
        QAItem(
            "was the garden compost with the seedlings and the kitchen stew with the ladle",
            "yes both",
            "multi_hop",
            frozenset({"s01:2", "s04:8"}),
        ),
    )
    return DialogueCorpus(tuple(turns), qa)


FIXTURES = {
    "smoke": make_smoke_corpus,
    "golden": make_golden_corpus,
    "scaling": make_scaling_corpus,
}


def write_fixture_files(directory: str | Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, maker in FIXTURES.items():
        corpus = maker()
        turns_path = directory / f"{name}_turns.jsonl"
        qa_path = directory / f"{name}_qa.jsonl"
        write_corpus(corpus, turns_path, qa_path)
        written.extend([turns_path, qa_path])
    return written


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    for path in write_fixture_files(target):
        print(path)
