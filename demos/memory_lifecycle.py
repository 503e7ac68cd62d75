"""
Memory lifecycle walkthrough
============================

Feed a two-topic conversation through the engine, watch the buffer absorb
turns without touching long-term memory, see the session-end check
consolidate the finished topic, then persist and reload the snapshot.

Run with: python demos/memory_lifecycle.py
"""

from graphmem import EngineConfig, MemoryEngine, load, mock_bundle, save, snapshot_hash
from graphmem.core import stable_layer_hash, topic_raw

config = EngineConfig()
engine = MemoryEngine(mock_bundle(config), config)

# A short chat: four turns about adopting a puppy, then the speakers switch
# to a job interview.  Every utterance lands in the episodic buffer; the
# topic layer stays byte-identical the whole time.
conversation = [
    ("ana", "the puppy at the shelter needs a collar and a leash"),
    ("riley", "our puppy adoption paperwork is ready at the shelter"),
    ("ana", "grooming and vaccination for the puppy are booked"),
    ("riley", "the puppy treats are in the kennel already"),
    ("ana", "my interview panel sent the salary offer yesterday"),
    ("riley", "rehearse the interview questions and the negotiation"),
]

layer_before = stable_layer_hash(engine.snapshot)
for speaker, text in conversation:
    engine.observe("day-one", speaker, text)
print("turns buffered:", len(engine.snapshot.buffer))
print("topic layer untouched while buffering:",
      stable_layer_hash(engine.snapshot) == layer_before)

# The session ends.  Only now is the boundary discriminator consulted; the
# keyword mock sees the puppy -> interview shift and consolidates the first
# segment.  The still-active interview topic stays buffered.
reports = engine.end_session()
for report in reports:
    print(f"consolidated {report.new_topic_id} from {report.archive_id} "
          f"({report.accepted_edges} edges, pool of {len(report.candidate_pool)})")

snapshot = engine.snapshot
print("topics:", list(snapshot.topic_graph.nodes))
print("still buffered:", [n.text for n in snapshot.buffer][:2], "...")

# The consolidated theme keeps both granularities: an abstract summary for
# anchoring and the verbatim episode for drill-down.
topic = next(iter(snapshot.topic_graph.nodes.values()))
print("summary:", topic.summary)
print("keywords:", topic.keywords)
print("raw holds the full episode:", topic_raw(snapshot, topic.id).count("\n"), "lines")

# Snapshots serialize canonically: equal state means equal bytes, and the
# file round-trips to the same hash.
save(snapshot, "/tmp/lifecycle.snapshot.json")
reloaded = load("/tmp/lifecycle.snapshot.json")
print("round-trip hash preserved:",
      snapshot_hash(reloaded) == snapshot_hash(snapshot))

# The engine picks up where it left off after a reload.
resumed = MemoryEngine(mock_bundle(config), snapshot=reloaded)
resumed.observe("day-two", "ana", "the interview went well and the offer is signed")
print("resumed and buffered:", len(resumed.snapshot.buffer), "turns")
