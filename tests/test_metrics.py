from graphmem.metrics import recall_at_k


class TestRecall:
    def test_single_evidence_hit(self):
        assert recall_at_k(["t1", "t7", "t9"], {"t7"}) == 1.0

    def test_partial_hit(self):
        assert recall_at_k(["t1", "t7"], {"t7", "t8"}) == 0.5

    def test_empty_evidence(self):
        assert recall_at_k(["t1"], set()) == 0.0

