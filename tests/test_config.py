import pytest

from graphmem.config import EngineConfig, estimate_tokens
from graphmem.core import new_snapshot, snapshot_hash


def test_defaults_pin_the_operating_point():
    cfg = EngineConfig()
    assert cfg.retrieval_k == 10
    assert cfg.beta_time == 1.4
    assert cfg.beta_role == 1.4
    assert cfg.beta_conf == 1.2
    assert cfg.k_cand == 5
    assert cfg.buffer_token_limit == 2048
    assert cfg.tau == 0.5


@pytest.mark.parametrize(
    "field,value",
    [
        ("tau", 0.0),
        ("tau", 1.0),
        ("k_cand", 0),
        ("retrieval_k", 0),
        ("buffer_token_limit", 0),
        ("beta_time", 0.9),
        ("beta_role", 0.0),
        ("embedding_dim", 0),
        ("pause_gap_minutes", -1),
        # wrong types: each would load and break a later slice, range or seed
        ("k_cand", 2.5),
        ("retrieval_k", 2.5),
        ("buffer_token_limit", "2048"),
        ("seed", "x"),
        ("seed", True),
        ("pause_gap_minutes", 30.0),
        ("tau", "0.5"),
        ("beta_time", None),
        ("heuristic_cutoff", False),
    ],
)
def test_invalid_values_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        EngineConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        ("beta_time", float("nan")),
        ("beta_conf", float("inf")),
        ("heuristic_cutoff", float("inf")),
        ("heuristic_cutoff", float("-inf")),
        ("heuristic_cutoff", float("nan")),
        pytest.param("beta_time", 10**400, id="beta_time-int_beyond_float"),
    ],
)
def test_non_finite_values_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        EngineConfig(**{field: value})


def test_negative_pause_gap_refused_and_zero_accepted():
    with pytest.raises(ValueError, match="pause_gap_minutes must be >= 0"):
        EngineConfig(pause_gap_minutes=-5)
    assert EngineConfig(pause_gap_minutes=0).pause_gap_minutes == 0


def test_int_accepted_for_float_fields():
    assert EngineConfig(beta_time=2).beta_time == 2


def test_int_for_a_float_field_is_stored_as_float():
    config = EngineConfig(beta_time=2, beta_role=1, heuristic_cutoff=0)
    assert all(type(v) is float for v in (config.beta_time, config.beta_role, config.heuristic_cutoff))
    assert snapshot_hash(new_snapshot(config)) == snapshot_hash(
        new_snapshot(EngineConfig(beta_time=2.0, beta_role=1.0, heuristic_cutoff=0.0))
    )


def test_boost_outside_validated_range_warns():
    with pytest.warns(UserWarning, match="beta_time"):
        EngineConfig(beta_time=2.5)


def test_round_trip():
    cfg = EngineConfig(tau=0.3, seed=9)
    assert EngineConfig.from_dict(cfg.to_dict()) == cfg


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown"):
        EngineConfig.from_dict({"tau": 0.5, "mystery": 1})


def test_token_estimator_is_whitespace_split():
    assert estimate_tokens("") == 0
    assert estimate_tokens("one") == 1
    assert estimate_tokens("  spaced   out words ") == 3
