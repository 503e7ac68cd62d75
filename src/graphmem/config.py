"""Engine configuration and the token estimator.

Defaults follow the reference operating point: retrieval size 10, candidate
pool 5, buffer limit 2048 tokens, boost factors 1.4 / 1.4 / 1.2.  Boost
factors outside [1.0, 2.0] are legal but trigger a warning because behaviour
there is untested.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, fields

BOOST_WARN_RANGE = (1.0, 2.0)


def estimate_tokens(text: str) -> int:
    """Whitespace-delimited token count used everywhere a budget is enforced."""
    return len(text.split())


@dataclass(frozen=True)
class EngineConfig:
    buffer_token_limit: int = 2048
    k_cand: int = 5
    tau: float = 0.5
    retrieval_k: int = 10
    beta_time: float = 1.4
    beta_role: float = 1.4
    beta_conf: float = 1.2
    embedding_dim: int = 64
    heuristic_cutoff: float = 0.35
    pause_gap_minutes: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            integral = f.type in (int, "int")
            if isinstance(value, bool) or not isinstance(
                value, int if integral else (int, float)
            ):
                expected = "an integer" if integral else "a number"
                raise ValueError(f"{f.name} must be {expected}, got {value!r}")
        if self.buffer_token_limit < 1:
            raise ValueError("buffer_token_limit must be >= 1")
        if self.k_cand < 1:
            raise ValueError("k_cand must be >= 1")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.retrieval_k < 1:
            raise ValueError("retrieval_k must be >= 1")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        for name in ("beta_time", "beta_role", "beta_conf"):
            value = getattr(self, name)
            if value < 1.0:
                raise ValueError(f"{name} must be >= 1")
            lo, hi = BOOST_WARN_RANGE
            if not lo <= value <= hi:
                warnings.warn(
                    f"{name}={value} is outside the validated range "
                    f"[{lo}, {hi}]",
                    stacklevel=2,
                )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)
