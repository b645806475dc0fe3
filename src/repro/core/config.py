"""Configuration for :class:`repro.core.embedder.VisionEmbedder`.

Defaults follow the paper's evaluation setup: a space budget of 1.7·L·n bits
(§VI-A3), a repair budget of 50 steps (§IV-B "Update Failure"), automatic
reconstruction below 0.6 space efficiency, and the dynamic MaxDepth schedule
1 → 2 → 3 at space efficiencies 0.2 and 0.4 (§IV-B "Dynamic Depth").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass(frozen=True)
class DepthPolicy:
    """Maps current space efficiency (n/m) to a GetCost lookahead depth.

    ``thresholds[i]`` is the inclusive upper bound of the efficiency band in
    which ``depths[i]`` applies; ``depths[-1]`` applies above the last
    threshold. The paper's schedule is ``(0.2, 0.4) -> (1, 2, 3)``.

    A fixed depth d is expressed as ``DepthPolicy(fixed=d)`` and is used by
    the ablation benchmarks.
    """

    thresholds: Sequence[float] = (0.2, 0.4)
    depths: Sequence[int] = (1, 2, 3)
    fixed: int | None = None

    def __post_init__(self) -> None:
        if self.fixed is None and len(self.depths) != len(self.thresholds) + 1:
            raise ValueError("need exactly one more depth than thresholds")
        if self.fixed is not None and self.fixed < 1:
            raise ValueError("fixed depth must be >= 1")

    def depth_for(self, space_efficiency: float) -> int:
        """The MaxDepth to use at the given space efficiency."""
        if self.fixed is not None:
            return self.fixed
        for threshold, depth in zip(self.thresholds, self.depths):
            if space_efficiency < threshold:
                return depth
        return self.depths[-1]


@dataclass(frozen=True)
class EmbedderConfig:
    """Tunables for VisionEmbedder.

    Attributes
    ----------
    space_factor:
        m/n ratio: number of value-table cells provisioned per expected key.
        Paper default 1.7 (Theorem 1 proves convergence needs > 1.756 at
        MaxDepth=1; deeper vision pushes the achievable ratio down to the
        measured 1.58).
    strategy:
        ``"vision"`` for the GetCost lookahead of §IV-B, ``"simple"`` for the
        random-kick strategy of §IV-A.
    depth_policy:
        Dynamic MaxDepth schedule (vision strategy only).
    max_repair_steps:
        Update-failure budget: repair recursions per update before the
        update is declared failed (paper: 50).
    max_search_attempts:
        Randomised retries of a stuck repair walk before declaring an
        update failure — the paper's "search backtrack feature" (§IV-B).
        Attempt 0 is deterministic; retries use randomised tie-breaking,
        ε-greedy exploration, and a 3× step budget. 1 disables retries.
    reconstruct_efficiency_limit:
        At or above this space efficiency a failed update raises
        :class:`~repro.core.errors.SpaceExhausted` instead of reconstructing
        (paper: 0.6).
    max_reconstruct_attempts:
        Reseed-and-rebuild attempts before giving up entirely.
    auto_reconstruct:
        If False, update failures always surface as exceptions (used by the
        failure-frequency experiments to count without retrying forever).
    """

    space_factor: float = 1.7
    strategy: str = "vision"
    depth_policy: DepthPolicy = field(default_factory=DepthPolicy)
    max_repair_steps: int = 50
    max_search_attempts: int = 8
    reconstruct_efficiency_limit: float = 0.6
    max_reconstruct_attempts: int = 20
    auto_reconstruct: bool = True

    def __post_init__(self) -> None:
        if self.space_factor <= 1.0:
            raise ValueError("space_factor must exceed 1.0 (need m > n)")
        if self.strategy not in ("vision", "simple"):
            raise ValueError("strategy must be 'vision' or 'simple'")
        if self.max_repair_steps < 1:
            raise ValueError("max_repair_steps must be >= 1")
        if self.max_search_attempts < 1:
            raise ValueError("max_search_attempts must be >= 1")
        if not 0.0 < self.reconstruct_efficiency_limit <= 1.0:
            raise ValueError("reconstruct_efficiency_limit must be in (0, 1]")
