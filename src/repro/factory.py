"""Factory building any compared table by its paper name.

The benchmark harness, examples, and cross-algorithm property tests use
this single entry point so every experiment sweeps the same five algorithms
with the paper's default parameters (§VI-A3):

============== =========================================
name           default fast-space budget per L-bit value
============== =========================================
vision         1.7·L   (VisionEmbedder)
vision-mt      1.7·L   (thread-safe VisionEmbedder)
vision-sharded 1.7·L·shard_slack (hash-partitioned shards)
bloomier       1.23·L·(n+100)/n
othello        2.33·L  (1.33 + 1.0 arrays)
color          2.2·L
ludo           3.76 + 1.05·L
============== =========================================

``vision-sharded`` and ``vision-mt`` are buildable by name but excluded
from ``TABLE_NAMES`` (the paper's five-way comparison set).
"""

from __future__ import annotations

from typing import Optional

from repro.baselines import Bloomier, ColoringEmbedder, Ludo, Othello
from repro.core import (
    ConcurrentVisionEmbedder,
    EmbedderConfig,
    ShardedEmbedder,
    VisionEmbedder,
)
from repro.table import ValueOnlyTable

TABLE_NAMES = ("vision", "bloomier", "othello", "color", "ludo")


def _vision_config(kwargs: dict, space_factor: Optional[float]) -> EmbedderConfig:
    """Assemble the EmbedderConfig for the vision-family tables.

    ``space_factor`` rides as a first-class factory kwarg (the space-cost
    experiments sweep it); anything else configurable goes through
    ``config_kwargs`` or a pre-built ``config``.
    """
    config_kwargs = dict(kwargs.pop("config_kwargs", {}))
    if space_factor is not None:
        config_kwargs["space_factor"] = space_factor
    config = kwargs.pop("config", None)
    if config is None:
        config = EmbedderConfig(**config_kwargs)
    return config


def make_table(
    name: str,
    capacity: int,
    value_bits: int,
    seed: int = 1,
    space_factor: Optional[float] = None,
    **kwargs,
) -> ValueOnlyTable:
    """Build a value-only table by algorithm name.

    ``space_factor`` overrides the algorithm's default fast-space budget
    (cells per expected key); the space-cost experiments sweep it.
    Additional keyword arguments pass through to the table's constructor.
    """
    if name == "vision":
        config = _vision_config(kwargs, space_factor)
        return VisionEmbedder(capacity, value_bits, config=config, seed=seed, **kwargs)
    if name == "vision-mt":
        config = _vision_config(kwargs, space_factor)
        return ConcurrentVisionEmbedder(
            capacity, value_bits, config=config, seed=seed, **kwargs
        )
    if name == "vision-sharded":
        config = _vision_config(kwargs, space_factor)
        return ShardedEmbedder(
            capacity, value_bits, config=config, seed=seed, **kwargs
        )
    if name == "bloomier":
        if space_factor is not None:
            kwargs["space_factor"] = space_factor
        return Bloomier(capacity, value_bits, seed=seed, **kwargs)
    if name == "othello":
        if space_factor is not None:
            # Keep the original 1.33 : 1.0 split while scaling the total.
            kwargs["ma_factor"] = space_factor * 1.33 / 2.33
            kwargs["mb_factor"] = space_factor * 1.00 / 2.33
        return Othello(capacity, value_bits, seed=seed, **kwargs)
    if name == "color":
        if space_factor is not None:
            kwargs["space_factor"] = space_factor
        return ColoringEmbedder(capacity, value_bits, seed=seed, **kwargs)
    if name == "ludo":
        if space_factor is not None:
            # For Ludo the sweepable knob is slot occupancy.
            kwargs["bucket_load"] = min(1.0, 1.052 / space_factor)
        return Ludo(capacity, value_bits, seed=seed, **kwargs)
    raise ValueError(f"unknown table name {name!r}; known: {TABLE_NAMES}")
