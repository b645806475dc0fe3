"""VisionEmbedder core: the paper's primary contribution.

The public entry point is :class:`repro.core.embedder.VisionEmbedder`; the
other modules are its substrates (value table, assistant table, update
strategies) and the thread-safe wrapper from §IV-B of the paper.
"""

from repro.core.config import EmbedderConfig, DepthPolicy
from repro.core.errors import (
    ReproError,
    UpdateFailure,
    SpaceExhausted,
    ReconstructionFailed,
    KeyNotFound,
    DuplicateKey,
    SharedPlanesError,
    CorruptSnapshotError,
)
from repro.core.value_table import ValueTable
from repro.core.shared_planes import (
    SharedPlanes,
    SharedPlanesSpec,
    SharedTableSpec,
    share_table,
    unshare_table,
)
from repro.core.assistant_table import AssistantTable
from repro.core.embedder import VisionEmbedder
from repro.core.concurrent import ConcurrentVisionEmbedder
from repro.core.sharded import ShardedEmbedder
from repro.core.persist import (
    load_embedder,
    load_sharded,
    save_embedder,
    save_sharded,
)
from repro.core.replication import (
    DataPlaneReplica,
    PublishingVisionEmbedder,
)

__all__ = [
    "EmbedderConfig",
    "DepthPolicy",
    "ReproError",
    "UpdateFailure",
    "SpaceExhausted",
    "ReconstructionFailed",
    "KeyNotFound",
    "DuplicateKey",
    "SharedPlanesError",
    "CorruptSnapshotError",
    "ValueTable",
    "SharedPlanes",
    "SharedPlanesSpec",
    "SharedTableSpec",
    "share_table",
    "unshare_table",
    "AssistantTable",
    "VisionEmbedder",
    "ConcurrentVisionEmbedder",
    "ShardedEmbedder",
    "save_embedder",
    "load_embedder",
    "save_sharded",
    "load_sharded",
    "PublishingVisionEmbedder",
    "DataPlaneReplica",
]
