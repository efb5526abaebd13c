"""Memory-system substrate: address space, page placement, cluster caches,
full-bit-vector directory, and the pluggable coherence-protocol backends.

Cache and directory state is slab-allocated (flat ``array('q')`` columns,
packed-int directory entries); the object-per-line reference
implementations live on in :mod:`repro.memory.refmodel` for the property
test suite.

Protocol registry
-----------------
Which backend a run uses is a :class:`~repro.core.config.MachineConfig`
axis (``config.protocol``), realised here: :data:`PROTOCOL_REGISTRY` maps
every name in :data:`repro.core.config.PROTOCOLS` to a memory-system
factory, and :func:`make_memory_system` is the one construction seam the
execution layers (``apps.base``, ``runtime.session``) go through.
Constructing a concrete class from its module (e.g.
:class:`repro.memory.snoopy.SnoopyClusterMemorySystem`) still works for
probes and tests, but bypasses protocol selection.
"""

from typing import TYPE_CHECKING, Callable

from ..core.config import PROTOCOLS, MachineConfig
from .address import AddressSpace, Region, line_of, page_of
from .allocation import PageAllocator
from .cache import (EXCLUSIVE, SHARED, Eviction, FullyAssociativeCache,
                    SetAssociativeCache, make_cache)
from .coherence import (READ_HIT, READ_MERGE, READ_MISS,
                        CoherentMemorySystem)
from .directory import (DIR_EXCLUSIVE, DIR_SHARED, NOT_CACHED, SHARER_SHIFT,
                        Directory)
from .dls import DLSMemorySystem
from .snoopy import SnoopyClusterMemorySystem as _SnoopyClusterMemorySystem

__all__ = [
    "AddressSpace", "Region", "line_of", "page_of",
    "PageAllocator",
    "SHARED", "EXCLUSIVE", "Eviction",
    "FullyAssociativeCache", "SetAssociativeCache", "make_cache",
    "NOT_CACHED", "DIR_SHARED", "DIR_EXCLUSIVE", "SHARER_SHIFT", "Directory",
    "READ_HIT", "READ_MERGE", "READ_MISS", "CoherentMemorySystem",
    "DLSMemorySystem",
    "PROTOCOL_REGISTRY", "make_memory_system", "register_protocol",
]

if TYPE_CHECKING:  # pragma: no cover
    MemoryFactory = Callable[[MachineConfig, PageAllocator | None], object]

#: protocol name -> ``factory(config, allocator) -> memory system``.
#: Covers every name in :data:`repro.core.config.PROTOCOLS`; the config
#: layer validates names, this table realises them.
PROTOCOL_REGISTRY: "dict[str, MemoryFactory]" = {
    "directory": CoherentMemorySystem,
    "snoopy": _SnoopyClusterMemorySystem,
    "dls": DLSMemorySystem,
}

assert set(PROTOCOL_REGISTRY) == set(PROTOCOLS), \
    "protocol registry out of sync with repro.core.config.PROTOCOLS"


def register_protocol(name: str, factory: "MemoryFactory") -> None:
    """Install (or replace) a protocol factory under ``name``.

    The name must already be declared in
    :data:`repro.core.config.PROTOCOLS` — configs validate against that
    tuple, so a factory registered under an undeclared name could never
    be selected.  The hook exists for experiments that substitute an
    instrumented or variant backend for a declared protocol.
    """
    if name not in PROTOCOLS:
        raise ValueError(f"protocol {name!r} is not declared in "
                         f"repro.core.config.PROTOCOLS {PROTOCOLS}")
    PROTOCOL_REGISTRY[name] = factory


def make_memory_system(config: MachineConfig,
                       allocator: PageAllocator | None = None):
    """Build the memory system ``config.protocol`` selects.

    The single construction seam every execution layer uses: the default
    ``"directory"`` protocol returns the historical
    :class:`CoherentMemorySystem` (bit-identical results), any other
    name returns its registered backend.  All backends share the hot
    duck interface (``read``/``write``/``cluster_of``/``counters``/
    ``aggregate_counters``/``network_stats``).
    """
    factory = PROTOCOL_REGISTRY.get(config.protocol)
    if factory is None:  # pragma: no cover - config validation precedes
        raise ValueError(f"no memory-system factory registered for "
                         f"protocol {config.protocol!r}")
    return factory(config, allocator)

