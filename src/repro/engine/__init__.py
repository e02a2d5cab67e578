"""High-performance engine layer: packed graphs, batched exploration rounds.

Every pipeline in the reproduction — Theorem 1 measure checking, the §6
fairness baseline, and Theorem 3 synthesis — funnels through explicit-state
exploration and per-transition checks.  This package keeps those hot paths
index-native:

* :mod:`repro.engine.packed` — transitions as flat int arrays (CSR
  adjacency), command labels interned to bit positions;
* :mod:`repro.engine.analysis` — SCC decomposition and per-region
  enabled/executed command sets, computed once and cached on the graph;
* :mod:`repro.engine.parallel` — a chunked, deterministic process-pool map
  with a serial fallback, a **persistent worker pool** reused across calls,
  and **adaptive dispatch** (small work demotes to serial, so ``--jobs N``
  never loses to the serial path).  Its one caller in the library is the
  columnar verification plane of ``check_measure``, which publishes its
  columns through :mod:`repro.engine.shm`; exploration and synthesis
  always run in-process;
* :mod:`repro.engine.shard` — the value-plane expand step of the one
  exploration loop: batched guard kernels per BFS round, plus
  :func:`~repro.engine.shard.graph_digest`, the canonical graph digest;
* :mod:`repro.engine.graphstore` — an optional cross-run content-addressed
  on-disk store of explored graphs: columns as SHA-256-addressed binary
  chunks under small per-``(program, bounds)`` manifests, mmap-backed
  zero-copy warm loads, incremental re-exploration that replays unchanged
  commands of an edited program from the stored columns (bit-identical to
  a cold run), and LRU eviction with chunk reference counting (CLI
  ``--cache-dir`` / ``--cache-max-mb``);
* :mod:`repro.engine.reference` — the pre-engine algorithms, preserved
  verbatim as the "before" baseline for benchmarks and as an independent
  oracle for equivalence tests.

The engine never changes verdicts: every fast path is required (and tested)
to produce results bit-identical to the straightforward implementation.
"""

from repro.engine.packed import CommandTable, PackedGraph
from repro.engine.parallel import (
    PARALLEL_WORK_CUTOFF,
    chunk_items,
    effective_jobs,
    get_pool,
    parallel_map,
    resolve_jobs,
    shutdown_pool,
)
from repro.engine.analysis import GraphAnalyses, tarjan_scc_csr
from repro.engine.graphstore import (
    evict_cache,
    exploration_cache_key,
    explore_with_cache,
    load_cached_graph,
    store_graph,
)
from repro.engine.shard import graph_digest

__all__ = [
    "CommandTable",
    "GraphAnalyses",
    "PackedGraph",
    "PARALLEL_WORK_CUTOFF",
    "chunk_items",
    "effective_jobs",
    "evict_cache",
    "exploration_cache_key",
    "explore_with_cache",
    "get_pool",
    "graph_digest",
    "load_cached_graph",
    "parallel_map",
    "resolve_jobs",
    "shutdown_pool",
    "store_graph",
    "tarjan_scc_csr",
]
