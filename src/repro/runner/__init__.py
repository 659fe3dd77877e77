"""Sweep execution: parallel fan-out plus content-addressed caching.

The paper's artefacts are grids of independent simulator runs; this
package executes those grids over a process pool with deterministic
per-config seeds and caches results by a content hash of the config and
the package source (see :mod:`repro.runner.sweep` and
:mod:`repro.runner.cache`).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "cache": ["MISS", "ResultCache", "default_cache_dir", "source_digest"],
    "shardpool": ["ShardWorkerError", "ShardWorkerPool"],
    "sweep": ["SweepError", "SweepRunner", "default_jobs", "derive_seed"],
})
