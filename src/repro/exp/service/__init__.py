"""Sharded sweep service: queue, worker shards, and an async front end.

``collect_profiles`` runs a multi-worker sweep through this package:
the work is split across *independent processes* coordinated only
through the shared ``.repro-cache/`` artifact store:

- :mod:`repro.exp.service.queue` — a persistent work queue of
  kernel × config shards under ``<cache_dir>/service/queue/``, with
  atomic-rename claims, pid-stamped lease records, and work stealing
  of stale leases (crashed or expired workers);
- :mod:`repro.exp.service.worker` — a worker-shard loop that drains
  the queue through the existing retry/timeout/manifest machinery of
  :mod:`repro.exp.runner`, writing a per-worker run manifest that
  ``repro obs show`` merges into one run view;
- :mod:`repro.exp.service.sweep` — the coordinator behind
  ``collect_profiles``: enqueue the pending kernels, spawn N worker
  processes, reap them as they exit, enforce ``task_timeout``, drain
  leftovers inline, and read the profiles back from the cache;
- :mod:`repro.exp.service.server` — the ``repro serve`` asyncio front
  end: profile/figure queries answered from the cache in the hot path
  (never touching the VM), misses enqueued as shards for the workers.

Results never travel through the queue: workers publish profiles into
the content-addressed cache and the queue only tracks shard *state*
(pending → leased → done/failed), so any record can be lost or stolen
and the system re-converges by recomputing into a cache hit.
"""

from repro.util.lazy import lazy_exports

# Imported on first use: the server loads without the worker's runner.
__getattr__, __all__ = lazy_exports(__name__, {
    "repro.exp.service.queue": "ShardJob ShardQueue service_dir",
    "repro.exp.service.sweep": "enqueue_sweep",
    "repro.exp.service.worker": "run_worker",
})
