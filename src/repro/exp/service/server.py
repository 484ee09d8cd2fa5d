"""``repro serve``: async front end over the cache and shard queue.

A deliberately small asyncio HTTP/1.1 server (stdlib only — the
container bakes no web framework) with one job: keep the hot path
*pure cache*.  A profile or figure query whose inputs are already in
the shared store is answered from its cache entries — the VM, the
analysis stack, even the queue are never touched.  A ``/profile`` hit
sends the entry's stored JSON bytes, checked against the entry's
length and CRC32 header and spliced into the answer: no profile
decode and no JSON encode.  A miss is
answered ``202 Accepted`` after enqueuing the corresponding
kernel × config shards; worker processes (spawned with ``--workers``
or run separately via ``repro worker --forever``) drain them, and the
same query flips to a ``200`` cache hit once the profile lands.

Endpoints (all ``GET``, all ``application/json``):

``/health``
    Liveness: ``{"ok": true, "pid": ...}``.
``/status``
    Queue state counts, cache entry counts, profile-index size.
``/profile?workload=li[&budget=N][&window=N][&scale=N]``
    One kernel's :class:`~repro.exp.runner.BenchmarkProfile` as JSON
    (hit), or the enqueued shard's job id (miss, 202).
``/figure?name=figure3[&budget=N...]``
    A rendered figure table computed from cached profiles only (hit
    requires *every* configured kernel cached; misses are enqueued).
``/job?id=<job_id>``
    A shard's queue record (state, lease, error).

Blocking filesystem work (cache reads, queue scans) runs in the
default executor so one slow disk op never stalls the event loop.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import urllib.parse
from typing import Any, Callable

from repro.exp.config import ExperimentConfig
from repro.exp.runner import profile_from_json, profile_to_json
from repro.exp.service.queue import ShardQueue, shard_job_id
from repro.obs import get_logger, incr
from repro.vm import tracecache

_log = get_logger("service.server")

#: Query parameters accepted as ExperimentConfig overrides, with the
#: coercion each needs (names follow the CLI flags).
_CONFIG_PARAMS: dict[str, tuple[str, Callable[[str], Any]]] = {
    "budget": ("max_instructions", int),
    "window": ("window_size", int),
    "scale": ("scale", int),
}


def config_from_query(
    params: dict[str, str], defaults: ExperimentConfig,
) -> ExperimentConfig:
    """Apply recognised query overrides to the server's default config."""
    overrides = {}
    for param, (fld, coerce) in _CONFIG_PARAMS.items():
        if param in params:
            overrides[fld] = coerce(params[param])
    if not overrides:
        return defaults
    return dataclasses.replace(defaults, **overrides)


def _encode(body: dict) -> bytes:
    """One answer's bytes, as every JSON route sends them."""
    return json.dumps(body, indent=2).encode() + b"\n"


class ServiceFrontend:
    """Route table + handlers; one instance per server."""

    def __init__(self, defaults: ExperimentConfig | None = None,
                 queue: ShardQueue | None = None):
        self.defaults = defaults if defaults is not None else ExperimentConfig()
        self.queue = queue if queue is not None else ShardQueue()
        #: encoded static answers, keyed by (workload, config key) —
        #: the estimator is milliseconds but the hot path should not
        #: re-analyse or re-encode on every poll
        self._static_memo: dict[tuple, bytes] = {}
        self._static_bands: dict | None | bool = False  # False = unloaded
        #: per known workload, a cache hit's answer up to its profile
        self._hit_heads: dict[str, bytes] = {}

    def _hit_head(self, workload: str) -> bytes | None:
        """``{"source": "cache", "workload": ..., "profile": `` as
        bytes, or None for an unknown workload.  A hit appends the
        stored profile bytes and the closing brace."""
        head = self._hit_heads.get(workload)
        if head is None:
            from repro.workloads.base import get_workload

            try:
                get_workload(workload)
            except KeyError:
                return None
            head = ('{"source": "cache", "workload": %s, "profile": '
                    % json.dumps(workload)).encode()
            self._hit_heads[workload] = head
        return head

    # -- handlers (synchronous; called via executor) -------------------
    def handle_health(self, params: dict[str, str]) -> tuple[int, dict]:
        return 200, {"ok": True, "pid": os.getpid()}

    def handle_status(self, params: dict[str, str]) -> tuple[int, dict]:
        info = tracecache.cache_info()
        return 200, {
            "queue": self.queue.counts(),
            "cache": {
                "dir": info["dir"],
                "traces": info["traces"],
                "profiles": info["profiles"],
            },
        }

    def handle_profile(
        self, params: dict[str, str]
    ) -> tuple[int, dict | bytes]:
        workload = params.get("workload")
        if not workload:
            return 400, {"error": "missing ?workload="}
        try:
            config = config_from_query(params, self.defaults)
        except ValueError as exc:
            return 400, {"error": f"bad query parameter: {exc}"}
        if params.get("mode") == "static":
            return self.handle_profile_static(workload, config)
        head = self._hit_head(workload)
        if head is None:
            return 404, {"error": f"unknown workload {workload!r}"}
        stored = tracecache.load_cached_profile_json(
            workload, config.cache_key())
        if stored is not None:
            incr("serve.profile.hit")
            return 200, head + stored + b"}\n"
        job_id, state = self.queue.enqueue(workload, config)
        incr("serve.profile.miss")
        return 202, {"source": "enqueued", "workload": workload,
                     "job": job_id, "state": state}

    def handle_profile_static(
        self, workload: str, config: ExperimentConfig
    ) -> tuple[int, dict | bytes]:
        """``/profile?mode=static`` — predicted profile, zero execution.

        Always a hot-path ``200``: the static estimator needs no trace
        and no queue, so there is no miss case.  The answer carries the
        kernel's recorded error band from ``BENCH_static.json`` so
        callers can judge how far the prediction may sit from a
        dynamic run.
        """
        from repro.static.estimator import estimate_profile
        from repro.static.validate import kernel_band, load_bands
        from repro.workloads.base import get_workload

        try:
            get_workload(workload)
        except KeyError:
            return 404, {"error": f"unknown workload {workload!r}"}
        key = (workload, config.cache_key())
        body = self._static_memo.get(key)
        if body is None:
            profile = estimate_profile(workload, config)
            if self._static_bands is False:
                self._static_bands = load_bands()
            band = kernel_band(self._static_bands, workload)
            body = _encode({
                "source": "static",
                "workload": workload,
                "profile": profile_to_json(profile),
                "error_band": band,
                "error_band_note": (
                    "per-metric prediction error recorded by "
                    "'repro static validate' (BENCH_static.json); "
                    "percent_reusable is absolute/100, others relative"
                    if band else
                    "no recorded bands — run 'repro static validate'"
                ),
            })
            self._static_memo[key] = body
        incr("serve.profile.static")
        return 200, body

    def handle_figure(self, params: dict[str, str]) -> tuple[int, dict]:
        from repro.exp import figures as figmod
        from repro.exp.report import render

        name = params.get("name", "figure3")
        fig = getattr(figmod, name, None)
        if name not in ("figure3", "figure4", "figure5", "figure6",
                        "figure7", "figure8") or fig is None:
            return 404, {"error": f"unknown figure {name!r}"}
        try:
            config = config_from_query(params, self.defaults)
        except ValueError as exc:
            return 400, {"error": f"bad query parameter: {exc}"}
        profiles, missing = [], []
        for workload in config.workloads:
            cached = tracecache.load_cached_profile(
                workload, config.cache_key()
            )
            if cached is not None:
                profiles.append(profile_from_json(cached))
            else:
                missing.append(workload)
        if missing:
            jobs = {w: self.queue.enqueue(w, config)[0] for w in missing}
            incr("serve.figure.miss")
            return 202, {"source": "enqueued", "figure": name,
                         "missing": missing, "jobs": jobs}
        if name in ("figure4", "figure5", "figure8"):
            result = fig(profiles, config)
        else:
            result = fig(profiles)
        incr("serve.figure.hit")
        return 200, {"source": "cache", "figure": name,
                     "text": render(result)}

    def handle_job(self, params: dict[str, str]) -> tuple[int, dict]:
        job_id = params.get("id")
        if not job_id:
            return 400, {"error": "missing ?id="}
        job = self.queue.find(job_id)
        if job is None:
            return 404, {"error": f"no such job {job_id!r}"}
        return 200, {"job": job.to_record()}

    ROUTES = {
        "/health": handle_health,
        "/status": handle_status,
        "/profile": handle_profile,
        "/figure": handle_figure,
        "/job": handle_job,
    }

    def dispatch(
        self, path: str, params: dict[str, str]
    ) -> tuple[int, dict | bytes]:
        """``(status, body)``: a dict to encode, or the answer's bytes."""
        handler = self.ROUTES.get(path)
        if handler is None:
            return 404, {"error": f"no route {path!r}"}
        return handler(self, params)

    # -- asyncio plumbing ----------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> None:
        status, body = 500, {"error": "internal error"}
        try:
            request = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=10.0
            )
            line = request.split(b"\r\n", 1)[0].decode("latin-1")
            parts = line.split()
            if len(parts) != 3 or parts[0] != "GET":
                status, body = 405, {"error": "only GET is supported"}
            else:
                url = urllib.parse.urlsplit(parts[1])
                params = {
                    k: v[-1] for k, v in
                    urllib.parse.parse_qs(url.query).items()
                }
                loop = asyncio.get_running_loop()
                status, body = await loop.run_in_executor(
                    None, self.dispatch, url.path, params
                )
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                TimeoutError, UnicodeDecodeError):
            status, body = 400, {"error": "malformed request"}
        except Exception as exc:  # never kill the server on one request
            _log.warning("request handler error: %s", exc)
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        payload = body if isinstance(body, bytes) else _encode(body)
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  500: "Internal Server Error"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + payload)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        incr("serve.requests")


async def start_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    frontend: ServiceFrontend | None = None,
) -> tuple[asyncio.AbstractServer, ServiceFrontend, int]:
    """Bind and start serving; returns ``(server, frontend, port)``.

    ``port=0`` binds an ephemeral port (tests); the bound port is
    returned either way.
    """
    frontend = frontend if frontend is not None else ServiceFrontend()
    server = await asyncio.start_server(
        frontend.handle_connection, host=host, port=port
    )
    bound = server.sockets[0].getsockname()[1]
    return server, frontend, bound


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8023,
    *,
    defaults: ExperimentConfig | None = None,
) -> None:
    """Blocking entry point for the ``repro serve`` CLI."""

    async def main() -> None:
        server, _frontend, bound = await start_server(
            host, port, frontend=ServiceFrontend(defaults)
        )
        _log.warning("repro serve listening on http://%s:%d", host, bound)
        print(f"repro serve listening on http://{host}:{bound}", flush=True)
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
