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
    Queue state counts, cache entry counts, memoised answer count.
``/profile?workload=li[&budget=N][&window=N][&scale=N]``
    One kernel's :class:`~repro.exp.runner.BenchmarkProfile` as JSON
    (hit), or the enqueued shard's job id (miss, 202).
``/figure?name=figure3[&budget=N...]``
    A rendered figure table computed from cached entries only (hit
    requires *every* configured kernel cached; misses are enqueued).
    Figures 3-8 read profiles; ``figure9`` reads each kernel's
    ``fig9`` rows and enqueues ``fig9`` shards.
``/job?id=<job_id>``
    A shard's queue record (state, lease, error).

What runs where.  Each connection is one
:class:`asyncio.BufferedProtocol`.  Its read callback gathers the
request header, computes the memo key and looks it up in the front
end's answer memo; a hit is written and the connection closed by a
callback on the loop's next turn, with no task, no thread hop and no
file I/O.  Everything else runs in the default executor, so one slow
disk op never stalls the loop: the handlers, with their cache reads,
queue scans, figure renders and static estimates, answered from the
future's callback.  A handler's ``200`` answer to ``/profile`` (a
cache hit or ``mode=static``) or ``/figure`` is filled into the memo
there, so the first request for a key reads and checks its entries
exactly as a memo-less server would.
A header that is not whole within ``HEADER_TIMEOUT_S`` or
``HEADER_LIMIT`` bytes, or that ends with the connection, is a
``400``.

The process imports only what it runs: this module, the config, the
queue and the cache load without numpy, the VM or the engine (entry
names hash module sources read from their files, not imported), and
a handler that computes imports its engine in the executor thread.

The memo holds encoded answers keyed by (route, workload or figure,
config key, cache root; plus the workload list for a figure).  Entry
names carry the analysis-code digest, so an answer is a pure function
of its key and stays exact for as long as the server runs.  One
consequence: a memoised key keeps its answer after its entry is
damaged or removed (``repro cache clear`` included); keys not yet
memoised miss, enqueue and heal as before.  ``202``/``400``/``404``
answers, ``/health``, ``/status`` and ``/job`` are never memoised.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import threading
import urllib.parse
from typing import Any, Callable

from repro.exp.config import ExperimentConfig
from repro.exp.service.queue import ShardQueue, shard_job_id
from repro.obs import get_logger, incr
from repro.util.lazy import lazy_exports
from repro.vm import tracecache

_log = get_logger("service.server")

# ``from repro.exp.service.server import profile_to_json`` keeps working
# without importing the runner (and its engine) with this module.
__getattr__, _ = lazy_exports(__name__, {
    "repro.exp.runner": "profile_from_json profile_to_json"})

#: Most answers the memo holds.  Past it the oldest filled answer
#: goes; a later request for it refills it from its cache entries.
MEMO_ENTRIES = 1024

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


def _known_workload(name: str) -> bool:
    from repro.workloads.base import get_workload

    try:
        get_workload(name)
    except KeyError:
        return False
    return True


class ServiceFrontend:
    """Route table + handlers; one instance per server."""

    def __init__(self, defaults: ExperimentConfig | None = None,
                 queue: ShardQueue | None = None):
        self.defaults = defaults if defaults is not None else ExperimentConfig()
        self.queue = queue if queue is not None else ShardQueue()
        self._static_bands: dict | None | bool = False  # False = unloaded
        #: memo key -> encoded ``200`` answer; read on the event loop
        #: without a lock, filled from executor threads under it
        self._memo: dict[tuple, bytes] = {}
        self._memo_lock = threading.Lock()

    # -- the answer memo ----------------------------------------------
    def _memo_key(self, path: str, params: dict[str, str]) -> tuple | None:
        """The key a ``200`` answer to this request is memoised under,
        or None for a request whose answers are never memoised."""
        if path == "/profile":
            name = params.get("workload")
            route = "static" if params.get("mode") == "static" else "profile"
        elif path == "/figure":
            name, route = params.get("name", "figure3"), "figure"
        else:
            return None
        if not name:
            return None
        try:
            config = config_from_query(params, self.defaults)
        except ValueError:
            return None
        key = (route, name, config.cache_key(), tracecache.cache_dir())
        return key + (config.workloads,) if route == "figure" else key

    def _recall(self, key: tuple | None) -> bytes | None:
        """The memoised answer under ``key``, or None."""
        body = self._memo.get(key)
        if body is not None:
            incr("serve.memo.hit")
        return body

    def _remember(self, key: tuple, body: bytes) -> None:
        with self._memo_lock:
            if key not in self._memo and len(self._memo) >= MEMO_ENTRIES:
                del self._memo[next(iter(self._memo))]
            self._memo[key] = body
        incr("serve.memo.fill")

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
                "fig9": info["fig9"],
            },
            "memo": {"answers": len(self._memo), "bound": MEMO_ENTRIES},
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
        if not _known_workload(workload):
            return 404, {"error": f"unknown workload {workload!r}"}
        stored = tracecache.load_cached_profile_json(
            workload, config.cache_key())
        if stored is not None:
            incr("serve.profile.hit")
            head = ('{"source": "cache", "workload": %s, "profile": '
                    % json.dumps(workload)).encode()
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
        from repro.exp.runner import profile_to_json
        from repro.static.estimator import estimate_profile
        from repro.static.validate import kernel_band, load_bands

        if not _known_workload(workload):
            return 404, {"error": f"unknown workload {workload!r}"}
        profile = estimate_profile(workload, config)
        if self._static_bands is False:
            self._static_bands = load_bands()
        band = kernel_band(self._static_bands, workload)
        incr("serve.profile.static")
        return 200, _encode({
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

    def handle_figure(
        self, params: dict[str, str]
    ) -> tuple[int, dict | bytes]:
        from repro.exp import figures as figmod
        from repro.exp.report import render
        from repro.exp.runner import profile_from_json

        name = params.get("name", "figure3")
        if name not in ("figure3", "figure4", "figure5", "figure6",
                        "figure7", "figure8", "figure9"):
            return 404, {"error": f"unknown figure {name!r}"}
        try:
            config = config_from_query(params, self.defaults)
        except ValueError as exc:
            return 400, {"error": f"bad query parameter: {exc}"}
        kind = "fig9" if name == "figure9" else "profile"
        docs, missing = [], []
        for workload in config.workloads:
            cached = tracecache.load_cached_profile(
                workload, config.cache_key(), kind
            )
            if cached is not None:
                docs.append(cached)
            else:
                missing.append(workload)
        if missing:
            jobs = {w: self.queue.enqueue(w, config, kind)[0]
                    for w in missing}
            incr("serve.figure.miss")
            return 202, {"source": "enqueued", "figure": name,
                         "missing": missing, "jobs": jobs}
        if name == "figure9":
            result = figmod.figure9_from_rows(docs)
        else:
            fig = getattr(figmod, name)
            profiles = [profile_from_json(d) for d in docs]
            result = (fig(profiles, config)
                      if name in ("figure4", "figure5", "figure8")
                      else fig(profiles))
        incr("serve.figure.hit")
        return 200, _encode({"source": "cache", "figure": name,
                             "text": render(result)})

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
        key = self._memo_key(path, params)
        body = self._recall(key)
        if body is not None:
            return 200, body
        return self._answer(path, params, key)

    def _answer(
        self, path: str, params: dict[str, str], key: tuple | None,
    ) -> tuple[int, dict | bytes]:
        """Run the route's handler; memoise its answer under ``key``
        when that answer is a ``200``."""
        handler = self.ROUTES.get(path)
        if handler is None:
            return 404, {"error": f"no route {path!r}"}
        status, body = handler(self, params)
        if status == 200 and key is not None:
            self._remember(key, body)
        return status, body


#: Seconds a connection may take to send its request header, and the
#: longest header accepted: past either the answer is a ``400``.
HEADER_TIMEOUT_S = 10.0
HEADER_LIMIT = 64 * 1024

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error"}
_MALFORMED = 400, {"error": "malformed request"}


class _Connection(asyncio.BufferedProtocol):
    """One connection: read a request header, send one answer, close.

    :meth:`buffer_updated` parses and keys the request and finds a
    memoised answer; a callback the loop runs on its next turn, after
    polling the other sockets, writes it (writing it from the read
    callback itself served fewer requests per second in the
    ``serve_warm`` benchmark).  A miss runs ``_answer`` in the default
    executor and the future's callback writes the answer.  Reads land
    in ``inbox``, one buffer that all of a server's connections share
    (their callbacks run one at a time on the loop): a fresh 256 KiB
    buffer per read, as ``data_received`` takes, faults new pages into
    a small process on every request.
    """

    def __init__(self, frontend: ServiceFrontend, inbox: memoryview) -> None:
        self.frontend = frontend
        self.inbox = inbox
        self.header: bytearray | None = bytearray()  # None once complete
        self.answered = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.loop = asyncio.get_running_loop()
        self.timer = self.loop.call_later(HEADER_TIMEOUT_S, self._reply,
                                          *_MALFORMED)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.inbox

    def buffer_updated(self, nbytes: int) -> None:
        if self.header is None or self.answered:
            return
        start = max(0, len(self.header) - 3)  # an end may span two reads
        self.header += self.inbox[:nbytes]
        end = self.header.find(b"\r\n\r\n", start)
        if end < 0 and len(self.header) <= HEADER_LIMIT:
            return
        header, self.header = self.header, None
        if end < 0 or end > HEADER_LIMIT:
            return self._reply(*_MALFORMED)
        self.timer.cancel()
        try:
            parts = header[:end].split(b"\r\n", 1)[0].decode("latin-1").split()
            if len(parts) != 3 or parts[0] != "GET":
                return self._reply(405, {"error": "only GET is supported"})
            url = urllib.parse.urlsplit(parts[1])
            params = {k: v[-1] for k, v in
                      urllib.parse.parse_qs(url.query).items()}
            key = self.frontend._memo_key(url.path, params)
            body = self.frontend._recall(key)
            if body is not None:  # written after the loop's next poll
                return self.loop.call_soon(self._reply, 200, body)
            self.loop.run_in_executor(
                None, self.frontend._answer, url.path, params, key,
            ).add_done_callback(self._answered)
        except Exception as exc:  # never kill the server on one request
            self._failed(exc)

    def eof_received(self) -> bool:
        if self.header is not None:  # the header never ended
            self._reply(*_MALFORMED)
        return True  # a pending answer still goes out; _reply closes

    def connection_lost(self, exc) -> None:
        self.timer.cancel()

    def _answered(self, future) -> None:
        if future.exception() is not None:
            return self._failed(future.exception())
        self._reply(*future.result())

    def _failed(self, exc: BaseException) -> None:
        _log.warning("request handler error: %s", exc, exc_info=exc)
        self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _reply(self, status: int, body: dict | bytes) -> None:
        if self.answered:
            return
        self.answered = True
        self.timer.cancel()
        payload = body if isinstance(body, bytes) else _encode(body)
        self.transport.write(
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1") + payload)
        self.transport.close()
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
    inbox = memoryview(bytearray(HEADER_LIMIT))
    server = await asyncio.get_running_loop().create_server(
        lambda: _Connection(frontend, inbox), host=host, port=port)
    bound = server.sockets[0].getsockname()[1]
    return server, frontend, bound


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8023,
    *,
    defaults: ExperimentConfig | None = None,
) -> None:
    """Blocking entry point for the ``repro serve`` CLI.  Returns once
    SIGTERM stops the server, so the caller's cleanup runs."""

    async def main() -> None:
        server, _frontend, bound = await start_server(
            host, port, frontend=ServiceFrontend(defaults)
        )
        stopped = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, stopped.set)
        _log.warning("repro serve listening on http://%s:%d", host, bound)
        print(f"repro serve listening on http://{host}:{bound}", flush=True)
        async with server:
            await stopped.wait()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
