"""The warm-serve workload: ``python -m repro serve`` under a closed loop.

Set-up fills the profile cache for every kernel (one fresh interpreter
running ``collect_profiles``), starts the server over it and fetches
every URL the run will ask for once.  Those first answers are the
expected bodies: each is checked against the golden record, and every
later answer must equal its URL's expected body byte for byte.

The gated loop asks only for ``/profile?workload=k``, the cached
answer the server exists to give, with ``k`` drawn uniformly from the
kernels.  No record of real traffic exists, so the benchmark does not
guess a mix of routes: the traced run times ``/figure`` and the static
estimate each in a phase of its own instead (:func:`layer_probe`).

The load is one client process with :data:`CLIENTS` threads, each
sending its next request only after the previous answer arrived
(closed loop).  The seed picks each thread's request sequence.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import selectors
import subprocess
import sys
import threading
import time

from harness import (
    ROOT,
    golden_mismatches,
    host_slowdown,
    median,
    percentile,
    repeated_setup,
    run_fill,
    subprocess_env,
    tail,
    vm_hwm_mb,
)

#: Instruction budget of the served profiles.  Answers are cache reads
#: whose size does not depend on it; it only sets the cost of the fill.
SERVE_BUDGET = 2_000
#: Client threads (one per CPU of the 2-CPU reference host).
CLIENTS = 2
#: The routes, each timed on its own in the traced run.
ROUTES = ("profile", "figure", "static")
FIGURES = tuple(f"figure{i}" for i in range(3, 9))
#: Seconds allowed for the server to start listening.
START_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 30
#: Seconds of load between two host-speed measurements.
WINDOW_S = 2.0


def kernels() -> tuple[str, ...]:
    from repro.exp.config import ExperimentConfig

    return ExperimentConfig().workloads


def urls(route: str, names) -> list[str]:
    """Every URL of one route."""
    if route == "profile":
        return [f"/profile?workload={k}" for k in names]
    if route == "static":
        return [f"/profile?workload={k}&mode=static" for k in names]
    return [f"/figure?name={f}" for f in FIGURES]


class Server:
    """A ``repro serve`` subprocess over one cache directory."""

    def __init__(self, cache_dir, budget: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--budget", str(budget)],
            env=subprocess_env(cache_dir), cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("repro serve exited before listening")
                if "listening on http://" in line:
                    return int(line.rsplit(":", 1)[1])
        raise RuntimeError("repro serve did not start listening")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def fetch(port: int, url: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", url)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def expected_bodies(port: int, routes: dict) -> dict[str, bytes]:
    """Fetch every URL once; raises unless each answers 200."""
    bodies = {}
    for route_urls in routes.values():
        for url in route_urls:
            status, body = fetch(port, url)
            if status != 200:
                raise RuntimeError(f"set-up fetch {url} answered {status}")
            bodies[url] = body
    return bodies


def canonical_answers(routes: dict, bodies: dict) -> dict[str, dict]:
    """Golden-record views of the expected bodies, keyed by route."""
    def view(route, url):
        body = json.loads(bodies[url])
        if route == "figure":
            return hashlib.sha256(body["text"].encode()).hexdigest()
        return body["profile"]

    return {route: {url.split("=", 1)[1].split("&")[0]: view(route, url)
                    for url in route_urls}
            for route, route_urls in routes.items()}


def golden_key(route: str, budget: int) -> str:
    return f"serve_{route}@{budget}"


def golden_failures(golden: dict, budget: int, answers: dict) -> int:
    return sum(len(golden_mismatches(golden, golden_key(route, budget), data))
               for route, data in answers.items())


def setup(workdir, index: int, budget: int, names,
          routes: tuple[str, ...]) -> tuple[Server, dict, dict]:
    """One set-up: fill, start, fetch every URL of ``routes`` once.

    Returns ``(server, route -> URLs, expected bodies)``.
    """
    cache = workdir / f"serve{index}"
    run_fill(cache, {"max_instructions": budget, "workloads": list(names)})
    server = Server(cache, budget)
    try:
        by_route = {route: urls(route, names) for route in routes}
        bodies = expected_bodies(server.port, by_route)
    except BaseException:
        server.stop()
        raise
    return server, by_route, bodies


def closed_loop(port: int, targets: list[str], expected: dict, *,
                seconds: float, seed, clients: int = CLIENTS) -> dict:
    """Drive the server for ``seconds``; returns samples and counts.

    Each client sends at least one request.  A sample is
    ``(milliseconds, ok)``; a request is ok when it answered 200 with
    its URL's expected body.
    """
    deadline = time.perf_counter() + seconds
    results: list[list] = [[] for _ in range(clients)]
    non200 = [0] * clients

    def client(i: int) -> None:
        rng = random.Random(f"{seed}/{i}")
        out = results[i]
        while True:
            url = rng.choice(targets)
            start = time.perf_counter()
            try:
                status, body = fetch(port, url)
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
            ms = 1e3 * (time.perf_counter() - start)
            non200[i] += status != 200
            out.append((ms, status == 200 and body == expected[url]))
            if time.perf_counter() >= deadline:
                return

    start = time.perf_counter()
    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a client thread did not finish")
    samples = [s for out in results for s in out]
    return {"samples": samples, "elapsed": time.perf_counter() - start,
            "non200": sum(non200)}


def measure(*, seed: int, seconds: float, budget: int, setup_repeats: int,
            setup_seconds: float, workdir, golden: dict) -> dict:
    """The untraced run: repeated set-ups, then the ``/profile`` loop.

    The loop runs in windows of :data:`WINDOW_S` between host-speed
    probes; each window's rate and median latency are divided by the
    slowdown probed just before and just after it, and the metrics are
    medians over windows.
    """
    names = kernels()
    live = []  # the latest set-up: (server, routes, bodies)

    def one_setup(i):
        if live:
            live.pop()[0].stop()
        live.append(setup(workdir, i, budget, names, ("profile",)))

    try:
        setup_raw, setup_slow = repeated_setup(
            one_setup, repeats=setup_repeats, seconds=setup_seconds)
        server, routes, bodies = live[0]
        answers = canonical_answers(routes, bodies)
        windows = []
        deadline = time.perf_counter() + seconds
        before = host_slowdown()
        while not windows or time.perf_counter() + WINDOW_S <= deadline:
            loop = closed_loop(server.port, routes["profile"], bodies,
                               seconds=WINDOW_S,
                               seed=f"{seed}/{len(windows)}")
            after = host_slowdown()
            windows.append((loop, (before + after) / 2))
            before = after
        rss = server.peak_rss_mb()
    finally:
        for server, _, _ in live:
            server.stop()
    samples = [s for loop, _ in windows for s in loop["samples"]]
    failed = (sum(1 for _, good in samples if not good)
              + golden_failures(golden, budget, answers))
    rates = [sum(good for _, good in loop["samples"]) / loop["elapsed"]
             for loop, _ in windows]
    p50s = [median(ms for ms, _ in loop["samples"]) for loop, _ in windows]
    slowdowns = [slowdown for _, slowdown in windows]
    return {
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            "ops_per_s": median(r * s for r, s in zip(rates, slowdowns)),
            "latency_p50_ms": median(p / s for p, s in zip(p50s, slowdowns)),
            "peak_rss_mb": rss,
            "setup_s": median(t / s for t, s in zip(setup_raw, setup_slow)),
        },
        "details": {
            "requests": len(samples),
            "non200": sum(loop["non200"] for loop, _ in windows),
            "window_slowdown": slowdowns,
            "raw_req_per_s": rates,
            "raw_p50_ms": p50s,
            "tail_ms": tail([ms for ms, _ in samples]),
            "setup_s": setup_raw,
            "setup_slowdown": setup_slow,
            "budget": budget,
            "clients": CLIENTS,
        },
        "answers": answers,
    }


def layer_probe(*, seed: int, seconds: float, budget: int, workdir,
                golden: dict) -> dict:
    """Per-route serve metrics: one set-up, then each route alone for a
    third of ``seconds``."""
    server, routes, bodies = setup(workdir, 0, budget, kernels(), ROUTES)
    try:
        loops = {route: closed_loop(server.port, routes[route], bodies,
                                    seconds=seconds / len(ROUTES),
                                    seed=f"{seed}/{route}")
                 for route in ROUTES}
    finally:
        server.stop()
    answers = canonical_answers(routes, bodies)
    bad = sum(1 for loop in loops.values()
              for _, good in loop["samples"] if not good)
    latencies = {route: [ms for ms, _ in loop["samples"]]
                 for route, loop in loops.items()}
    return {
        "attempted": sum(len(v) for v in latencies.values()),
        "failed": bad + golden_failures(golden, budget, answers),
        "metrics": {
            **{f"serve.{route}_ms_p50": median(latencies[route])
               for route in ROUTES},
            "serve.latency_p99_ms": percentile(latencies["profile"], 99),
        },
        "details": {route: tail(latencies[route]) for route in ROUTES},
        "answers": answers,
    }
