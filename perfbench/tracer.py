"""Call-site patching and an in-memory span tracer for the benchmark.

Two instruments wrap the program's public functions from outside, with no
change to the program itself:

* :class:`ServeProbe` (every run) times each serve call on the wall
  clock and in process CPU time, marks the first
  request submitted, and keeps the served responses for the bit-exact
  check made after the run.  It is the only instrumentation the
  end-to-end numbers carry.
* :class:`Tracer` (traced runs only) records a span at every layer
  boundary named in :mod:`layers`: name, start, end, parent span and the
  request id.  Spans stay in memory; self time is a span's duration minus
  the time its child spans cover.

Both patch a function where its callers look it up: a method on its
class, a module-level function in every ``repro`` module that binds the
same object (``from x import f`` copies the binding).  Patches are undone
on exit, so an untraced run after a traced one runs the original code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from time import perf_counter, process_time

import numpy as np

#: Span-name prefix of the benchmark's own work (checks made inside the
#: traced window).  These spans are excluded from the layer account and
#: their time is taken out of the traced serving wall.
BENCH_PREFIX = "bench."


def _resolve(target: str):
    """``"repro.core.pipeline:resolve"`` or ``"pkg.mod:Class.method"`` →
    (owner, attribute name, original function)."""
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Patcher:
    """Replaces functions at their lookup sites and restores them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, target: str, make_wrapper) -> None:
        owner, attr, original = _resolve(target)
        wrapper = functools.wraps(original)(make_wrapper(original))
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        modules = [
            m for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith("repro")
        ]
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)
                elif isinstance(value, types.FunctionType):
                    # a default argument binds the function at definition
                    # time (e.g. ``solve_fn=solve_policy``)
                    defaults = value.__defaults__ or ()
                    if any(d is original for d in defaults):
                        self._set(value, "__defaults__", tuple(
                            wrapper if d is original else d for d in defaults
                        ))

    def _set(self, site, name: str, value) -> None:
        self._undo.append((site, name, getattr(site, name)))
        setattr(site, name, value)

    def restore(self) -> None:
        for site, name, original in reversed(self._undo):
            setattr(site, name, original)
        self._undo.clear()

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


class ServeProbe:
    """Serve-call wall and CPU times, the end of set-up, and served
    responses.

    A serve call is ``ServingRuntime.serve_request``,
    ``ServingRuntime.serve_batch`` or ``ClusterFrontend.serve``.  Set-up
    ends when the first request is submitted: ``ServingRuntime.submit``
    on one box, the first ``ClusterFrontend.serve`` on a cluster.
    """

    def __init__(self) -> None:
        self.first_submit: float | None = None
        self.serve_seconds: list[float] = []
        #: process CPU seconds of each serve call, in the same order
        self.serve_cpu_seconds: list[float] = []
        #: (host table, response) for single-box responses
        self.responses: list[tuple[np.ndarray, object]] = []
        #: (host table, keys, cluster response) for cluster requests
        self.cluster: list[tuple[np.ndarray, np.ndarray, object]] = []
        self._table: np.ndarray | None = None

    def install(self, patcher: Patcher) -> None:
        probe = self

        def capture_table(init):
            def wrapper(self, extractor, *args, **kwargs):
                probe._table = extractor.cache.host_table
                return init(self, extractor, *args, **kwargs)
            return wrapper

        def mark_submit(submit):
            def wrapper(self, request, now):
                if probe.first_submit is None:
                    probe.first_submit = perf_counter()
                return submit(self, request, now)
            return wrapper

        def time_request(serve):
            def wrapper(self, request, now):
                t0, c0 = perf_counter(), process_time()
                response = serve(self, request, now)
                probe.serve_cpu_seconds.append(process_time() - c0)
                probe.serve_seconds.append(perf_counter() - t0)
                probe.responses.append((probe._table, response))
                return response
            return wrapper

        def time_batch(serve):
            def wrapper(self, requests, now):
                t0, c0 = perf_counter(), process_time()
                outcome = serve(self, requests, now)
                probe.serve_cpu_seconds.append(process_time() - c0)
                probe.serve_seconds.append(perf_counter() - t0)
                for response in outcome.responses:
                    probe.responses.append((probe._table, response))
                return outcome
            return wrapper

        def time_cluster(serve):
            def wrapper(self, keys, now, *args, **kwargs):
                t0, c0 = perf_counter(), process_time()
                if probe.first_submit is None:
                    probe.first_submit = t0
                resp = serve(self, keys, now, *args, **kwargs)
                probe.serve_cpu_seconds.append(process_time() - c0)
                probe.serve_seconds.append(perf_counter() - t0)
                table = next(iter(self.nodes.values())).cache.host_table
                probe.cluster.append((table, keys, resp))
                return resp
            return wrapper

        patcher.patch("repro.serve.runtime:ServingRuntime.__init__", capture_table)
        patcher.patch("repro.serve.runtime:ServingRuntime.submit", mark_submit)
        patcher.patch(
            "repro.serve.runtime:ServingRuntime.serve_request", time_request
        )
        patcher.patch("repro.serve.runtime:ServingRuntime.serve_batch", time_batch)
        patcher.patch("repro.cluster.frontend:ClusterFrontend.serve", time_cluster)

    def failures(self) -> tuple[int, int]:
        """``(failed requests, inexact rows)`` over everything served.

        A request fails when its status is FAILED, when a cluster response
        is partial, or when any row it was served differs from the host
        table.
        """
        from repro.serve.request import RequestStatus

        failed = 0
        bad_rows = 0
        for table, response in self.responses:
            wrong = 0
            if response.values is not None:
                expected = table[response.request.keys]
                wrong = int((response.values != expected).any(axis=1).sum())
            bad_rows += wrong
            failed += int(response.status is RequestStatus.FAILED or wrong > 0)
        for table, keys, resp in self.cluster:
            wrong = 0
            if resp.values is not None:
                served = np.ones(len(keys), dtype=bool)
                served[resp.failed_positions] = False
                wrong = int(
                    (resp.values[served] != table[keys[served]]).any(axis=1).sum()
                )
            bad_rows += wrong
            failed += int(resp.partial or wrong > 0)
        return failed, bad_rows


class Tracer:
    """In-memory spans around patched layer boundaries (one thread).

    A span is ``[name, start, end, parent index, request id]``.  Children
    inherit their parent's request id; a root span takes it from a
    ``Request`` argument (or the first of a list of them), and a cluster
    request, which has no ``Request``, is numbered by its arrival order.
    """

    def __init__(self, entry_names: frozenset[str]) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: spans named here mark the end of set-up on their first entry
        self._entry_names = entry_names
        self.serving_start: float | None = None
        self._cluster_requests = 0

    @staticmethod
    def _request_id(args) -> object:
        for arg in args[:2]:
            if isinstance(arg, list) and arg:
                arg = arg[0]
            rid = getattr(arg, "request_id", None)
            if rid is not None:
                return rid
        return None

    def span_wrapper(self, name: str, after=None):
        """Wrapper factory for :meth:`Patcher.patch`.

        ``after(args, result, open span names)``, when given, runs once
        the span has closed, inside a ``bench.`` span of its own.
        """
        tracer = self
        spans = self.spans
        stack = self._stack
        is_entry = name in self._entry_names
        is_cluster = name == "cluster.frontend.serve"

        def make(fn):
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else -1
                if parent >= 0:
                    rid = spans[parent][4]
                elif is_cluster:
                    tracer._cluster_requests += 1
                    rid = f"cluster-{tracer._cluster_requests}"
                else:
                    rid = tracer._request_id(args)
                span = [name, 0.0, 0.0, parent, rid]
                index = len(spans)
                spans.append(span)
                stack.append(index)
                span[1] = perf_counter()
                if is_entry and tracer.serving_start is None:
                    tracer.serving_start = span[1]
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
                if after is not None:
                    check = [BENCH_PREFIX + name, perf_counter(), 0.0, parent, rid]
                    spans.append(check)
                    after(args, result, tracer.open_names())
                    check[2] = perf_counter()
                return result
            return wrapper
        return make

    def open_names(self) -> list[str]:
        return [self.spans[i][0] for i in self._stack]

    def account(self, start: float, end: float) -> dict:
        """Per-name ``(calls, self seconds)`` for spans opened in
        ``[start, end]`` plus the serving wall the account covers.

        Returns ``{"layers": {name: [calls, self_s]}, "wall_s": ...,
        "other_s": ...}`` where ``wall_s`` excludes the benchmark's own
        ``bench.`` spans and ``other_s`` is the wall time no layer span
        covers (the soak loop itself).
        """
        child = [0.0] * len(self.spans)
        for name, s, e, parent, _rid in self.spans:
            if parent >= 0:
                child[parent] += e - s
        layers: dict[str, list] = {}
        bench = 0.0
        for i, (name, s, e, _parent, _rid) in enumerate(self.spans):
            if s < start:
                continue
            self_s = (e - s) - child[i]
            if name.startswith(BENCH_PREFIX):
                bench += self_s
                continue
            entry = layers.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
        wall = (end - start) - bench
        covered = sum(v[1] for v in layers.values())
        return {
            "layers": layers,
            "wall_s": wall,
            "other_s": wall - covered,
        }

    def write(self, path, origin: float) -> None:
        """Write every span as one JSON line, times relative to ``origin``."""
        with open(path, "w") as fh:
            for name, s, e, parent, rid in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_s": round(s - origin, 9),
                            "end_s": round(e - origin, 9),
                            "parent": parent,
                            "request_id": rid,
                        }
                    )
                    + "\n"
                )
