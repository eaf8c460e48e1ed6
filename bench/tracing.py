"""In-process tracing of the dislospec layers, from outside the package.

`Tracer.install()` replaces every public function of the layer modules
(cli, quantization, heun, core, oracle, observables) with a wrapper, in the
defining module and in every module that bound the same function with
`from ... import` (cli and quantization do), and `uninstall()` puts the
originals back.  The program's own files are not touched.

Two kinds of wrapper:

* a span, for the calls that cross a layer boundary (SPANS): name, start,
  end, parent span, invocation id, thread id, and a few attributes;
* a leaf, for the small helpers called thousands of times per solved state
  (build_coefficients, heun_params, truncation_residual, ...): only a call
  count and summed inclusive/self time under the nearest enclosing span,
  so a 1.6 M-call sweep does not allocate 1.6 M records.

Spans and leaf totals stay in memory until the run ends.  The CLI fans its
cells out over a ThreadPoolExecutor, which does not carry context into its
threads, so a call in a pool thread with no open span of its own takes as
parent the innermost open span of the invocation's main thread (the
`cmd_*` span that is waiting on the pool).
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "quantization", "heun", "core", "oracle", "observables")

SPANS = {
    "cli.main",
    "cli.build_config",
    "cli.cmd_spectrum",
    "cli.cmd_current",
    "cli.cmd_verify",
    "cli.emit",
    "quantization.solve_general_n",
    "oracle.ode_residual",
    "oracle.fd_eigensolve_free",
    "oracle.normalization",
    "observables.persistent_current_numeric",
}

# Two-line formulas called only from inside the recurrence leaves; wrapping
# them would add about 40% to a traced pass and attribute nothing the
# build_coefficients and truncation_residual leaves do not already cover.
UNWRAPPED = {"heun.lambda_bar", "heun.tau_bar"}


@dataclass
class Span:
    id: int
    name: str
    parent: int
    invocation: int
    thread: int
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0  # thread CPU time: the duration without waits for the GIL
    error: str | None = None
    attrs: dict = field(default_factory=dict)
    # Inclusive time of leaves called directly under this span in its own thread.
    leaf_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Local(threading.local):
    def __init__(self, registry: list) -> None:
        self.stack: list = []  # open Spans and leaf frames [start, nested_time, span]
        self.leaves: dict = {}  # (span id, leaf name) -> [calls, inclusive_s, self_s]
        registry.append(self.leaves)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _before(name, args, kwargs):
    if name == "cli.emit":
        return _arg(args, kwargs, 3, "out").tell()
    return None


def _after(span, pre, args, kwargs, result):
    if span.name == "quantization.solve_general_n" and result is not None:
        span.attrs["roots"] = len(result)
    elif span.name == "cli.emit":
        span.attrs["bytes"] = _arg(args, kwargs, 3, "out").tell() - pre
    elif span.name == "oracle.fd_eigensolve_free":
        points = _arg(args, kwargs, 3, "grid").n_points
        rows = points - 2
        if kwargs.get("target_e2") is not None:
            rows += 2 * points - 3  # the refinement re-solves on 2N-1 points
            span.attrs["refinements"] = 1
        span.attrs["matrix_rows"] = rows


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.invocation = 0
        self._ids = itertools.count(1)
        self._leaf_tables: list[dict] = []
        self._local = _Local(self._leaf_tables)
        self._main_stack = self._local.stack
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _enclosing(self, stack) -> Span | None:
        """The innermost open span: this thread's, or for a pool thread with
        none open, that of the invocation's main thread."""
        if not stack:
            stack = self._main_stack
        try:
            top = stack[-1]
        except IndexError:  # the main thread has no span open either
            return None
        return top[2] if type(top) is list else top

    def _span(self, fn, name):
        local, pc, tt = self._local, time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            stack = local.stack
            parent = self._enclosing(stack)
            span = Span(next(self._ids), name, parent.id if parent else 0,
                        self.invocation, threading.get_ident())
            pre = _before(name, args, kwargs)
            stack.append(span)
            cpu0 = tt()
            span.start = pc()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = pc()
                span.cpu = tt() - cpu0
                stack.pop()
                _after(span, pre, args, kwargs, result)
                self.spans.append(span)

        return wrapper

    def _leaf(self, fn, name):
        local, pc = self._local, time.perf_counter
        enclosing = self._enclosing

        def wrapper(*args, **kwargs):
            stack = local.stack
            top = stack[-1] if stack else None
            if type(top) is list:
                span = top[2]
            else:
                span = top if top is not None else enclosing(stack)
            frame = [pc(), 0.0, span]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = pc() - frame[0]
                if type(top) is list:
                    top[1] += dur
                elif top is not None:
                    top.leaf_time += dur
                key = (span.id if span else 0, name)
                rec = local.leaves.get(key)
                if rec is None:
                    rec = local.leaves[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"dislospec.{layer}") for layer in LAYERS}
        modules["__init__"] = importlib.import_module("dislospec")
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNWRAPPED:
                    continue
                wrappers[obj] = (self._span if name in SPANS else self._leaf)(obj, name)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def begin_invocation(self) -> None:
        self.invocation += 1

    # -- aggregation ---------------------------------------------------------

    def leaf_totals(self) -> dict:
        """(span id, leaf name) -> [calls, inclusive_s, self_s], over all threads."""
        out: dict = {}
        for table in self._leaf_tables:
            for key, rec in table.items():
                acc = out.setdefault(key, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
        return out


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans (union of their
    intervals, across threads) and its own-thread leaves cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(c.start, c.end) for c in children.get(s.id, [])]
        out[s.id] = max(0.0, s.duration - _covered(kids) - s.leaf_time)
    return out


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass: name -> (value, unit)."""
    spans = tracer.spans
    self_t = self_times(spans)
    leaves = tracer.leaf_totals()

    def named(name):
        return [s for s in spans if s.name == name]

    def self_sum(name):
        return sum(self_t[s.id] for s in named(name))

    def leaf_calls(name, under=None):
        return sum(rec[0] for (sid, leaf), rec in leaves.items()
                   if leaf == name and (under is None or sid in under))

    def leaf_self(name):
        return sum(rec[2] for (sid, leaf), rec in leaves.items() if leaf == name)

    def child_count(name, parents):
        ids = {p.id for p in parents}
        return sum(1 for s in named(name) if s.parent in ids)

    solves = named("quantization.solve_general_n")
    solve_ms = [s.duration * 1e3 for s in solves]
    roots = sum(s.attrs.get("roots", 0) for s in solves)
    recurrences = leaf_calls("heun.build_coefficients", {s.id for s in solves})

    pcn = named("observables.persistent_current_numeric")
    pcn_solves = [c for c in (sum(1 for s in solves if s.parent == p.id) for p in pcn) if c]

    spec = named("cli.cmd_spectrum")
    spec_wall = sum(s.duration for s in spec)
    spec_child = sum(s.duration for s in spans if s.parent in {p.id for p in spec})

    fd = named("oracle.fd_eigensolve_free")
    return {
        "quantization.solve_general_n.calls": (len(solves), "count"),
        "quantization.solve_general_n.self_s": (self_sum("quantization.solve_general_n"), "s"),
        "quantization.solve_general_n.p50_ms": (_percentile(solve_ms, 50), "ms"),
        "quantization.solve_general_n.p95_ms": (_percentile(solve_ms, 95), "ms"),
        "quantization.solve_general_n.cpu_p50_ms": (
            _percentile([s.cpu * 1e3 for s in solves], 50), "ms"),
        "quantization.roots": (roots, "count"),
        "quantization.no_roots": (sum(s.error == "NoRoots" for s in solves), "count"),
        "quantization.recurrences_per_root": (recurrences / roots if roots else 0.0, "ratio"),
        "heun.build_coefficients.calls": (leaf_calls("heun.build_coefficients"), "count"),
        "heun.build_coefficients.self_s": (leaf_self("heun.build_coefficients"), "s"),
        "heun.truncation_residual.calls": (leaf_calls("heun.truncation_residual"), "count"),
        "core.heun_params.calls": (leaf_calls("core.heun_params"), "count"),
        "oracle.ode_residual.calls": (len(named("oracle.ode_residual")), "count"),
        "oracle.ode_residual.self_s": (self_sum("oracle.ode_residual"), "s"),
        "oracle.fd_eigensolve_free.calls": (len(fd), "count"),
        "oracle.fd_eigensolve_free.self_s": (self_sum("oracle.fd_eigensolve_free"), "s"),
        "oracle.fd_eigensolve_free.matrix_rows": (
            sum(s.attrs.get("matrix_rows", 0) for s in fd), "rows"),
        "oracle.fd_eigensolve_free.refinements": (
            sum(s.attrs.get("refinements", 0) for s in fd), "count"),
        "observables.persistent_current_numeric.calls": (len(pcn), "count"),
        "observables.persistent_current_numeric.self_s": (
            self_sum("observables.persistent_current_numeric"), "s"),
        "observables.persistent_current_numeric.solves_per_call": (
            sum(pcn_solves) / len(pcn_solves) if pcn_solves else 0.0, "ratio"),
        "observables.persistent_current_numeric.kinks": (
            sum(s.error == "KinkDetected" for s in pcn), "count"),
        "cli.cmd_spectrum.self_s": (self_sum("cli.cmd_spectrum"), "s"),
        "cli.cmd_spectrum.parallelism": (spec_child / spec_wall if spec_wall else 0.0, "ratio"),
        "cli.cmd_verify.self_s": (self_sum("cli.cmd_verify"), "s"),
        "cli.cmd_verify.solves": (
            child_count("quantization.solve_general_n", named("cli.cmd_verify")), "count"),
        "cli.cmd_current.self_s": (self_sum("cli.cmd_current"), "s"),
        "cli.emit.self_s": (self_sum("cli.emit"), "s"),
        "cli.emit.bytes": (sum(s.attrs.get("bytes", 0) for s in named("cli.emit")), "bytes"),
    }
