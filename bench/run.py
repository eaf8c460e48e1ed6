"""dislospec benchmark: whole-CLI workloads, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths resolve from this file).
The package is imported from ./src, so nothing needs to be installed.

--trace 0 times the workload end to end: every CLI call is a child process
(`python -m dislospec ...`), one at a time, closed loop.  It starts whole
passes of the workload until --seconds have gone by, at least two so stdout
can be compared between passes, and times `dislospec --help` children
(interpreter start plus package import) before the first pass and after
each pass.  Every output row is checked (bench/check.py).

--trace 1 runs one pass in-process through dislospec.cli.main, untraced and
then traced (bench/tracing.py), checks the traced output and reports the
per-layer metrics plus the tracing overhead.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it holds run details and metadata that are
recorded but not gated on.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# `--help` children timed before the first pass; one more follows each pass.
SETUP_REPS_FIRST = 2
MIN_PASSES = 2
# A run must end within 180 s; no pass starts that could cross this.
RUN_BUDGET_S = 165.0


@dataclass
class Child:
    code: int
    stdout: bytes
    wall: float
    maxrss_mb: float


def _drain(proc: subprocess.Popen, deadline: float) -> bytes:
    """Read stdout and stderr to EOF without reaping the child; kill it at the deadline."""
    out: list[bytes] = []
    killed = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, None)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0 and not killed:
                os.kill(proc.pid, signal.SIGKILL)
                killed = True
            for key, _ in sel.select(timeout=max(left, 1.0)):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    if key.data is not None:
                        key.data.append(chunk)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(out)


def run_child(argv: tuple[str, ...], deadline: float) -> Child:
    """One `dislospec` call; max RSS comes from wait4 on this child alone
    (RUSAGE_CHILDREN would be a running maximum over all of them)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "dislospec", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        stdout = _drain(proc, deadline)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    return Child(proc.returncode, stdout, wall, usage.ru_maxrss / 1024.0)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(
    wl: workloads.Workload, seconds: float, started: float
) -> tuple[dict, dict, check.Report]:
    deadline = started + RUN_BUDGET_S
    report = check.Report()

    def setup_sample() -> Child:
        child = run_child(("--help",), deadline)
        ok = child.code == 0 and child.stdout.startswith(b"usage: dislospec")
        report.item([] if ok else [f"--help exit {child.code}"], "--help", is_row=False)
        return child

    setup_sample()  # warm-up: bytecode cache, page cache
    # Set-up samples are spread over the run, so that their median sees the
    # same machine conditions as the passes do.
    setup = [setup_sample() for _ in range(SETUP_REPS_FIRST)]
    passes: list[list[Child]] = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        longest = max((sum(c.wall for c in p) for p in passes), default=0.0)
        if time.perf_counter() + longest > deadline:
            break
        passes.append([run_child(inv.argv, deadline) for inv in wl.invocations])
        setup.append(setup_sample())

    rows_ok = []
    for i, children in enumerate(passes):
        rows_ok.append(0)
        for inv, child, first in zip(wl.invocations, children, passes[0]):
            r = check.check(inv, child.code, child.stdout)
            rows_ok[-1] += r.rows_ok
            report.merge(r)
            if i > 0:
                same = child.stdout == first.stdout
                report.item([] if same else ["stdout differs from pass 1"],
                            " ".join(inv.argv), is_row=False)
    if len(passes) < MIN_PASSES:
        report.item([f"only {len(passes)} pass(es) fit in the run budget"], wl.name, is_row=False)

    # The wall of one pass, taken call by call: the sum of each call's median
    # over the passes, so a burst of machine noise in one call of one pass
    # does not move it.
    wall = sum(statistics.median(c.wall for c in calls) for calls in zip(*passes))
    metrics = {
        "rows_per_s": _metric(statistics.median(rows_ok) / wall, "rows/s"),
        "wall_s": _metric(wall, "s"),
        "setup_s": _metric(statistics.median(c.wall for c in setup), "s"),
        "peak_rss_mb": _metric(
            statistics.median(max(c.maxrss_mb for c in p) for p in passes), "MB"),
    }
    details = {
        "passes": len(passes),
        "pass_wall_s": [sum(c.wall for c in p) for p in passes],
        "setup_s_samples": [c.wall for c in setup],
        "error_rate": report.failed / report.items,
    }
    return metrics, details, report


def _in_process(wl: workloads.Workload, cli, tracer=None) -> tuple[list[tuple[int, bytes]], float]:
    outputs, wall = [], 0.0
    for inv in wl.invocations:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_invocation()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(inv.argv))
        wall += time.perf_counter() - t0
        outputs.append((code, out.getvalue().encode("utf-8")))
    return outputs, wall


def traced(wl: workloads.Workload) -> tuple[dict, dict, check.Report]:
    sys.path.insert(0, str(SRC))
    from dislospec import cli

    plain, plain_wall = _in_process(wl, cli)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs, traced_wall = _in_process(wl, cli, tracer)
    finally:
        tracer.uninstall()

    report = check.Report()
    for inv, (code, stdout), (_, plain_stdout) in zip(wl.invocations, outputs, plain):
        report.merge(check.check(inv, code, stdout))
        report.item([] if stdout == plain_stdout else ["traced stdout differs from untraced"],
                     " ".join(inv.argv), is_row=False)

    metrics = {name: _metric(value, unit)
               for name, (value, unit) in tracing.layer_metrics(tracer).items()}
    worst = report.worst
    metrics["oracle.ode_residual.worst"] = _metric(worst.get("ode_residual", 0.0), "ratio")
    metrics["oracle.fd_match.worst_eff_ge1"] = _metric(worst.get("fd_match_eff_ge1", 0.0), "ratio")
    metrics["oracle.fd_match.worst_eff_lt1"] = _metric(worst.get("fd_match_eff_lt1", 0.0), "ratio")
    metrics["trace.overhead_frac"] = _metric((traced_wall - plain_wall) / plain_wall, "ratio")
    details = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
        "error_rate": report.failed / report.items,
    }
    return metrics, details, report


def _meta() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "dislospec" / "cli.py").is_file():
        print(f"bench: no dislospec sources under {SRC}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    if args.trace:
        metrics, details, report = traced(wl)
    else:
        metrics, details, report = end_to_end(wl, args.seconds, started)

    for note in report.notes:
        print(f"bench: FAILED {note}", file=sys.stderr)
    details.update(workload=wl.name, seed=args.seed, params=vars(wl.params),
                   failures=report.notes[:5], meta=_meta())
    print(json.dumps(details))
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.items,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
