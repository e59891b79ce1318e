#!/usr/bin/env python3
"""Benchmark of the sweep engine, the sweep service and the paper runner.

Run from the repository root:

    python3 perfbench/run.py --workload mc-sweep --seed 1 --seconds 12 --trace 0

Workloads (``workloads.py`` says why each exists): ``mc-sweep``,
``serve-large``, ``serve-points``, ``paper-runner``; BENCHMARK.json runs
the first two.  A run measures its own workload with a request count
sized to about ``--seconds``, and each of the other three as a
fixed-size companion phase, so that one run prints every end-to-end
metric.  Every phase runs in a fresh process of its own, so no phase
inherits another's heap, caches or threads, and the phases take turns
in 24 slices so each one samples the whole run.  ``setup_s`` is the
median, over three processes, of the time from process start to ready
for the run's own workload.

``--trace 0`` prints the end-to-end metrics (``point_tail_ms`` and
``failed_share`` as ``#`` lines, outside the result).  ``--trace 1`` runs the
workload's requests twice, untraced and then traced, and prints the
per-layer metrics of the traced half (companion phases are traced only,
and supply the layers the workload does not exercise); each phase
writes its spans to ``.perfbench/`` when it ends.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).

Every ``REPRO_*`` environment variable is recorded and unset first, so
the library runs on its defaults; temporary files go to
``.perfbench/tmp``.  ``python3 perfbench/selftest.py`` checks the
harness at tiny sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: As in workloads.py; repeated so the parent parses its arguments
#: without importing the library.
WORKLOADS = ("mc-sweep", "serve-large", "serve-points", "paper-runner")
#: Set-up-only processes besides the workload's own measuring process.
EXTRA_SETUPS = 2
#: Slices each phase's requests are cut into and interleaved by.
ROUNDS = 24
PHASE_TIMEOUT_S = 150.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes and the minimum request counts")
    # One phase in a process of its own (set by the parent run).
    parser.add_argument("--phase", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def scrub_environment() -> Dict[str, str]:
    """Record and unset every ``REPRO_*`` variable; keep temp files local."""
    recorded = {name: value for name, value in os.environ.items() if name.startswith("REPRO_")}
    for name in recorded:
        del os.environ[name]
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    return recorded


def provenance() -> str:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return (
        f"cpu_count={os.cpu_count()} python={platform.python_version()} "
        f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')} "
        f"commit={commit} src_sha256={digest.hexdigest()[:16]}"
    )


# --------------------------------------------------------------------------- #
# one phase, in its own process
# --------------------------------------------------------------------------- #


def run_phase(args: argparse.Namespace) -> int:
    """Set up, measure and check one phase; print what the parent needs.

    Untraced, the phase reports ``{"setup_s"}`` when ready and then
    runs the request slices the parent names on standard input
    (``run <start> <stop>``) until ``end``.  Traced, it runs its
    requests at once.  The last line it prints is its report.
    """
    sys.path[:0] = [str(SRC), str(HERE)]
    import spans
    import workloads

    phase = workloads.PHASES[args.phase](workloads.TINY if args.tiny else workloads.FULL)
    phase.setup()
    report: Dict[str, Any] = {"setup_s": time.time() - args.spawned_at}
    count = phase_count(args, phase)
    if args.setup_only:
        phase.close()
        print(json.dumps(report))
        return 0
    tracer = spans.Tracer()
    outcomes = []
    try:
        if not args.trace:
            requests = phase.requests(args.seed, 0, count)
            print(json.dumps({**report, "count": count}), flush=True)
            phase.begin(tracer)
            for line in sys.stdin:
                command = line.split()
                if command[0] == "end":
                    break
                phase.run(requests[int(command[1]):int(command[2])])
                print("done", flush=True)
            outcome = phase.end()
            report["end_to_end"] = phase.end_to_end(outcome)
            report["ungated"] = workloads.UNGATED
            outcomes.append((args.phase, outcome))
        else:
            untraced = None
            if args.phase == args.workload:
                untraced = phase.measure(phase.requests(args.seed, 0, count), tracer)
                outcomes.append((f"{args.phase} (untraced)", untraced))
            requests = phase.requests(args.seed, 1, count)
            report["missing_trace_points"] = workloads.install_trace_points(tracer)
            tracer.enabled = True
            try:
                outcome = phase.measure(requests, tracer)
            finally:
                tracer.enabled = False
                tracer.uninstall()
            outcomes.append((args.phase, outcome))
            layers = phase.layers(tracer, outcome)
            if untraced is not None:
                layers["trace.overhead_share"] = outcome.wall_s / untraced.wall_s - 1.0
            report["layers"] = layers
            path = OUT / f"spans-{args.workload}-seed{args.seed}-{args.phase}.jsonl"
            spans.write_spans(str(path), {args.phase: (tracer.spans, tracer.counts)})
            report["spans"] = str(path.relative_to(ROOT))
    finally:
        phase.close()
    report["count"] = count
    report["requests"] = f"{len(requests)} requests, sha256={workloads.requests_digest(requests)[:16]}"
    report["ops"] = [
        [label, kind, outcome.attempted[kind], outcome.failed[kind]]
        for label, outcome in outcomes for kind in sorted(outcome.attempted)
    ]
    report["errors"] = [error for _, outcome in outcomes for error in outcome.errors]
    report["mismatches"] = sum(outcome.mismatches for _, outcome in outcomes)
    print(json.dumps(report))
    return 0


def phase_command(args: argparse.Namespace, phase: str, setup_only: bool = False) -> List[str]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--phase", phase, "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--spawned-at", repr(time.time()),
    ]
    return command + ["--tiny"] * args.tiny + ["--setup-only"] * setup_only


def run_once(args: argparse.Namespace, phase: str, setup_only: bool = False) -> Dict[str, Any]:
    """A phase process that runs to completion on its own."""
    done = subprocess.run(phase_command(args, phase, setup_only), stdout=subprocess.PIPE,
                          text=True, timeout=PHASE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"phase {phase} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class PhaseProcess:
    """A phase process that runs the request slices it is sent."""

    def __init__(self, args: argparse.Namespace, phase: str) -> None:
        self.phase = phase
        self.process = subprocess.Popen(phase_command(args, phase), stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        self.ready: Dict[str, Any] = {}

    def wait_ready(self) -> None:
        self.ready = json.loads(self._reply())

    def _reply(self) -> str:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"phase {self.phase} exited {self.process.wait()}")
        return line

    def run(self, start: int, stop: int) -> None:
        if stop > start:
            self.process.stdin.write(f"run {start} {stop}\n")
            self.process.stdin.flush()
            self._reply()

    def finish(self) -> Dict[str, Any]:
        self.process.stdin.write("end\n")
        self.process.stdin.flush()
        report = json.loads(self.process.stdout.read().strip().splitlines()[-1])
        if self.process.wait(timeout=PHASE_TIMEOUT_S) != 0:
            raise RuntimeError(f"phase {self.phase} exited {self.process.returncode}")
        return report

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def interleaved(args: argparse.Namespace, order: List[str]) -> Dict[str, Dict[str, Any]]:
    """Run every phase in its own process, in ``ROUNDS`` interleaved slices.

    The machine's speed drifts over seconds; slicing spreads every
    phase's samples over the whole run instead of one short block.  The
    run's own workload sets up alone, since its set-up time is measured;
    the companions set up side by side.
    """
    processes: List[PhaseProcess] = []
    try:
        processes.append(PhaseProcess(args, order[0]))
        processes[0].wait_ready()
        processes.extend(PhaseProcess(args, name) for name in order[1:])
        for process in processes[1:]:
            process.wait_ready()
        for round_index in range(ROUNDS):
            for process in processes:
                count = process.ready["count"]
                process.run(count * round_index // ROUNDS, count * (round_index + 1) // ROUNDS)
        reports = {}
        for process in processes:
            reports[process.phase] = process.finish()
            reports[process.phase]["setup_s"] = process.ready["setup_s"]
        return reports
    finally:
        for process in processes:
            process.kill()


def phase_count(args: argparse.Namespace, phase: Any) -> int:
    if args.tiny:
        return phase.min_count
    if phase.name != args.workload:
        return phase.companion_count
    return phase.count_for(args.seconds / (2 if args.trace else 1))


# --------------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------------- #


def finite(value: float) -> float:
    return float(value) if math.isfinite(value) else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        return 2
    recorded_env = scrub_environment()
    if args.phase:
        return run_phase(args)

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} sizes={'tiny' if args.tiny else 'full'}")
    print(f"# {provenance()}")
    print(f"# REPRO_* recorded and unset: {json.dumps(recorded_env, sort_keys=True)}")

    setup_samples = []
    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    if args.trace:
        reports = {name: run_once(args, name) for name in order}
    else:
        setup_samples = [
            run_once(args, args.workload, setup_only=True)["setup_s"]
            for _ in range(EXTRA_SETUPS)
        ]
        reports = interleaved(args, order)
        setup_samples.append(reports[args.workload]["setup_s"])
    for name in order:
        print(f"# {name}: {reports[name]['requests']}")

    attempted = failed = mismatches = 0
    print("# ops: phase kind attempted succeeded failed")
    for report in reports.values():
        for label, kind, tried, lost in report["ops"]:
            attempted, failed = attempted + tried, failed + lost
            print(f"#   {label:26s} {kind:18s} {tried:6d} {tried - lost:6d} {lost:6d}")
        for error in report["errors"]:
            print(f"#   failed: {error}")
        mismatches += report["mismatches"]
    print(f"# failed_share {failed / attempted if attempted else 0.0:.6f} share "
          f"({failed} of {attempted} ops; {mismatches} output mismatches)")

    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        sys.path[:0] = [str(SRC), str(HERE)]
        import workloads

        # The run's own workload measures a layer on its own traffic;
        # companions supply the layers it does not exercise.
        layers: Dict[str, float] = {}
        for name in reversed(order):
            layers.update(reports[name]["layers"])
            if reports[name]["missing_trace_points"]:
                print(f"# {name}: trace points no longer present: "
                      f"{', '.join(reports[name]['missing_trace_points'])}")
            print(f"# {name}: spans written to {reports[name]['spans']}")
        for name, (unit, moves) in workloads.LAYERS.items():
            value = finite(layers.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:34s} {value:14.6g} {unit:6s} -> {moves}")
    else:
        setup_s = statistics.median(setup_samples)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        print(f"{'setup_s':20s} {setup_s:12.6g} {'s':8s} median of "
              f"{', '.join(f'{s:.3f}' for s in setup_samples)} ({args.workload})")
        for name in order:
            for metric, value, unit, note in reports[name]["end_to_end"]:
                if metric in reports[name]["ungated"]:
                    print(f"# {metric:18s} {value:12.6g} {unit:8s} {note} ({name}; not gated)")
                    continue
                metrics[metric] = {"value": finite(value), "unit": unit}
                print(f"{metric:20s} {value:12.6g} {unit:8s} {note} ({name})")

    print(json.dumps({"correct": mismatches == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
