"""The benchmark's four workloads: seeded requests, closed loops, checks.

Each workload is a :class:`Phase`.  ``setup()`` makes it ready (library
built, server bound, one warm-up op on an input that is not part of the
workload), ``requests()`` turns the seed into plain-data requests,
``begin()`` / ``run()`` / ``end()`` drive them through the public API
and check every output outside the timed region, and ``close()`` stops
what ``setup()`` started.  ``end_to_end()`` and ``layers()`` turn the
measured :class:`Outcome` (and, for a traced run, the spans) into
metrics.

Why these four (the predictions each is there to test):

mc-sweep
    Local Monte-Carlo period sweeps, dense and streamed through tiles.
    The device kernel is most of ``run()``; no serve code runs, so a
    kernel change moves it and a serve change does not.  The dense
    working set is larger than a core's L2 and a tile is not, so a
    change to the dense/tiled split shows here.
serve-large
    Multi-MB served sweeps, each cold once and then repeated; every
    repeat is a memory-cache hit, where canonicalization, JSON encode
    and client decode cost far more than the evaluation.
serve-points
    Non-repeating point queries from two connections: per-request cost
    (canonicalization, the batch window, the scheduler, a tiny kernel).
    A change that helps large payloads but taxes small requests shows.
paper-runner
    ``run_all()`` over the paper's 15 experiments; the only workload
    that runs ``thermal``, ``core`` and ``circuit``.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import (
    CMOS035,
    PAPER_FIG3_CONFIGURATIONS,
    Axis,
    Sweep,
    sample_technology_array,
)
from repro.engine.reducers import MeanReducer, PercentileReducer
from repro.experiments.runner import ExperimentRegistry, default_registry, run_all
from repro.serve import ServeClient, ServeError, start_server_thread
from repro.tech.libraries import get_technology

from spans import Tracer

WORKLOADS = ("mc-sweep", "serve-large", "serve-points", "paper-runner")

#: End-to-end metrics printed for reading but not gated by a bound: a
#: point-latency tail moves 70% when a slow spell of the shared machine
#: covers a run, against 15-30% for the medians and rates.
UNGATED = ("point_tail_ms",)

#: Percentiles the streamed reduction computes over the sample axis.
REDUCE_PERCENTILES = (5.0, 50.0, 95.0)

#: Fig. 3 configurations the point queries ask about; the warm-up point
#: uses a configuration outside this set.
POINT_CONFIGURATIONS = ("5INV", "3INV+2NAND3", "2INV+3NAND2", "5NAND2")
WARMUP_CONFIGURATION = "2INV+3NOR2"


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  ``FULL`` is the benchmark; ``TINY`` the self-test."""

    mc_samples: int = 1000
    temperatures: int = 201
    #: Tile budget of the streamed reduction: 16384 float64 elements
    #: (128 KiB) keeps a tile's working set inside a core's L2, which
    #: the dense 1000 x 201 pass does not fit.
    tile_elements: int = 1 << 14
    #: Every k-th dense result is re-run through serial tiles.
    dense_check_every: int = 4
    #: 250 x 201 periods encode to ~1.2 MB: above the 1 MiB stream
    #: threshold, and 50 of them fit the default 64 MiB memory cache.
    large_samples: int = 250
    large_repeats: int = 5
    warmup_samples: int = 64
    point_check_every: int = 10


FULL = Sizes()
TINY = Sizes(
    mc_samples=12,
    temperatures=7,
    tile_elements=16,
    dense_check_every=2,
    large_samples=10,
    large_repeats=2,
    warmup_samples=4,
    point_check_every=3,
)


class Outcome:
    """Latencies of succeeded ops and attempted/failed counts per op kind."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = collections.defaultdict(list)
        self.attempted: collections.Counter = collections.Counter()
        self.failed: collections.Counter = collections.Counter()
        self.errors: List[str] = []
        self.mismatches = 0
        self.wall_s = 0.0
        self.extra: Dict[str, Any] = {}

    def record(self, kind: str, latency_s: float, error: Optional[str] = None,
               mismatch: bool = False) -> None:
        """Count one op; a failed or mismatching op keeps no latency."""
        self.attempted[kind] += 1
        if error is None:
            self.latencies[kind].append(latency_s)
            return
        self.failed[kind] += 1
        self.mismatches += int(mismatch)
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {error}")


def median(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else float("nan")


#: Highest percentile a tail reports.  On a shared 2-vCPU VM slow
#: latencies come in bursts of a few hundred milliseconds, so a tail
#: set by the last ten samples is set by one burst: over ten runs of
#: 800 point queries, p99 spread 0.24 of its median and p90 0.11, and in
#: ten-run sets of the benchmark p95 reached 0.27 to 0.45.
TAIL_CAP = 90


def tail(values: Sequence[float]) -> Tuple[float, int, int]:
    """The highest whole percentile, up to ``TAIL_CAP``, with at least
    ten samples beyond it.

    Returns ``(value, percentile, sample count)``; with ten samples or
    fewer no percentile qualifies and the maximum is returned as p100.
    """
    count = len(values)
    if count <= 10:
        return (float(np.max(values)) if count else float("nan")), 100, count
    percentile = min(TAIL_CAP, math.floor(100.0 * (count - 10) / count))
    return float(np.percentile(values, percentile)), percentile, count


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _same(served, local) -> bool:
    """Bitwise equality of two labelled results."""
    return (
        served.dims == local.dims
        and served.coords == local.coords
        and served.values.dtype == local.values.dtype
        and served.values.tobytes() == local.values.tobytes()
    )


def _describe(error: Exception) -> str:
    """A failed op's reason; a ``ServeError`` keeps its protocol code."""
    if isinstance(error, ServeError):
        return f"[{error.code}] {error.message}"
    return f"{type(error).__name__}: {error}"


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


def requests_digest(requests: Sequence[Mapping]) -> str:
    return hashlib.sha256(json.dumps(list(requests), sort_keys=True).encode()).hexdigest()


class Phase:
    """One workload.  Subclasses fill in the hooks below.

    A measurement is ``begin(tracer)``, then ``run(chunk)`` over
    consecutive slices of the request list (so a run can interleave
    phases in time), then ``end()``, which returns the :class:`Outcome`.
    """

    name = ""
    #: Nominal seconds per request on a 2-core x86 machine; sizes a run
    #: to ``--seconds`` with a request count that does not depend on
    #: how fast the code under test is.
    unit_s = 1.0
    min_count = 1
    #: Requests when this workload rides along in another workload's run.
    companion_count = 1

    def __init__(self, sizes: Sizes = FULL) -> None:
        self.sizes = sizes
        self.temperatures = np.linspace(-50.0, 150.0, sizes.temperatures)
        self.tracer = Tracer()
        self.outcome = Outcome()

    @classmethod
    def count_for(cls, seconds: float) -> int:
        return max(cls.min_count, round(seconds / cls.unit_s))

    def requests(self, seed: int, purpose: int, count: int) -> List[Dict[str, Any]]:
        """``count`` requests from ``seed``; ``purpose`` separates streams."""
        rng = np.random.default_rng([seed, WORKLOADS.index(self.name), purpose])
        return self.generate(rng, count)

    def generate(self, rng: np.random.Generator, count: int) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def setup(self) -> None:
        pass

    def begin(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.outcome = Outcome()

    def run(self, requests: Sequence[Mapping]) -> None:
        raise NotImplementedError

    def end(self) -> Outcome:
        return self.outcome

    def measure(self, requests: Sequence[Mapping], tracer: Tracer) -> Outcome:
        self.begin(tracer)
        self.run(requests)
        return self.end()

    def end_to_end(self, outcome: Outcome) -> List[Tuple[str, float, str, str]]:
        """``(name, value, unit, note)`` for this workload's metrics."""
        raise NotImplementedError

    def layers(self, tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- shared pieces -------------------------------------------------- #

    def _population_requests(self, rng: np.random.Generator, count: int):
        labels = list(PAPER_FIG3_CONFIGURATIONS)
        return [
            {
                "configuration": labels[int(rng.integers(len(labels)))],
                "population_seed": int(rng.integers(2**31)),
            }
            for _ in range(count)
        ]

    def _mc_sweep(self, request: Mapping, samples: int) -> Sweep:
        population = sample_technology_array(
            CMOS035, samples, seed=request["population_seed"]
        )
        return (
            Sweep(technology=CMOS035, configuration=request["configuration"])
            .over(Axis.sample(population), Axis.temperature(self.temperatures))
            .observe("period")
        )


def kernel_layers(tracer: Tracer, evaluations: int) -> Dict[str, float]:
    """The device-kernel metrics over ``evaluations`` dense evaluations."""
    isat = tracer.total("kernel.isat")
    return {
        "kernel.isat_calls": _ratio(tracer.count("kernel.isat"), evaluations),
        "kernel.isat_ms": 1e3 * _ratio(isat, evaluations),
        "kernel.isat_share": _ratio(isat, tracer.total("sweep.execute", "sweep.reduce")),
        "sweep.execute_self_ms": 1e3
        * _ratio(tracer.self_time("sweep.execute"), tracer.count("sweep.execute")),
    }


class McSweep(Phase):
    name = "mc-sweep"
    unit_s = 0.32
    min_count = 11
    companion_count = 28

    def generate(self, rng, count):
        return self._population_requests(rng, count)

    def _reducers(self) -> Dict[str, Any]:
        return {
            "mean": MeanReducer(dims=["sample"]),
            "percentiles": PercentileReducer(list(REDUCE_PERCENTILES), dims=["sample"]),
        }

    def _reduce(self, sweep: Sweep):
        return sweep.reduce(
            self._reducers(), executor="serial", max_tile_elements=self.sizes.tile_elements
        )

    def setup(self) -> None:
        warmup = {"configuration": WARMUP_CONFIGURATION, "population_seed": 2**31}
        sweep = self._mc_sweep(warmup, self.sizes.warmup_samples)
        sweep.run()
        self._reduce(sweep)

    def _check(self, sweep: Sweep, dense, reduced, against_tiles: bool) -> Optional[str]:
        if against_tiles:
            tiled = sweep.run(executor="serial", max_tile_elements=self.sizes.tile_elements)
            if not _same(tiled, dense):
                return "dense result differs from the serial-tile run"
        axis = dense.axis_index("sample")
        if not np.allclose(
            reduced["mean"], np.mean(dense.values, axis=axis), rtol=1e-12, atol=0.0
        ):
            return "streamed mean differs from numpy's"
        expected = np.percentile(dense.values, list(REDUCE_PERCENTILES), axis=axis)
        if not np.array_equal(reduced["percentiles"], expected):
            return "streamed percentiles differ from numpy's"
        return None

    def begin(self, tracer):
        super().begin(tracer)
        self.outcome.extra["elements"] = 0

    def run(self, requests):
        outcome, tracer = self.outcome, self.tracer
        sweeps = [self._mc_sweep(r, self.sizes.mc_samples) for r in requests]
        for sweep in sweeps:
            start = time.perf_counter()
            try:
                dense = tracer.call("op.sweep", sweep.run)
                run_s = time.perf_counter() - start
                start = time.perf_counter()
                reduced = tracer.call("op.reduce", self._reduce, sweep)
                reduce_s = time.perf_counter() - start
            except Exception as error:  # noqa: BLE001 - counted as a failed op
                outcome.record("sweep.run", 0.0, _describe(error))
                continue
            outcome.wall_s += run_s + reduce_s
            against_tiles = outcome.attempted["sweep.run"] % self.sizes.dense_check_every == 0
            with tracer.paused():
                problem = self._check(sweep, dense, reduced, against_tiles)
            outcome.record("sweep.run", run_s, problem, mismatch=problem is not None)
            outcome.record("sweep.reduce", reduce_s, problem, mismatch=problem is not None)
            if problem is None:
                outcome.extra["elements"] += 2 * dense.values.size

    def end_to_end(self, outcome):
        runs = outcome.latencies["sweep.run"]
        reduces = outcome.latencies["sweep.reduce"]
        busy = sum(runs) + sum(reduces)
        value, percentile, count = tail(runs)
        return [
            ("mc_melem_per_s", _ratio(outcome.extra["elements"], busy) / 1e6, "Melem/s",
             f"{outcome.extra['elements']} elements over {busy:.3f} s of run+reduce"),
            ("sweep_p50_ms", 1e3 * median(runs), "ms", f"n={len(runs)}"),
            ("sweep_tail_ms", 1e3 * value, "ms", f"p{percentile} of n={count}"),
            ("reduce_p50_ms", 1e3 * median(reduces), "ms", f"n={len(reduces)}"),
        ]

    def layers(self, tracer, outcome):
        tiles = tracer.counts["tiling.tiles"]
        metrics = kernel_layers(tracer, tracer.count("sweep.execute") + tiles)
        metrics["tiling.tiles"] = _ratio(tiles, tracer.count("sweep.reduce"))
        metrics["reduce.tile_ms"] = 1e3 * _ratio(tracer.total("sweep.reduce"), tiles)
        return metrics


class _Served(Phase):
    """A workload against an in-process server on default settings."""

    connections = 1

    def setup(self) -> None:
        self.handle = start_server_thread()
        self.clients = [
            ServeClient("127.0.0.1", self.handle.port) for _ in range(self.connections)
        ]
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        with self.tracer.paused():
            return self.clients[0].stats()

    def begin(self, tracer):
        super().begin(tracer)
        self.before = self.stats()

    def close(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
        if getattr(self, "handle", None) is not None:
            self.handle.stop()
            self.handle = None


class ServeLarge(_Served):
    name = "serve-large"
    unit_s = 1.45
    min_count = 2
    companion_count = 6

    def generate(self, rng, count):
        return self._population_requests(rng, count)

    def warm_up(self) -> None:
        warmup = {"configuration": WARMUP_CONFIGURATION, "population_seed": 2**31}
        self.clients[0].sweep(self._mc_sweep(warmup, self.sizes.warmup_samples).to_dict())

    def _timed(self, kind: str, spec: Mapping):
        """One sweep request; returns ``(result, seconds)`` or records a failure."""
        start = time.perf_counter()
        try:
            result = self.tracer.call(f"op.{kind}", self.clients[0].sweep, spec)
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            self.outcome.record(kind, 0.0, _describe(error))
            return None, 0.0
        latency = time.perf_counter() - start
        self.outcome.wall_s += latency
        return result, latency

    def run(self, requests):
        outcome = self.outcome
        sweeps = [self._mc_sweep(r, self.sizes.large_samples) for r in requests]
        specs = [sweep.to_dict() for sweep in sweeps]
        for sweep, spec in zip(sweeps, specs):
            cold, latency = self._timed("serve.sweep_cold", spec)
            if cold is None:
                continue
            with self.tracer.paused():
                same = _same(cold, sweep.run())
            outcome.record("serve.sweep_cold", latency,
                           None if same else "served sweep differs from local run()",
                           mismatch=not same)
            cold_digest = _digest(cold.values)
            for _ in range(self.sizes.large_repeats):
                hit, latency = self._timed("serve.sweep_hit", spec)
                if hit is None:
                    continue
                same = hit.dims == cold.dims and _digest(hit.values) == cold_digest
                outcome.record("serve.sweep_hit", latency,
                               None if same else "cache hit differs from its cold response",
                               mismatch=not same)

    def end(self):
        after = self.stats()
        self.outcome.extra["cache"] = {
            key: after["cache"][key] - self.before["cache"][key]
            for key in ("hits", "misses", "evictions")
        }
        return self.outcome

    def end_to_end(self, outcome):
        colds = outcome.latencies["serve.sweep_cold"]
        hits = outcome.latencies["serve.sweep_hit"]
        value, percentile, count = tail(hits)
        return [
            ("sweep_cold_p50_ms", 1e3 * median(colds), "ms", f"n={len(colds)}"),
            ("sweep_hit_p50_ms", 1e3 * median(hits), "ms", f"n={len(hits)}"),
            ("sweep_hit_tail_ms", 1e3 * value, "ms", f"p{percentile} of n={count}"),
        ]

    def layers(self, tracer, outcome):
        requests = sum(outcome.attempted.values())
        cache = outcome.extra["cache"]
        metrics = kernel_layers(tracer, tracer.count("sweep.execute"))
        metrics.update({
            "spec.canonical_ms": 1e3
            * _ratio(tracer.total("spec.canonical", "spec.encode"), requests),
            "sweep.from_dict_ms": 1e3 * _ratio(tracer.total("sweep.from_dict"), requests),
            "result.to_dict_ms": 1e3 * _ratio(tracer.total("result.to_dict"), requests),
            "wire.encode_ms": 1e3 * _ratio(tracer.total("wire.encode"), requests),
            "wire.response_bytes": _ratio(tracer.counts["wire.response_bytes"], requests),
            "client.decode_ms": 1e3
            * _ratio(tracer.total("client.json_loads", "result.from_dict"), requests),
            "cache.hit_ratio": _ratio(cache["hits"], cache["hits"] + cache["misses"]),
            "cache.evictions": float(cache["evictions"]),
        })
        return metrics


class ServePoints(_Served):
    name = "serve-points"
    unit_s = 1.0 / 145.0
    min_count = 120
    companion_count = 1000
    connections = 2

    def generate(self, rng, count):
        return [
            {
                "configuration": POINT_CONFIGURATIONS[
                    int(rng.integers(len(POINT_CONFIGURATIONS)))
                ],
                "temperature_c": float(rng.uniform(-40.0, 125.0)),
            }
            for _ in range(count)
        ]

    @staticmethod
    def _base(configuration: str) -> Sweep:
        return Sweep(technology=CMOS035, configuration=configuration).observe("period")

    def warm_up(self) -> None:
        self.clients[0].point(self._base(WARMUP_CONFIGURATION).to_dict(), 27.0)

    def run(self, requests):
        """The chunk from every connection in a closed loop, then its checks."""
        outcome, tracer = self.outcome, self.tracer
        bases = {label: self._base(label).to_dict() for label in POINT_CONFIGURATIONS}
        answers: List[Any] = [None] * len(requests)
        barrier = threading.Barrier(len(self.clients) + 1)
        ends: List[float] = []

        def loop(client: ServeClient, offset: int) -> None:
            barrier.wait()
            for index in range(offset, len(requests), len(self.clients)):
                request = requests[index]
                start = time.perf_counter()
                try:
                    result = tracer.call(
                        "op.point", client.point,
                        bases[request["configuration"]], request["temperature_c"],
                    )
                    answers[index] = (time.perf_counter() - start, result, None)
                except Exception as error:  # noqa: BLE001 - counted as a failed op
                    answers[index] = (0.0, None, _describe(error))
            ends.append(time.perf_counter())

        threads = [
            threading.Thread(target=loop, args=(client, offset), name=f"point-client-{offset}")
            for offset, client in enumerate(self.clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        outcome.wall_s += max(ends) - start
        with tracer.paused():
            for request, (latency, result, error) in zip(requests, answers):
                mismatch = False
                checked = outcome.attempted["serve.point"] % self.sizes.point_check_every == 0
                if error is None and checked:
                    local = (
                        self._base(request["configuration"])
                        .over(Axis.temperature([request["temperature_c"]]))
                        .run()
                    )
                    if not _same(result, local):
                        error, mismatch = "served point differs from a local sweep", True
                outcome.record("serve.point", latency, error, mismatch=mismatch)

    def end(self):
        after = self.stats()
        before = self.before
        self.outcome.extra["server"] = {
            "evaluations": after["evaluations"] - before["evaluations"],
            "batches": after["batcher"]["batches"] - before["batcher"]["batches"],
            "batched_points": after["batcher"]["batched_points"]
            - before["batcher"]["batched_points"],
            "peak_queued": after["scheduler"]["peak_queued"],
        }
        return self.outcome

    def end_to_end(self, outcome):
        points = outcome.latencies["serve.point"]
        value, percentile, count = tail(points)
        return [
            ("point_qps", _ratio(len(points), outcome.wall_s), "1/s",
             f"{len(points)} points in {outcome.wall_s:.3f} s over "
             f"{len(self.clients)} connections"),
            ("point_p50_ms", 1e3 * median(points), "ms", f"n={len(points)}"),
            ("point_tail_ms", 1e3 * value, "ms", f"p{percentile} of n={count}"),
        ]

    def layers(self, tracer, outcome):
        requests = sum(outcome.attempted.values())
        server = outcome.extra["server"]
        metrics = kernel_layers(tracer, tracer.count("sweep.execute"))
        metrics.update({
            "spec.canonical_ms": 1e3
            * _ratio(tracer.total("spec.canonical", "spec.encode"), requests),
            "batcher.points_per_batch": _ratio(server["batched_points"], server["batches"]),
            "server.evaluations_per_request": _ratio(server["evaluations"], requests),
            "scheduler.peak_queued": float(server["peak_queued"]),
        })
        return metrics


class PaperRunner(Phase):
    name = "paper-runner"
    unit_s = 1.1
    min_count = 3
    companion_count = 8

    def generate(self, rng, count):
        order = [str(name) for name in rng.permutation(default_registry().names())]
        return [{"order": order} for _ in range(count)]

    def setup(self) -> None:
        # One experiment at another node: no cache keyed on the
        # benchmark's own inputs warms.
        run_all(get_technology("cmos025"), only=["FIG2"])

    def begin(self, tracer):
        super().begin(tracer)
        self.first: Optional[str] = None
        self.registry = None
        if tracer.enabled:
            self.registry = ExperimentRegistry(
                {
                    name: tracer.wrap(report, f"exp.{name}")
                    for name, report in default_registry().experiments.items()
                }
            )

    def run(self, requests):
        outcome = self.outcome
        for request in requests:
            start = time.perf_counter()
            try:
                report = self.tracer.call(
                    "op.pass", run_all, only=list(request["order"]), registry=self.registry
                )
            except Exception as error:  # noqa: BLE001 - counted as a failed op
                outcome.record("runner.pass", 0.0, _describe(error))
                continue
            latency = time.perf_counter() - start
            outcome.wall_s += latency
            if self.first is None:
                self.first = report
            same = report == self.first
            outcome.record("runner.pass", latency,
                           None if same else "report differs from the first pass",
                           mismatch=not same)

    def end_to_end(self, outcome):
        passes = outcome.latencies["runner.pass"]
        return [("runner_pass_p50_s", median(passes), "s", f"n={len(passes)}")]

    def layers(self, tracer, outcome):
        passes = outcome.attempted["runner.pass"]
        solves = tracer.count("thermal.solve")
        metrics = {
            "thermal.solve_ms": 1e3 * _ratio(tracer.total("thermal.solve"), solves),
            "thermal.iterations": _ratio(tracer.counts["thermal.iterations"], solves),
            "circuit.transient_ms": 1e3 * _ratio(tracer.total("circuit.transient"), passes),
        }
        for name in default_registry().names():
            metrics[f"exp.{name}_s"] = _ratio(tracer.total(f"exp.{name}"), passes)
        return metrics


PHASES = {phase.name: phase for phase in (McSweep, ServeLarge, ServePoints, PaperRunner)}


# --------------------------------------------------------------------------- #
# where the traced run puts its spans
# --------------------------------------------------------------------------- #


def _count_tiles(tracer: Tracer, args, result) -> None:
    tracer.counts["tiling.tiles"] += len(result.tiles)


def _count_bytes(tracer: Tracer, args, result) -> None:
    tracer.counts["wire.response_bytes"] += len(result)


def _steady_iterations(tracer: Tracer, args, result) -> None:
    solve = args[0].steady_solve()
    tracer.counts["thermal.iterations"] += getattr(solve, "last_iterations", 0)


def _step_iterations(tracer: Tracer, args, result) -> None:
    solve = getattr(args[0], "_solve", None)
    tracer.counts["thermal.iterations"] += getattr(solve, "last_iterations", 0)


#: ``(module, name the module binds, span name, counter)``: each public
#: function is wrapped under the name its caller looks it up by.
TRACE_POINTS = (
    ("repro.oscillator.bank", "effective_saturation_current", "kernel.isat", None),
    ("repro.delay.alpha_power", "effective_saturation_current", "kernel.isat", None),
    ("repro.engine.sweep", "SweepPlan.execute", "sweep.execute", None),
    ("repro.engine.sweep", "SweepPlan.reduce", "sweep.reduce", None),
    ("repro.engine.executors", "plan_tiles", "tiling.plan", _count_tiles),
    ("repro.engine.sweep", "Sweep.from_dict", "sweep.from_dict", None),
    ("repro.engine.sweep", "SweepResult.to_dict", "result.to_dict", None),
    ("repro.engine.sweep", "SweepResult.from_dict", "result.from_dict", None),
    ("repro.serve.server", "canonical_spec", "spec.canonical", None),
    ("repro.serve.server", "encode_canonical", "spec.encode", None),
    ("repro.serve.server", "encode_line", "wire.encode", _count_bytes),
    # The size-only encode a hit pays before it re-serializes tiles.
    ("repro.serve.server", "_encode_result", "wire.encode", None),
    ("repro.thermal.operator", "ThermalOperator.steady_rise", "thermal.solve",
     _steady_iterations),
    ("repro.thermal.operator", "ThermalStepper.step", "thermal.solve", _step_iterations),
    ("repro.oscillator.ring", "simulate_transient", "circuit.transient", None),
    ("repro.cells.characterize", "simulate_transient", "circuit.transient", None),
)


def install_trace_points(tracer: Tracer) -> List[str]:
    missing = tracer.install(TRACE_POINTS)
    tracer.install_json_loads("repro.serve.client", "client.json_loads")
    return missing


#: Per-layer metric -> (unit, the end-to-end metric it should move and
#: on which workload).  A traced run reports every one of them.
LAYERS = {
    "spec.canonical_ms": ("ms", "sweep_hit_p50_ms (serve-large), point_p50_ms (serve-points)"),
    "sweep.from_dict_ms": ("ms", "sweep_cold_p50_ms (serve-large)"),
    "result.to_dict_ms": ("ms", "sweep_cold_p50_ms (serve-large)"),
    "sweep.execute_self_ms": ("ms", "sweep_p50_ms (mc-sweep)"),
    "kernel.isat_calls": ("count", "count per evaluation; 10 for a 5-stage ring"),
    "kernel.isat_ms": ("ms", "sweep_p50_ms, mc_melem_per_s (mc-sweep), "
                       "sweep_cold_p50_ms (serve-large); not sweep_hit_p50_ms, point_p50_ms"),
    "kernel.isat_share": ("ratio", "sweep_p50_ms, mc_melem_per_s (mc-sweep), "
                          "sweep_cold_p50_ms (serve-large)"),
    "tiling.tiles": ("count", "reduce_p50_ms (mc-sweep)"),
    "reduce.tile_ms": ("ms", "reduce_p50_ms (mc-sweep)"),
    "wire.encode_ms": ("ms", "sweep_hit_p50_ms, sweep_cold_p50_ms (serve-large)"),
    "wire.response_bytes": ("B", "sweep_hit_p50_ms, sweep_cold_p50_ms (serve-large)"),
    "client.decode_ms": ("ms", "sweep_hit_p50_ms (serve-large)"),
    "cache.hit_ratio": ("ratio", "sweep_hit_p50_ms (serve-large)"),
    "cache.evictions": ("count", "sweep_hit_p50_ms (serve-large)"),
    "batcher.points_per_batch": ("count", "point_qps, point_p50_ms (serve-points)"),
    "server.evaluations_per_request": ("ratio", "point_qps, point_p50_ms (serve-points)"),
    "scheduler.peak_queued": ("count", "point_qps, point_p50_ms (serve-points)"),
    "thermal.solve_ms": ("ms", "runner_pass_p50_s (paper-runner)"),
    "thermal.iterations": ("count", "runner_pass_p50_s (paper-runner)"),
    "circuit.transient_ms": ("ms", "runner_pass_p50_s (paper-runner)"),
    **{
        f"exp.{name}_s": ("s", "runner_pass_p50_s (paper-runner)")
        for name in default_registry().names()
    },
    "trace.overhead_share": ("ratio", "traced over untraced wall time, minus 1"),
}
