"""End-to-end service smoke: both server setups, one client each.

``python -m repro.serve.smoke`` is the CI fast-lane's service check: it
starts a real :class:`~repro.serve.server.SweepServer` on an ephemeral
port (in-process, on a daemon thread), drives it with the synchronous
client, and asserts the service contract end to end —

* a served sweep is byte-identical (post ``to_dict``) to the same
  sweep evaluated locally,
* the repeat request is answered from the cache with zero new engine
  evaluations,
* a point query agrees with the sweep's slice,
* a malformed spec answers ``bad-spec`` and the next sweep is still
  served,
* ``shutdown`` stops the server cleanly,

first on the default server (one worker, memory-only cache), then on a
two-worker server over a fresh temporary disk-cache directory, which
it restarts to check the warm-restart contract: the new server serves
the repeat from disk with zero evaluations.  Exit code 0 means the
service path works on this interpreter; any assertion or hang (the
thread join is bounded) fails the step.
"""

from __future__ import annotations

import sys
import tempfile
from typing import Any, Dict, List, Optional

from ..engine.sweep import Axis, Sweep
from ..oscillator import RingConfiguration
from ..tech import CMOS035
from .client import ServeClient, ServeError
from .protocol import E_BAD_SPEC
from .server import start_server_thread

__all__ = ["main"]


def _check_contract(sweep: Sweep, local: Dict[str, Any], **server_kwargs: Any) -> None:
    """Round trip, cache hit, point query, bad spec and shutdown."""
    handle = start_server_thread(**server_kwargs)
    try:
        with ServeClient("127.0.0.1", handle.port) as client:
            pong = client.ping()
            assert pong["version"] == Sweep.SCHEMA_VERSION, pong

            served = client.sweep_payload(sweep)
            assert served == local, "served result differs from local evaluation"

            before = client.stats()["evaluations"]
            repeat = client.sweep_payload(sweep)
            after = client.stats()
            assert repeat == local, "cached result differs from local evaluation"
            assert after["evaluations"] == before, (
                f"repeat request re-evaluated: {before} -> {after['evaluations']}"
            )
            assert after["cache"]["hits"] >= 1, after["cache"]

            base = Sweep(
                technology=CMOS035, configuration=RingConfiguration.parse("5INV")
            ).observe("period")
            point = client.point(base, 25.0)
            assert point.select(temperature=25.0).item() == (
                sweep.run().select(temperature=25.0).item()
            ), "point query disagrees with the sweep slice"

            # A tap stage outside the ring fails inside the engine, on
            # a worker; the next (uncached) sweep must still evaluate.
            malformed = sweep.to_dict()
            malformed["base"]["tap_stage"] = 99
            try:
                client.sweep_payload(malformed)
            except ServeError as error:
                assert error.code == E_BAD_SPEC, error
            else:
                raise AssertionError("a malformed spec was served")
            following = base.over(Axis.temperature([0.0, 50.0]))
            assert client.sweep_payload(following) == following.run().to_dict(), (
                "the sweep after a malformed spec was not served"
            )

            client.shutdown()
    finally:
        handle.stop()
    alive = handle.thread is not None and handle.thread.is_alive()
    assert not alive, "server thread survived shutdown"


def _check_warm_restart(sweep: Sweep, local: Dict[str, Any], **server_kwargs: Any) -> None:
    """A fresh server over a warm disk cache serves with zero evaluations."""
    restarted = start_server_thread(**server_kwargs)
    try:
        with ServeClient("127.0.0.1", restarted.port) as client:
            warm = client.sweep_payload(sweep)
            assert warm == local, "disk-cached result differs from local"
            stats = client.stats()
            assert stats["evaluations"] == 0, (
                f"warm restart re-evaluated: {stats['evaluations']}"
            )
            assert stats["cache"]["disk"]["hits"] >= 1, stats["cache"]
            client.shutdown()
    finally:
        restarted.stop()


def main(argv: Optional[List[str]] = None) -> int:
    del argv  # no options: the smoke is deliberately fixed
    sweep = (
        Sweep(technology=CMOS035, configuration=RingConfiguration.parse("5INV"))
        .over(Axis.temperature([-40.0, 25.0, 125.0]))
        .observe("period")
    )
    local = sweep.run().to_dict()

    _check_contract(sweep, local)
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as cache_dir:
        _check_contract(sweep, local, workers=2, cache_dir=cache_dir)
        _check_warm_restart(sweep, local, workers=2, cache_dir=cache_dir)
    print(
        "repro.serve smoke: ok (round trip, cache hit, point query, bad spec, "
        "shutdown; 1 worker in memory, then 2 workers on a disk cache with a "
        "warm restart from disk)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
