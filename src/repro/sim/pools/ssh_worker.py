"""Remote worker loop for :class:`repro.sim.pools.ssh.SSHPool`.

One instance of this module runs per worker slot, launched as
``ssh HOST 'cd REPO && PYTHONPATH=src python -u -m
repro.sim.pools.ssh_worker'`` (or locally, through the sshd-less
loopback transport used by the conformance suite and CI).  The parent
speaks a framed-pickle request/reply protocol over the worker's
stdin/stdout:

* frame = 8-byte big-endian length + pickle blob;
* parent → worker: ``("warm", benchmarks)`` (no reply — the warm-up
  stats ride the next chunk reply, mirroring the local pool),
  ``("ping", token)`` (reply ``("result", ("pong", token))`` — the
  liveness heartbeat and circuit-breaker probe of
  docs/INTERNALS.md §16), ``("chunk", payload)`` (reply
  ``("result", (warmup, outcomes, chunk_info))`` — the worker passes
  :func:`repro.sim.pools.worker.run_chunk`'s reply through unchanged,
  so the telemetry snapshot rides the existing protocol with no new
  message kinds),
  ``("exit",)`` (worker terminates);
* worker → parent: ``("result", value)`` or ``("error", exception)``
  for a request that blew up outside the per-cell error contract.

The worker's real stdout is reserved for protocol frames: on startup
file descriptor 1 is re-pointed at stderr, so a stray ``print`` inside
simulation code cannot corrupt the stream.  A ``worker_crash`` fault
injection calls ``os._exit`` inside :func:`repro.sim.pools.worker
.run_chunk`, which the parent observes as EOF — exactly like a
segfaulting or OOM-killed worker.
"""

from __future__ import annotations

import os
import sys
from typing import BinaryIO

from repro.sim.pools.wire import read_frame, write_frame


def serve(inbound: BinaryIO, outbound: BinaryIO) -> int:
    """Request loop; returns the exit status."""
    from repro.sim.pools import worker as worker_mod

    while True:
        try:
            message = read_frame(inbound)
        except EOFError:
            return 1
        if message is None or message[0] == "exit":
            return 0
        kind = message[0]
        try:
            if kind == "warm":
                worker_mod.pool_initializer(tuple(message[1]))
                continue  # stats ride the next chunk reply
            if kind == "ping":
                token = message[1] if len(message) > 1 else None
                write_frame(outbound, ("result", ("pong", token)))
                continue
            if kind == "chunk":
                write_frame(
                    outbound, ("result", worker_mod.run_chunk(message[1]))
                )
                continue
            raise ValueError(f"unknown request {kind!r}")
        except SystemExit:
            raise
        except BaseException as error:  # noqa: BLE001 — reply, don't die
            write_frame(outbound, ("error", worker_mod.picklable(error)))


def main() -> int:
    # Claim the protocol stream, then point fd 1 at stderr so stray
    # prints from simulation code cannot corrupt framing.
    outbound = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    inbound = os.fdopen(os.dup(0), "rb")
    return serve(inbound, outbound)


if __name__ == "__main__":
    sys.exit(main())
