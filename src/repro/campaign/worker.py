"""The ``iris-worker`` entrypoint: a socket-attached shard worker.

One worker process serves shard tasks over the wire protocol
(:mod:`repro.campaign.wire`).  A controller connects, primes the
session with a HELLO (campaign identity, snapshot JSON and the trace
as ``IRISTRC2`` bytes), then streams TASK frames; the worker runs each
shard through the same hermetic
:func:`repro.fuzz.parallel._execute_task` path the local pool uses —
which is the whole point: a shard's outcome is a pure function
of the task plus the primed context, so *where* it runs is invisible
in the merged campaign.

While a shard runs, the worker emits HEARTBEAT frames so the
controller can tell a slow shard from a dead worker.  Worker-side
failures never travel as exceptions: ``_execute_task`` converts them
into error outcomes, exactly as on the local pool's stats channel.

The worker accepts campaign data only: every frame goes through the
strict decoders of :mod:`repro.campaign.wire`, and a peer that sends
anything else loses its own connection, nothing more.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading

from repro.campaign import wire
from repro.core.seed import Trace
from repro.core.snapshot import VmSnapshot
from repro.errors import TransportProtocolError
from repro.fuzz.parallel import ShardOutcome, ShardTask, _execute_task

class WorkerServer:
    """Serve shard tasks to any number of controller connections.

    Binds immediately on :meth:`start` (``port=0`` asks the OS for a
    free port — the assigned one is in :attr:`port`, so tests never
    race on a fixed number) and handles each connection on its own
    daemon thread.  ``heartbeat_interval`` paces liveness frames while
    a shard runs; it must be comfortably below the controller's
    ``heartbeat_timeout``.

    Shard execution is serialized process-wide (one shard at a time
    across every server and connection in this process): the hermetic
    per-shard metrics capture swaps the process-global observability
    state, and overlapping installs from sibling threads would race
    its save/restore.  Heartbeats keep flowing while a shard waits
    for its turn, so the controller sees a busy worker, not a dead
    one.
    """

    #: Process-wide shard serialization (see the class docstring).
    _EXEC_LOCK = threading.Lock()

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_interval: float = 0.5,
    ) -> None:
        self.host = host
        self.port = port
        self.heartbeat_interval = heartbeat_interval
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = False
        self._lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        #: Ledger of every shard this server ran, as
        #: ``(cell_index, shard_index, attempt)`` in execution order.
        #: The fault-injection tests read it to prove a reassigned
        #: shard ran exactly once more — never zero, never twice.
        self.executed: list[tuple[int, int, int]] = []

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WorkerServer":
        """Bind, record the assigned port, and serve in the background."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen()
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"iris-worker-accept-{self.port}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def join(self) -> None:
        """Block until the server is stopped (the CLI's steady state)."""
        if self._accept_thread is not None:
            self._accept_thread.join()

    def stop(self) -> None:
        """Stop accepting and sever every live connection (idempotent).

        ``close()`` alone does not wake a thread blocked in
        ``accept()``/``recv()`` on the same socket, so every socket is
        shut down first: that returns the blocked call at once and the
        accept thread exits instead of outliving the join timeout.
        """
        self._stopping = True
        with self._lock:
            connections = list(self._connections)
        sockets = [self._listener, *connections]
        for sock in sockets:
            if sock is None:
                continue
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # never connected, or already shut down
            try:
                sock.close()
            except OSError:
                pass
        if (
            self._accept_thread is not None
            and self._accept_thread is not threading.current_thread()
        ):
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def address(self) -> str:
        """``host:port`` with the *assigned* port, fixture-ready."""
        return f"{self.host}:{self.port}"

    # -- serving -------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"iris-worker-conn-{self.port}",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            self._session(conn)
        except (TransportProtocolError, OSError):
            # A broken peer only costs this connection; the accept
            # loop keeps serving.
            pass
        finally:
            with self._lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _session(self, conn: socket.socket) -> None:
        frame = wire.recv_frame(conn)
        if frame is None:
            return
        kind, payload, _ = frame
        if kind is not wire.FrameKind.HELLO:
            raise TransportProtocolError(
                f"session opened with {kind.name}, expected HELLO"
            )
        identity, trace, snapshot = wire.decode_hello(payload)
        wire.send_frame(
            conn, wire.FrameKind.HELLO_ACK,
            wire.encode_hello_ack(os.getpid()),
        )
        del identity  # campaign coordinates; informational only
        while True:
            frame = wire.recv_frame(conn)
            if frame is None:
                return
            kind, payload, _ = frame
            if kind is wire.FrameKind.BYE:
                return
            if kind is not wire.FrameKind.TASK:
                raise TransportProtocolError(
                    f"unexpected {kind.name} frame mid-session"
                )
            task = wire.decode_task(payload)
            with self._lock:
                self.executed.append(
                    (task.cell_index, task.shard_index, task.attempt)
                )
            outcome = self._run_with_heartbeats(
                conn, task, trace, snapshot
            )
            self._send_result(conn, outcome)

    def _run_with_heartbeats(
        self,
        conn: socket.socket,
        task: ShardTask,
        trace: Trace,
        snapshot: VmSnapshot | None,
    ) -> ShardOutcome:
        """Execute on a side thread, heartbeating until it finishes."""
        box: dict[str, ShardOutcome] = {}
        done = threading.Event()

        def runner() -> None:
            try:
                with WorkerServer._EXEC_LOCK:
                    box["outcome"] = _execute_task(
                        task, trace, snapshot
                    )
            finally:
                done.set()

        thread = threading.Thread(
            target=runner, name="iris-worker-shard", daemon=True
        )
        thread.start()
        while not done.wait(self.heartbeat_interval):
            wire.send_frame(conn, wire.FrameKind.HEARTBEAT, b"")
        outcome = box.get("outcome")
        if outcome is None:
            # The runner thread died outside _execute_task's net
            # (e.g. MemoryError); surface it as an error outcome.
            outcome = ShardOutcome(
                cell_index=task.cell_index,
                shard_index=task.shard_index,
                attempt=task.attempt,
                error="worker shard thread died without an outcome",
                worker_pid=os.getpid(),
            )
        return outcome

    def _send_result(
        self, conn: socket.socket, outcome: ShardOutcome
    ) -> None:
        wire.send_frame(
            conn, wire.FrameKind.RESULT, wire.encode_outcome(outcome)
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="iris-worker",
        description=(
            "Serve IRIS campaign shards over the worker wire "
            "protocol (connect with iris-fuzz --workers host:port)."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: %(default)s)",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="port to bind; 0 asks the OS for a free one "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=0.5,
        metavar="SECONDS",
        help="pace of liveness frames while a shard runs "
             "(default: %(default)s)",
    )
    args = parser.parse_args(argv)
    server = WorkerServer(
        host=args.host,
        port=args.port,
        heartbeat_interval=args.heartbeat_interval,
    )
    server.start()
    # The one line a launcher needs: the assigned address.
    print(
        f"iris-worker listening on {server.address}",
        flush=True,
    )
    try:
        server.join()
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
