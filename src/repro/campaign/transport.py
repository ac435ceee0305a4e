"""Worker transports: how shard tasks reach workers and results return.

The campaign engine (:class:`repro.fuzz.parallel.ParallelCampaign`)
plans deterministic :class:`ShardTask` lists and merges
:class:`ShardOutcome` lists — it no longer cares *where* the shards
run.  That question belongs to a :class:`WorkerTransport`:

* :class:`LocalPoolTransport` — the warm ``multiprocessing`` pool
  (behavior-preserving extraction of the engine's previous inline
  pool management, absolute wave deadlines and hang handling
  included);
* :class:`SocketTransport` — remote workers reached over the
  length-prefixed wire protocol (:mod:`repro.campaign.wire`), started
  with the ``iris-worker`` entrypoint
  (:mod:`repro.campaign.worker`).

Because every shard is hermetic — a pure function of its task plus the
(trace, snapshot) context — transports are interchangeable: the merged
campaign output is byte-identical across transports and worker counts,
the property the transport differential suite pins.

Failure semantics (socket transport)
------------------------------------

* **Per-wave deadline**: one absolute deadline covers the whole
  :meth:`~SocketTransport.run_tasks` call; shards unfinished at the
  deadline come back as timeout outcomes, exactly like the local
  pool's hung-shard path.
* **Heartbeats**: a worker streams HEARTBEAT frames while a shard
  runs, so a slow shard and a dead worker are distinguishable; a link
  silent past ``heartbeat_timeout`` is declared dead.
* **Reconnect with backoff**: a dropped link is retried up to
  ``reconnect_attempts`` times with exponential backoff before the
  worker is abandoned for the wave.
* **Exactly-once reassignment**: a shard in flight on a dead link is
  pushed back onto the wave's work queue and picked up by a live
  worker.  An outcome is recorded at most once per task — a result
  lost mid-frame is re-earned, never double-merged — and shards
  hermeticity makes the re-run bit-identical.

Liveness failures never corrupt results; at worst a shard surfaces as
an error outcome and the engine's retry/abandon machinery takes over.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from repro.campaign import wire
from repro.core.seed import Trace
from repro.core.snapshot import VmSnapshot
from repro.errors import (
    TransportError,
    TransportProtocolError,
    WorkerUnavailableError,
)
from repro.fuzz.parallel import ShardOutcome, ShardTask, _execute_task
from repro.obs import OBS


# ---- shared plumbing --------------------------------------------------

@dataclass(frozen=True)
class TransportContext:
    """Everything a worker needs before its first task.

    Shipped exactly once per worker (pool initializer / HELLO frame):
    the recorded trace and snapshot every shard replays from, plus the
    campaign's identity — informational for the local pool, logged by
    remote workers so an operator can tell whose wave a worker serves.
    """

    trace: Trace
    snapshot: VmSnapshot | None
    identity: tuple[tuple[str, str], ...] = ()


@dataclass
class TransportStats:
    """Wall-clock-side transport accounting (observability, never part
    of the deterministic merged result)."""

    frames: int = 0
    bytes: int = 0
    retries: int = 0
    reassignments: int = 0

    def describe(self) -> str:
        return (
            f"{self.frames} frame(s), {self.bytes} byte(s), "
            f"{self.retries} reconnect(s), "
            f"{self.reassignments} reassignment(s)"
        )


class WorkerTransport(Protocol):
    """Where the engine's shards run.

    Implementations must return exactly one outcome per task, in task
    order, and may not invent or duplicate outcomes: the engine's
    retry accounting and the controller's checkpoint/merge algebra
    both assume the task->outcome mapping is a bijection.
    """

    stats: TransportStats

    def prime(self, context: TransportContext) -> None:
        """Install the campaign context (idempotent; first call wins)."""
        ...

    def run_tasks(
        self, tasks: Sequence[ShardTask]
    ) -> list[ShardOutcome]:
        """Execute tasks, one outcome each, in task order."""
        ...

    def close(self) -> None:
        """Release workers/connections (idempotent)."""
        ...

    def describe(self) -> str:
        """One-line human description for logs and stats."""
        ...


#: Per-worker campaign context, installed once by the pool initializer
#: so the (large) trace is pickled once per worker, not once per task.
_WORKER_CONTEXT: tuple[Trace, VmSnapshot | None] | None = None


def _worker_init(trace: Trace, snapshot: VmSnapshot | None) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (trace, snapshot)
    # A forked worker inherits the parent's process-wide observability
    # state — including a Tracer whose sink fd is shared with the
    # parent and every sibling.  Interleaved writes would corrupt the
    # trace and make it scheduling-dependent, so workers always start
    # from the null (disabled) state; per-shard metrics come back on
    # the stats channel instead (``ShardTask.collect_metrics``).
    from repro.obs import uninstall

    uninstall()


def _pool_run_shard(task: ShardTask) -> ShardOutcome:
    """Pool entry point: pull the per-worker context and execute."""
    assert _WORKER_CONTEXT is not None, "worker not initialized"
    trace, snapshot = _WORKER_CONTEXT
    return _execute_task(task, trace, snapshot)


# ---- the local pool ---------------------------------------------------

class LocalPoolTransport:
    """The warm in-process worker pool (the engine's classic path).

    ``jobs=1`` runs every task inline (no pool) through the same
    hermetic per-shard path.  For ``jobs>1`` one pool is created
    lazily and stays **warm** across waves and retries: the (large)
    trace and snapshot ship once per worker through the initializer.
    The pool is torn down (``terminate()``, never a blocking
    ``close()``) in exactly two cases: the transport is closed, or a
    shard overran its deadline — a hung worker cannot be reclaimed,
    and recreating the pool also guarantees a timed-out shard retries
    on a fresh worker.

    Each task's deadline is **absolute** — ``shard_timeout`` seconds
    from the moment the wave is submitted — rather than a per-``get``
    timeout that restarts whenever the previous result arrives, so a
    wave of N queued shards cannot grant its last shard N x
    ``shard_timeout`` of cumulative slack.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        shard_timeout: float | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.shard_timeout = shard_timeout
        self.stats = TransportStats()
        self._context: TransportContext | None = None
        self._pool: multiprocessing.pool.Pool | None = None

    def prime(self, context: TransportContext) -> None:
        if self._context is None:
            self._context = context

    def describe(self) -> str:
        return f"local pool ({self.jobs} job(s))"

    def run_tasks(
        self, tasks: Sequence[ShardTask]
    ) -> list[ShardOutcome]:
        if not tasks:
            return []
        assert self._context is not None, "transport not primed"
        trace, snapshot = self._context.trace, self._context.snapshot
        if self.jobs == 1:
            return [
                _execute_task(task, trace, snapshot)
                for task in tasks
            ]
        pool = self._ensure_pool(len(tasks))
        pending = [
            (task, pool.apply_async(_pool_run_shard, (task,)))
            for task in tasks
        ]
        # Every task's deadline is absolute — measured from wave
        # submission, not from when the previous result happened to be
        # collected — so queue position no longer grants slack.
        deadline = (
            time.monotonic() + self.shard_timeout
            if self.shard_timeout is not None else None
        )
        outcomes: list[ShardOutcome] = []
        hung = False
        for task, handle in pending:
            try:
                if deadline is None:
                    outcomes.append(handle.get())
                else:
                    outcomes.append(handle.get(
                        max(deadline - time.monotonic(), 0.0)
                    ))
            except multiprocessing.TimeoutError:
                hung = True
                outcomes.append(ShardOutcome(
                    cell_index=task.cell_index,
                    shard_index=task.shard_index,
                    attempt=task.attempt,
                    error=(
                        "TimeoutError: shard exceeded "
                        f"{self.shard_timeout}s"
                    ),
                ))
        if hung:
            # A worker past its deadline cannot be reclaimed and is
            # still squatting on a pool slot; replacing the pool also
            # guarantees the timed-out shard retries on a fresh worker.
            self._discard_pool()
        return outcomes

    def close(self) -> None:
        self._discard_pool()

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self, n_tasks: int) -> multiprocessing.pool.Pool:
        """The warm pool, created on the first parallel wave."""
        if self._pool is None:
            assert self._context is not None, "transport not primed"
            # fork where the platform has it (workers inherit the
            # warm interpreter), else the platform default.
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else methods[0]
            )
            self._pool = context.Pool(
                processes=min(self.jobs, n_tasks),
                initializer=_worker_init,
                initargs=(
                    self._context.trace, self._context.snapshot,
                ),
            )
        return self._pool

    def _discard_pool(self) -> None:
        """Tear the pool down: transport close, or a shard hang.

        ``terminate()``, not ``close()``: a hung worker must not wedge
        the campaign during the join.
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


# ---- the socket transport ---------------------------------------------

def parse_worker_address(spec: str) -> tuple[str, int]:
    """``host:port`` -> ``(host, port)``, loudly on anything else."""
    host, sep, port_text = spec.strip().rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"worker address {spec!r} is not of the form host:port"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"worker address {spec!r} has a non-numeric port"
        ) from None
    if not 0 < port < 65536:
        raise ValueError(
            f"worker address {spec!r} has an out-of-range port"
        )
    return host, port


class _WaveDeadlineExceeded(Exception):
    """Internal: the wave's absolute deadline passed mid-await."""


class _WaveState:
    """Shared state of one wave: the work queue and its accounting.

    ``in_flight`` counts tasks popped but not yet resolved (outcome
    recorded or requeued).  An idle driver must **wait** while it is
    nonzero rather than exit on an empty queue: a sibling driver whose
    link just died is about to requeue its task, and a driver that
    already went home would strand it — the shard would surface as a
    spurious error outcome and the engine's retry would reorder the
    merged results.
    """

    __slots__ = ("tasks", "pending", "results", "in_flight",
                 "cond", "deadline")

    def __init__(
        self, tasks: Sequence[ShardTask], deadline: float | None
    ) -> None:
        self.tasks = tasks
        self.pending: deque[int] = deque(range(len(tasks)))
        self.results: dict[int, ShardOutcome] = {}
        self.in_flight = 0
        self.cond = threading.Condition()
        self.deadline = deadline


@dataclass
class _WorkerLink:
    """One controller->worker connection and its lifecycle state."""

    address: tuple[str, int]
    sock: socket.socket | None = None
    worker_pid: int = 0
    ever_connected: bool = False
    #: Dead for the current wave (reconnect budget exhausted); revived
    #: at the next wave so a restarted worker can rejoin.
    alive: bool = True

    @property
    def name(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"


class SocketTransport:
    """Ship waves to socket-attached ``iris-worker`` processes.

    ``workers`` are ``host:port`` strings.  Connections are made
    lazily, primed once with the HELLO context, and stay warm across
    waves — the socket analogue of the local pool's initializer.

    See the module docstring for the failure semantics; ``sleep`` is
    injectable so the reconnect/backoff tests run in virtual time.
    """

    def __init__(
        self,
        workers: Sequence[str],
        *,
        wave_timeout: float | None = None,
        connect_timeout: float = 10.0,
        heartbeat_timeout: float = 30.0,
        reconnect_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not workers:
            raise ValueError("need at least one worker address")
        if reconnect_attempts < 0:
            raise ValueError("reconnect_attempts must be >= 0")
        self.wave_timeout = wave_timeout
        self.connect_timeout = connect_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.reconnect_attempts = reconnect_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.stats = TransportStats()
        self._sleep = sleep
        self._links = [
            _WorkerLink(address=parse_worker_address(spec))
            for spec in workers
        ]
        self._context: TransportContext | None = None
        self._lock = threading.Lock()
        self._closed = False

    def prime(self, context: TransportContext) -> None:
        if self._context is None:
            self._context = context

    def describe(self) -> str:
        names = ", ".join(link.name for link in self._links)
        return f"socket transport ({len(self._links)} worker(s): {names})"

    # -- the wave ------------------------------------------------------

    def run_tasks(
        self, tasks: Sequence[ShardTask]
    ) -> list[ShardOutcome]:
        if not tasks:
            return []
        if self._closed:
            raise TransportError("transport is closed")
        assert self._context is not None, "transport not primed"
        deadline = (
            time.monotonic() + self.wave_timeout
            if self.wave_timeout is not None else None
        )
        state = _WaveState(tasks, deadline)
        # A worker that exhausted its reconnect budget last wave gets
        # a fresh chance: the process may have been restarted since.
        for link in self._links:
            link.alive = True
        threads = [
            threading.Thread(
                target=self._drive,
                args=(link, state),
                name=f"iris-transport-{link.name}",
                daemon=True,
            )
            for link in self._links
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Anything still unfinished ran out of wave (deadline) or ran
        # out of workers; either way it surfaces as an error outcome
        # for the engine's retry/abandon machinery, never silently.
        timed_out = (
            deadline is not None and time.monotonic() >= deadline
        )
        outcomes: list[ShardOutcome] = []
        for index, task in enumerate(tasks):
            outcome = state.results.get(index)
            if outcome is None:
                outcome = self._missing_outcome(task, timed_out)
            outcomes.append(outcome)
        return outcomes

    def close(self) -> None:
        self._closed = True
        for link in self._links:
            sock = link.sock
            link.sock = None
            if sock is None:
                continue
            try:
                wire.send_frame(sock, wire.FrameKind.BYE, b"")
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    # -- per-worker driver ---------------------------------------------

    def _drive(self, link: _WorkerLink, state: _WaveState) -> None:
        while True:
            index = self._claim(state)
            if index is None:
                return
            task = state.tasks[index]
            try:
                self._ensure_link(link, state.deadline)
            except TransportError:
                # This worker is gone for the wave; hand the shard
                # back for the surviving workers.
                self._requeue(state, index)
                link.alive = False
                return
            try:
                self._send(link, wire.FrameKind.TASK,
                           wire.encode_task(task))
                outcome = self._await_result(
                    link, task, state.deadline
                )
            except _WaveDeadlineExceeded:
                # The worker may still be mid-shard; drop the link so
                # its late result can never pair with a future task.
                self._drop_link(link)
                self._resolve(state, index, self._missing_outcome(
                    task, timed_out=True
                ))
                return
            except (TransportError, OSError) as exc:
                # The link died with the shard in flight.  No outcome
                # was recorded, so pushing the index back makes the
                # shard run (and merge) exactly once — on this worker
                # after a reconnect, or on a surviving sibling.
                self._drop_link(link)
                self._bump(reassignments=1)
                OBS.tracer.event(
                    "iris.transport.reassign",
                    worker=link.name,
                    cell=task.cell_index,
                    shard=task.shard_index,
                    error=f"{type(exc).__name__}: {exc}",
                )
                self._requeue(state, index)
                continue
            self._resolve(state, index, outcome)

    def _claim(self, state: _WaveState) -> int | None:
        """Pop the next task index, or ``None`` when the wave is over
        for this driver.

        Blocks while the queue is empty but siblings still hold tasks
        in flight — one of them may requeue (see :class:`_WaveState`).
        """
        with state.cond:
            while True:
                if (
                    state.deadline is not None
                    and time.monotonic() >= state.deadline
                ):
                    return None
                if state.pending:
                    state.in_flight += 1
                    return state.pending.popleft()
                if state.in_flight == 0:
                    return None
                state.cond.wait(timeout=0.05)

    def _requeue(self, state: _WaveState, index: int) -> None:
        with state.cond:
            state.pending.appendleft(index)
            state.in_flight -= 1
            state.cond.notify_all()

    def _resolve(
        self, state: _WaveState, index: int, outcome: ShardOutcome
    ) -> None:
        with state.cond:
            state.results[index] = outcome
            state.in_flight -= 1
            state.cond.notify_all()

    def _missing_outcome(
        self, task: ShardTask, timed_out: bool
    ) -> ShardOutcome:
        if timed_out:
            error = (
                "TimeoutError: wave exceeded its "
                f"{self.wave_timeout}s deadline"
            )
        else:
            error = (
                "WorkerUnavailableError: no live worker to run the "
                "shard (all reconnect budgets exhausted)"
            )
        return ShardOutcome(
            cell_index=task.cell_index,
            shard_index=task.shard_index,
            attempt=task.attempt,
            error=error,
        )

    # -- link lifecycle ------------------------------------------------

    def _ensure_link(
        self, link: _WorkerLink, deadline: float | None
    ) -> None:
        if link.sock is not None:
            return
        last: Exception | None = None
        for attempt in range(self.reconnect_attempts + 1):
            if attempt or link.ever_connected:
                # Any connect after the link's first-ever attempt is a
                # retry: backoff applies and the counter ticks.
                self._bump(retries=1)
            if attempt:
                self._sleep(min(
                    self.backoff_base * (2 ** (attempt - 1)),
                    self.backoff_cap,
                ))
            if deadline is not None and time.monotonic() >= deadline:
                break
            try:
                self._connect(link)
                return
            except (OSError, TransportError) as exc:
                last = exc
        raise WorkerUnavailableError(
            f"worker {link.name} unreachable after "
            f"{self.reconnect_attempts + 1} attempt(s): {last}"
        )

    def _connect(self, link: _WorkerLink) -> None:
        assert self._context is not None
        sock = socket.create_connection(
            link.address, timeout=self.connect_timeout
        )
        try:
            hello = wire.encode_hello(
                dict(self._context.identity),
                self._context.trace,
                self._context.snapshot,
            )
            self._bump(frames=1, bytes=wire.send_frame(
                sock, wire.FrameKind.HELLO, hello
            ))
            sock.settimeout(self.connect_timeout)
            reply = wire.recv_frame(sock)
            if reply is None:
                raise TransportProtocolError(
                    f"worker {link.name} closed the connection "
                    "during the handshake"
                )
            kind, payload, nbytes = reply
            self._bump(frames=1, bytes=nbytes)
            if kind is not wire.FrameKind.HELLO_ACK:
                raise TransportProtocolError(
                    f"worker {link.name} answered HELLO with "
                    f"{kind.name}"
                )
            link.worker_pid = wire.decode_hello_ack(payload)
        except BaseException:
            sock.close()
            raise
        link.sock = sock
        link.ever_connected = True
        OBS.tracer.event(
            "iris.transport.connect",
            worker=link.name, worker_pid=link.worker_pid,
        )

    def _drop_link(self, link: _WorkerLink) -> None:
        sock = link.sock
        link.sock = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # -- frame I/O -----------------------------------------------------

    def _send(
        self, link: _WorkerLink, kind: wire.FrameKind, payload: bytes
    ) -> None:
        assert link.sock is not None
        self._bump(
            frames=1, bytes=wire.send_frame(link.sock, kind, payload)
        )

    def _await_result(
        self,
        link: _WorkerLink,
        task: ShardTask,
        deadline: float | None,
    ) -> ShardOutcome:
        assert link.sock is not None
        while True:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise _WaveDeadlineExceeded()
            timeout = self.heartbeat_timeout
            if deadline is not None:
                timeout = min(timeout, deadline - now)
            link.sock.settimeout(timeout)
            try:
                frame = wire.recv_frame(link.sock)
            except TimeoutError:
                if (
                    deadline is not None
                    and time.monotonic() >= deadline
                ):
                    raise _WaveDeadlineExceeded() from None
                raise WorkerUnavailableError(
                    f"worker {link.name} sent no frame for "
                    f"{self.heartbeat_timeout}s (heartbeat missed)"
                ) from None
            if frame is None:
                raise TransportProtocolError(
                    f"worker {link.name} closed the connection "
                    "while a shard was in flight"
                )
            kind, payload, nbytes = frame
            self._bump(frames=1, bytes=nbytes)
            if kind is wire.FrameKind.HEARTBEAT:
                continue
            if kind is not wire.FrameKind.RESULT:
                raise TransportProtocolError(
                    f"worker {link.name} sent {kind.name} while a "
                    "RESULT was expected"
                )
            outcome = wire.decode_outcome(payload)
            expected = (
                task.cell_index, task.shard_index, task.attempt,
            )
            got = (
                outcome.cell_index, outcome.shard_index,
                outcome.attempt,
            )
            if got != expected:
                raise TransportProtocolError(
                    f"worker {link.name} answered for shard {got}, "
                    f"expected {expected}"
                )
            return outcome

    # -- accounting ----------------------------------------------------

    def _bump(
        self,
        *,
        frames: int = 0,
        bytes: int = 0,
        retries: int = 0,
        reassignments: int = 0,
    ) -> None:
        with self._lock:
            self.stats.frames += frames
            self.stats.bytes += bytes
            self.stats.retries += retries
            self.stats.reassignments += reassignments
        if frames:
            OBS.metrics.inc("transport_frames", value=frames)
        if bytes:
            OBS.metrics.inc("transport_bytes", value=bytes)
        if retries:
            OBS.metrics.inc("transport_retries", value=retries)
        if reassignments:
            OBS.metrics.inc(
                "transport_reassignments", value=reassignments
            )
