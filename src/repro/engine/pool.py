"""Persistent worker runtime: one long-lived pool, reused across campaigns.

The scheduler used to spawn a fresh ``ProcessPoolExecutor`` for every
``run_campaign`` call — each campaign paid the fork cost again and threw
away every worker-side memo (``_SIM_MEMO`` normalized kernels,
``_GEN_MEMO`` spec expansions) it had just warmed.  This module keeps a
module-level :class:`WorkerPool` alive across consecutive campaigns in a
process: workers are forked once and answer each chunk with its records
pickled into one bytes body (decoded by
:func:`repro.engine.runner.unpack_chunk`).

Each worker owns a private duplex pipe instead of sharing queues.  That
choice is load-bearing for fault tolerance: a shared queue is one
framed byte stream under one lock, so a worker that dies *mid-write*
(the ``crash`` fault is ``os._exit`` mid-job) tears the stream for
everyone and the parent's next read can block forever on a message that
will never finish.  With per-worker pipes a torn write poisons only the
dead worker's pipe, which the OS closes with the process — the parent
reads EOF, never a hang.  Task assignment is explicit (the parent picks
an idle worker), so the parent always knows which chunk a dead worker
held and can blame exactly that one.

Kill+rebuild is epoch-based: every worker is branded with the pool's
*epoch* at spawn and stamps it on every reply; a rebuild bumps the
epoch, so any straggler message from a previous generation — e.g. a
result buffered in a pipe the scheduler abandoned — is recognizably
stale and dropped instead of being credited to the wrong dispatch.

:class:`InProcessExecutor` is the same dispatch surface with one
worker that is the caller itself, so an untimed ``jobs=1`` run goes
through the very loop that drives the pool.  It runs each chunk
synchronously and answers with the records themselves instead of a
pickled body.  A chunk running on the caller's thread cannot be
stopped, so a run with a deadline never uses it: timed runs always go
through worker processes, where a missed deadline kills the worker.

The scheduler's failure semantics (deadlines, chunk splitting,
quarantine, inline degradation) live in ``runner.py``; this module only
supplies the mechanics plus the ``engine.pool.spawn`` /
``engine.pool.reuse`` counter pair.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.connection
import pickle
import time

from repro import obs

#: How long ``shutdown`` waits for workers to exit after their sentinel
#: before escalating to ``terminate``.
_SHUTDOWN_GRACE_SECONDS = 2.0


class PoolUnusable(Exception):
    """Workers cannot be spawned here.

    An untimed run falls back inline; a run with ``job_timeout`` fails
    with this error, since only a worker process can be stopped.
    """


def _worker_main(conn, epoch: int) -> None:
    """Worker loop: receive a chunk, run it, answer with one reply.

    The chunk runs through :func:`repro.engine.runner.run_chunk`, the
    same function the in-process executor calls, and its records (with
    per-job wall-clock in ms) travel pickled as the reply body.  The
    body stays bytes through ``conn.send`` so the parent decodes it in
    one place, where a bad body fails only its chunk.  Failures inside a
    chunk are formatted worker-side into the same reason strings the
    in-process executor produces, so quarantine reasons are identical
    whichever side caught the exception.
    """
    from repro.engine.runner import _failure_reason, run_chunk

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        task_id, blob = message
        try:
            machine, jobs, faults, attempts = pickle.loads(blob)
            body = pickle.dumps(
                run_chunk(machine, jobs, faults, attempts),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            reply = ("ok", epoch, task_id, body)
        except Exception as exc:  # noqa: BLE001 - relayed as a chunk failure
            reply = ("error", epoch, task_id, _failure_reason(exc))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # parent gone or rebuilding
            return


class _Worker:
    """One worker process plus its pipe and currently assigned task."""

    __slots__ = ("process", "conn", "task_id")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task_id: int | None = None  # None == idle


class WorkerPool:
    """A fixed-size set of long-lived worker processes.

    Not thread-safe: one scheduler drives one pool.  The pool survives
    across campaigns — :func:`get_worker_pool` hands the same instance
    back as long as the requested size matches and every worker is
    alive.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.epoch = 0
        self._context = multiprocessing.get_context()
        self._members: list[_Worker] = []
        self._next_task_id = 0

    # -- lifecycle ----------------------------------------------------

    def _spawn_member(self, worker_id: int) -> _Worker:
        """Fork one worker (separated out so tests can fail spawning)."""
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, self.epoch),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        process.start()
        # The parent's copy of the child end must close, or a dead
        # worker's pipe would never read as EOF.
        child_conn.close()
        return _Worker(process, parent_conn)

    def start(self) -> None:
        """Spawn every worker for the current epoch."""
        self._members = []
        try:
            for worker_id in range(self.workers):
                self._members.append(self._spawn_member(worker_id))
        except (OSError, PermissionError) as exc:
            self.kill()
            raise PoolUnusable(str(exc)) from exc
        obs.count("engine.pool.spawn")

    @property
    def alive(self) -> bool:
        return bool(self._members) and all(
            m.process.is_alive() for m in self._members
        )

    def dead_worker_ids(self) -> list[int]:
        """Workers that exited without being asked to (crash candidates)."""
        return [
            worker_id
            for worker_id, member in enumerate(self._members)
            if not member.process.is_alive()
        ]

    def task_of(self, worker_id: int) -> int | None:
        """The task currently assigned to ``worker_id`` (``None``: idle)."""
        return self._members[worker_id].task_id

    def rebuild(self) -> None:
        """Kill everything and respawn under a new epoch.

        The epoch bump plus brand-new pipes make every artifact of the
        old generation — assignments, half-written replies — stale by
        construction.
        """
        self.kill()
        self.epoch += 1
        self.start()

    def kill(self) -> None:
        """Terminate workers immediately (they may be hung or poisoned)."""
        for member in self._members:
            try:
                member.process.terminate()
            except Exception:  # pragma: no cover - already-dead worker
                pass
        for member in self._members:
            member.process.join(timeout=_SHUTDOWN_GRACE_SECONDS)
            try:
                member.conn.close()
            except Exception:  # pragma: no cover - already closed
                pass
        self._members = []

    def shutdown(self) -> None:
        """Graceful stop: sentinel the idle, then terminate stragglers."""
        for member in self._members:
            if member.task_id is None and member.process.is_alive():
                try:
                    member.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE_SECONDS
        for member in self._members:
            member.process.join(timeout=max(0.0, deadline - time.monotonic()))
        self.kill()

    # -- dispatch -----------------------------------------------------

    def submit(
        self, machine, jobs, faults, attempts: dict[str, int]
    ) -> int | None:
        """Assign one chunk to an idle worker; returns its task id.

        Returns ``None`` when no worker is idle (the caller keeps the
        chunk and tries again after the next poll).  The task body is
        pickled *here*, synchronously, so an unpicklable job surfaces as
        an exception the scheduler can charge to the chunk instead of a
        silent hang.
        """
        member = next(
            (
                m
                for m in self._members
                if m.task_id is None and m.process.is_alive()
            ),
            None,
        )
        if member is None:
            return None
        blob = pickle.dumps(
            (machine, jobs, faults, attempts), protocol=pickle.HIGHEST_PROTOCOL
        )
        task_id = self._next_task_id
        self._next_task_id += 1
        member.conn.send((task_id, blob))
        member.task_id = task_id
        return task_id

    def poll(self, timeout: float) -> list[tuple[str, int, int, object]]:
        """Collect finished chunks: ``(kind, worker_id, task_id, body)``.

        Waits up to ``timeout`` for any busy worker's pipe to become
        readable, then drains every ready pipe.  ``kind`` is ``"ok"``
        (body: pickled records, bytes) or ``"error"`` (body: reason
        string).  A dead worker's EOF is swallowed here — the scheduler
        discovers the death via :meth:`dead_worker_ids` and blames the
        task from :meth:`task_of`.  Replies stamped with a stale epoch
        are dropped (and counted) rather than delivered.
        """
        by_conn = {
            member.conn: (worker_id, member)
            for worker_id, member in enumerate(self._members)
            if member.task_id is not None
        }
        if not by_conn:
            time.sleep(timeout)
            return []
        try:
            ready = multiprocessing.connection.wait(
                list(by_conn), timeout=timeout
            )
        except OSError:  # pragma: no cover - pipe torn down under us
            return []
        events: list[tuple[str, int, int, object]] = []
        for conn in ready:
            worker_id, member = by_conn[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError, pickle.UnpicklingError):
                # Torn write or closed pipe: the worker is (or is about
                # to read as) dead; dead_worker_ids() handles it.
                continue
            try:
                kind, epoch, task_id, body = message
            except (TypeError, ValueError):
                continue  # malformed reply: treat like a torn write
            if epoch != self.epoch:
                obs.count("engine.pool.stale_dropped")
                continue
            member.task_id = None
            events.append((kind, worker_id, task_id, body))
        return events


class InProcessExecutor:
    """A one-worker executor that runs chunks in the calling process.

    Offers the dispatch surface the scheduler uses from
    :class:`WorkerPool` (``workers``, ``submit``, ``poll``,
    ``dead_worker_ids``).  :meth:`submit` runs the chunk on the caller's
    thread, so its ``engine.job`` spans nest under the scheduler's, and
    :meth:`poll` hands its reply back.  Nothing here can stop a chunk
    mid-run, so the scheduler never pairs this executor with a deadline.

    Replies are ``("records", 0, task_id, [(job_id, payload, ms)])``
    — the records themselves, never pickled — or ``("error", ...)``
    with the same reason strings a pool worker sends.
    """

    workers = 1

    def __init__(self) -> None:
        self._next_task_id = 0
        self._reply: tuple[str, int, int, object] | None = None

    def dead_worker_ids(self) -> list[int]:
        return []  # the caller's thread cannot die without the scheduler

    def submit(
        self, machine, jobs, faults, attempts: dict[str, int]
    ) -> int | None:
        from repro.engine.runner import _failure_reason, run_chunk

        if self._reply is not None:
            return None
        task_id = self._next_task_id
        self._next_task_id += 1
        try:
            records = run_chunk(machine, jobs, faults, attempts)
            self._reply = ("records", 0, task_id, records)
        except Exception as exc:  # noqa: BLE001 - relayed as a chunk failure
            self._reply = ("error", 0, task_id, _failure_reason(exc))
        return task_id

    def poll(self, timeout: float) -> list[tuple[str, int, int, object]]:
        """The finished chunk, if any: ``(kind, 0, task_id, body)``."""
        reply, self._reply = self._reply, None
        if reply is None:  # nothing submitted: every unit is backing off
            time.sleep(timeout)
            return []
        return [reply]


#: The process-wide pool, shared by consecutive campaigns.
_POOL: WorkerPool | None = None


def get_worker_pool(workers: int) -> WorkerPool:
    """The shared pool, reused when possible, (re)spawned when not.

    Reuse requires the same worker count and every worker still alive;
    anything else tears the old pool down and starts fresh.  Counters:
    ``engine.pool.reuse`` for a warm hit, ``engine.pool.spawn`` (emitted
    by :meth:`WorkerPool.start`) for every fork generation.
    """
    global _POOL
    if _POOL is not None and _POOL.workers == workers and _POOL.alive:
        obs.count("engine.pool.reuse")
        return _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
    pool = WorkerPool(workers)
    pool.start()
    _POOL = pool
    return pool


def shutdown_worker_pool() -> None:
    """Stop the shared pool (tests, explicit teardown, atexit)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


def _atexit_shutdown() -> None:  # pragma: no cover - interpreter teardown
    try:
        shutdown_worker_pool()
    except Exception:
        pass


atexit.register(_atexit_shutdown)
