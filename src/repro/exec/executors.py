"""Executors: in-process serial and multi-process parallel.

Both executors expose one generator, ``map(campaign, requests)``,
yielding ``(index, payload)`` pairs **in completion order** — the
driver journals completions as they land and merges by index at the
end, so the merged result is identical whichever executor ran.

Both run every request under a
:class:`~repro.exec.supervisor.SupervisionPolicy`; the default is inert
(one attempt, no deadline, no abort budget).  Either way a run that
raises, returns a non-dict, or loses its worker never takes the
campaign down by itself: after its last attempt it is quarantined
through the campaign's ``error_payload`` hook.  Chaos, resilience,
reliability, and soak record a ``scenario-error`` result; the default
hook (the size sweep) raises :class:`~repro.errors.ExecutionError`,
which serial execution chains to the run's own exception.  An active
policy adds bounded seed-derived retry, per-run deadlines (parallel
only: a run cannot preempt itself), and the driver's abort budget.

The parallel executor ships only JSON across the process boundary: the
campaign's ``(kind, spec)`` and each request's dict go out, payload
dicts come back.  Workers rebuild the campaign from its spec
(:func:`repro.exec.campaign.build_campaign`) and construct every
scenario on their side — no engine, event queue, or RNG is ever
pickled (lint rule ``DET106``).
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Protocol,
                    Tuple)

from ..errors import ConfigurationError, ExecutionError
from .campaign import Campaign, RunRequest, build_campaign
from .errinfo import exception_payload
from .supervisor import (ATTEMPT_ERROR, ATTEMPT_GARBAGE, ATTEMPT_TIMEOUT,
                         ATTEMPT_WORKER_DEATH, DeadlineClock, EventSink,
                         SupervisionPolicy, _quarantine_error,
                         _set_current_attempt, attempt_record)

if TYPE_CHECKING:
    # Imported where workers are spawned and awaited, so a serial run
    # never loads multiprocessing.
    from multiprocessing import Process, connection

#: Yield type of ``Executor.map``: (request index, result payload).
Completion = Tuple[int, Dict[str, object]]

#: Workers that die before ever accepting work, in a row, before the
#: parallel executor concludes the pool itself is broken and gives up.
_MAX_IDLE_DEATHS = 3


class Executor(Protocol):
    """How a campaign's pending requests get executed."""

    #: Worker count (1 for the serial executor); reports/benches record it.
    workers: int

    def map(self, campaign: Campaign,
            requests: List[RunRequest]) -> Iterator[Completion]:
        """Yield ``(index, payload)`` per request, in completion order."""


class _Supervised:
    """The policy and failed-attempt sink both executors carry."""

    def __init__(self, policy: SupervisionPolicy = SupervisionPolicy()
                 ) -> None:
        self.policy = policy
        self._sink: Optional[EventSink] = None

    def set_event_sink(self, sink: EventSink) -> None:
        """Route failed-attempt records to ``sink`` (driver journaling)."""
        self._sink = sink

    def _emit(self, record: Dict[str, object]) -> None:
        if self._sink is not None:
            self._sink(record)


class SerialExecutor(_Supervised):
    """In-process, in-order execution with bounded retry and quarantine.

    Deadlines need process isolation — a hung run cannot preempt
    itself — so ``run_timeout_s`` is not enforced here; retry,
    quarantine, and the driver's abort budget are.  Retries re-run
    immediately (backoff pacing protects a pool's capacity, of which a
    serial loop has none).  ``KeyboardInterrupt`` propagates, so an
    interrupted campaign leaves a resumable journal behind.
    """

    workers = 1

    def map(self, campaign: Campaign,
            requests: List[RunRequest]) -> Iterator[Completion]:
        """Run each request in order, retrying failures in place."""
        for request in requests:
            yield self._run_supervised(campaign, request)

    def _run_supervised(self, campaign: Campaign,
                        request: RunRequest) -> Completion:
        attempts = self.policy.max_attempts
        attempt = 1
        try:
            while True:
                _set_current_attempt(attempt)
                last = attempt == attempts
                try:
                    payload = campaign.run_request(request)
                # Crash isolation boundary: the failure becomes attempt
                # data (and ultimately a quarantine payload), never a
                # swallowed error.
                except Exception as exc:  # repro: noqa[EXC402]
                    detail = f"{type(exc).__name__}: {exc}"
                    self._emit(attempt_record(request, attempt,
                                              ATTEMPT_ERROR, detail,
                                              requeued=not last))
                    if last:
                        # Quarantined inside the handler, so a hook that
                        # raises chains the run's own exception.
                        return request.index, campaign.error_payload(
                            request,
                            _quarantine_error(ATTEMPT_ERROR, detail,
                                              attempts),
                            details=exception_payload(exc))
                else:
                    if isinstance(payload, dict):
                        return request.index, payload
                    detail = (f"run returned {type(payload).__name__}, "
                              f"not a payload dict")
                    self._emit(attempt_record(request, attempt,
                                              ATTEMPT_GARBAGE, detail,
                                              requeued=not last))
                    if last:
                        return request.index, campaign.error_payload(
                            request, _quarantine_error(ATTEMPT_GARBAGE,
                                                       detail, attempts))
                attempt += 1
        finally:
            _set_current_attempt(1)


def _worker_main(kind: str, spec: Dict[str, object],
                 conn: "connection.Connection",
                 parent_end: "connection.Connection") -> None:
    """Worker loop: recv ``(request_dict, attempt)``, send the result.

    Replies ``("ok", payload)`` or ``("error", description)``; a
    ``None`` message (or a closed pipe) is the shutdown signal.  The
    campaign is rebuilt from its JSON spec (lint rule ``DET106``).

    ``parent_end`` is this process's forked copy of the parent's end of
    the pipe.  Closing it at once means the pipe reports EOF when the
    parent dies, even by SIGKILL, so the worker exits instead of
    waiting forever; a worker that exits that way also releases its
    copies of older workers' pipes, so they follow.
    """
    parent_end.close()
    try:
        campaign = build_campaign(kind, spec)
        while True:
            try:
                item = conn.recv()
            except (EOFError, OSError):
                return
            if item is None:
                return
            request_dict, attempt = item
            request = RunRequest.from_dict(request_dict)
            _set_current_attempt(attempt)
            try:
                reply: Tuple[str, object] = (
                    "ok", campaign.run_request(request))
            # Crash isolation boundary: the failure travels back as
            # data for the parent to attribute and retry.
            except Exception as exc:  # repro: noqa[EXC402]
                reply = ("error",
                         {"message": f"{type(exc).__name__}: {exc}",
                          "exception": exception_payload(exc)})
            finally:
                _set_current_attempt(1)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return
    except KeyboardInterrupt:
        return


class _Flight:
    """One dispatchable attempt of one request."""

    __slots__ = ("request", "attempt", "eligible_at_s")

    def __init__(self, request: RunRequest, attempt: int,
                 eligible_at_s: float) -> None:
        self.request = request
        self.attempt = attempt
        self.eligible_at_s = eligible_at_s


class _WorkerSlot:
    """One worker process and what it is running."""

    __slots__ = ("process", "conn", "current", "deadline_s")

    def __init__(self, process: Process,
                 conn: "connection.Connection") -> None:
        self.process = process
        self.conn = conn
        self.current: Optional[_Flight] = None
        self.deadline_s: Optional[float] = None


def _spawn_worker(kind: str, spec: Dict[str, object]) -> _WorkerSlot:
    """Start one worker process wired to a fresh duplex pipe."""
    from multiprocessing import Pipe, Process
    parent_conn, child_conn = Pipe()
    process = Process(target=_worker_main,
                      args=(kind, spec, child_conn, parent_conn),
                      daemon=True)
    process.start()
    child_conn.close()
    return _WorkerSlot(process, parent_conn)


def _destroy_slot(slot: _WorkerSlot) -> None:
    """Stop a worker hard (terminate, then kill) and reap it."""
    process = slot.process
    if process.is_alive():
        process.terminate()
        process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
    process.join(timeout=1.0)
    try:
        slot.conn.close()
    except OSError:
        pass


def _take_eligible(queue: List[_Flight], now_s: float) -> Optional[_Flight]:
    """Pop the first flight whose backoff delay has elapsed."""
    for position, flight in enumerate(queue):
        if flight.eligible_at_s <= now_s:
            return queue.pop(position)
    return None


class ParallelExecutor(_Supervised):
    """Worker-process fan-out with deadlines, retry, and pool rebuild.

    Built directly on ``multiprocessing`` (one duplex pipe per worker)
    rather than a pooled-futures API: supervision needs to know *which*
    request each worker is running so a death or deadline can be
    attributed to exactly one in-flight request, and needs to kill a
    hung worker outright.  Every run's behaviour depends only on its
    request (seed derived as ``seed_for(campaign_seed, index)``), and
    the driver's merge-by-index erases completion order, so results
    remain bit-exact with serial execution.
    """

    def __init__(self, workers: int,
                 policy: SupervisionPolicy = SupervisionPolicy(),
                 clock: Optional[DeadlineClock] = None) -> None:
        if workers < 2:
            raise ConfigurationError(
                "ParallelExecutor needs at least 2 workers "
                "(use SerialExecutor for 1)")
        super().__init__(policy)
        self.workers = workers
        self._clock = clock if clock is not None else DeadlineClock()
        self._idle_deaths = 0

    def map(self, campaign: Campaign,
            requests: List[RunRequest]) -> Iterator[Completion]:
        """Fan out with supervision; yield completions as they land."""
        if not requests:
            return
        kind = campaign.kind
        spec = campaign.spec()
        # Round-trip the spec through the registry eagerly: a campaign
        # that cannot be rebuilt from JSON must fail before any worker
        # starts, not midway through the pool.
        build_campaign(kind, spec)
        queue = [_Flight(request, 1, 0.0) for request in requests]
        remaining = len(requests)
        slots = [_spawn_worker(kind, spec)
                 for _ in range(min(self.workers, len(requests)))]
        self._idle_deaths = 0
        try:
            while remaining > 0:
                done: List[Completion] = []
                self._dispatch_ready(campaign, slots, queue, done,
                                     kind, spec)
                if not done:
                    self._pump_events(campaign, slots, queue, done,
                                      kind, spec)
                for completion in done:
                    remaining -= 1
                    yield completion
        finally:
            for slot in slots:
                _destroy_slot(slot)

    # -- scheduling -----------------------------------------------------

    def _dispatch_ready(self, campaign: Campaign,
                        slots: List[_WorkerSlot], queue: List[_Flight],
                        done: List[Completion], kind: str,
                        spec: Dict[str, object]) -> None:
        """Hand eligible queued flights to idle workers."""
        for position, slot in enumerate(list(slots)):
            if slot.current is not None:
                continue
            now_s = self._clock.now_s()
            flight = _take_eligible(queue, now_s)
            if flight is None:
                return
            try:
                slot.conn.send((flight.request.to_dict(), flight.attempt))
            except (BrokenPipeError, OSError):
                # The worker vanished before accepting work: charge the
                # attempt (a request that reliably kills its worker must
                # still exhaust its budget) and rebuild the slot.
                slots[position] = _spawn_worker(kind, spec)
                _destroy_slot(slot)
                self._fail(campaign, flight, ATTEMPT_WORKER_DEATH,
                           "worker unavailable at dispatch", queue, done)
                continue
            slot.current = flight
            if self.policy.run_timeout_s is not None:
                slot.deadline_s = now_s + self.policy.run_timeout_s

    def _wait_timeout(self, slots: List[_WorkerSlot],
                      queue: List[_Flight]) -> Optional[float]:
        """How long the event wait may block before scheduling work."""
        now_s = self._clock.now_s()
        wake_at: List[float] = [
            slot.deadline_s for slot in slots
            if slot.current is not None and slot.deadline_s is not None]
        if any(slot.current is None for slot in slots):
            wake_at.extend(flight.eligible_at_s for flight in queue)
        if wake_at:
            return max(0.0, min(wake_at) - now_s)
        if any(slot.current is not None for slot in slots):
            return None  # block until a result or a death
        return 0.05  # defensive: never spin, never block forever

    def _pump_events(self, campaign: Campaign, slots: List[_WorkerSlot],
                     queue: List[_Flight], done: List[Completion],
                     kind: str, spec: Dict[str, object]) -> None:
        """Wait once; absorb results, deaths, and expired deadlines."""
        from multiprocessing import connection
        waitables: List[object] = [slot.conn for slot in slots]
        waitables.extend(slot.process.sentinel for slot in slots)
        ready = connection.wait(waitables,
                                self._wait_timeout(slots, queue))
        for position, slot in enumerate(list(slots)):
            if slot.conn in ready:
                self._on_message(campaign, slots, position, queue, done,
                                 kind, spec)
        for position, slot in enumerate(list(slots)):
            if slot in slots and slot.process.sentinel in ready:
                self._on_death(campaign, slots, position, queue, done,
                               kind, spec)
        now_s = self._clock.now_s()
        for position, slot in enumerate(list(slots)):
            if slot in slots and slot.current is not None \
                    and slot.deadline_s is not None \
                    and now_s >= slot.deadline_s:
                self._on_deadline(campaign, slots, position, queue, done,
                                  kind, spec)

    # -- event handling -------------------------------------------------

    def _on_message(self, campaign: Campaign, slots: List[_WorkerSlot],
                    position: int, queue: List[_Flight],
                    done: List[Completion], kind: str,
                    spec: Dict[str, object]) -> None:
        """A worker's pipe is readable: a result or a torn connection."""
        slot = slots[position]
        flight = slot.current
        try:
            message = slot.conn.recv()
        except (EOFError, OSError):
            self._on_death(campaign, slots, position, queue, done,
                           kind, spec)
            return
        slot.current = None
        slot.deadline_s = None
        if flight is None:
            return  # unsolicited chatter from an idle worker; ignore
        if (isinstance(message, tuple) and len(message) == 2
                and message[0] == "ok" and isinstance(message[1], dict)):
            self._idle_deaths = 0
            done.append((flight.request.index, message[1]))
        elif isinstance(message, tuple) and len(message) == 2 \
                and message[0] == "ok":
            self._fail(campaign, flight, ATTEMPT_GARBAGE,
                       f"run returned {type(message[1]).__name__}, "
                       f"not a payload dict", queue, done)
        elif isinstance(message, tuple) and len(message) == 2 \
                and message[0] == "error":
            if isinstance(message[1], dict):
                detail = str(message[1].get("message", ""))
                details = message[1].get("exception")
            else:
                detail, details = str(message[1]), None
            self._fail(campaign, flight, ATTEMPT_ERROR, detail,
                       queue, done, details=details)
        else:
            self._fail(campaign, flight, ATTEMPT_GARBAGE,
                       "worker sent an unrecognised message", queue, done)

    def _on_death(self, campaign: Campaign, slots: List[_WorkerSlot],
                  position: int, queue: List[_Flight],
                  done: List[Completion], kind: str,
                  spec: Dict[str, object]) -> None:
        """A worker process exited: attribute, rebuild, requeue."""
        slot = slots[position]
        flight = slot.current
        # The torn pipe or the sentinel can fire before the exit status
        # is reapable; wait for it so the recorded detail is the same
        # on every run.
        slot.process.join(timeout=1.0)
        exitcode = slot.process.exitcode
        slots[position] = _spawn_worker(kind, spec)
        _destroy_slot(slot)
        if flight is None:
            self._idle_death()
            return
        self._fail(campaign, flight, ATTEMPT_WORKER_DEATH,
                   f"worker exited with code {exitcode}", queue, done)

    def _on_deadline(self, campaign: Campaign, slots: List[_WorkerSlot],
                     position: int, queue: List[_Flight],
                     done: List[Completion], kind: str,
                     spec: Dict[str, object]) -> None:
        """A run blew its wall-clock budget: kill, rebuild, requeue."""
        slot = slots[position]
        flight = slot.current
        slots[position] = _spawn_worker(kind, spec)
        _destroy_slot(slot)
        assert flight is not None
        self._fail(campaign, flight, ATTEMPT_TIMEOUT,
                   f"exceeded the {self.policy.run_timeout_s:g}s "
                   f"wall-clock deadline", queue, done)

    def _fail(self, campaign: Campaign, flight: _Flight, outcome: str,
              detail: str, queue: List[_Flight],
              done: List[Completion],
              details: Optional[Dict[str, object]] = None) -> None:
        """Record a failed attempt; requeue with backoff or quarantine.

        ``details`` is the structured exception payload the worker
        captured at the raise site (ERROR outcomes only); it travels
        into the quarantine payload, never into attempt records.
        """
        policy = self.policy
        requeued = flight.attempt < policy.max_attempts
        self._emit(attempt_record(flight.request, flight.attempt, outcome,
                                  detail, requeued))
        if requeued:
            delay_s = policy.backoff_s(flight.request.seed, flight.attempt)
            queue.append(_Flight(flight.request, flight.attempt + 1,
                                 self._clock.now_s() + delay_s))
        else:
            done.append((flight.request.index, campaign.error_payload(
                flight.request,
                _quarantine_error(outcome, detail, flight.attempt),
                details=details)))

    def _idle_death(self) -> None:
        """A worker died before accepting work; bound the respawn loop."""
        self._idle_deaths += 1
        if self._idle_deaths > _MAX_IDLE_DEATHS:
            raise ExecutionError(
                f"pool workers died {self._idle_deaths} times before "
                f"accepting any work; giving up (is the campaign spec "
                f"rebuildable worker-side?)")


def make_executor(workers: int,
                  policy: Optional[SupervisionPolicy] = None) -> Executor:
    """The executor for a ``--workers N`` request (1 means serial).

    ``policy`` sets deadlines, bounded retry, and the abort budget;
    ``None`` means the inert default :class:`SupervisionPolicy`.
    """
    if workers < 1:
        raise ConfigurationError("worker count must be >= 1")
    if policy is None:
        policy = SupervisionPolicy()
    if workers == 1:
        return SerialExecutor(policy)
    return ParallelExecutor(workers, policy)
