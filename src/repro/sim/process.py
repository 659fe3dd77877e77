"""Coroutine processes for the simulation kernel.

A process is a plain generator function that yields
:class:`~repro.sim.core.Event` objects::

    def worker(env):
        yield env.timeout(1.0)
        result = yield some_event
        ...

A :class:`Process` is itself an event, firing with the generator's return
value when it finishes (or failing with its uncaught exception), so
processes can wait on each other directly.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.core import PENDING, Event, Environment, SimulationError, URGENT

__all__ = ["Interrupt", "Process"]


class Interrupt(Exception):
    """Thrown inside a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """A running simulation process wrapping a generator."""

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, env: Environment, generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"expected a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        super().__init__(env, name=getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Event | None = None
        # Bootstrap: resume on the next queue step at the current time.
        init = Event(env, name="process-init")
        init.callbacks.append(self._resume)
        init.succeed(priority=URGENT)

    # -- public API ---------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        more than once before it handles the first interrupt queues them.
        A queued interrupt that lands after the process has finished
        (typically because it handled an earlier one by returning) is
        dropped.
        """
        if self.triggered:
            raise SimulationError(f"{self.name}: cannot interrupt a finished process")
        exc = Interrupt(cause)
        waiting = self._waiting_on
        if waiting is not None and not waiting.processed:
            # Detach from the event we were waiting on.
            try:
                waiting.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        carrier = Event(self.env, name="interrupt")
        carrier.callbacks.append(self._resume)
        carrier._defused = True
        carrier.fail(exc, priority=URGENT)

    def resume_inline(self, event: Event, value: Any = None) -> None:
        """Fire ``event`` with ``value`` and resume the process now.

        For an event the process waits on that is never scheduled: the
        caller (typically a callback of another event) hands control
        back synchronously, so the hand-back takes no queue entry, no
        sequence number and no processed event.
        """
        event._value = value
        event._ok = True
        event.callbacks = None
        self._resume(event)

    def defuse(self) -> None:
        """Mark this process's failure as handled (no kernel re-raise)."""
        self._defused = True

    # -- stepping -------------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        waiting = self._waiting_on
        if waiting is not trigger:
            # Not the event we yielded: the bootstrap, or an interrupt.
            if self._value is not PENDING:
                return  # an interrupt landing after the process finished
            if waiting is not None and not waiting.processed:
                # The interrupt landed while we wait on an event yielded
                # after interrupt() ran (e.g. the bootstrap was still
                # queued): detach, or that event would resume us twice.
                waiting.callbacks.remove(self._resume)
        self._waiting_on = None
        event: Event | None = trigger
        while True:
            try:
                if event is None:
                    target = self._generator.send(None)
                elif event.ok:
                    target = self._generator.send(event.value)
                else:
                    # Mark the failure as handled by this process; if the
                    # process does not catch it, it propagates as *our*
                    # failure below.
                    event._defused = True
                    target = self._generator.throw(event.value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - process failure
                self.fail(exc)
                return

            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
                try:
                    self._generator.throw(exc)
                except StopIteration as stop:
                    self.succeed(stop.value)
                except BaseException as e:  # noqa: BLE001
                    self.fail(e)
                return
            if target.env is not self.env:
                self.fail(SimulationError("yielded event from another environment"))
                return
            if target.processed:
                # Already fired: loop and feed the value straight back in.
                event = target
                continue
            self._waiting_on = target
            target.callbacks.append(self._resume)
            return
