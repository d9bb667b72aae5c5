"""Supervised background workers — crash, log, back off, restart.

Background threads (the directory's drift re-clusterer, the failover
monitor) previously died silently on any exception, taking their
feature with them for the rest of the process.  :class:`SupervisedWorker`
wraps a target callable in a restart loop:

* the target runs on a daemon thread; a normal return ends supervision
  (one-shot targets like a drift repair) — the loop is for *crashes*;
* an exception is logged as a structured warning, counted into
  ``worker_restarts`` (surfaced as ``worker_restarts_total`` on
  ``/metrics``), and the target restarts after an exponential backoff;
* ``max_restarts`` bounds the loop (None = supervise forever);
  :meth:`stop` wakes any backoff sleep immediately.
"""

import logging
import threading
from typing import Callable, Optional

from repro.resilience.stats import STATS

logger = logging.getLogger("repro.resilience")


class SupervisedWorker:
    """Run ``target`` on a thread, restarting it on crashes.

    Parameters
    ----------
    target:
        The work.  Long-lived loops should exit when their owner stops
        them (e.g. by checking a flag); a normal return always ends
        supervision.
    name:
        Thread name (also the label in restart warnings).
    backoff_base:
        Restart delay schedule: ``min(backoff_base * 2**n, 5.0)`` seconds
        after the ``n``-th crash.
    max_restarts:
        Give up after this many restarts (None = never).  Giving up is
        itself logged — a worker that cannot stay up is a degradation
        signal, not an invisible one.
    on_crash:
        Optional callback ``(restart_index, exception) -> None`` invoked
        before each backoff (the directory uses it to flip health).
    on_exit:
        Optional callback invoked exactly once when supervision ends —
        normal return, give-up, or stop.  The directory clears its
        "repair in flight" flag here, whatever path the worker took out.
    """

    def __init__(
        self,
        target: Callable[[], None],
        name: str = "supervised",
        backoff_base: float = 0.05,
        max_restarts: Optional[int] = None,
        on_crash: Optional[Callable[[int, BaseException], None]] = None,
        on_exit: Optional[Callable[[], None]] = None,
    ) -> None:
        self.target = target
        self.name = name
        self.backoff_base = backoff_base
        self.max_restarts = max_restarts
        self.on_crash = on_crash
        self.on_exit = on_exit
        self.restarts = 0
        self.gave_up = False
        self.last_error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "SupervisedWorker":
        self._thread = threading.Thread(
            target=self._run, name=self.name, daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Ask the loop to stop and join the thread.  Idempotent."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=timeout)

    @property
    def alive(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    # -- the loop ------------------------------------------------------

    def _run(self) -> None:
        try:
            self._supervise()
        finally:
            if self.on_exit is not None:
                try:
                    self.on_exit()
                except Exception:  # a broken callback must not raise here
                    logger.exception("on_exit callback failed")

    def _supervise(self) -> None:
        crashes = 0
        while not self._stop.is_set():
            try:
                self.target()
                return  # normal completion ends supervision
            except BaseException as exc:  # noqa: BLE001 — that's the job
                self.last_error = exc
                if self._stop.is_set():
                    return
                if (
                    self.max_restarts is not None
                    and crashes >= self.max_restarts
                ):
                    self.gave_up = True
                    logger.error(
                        "worker %s gave up after %d restart(s): %s: %s",
                        self.name, crashes, type(exc).__name__, exc,
                    )
                    return
                delay = min(self.backoff_base * 2.0**crashes, 5.0)
                crashes += 1
                self.restarts += 1
                STATS.inc("worker_restarts")
                logger.warning(
                    "worker %s crashed (%s: %s); restart %d in %.3fs",
                    self.name, type(exc).__name__, exc, crashes, delay,
                )
                if self.on_crash is not None:
                    try:
                        self.on_crash(crashes, exc)
                    except Exception:  # a broken callback must not kill us
                        logger.exception("on_crash callback failed")
                # Interruptible backoff: stop() wakes us immediately.
                if self._stop.wait(delay):
                    return
