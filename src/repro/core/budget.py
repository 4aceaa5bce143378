"""Resource budgets and cooperative cancellation for solving.

The paper's own complexity bound — ``O(n³ |F_M^≡|²)`` for bidirectional
solving (Section 4) — means adversarial or just unlucky workloads can
blow up combinatorially.  A production deployment must be able to say
"spend at most this much" and to *stop* a solve that a client has given
up on, without corrupting the constraint graph.  This module provides
both:

* :class:`CancellationToken` — a thread-safe flag a *different* thread
  (a server's timeout handler, a shutdown path) sets to ask the solving
  thread to stop at its next check point;
* :class:`Budget` — step / wall-clock / fact-count limits plus an
  optional token, charged by the solver drain loops.

The contract with the drain loops (:meth:`repro.core.solver.Solver._drain`
and :meth:`repro.core.flatcore.FlatSolver._drain`) is:

* limits are checked **between facts only** — at the start of a drain
  and then every :attr:`Budget.check_interval` processed facts — so an
  interrupt never leaves a fact half-resolved and the solver state is
  always consistent and resumable;
* the check is amortized: with no budget attached the hot loop pays a
  single predictable-branch ``is not None`` test per fact, and with one
  attached the full limit evaluation runs once per ``check_interval``
  facts (see docs/PERFORMANCE.md for measurements);
* on violation the drain raises
  :class:`~repro.core.errors.SolverBudgetExceeded` (which limit, plus
  partial-progress stats) or
  :class:`~repro.core.errors.SolverCancelled`; the pending worklist is
  preserved, so :meth:`~repro.core.solver.Solver.resume` — or a
  checkpoint dump followed by a later load — picks up exactly where the
  interrupted solve stopped.

:meth:`repro.core.demand.DemandForwardSolver.solve` charges the same
way between path edges, with one difference: its tabulation lives only
in that call, so an interrupted forward solve is discarded, not
resumed.

A :class:`Budget` is single-use in spirit but deliberately reusable
across drains of one logical solve: ``steps`` accumulates over every
drain it governs, which is what makes ``max_steps`` meaningful for the
online solver's many small :meth:`~repro.core.solver.Solver.add`
drains, not just one big batch.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.core.errors import SolverBudgetExceeded, SolverCancelled

#: Default number of facts processed between full limit evaluations.
DEFAULT_CHECK_INTERVAL = 1024


class CancellationToken:
    """A one-way, thread-safe "please stop" flag.

    ``cancel()`` may be called from any thread, any number of times.
    The solving thread observes it at its next budget check point and
    raises :class:`~repro.core.errors.SolverCancelled`.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"<CancellationToken {state}>"


class Budget:
    """Resource limits for a solve, charged by the drain loops.

    Any subset of the limits may be set:

    * ``max_steps`` — facts processed (across every drain this budget
      governs);
    * ``max_seconds`` — wall-clock seconds, measured from the first
      charge (so time spent queued before solving starts is not billed);
    * ``max_facts`` — solved-form size (``fact_count()`` of the charged
      solver; evaluated only at check points since it is O(variables));
    * ``token`` — a :class:`CancellationToken` checked first at every
      check point.

    ``check_interval`` tunes the amortization: smaller values interrupt
    more promptly but evaluate limits more often.  Tests pin it to 1 for
    determinism; production callers should keep the default.
    """

    __slots__ = (
        "max_steps",
        "max_seconds",
        "max_facts",
        "token",
        "check_interval",
        "steps",
        "started_at",
    )

    def __init__(
        self,
        max_steps: int | None = None,
        max_seconds: float | None = None,
        max_facts: int | None = None,
        token: CancellationToken | None = None,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
    ):
        for name, value in (
            ("max_steps", max_steps),
            ("max_seconds", max_seconds),
            ("max_facts", max_facts),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if check_interval < 1:
            raise ValueError(f"check_interval must be >= 1, got {check_interval!r}")
        self.max_steps = max_steps
        self.max_seconds = max_seconds
        self.max_facts = max_facts
        self.token = token
        # A step limit smaller than the check interval would never be
        # enforced mid-drain; clamp so the enforcement grain matches the
        # limit's scale.
        if max_steps is not None:
            check_interval = min(check_interval, max_steps)
        self.check_interval = int(check_interval)
        #: Facts processed under this budget so far (across drains).
        self.steps = 0
        #: ``time.monotonic()`` of the first charge; None until then.
        self.started_at: float | None = None

    def tighten(
        self,
        max_steps: int | None = None,
        max_seconds: float | None = None,
        max_facts: int | None = None,
    ) -> "Budget":
        """Lower limits in place — never loosen — and return ``self``.

        Lets an outer governor (a server's per-request deadline) fold in
        a client-requested budget without allocating a second object.
        """
        if max_steps is not None:
            self.max_steps = (
                max_steps if self.max_steps is None else min(self.max_steps, max_steps)
            )
            self.check_interval = min(self.check_interval, self.max_steps)
        if max_seconds is not None:
            self.max_seconds = (
                max_seconds
                if self.max_seconds is None
                else min(self.max_seconds, max_seconds)
            )
        if max_facts is not None:
            self.max_facts = (
                max_facts if self.max_facts is None else min(self.max_facts, max_facts)
            )
        return self

    # -- accounting ------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Wall seconds since the first charge (0.0 before it)."""
        if self.started_at is None:
            return 0.0
        return time.monotonic() - self.started_at

    def progress(self, source: Any = None) -> dict:
        """Partial-progress stats, attached to interrupt exceptions.

        ``source`` is the interrupted solver (anything exposing
        ``fact_count()`` / ``pending_count()``); both entries are
        omitted when unavailable.
        """
        stats: dict[str, Any] = {
            "steps": self.steps,
            "elapsed_s": round(self.elapsed, 6),
        }
        if source is not None:
            fact_count = getattr(source, "fact_count", None)
            if fact_count is not None:
                stats["facts"] = fact_count()
            pending_count = getattr(source, "pending_count", None)
            if pending_count is not None:
                stats["pending"] = pending_count()
        return stats

    def settle(self, steps: int) -> None:
        """Record steps without enforcing limits (end-of-drain remainder).

        Keeps ``steps`` equal to the true number of processed facts even
        when a drain finishes between check points; the *next* drain's
        opening charge enforces the limits against the settled total.
        """
        self.steps += steps

    def charge(self, steps: int, source: Any = None) -> None:
        """Consume ``steps`` and raise if any limit is now breached.

        Called by the drain loops at their check points; raising here is
        safe because the caller guarantees no fact is mid-resolution.
        """
        self.steps += steps
        if self.started_at is None:
            self.started_at = time.monotonic()
        token = self.token
        if token is not None and token.cancelled:
            raise SolverCancelled(
                "solve cancelled", progress=self.progress(source)
            )
        if self.max_steps is not None and self.steps >= self.max_steps:
            raise SolverBudgetExceeded(
                "steps",
                f"step budget exhausted ({self.steps} >= {self.max_steps})",
                progress=self.progress(source),
            )
        if self.max_seconds is not None and self.elapsed >= self.max_seconds:
            raise SolverBudgetExceeded(
                "seconds",
                f"time budget exhausted "
                f"({self.elapsed:.3f}s >= {self.max_seconds}s)",
                progress=self.progress(source),
            )
        if self.max_facts is not None and source is not None:
            fact_count = getattr(source, "fact_count", None)
            if fact_count is not None and fact_count() >= self.max_facts:
                raise SolverBudgetExceeded(
                    "facts",
                    f"fact budget exhausted "
                    f"({fact_count()} >= {self.max_facts})",
                    progress=self.progress(source),
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limits = ", ".join(
            f"{name}={value}"
            for name, value in (
                ("max_steps", self.max_steps),
                ("max_seconds", self.max_seconds),
                ("max_facts", self.max_facts),
            )
            if value is not None
        )
        return f"<Budget {limits or 'unlimited'} steps={self.steps}>"
