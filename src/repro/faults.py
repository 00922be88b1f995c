"""Deterministic fault injection for the resilience (chaos) harness.

A :class:`FaultPlan` schedules failures at chosen *candidate ordinals*
(the 0-based index of real candidate evaluations the DSE engine starts,
cache hits and journal replays excluded).  The plan is installed for the
duration of one ``auto_dse`` call (``auto_dse(fault_plan=...)``) and is
consulted from hooks *inside the production code paths* -- the estimator
entry point, the checkpoint journal writer -- so the machinery under
test is the real quarantine/retry/journal code, not a mock.  A candidate
that would take the score of the design scored just before it (a bank
cap that derives the same banking) is scored afresh when an estimator
fault is scheduled at its ordinal, so every scheduled fault fires.

Fault kinds:

``transient``
    :class:`~repro.hls.estimator.TransientEstimatorError` raised from
    the estimator for ``count`` consecutive attempts, then success --
    exercises the bounded-retry path (``DSE002`` when retries run out).
``permanent``
    ``RuntimeError`` raised from the estimator on every attempt for that
    candidate -- exercises the quarantine path (``DSE001``).
``hang``
    A stall made visible to the watchdog: the active
    :class:`~repro.util.deadline.Deadline` is force-expired, so the next
    cooperative checkpoint raises exactly as it would for a real hang --
    exercises the timeout quarantine (``DSE003``).  Requires an active
    deadline (``--candidate-timeout``); injecting a hang with none
    active raises ``RuntimeError``, since the real sweep would simply
    never return.
``crash``
    :class:`InjectedCrash` raised immediately *after* the journal append
    for that candidate -- simulated process death.  ``InjectedCrash``
    derives from ``BaseException`` so no quarantine handler can swallow
    it; it propagates out of ``auto_dse`` the way ``SIGKILL`` would end
    the process.
``corrupt``
    The journal line for that candidate is truncated mid-payload before
    it reaches the disk -- simulates a crash mid-``write`` and exercises
    the corrupt-line tolerance on resume (``DSE006``).

Every firing is recorded in :attr:`FaultPlan.fired` so tests can assert
the plan actually exercised what it scheduled.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

FAULT_KINDS = ("transient", "permanent", "hang", "crash", "corrupt")


class InjectedCrash(BaseException):
    """Simulated process death (between journal appends).

    Deliberately a ``BaseException``: the DSE quarantine catches
    ``Exception`` to keep sweeps alive, and a crash must not be
    survivable -- that is the point of the simulation.
    """


@dataclass(frozen=True)
class Fault:
    """One scheduled failure: what kind, at which candidate ordinal."""

    kind: str
    candidate: int
    count: int = 1  # transient only: consecutive failures before success

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.candidate < 0:
            raise ValueError(f"candidate ordinal must be >= 0, got {self.candidate}")
        if self.count < 1:
            raise ValueError(f"fault count must be >= 1, got {self.count}")


class FaultPlan:
    """A deterministic schedule of injected failures.

    Build one explicitly from :class:`Fault` entries, or derive one from
    a seed with :meth:`random` -- the same seed always yields the same
    plan, which is what makes a chaos failure reproducible from its
    logged seed alone.
    """

    def __init__(self, faults: Sequence[Fault] = (), seed: Optional[int] = None):
        self.faults: Tuple[Fault, ...] = tuple(faults)
        self.seed = seed
        by_key: Dict[Tuple[str, int], Fault] = {}
        for fault in self.faults:
            key = (fault.kind, fault.candidate)
            if key in by_key:
                raise ValueError(f"duplicate fault {key} in plan")
            by_key[key] = fault
        self._by_key = by_key
        self._transient_left: Dict[int, int] = {
            f.candidate: f.count for f in self.faults if f.kind == "transient"
        }
        self._spent: Set[Tuple[str, int]] = set()
        self._current: Optional[int] = None
        self.fired: List[Tuple[str, int]] = []

    @classmethod
    def random(
        cls,
        seed: int,
        candidates: int,
        kinds: Sequence[str] = FAULT_KINDS,
        rate: float = 0.25,
    ) -> "FaultPlan":
        """A seeded plan over the first ``candidates`` ordinals.

        Each ordinal independently receives one fault of a random kind
        with probability ``rate``.  Identical ``(seed, candidates,
        kinds, rate)`` always produce an identical plan.
        """
        rng = random.Random(seed)
        faults: List[Fault] = []
        for index in range(candidates):
            if rng.random() < rate:
                kind = rng.choice(list(kinds))
                count = rng.randint(1, 2) if kind == "transient" else 1
                faults.append(Fault(kind, index, count))
        return cls(faults, seed=seed)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, faults={list(self.faults)})"

    def plans(self, kind: str) -> List[int]:
        """The candidate ordinals scheduled for ``kind``, ascending."""
        return sorted(f.candidate for f in self.faults if f.kind == kind)

    # -- hooks (called from production code paths) -------------------------

    def enter_candidate(self, ordinal: int) -> None:
        """The engine is starting a real evaluation of candidate ``ordinal``."""
        self._current = ordinal

    def exit_candidate(self) -> None:
        """The evaluation ended; scheduled faults stop firing until the
        next :meth:`enter_candidate` (keeps failures attributable)."""
        self._current = None

    def estimator_fault_due(self) -> bool:
        """Whether an estimator fault (transient, permanent or hang) is
        scheduled at the current candidate: its scoring must then reach
        the estimator even when it repeats an already-scored design."""
        ordinal = self._current
        return ordinal is not None and any(
            (kind, ordinal) in self._by_key for kind in ("transient", "permanent", "hang")
        )

    def on_estimate(self) -> None:
        """Estimator entry hook: may raise a scheduled transient/permanent
        failure or make a hang visible to the active deadline."""
        ordinal = self._current
        if ordinal is None:
            return
        left = self._transient_left.get(ordinal, 0)
        if left > 0:
            from repro.hls.estimator import TransientEstimatorError

            self._transient_left[ordinal] = left - 1
            self.fired.append(("transient", ordinal))
            raise TransientEstimatorError(
                f"injected transient estimator fault at candidate {ordinal}"
            )
        if ("permanent", ordinal) in self._by_key:
            self.fired.append(("permanent", ordinal))
            raise RuntimeError(
                f"injected permanent estimator fault at candidate {ordinal}"
            )
        key = ("hang", ordinal)
        if key in self._by_key and key not in self._spent:
            from repro.util import deadline as _deadline

            self._spent.add(key)
            self.fired.append(key)
            active = _deadline.active()
            if active is None:
                raise RuntimeError(
                    f"injected hang at candidate {ordinal} with no active "
                    "deadline -- the real sweep would never return; run with "
                    "a per-candidate timeout"
                )
            # Expire the watchdog and let the production checkpoint path
            # (isl elimination / AST build / lowering) raise, exactly as
            # it would when a real stall overran the budget.
            active.expire_now()
            _deadline.checkpoint()

    def on_journal_line(self, ordinal: int, payload: str) -> str:
        """Journal write hook: may corrupt the serialized line."""
        key = ("corrupt", ordinal)
        if key in self._by_key and key not in self._spent:
            self._spent.add(key)
            self.fired.append(key)
            return payload[: max(1, len(payload) // 2)]
        return payload

    def after_journal_append(self, ordinal: int) -> None:
        """Journal post-append hook: may simulate process death."""
        key = ("crash", ordinal)
        if key in self._by_key and key not in self._spent:
            self._spent.add(key)
            self.fired.append(key)
            raise InjectedCrash(
                f"injected crash after journal append for candidate {ordinal}"
            )


_ACTIVE_PLAN: Optional[FaultPlan] = None


def active() -> Optional[FaultPlan]:
    """The installed fault plan, or ``None`` (the production default)."""
    return _ACTIVE_PLAN


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` globally; returns the previously installed plan."""
    global _ACTIVE_PLAN
    previous = _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    return previous


def clear() -> None:
    install(None)


@contextmanager
def injected(plan: FaultPlan):
    """Install ``plan`` for the duration of the block."""
    previous = install(plan)
    try:
        yield plan
    finally:
        install(previous)
