"""Deterministic fault injection for the execution guardrails.

Failure handling is only trustworthy when the failures themselves are
reproducible: this module lets tests (and chaos-style benchmarks) arm
named *sites* in the execution stack — structure builds, admission,
memory reservations, joins, CTEs — with an exact schedule of
exceptions. A site fires on specific call numbers, so a test can say
"the first two structure builds fail, the third succeeds" and get the
same run every time.

Sites currently wired into the engine:

* ``structure.build`` — around every index-structure build routed
  through :meth:`repro.window.evaluators.common.CallInput.structure`;
* ``gateway.admit``  — on every admission attempt at the
  :class:`~repro.resilience.gateway.QueryGateway`;
* ``memory.reserve`` — on every byte-reservation attempt at the
  :class:`~repro.resilience.memory.MemoryGovernor`;
* ``join.build``     — before every hash join in the SQL executor
  (fired by the plan driver as it enters the node), so a join nested
  under other joins unwinds their reservations under injected failure;
* ``cte.materialize`` — before every CTE materialization (the plan
  driver entering a CTE node), so half-materialized WITH chains
  release their reservations.

The injector is carried by the active
:class:`~repro.resilience.context.ExecutionContext`; code under test
reaches it via ``current_context().fire(site)``, which also counts the
injected fault in the context's health counters.

:meth:`FaultInjector.plan` validates the site name against
:func:`known_fault_sites` — the list used to drift silently from the
call sites actually wired into the engine; now arming a typo (or a
site that was renamed away) fails loudly, and
``tests/test_fault_sites.py`` greps the engine source to keep the list
honest in the other direction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class _FaultPlan:
    """Fire on call numbers ``after < k <= after + times`` (1-based)."""

    times: int
    after: int
    exception: Optional[Callable[[], Exception]]
    calls: int = 0
    fired: int = 0


@dataclass
class FaultInjector:
    """A deterministic schedule of exceptions keyed by site name.

    With no plans armed (the default), :meth:`fire` is a cheap no-op,
    so production paths can call it unconditionally.
    """

    _plans: Dict[str, _FaultPlan] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def plan(self, site: str, times: int = 1, after: int = 0,
             exception: Optional[Callable[[], Exception]] = None
             ) -> "FaultInjector":
        """Arm ``site``: skip the first ``after`` calls, then raise on
        the next ``times`` calls (``times < 0`` = every call forever).
        Returns self for chaining.

        Raises :class:`ValueError` for a site name the engine never
        fires — an armed-but-dead plan is a test that silently checks
        nothing."""
        if site not in _KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; the engine fires "
                f"{sorted(_KNOWN_SITES)}")
        with self._lock:
            self._plans[site] = _FaultPlan(times=times, after=after,
                                           exception=exception)
        return self

    def clear(self, site: Optional[str] = None) -> None:
        with self._lock:
            if site is None:
                self._plans.clear()
            else:
                self._plans.pop(site, None)

    @property
    def armed(self) -> bool:
        return bool(self._plans)

    def fire(self, site: str) -> None:
        """Raise the scheduled exception if ``site``'s plan says so."""
        if not self._plans:
            return
        with self._lock:
            plan = self._plans.get(site)
            if plan is None:
                return
            plan.calls += 1
            due = plan.calls > plan.after and (
                plan.times < 0 or plan.fired < plan.times)
            if not due:
                return
            plan.fired += 1
            factory = plan.exception
        raise factory() if factory is not None \
            else RuntimeError(f"injected fault at {site!r}")

    def fired(self, site: str) -> int:
        """How many times ``site`` has actually raised."""
        with self._lock:
            plan = self._plans.get(site)
            return plan.fired if plan is not None else 0

    def calls(self, site: str) -> int:
        """How many times ``site`` has been reached (fired or not)."""
        with self._lock:
            plan = self._plans.get(site)
            return plan.calls if plan is not None else 0


#: Shared disabled injector for ambient contexts; never armed.
NO_FAULTS = FaultInjector()

_KNOWN_SITES = frozenset({
    "structure.build", "gateway.admit", "memory.reserve",
    "join.build", "cte.materialize",
})


def known_fault_sites() -> List[str]:
    """The site names wired into the engine, sorted.

    :meth:`FaultInjector.plan` rejects anything else;
    ``tests/test_fault_sites.py`` asserts this list matches the
    ``fire(...)`` call sites actually present in the source tree."""
    return sorted(_KNOWN_SITES)

