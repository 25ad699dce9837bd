"""Drift guard: ``known_fault_sites()`` vs the engine's fire() calls.

The fault-site list and the engine drifted once (sites documented that
nothing fired, sites fired that nothing documented); this test greps
the source tree for the actual ``fire(...)`` call sites — literal
``ctx.fire("...")`` calls plus the ``fault_site=...`` indirection the
plan nodes use — and asserts the set matches
:func:`repro.resilience.faults.known_fault_sites` exactly. Arming an
unknown site is a hard error, so a chaos test can never silently
target a site the engine stopped firing.
"""

import re
from pathlib import Path

import pytest

from repro.resilience.faults import (
    NO_FAULTS,
    FaultInjector,
    known_fault_sites,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``something.fire("site.name")`` — the direct call sites.
_LITERAL = re.compile(r"""\.fire\(\s*['"]([a-z_][a-z_.]*)['"]""")
#: ``fault_site: str = "..."`` / ``fault_site = "..."`` — the plan
#: nodes carry the site the driver's one fire() call fires.
_DYNAMIC = re.compile(
    r"""fault_site(?:\s*:\s*str)?\s*=\s*['"]([a-z_][a-z_.]*)['"]""")


def _sites_fired_in_tree():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        found.update(_LITERAL.findall(text))
        found.update(_DYNAMIC.findall(text))
    return found


def test_known_sites_match_fire_call_sites_exactly():
    fired = _sites_fired_in_tree()
    known = set(known_fault_sites())
    assert fired == known, (
        f"fault-site drift: fired-but-unknown={sorted(fired - known)} "
        f"known-but-never-fired={sorted(known - fired)}")


def test_known_sites_are_sorted_and_nonempty():
    sites = known_fault_sites()
    assert sites == sorted(sites)
    assert "memory.reserve" in sites
    # The plan-node sites, fired by the driver as it enters the node.
    assert "join.build" in sites
    assert "cte.materialize" in sites


def test_plan_rejects_unknown_site():
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultInjector().plan("definitely.not.a.site")


def test_plan_accepts_every_known_site():
    injector = FaultInjector()
    for site in known_fault_sites():
        injector.plan(site, times=0)  # armed but never due


def test_shared_disabled_injector_stays_unarmed():
    assert not NO_FAULTS.armed
