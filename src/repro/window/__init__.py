"""The window operator and framed window functions.

This package implements the paper's proposed SQL extensions (Section
2.4): *every* aggregate and window function — including holistic ones —
composable with arbitrary window frames:

* framed DISTINCT aggregates (``COUNT(DISTINCT x) OVER (...)``, ``SUM``,
  ``MIN``, ``MAX``, ``AVG``, user-defined),
* framed rank functions (``RANK(ORDER BY ...) OVER (...)``,
  ``ROW_NUMBER``, ``PERCENT_RANK``, ``CUME_DIST``, ``NTILE``,
  ``DENSE_RANK`` via presence tables or range trees),
* framed percentiles (``PERCENTILE_DISC`` / ``PERCENTILE_CONT`` /
  ``MEDIAN`` with their own ORDER BY),
* framed value functions (``FIRST_VALUE``, ``LAST_VALUE``, ``NTH_VALUE``
  with IGNORE NULLS),
* framed ``LEAD`` / ``LAG`` with an independent ORDER BY,
* plus the classic distributive/algebraic aggregates for completeness.

Frames support ROWS / RANGE / GROUPS modes, UNBOUNDED / CURRENT ROW /
constant / per-row expression offsets (non-monotonic frames, Section
6.5), EXCLUDE clauses (Section 4.7) and FILTER clauses.
"""

from repro.window.frame import (
    FrameBound,
    FrameExclusion,
    FrameMode,
    FrameSpec,
    WindowSpec,
    current_row,
    following,
    preceding,
    unbounded_following,
    unbounded_preceding,
)
from repro.window.calls import WindowCall
from repro.window.operator import WindowOperator, window_query

__all__ = [
    "FrameBound",
    "FrameExclusion",
    "FrameMode",
    "FrameSpec",
    "WindowCall",
    "WindowOperator",
    "WindowSpec",
    "current_row",
    "following",
    "preceding",
    "unbounded_following",
    "unbounded_preceding",
    "window_query",
]
