"""A SQL front end for the window engine.

A compact but real SQL pipeline — lexer, recursive-descent parser,
binder/planner, and a columnar executor — covering the subset the paper's
queries (Sections 1, 2.2, 2.4, 4.4, 6.2, 6.5) exercise:

* SELECT with expressions, aliases, ``*``; WITH (CTEs); derived tables;
* WHERE / GROUP BY / HAVING / ORDER BY / LIMIT;
* inner, left and cross joins with arbitrary ON predicates: hash joins
  wherever the ON condition has an equi-key, nested loops otherwise —
  the O(n^2) plan shape every system picked for the Figure 9
  traditional formulations;
* correlated scalar subqueries;
* aggregate functions incl. ``PERCENTILE_DISC/CONT .. WITHIN GROUP``;
* window functions with the paper's proposed extensions: DISTINCT
  aggregates, a function-level ORDER BY, FILTER, IGNORE NULLS and
  FROM LAST, over ROWS/RANGE/GROUPS frames with arbitrary (expression)
  boundaries and EXCLUDE clauses, plus named windows (WINDOW clause).

Usage::

    from repro.sql import Catalog, execute
    catalog = Catalog({"lineitem": lineitem_table})
    result = execute("select l_shipdate, median(l_extendedprice) over "
                     "(order by l_shipdate rows between 999 preceding "
                     "and current row) from lineitem", catalog)
"""

from repro.sql.catalog import Catalog
from repro.sql.config import QueryOptions, SessionConfig
from repro.sql.executor import execute
from repro.sql.explain import explain
from repro.sql.lexer import tokenize
from repro.sql.parser import parse
from repro.sql.result import QueryResult, QueryStats
from repro.sql.session import Session

__all__ = ["Catalog", "QueryOptions", "QueryResult", "QueryStats",
           "Session", "SessionConfig", "execute", "explain", "parse",
           "tokenize"]
