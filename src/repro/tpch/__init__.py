"""Deterministic TPC-H-style data generation.

The paper evaluates on the TPC-H ``lineitem`` table loaded from dbgen
CSVs. dbgen itself is not redistributable here, so this package generates
the columns the paper's queries touch with the distributions the spec
prescribes (uniform part keys, date ranges derived from the order date,
retail-price formula). The experiments depend only on value distributions
and duplication factors, which this generator matches; see DESIGN.md for
the substitution note.

All generators are seeded and reproducible.
"""

from repro.tpch.generator import (
    TPCH_END_DATE,
    TPCH_START_DATE,
    lineitem,
    lineitem_arrays,
    orders,
    tpcc_results,
)
from repro.tpch.queries import BLOCKED, QUERIES
from repro.tpch.reference import REFERENCE
from repro.tpch.tables import tpch_catalog, tpch_tables

__all__ = [
    "BLOCKED",
    "QUERIES",
    "REFERENCE",
    "TPCH_END_DATE",
    "TPCH_START_DATE",
    "lineitem",
    "lineitem_arrays",
    "orders",
    "tpcc_results",
    "tpch_catalog",
    "tpch_tables",
]
