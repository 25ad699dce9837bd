"""Columnar table substrate.

A small, typed, columnar in-memory table layer: enough of a storage engine
to host the paper's TPC-H-style workloads and to back the SQL engine and
the window operator. Columns are numpy-backed where the type allows it and
carry an explicit NULL mask.
"""

from repro.table.column import Column, DataType, infer_dtype
from repro.table.schema import Field, Schema
from repro.table.table import Table
from repro.table.csvio import read_csv, write_csv

__all__ = [
    "Column",
    "DataType",
    "Field",
    "Schema",
    "Table",
    "infer_dtype",
    "read_csv",
    "write_csv",
]
