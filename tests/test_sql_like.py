"""SQL LIKE against a per-row ``re.fullmatch`` reference: constant and
column-valued patterns, NOT LIKE, NULL values and patterns, and
characters that mean something to a regex."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import Catalog, execute
from repro.table import DataType, Table

# Wildcards, regex metacharacters and a newline beside plain letters.
ALPHABET = "ab%_.*+?()[]{}|^$\\\n"
TEXT = st.text(alphabet=ALPHABET, max_size=6)
NULLABLE = st.one_of(st.none(), TEXT)


def _reference(value, pattern):
    """One row: translate the pattern, then ``re.fullmatch``."""
    if value is None or pattern is None:
        return None
    regex = "".join(".*" if ch == "%" else "." if ch == "_"
                    else re.escape(ch) for ch in pattern)
    return re.fullmatch(regex, value, re.DOTALL) is not None


def _negate(hit):
    return None if hit is None else not hit


def _catalog(values, patterns=None):
    columns = {"s": (DataType.STRING, values)}
    if patterns is not None:
        columns["p"] = (DataType.STRING, patterns)
    return Catalog({"t": Table.from_dict(columns)})


@settings(deadline=None)
@given(st.lists(NULLABLE, min_size=1, max_size=12), TEXT)
def test_constant_pattern(values, pattern):
    literal = "'" + pattern.replace("'", "''") + "'"
    result = execute(f"select s like {literal}, s not like {literal} "
                     f"from t", _catalog(values))
    expected = [(_reference(v, pattern), _negate(_reference(v, pattern)))
                for v in values]
    assert result.to_rows() == expected


@settings(deadline=None)
@given(st.lists(st.tuples(NULLABLE, NULLABLE), min_size=1, max_size=12))
def test_column_valued_pattern(rows):
    values = [v for v, _ in rows]
    patterns = [p for _, p in rows]
    result = execute("select s like p, s not like p from t",
                     _catalog(values, patterns))
    expected = [(_reference(v, p), _negate(_reference(v, p)))
                for v, p in rows]
    assert result.to_rows() == expected


@settings(deadline=None)
@given(st.lists(st.sampled_from(["ab", "a\nb", "a.b", None]), min_size=1,
                max_size=30), st.sampled_from(["a%", "%b", "a_b", "%.%"]))
def test_repeated_values_filter(values, pattern):
    # Many rows, few distinct values: WHERE keeps exactly the matches.
    result = execute(f"select s from t where s like '{pattern}'",
                     _catalog(values))
    assert result.to_rows() == [(v,) for v in values
                                if _reference(v, pattern)]
