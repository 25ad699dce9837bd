"""Preprocessing steps that reduce SQL values to integer tree keys.

Section 5.1: the merge sort tree itself only ever stores integers; all
SQL type intricacies (multiple sort criteria, NULL ordering, collations)
are handled by preprocessing passes built on sorting:

* :func:`previous_occurrence` / :func:`previous_occurrence_by_hash` —
  Algorithm 1 on values and on hashes, for distinct aggregates, for
  ``dense_rank`` and for the EXCLUDE correction of both;
* :func:`permutation_array` — the Section 4.5 permutation for
  percentiles and value functions;
* :func:`dense_rank_keys` — the Figure 8 dense renumbering for rank
  functions;
* :func:`IndexRemap` — the FILTER / IGNORE NULLS index remapping of
  Sections 4.5 and 4.7.
"""

from repro.preprocess.occurrences import (
    NO_PREVIOUS,
    previous_occurrence,
    previous_occurrence_by_hash,
)
from repro.preprocess.permutation import inverse_permutation, permutation_array
from repro.preprocess.rankkeys import dense_rank_keys, row_number_keys
from repro.preprocess.remap import IndexRemap

__all__ = [
    "NO_PREVIOUS",
    "IndexRemap",
    "dense_rank_keys",
    "inverse_permutation",
    "permutation_array",
    "previous_occurrence",
    "previous_occurrence_by_hash",
    "row_number_keys",
]
