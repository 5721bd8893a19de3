"""Dispatch from parsed aggregate calls to column-set models.

Implements the paper's split between *density-based* aggregates (COUNT,
PERCENTILE, and AVG/VARIANCE/STDDEV over the predicate column itself) and
*regression-based* aggregates (SUM, and AVG/VARIANCE/STDDEV over the
dependent column), choosing by which column the aggregate names.  The
choice is made once, in :class:`~repro.core.batched.BatchedGroupEvaluator`,
for a single model and a GROUP BY set alike.
"""

from __future__ import annotations

from repro.core.model import ColumnSetModel, Ranges
from repro.sql.ast import AggregateCall


def answer_aggregate(
    model: ColumnSetModel,
    aggregate: AggregateCall,
    ranges: Ranges,
) -> float:
    """Evaluate one aggregate against one column-set model.

    ``ranges`` maps predicate column name to (lb, ub); columns of the
    model without an entry default to their full domain.
    """
    return model.answer(aggregate, ranges)
