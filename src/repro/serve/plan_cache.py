"""Normalised-template plan cache: parse each query *shape* once.

``DBEst.execute`` re-parses every SQL string it sees; the engine-level
LRU (:func:`repro.core.engine._parse_validated`) removes that cost for
*identical* strings, but dashboard traffic mostly repeats templates with
different literals — ``... WHERE x BETWEEN 10 AND 20`` now, ``BETWEEN
30 AND 55`` a second later.  :class:`PlanCache` keys queries by their
normalised template (token stream with numeric literals abstracted out,
see :func:`repro.sql.parser.split_literals`): the first sighting of a
shape pays the full recursive-descent parse; every later sighting only
tokenizes, binds its literals into the cached skeleton, and runs the
(cheap, value-dependent) semantic validation.

Bound queries are fresh objects — callers may treat them as their own.
Thread-safe; the query server calls :meth:`parse` from every worker and
submitter thread.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.sql.ast import Query
from repro.sql.parser import bind_template, parse_template, split_literals
from repro.sql.validator import validate_query


class PlanCache:
    """Bounded LRU of parsed query skeletons keyed by template."""

    def __init__(self, max_plans: int = 256) -> None:
        if max_plans < 1:
            raise ValueError(f"max_plans must be >= 1, got {max_plans}")
        self.max_plans = max_plans
        self._plans: OrderedDict[str, Query] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def parse(self, sql: str, validate: bool = True) -> Query:
        """Parse ``sql``, reusing the cached plan of its template.

        Raises exactly what ``parse_query`` + ``validate_query`` raise:
        syntax errors surface while normalising or (for the
        value-dependent reversed-BETWEEN check) while binding;
        validation runs on the *bound* query, since checks like
        PERCENTILE's p ∈ (0, 1) depend on the literals.
        """
        template, literals, slotted = split_literals(sql)
        with self._lock:
            skeleton = self._plans.get(template)
            if skeleton is not None:
                self._plans.move_to_end(template)
                self._hits += 1
        if skeleton is None:
            # Parse outside the lock; concurrent first sightings of one
            # template both parse, and the last insert wins (identical).
            skeleton = parse_template(slotted)
            with self._lock:
                self._misses += 1
                self._plans[template] = skeleton
                self._plans.move_to_end(template)
                while len(self._plans) > self.max_plans:
                    self._plans.popitem(last=False)
                    self._evictions += 1
        query = bind_template(skeleton, literals)
        if validate:
            validate_query(query)
        return query

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> dict:
        """Counters under the normalized cache schema.

        ``entries``/``max_entries`` are the occupancy keys shared with
        :class:`~repro.serve.answer_cache.AnswerCache`.  The dict is
        freshly built per call — mutating it cannot touch live cache
        state.
        """
        with self._lock:
            return {
                "entries": len(self._plans),
                "max_entries": self.max_plans,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
