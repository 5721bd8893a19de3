"""Bounded memoisation of per-aggregate answers.

Models are immutable once registered, so the answer to one
``(model, aggregate, bounds)`` triple never changes while a server is
up: the natural cache key is the *resolved*
:class:`~repro.core.catalog.ModelKey` (two query shapes that resolve to
the same superset model share an entry) plus the aggregate and the
merged range bounds.  This sits one layer above the bounds-keyed moment
memo in :mod:`repro.core.batched`: a miss here that re-runs a
previously-seen bounds template still reuses the evaluator's cached
kernel pass; a hit here skips the engine entirely.

Group-by answers are dicts; the cache stores and returns *copies* so a
caller mutating its result cannot poison later hits.

Thread-safe; keeps hit/miss/eviction counters for the server's stats.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.catalog import ModelKey
from repro.sql.ast import AggregateCall

Ranges = dict[str, tuple[float, float]]

_MISSING = object()


def answer_key(
    model_key: ModelKey,
    aggregate: AggregateCall,
    ranges: Ranges,
    equalities: tuple = (),
) -> tuple:
    """A hashable cache key for one aggregate evaluation.

    ``equalities`` carries categorical-selection predicates — the model
    key alone does not distinguish ``g = 1`` from ``g = 2``.
    """
    return (
        model_key,
        aggregate.func,
        aggregate.column,
        aggregate.parameter,
        tuple(sorted(ranges.items())),
        equalities,
    )


class AnswerCache:
    """Bounded LRU from :func:`answer_key` to a float or per-group dict."""

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(
        self,
        key: tuple,
        version: int = 0,
        record: bool = True,
        copy: bool = True,
    ) -> object:
        """The cached answer, or the missing sentinel when absent.

        Entries are tagged with the ``version`` they were computed
        under (the serving layer passes the catalog version): an entry
        whose tag differs is dropped and reported missing, so an answer
        computed against a since-replaced model can never be served —
        even if it was ``put`` *after* an invalidation sweep cleared
        the cache.

        ``record=False`` leaves the hit/miss counters untouched — used
        for the double-check a worker makes after acquiring a model
        lock, so one logical lookup is not counted twice.
        ``copy=False`` returns the stored dict itself instead of a
        fresh copy; callers that make their own per-consumer copies
        (the query server fans one value out to a whole batch) pass it
        to avoid copying twice.
        """
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is not _MISSING and entry[0] != version:
                del self._entries[key]  # computed against a stale catalog
                entry = _MISSING
            if entry is _MISSING:
                if record:
                    self._misses += 1
                return _MISSING
            self._entries.move_to_end(key)
            if record:
                self._hits += 1
            value = entry[1]
            return dict(value) if copy and isinstance(value, dict) else value

    def put(self, key: tuple, value: object, version: int = 0) -> None:
        """Store a private copy of ``value``, tagged with ``version``."""
        with self._lock:
            self._entries[key] = (
                version,
                dict(value) if isinstance(value, dict) else value,
            )
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate(self, changed_model_keys, new_version: int) -> int:
        """Per-key invalidation sweep after a catalog version bump.

        Entries whose resolved :class:`ModelKey` (the first element of
        their :func:`answer_key`) is in ``changed_model_keys`` are
        evicted; every *other* entry is re-tagged to ``new_version`` —
        its model did not change, so its answer is still exact.  A
        computation that raced the sweep still can't poison the cache:
        it ``put``\\ s with the version it observed *before* the bump,
        which no later reader presents.

        Returns the number of entries evicted.
        """
        changed = set(changed_model_keys)
        dropped = 0
        with self._lock:
            for key in list(self._entries):
                if key[0] in changed:
                    del self._entries[key]
                    dropped += 1
                else:
                    entry = self._entries[key]
                    if entry[0] != new_version:
                        self._entries[key] = (new_version, entry[1])
            self._evictions += dropped
        return dropped

    @staticmethod
    def missing(value: object) -> bool:
        """True when :meth:`get` found no entry."""
        return value is _MISSING

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
