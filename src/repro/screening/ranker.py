"""Streaming bounded-memory top-k ranking with a deterministic total order.

Screening scores millions of candidates but keeps only the best handful,
so the ranker must be O(k) memory over an unbounded stream *and* produce
an order that does not depend on arrival order, batch size, or shard
layout.  The order is the lexicographic key

    (score ascending, fingerprint ascending, candidate index ascending)

— score first (lower is better: energies), the content fingerprint to
break exact score ties stably across processes, and the global candidate
index as the final tiebreak so the order is total even for bit-identical
duplicate structures.  Because the key is total, top-k of a union equals
top-k of the concatenated per-shard top-k lists, which is what makes
``TopK.merge`` over shards exactly equal to single-shard ranking
(DESIGN.md §15).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


class NonFiniteScoreError(ValueError):
    """A NaN or infinite score was offered to a :class:`TopK`.

    NaN has no place in the total order (every comparison with it is
    False), so admitting one would silently evict finite entries and make
    the ranking depend on arrival order and shard layout.
    """


@dataclass(frozen=True)
class RankedCandidate:
    """One ranked entry: the sort key plus display payload."""

    score: float
    fingerprint: str
    index: int
    payload: Optional[Dict[str, object]] = None

    @property
    def key(self) -> Tuple[float, str, int]:
        return (self.score, self.fingerprint, self.index)


class TopK:
    """Keep the k smallest (score, fingerprint, index) entries of a stream."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self._keys: List[Tuple[float, str, int]] = []
        self._entries: Dict[Tuple[float, str, int], RankedCandidate] = {}
        #: Stream accounting: total candidates offered / actually kept.
        self.offered = 0
        self.admitted = 0

    # ------------------------------------------------------------------ #
    def offer(
        self,
        score: float,
        fingerprint: str,
        index: int,
        payload: Optional[Dict[str, object]] = None,
    ) -> bool:
        """Consider one candidate; returns whether it entered the top-k.

        Raises :class:`NonFiniteScoreError`, before touching any state,
        when ``score`` is NaN or infinite.
        """
        score = float(score)
        if not math.isfinite(score):
            raise NonFiniteScoreError(f"candidate {index}: non-finite score {score!r}")
        self.offered += 1
        key = (score, str(fingerprint), int(index))
        if len(self._keys) >= self.k and key >= self._keys[-1]:
            return False
        bisect.insort(self._keys, key)
        self._entries[key] = RankedCandidate(key[0], key[1], key[2], payload)
        self.admitted += 1
        if len(self._keys) > self.k:
            evicted = self._keys.pop()
            del self._entries[evicted]
        return True

    def extend(self, entries: Iterable[RankedCandidate]) -> None:
        for entry in entries:
            self.offer(entry.score, entry.fingerprint, entry.index, entry.payload)

    # ------------------------------------------------------------------ #
    def ranked(self) -> List[RankedCandidate]:
        """Best-first entries (ascending key), at most k of them."""
        return [self._entries[key] for key in self._keys]

    def __len__(self) -> int:
        return len(self._keys)

    # ------------------------------------------------------------------ #
    @classmethod
    def merge(cls, parts: Iterable["TopK"], k: Optional[int] = None) -> "TopK":
        """Fold per-shard rankers into one, preserving exactness.

        With ``k`` omitted, the merged ranker keeps the maximum part
        size.  Exactness argument: every stream candidate outside its
        shard's top-k is dominated by k candidates within that shard, so
        it cannot be in the global top-k — concatenating the per-shard
        survivors loses nothing.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("cannot merge zero rankers")
        merged = cls(k or max(p.k for p in parts))
        offered = 0
        for part in parts:
            offered += part.offered
            merged.extend(part.ranked())
        # Offered counts the original stream, not the merge traffic.
        merged.offered = offered
        return merged
