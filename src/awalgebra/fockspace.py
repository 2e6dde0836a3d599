"""Graded enumeration of the truncated occupation basis.

States are occupation tuples (n_1, ..., n_legs), n_i >= 0, with total
weight sum(n_i) <= n_max.  Ordering is graded lexicographic: ascending
total weight, then ascending lexicographic within each weight.  Every
weight block is therefore a contiguous index range, which keeps all
weight-preserving operators visibly block diagonal.
"""

from __future__ import annotations


def compositions(total, parts):
    """Occupation tuples of the given total, ascending lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


class TruncatedBasis:
    """Ordered basis of occupation tuples with contiguous weight blocks.

    len() is the state count; states are addressed both ways through
    .states[i] and .index_of(state).  Compared and hashed by shape
    (legs, n_max), which fixes every state and its position, so two
    bases of one shape are interchangeable.
    """

    def __init__(self, legs: int, n_max: int):
        if legs not in (1, 2, 3, 4):
            raise ValueError(f"legs must be 1, 2, 3 or 4, got {legs}")
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.legs = legs
        self.n_max = n_max
        states: list[tuple[int, ...]] = []
        blocks: list[range] = []
        for w in range(n_max + 1):
            start = len(states)
            states.extend(compositions(w, legs))
            blocks.append(range(start, len(states)))
        self.states = tuple(states)
        self._blocks = tuple(blocks)
        self._index = {m: i for i, m in enumerate(self.states)}
        self.weights = tuple(sum(m) for m in self.states)

    def __len__(self) -> int:
        return len(self.states)

    def __eq__(self, other):
        if not isinstance(other, TruncatedBasis):
            return NotImplemented
        return (self.legs, self.n_max) == (other.legs, other.n_max)

    def __hash__(self) -> int:
        return hash((self.legs, self.n_max))

    def __repr__(self) -> str:
        return f"TruncatedBasis(legs={self.legs}, n_max={self.n_max})"

    def index_of(self, state) -> int:
        try:
            return self._index[tuple(state)]
        except KeyError:
            raise KeyError(f"state {tuple(state)} outside truncation") from None

    def weight_block(self, w: int) -> range:
        """Contiguous index range of the weight-w block."""
        if not 0 <= w <= self.n_max:
            raise KeyError(f"no weight-{w} block (n_max={self.n_max})")
        return self._blocks[w]
