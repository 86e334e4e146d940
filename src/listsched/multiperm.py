"""Distinct permutations of a multiset: counting, enumeration, rank/unrank.

Enumeration is lexicographic and yields each distinct arrangement exactly
once, so equal items are never over-counted. Ranking and unranking are
mutual inverses against that same lexicographic order, which gives uniform
sampling over distinct permutations via uniform ranks.
"""
from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")

__all__ = [
    "permutation_count",
    "iter_permutations",
    "rank_permutation",
    "unrank_permutation",
]


def permutation_count(items: Sequence[T]) -> int:
    """Number of distinct permutations: n! over the product of multiplicities."""
    counts = Counter(items)
    total = factorial(sum(counts.values()))
    for c in counts.values():
        total //= factorial(c)
    return total


def iter_permutations(items: Sequence[T]) -> Iterator[tuple[T, ...]]:
    """Distinct permutations in lexicographic order; items must be orderable."""
    current = sorted(items)
    n = len(current)
    if n == 0:
        yield ()
        return
    while True:
        yield tuple(current)
        # next lexicographic permutation (strict comparisons skip duplicates)
        i = n - 2
        while i >= 0 and not current[i] < current[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while not current[i] < current[j]:
            j -= 1
        current[i], current[j] = current[j], current[i]
        current[i + 1 :] = reversed(current[i + 1 :])


def rank_permutation(sequence: Sequence[T]) -> int:
    """Zero-based index of this arrangement in lexicographic order."""
    counts = Counter(sequence)
    keys = sorted(counts)
    remaining = permutation_count(sequence)
    n = len(sequence)
    rank = 0
    for pos, value in enumerate(sequence):
        for item in keys:
            if counts[item] == 0:
                continue
            # arrangements of the suffix that start with this item
            block = remaining * counts[item] // (n - pos)
            if item < value:
                rank += block
            else:
                remaining = block
                break
        counts[value] -= 1
    return rank


def unrank_permutation(items: Sequence[T], rank: int) -> tuple[T, ...]:
    """The arrangement at the given zero-based lexicographic index."""
    counts = Counter(items)
    keys = sorted(counts)
    remaining = permutation_count(items)
    if not 0 <= rank < max(remaining, 1):
        raise ValueError(f"rank {rank} out of range for {remaining} permutations")
    n = len(items)
    out: list[T] = []
    for pos in range(n):
        for item in keys:
            if counts[item] == 0:
                continue
            block = remaining * counts[item] // (n - pos)
            if rank < block:
                out.append(item)
                counts[item] -= 1
                remaining = block
                break
            rank -= block
    return tuple(out)
