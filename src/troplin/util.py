"""Bitmask helpers for subsets of {0, ..., n-1}."""

from itertools import combinations

# The most slots, flats or meets of flats that one request may list.
MAX_SLOTS = 1 << 16


def bits(mask):
    "Yield the set bits of mask in increasing order."
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elems):
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def elems(mask):
    return list(bits(mask))


def list1(mask):
    "Subset as a sorted 1-based element list (the JSON convention)."
    return [e + 1 for e in bits(mask)]


def ksubsets(n, k):
    "All k-subsets of {0..n-1} as bitmasks, ascending by integer value."
    if k < 0 or k > n:
        return []
    return sorted(map(sum, combinations([1 << e for e in range(n)], k)))


def submasks(mask, k):
    "All k-subsets of the set bits of mask, ascending by integer value."
    return sorted(map(sum, combinations([1 << e for e in bits(mask)], k)))


def slot_keys(n, k):
    """(mask, JSON key) of every k-subset of {0..n-1}, one pass over the
    combinations: keys are the canonical "1,3,4" spelling."""
    return zip(map(sum, combinations([1 << e for e in range(n)], k)),
               map(",".join, combinations([str(e + 1) for e in range(n)], k)))
