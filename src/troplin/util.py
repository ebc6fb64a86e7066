"""Bitmask helpers for subsets of {0, ..., n-1}."""

from collections import namedtuple
from itertools import combinations

# The most slots, flats or meets of flats that one request may list.
MAX_SLOTS = 1 << 16

# One shape's k-subsets: masks in ksubsets order, their frozenset,
# {canonical key: mask}, and the canonical keys aligned with masks.
SlotTable = namedtuple("SlotTable", "masks maskset index keys")


class BoundedMemo(dict):
    """A dict of (cost, value) pairs, oldest first; size is the sum of
    their costs.  keep() stores a pair and evicts the oldest while size
    passes the budget; a value costing more than the budget alone is
    not kept, and evicts nothing.  For one thread: it takes no lock."""

    size = 0

    def keep(self, key, cost, value, budget):
        if cost > budget:
            return
        self[key] = cost, value
        self.size += cost
        while self.size > budget:
            self.size -= self.pop(next(iter(self)))[0]

    def clear(self):
        super().clear()
        self.size = 0


_SLOT_TABLES = BoundedMemo()


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


def slot_table(n, k):
    """The SlotTable of the k-subsets of {0..n-1}, built once per shape
    from one pass over the combinations, sorted by mask; keys are the
    canonical "1,3,4" spelling.  Its parts are shared: read them only.
    A table weighs its slot count times 1 + n // 30 + (longest key
    length) // 30, so a slot of a wide mask or a long key weighs more:
    the tables kept weigh at most MAX_SLOTS in all, the oldest evicted
    first, and a table weighing more alone is not kept.  Callers check
    0 <= k <= n and the slot limit first."""
    hit = _SLOT_TABLES.get((n, k))
    if hit is not None:
        return hit[1]
    masks, keys = zip(*sorted(zip(
        map(sum, combinations([1 << e for e in range(n)], k)),
        map(",".join, combinations([str(e + 1) for e in range(n)], k)))))
    table = SlotTable(masks, frozenset(masks), dict(zip(keys, masks)), keys)
    weight = len(masks) * (1 + n // 30 + len(keys[-1]) // 30)
    _SLOT_TABLES.keep((n, k), weight, table, MAX_SLOTS)
    return table
