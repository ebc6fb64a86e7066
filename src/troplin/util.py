"""Bitmask helpers for subsets of {0, ..., n-1}."""

from collections import namedtuple
from itertools import combinations

from .errors import TooLarge

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


def check_slots(n, k):
    """The weight of the k-subsets' SlotTable of {0..n-1}, refused past
    MAX_SLOTS slots or MAX_SLOTS << 4 weight before any is listed: C(n, k)
    times 1 + n // 30 + (the last k elements' key length) // 30."""
    slots = 1
    for i in range(min(k, n - k)):  # C(n, i) grows up to i = min(k, n - k)
        slots = slots * (n - i) // (i + 1)
        if slots > MAX_SLOTS:
            raise TooLarge("C(%d, %d) slots exceed %d" % (n, k, MAX_SLOTS),
                           witness={"n": n, "rank": k, "limit": MAX_SLOTS})
    # k - 1 commas and, for each i, one digit per element from 10^i up
    key = max(k - 1, 0) + sum(max(0, n + 1 - max(n - k + 1, 10 ** i))
                              for i in range(len(str(n))))
    weight, limit = slots * (1 + n // 30 + key // 30), MAX_SLOTS << 4
    if weight > limit:
        raise TooLarge("C(%d, %d) slots weigh %d, beyond %d"
                       % (n, k, weight, limit),
                       witness=dict(n=n, rank=k, weight=weight, limit=limit))
    return weight


def slot_table(n, k):
    """The SlotTable of the k-subsets of {0..n-1}, built once per shape
    from one pass over the combinations, sorted by mask; keys are the
    canonical "1,3,4" spelling.  Its parts are shared: read them only.
    The one gate for a shape: a rank out of range and check_slots refuse
    before any subset is listed.  The tables kept weigh at most MAX_SLOTS
    in all, the oldest evicted first; one weighing more is not kept."""
    hit = _SLOT_TABLES.get((n, k))
    if hit is not None:
        return hit[1]
    if not 0 <= k <= n:
        raise ValueError("rank out of range")
    weight = check_slots(n, k)
    masks, keys = zip(*sorted(zip(
        map(sum, combinations([1 << e for e in range(n)], k)),
        map(",".join, combinations([str(e + 1) for e in range(n)], k)))))
    table = SlotTable(masks, frozenset(masks), dict(zip(keys, masks)), keys)
    _SLOT_TABLES.keep((n, k), weight, table, MAX_SLOTS)
    return table
