"""Matroids on {0..n-1} with bases stored as bitmasks."""

from functools import lru_cache
from math import comb

from .errors import EmptyGroundSet, NoBasis, NotAFlat, NotAMatroid, TooLarge
from .util import MAX_SLOTS, bits, elems, ksubsets, list1


class Matroid:
    """Matroid given by its list of bases.

    check=True verifies on construction that every basis lies in the
    ground set (ValueError) and has the first one's size (NotAMatroid
    naming the two), then the exchange axiom: every basis must meet
    every distinct cover mask, the masks read off the unions of the
    bases through each (d-1)-set (see _check_exchange), and on failure
    the NotAMatroid witness is a failing triple (b1, b2, e) read off
    the mask that b2 misses.  check=False skips all of it, for bases
    that are valid by construction: walk cells and faces, minors of an
    already checked matroid.
    """

    def __init__(self, n, bases, check=True):
        bases = sorted(set(bases))
        if not bases:
            raise NoBasis("need at least one basis")
        d = bases[0].bit_count()
        full = (1 << n) - 1
        if check:
            for b in bases:
                if b & ~full:
                    raise ValueError("basis outside the ground set")
                if b.bit_count() != d:
                    raise NotAMatroid("bases of unequal size",
                                      witness={"b1": list1(bases[0]),
                                               "b2": list1(b)})
        self.n = n
        self.d = d
        self.full = full
        self.bases = tuple(bases)
        self.baseset = frozenset(bases)
        self._rank = {}
        self._flats = None
        self._cf = None
        self._circuits = None
        self._comps = None
        if check:
            self._check_exchange()

    def _check_exchange(self):
        """Basis exchange through cover masks.

        The cover mask of (b1, e) is e together with every f such that
        b1 - e + f is a basis, and (b1, b2, e) exchanges iff b2 meets
        it.  So the axiom holds iff every basis meets every distinct
        cover mask.  The mask depends only on r = b1 - e: it is
        spans[r] - r, where spans[r] is the union of the bases holding
        r, so one pass over the (b1, e) builds spans and a second reads
        the masks off, each distinct mask keeping its first (b1, e).
        The bases meeting a mask are the union of the bitsets, over
        basis indices, of its elements.  The first basis b2 by index
        that misses a mask raises with the failing triple (b1, b2, e)
        of the first mask it misses.  When every d-set is a basis the
        axiom holds outright.
        """
        if len(self.bases) == comb(self.n, self.d):
            return
        spans = {}
        hits = [0] * self.n
        for k, b1 in enumerate(self.bases):
            for e in bits(b1):
                r = b1 ^ (1 << e)
                spans[r] = spans.get(r, 0) | b1
                hits[e] |= 1 << k
        first = {}
        for b1 in self.bases:
            for e in bits(b1):
                r = b1 ^ (1 << e)
                c = spans[r] & ~r
                if c not in first:
                    first[c] = (b1, e)
        every = (1 << len(self.bases)) - 1
        missed = 0
        for c in first:
            met = 0
            for f in bits(c):
                met |= hits[f]
            missed |= every & ~met
        if not missed:
            return
        b2 = self.bases[(missed & -missed).bit_length() - 1]
        for c in first:
            if not b2 & c:
                b1, e = first[c]
                raise NotAMatroid(
                    "exchange fails",
                    witness={"b1": list1(b1), "b2": list1(b2),
                             "e": e + 1})

    def __eq__(self, other):
        return (isinstance(other, Matroid)
                and self.n == other.n and self.bases == other.bases)

    def __hash__(self):
        return hash((self.n, self.bases))

    def __repr__(self):
        return "Matroid(n=%d, d=%d, %d bases)" % (
            self.n, self.d, len(self.bases))

    def rank(self, subset):
        r = self._rank.get(subset)
        if r is None:
            r = max((b & subset).bit_count() for b in self.bases)
            self._rank[subset] = r
        return r

    def corank(self, subset):
        return self.d - self.rank(subset)

    def closure(self, subset):
        """One scan of the bases: e outside `subset` is outside its closure
        iff some basis meeting `subset` in r(subset) elements holds e.
        The rank found on the way is cached for both sets."""
        r = -1
        span = 0
        for b in self.bases:
            k = (b & subset).bit_count()
            if k > r:
                r = k
                span = b
            elif k == r:
                span |= b
        cl = subset | (self.full & ~span)
        self._rank[subset] = self._rank[cl] = r
        return cl

    def is_flat(self, subset):
        return self.closure(subset) == subset

    def coclosure(self, subset):
        "Largest subset of `subset` with no coloops in the restriction."
        r = self.rank(subset)
        out = 0
        for e in bits(subset):
            if self.rank(subset ^ (1 << e)) == r:
                out |= 1 << e
        return out

    def loops(self):
        union = 0
        for b in self.bases:
            union |= b
        return self.full & ~union

    def coloops(self):
        inter = self.full
        for b in self.bases:
            inter &= b
        return inter

    def independent(self, subset):
        return self.rank(subset) == subset.bit_count()

    def flats(self):
        """All flats, sorted by (size, mask).  The lattice can hold 2^n
        flats (the free matroid has that many; U(n-1, n) has 2^n - n),
        so it is refused with TooLarge once it passes MAX_SLOTS flats."""
        if self._flats is None:
            found = {self.closure(0)}
            queue = [self.closure(0)]
            while queue:
                f = queue.pop()
                for e in range(self.n):
                    if (f >> e) & 1:
                        continue
                    g = self.closure(f | (1 << e))
                    if g not in found:
                        found.add(g)
                        queue.append(g)
                        if len(found) > MAX_SLOTS:
                            raise TooLarge(
                                "%d flats exceed %d" % (len(found), MAX_SLOTS),
                                witness={"flats": len(found),
                                         "limit": MAX_SLOTS})
            self._flats = tuple(sorted(found,
                                       key=lambda f: (f.bit_count(), f)))
        return self._flats

    def independent_flats(self):
        """The independent flats, sorted by (size, mask), with no flat
        lattice: a subset of an independent flat is one, so each is one a
        size smaller plus an element above its largest, kept iff closed.
        Refused with TooLarge once past MAX_SLOTS, as flats() is."""
        found = [0] if self.is_flat(0) else []
        level = found
        while level:
            grown = []
            for f in level:
                for e in range(f.bit_length(), self.n):
                    if self.is_flat(f | 1 << e):
                        grown.append(f | 1 << e)
                        if len(found) + len(grown) > MAX_SLOTS:
                            raise TooLarge(
                                "%d independent flats exceed %d" % (
                                    MAX_SLOTS + 1, MAX_SLOTS),
                                witness={"flats": MAX_SLOTS + 1,
                                         "limit": MAX_SLOTS})
            level = sorted(grown)
            found = found + level
        return found

    def cyclic_flats(self):
        """The corank transform: {cyclic flat: tau}, its keys in (size,
        mask) order, found without the flat lattice.  The dict is cached
        and shared, so callers read it and never write to it.

        Two routes find them, chosen by shape (_parity_pays).  On small
        ground sets, one pass over bitmaps of the power set: with
        P(S) = r(S) mod 2, e lies in cl(S) iff P(S + e) = P(S), so the
        cyclic flats are the sets that every element outside flips and
        no element inside does (_cyclic_by_parity).  On the others, the
        closures of the circuits closed under joins, after Bonin and de
        Mier (_cyclic_by_joins).  Either caches the rank of every
        cyclic flat.

        tau is the Moebius inversion from above of the corank on the
        poset of cyclic flats: cork(f) is the sum of tau(g) over the
        cyclic flats g containing f.  So, from the largest cyclic flat
        down, tau(f) = cork(f) minus the sum of tau(g) over cyclic g
        strictly above f, computed once.  tau may be negative.
        """
        if self._cf is None:
            if _parity_pays(self.n, self.d, len(self.bases)):
                found = self._cyclic_by_parity()
            else:
                found = self._cyclic_by_joins()
            cf = sorted(found, key=lambda f: (f.bit_count(), f))
            tau = {}
            for f in reversed(cf):
                # every g above f is larger, so later in (size, mask) order
                tau[f] = self.d - self._rank[f] - sum(
                    t for g, t in tau.items() if g & f == f)
            self._cf = {f: tau[f] for f in cf}
        return self._cf

    def _cyclic_by_joins(self):
        """The cyclic flats form a lattice with bottom cl(empty), the
        loops, and join cl(X | Y); the closure of a circuit is a cyclic
        flat, and every cyclic flat is the join of the closures of the
        circuits inside it (Bonin and de Mier, "The lattice of cyclic
        flats of a matroid", Ann. Comb. 2008).  Every circuit is the
        fundamental circuit C(e, B) of some basis B, so the closures of
        the circuits, closed under joins, are all of them.  A circuit C
        inside a known cyclic flat of rank |C| - 1 has that flat as its
        closure and costs no scan."""
        found = {self.closure(0)}
        for c in self.circuits():
            r = c.bit_count() - 1
            if not any(c & ~z == 0 and self._rank[z] == r for z in found):
                found.add(self.closure(c))
        queue = list(found)
        joined = set(found)
        while queue:
            x = queue.pop()
            for y in list(found):
                if x | y in joined:
                    continue
                joined.add(x | y)
                z = self.closure(x | y)
                if z not in found:
                    found.add(z)
                    queue.append(z)
        return found

    def _cyclic_by_parity(self):
        """The cyclic flats read off bitmaps over the power set, bit S
        standing for the subset S, with no circuit, closure or join.

        The bases' down-closure, one shift per element, holds the
        independent sets; the up-closure of its k-sets is the plane R_k
        of the sets of rank >= k, and P = R_1 ^ ... ^ R_d holds
        r(S) mod 2.  Adding an element raises the rank by 0 or 1, so
        e lies in cl(S) iff P(S + e) = P(S).  Hence Z is a flat iff
        every e outside Z flips P, and Z is cyclic iff removing no
        element of Z flips it: one mask per element, O(d n) shifts of
        2^n-bit integers whatever the number of bases.  The rank of
        each cyclic flat, the count of planes holding it, is cached.
        """
        n = self.n
        top, has, lacks, sizes = _power_masks(n)
        raw = bytearray((1 << n) + 7 >> 3)
        for b in self.bases:
            raw[b >> 3] |= 1 << (b & 7)
        ind = int.from_bytes(raw, "little")
        for e in range(n):
            ind |= (ind & has[e]) >> (1 << e)
        planes = []
        par = 0
        for k in range(1, self.d + 1):
            r = ind & sizes[k]
            for e in range(n):
                r |= (r & lacks[e]) << (1 << e)
            planes.append(r.to_bytes(len(raw), "little"))
            par ^= r
        cyc = top
        for e in range(n):
            # flips: the sets S lacking e with e outside cl(S).  A set
            # lacking e stays iff it is in flips (flat at e), a set Z
            # holding e iff Z - e is not (cyclic at e)
            s = 1 << e
            flips = (par ^ par >> s) & lacks[e]
            cyc &= flips | (has[e] ^ flips << s)
        found = list(bits(cyc))
        for z in found:
            self._rank[z] = sum(p[z >> 3] >> (z & 7) & 1 for p in planes)
        return found

    def circuits(self):
        """All circuits, sorted by (size, mask), in one pass over the bases.

        A (d+1)-set s holding a basis holds exactly one circuit, the j
        with s - j a basis (Oxley, Matroid Theory, fundamental circuits),
        and every circuit is such a C(e, B).  So for each basis b and e
        outside it, e belongs to the circuit of b + e: one OR per pair,
        no basis lookup.
        """
        if self._circuits is None:
            circ = {}
            full = self.full
            for b in self.bases:
                out = full & ~b
                while out:
                    low = out & -out
                    s = b | low
                    circ[s] = circ.get(s, 0) | low
                    out ^= low
            self._circuits = tuple(sorted(set(circ.values()),
                                          key=lambda c: (c.bit_count(), c)))
        return self._circuits

    def _fundamental_circuits(self, b):
        """C(e, b) for each e outside the basis b, in increasing e: e
        together with every f in b such that b - f + e is a basis."""
        bs = self.baseset
        inside = []
        rest = b
        while rest:
            low = rest & -rest
            inside.append(low)
            rest ^= low
        out = []
        rest = self.full & ~b
        while rest:
            low = rest & -rest
            rest ^= low
            with_e = b | low
            c = low
            for f in inside:
                if with_e ^ f in bs:
                    c |= f
            out.append(c)
        return out

    def connected_components(self):
        """Partition of the ground set into connected components, as masks
        sorted by value.

        Fix the basis B = bases[0].  The fundamental circuit of e outside
        B is e together with every f in B such that B - f + e is a basis,
        and the components are the classes of the union of these
        circuits (Oxley, Matroid Theory, fundamental circuits): O(n d)
        basis lookups, no rank call.  Loops and coloops lie in no
        circuit with another element, so they come out as singletons.
        """
        if self._comps is None:
            self._comps = circuit_blocks(
                self.full, self._fundamental_circuits(self.bases[0]))
        return self._comps

    def dual(self):
        return Matroid(self.n, [self.full ^ b for b in self.bases],
                       check=False)

    def _relabel(self, newbases, kept):
        kept = elems(kept)
        out = []
        for b in newbases:
            m = 0
            for i, e in enumerate(kept):
                if (b >> e) & 1:
                    m |= 1 << i
            out.append(m)
        return Matroid(len(kept), out, check=False)

    def restrict(self, subset):
        if subset == 0:
            raise EmptyGroundSet("restriction to the empty set")
        r = self.rank(subset)
        newb = {b & subset for b in self.bases
                if (b & subset).bit_count() == r}
        return self._relabel(newb, subset)

    def contract(self, subset):
        rest = self.full ^ subset
        if rest == 0:
            raise EmptyGroundSet("contraction of the full ground set")
        # fix the lex-least basis of `subset` so the surviving bases are
        # exactly the bases of the contraction, no union over choices
        bj = self.greedy(0, subset)
        newb = {b & rest for b in self.bases if b & subset == bj}
        return self._relabel(newb, rest)

    def greedy(self, start, pool):
        """The elements of `pool` that the greedy extension of `start`
        takes, in increasing order: each one that raises the rank."""
        chosen = start
        for e in bits(pool):
            if self.rank(chosen | (1 << e)) > self.rank(chosen):
                chosen |= 1 << e
        return chosen & ~start

    def polytope_face(self, flat):
        "Subdivision-cell face: bases meeting `flat` in full rank."
        if not self.is_flat(flat):
            raise NotAFlat("face needs a flat", witness=list1(flat))
        r = self.rank(flat)
        keep = [b for b in self.bases if (b & flat).bit_count() == r]
        return Matroid(self.n, keep, check=False)


def _parity_pays(n, d, nbases):
    """Is the parity pass the cheaper route to the cyclic flats of a
    rank-d matroid with nbases bases on n elements?  It makes about
    (d + 2) n shifts of 2^n-bit integers whatever the bases; the join
    route scans the bases once per circuit closure and per join, cheap
    when the bases are few.  The constant is fitted on measured
    crossovers: walk cells of 4 x 8 to 7 x 14 images, and transversal
    and single-basis matroids on 12 to 16 elements.  Never past
    MAX_SLOTS subsets."""
    return 1 << n <= MAX_SLOTS and (d + 2) << n <= 256 * n * nbases


@lru_cache(maxsize=17)
def _power_masks(n):
    """(top, has, lacks, sizes) over the 2^n subsets of {0..n-1}, bit S
    for the subset S: top holds them all, has[e] those holding e, lacks[e]
    the others and sizes[k] the k-sets.  Built on first use of each n
    and kept for the 17 sizes that _parity_pays admits, n <= 16: at
    most 3 n + 2 masks of 2^n bits each."""
    top = (1 << (1 << n)) - 1
    has = []
    for e in range(n):
        # runs of s = 2^e ones after s zeros, repeated over the 2^n bits
        s = 1 << e
        has.append(top // ((1 << 2 * s) - 1) * (((1 << s) - 1) << s))
    sizes = [1]
    for e in range(n):
        s = 1 << e
        sizes = [a | b << s for a, b in zip(sizes + [0], [0] + sizes)]
    return top, tuple(has), tuple(top ^ h for h in has), tuple(sizes)


def circuit_blocks(full, circuits):
    """Classes of the union of `circuits` on the ground set `full`, as
    masks sorted by value; an element in no circuit is its own class."""
    blocks = []
    covered = 0
    for c in circuits:
        covered |= c
        rest = []
        for k in blocks:
            if k & c:
                c |= k
            else:
                rest.append(k)
        rest.append(c)
        blocks = rest
    blocks.extend(1 << e for e in bits(full & ~covered))
    return tuple(sorted(blocks))


def uniform_matroid(d, n):
    return Matroid(n, ksubsets(n, d), check=False)


def direct_sum(m1, m2):
    shift = m1.n
    bases = [b1 | (b2 << shift) for b1 in m1.bases for b2 in m2.bases]
    return Matroid(m1.n + m2.n, bases, check=False)
