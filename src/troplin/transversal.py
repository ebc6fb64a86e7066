"""Transversal matroids: matchings, recognition, set presentations.

Recognition runs the Moebius/corank counting conditions on cyclic
flats.  When they reject at a flat f, the certificate is read off that
count: the minimal cyclic flats strictly above f form a family that
breaks Mason's alternating rank inequality, with no family scan.  Every
covering count runs in covering_violations, at meets of flats only.
"""

from collections import Counter

from .errors import NoBasis, NotTransversal, TooLarge
from .matroid import Matroid
from .trop import _augment
from .util import MAX_SLOTS, bits, ksubsets, list1

BETA_MAX_FLATS = 24


def _matchable(subset, adj, k):
    """Can the elements of `subset` be matched injectively into k sets,
    adj[e] listing the sets that hold e?"""
    owner = [-1] * k
    return all(_augment(adj, owner, e, [False] * k) for e in bits(subset))


def transversal_matroid(sets, n):
    "Matroid of partial-transversal supports of the given set system."
    d = len(sets)
    adj = [[i for i, a in enumerate(sets) if (a >> e) & 1] for e in range(n)]
    bases = [b for b in ksubsets(n, d) if _matchable(b, adj, d)]
    if not bases:
        raise NoBasis("no transversal of the full system",
                      witness={"sets": [list1(a) for a in sets]})
    return Matroid(n, bases, check=False)


def covering_violations(m, weights):
    """[(g, count)] for each meet g of the flats weighted in `weights` (a
    dict or Counter) whose covering count, the weight of the flats
    containing g, exceeds cork(g); in (size, mask) order.  Meets
    suffice: the meet I of the weighted flats above a flat f is a flat
    above f, below the same weighted flats, with cork(I) <= cork(f).
    The closure under meets can reach 2^k sets for k flats, so it is
    refused with TooLarge once it passes MAX_SLOTS meets."""
    flats = list(weights)
    meets = set(flats)
    queue = list(meets)
    while queue and len(meets) <= MAX_SLOTS:
        f = queue.pop()
        for g in flats:
            h = f & g
            if h not in meets and len(meets) <= MAX_SLOTS:
                meets.add(h)
                queue.append(h)
    if len(meets) > MAX_SLOTS:
        raise TooLarge("%d meets of flats exceed %d" % (len(meets), MAX_SLOTS),
                       witness={"meets": len(meets), "limit": MAX_SLOTS})
    out = []
    for g in meets:
        count = sum(w for f, w in weights.items() if f & g == g)
        if count > m.corank(g):
            out.append((g, count))
    out.sort(key=lambda v: (v[0].bit_count(), v[0]))
    return out


def _counting_violation(m):
    "The first cyclic flat with tau < 0, else the first covering violation."
    tau = m.cyclic_flats()
    for f, t in tau.items():
        if t < 0:
            return f
    bad = covering_violations(m, tau)
    return bad[0][0] if bad else None


def is_transversal(m):
    """(True, presentation) or (False, certificate), computed afresh on
    every call.

    The presentation is the maximal one: the complement of each cyclic
    flat, repeated by its corank-transform multiplicity.  On rejection
    at the flat f, the certificate is the family of minimal cyclic flats
    strictly above f, which violates Mason's alternating rank inequality
    (Mason 1971).  Joins of cyclic flats are cyclic and cork(g) is the
    tau-sum over the cyclic flats above g, so by inclusion-exclusion the
    sum of (-1)^|J| r(union of J) over nonempty subfamilies J is the
    tau-sum above f minus d: that is value, with no 2^k loop.  The
    violation at f makes the tau-sum exceed cork(f) >= cork(meet), so
    value > bound = -r(meet).
    """
    tau = m.cyclic_flats()
    f = _counting_violation(m)
    if f is None:
        sets = [m.full ^ g for g, t in tau.items() for _ in range(t)]
        assert len(sets) == m.d
        return True, sets
    above = [g for g in tau if g & f == f and g != f]
    family = [g for g in above
              if not any(h & g == h and h != g for h in above)]
    inter = m.full
    for g in family:
        inter &= g
    return False, {"family": [list1(g) for g in family],
                   "value": sum(tau[g] for g in above) - m.d,
                   "bound": -m.rank(inter)}


def max_presentation(m):
    ok, payload = is_transversal(m)
    if not ok:
        raise NotTransversal("matroid is not transversal", witness=payload)
    return payload


def verify_set_presentation(m, sets):
    """Does the set system present m?  Decided without matchings.

    The complements must be a pseudopresentation (flats whose
    coclosures realize the corank-transform multiset) whose Counter has
    no covering violation: at meets, that is every subfamily's count.
    m is then transversal with no separate test: sum tau = d, so a
    negative tau fails the arity, and each coclosure lies in its
    complement, so tau passes the covering counts too.
    """
    comps = [m.full ^ a for a in sets]
    return (is_pseudopresentation(m, comps)
            and not covering_violations(m, Counter(comps)))


def is_pseudopresentation(m, flats):
    "Flats whose coclosures realize the corank-transform multiset."
    if len(flats) != m.d or any(not m.is_flat(f) for f in flats):
        return False
    return sorted(m.coclosure(f) for f in flats) == sorted(
        f for f, t in m.cyclic_flats().items() for _ in range(t))


def beta_solutions(m):
    """All nonnegative flat weightings compatible with the covering counts.

    Weights are forced on cyclic flats and bounded elsewhere.  The
    answer is a full enumeration, which grows with the flat lattice, so
    ground sets beyond 8 elements and lattices beyond BETA_MAX_FLATS
    flats are refused (the free matroid of rank 5 has 32 flats and
    more weightings than can be listed).
    """
    if m.n > 8:
        raise ValueError("enumeration capped at 8 elements")
    ok, cert = is_transversal(m)
    if not ok:
        raise NotTransversal("matroid is not transversal", witness=cert)
    lattice = m.flats()
    if len(lattice) > BETA_MAX_FLATS:
        raise ValueError("enumeration capped at %d flats" % BETA_MAX_FLATS)
    order = sorted(lattice, key=lambda f: (-f.bit_count(), f))
    sols = []
    _weightings(m, order, m.cyclic_flats(), {}, 0, sols)
    if not sols:
        raise NotTransversal("no admissible weighting")
    return [{f: b for f, b in sol.items() if b} for sol in sols]


def _weightings(m, order, cyclic, beta, i, sols):
    """Append to sols every extension of beta, the weights of order[:i],
    to all of order: a cyclic flat takes its slack, any other flat each
    weight up to it, in increasing order.  Not a closure: a recursive
    closure would hold sols in a reference cycle until the cyclic GC
    runs."""
    if i == len(order):
        sols.append(dict(beta))
        return
    f = order[i]
    above = sum(b for g, b in beta.items() if g & f == f and g != f)
    slack = m.corank(f) - above
    if slack < 0:
        return
    for b in ((slack,) if f in cyclic else range(slack + 1)):
        beta[f] = b
        _weightings(m, order, cyclic, beta, i + 1, sols)
    del beta[f]
