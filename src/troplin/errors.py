"""Exception types carrying machine-readable witnesses.

Every failure a caller might want to act on raises a subclass of
TroplinError whose ``witness`` attribute is JSON-ready (1-based element
labels, scalars already formatted as strings where applicable).
"""


class TroplinError(Exception):
    def __init__(self, message="", witness=None):
        super().__init__(message or self.__class__.__name__)
        self.witness = witness


class AllInfinite(TroplinError):
    "Every coordinate (or every entry in the relevant range) is infinite."


class InfiniteBase(TroplinError):
    "A basepoint that must be finite has an infinite coordinate."


class OutOfDomain(TroplinError):
    "Matrix has a k x (n+1-k) all-infinite submatrix; witness gives rows/cols."


class NotAMatroid(TroplinError):
    "Basis exchange fails; witness names the offending bases and element."


class NotPluecker(TroplinError):
    "A tropical Pluecker relation fails; witness is its {a, c} set pair."


class EmptyGroundSet(TroplinError):
    pass


class NotAFlat(TroplinError):
    pass


class RankCollapse(TroplinError):
    "A minor operation was asked to remove the entire ground set."


class InconsistentCell(TroplinError):
    "Subdivision bookkeeping contradicts itself for the named cell."


class EmptySupport(TroplinError):
    pass


class EmptyIntersection(TroplinError):
    pass


class NoBasis(TroplinError):
    pass


class NotTransversal(TroplinError):
    pass


class PointOutsideL(TroplinError):
    "A putative presentation point fails tropical-linear-space membership."


class NotTransversalFacets(TroplinError):
    "Some maximal cell is not transversal, so apex data is undefined."


class TooLarge(TroplinError):
    """A shape util.check_slots refuses (witness n, rank, limit, and the
    weight if that is past its limit), n past util.MAX_SLOTS at the JSON
    boundary (n, limit), or a flat lattice or meet closure past it."""


class UsageError(TroplinError):
    "Unknown command, bad flag or bad flag value; argparse's text."


class WrongArity(TroplinError):
    pass


class NegativeCycle(TroplinError):
    "Digraph has a negative-weight cycle; witness lists its vertices (1-based)."


class NotMinimalMatching(TroplinError):
    pass
