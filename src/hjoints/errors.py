"""Exception hierarchy.

Every failure mode raised by the library derives from HJointsError so the
CLI can map library errors to a nonzero exit without matching on strings.
Constructor arguments are kept as attributes for programmatic inspection.
"""


class HJointsError(Exception):
    pass


class MixedUniformity(HJointsError):
    def __init__(self, color, sizes):
        self.color, self.sizes = color, tuple(sorted(sizes))
        super().__init__(f"color {color} mixes edge sizes {self.sizes}")


class DuplicateEdge(HJointsError):
    def __init__(self, color, edge):
        self.color, self.edge = color, tuple(edge)
        super().__init__(f"color {color} repeats edge {self.edge}")


class EmptyColor(HJointsError):
    def __init__(self, color):
        self.color = color
        super().__init__(f"color {color} has no edges")


class NotCovering(HJointsError):
    def __init__(self, vertex, load):
        self.vertex, self.load = vertex, load
        super().__init__(f"weight load {load} < 1 at vertex {vertex}")


class IsolatedVertex(HJointsError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} lies in no edge; rho* is infinite")


class DimensionMismatch(HJointsError):
    def __init__(self, edge_index, expected, actual):
        self.edge_index, self.expected, self.actual = edge_index, expected, actual
        super().__init__(
            f"flat for edge {edge_index} has dimension {actual}, expected {expected}")


class PointNotOnFlat(HJointsError):
    def __init__(self, edge_index):
        self.edge_index = edge_index
        super().__init__(f"point does not lie on the flat for edge {edge_index}")


class CapExceeded(HJointsError):
    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"witness-tuple enumeration exceeded cap {cap}")


class BudgetExceeded(HJointsError):
    def __init__(self, budget):
        self.budget = budget
        super().__init__(f"candidate generation exceeded budget {budget}")


class FieldTooSmall(HJointsError):
    def __init__(self, p, needed):
        self.p, self.needed = p, needed
        super().__init__(f"field GF({p}) too small, need > {needed} distinct elements")


class SizeMismatch(HJointsError):
    pass


class GenericityFailure(HJointsError):
    pass


class NegativeValue(HJointsError):
    def __init__(self, where, value):
        self.where, self.value = where, value
        super().__init__(f"negative value {value} at {where}")


class EmptyTupleSet(HJointsError):
    pass


class DegreeOverflow(HJointsError):
    def __init__(self, order, degree):
        self.order, self.degree = order, degree
        super().__init__(f"derivative order {order} exceeds degree bound {degree}")


class ChartMissing(HJointsError):
    pass


class InconsistentLedgers(HJointsError):
    pass


class NotConnected(HJointsError):
    pass


class WorkLimitExceeded(HJointsError):
    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"exhaustive search exceeded work limit {limit}")


class UniformityMismatch(HJointsError):
    def __init__(self, expected, sizes):
        self.expected, self.sizes = expected, tuple(sorted(sizes))
        super().__init__(f"host must be {expected}-uniform, found sizes {self.sizes}")
