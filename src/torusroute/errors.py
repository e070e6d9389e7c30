"""Exception types shared across the package."""


class TopologyError(ValueError):
    """Invalid topology parameters or fault references."""


class ParseError(ValueError):
    """Malformed topology or routing-table file."""


class UnroutablePairError(RuntimeError):
    """One or more node pairs cannot be routed under the routing rules."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        shown = ", ".join(f"{s}->{d}" for s, d in self.pairs[:8])
        more = "" if len(self.pairs) <= 8 else f" (+{len(self.pairs) - 8} more)"
        super().__init__(f"unroutable pairs: {shown}{more}")


class DeadlockCycleError(RuntimeError):
    """A channel dependency cycle crossing a direction change was found."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("dependency cycle: "
                         + " -> ".join(str(c) for c in self.cycle))


class IntegrityError(RuntimeError):
    """A route references a channel that does not exist in the topology."""


class DisconnectedError(RuntimeError):
    """The live node set is not connected."""
