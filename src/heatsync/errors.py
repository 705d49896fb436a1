"""Exception types shared across the package."""


class HeatSyncError(Exception):
    """Base class for all domain errors raised by heatsync."""


class IndexOutOfRange(HeatSyncError):
    """A node index lies outside 1..n."""


class SelfLoop(HeatSyncError):
    """An edge connects a node to itself."""


class DuplicateEdge(HeatSyncError):
    """The same undirected edge was given more than once."""


class DimensionMismatch(HeatSyncError):
    """Operands have incompatible shapes."""


class InvalidLeaderCount(HeatSyncError):
    """Leader count s outside the admissible range 1..n."""


class EmptyWindow(HeatSyncError):
    """No admissible boundary gain exists for the given reaction rate."""


class UncontrollableComponent(HeatSyncError):
    """A connected component has no node communicating with the leader."""

    def __init__(self, component):
        self.component = tuple(component)
        super().__init__(f"component {self.component} has no leader connection")


class InfeasibleInBracket(HeatSyncError):
    """No coupling gain in [gains.G_MIN, 0] makes the certificate feasible."""

    def __init__(self, g_best, max_eig):
        self.g_best = float(g_best)
        self.max_eig = float(max_eig)
        super().__init__(
            f"no feasible coupling gain in bracket; best max eigenvalue "
            f"{self.max_eig:.6g} at g={self.g_best:.6g}"
        )


class NonPositiveSeries(HeatSyncError):
    """A decay fit was requested on a series that is not strictly positive."""


class Divergence(HeatSyncError):
    """The simulated state left the finite range."""

    def __init__(self, step, t, agent):
        self.step = int(step)
        self.t = float(t)
        self.agent = agent  # 1-based follower index, or "leader"
        super().__init__(f"state diverged at step {step} (t={t:.6g}), agent {agent}")
