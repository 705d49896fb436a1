"""Exception types shared across the package.

Input that is not a scenario (a malformed graph, a parameter that is not a
finite number, a profile of the wrong shape) raises ValueError.  The
classes here are the negative answers heatsync gives about a valid
scenario.
"""


class HeatSyncError(Exception):
    """Base class for the negative answers heatsync gives on valid input."""


class DimensionMismatch(HeatSyncError):
    """The network has no followers, and the answer asked for needs at least one."""


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
