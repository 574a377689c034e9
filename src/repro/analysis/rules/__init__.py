"""Built-in replint rules.

Importing this package registers every stock rule with the registry in
:mod:`repro.analysis.core` — the same import-time registration pattern
the execution-strategy registry uses.  Third-party rules register the
same way::

    from repro.analysis import Rule, register_rule

    @register_rule
    class MyRule(Rule):
        id = "my-rule"
        summary = "..."

        def check(self, ctx):
            ...
"""

from repro.analysis.rules.determinism import DeterminismTaintRule
from repro.analysis.rules.eventbus import EventBusProtocolRule
from repro.analysis.rules.guarddominance import GuardDominanceRule
from repro.analysis.rules.invalidation import InvalidationReachabilityRule
from repro.analysis.rules.leftfold import LeftFoldRule
from repro.analysis.rules.lifecycle import LifecycleProtocolRule
from repro.analysis.rules.modes import ModeBranchingRule
from repro.analysis.rules.planmembership import PlanMembershipRule
from repro.analysis.rules.rng import RngDisciplineRule
from repro.analysis.rules.units import UnitFlowRule
from repro.analysis.rules.wallclock import WallClockRule

__all__ = [
    "DeterminismTaintRule",
    "EventBusProtocolRule",
    "GuardDominanceRule",
    "InvalidationReachabilityRule",
    "LeftFoldRule",
    "LifecycleProtocolRule",
    "ModeBranchingRule",
    "PlanMembershipRule",
    "RngDisciplineRule",
    "UnitFlowRule",
    "WallClockRule",
]
