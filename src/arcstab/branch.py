"""Shared container for traced equilibrium branches."""

from dataclasses import dataclass, field


@dataclass
class BranchTrace:
    """One branch of a bifurcation diagram as an ordered point list.

    points holds equilibrium records in trace order.  events maps names
    of special configurations (force zero crossings, load-sign
    transitions) to their locations along the trace parameter.  complete
    turns False when a trace stops early, with the reason in diagnostic;
    points then holds the points computed before the stop.
    """

    label: str
    points: list
    events: dict = field(default_factory=dict)
    complete: bool = True
    diagnostic: str = ""
