"""An under-approximating root-component estimator over process views.

A process that has collected the round-s receive reports of a set R which
is (a) closed (no member reports an in-neighbor outside R) and (b) strongly
connected under those reported edges has genuinely found a root component
of the round-s graph: reports are true in-neighborhoods, so a closed
strongly connected set is a root component by definition. On sequences
where every graph is rooted this set is unique, which makes the estimate
sound; completeness after a long-enough stable window follows because the
window pushes every root member's round-s state to everyone.

The estimate needs no search of the reports. Call a set fully known when
the view has every member's round-s report. A fully known closed,
strongly connected set of the report graph is closed and strongly
connected in the true graph, since its members' reports are their true
in-neighbourhoods, so it is a true root component of the round; and a
true root component is such a set as soon as every member's report is
known. So the estimate is the one root component of the round-s graph
that is fully known, and None if none or several are, and it is read off
the sequence's root components of that round (GraphSequence.root_sets).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .engine import ProcessView


def estimate_root(view: ProcessView, s: int) -> frozenset[int] | None:
    """Estimate the root component of the round-s graph, or None if unsure.

    Returns a set R iff exactly one set exists whose members' round-s
    receive reports are all known, all contained in R, and strongly
    connected under the reported edges: the one root component of the
    round whose members' reports are all known.
    """
    if s > view.round:
        raise ValueError(f"cannot estimate round {s} from round {view.round}")
    if s < 1:
        raise ValueError(f"round index must be >= 1, got {s}")
    # A round-s report is known iff its sender's round-s state is; the
    # owner also knows its own current one.
    lastround = view.lastround
    owner = view.owner
    found = None
    for root in view._root_sets[s - 1]:
        for q in root:
            if lastround[q] < s and q != owner:
                break
        else:
            if found is not None:
                return None
            found = root
    return found
