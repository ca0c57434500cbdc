"""An under-approximating root-component estimator over process views.

A process knows q's round-s receive report once it knows q's round-s
state, which carries it; the owner also knows its own current one. Call a
set of processes fully known when every member's round-s report is known.
Reports are true in-neighbourhoods, so a fully known set that is closed
(no member reports an in-neighbour outside it) and strongly connected
under the reported edges is a true root component of the round-s graph,
and a true root component is such a set as soon as it is fully known. The
estimate is therefore the one root component of the round that is fully
known, and None if none or several are; it is read off the sequence's
root components (GraphSequence.root_sets) with no search of the reports.
So the estimate is sound on every round: it is a true root component
whose members' states the process knows, the round's root on a rooted
round. A long-enough stable window makes it complete, because the window
pushes every root member's round-s state to everyone.
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
    owner, r, lastround, _, root_sets, _ = view
    if s > r:
        raise ValueError(f"cannot estimate round {s} from round {r}")
    if s < 1:
        raise ValueError(f"round index must be >= 1, got {s}")
    # A round-s report is known iff its sender's round-s state is; the
    # owner also knows its own current one.
    found = None
    for root in root_sets[s - 1]:
        for q in root:
            if lastround[q] < s and q != owner:
                break
        else:
            if found is not None:
                return None
            found = root
    return found
