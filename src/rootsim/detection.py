"""An under-approximating root-component estimator over process views.

A process that has collected the round-s receive reports of a set R which
is (a) closed (no member reports an in-neighbor outside R) and (b) strongly
connected under those reported edges has genuinely found a root component
of the round-s graph: reports are true in-neighborhoods, so a closed
strongly connected set is a root component by definition. On sequences
where every graph is rooted this set is unique, which makes the estimate
sound; completeness after a long-enough stable window follows because the
window pushes every root member's round-s state to everyone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .graphs import GraphSequence, members, root_masks

if TYPE_CHECKING:
    from .engine import ProcessView


def seeded_memo(seq: GraphSequence) -> dict[Any, Any]:
    """A run's estimate memo before its first round: for every round s, the
    entry of a view that knows all round-s reports. Such a view knows the
    whole round-s graph, so its estimate is that graph's single root, which
    `seq.roots` already holds."""
    everyone = (1 << seq.n) - 1
    return {(s, everyone): root for s, root in enumerate(seq.roots, start=1)}


def estimate_root(view: ProcessView, s: int) -> frozenset[int] | None:
    """Estimate the root component of the round-s graph, or None if unsure.

    Returns a set R iff exactly one set exists whose members' round-s
    receive reports are all known, all contained in R, and strongly
    connected under the reported edges. Results are memoized in the run's
    shared `view.memo`, which `seeded_memo` fills for full knowledge.
    """
    if s > view.round:
        raise ValueError(f"cannot estimate round {s} from round {view.round}")
    if s < 1:
        raise ValueError(f"round index must be >= 1, got {s}")
    # A round-s report is known iff its sender's round-s state is; the
    # owner also knows its own current one. Reports are true
    # in-neighborhoods, identical for every reader, so the result depends
    # only on s and on whose reports are known.
    known = 1 << view.owner
    for q, last in enumerate(view.lastround):
        if last >= s:
            known |= 1 << q
    key = (s, known)
    if key in view.memo:
        return view.memo[key]

    # Root components of the report graph, where a process with an unknown
    # report hears nobody: it is a singleton root of its own, and any
    # process that reports hearing it lies in no fully-reported root.
    ins = [view.in_report_mask(q, s) or 1 << q for q in range(view.n)]
    candidates = [m for m in root_masks(ins) if not m & ~known]
    result = frozenset(members(candidates[0])) if len(candidates) == 1 else None
    view.memo[key] = result
    return result
