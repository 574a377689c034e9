"""Analytic peak-memory prediction for candidate checkpoint plans.

Mirrors the executor's liveness behaviour exactly (minus allocator
alignment rounding):

* boundaries live from their producing unit's forward until their
  consuming unit's backward completes;
* a unit's *saved* internals live from its forward (or recompute) until
  its backward;
* *transient* internals live only from their allocation until the next
  record of the same unit is allocated (pipeline liveness — the executor
  frees each transient once its consumer has run), with the trailing
  transient surviving until the unit's forward cleanup.

Static planners use this to validate candidate plans offline; the tests
cross-check it against executor-measured peaks to sub-KB precision.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.graph.module import ActivationRecord, ModuleProfile
from repro.models.base import BatchInput
from repro.planners.base import ActionAssignment, MemoryAction, ModelView


def _trimmed_records(profile: ModuleProfile) -> tuple[tuple[ActivationRecord, ...], bool]:
    """Records minus the final one when it is promoted to the boundary."""
    if profile.output_is_last_record:
        return profile.activations[:-1], True
    return profile.activations, False


def unit_saved_bytes(profile: ModuleProfile) -> int:
    """Bytes a unit pins until backward when *not* checkpointed."""
    recs, _ = _trimmed_records(profile)
    return sum(a.nbytes for a in recs if a.saved)


def unit_transient_bytes(profile: ModuleProfile) -> int:
    """Total forward-only working bytes of a unit (not all co-resident)."""
    recs, _ = _trimmed_records(profile)
    return sum(a.nbytes for a in recs if not a.saved)


def boundary_bytes(profile: ModuleProfile) -> int:
    return profile.output.nbytes


def _simulate_unit_alloc(
    seq: Sequence[tuple[int, bool]],
) -> tuple[int, int, int]:
    """Replay the executor's per-unit allocation pipeline.

    Args:
        seq: (nbytes, saved) per record, in allocation order.

    Returns:
        ``(peak_extra, saved_total, trailing_transient)`` — the maximum
        extra bytes live at any point, the saved bytes resident at the
        end, and the trailing transient still live at unit exit.
    """
    peak = 0
    saved_acc = 0
    prev_transient = 0
    for nbytes, saved in seq:
        # the new tensor is allocated while the previous transient lives
        peak = max(peak, saved_acc + prev_transient + nbytes)
        if saved:
            saved_acc += nbytes
            prev_transient = 0
        else:
            prev_transient = nbytes
    return peak, saved_acc, prev_transient


def _unit_forward_footprint(profile: ModuleProfile) -> tuple[int, int]:
    """(peak extra bytes during forward, saved bytes resident afterwards).

    The boundary output is included in the peak (it is live at unit exit)
    but excluded from the resident-saved figure (it has its own lifetime).
    """
    recs, promoted = _trimmed_records(profile)
    seq = [(r.nbytes, r.saved) for r in recs]
    bound = boundary_bytes(profile)
    if promoted:
        seq.append((bound, True))
        peak, saved_acc, trailing = _simulate_unit_alloc(seq)
        return max(peak, saved_acc + trailing), saved_acc - bound
    peak, saved_acc, trailing = _simulate_unit_alloc(seq)
    # separate boundary allocated while the trailing transient still lives
    peak = max(peak, saved_acc + trailing + bound)
    return peak, saved_acc


def _unit_recompute_footprint(profile: ModuleProfile) -> tuple[int, int]:
    """Same as forward, but the boundary already exists (backward replay)."""
    recs, _ = _trimmed_records(profile)
    seq = [(r.nbytes, r.saved) for r in recs]
    peak, saved_acc, trailing = _simulate_unit_alloc(seq)
    return max(peak, saved_acc + trailing), saved_acc


def predict_peak_bytes(
    profiles: Sequence[ModuleProfile],
    assignment: ActionAssignment,
    *,
    static_bytes: int,
    input_nbytes: int,
    checkpointable: frozenset[str] | None = None,
) -> int:
    """Peak bytes of one iteration under ``assignment`` (allocator rounding aside).

    Args:
        profiles: per-unit profiles for the input size being planned.
        assignment: the plan's per-unit actions; RECOMPUTE units drop
            their internals after forward, SEGMENT groups replay
            together (SWAP is not modelled: swapped units stay resident).
        static_bytes: parameters + gradients + optimizer + workspace.
        input_nbytes: the collated batch tensor size.
        checkpointable: units eligible for checkpointing; plan entries for
            other units are ignored (mirrors the executor).
    """
    n = len(profiles)
    index_of = {p.module_name: i for i, p in enumerate(profiles)}
    seg_of: dict[int, int] = {}
    seg_members: dict[int, list[int]] = {}
    for sid, segment in enumerate(assignment.segments):
        for name in segment:
            i = index_of[name]
            seg_of[i] = sid
            seg_members.setdefault(sid, []).append(i)
    seg_last = {members[-1]: sid for sid, members in seg_members.items()}

    ckpt = [False] * n
    for i, p in enumerate(profiles):
        eligible = checkpointable is None or p.module_name in checkpointable
        ckpt[i] = (
            eligible
            and assignment.action_for(p.module_name) is MemoryAction.RECOMPUTE
        )

    saved = [unit_saved_bytes(p) for p in profiles]
    bound = [boundary_bytes(p) for p in profiles]
    fwd_peak = [0] * n
    re_peak = [0] * n
    for i, p in enumerate(profiles):
        fwd_peak[i], _ = _unit_forward_footprint(p)
        re_peak[i], _ = _unit_recompute_footprint(p)

    live = static_bytes + input_nbytes
    peak = live
    # ---- forward ----
    for i in range(n):
        peak = max(peak, live + fwd_peak[i])
        live += bound[i]
        if not ckpt[i] and i not in seg_of:
            live += saved[i]
        # an interior segment boundary drops once its consumer has run
        if i in seg_of and seg_of.get(i - 1) == seg_of[i]:
            live -= bound[i - 1]
    # ---- backward ----
    for i in reversed(range(n)):
        if i in seg_last:
            # group recompute replays the segment front-to-back, keeping
            # every member's saved set and interior boundaries resident
            for u in seg_members[seg_last[i]]:
                interior_bound = bound[u] if u != i else 0
                peak = max(
                    peak,
                    live + re_peak[u],
                    live + saved[u] + interior_bound,
                )
                live += saved[u] + interior_bound
        if ckpt[i]:
            peak = max(peak, live + re_peak[i])
            live += saved[i]  # transients freed right after the replay
        peak = max(peak, live)  # during the unit's backward
        live -= saved[i] + bound[i]
    return peak


def no_checkpoint_peak(
    profiles: Sequence[ModuleProfile], *, static_bytes: int, input_nbytes: int
) -> int:
    """Peak with nothing checkpointed (the baseline / memory upper bound)."""
    return predict_peak_bytes(
        profiles,
        ActionAssignment(),
        static_bytes=static_bytes,
        input_nbytes=input_nbytes,
    )


def full_checkpoint_peak(
    profiles: Sequence[ModuleProfile],
    *,
    static_bytes: int,
    input_nbytes: int,
    checkpointable: frozenset[str],
) -> int:
    """Peak with every eligible unit checkpointed (the memory lower bound)."""
    return predict_peak_bytes(
        profiles,
        ActionAssignment.from_sets(recompute=checkpointable),
        static_bytes=static_bytes,
        input_nbytes=input_nbytes,
        checkpointable=checkpointable,
    )


def peak_model(
    view: ModelView,
    batch: BatchInput,
    profiles: Sequence[ModuleProfile] | None = None,
) -> Callable[[ActionAssignment], int]:
    """The exact peak of any assignment at ``batch``, profiling once.

    The feasibility oracle the static planners search with: the model is
    profiled here (or ``profiles``, the caller's profiles of ``batch``,
    are reused), not per candidate.
    """
    unit_profiles = view.profiles(batch) if profiles is None else profiles
    static_bytes = view.static_memory.total

    def peak(assignment: ActionAssignment) -> int:
        return predict_peak_bytes(
            unit_profiles,
            assignment,
            static_bytes=static_bytes,
            input_nbytes=batch.nbytes,
            checkpointable=view.checkpointable,
        )

    return peak
