"""Unit + property tests for the segmented caching allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.compiled import CompiledTemplate
from repro.tensorsim.allocator import (
    ALIGNMENT,
    AllocationError,
    CachingAllocator,
    FreeList,
    MEDIUM_SEGMENT,
    OutOfMemoryError,
    SEGMENT_SHIFT,
    SMALL_SEGMENT,
    request_size,
)

MB = 1 << 20


def test_basic_alloc_free_accounting():
    alloc = CachingAllocator(64 * MB)
    b = alloc.malloc(1000)
    assert b.size == 1024  # rounded to 512B alignment
    assert alloc.bytes_in_use == 1024
    alloc.free(b)
    assert alloc.bytes_in_use == 0
    assert alloc.bytes_reserved >= 1024  # segment stays cached
    alloc.check_consistency()


def test_alignment_rounding():
    alloc = CachingAllocator(64 * MB)
    assert alloc.malloc(1).size == ALIGNMENT
    assert alloc.malloc(ALIGNMENT).size == ALIGNMENT
    assert alloc.malloc(ALIGNMENT + 1).size == 2 * ALIGNMENT


def test_small_requests_pool_into_one_segment():
    alloc = CachingAllocator(64 * MB)
    for _ in range(16):
        alloc.malloc(4096)
    assert alloc.num_segments() == 1
    assert alloc.bytes_reserved == SMALL_SEGMENT


def test_segment_size_classes():
    alloc = CachingAllocator(1024 * MB)
    alloc.malloc(512 * 1024)  # small -> 2 MiB segment
    assert alloc.bytes_reserved == SMALL_SEGMENT
    alloc.malloc(5 * MB)  # medium -> 20 MiB segment
    assert alloc.bytes_reserved == SMALL_SEGMENT + MEDIUM_SEGMENT
    alloc.malloc(33 * MB)  # large -> dedicated, rounded to 2 MiB
    assert alloc.bytes_reserved == SMALL_SEGMENT + MEDIUM_SEGMENT + 34 * MB


def test_free_block_reuse_best_fit():
    alloc = CachingAllocator(1024 * MB)
    big = alloc.malloc(30 * MB)
    small = alloc.malloc(12 * MB)
    alloc.free(big)
    alloc.free(small)
    reserved = alloc.bytes_reserved
    # a 11 MB request should reuse the 12 MB hole, not the 30 MB one
    b = alloc.malloc(11 * MB)
    assert alloc.bytes_reserved == reserved  # no new segment
    assert b.segment.size == 12 * MB


def test_oom_raised_beyond_capacity():
    alloc = CachingAllocator(8 * MB)
    alloc.malloc(6 * MB)
    with pytest.raises(OutOfMemoryError) as exc:
        alloc.malloc(6 * MB)
    assert exc.value.requested == 6 * MB
    assert alloc.stats.num_oom == 1


def test_tight_fit_segment_when_pooled_size_exceeds_capacity():
    # capacity can hold the request but not the pooled segment size
    alloc = CachingAllocator(3 * MB)
    b = alloc.malloc(512 * 1024)  # pooled would be 2 MiB: fits
    b2 = alloc.malloc(900 * 1024)  # another pooled small fits in same segment
    assert alloc.bytes_reserved <= 3 * MB
    assert b.segment is b2.segment


def test_empty_segment_release_on_pressure():
    alloc = CachingAllocator(8 * MB)
    b = alloc.malloc(5 * MB)
    alloc.free(b)
    # 5 MB (rounded 6 MiB segment) is cached; an 7 MB request cannot fit
    # alongside it, so the free segment must be released and re-reserved.
    big = alloc.malloc(7 * MB)
    assert big.size == 7 * MB
    alloc.check_consistency()


def test_release_cached_returns_bytes():
    alloc = CachingAllocator(64 * MB)
    b = alloc.malloc(4 * MB)
    alloc.free(b)
    released = alloc.release_cached()
    assert released > 0
    assert alloc.bytes_reserved == 0
    assert alloc.bytes_in_use == 0


def test_double_free_rejected():
    alloc = CachingAllocator(64 * MB)
    b = alloc.malloc(1024)
    alloc.free(b)
    with pytest.raises(AllocationError, match="double free"):
        alloc.free(b)


def test_coalescing_merges_neighbours():
    alloc = CachingAllocator(64 * MB)
    blocks = [alloc.malloc(256 * 1024) for _ in range(8)]
    assert alloc.num_segments() == 1
    for b in blocks:
        alloc.free(b)
    # all blocks merged back into one whole-segment free block
    assert len(alloc.free_block_sizes()) == 1
    assert alloc.free_block_sizes()[0] == SMALL_SEGMENT
    alloc.check_consistency()


def test_fragmentation_metric():
    alloc = CachingAllocator(1024 * MB)
    keep = []
    for _ in range(10):
        a = alloc.malloc(2 * MB)
        b = alloc.malloc(2 * MB)
        keep.append(b)
        alloc.free(a)
    # free space is scattered in 2 MB holes across dedicated segments
    assert alloc.fragmentation_bytes() > 0
    alloc.check_consistency()


def test_peaks_and_reset():
    alloc = CachingAllocator(64 * MB)
    b = alloc.malloc(10 * MB)
    alloc.free(b)
    assert alloc.stats.peak_in_use == 10 * MB
    alloc.reset_peaks()
    assert alloc.stats.peak_in_use == 0


def test_invalid_construction():
    with pytest.raises(ValueError):
        CachingAllocator(0)


def test_negative_malloc_rejected():
    alloc = CachingAllocator(64 * MB)
    with pytest.raises(ValueError):
        alloc.malloc(-1)


def test_try_malloc_returns_none_on_oom():
    alloc = CachingAllocator(1 * MB)
    assert alloc.try_malloc(4 * MB) is None
    assert alloc.try_malloc(256 * 1024) is not None


# ---------------------------------------------------------------------------
# Property-based: random alloc/free interleavings keep every invariant
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=4 * MB)),
        min_size=1,
        max_size=120,
    )
)
def test_allocator_invariants_under_random_workload(ops):
    alloc = CachingAllocator(256 * MB)
    live = []
    for is_alloc, size in ops:
        if is_alloc or not live:
            block = alloc.try_malloc(size)
            if block is not None:
                live.append(block)
        else:
            alloc.free(live.pop(len(live) // 2))
    alloc.check_consistency()
    assert alloc.bytes_in_use == sum(b.size for b in live)
    assert alloc.bytes_reserved <= alloc.capacity
    for b in live:
        alloc.free(b)
    alloc.check_consistency()
    assert alloc.bytes_in_use == 0


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=MB), min_size=1, max_size=60)
)
def test_free_then_realloc_never_grows_reserved(sizes):
    """Allocating the same multiset of sizes twice reuses the cache."""
    alloc = CachingAllocator(512 * MB)
    first = [alloc.malloc(s) for s in sizes]
    reserved_after_first = alloc.bytes_reserved
    for b in reversed(first):
        alloc.free(b)
    second = [alloc.malloc(s) for s in sizes]
    assert alloc.bytes_reserved == reserved_after_first
    for b in second:
        alloc.free(b)
    alloc.check_consistency()


# ---------------------------------------------------------------------------
# Differential fuzz: the allocator against a linear-scan reference, and the
# compiled tier's template path against the live allocator
# ---------------------------------------------------------------------------


class _ReferenceAllocator:
    """Linear-scan model of the documented policy, independent of FreeList.

    Each segment is a list of ``[offset, size, free]`` blocks tiling it,
    and every request scans all of them: best fit = the smallest free
    block that fits, ties to the lowest address (segments in reservation
    order, then offset); split only when at least 512 B would remain
    (CUDA's rule, which :class:`FreeList` drops because alignment keeps
    it from ever firing); coalesce with free neighbours inside the
    segment.  Segment sizing, release-on-pressure and the tight-fit
    fallback follow the CUDA caching allocator as ``docs/substrate.md``
    describes.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.segments: dict[int, list] = {}  # reservation number -> blocks
        self.reservations = 0
        self.in_use = 0

    @property
    def reserved(self) -> int:
        return sum(blocks[-1][0] + blocks[-1][1] for blocks in self.segments.values())

    def malloc(self, nbytes: int):
        size = -(-max(nbytes, 1) // 512) * 512
        best = None
        for sid, blocks in self.segments.items():
            for blk in blocks:
                if blk[2] and blk[1] >= size and (best is None or blk[1] < best[1][1]):
                    best = (sid, blk)
        if best is None:
            if size <= MB:
                seg_size = 2 * MB
            elif size <= 10 * MB:
                seg_size = 20 * MB
            else:
                seg_size = -(-size // (2 * MB)) * 2 * MB
            if self.reserved + seg_size > self.capacity:
                self.release()
                if self.reserved + seg_size > self.capacity:
                    seg_size = size
                    if self.reserved + seg_size > self.capacity:
                        return None
            best = (self.reservations, [0, seg_size, True])
            self.segments[self.reservations] = [best[1]]
            self.reservations += 1
        sid, blk = best
        blocks = self.segments[sid]
        if blk[1] - size >= 512:
            blocks.insert(blocks.index(blk) + 1, [blk[0] + size, blk[1] - size, True])
            blk[1] = size
        blk[2] = False
        self.in_use += blk[1]
        return sid, blk[0], blk[1]

    def free(self, sid: int, offset: int) -> None:
        blocks = self.segments[sid]
        i = next(i for i, blk in enumerate(blocks) if blk[0] == offset)
        blocks[i][2] = True
        self.in_use -= blocks[i][1]
        if i + 1 < len(blocks) and blocks[i + 1][2]:
            blocks[i][1] += blocks.pop(i + 1)[1]
        if i > 0 and blocks[i - 1][2]:
            blocks[i - 1][1] += blocks.pop(i)[1]

    def release(self) -> int:
        empty = [
            sid for sid, blocks in self.segments.items()
            if len(blocks) == 1 and blocks[0][2]
        ]
        before = self.reserved
        for sid in empty:
            del self.segments[sid]
        return before - self.reserved

    def signature(self) -> tuple:
        rank = {sid: i for i, sid in enumerate(self.segments)}
        return (
            self.in_use,
            self.reserved,
            tuple(blocks[-1][0] + blocks[-1][1] for blocks in self.segments.values()),
            tuple(
                (rank[sid], blk[0], blk[1])
                for sid, blocks in self.segments.items()
                for blk in blocks
                if blk[2]
            ),
        )


def _placement(block) -> tuple[int, int, int]:
    """(segment index, offset, size) of a live allocator block."""
    return (
        block.segment.base >> SEGMENT_SHIFT,
        block.addr - block.segment.base,
        block.size,
    )


_quanta = st.integers(min_value=1, max_value=4).map(lambda n: n * 512)
#: request sizes spanning every segment class (pooled small, pooled
#: medium, dedicated large), zero-byte requests and whole quanta
_any_bytes = st.one_of(
    _quanta,
    st.integers(min_value=0, max_value=64 * 1024),
    st.integers(min_value=1, max_value=2 * MB),
    st.integers(min_value=MB, max_value=24 * MB),
)


def _programs(request_bytes):
    """(op, bytes, pick) lists: ops 0-2 allocate, 3-4 free live block
    ``pick``, 5 releases the cached segments."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            request_bytes,
            st.integers(min_value=0, max_value=1 << 16),
        ),
        min_size=30,
        max_size=80,
    )


#: programs over a few whole quanta, where equal-size free blocks (the
#: address tie-break) and remainders of exactly 512 B (the reference's
#: split threshold) are common, or over sizes of every segment class
_any_program = st.one_of(_programs(_quanta), _programs(_any_bytes))


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.sampled_from([3 * MB, 8 * MB, 24 * MB, 64 * MB]),
    program=_any_program,
)
def test_allocator_matches_linear_scan_reference(capacity, program):
    """Identical placement, OOM points and signature at every step."""
    alloc = CachingAllocator(capacity)
    ref = _ReferenceAllocator(capacity)
    live = []
    for op, nbytes, pick in program:
        if op <= 2 or (op <= 4 and not live):
            block = alloc.try_malloc(nbytes)
            placed = ref.malloc(nbytes)
            assert (block is None) == (placed is None)
            if block is not None:
                assert _placement(block) == placed
                live.append(block)
        elif op <= 4:
            block = live.pop(pick % len(live))
            alloc.free(block)
            ref.free(*_placement(block)[:2])
        else:
            assert alloc.release_cached() == ref.release()
        assert alloc.state_signature() == ref.signature()
    alloc.check_consistency()


@settings(max_examples=100, deadline=None)
@given(
    prefix=_any_program,
    steps=st.lists(
        st.tuples(
            _any_bytes,
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=1 << 16),
        ),
        min_size=10,
        max_size=40,
    ),
)
def test_template_path_matches_live_allocator(prefix, steps):
    """A balanced program placed from ``state_signature()`` by the compiled
    tier gives the live allocator's placements, and declines exactly when
    the live run reserves a segment.  Whenever it places, the live run
    bears out what the compiled tier no longer computes: the allocator
    ends at its starting signature, every block is its request, and the
    peak is the in-use bytes plus the running maximum of live requests."""
    alloc = CachingAllocator(64 * MB)
    held = []
    for op, nbytes, pick in prefix:
        if op <= 2 or not held:
            block = alloc.try_malloc(nbytes)
            if block is not None:
                held.append(block)
        else:
            alloc.free(held.pop(pick % len(held)))
    signature = alloc.state_signature()
    rank = {k: i for i, k in enumerate(sorted(alloc._segments))}

    # each step allocates one request, then frees up to two live ones;
    # whatever is still live at the end is freed last-in first-out
    rsizes = [request_size(step[0]) for step in steps]
    program: list[int] = []
    pending: list[int] = []
    for k, (_nb, nfree, pick) in enumerate(steps):
        program.append(k)
        pending.append(k)
        for _ in range(nfree):
            program.append(-pending.pop(pick % len(pending)) - 1)
            if not pending:
                break
    program += [-k - 1 for k in reversed(pending)]

    # the live allocator, and in lockstep the free list the template
    # starts from, until the live run reserves a segment (or fails)
    alloc.reset_peaks()
    alloc.op_log = []
    free = FreeList.from_signature(signature)
    blocks = {}
    live = overshoot = 0
    fits = True
    for k in program:
        if k >= 0:
            block = alloc.try_malloc(steps[k][0])
            if block is None or alloc.op_log[-1][4]:
                fits = False
                break
            addr = free.take(rsizes[k])
            segment, offset, size = _placement(block)
            assert divmod(addr, 1 << SEGMENT_SHIFT) == (rank[segment], offset)
            assert size == rsizes[k]
            blocks[k] = (block, addr)
            live += rsizes[k]
            overshoot = max(overshoot, live)
        else:
            block, addr = blocks.pop(-k - 1)
            alloc.free(block)
            free.give(addr, block.size)
            live -= rsizes[-k - 1]
    alloc.op_log = None

    template = CompiledTemplate(
        req_index=tuple(range(len(steps))), ops=tuple(program),
        unit_names=(), layout=(), charge_prog=(),
        measure_spec=(), const_stats=None,
    )
    assert template._place(FreeList.from_signature(signature), rsizes) == fits
    if fits:
        assert alloc.state_signature() == signature
        assert alloc.stats.peak_in_use == signature[0] + overshoot
