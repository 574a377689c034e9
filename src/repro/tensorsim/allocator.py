"""Segment-based caching allocator over a simulated device address space.

This models the CUDA caching allocator's actual structure:

* memory is reserved from the device in **segments** (``cudaMalloc``
  chunks): small requests share pooled 2 MiB segments, medium ones 20 MiB
  segments, large ones get dedicated segments rounded to 2 MiB;
* within a segment, allocations are served best-fit from free blocks,
  splitting over-large blocks; freed blocks coalesce with free neighbours
  **within the same segment only** — segments never merge, which is the
  mechanistic root of external fragmentation: churny workloads (DTR's
  evict/rematerialise cycles with ever-changing tensor sizes) strand free
  space across many partly-used segments that cannot serve a large
  request, so reserved memory grows well past bytes-in-use (§III-B /
  Fig 5's "budget 4.2 GB, actually 6.7 GB used");
* reserved segments are cached forever (no ``empty_cache`` in the
  training loop), so ``bytes_reserved`` is the footprint an ``nvidia-smi``
  would show;
* when no cached block fits and the remaining capacity cannot hold a new
  segment, allocation raises :class:`OutOfMemoryError` — the signal DTR's
  eviction loop reacts to.

The placement policy — best fit, splitting, neighbour coalescing — is
one type, :class:`FreeList`, over plain integer addresses.  Requests and
segments are whole multiples of :data:`ALIGNMENT`, and so is every free
block cut from them: a split leaves nothing or at least one quantum, so
every block is exactly its request (CUDA's rule of keeping a remainder
under 512 B with the block can never fire here, and is not modelled).
Segment ``k`` is based at ``k << SEGMENT_SHIFT``, so segments never
touch and coalescing by address adjacency is segment-local by
construction.  :class:`CachingAllocator` adds segment reservation and
accounting on top; the compiled tier (:mod:`repro.engine.compiled`)
drives the same :class:`FreeList` from a canonical starting state.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Optional

ALIGNMENT = 512  # bytes, the CUDA caching allocator quantum
SMALL_REQUEST = 1 << 20  # <1 MiB requests pool into small segments
SMALL_SEGMENT = 2 << 20  # 2 MiB
MEDIUM_REQUEST = 10 << 20  # <10 MiB requests pool into medium segments
MEDIUM_SEGMENT = 20 << 20  # 20 MiB
LARGE_ROUND = 2 << 20  # dedicated segments round up to 2 MiB
#: Segment ``k`` is based at ``k << SEGMENT_SHIFT``.  No segment approaches
#: 2**48 bytes, so offsets never carry into the segment bits.
SEGMENT_SHIFT = 48
_OFFSET_MASK = (1 << SEGMENT_SHIFT) - 1


class AllocationError(RuntimeError):
    """Base class for allocator failures."""


class OutOfMemoryError(AllocationError):
    """Raised when an allocation cannot be satisfied within capacity.

    Carries enough context for a dynamic planner (DTR) to decide how much
    to evict: the requested size and the free bytes at failure time (which
    may be plentiful if the failure is purely fragmentation).
    """

    def __init__(self, requested: int, free_bytes: int, largest_free: int) -> None:
        self.requested = requested
        self.free_bytes = free_bytes
        self.largest_free = largest_free
        super().__init__(
            f"out of memory: requested {requested} B, "
            f"{free_bytes} B free (largest contiguous {largest_free} B)"
        )


@dataclass(slots=True)
class Segment:
    """One reserved chunk of device memory."""

    base: int
    size: int


@dataclass(slots=True)
class Block:
    """A live allocation: ``size`` bytes at ``addr`` within ``segment``.

    ``free`` turns True when the block is handed back, which is how a
    double free is caught; the free bytes themselves live in the
    allocator's :class:`FreeList`.
    """

    addr: int
    size: int
    segment: Segment
    free: bool = False


def _align_up(n: int, quantum: int) -> int:
    return (n + quantum - 1) // quantum * quantum


def request_size(nbytes: int) -> int:
    """Bytes a request for ``nbytes`` occupies: at least one byte, rounded
    up to :data:`ALIGNMENT`."""
    return _align_up(max(nbytes, 1), ALIGNMENT)


class FreeList:
    """Address-ordered best-fit free list over integer addresses.

    Holds free blocks as ``(addr, size)``.  :meth:`take` serves a request
    from the smallest block that fits, ties broken toward the lowest
    address, and splits off the tail, so the request gets exactly its
    own size.  :meth:`give` returns a block, merging it with the free
    blocks that end where it starts and start where it ends, so no two
    free blocks ever touch.  The chosen block depends only on the *set*
    of free blocks, never on insertion history, which is what lets two
    iterations with equal free lists behave identically (the replay
    cache's steady-state proof).  For the same reason a balanced run of
    takes and gives — everything taken is given back — ends on the free
    list it started from: the free bytes are the same set again, and a
    coalesced list is determined by its bytes.

    Blocks are bucketed by size class (``size.bit_length()``, so class
    ``c`` holds sizes in the disjoint range ``[2^(c-1), 2^c)``) and each
    bucket is kept sorted by ``(size, addr)``.  Best fit is then a bisect
    in the request's own class followed by the head of the next non-empty
    class — the block a linear best-fit scan would choose, because the
    class ranges are disjoint and ascending — in :math:`O(\\log n)` under
    tens of thousands of free blocks.
    """

    __slots__ = ("_by_addr", "_end_at", "_buckets", "_classes")

    def __init__(self, blocks: Iterable[tuple[int, int]] = ()) -> None:
        self._by_addr: dict[int, int] = {}  # addr -> size
        self._end_at: dict[int, int] = {}  # addr + size -> addr
        #: size class -> [(size, addr), ...] sorted ascending
        self._buckets: dict[int, list[tuple[int, int]]] = {}
        self._classes: list[int] = []  # sorted non-empty bucket keys
        for addr, size in blocks:
            self._insert(addr, size)

    @classmethod
    def from_signature(cls, signature: tuple) -> "FreeList":
        """The free list of an allocator whose
        :meth:`CachingAllocator.state_signature` is ``signature``, with
        each segment renumbered to its rank in base order."""
        return cls(
            ((seg << SEGMENT_SHIFT) + offset, size)
            for seg, offset, size in signature[3]
        )

    def items(self):
        """``(addr, size)`` of every free block, in no particular order."""
        return self._by_addr.items()

    def get(self, addr: int) -> Optional[int]:
        """Size of the free block starting at ``addr``, or None."""
        return self._by_addr.get(addr)

    def max_size(self) -> int:
        """Largest free-block size, O(1) (0 when empty): the last entry of
        the highest class."""
        if not self._classes:
            return 0
        return self._buckets[self._classes[-1]][-1][0]

    # --------------------------------------------------------------- policy

    def take(self, size: int) -> Optional[int]:
        """Carve ``size`` bytes by best fit and return their address, or
        None when no free block is large enough."""
        classes = self._classes
        k = size.bit_length()
        i = bisect_left(classes, k)
        if i == len(classes):
            return None
        bucket = self._buckets[classes[i]]
        j = 0
        if classes[i] == k:
            # The request's own class may hold both too-small and
            # qualifying blocks; every block of a higher class qualifies.
            j = bisect_left(bucket, (size,))
            if j == len(bucket):
                i += 1
                if i == len(classes):
                    return None
                bucket = self._buckets[classes[i]]
                j = 0
        found, addr = bucket.pop(j)
        if not bucket:
            del self._buckets[classes[i]]
            del classes[i]
        del self._by_addr[addr]
        del self._end_at[addr + found]
        if found > size:
            self._insert(addr + size, found - size)
        return addr

    def give(self, addr: int, size: int) -> None:
        """Return ``[addr, addr + size)``, coalescing with free neighbours."""
        by_addr = self._by_addr
        end_at = self._end_at
        prev = end_at.pop(addr, None)
        if prev is not None:
            psize = by_addr.pop(prev)
            self._unbucket(psize, prev)
            addr = prev
            size += psize
        end = addr + size
        nsize = by_addr.pop(end, None)
        if nsize is not None:
            del end_at[end + nsize]
            self._unbucket(nsize, end)
            size += nsize
        self._insert(addr, size)

    def remove(self, addr: int) -> None:
        """Withdraw the free block starting at ``addr`` (segment release)."""
        size = self._by_addr.pop(addr)
        del self._end_at[addr + size]
        self._unbucket(size, addr)

    # ------------------------------------------------------------ internals

    def _insert(self, addr: int, size: int) -> None:
        self._by_addr[addr] = size
        self._end_at[addr + size] = addr
        k = size.bit_length()
        bucket = self._buckets.get(k)
        if bucket is None:
            self._buckets[k] = [(size, addr)]
            insort(self._classes, k)
        else:
            insort(bucket, (size, addr))

    def _unbucket(self, size: int, addr: int) -> None:
        k = size.bit_length()
        bucket = self._buckets[k]
        del bucket[bisect_left(bucket, (size, addr))]
        if not bucket:
            del self._buckets[k]
            self._classes.remove(k)

    def check_consistency(self) -> None:
        indexed = 0
        for k, bucket in self._buckets.items():
            assert bucket, "empty bucket retained"
            assert bucket == sorted(bucket), "bucket must stay sorted"
            for size, addr in bucket:
                assert size > 0, "free blocks must be non-empty"
                assert size.bit_length() == k, "block in wrong size class"
                assert self._by_addr.get(addr) == size, "bucket/addr views disagree"
                indexed += 1
        assert indexed == len(self._by_addr), "bucket/addr views disagree"
        assert self._classes == sorted(self._buckets), "class list stale"
        assert self._end_at == {
            a + s: a for a, s in self._by_addr.items()
        }, "end index stale"
        spans = sorted(self._by_addr.items())
        assert all(a + s < b for (a, s), (b, _) in zip(spans, spans[1:])), (
            "free blocks must neither overlap nor touch (coalesced)"
        )
        linear_max = max(self._by_addr.values(), default=0)
        assert self.max_size() == linear_max, "max_size diverged from scan"


@dataclass(slots=True)
class AllocatorStats:
    """Counters maintained by :class:`CachingAllocator`."""

    bytes_in_use: int = 0
    bytes_reserved: int = 0
    peak_in_use: int = 0
    peak_reserved: int = 0
    num_allocs: int = 0
    num_frees: int = 0
    num_oom: int = 0


class CachingAllocator:
    """Segmented best-fit caching allocator.

    Args:
        capacity: total device memory (bytes) this allocator may reserve.

    Requests are rounded up to :data:`ALIGNMENT` (:func:`request_size`)
    and placed by the allocator's :class:`FreeList`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.stats = AllocatorStats()
        #: segment index -> segment; indices only grow, so iteration
        #: order is base order
        self._segments: dict[int, Segment] = {}
        self._free = FreeList()
        self._next_segment = 0
        #: Op log for the compiled tier's certification: while a list,
        #: every malloc appends ``(owner, nbytes, addr, size,
        #: reserved_a_segment)`` and every free ``(addr, size)``.
        self.op_log: Optional[list[tuple]] = None

    # ------------------------------------------------------------------ info

    @property
    def bytes_in_use(self) -> int:
        """Bytes currently backing live tensors."""
        return self.stats.bytes_in_use

    @property
    def bytes_reserved(self) -> int:
        """Bytes reserved from the device (what nvidia-smi would report)."""
        return self.stats.bytes_reserved

    @property
    def bytes_free_cached(self) -> int:
        """Free bytes sitting inside reserved segments."""
        return self.stats.bytes_reserved - self.stats.bytes_in_use

    def largest_free_block(self) -> int:
        """Largest single allocation currently satisfiable.

        O(1): the free list tracks its maximum, so the OOM error path and
        per-iteration fragmentation stats pay no linear scan over every
        cached free block.
        """
        return max(
            self._free.max_size(),
            self.capacity - self.stats.bytes_reserved,
        )

    def fragmentation_bytes(self) -> int:
        """External fragmentation: cached free bytes outside the largest block.

        The memory that exists but cannot serve one large request — the
        quantity behind DTR's budget-vs-actual gap in Fig 5.  O(1) via
        the free list's tracked maximum.
        """
        return max(0, self.bytes_free_cached - self._free.max_size())

    def free_block_sizes(self) -> list[int]:
        """Sizes of all cached free blocks (for fragmentation histograms)."""
        return sorted(size for _addr, size in self._free.items())

    def num_segments(self) -> int:
        return len(self._segments)

    def state_signature(self) -> tuple:
        """Order-sensitive fingerprint of the allocator's behavioural state.

        ``(bytes_in_use, bytes_reserved, segment sizes, free blocks)``.
        Two allocators with equal signatures respond identically to any
        future malloc/free sequence.  The signature is *canonical*: no
        observable behaviour depends on absolute segment base addresses —
        allocation is address-ordered best fit (order survives an
        order-preserving relabelling), coalescing is segment-local, and
        nothing outside the allocator ever reads an address — so segments
        are relabelled by base order and free blocks expressed as
        (segment index, offset, size).  Two states that differ only in
        which segment indices they happened to reserve therefore compare
        equal, which is what lets the state re-converge after segment
        release/re-reserve churn.  Used by the iteration replay cache to
        prove a steady-state iteration is identical to a recorded one,
        and decoded by :meth:`FreeList.from_signature` as a compiled
        template's starting state; cost is O(n log n) in the free-block
        count, negligible next to a simulated iteration.
        """
        segments = self._segments
        rank = {k: i for i, k in enumerate(segments)}
        return (
            self.stats.bytes_in_use,
            self.stats.bytes_reserved,
            tuple(s.size for s in segments.values()),
            tuple(
                (rank[addr >> SEGMENT_SHIFT], addr & _OFFSET_MASK, size)
                for addr, size in sorted(self._free.items())
            ),
        )

    # ----------------------------------------------------------------- alloc

    def _segment_size_for(self, size: int) -> int:
        if size <= SMALL_REQUEST:
            return SMALL_SEGMENT
        if size <= MEDIUM_REQUEST:
            return MEDIUM_SEGMENT
        return _align_up(size, LARGE_ROUND)

    def malloc(self, nbytes: int, *, owner: str = "") -> Block:
        """Allocate ``nbytes`` (rounded up by :func:`request_size`).

        Raises:
            OutOfMemoryError: when no cached block fits and no new segment
                can be reserved within capacity.
        """
        if nbytes < 0:
            raise ValueError("cannot allocate a negative number of bytes")
        size = request_size(nbytes)
        addr = self._free.take(size)
        reserved = addr is None
        if reserved:
            addr = self._reserve(size)
            if addr is None:
                self.stats.num_oom += 1
                raise OutOfMemoryError(
                    size, self.bytes_free_cached, self.largest_free_block()
                )
        stats = self.stats
        stats.bytes_in_use += size
        if stats.bytes_in_use > stats.peak_in_use:
            stats.peak_in_use = stats.bytes_in_use
        stats.num_allocs += 1
        if self.op_log is not None:
            self.op_log.append((owner, nbytes, addr, size, reserved))
        return Block(addr, size, self._segments[addr >> SEGMENT_SHIFT])

    def try_malloc(self, nbytes: int, *, owner: str = "") -> Optional[Block]:
        """Like :meth:`malloc` but returns None instead of raising."""
        try:
            return self.malloc(nbytes, owner=owner)
        except OutOfMemoryError:
            return None

    def _reserve(self, size: int) -> Optional[int]:
        """Nothing cached fits: reserve a new segment if capacity allows and
        serve ``size`` from it (its address; None when even a tight fit
        cannot)."""
        stats = self.stats
        seg_size = self._segment_size_for(size)
        if stats.bytes_reserved + seg_size > self.capacity:
            # Like the CUDA caching allocator on a failed cudaMalloc:
            # release completely-free cached segments and retry.
            self._release_empty_segments()
            if stats.bytes_reserved + seg_size > self.capacity:
                # a tight-fit segment may still fit where the pooled size won't
                seg_size = size
                if stats.bytes_reserved + seg_size > self.capacity:
                    return None
        k = self._next_segment
        self._next_segment = k + 1
        base = k << SEGMENT_SHIFT
        self._segments[k] = Segment(base, seg_size)
        stats.bytes_reserved += seg_size
        stats.peak_reserved = max(stats.peak_reserved, stats.bytes_reserved)
        # Nothing else fits, so best fit picks the fresh segment.
        self._free.give(base, seg_size)
        return self._free.take(size)

    def _release_empty_segments(self) -> None:
        """Return fully-free segments to the device (cudaFree on OOM path)."""
        free = self._free
        for k, seg in list(self._segments.items()):
            if free.get(seg.base) == seg.size:
                free.remove(seg.base)
                del self._segments[k]
                self.stats.bytes_reserved -= seg.size

    def release_cached(self) -> int:
        """Public ``empty_cache()``: drop all fully-free segments.

        Returns the number of bytes returned to the device.
        """
        before = self.stats.bytes_reserved
        self._release_empty_segments()
        return before - self.stats.bytes_reserved

    # ------------------------------------------------------------------ free

    def free(self, block: Block) -> None:
        """Return a block to the cache (coalescing within its segment)."""
        if block.free:
            raise AllocationError(f"double free of block at {block.addr}")
        block.free = True
        self.stats.bytes_in_use -= block.size
        self.stats.num_frees += 1
        if self.op_log is not None:
            self.op_log.append((block.addr, block.size))
        self._free.give(block.addr, block.size)

    # ------------------------------------------------------------- lifecycle

    def reset_peaks(self) -> None:
        """Reset peak statistics (between iterations/experiments)."""
        self.stats.peak_in_use = self.stats.bytes_in_use
        self.stats.peak_reserved = self.stats.bytes_reserved

    def check_consistency(self) -> None:
        """Verify internal invariants; used heavily by the property tests.

        Raises:
            AssertionError: if any invariant is violated.
        """
        stats = self.stats
        self._free.check_consistency()
        reserved = 0
        for k, seg in self._segments.items():
            assert seg.base == k << SEGMENT_SHIFT, "segment base off its index"
            assert 0 < seg.size <= _OFFSET_MASK, "segment size out of range"
            # whole quanta everywhere: what makes every block its request
            assert seg.size % ALIGNMENT == 0, "segment size not aligned"
            reserved += seg.size
        free_bytes = 0
        for addr, size in self._free.items():
            seg = self._segments.get(addr >> SEGMENT_SHIFT)
            assert seg is not None, "free block outside every segment"
            assert addr + size <= seg.base + seg.size, "free block overruns its segment"
            assert (addr - seg.base) % ALIGNMENT == 0, "free block offset not aligned"
            assert size % ALIGNMENT == 0, "free block size not aligned"
            free_bytes += size
        assert reserved == stats.bytes_reserved, "reserve accounting must match"
        assert free_bytes == stats.bytes_reserved - stats.bytes_in_use, (
            "in-use accounting must match"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CachingAllocator(in_use={self.bytes_in_use}, "
            f"reserved={self.bytes_reserved}, capacity={self.capacity}, "
            f"segments={len(self._segments)})"
        )
