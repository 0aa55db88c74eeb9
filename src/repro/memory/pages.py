"""Page table with first-touch allocation.

Multi-chip GPUs map each memory page to the partition of the chip that
first touches it (Arunkumar et al.; paper Section 4).  The page table
records that mapping and exposes the home chip of any byte address.  A
round-robin policy is provided for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple


@dataclass
class PageTableStats:
    """Allocation counters, by chip."""

    pages_allocated: int = 0
    pages_per_chip: Dict[int, int] = field(default_factory=dict)

    def record(self, chip: int) -> None:
        self.pages_allocated += 1
        self.pages_per_chip[chip] = self.pages_per_chip.get(chip, 0) + 1


class PageTable:
    """Maps pages to home memory partitions.

    ``policy`` is ``"first-touch"`` (default) or ``"round-robin"``.  Pages
    are identified by page number (``addr >> page_shift``).
    """

    def __init__(self, page_size: int, num_chips: int,
                 policy: str = "first-touch") -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page size must be a positive power of two")
        if num_chips < 1:
            raise ValueError("need at least one chip")
        if policy not in ("first-touch", "round-robin"):
            raise ValueError(f"unknown page allocation policy: {policy!r}")
        self.page_size = page_size
        self.num_chips = num_chips
        self.policy = policy
        self.stats = PageTableStats()
        self._page_shift = page_size.bit_length() - 1
        self._home: Dict[int, int] = {}
        self._next_rr = 0

    def page_of(self, addr: int) -> int:
        return addr >> self._page_shift

    def home_chip(self, addr: int, requesting_chip: int) -> int:
        """Home partition of ``addr``, allocating the page on first touch."""
        page = addr >> self._page_shift
        home = self._home.get(page)
        if home is None:
            home = self._allocate(page, requesting_chip)
        return home

    def lookup(self, addr: int) -> int | None:
        """Home partition of ``addr`` if allocated, else None (no side effects)."""
        return self._home.get(addr >> self._page_shift)

    def bulk_home(self, pages: Sequence[int],
                  touch_chips: Sequence[int]) -> List[int]:
        """Resolve many pages at once, allocating unknown ones.

        ``pages`` are page numbers paired with the chip that (first)
        touches each; they must be given in first-touch order so that
        order-sensitive policies (round-robin) allocate exactly as
        resolving the pages access by access would.  Returns the home chip per page.
        """
        homes: List[int] = []
        get = self._home.get
        allocate = self._allocate
        for page, chip in zip(pages, touch_chips):
            home = get(page)
            if home is None:
                home = allocate(page, chip)
            homes.append(home)
        return homes

    def _allocate(self, page: int, requesting_chip: int) -> int:
        if self.policy == "first-touch":
            home = requesting_chip
        else:
            home = self._next_rr
            self._next_rr = (self._next_rr + 1) % self.num_chips
        self._home[page] = home
        self.stats.record(home)
        return home

    def migrate(self, page: int, new_home: int) -> int:
        """Move an allocated page to ``new_home``; returns the old home."""
        if not 0 <= new_home < self.num_chips:
            raise ValueError(f"chip {new_home} out of range")
        if page not in self._home:
            raise KeyError(f"page {page} is not allocated")
        old_home = self._home[page]
        self._home[page] = new_home
        return old_home

    def __len__(self) -> int:
        return len(self._home)

    def pages(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(page_number, home_chip)`` pairs."""
        return iter(self._home.items())

    def footprint_bytes(self) -> int:
        """Total bytes of allocated pages."""
        return len(self._home) * self.page_size

    def reset(self) -> None:
        self._home.clear()
        self._next_rr = 0
        self.stats = PageTableStats()
