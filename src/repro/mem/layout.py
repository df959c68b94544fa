"""Address-space layout constants for the simulated machine.

The simulated machine uses 4 KiB pages and a 48-bit virtual address space,
matching the x86-64 configuration the paper's Dune-based prototype targets.
The layout mirrors a conventional ELF process image: code low, static data
above it, a heap growing up, and a stack growing down from the top of the
canonical lower half.
"""

#: Bytes per page (matches x86-64 small pages).
PAGE_SIZE = 4096

#: log2(PAGE_SIZE).
PAGE_SHIFT = 12

#: Mask for the offset-within-page bits.
PAGE_MASK = PAGE_SIZE - 1

#: Number of virtual-address bits (x86-64 canonical lower half).
VA_BITS = 48

#: Highest valid virtual address + 1.
VA_LIMIT = 1 << VA_BITS

#: Bits of index per radix level (512-entry nodes, as on x86-64).
LEVEL_BITS = 9

#: Number of radix levels in the page table (48 = 12 + 4 * 9).
LEVELS = 4

#: Default load address for guest code.
CODE_BASE = 0x0000_0000_0040_0000

#: Default base for static data (guest .data / .bss).
DATA_BASE = 0x0000_0000_0060_0000

#: Default base of the guest heap (grows upward via ``brk``).
HEAP_BASE = 0x0000_0000_1000_0000

#: Initial stack top (stack grows downward from here).
STACK_TOP = 0x0000_7FFF_FFFF_F000

#: Anonymous-mmap regions grow downward from here (below the stack).
MMAP_BASE = 0x0000_7000_0000_0000

#: Default number of stack pages mapped eagerly for a new guest.
DEFAULT_STACK_PAGES = 64


def page_align_down(addr: int) -> int:
    """Round *addr* down to the start of its page."""
    return addr & ~PAGE_MASK


def page_align_up(addr: int) -> int:
    """Round *addr* up to the next page boundary (identity if aligned)."""
    return (addr + PAGE_MASK) & ~PAGE_MASK


def is_canonical(addr: int) -> bool:
    """True if *addr* lies in the simulated canonical address range."""
    return 0 <= addr < VA_LIMIT
