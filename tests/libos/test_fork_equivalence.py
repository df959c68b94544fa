"""Property test: lazily forked file tables behave like eager copies.

Two families of tables grow side by side over equal two-file HostFS
stores: one forked with ``FileTable.fork_cow`` (containers shared until
the first mutating call), one with the eager oracle in
``reference_files.py`` (containers copied at the fork).  Every operation
runs on both, and after every step each pair must agree on return
values, contents, durable contents, open fds, the log, the prepared
crash and the family's ``FileStats``.  Once every table is freed, no
inode may still be referenced.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.interpose import PermissivePolicy
from repro.libos.files import (
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    FileStats,
    FileTable,
    HostFS,
)
from tests.libos.reference_files import eager_fork

FILES = {"/a": b"alpha", "/b": b"0123456789"}
PATHS = ("/a", "/b", "/c", "/d")
BLOCK_SIZE = 4
MAX_TABLES = 8

tables = st.integers(min_value=0, max_value=63)
fds = st.integers(min_value=2, max_value=8)
paths = st.sampled_from(PATHS)


def new_table() -> FileTable:
    return FileTable(HostFS(FILES, block_size=BLOCK_SIZE), PermissivePolicy(),
                     stats=FileStats())


class ForkEquivalence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.lazy = [new_table()]
        self.eager = [new_table()]
        self.stats = (self.lazy[0].stats, self.eager[0].stats)
        #: Every inode either family has held, by identity.
        self.inodes = {}

    def pair(self, idx):
        i = idx % len(self.lazy)
        return self.lazy[i], self.eager[i]

    def both(self, idx, op):
        lazy, eager = self.pair(idx)
        if lazy is not None:
            assert op(lazy) == op(eager)

    def live(self) -> int:
        return sum(t is not None for t in self.lazy)

    @rule(idx=tables)
    def fork(self, idx):
        lazy, eager = self.pair(idx)
        if lazy is None or self.live() >= MAX_TABLES:
            return
        self.lazy.append(lazy.fork_cow())
        self.eager.append(eager_fork(eager))

    @rule(idx=tables)
    def free(self, idx):
        i = idx % len(self.lazy)
        if self.lazy[i] is None or self.live() == 1:
            return
        self.lazy[i].free()
        self.eager[i].free()
        self.lazy[i] = self.eager[i] = None

    @rule(idx=tables, path=paths,
          flags=st.sampled_from((O_RDWR | O_CREAT, O_RDONLY, O_RDWR)))
    def open(self, idx, path, flags):
        self.both(idx, lambda t: t.open(path, flags))

    @rule(idx=tables, fd=fds, n=st.integers(min_value=0, max_value=12))
    def read(self, idx, fd, n):
        self.both(idx, lambda t: t.read(fd, n))

    @rule(idx=tables, fd=fds, data=st.binary(max_size=10))
    def write(self, idx, fd, data):
        self.both(idx, lambda t: t.write(fd, data))

    @rule(idx=tables, fd=fds, offset=st.integers(min_value=-3, max_value=14),
          whence=st.sampled_from((0, 1, 2, 7)))
    def lseek(self, idx, fd, offset, whence):
        self.both(idx, lambda t: t.lseek(fd, offset, whence))

    @rule(idx=tables, fd=fds)
    def close(self, idx, fd):
        self.both(idx, lambda t: t.close(fd))

    @rule(idx=tables, fd=fds)
    def fsync(self, idx, fd):
        self.both(idx, lambda t: t.fsync(fd))

    @rule(idx=tables)
    def sync(self, idx):
        self.both(idx, lambda t: t.sync())

    @rule(idx=tables, src=paths, dst=paths)
    def rename(self, idx, src, dst):
        self.both(idx, lambda t: t.rename(src, dst))

    @rule(idx=tables, point=st.integers(min_value=-1, max_value=12))
    def crash_select(self, idx, point):
        self.both(idx, lambda t: t.crash_select(point))

    @rule(idx=tables, i=st.integers(min_value=-1, max_value=5))
    def crash_opts(self, idx, i):
        self.both(idx, lambda t: t.crash_opts(i))

    @rule(idx=tables, i=st.integers(min_value=0, max_value=5),
          k=st.integers(min_value=0, max_value=4))
    def crash_set(self, idx, i, k):
        self.both(idx, lambda t: t.crash_set(i, k))

    @rule(idx=tables)
    def crash_commit(self, idx):
        self.both(idx, lambda t: t.crash_commit())

    @invariant()
    def families_agree(self):
        for lazy, eager in zip(self.lazy, self.eager):
            if lazy is None:
                continue
            for path in PATHS:
                assert lazy.contents(path) == eager.contents(path)
                assert (lazy.durable_contents(path)
                        == eager.durable_contents(path))
            assert lazy.open_fds() == eager.open_fds()
            assert lazy.oplog == eager.oplog
            assert lazy.crash_dims() == eager.crash_dims()
            assert lazy.cow_bytes == eager.cow_bytes
            for table in (lazy, eager):
                for fdata in table._inodes.values():
                    self.inodes[id(fdata)] = fdata
        assert self.stats[0].as_dict() == self.stats[1].as_dict()

    def teardown(self):
        for table in self.lazy + self.eager:
            if table is not None:
                table.free()
        assert [f.refcount for f in self.inodes.values()] == (
            [0] * len(self.inodes))


ForkEquivalence.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestForkEquivalence = ForkEquivalence.TestCase
