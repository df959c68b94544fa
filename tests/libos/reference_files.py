"""The eager file-table fork, kept as a test oracle.

``FileTable.fork_cow`` shares its parent's containers until the first
mutating call.  Before that it copied them at fork time; this is that
body, unchanged, so ``test_fork_equivalence.py`` can check the lazy fork
against it operation by operation.  Nothing under ``src/`` imports it.
"""

from repro.libos.files import FileTable, _OpenFile


def eager_fork(self: FileTable) -> FileTable:
    """Logical copy: shared flushed inodes, private overlay/positions."""
    clone = FileTable(self.hostfs, self.policy, self.audit, self.stats)
    clone._next_fd = self._next_fd
    clone._next_ino = self._next_ino
    clone._next_seq = self._next_seq
    clone._namespace = dict(self._namespace)
    clone._base_ns = dict(self._base_ns)
    clone._base = dict(self._base)  # immutable bytes, shared
    for fdata in self._inodes.values():
        fdata.refcount += 1
    clone._inodes = dict(self._inodes)
    for ino, work in self._working.items():
        clone._working[ino] = bytearray(work)
        clone.cow_bytes += len(work)
        self.stats.cow_bytes += len(work)
    clone._pending = {ino: list(recs)
                      for ino, recs in self._pending.items()}
    clone._oplog = list(self._oplog)
    for fd, of in self._fds.items():
        clone._fds[fd] = _OpenFile(of.path, of.ino, of.pos, of.writable)
    if self._crash is not None:
        clone._crash = self._crash.fork()
    return clone
