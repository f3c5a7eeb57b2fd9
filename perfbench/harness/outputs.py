"""Output digests and the digests pinned in perfbench/digests.json."""

import hashlib
import json
import os

PINNED_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "digests.json")


def tree_digest(path):
    """sha256 over the relative names and bytes of every file under path."""
    digest = hashlib.sha256()
    for directory, dirs, names in os.walk(path):
        dirs.sort()
        for name in sorted(names):
            full = os.path.join(directory, name)
            digest.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as f:
                digest.update(f.read())
            digest.update(b"\0")
    return digest.hexdigest()


def lines_digest(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def pinned(workload, seed):
    """The pinned output digest of (workload, seed), or None if unpinned."""
    with open(PINNED_PATH, encoding="utf-8") as f:
        return json.load(f).get(workload, {}).get(str(seed))


class Checker:
    """Counts output checks: each digest must equal the pinned one when the
    seed is pinned, and otherwise the first digest seen in the run (the
    same input must give the same output every time)."""

    def __init__(self, workload, seed, log):
        self.reference = pinned(workload, seed)
        self.pinned = self.reference is not None
        self.log = log
        self.attempted = 0
        self.failed = 0

    def digest(self, what, value):
        self.attempted += 1
        if self.reference is None:
            self.reference = value
        if value != self.reference:
            self.failed += 1
            self.log("MISMATCH %s: digest %s, expected %s" % (what, value, self.reference))

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.log("FAILED %s %s" % (what, detail))
