"""Pin the structure constants of all sixteen g(A,B) and of the V/W modules.

The digest is a sha256 over the sorted lines "<name> i j k c", one per
nonzero entry c of column j of map i, so it does not depend on the order in
which a builder fills its dicts.  Any change to a bracket table or to a
module action matrix changes it.
"""

import hashlib

from magicsquare.magic import build_magic_algebra
from magicsquare.modules import build_V_module, build_W_module

STRUCTURE_DIGEST = "003745fe87489ca24963755b56710cd97005f103527d6fc3f8a54e20cb6c2327"


def _lines(name, maps):
    for i, cols in enumerate(maps):
        for j, col in cols.items():
            for k, c in col.items():
                yield f"{name} {i} {j} {k} {c}"


def structure_digest() -> str:
    lines = []
    for x in "RCHO":
        for y in "RCHO":
            lines.extend(_lines(f"g({x},{y})", build_magic_algebra(x, y).table()))
        lines.extend(_lines(f"V({x})", build_V_module(x).actions))
        lines.extend(_lines(f"W({x})", build_W_module(x).actions))
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def test_structure_digest_is_pinned():
    assert structure_digest() == STRUCTURE_DIGEST
