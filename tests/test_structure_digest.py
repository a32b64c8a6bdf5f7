"""Pin the structure constants of all sixteen g(A,B), of the V/W modules and
of the t(A) layer below them.

The digest is a sha256 over the sorted lines "<name> i j k c", one per
nonzero entry c of column j of map i, so it does not depend on the order in
which a builder fills its dicts; a bracket table and the module actions
are hashed through their Fraction views.  Any change to a bracket table or
to a module action matrix changes it.  The triality digest does the same
for t(R), t(C), t(H) and t(O): every entry of every basis map, the Cartan
dimension, the K matrix, the three Psi tables and every bracket_coords(k, l).
"""

import hashlib

from magicsquare.magic import build_magic_algebra
from magicsquare.modules import build_V_module, build_W_module
from magicsquare.triality import triality_algebra
from tests_helpers import fraction_table, fraction_view

STRUCTURE_DIGEST = "003745fe87489ca24963755b56710cd97005f103527d6fc3f8a54e20cb6c2327"
TRIALITY_DIGEST = "09938e3e927ab96664f0b55bc8254226c2159e367d957157da53f2964cc8cefb"


def _lines(name, maps):
    for i, cols in enumerate(maps):
        for j, col in cols.items():
            for k, c in col.items():
                yield f"{name} {i} {j} {k} {c}"


def structure_digest() -> str:
    lines = []
    for x in "RCHO":
        for y in "RCHO":
            lines.extend(_lines(f"g({x},{y})", fraction_table(build_magic_algebra(x, y))))
        for name, mod in (("V", build_V_module(x)), ("W", build_W_module(x))):
            lines.extend(_lines(f"{name}({x})", fraction_view(mod.actions, mod.denominator)))
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def test_structure_digest_is_pinned():
    assert structure_digest() == STRUCTURE_DIGEST


def triality_digest() -> str:
    lines = []
    for x in "RCHO":
        t = triality_algebra(x)
        name = f"t({x})"
        lines.append(f"{name} cartan_dim {t.cartan_dim}")
        for k, b in enumerate(t.basis):
            lines.extend(_lines(f"{name} basis {k}", fraction_view(b.thetas, b.denominator)))
        lines.extend(f"{name} K {r} {s} {c}"
                     for r, row in enumerate(t.k_matrix()) for s, c in enumerate(row) if c)
        for i in (1, 2, 3):
            lines.extend(f"{name} Psi{i} {p} {q} {k} {c}"
                         for (p, q), sv in t.psi_table(i).items() for k, c in sv.items())
        lines.extend(f"{name} bracket {k} {l} {m} {c}"
                     for k in range(t.dim) for l in range(t.dim)
                     for m, c in t.bracket_coords(k, l).items())
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def test_triality_digest_is_pinned():
    assert triality_digest() == TRIALITY_DIGEST
