"""Round-trip every builtin root datum through to_json and from_json.

    python3 tools/roundtrip_builtins.py

Builds each of the 121 builtin data (A1-A30, B2-B30, C2-C30, D3-D30, E6-E8,
F4, G2), serializes it with `RootDatum.to_json`, passes the text through
`json`, loads it back with `RootDatum.from_json` (which also checks that the
roots form a positive system) and compares name, rank, Gram matrix, positive
roots and markers. It also checks that `dynkin_type` names the loaded datum
after the builtin's own name (with the two conventions C2 -> B2 and
D3 -> A3), so every rank up to 30 is classified, and that the loaded
datum's `cartan_matrix()`, which its integer frame finds from the roots and
the Gram, is the Bourbaki Cartan matrix 2 (a_i, a_j) / (a_j, a_j) of
`_simple_gram`, in the same order. Prints one line per datum
that differs, is misnamed or fails to load and a summary; exits 1 if any
did. Imports the package from the checkout's `src` and writes nothing.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from magicsquare.roots import RootDatum, _simple_gram, builtin_datum, dynkin_type  # noqa: E402

RANKS = {"a": range(1, 31), "b": range(2, 31), "c": range(2, 31), "d": range(3, 31),
         "e": range(6, 9), "f": [4], "g": [2]}


def differences(rd):
    """The fields of rd that do not survive the JSON round trip."""
    try:
        back = RootDatum.from_json(json.loads(json.dumps(rd.to_json())))
    except ValueError as exc:
        return [f"from_json: {exc}"]
    fields = ("name", "rank", "gram", "positive_roots", "markers")
    bad = [f for f in fields if getattr(back, f) != getattr(rd, f)]
    expected = {"c2": "B2", "d3": "A3"}.get(rd.name, rd.name.upper())
    if dynkin_type(back) != expected:
        bad.append(f"dynkin_type {dynkin_type(back)}, not {expected}")
    gram = _simple_gram(rd.name[0].upper(), rd.rank)
    if back.cartan_matrix() != [[2 * x / gram[j][j] for j, x in enumerate(row)] for row in gram]:
        bad.append("cartan_matrix is not the Bourbaki one")
    return bad


def main():
    names = [f"{kind}{n}" for kind, ranks in RANKS.items() for n in ranks]
    failed = 0
    for name in names:
        bad = differences(builtin_datum(name))
        if bad:
            failed += 1
            print(f"{name}: {', '.join(bad)}")
    print(f"{len(names)} builtin data, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
