from fractions import Fraction


def omega_pair(mod, p, q):
    """Pair two module vectors through the module's Gram-matrix form."""
    gram = mod.form_data
    out = Fraction(0)
    for r in range(mod.dimension):
        if p[r] == 0:
            continue
        row = gram[r]
        for c in range(mod.dimension):
            if q[c] != 0 and row[c] != 0:
                out += p[r] * row[c] * q[c]
    return out


def describe_index(g, i):
    """Name of basis index i of a magic algebra g: tA[k], tB[k] or m<slot>[p,q]."""
    if i < g.dA:
        return f"tA[{i}]"
    if i < g.dA + g.dB:
        return f"tB[{i - g.dA}]"
    i -= g.dA + g.dB
    slot, rest = divmod(i, g.a * g.b)
    p, q = divmod(rest, g.b)
    return f"m{slot + 1}[{p},{q}]"


def gram_matrix(g):
    """The invariant form of a magic algebra g on its basis, as a dense matrix."""
    basis = [g.basis_element(i) for i in range(g.dim)]
    return [[g.invariant_form(x, y) for y in basis] for x in basis]
