"""Seeded generator of system files for the ladder workloads.

It does not import liouvar: every file is built here with a small exact
algebra of its own, so two commits of liouvar read byte-identical inputs
and a bug in a liouvar builder cannot change the workload.

A polynomial is a dict {monomial: Fraction}.  A monomial is a sorted
tuple of (atom, exponent); an atom is ("x", name) for a coordinate, or
("sin", L) / ("cos", L) where L is a sorted tuple of (name, int) pairs,
the integer linear form the function is applied to.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, permutations


# --------------------------------------------------------------------------
# Exact polynomial algebra over coordinate and sin/cos atoms


def var(name):
    return {((("x", name), 1),): Fraction(1)}


def const(c):
    return {(): Fraction(c)} if c else {}


def trig(kind, **linear):
    return {(((kind, tuple(sorted(linear.items()))), 1),): Fraction(1)}


def add(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def scale(p, c):
    c = Fraction(c)
    return {m: v * c for m, v in p.items()} if c else {}


def _mono_mul(m1, m2):
    exps = dict(m1)
    for atom, e in m2:
        exps[atom] = exps.get(atom, 0) + e
    return tuple(sorted(exps.items()))


def mul(*polys):
    out = {(): Fraction(1)}
    for p in polys:
        acc = {}
        for m1, c1 in out.items():
            for m2, c2 in p.items():
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        out = {m: c for m, c in acc.items() if c}
    return out


def power(p, e):
    return mul(*([p] * e))


def _diff_atom(atom, name):
    """d(atom)/d(name) as a polynomial."""
    kind, payload = atom
    if kind == "x":
        return const(1 if payload == name else 0)
    k = dict(payload).get(name, 0)
    if not k:
        return {}
    if kind == "sin":
        return scale({(((("cos", payload), 1),)): Fraction(1)}, k)
    return scale({(((("sin", payload), 1),)): Fraction(1)}, -k)


def diff(p, name):
    out = {}
    for m, c in p.items():
        for i, (atom, e) in enumerate(m):
            d_atom = _diff_atom(atom, name)
            if not d_atom:
                continue
            rest = m[:i] + ((atom, e - 1),) * (e > 1) + m[i + 1:]
            out = add(out, mul({rest: c * e}, d_atom))
    return out


def det(rows):
    """Leibniz determinant of a square matrix of polynomials."""
    n = len(rows)
    out = {}
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = mul(*(rows[i][perm[i]] for i in range(n)))
        out = add(out, scale(term, -1 if inversions % 2 else 1))
    return out


# --------------------------------------------------------------------------
# Rendering in the liouvar expression grammar


def _frac(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _atom_str(atom):
    kind, payload = atom
    if kind == "x":
        return payload
    parts = []
    for name, k in payload:
        mag = "" if abs(k) == 1 else f"{abs(k)}*"
        sign = "-" if k < 0 else "+"
        parts.append((sign, mag + name))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    text += "".join(f" {s} {t}" for s, t in parts[1:])
    return f"{kind}({text})"


def render(p):
    if not p:
        return "0"
    out = []
    for m, c in sorted(p.items(), key=lambda mc: repr(mc[0])):
        factors = [_frac(abs(c))] + [
            _atom_str(a) if e == 1 else f"{_atom_str(a)}^{e}" for a, e in m]
        body = "*".join(factors)
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


# --------------------------------------------------------------------------
# System builders


def _coef(rng, low=1, high=5):
    """Nonzero rational p/q with small numerator and denominator."""
    num = rng.randint(low, high) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, 3))


def _system(name, coords, field, invariants, gamma=None):
    data = {
        "name": name,
        "coordinates": list(coords),
        "parameters": {},
        "vector_field": [render(c) for c in field],
    }
    if gamma is not None:
        data["gamma"] = [{"index": [i + 1 for i in idx], "coeff": render(c)}
                         for idx, c in gamma if c]
    data["invariants"] = [render(h) for h in invariants]
    return data


def _canonical(m, H):
    """X with X ⌟ (sum dq_i ∧ dp_i) = dH, coordinates q1, p1, q2, p2, ..."""
    coords = [n for i in range(1, m + 1) for n in (f"q{i}", f"p{i}")]
    field = []
    for i in range(1, m + 1):
        field += [diff(H, f"p{i}"), scale(diff(H, f"q{i}"), -1)]
    return coords, field


def quartic_chain(rng, m):
    """H = sum p_i^2/2 + sum a_i q_i^4 + sum c_i q_i q_{i+1}; no gamma, so
    the radial homotopy solver runs."""
    q = [var(f"q{i}") for i in range(1, m + 1)]
    p = [var(f"p{i}") for i in range(1, m + 1)]
    H = add(*(scale(power(pi, 2), Fraction(1, 2)) for pi in p),
            *(scale(power(qi, 4), _coef(rng)) for qi in q),
            *(scale(mul(q[i], q[i + 1]), _coef(rng)) for i in range(m - 1)))
    coords, field = _canonical(m, H)
    return _system(f"quartic_chain_m{m}", coords, field, [H])


def pendulum_chain(rng, m):
    """H = sum p_i^2/2 - sum a_i cos q_i + sum b_i cos(q_i - q_{i+1}).

    gamma = H * omega^(m-1)/(m-1)!: one entry per omitted (q_j, p_j) pair,
    each with coefficient H and sign +1 on the interleaved coordinates.
    """
    p = [var(f"p{i}") for i in range(1, m + 1)]
    H = add(*(scale(power(pi, 2), Fraction(1, 2)) for pi in p),
            *(scale(trig("cos", **{f"q{i}": 1}), -abs(_coef(rng))) for i in range(1, m + 1)),
            *(scale(trig("cos", **{f"q{i}": 1, f"q{i + 1}": -1}), _coef(rng))
              for i in range(1, m)))
    coords, field = _canonical(m, H)
    gamma = [(tuple(k for i in range(m) if i != j for k in (2 * i, 2 * i + 1)), H)
             for j in reversed(range(m))]
    return _system(f"pendulum_chain_m{m}", coords, field, [H], gamma=gamma)


def _nambu(name, coords, hams, with_gamma):
    """X with X ⌟ dx_1∧...∧dx_n = dH_1∧...∧dH_{n-1}; gamma = H_1 dH_2∧...∧dH_{n-1}."""
    n = len(coords)
    jac = [[diff(h, x) for x in coords] for h in hams]
    field = []
    for i in range(n):
        minor = [[row[j] for j in range(n) if j != i] for row in jac]
        field.append(scale(det(minor), -1 if i % 2 else 1))
    gamma = None
    if with_gamma:
        gamma = [(idx, mul(hams[0], det([[row[j] for j in idx] for row in jac[1:]])))
                 for idx in combinations(range(n), n - 2)]
    return _system(name, coords, field, hams, gamma=gamma)


def cubic_nambu(rng, n):
    """H_k = a_k x_k^2 x_{k+1} + b_k x_{k+2} (indices mod n) on R^n; no gamma."""
    x = [var(f"x{i}") for i in range(1, n + 1)]
    hams = [add(scale(mul(x[k], x[k], x[(k + 1) % n]), _coef(rng)),
                scale(x[(k + 2) % n], _coef(rng)))
            for k in range(n - 1)]
    return _nambu(f"cubic_nambu_n{n}", [f"x{i}" for i in range(1, n + 1)], hams, False)


def trig_nambu(rng, n):
    """H_k = a_k sin(x_k) + b_k cos(x_{k+1} - x_{k+2}) (indices mod n) on R^n;
    explicit gamma."""
    coords = [f"x{i}" for i in range(1, n + 1)]
    hams = []
    for k in range(n - 1):
        a, b, c = coords[k], coords[(k + 1) % n], coords[(k + 2) % n]
        hams.append(add(scale(trig("sin", **{a: 1}), _coef(rng)),
                        scale(trig("cos", **{b: 1, c: -1}), _coef(rng))))
    return _nambu(f"trig_nambu_n{n}", coords, hams, True)


BUILDERS = {
    "quartic_chain": quartic_chain,
    "pendulum_chain": pendulum_chain,
    "cubic_nambu": cubic_nambu,
    "trig_nambu": trig_nambu,
}


def system_text(kind, size, rng):
    """The bytes of one generated system file."""
    return json.dumps(BUILDERS[kind](rng, size), indent=2) + "\n"
