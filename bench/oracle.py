"""Integer-only reference arithmetic for checking the program's outputs.

Nothing here imports hesse_moore: points are tuples of ints normalized
so the first nonzero coordinate is 1, and curves are given by (lam, p)
for x0^3 + x1^3 + x2^3 - lam*x0*x1*x2.
"""

from __future__ import annotations


def normalize(pt, p: int) -> tuple[int, int, int]:
    """Projective normal form: first nonzero coordinate scaled to 1."""
    pt = [c % p for c in pt]
    lead = next(c for c in pt if c)
    inv = pow(lead, p - 2, p)
    return tuple(c * inv % p for c in pt)


def on_curve(lam: int, p: int, pt) -> bool:
    x, y, z = pt
    return (x * x * x + y * y * y + z * z * z - lam * x * y * z) % p == 0


def is_smooth(lam: int, p: int) -> bool:
    return pow(lam, 3, p) != 27 % p


def curve_points(lam: int, p: int) -> list[tuple[int, int, int]]:
    """All of E(F_p) in normal form, from a table of cubes."""
    cubes = [v * v * v % p for v in range(p)]
    pts = [(0, 1, z) for z in range(p) if (1 + cubes[z]) % p == 0]
    for y in range(p):
        base = 1 + cubes[y]
        ly = lam * y
        pts.extend((1, y, z) for z in range(p) if (base + cubes[z] - ly * z) % p == 0)
    return pts


def line_arrangement(pt, p: int) -> bool:
    """Whether pt lies on x0*x1*x2*(x0^3-x1^3)(x1^3-x2^3)(x2^3-x0^3) = 0."""
    x, y, z = pt
    c0, c1, c2 = pow(x, 3, p), pow(y, 3, p), pow(z, 3, p)
    return x * y * z * (c0 - c1) * (c1 - c2) * (c2 - c0) % p == 0


def torsion3(p: int) -> set[tuple[int, int, int]]:
    """The nine flexes [1:-w:0], [0:1:-w], [-w:0:1], w^3 = 1."""
    roots = [w for w in range(1, p) if pow(w, 3, p) == 1]
    out = set()
    for w in roots:
        out.add(normalize((1, -w, 0), p))
        out.add(normalize((0, 1, -w), p))
        out.add(normalize((-w, 0, 1), p))
    return out


def heisenberg_orbit(a, p: int) -> set[tuple[int, int, int]]:
    """{T^i Sigma^j a}: Sigma shifts (a0,a1,a2) -> (a2,a0,a1) and
    T scales by (1, w, w^2) for a primitive cube root w."""
    w = next(v for v in range(2, p) if pow(v, 3, p) == 1)
    out = set()
    cur = tuple(a)
    for _ in range(3):
        for _ in range(3):
            out.add(normalize(cur, p))
            cur = (cur[2], cur[0], cur[1])
        cur = (cur[0], cur[1] * w % p, cur[2] * w * w % p)
    return out


def rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p (nonzero rows only) and pivots."""
    m = [[v % p for v in row] for row in rows]
    cols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(u - f * v) % p for u, v in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots
