"""Small dense linear algebra and univariate helpers over GF(p).

Matrices are lists of row lists of int residues; univariate polynomials are
coefficient lists, lowest degree first.
"""

from __future__ import annotations


def rref(rows, p):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace(rows, p):
    """Basis of the right kernel of the matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][fc]) % p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# univariate polynomials over GF(p), coefficient lists (low to high)

def poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], p - 2, p)
    while len(f) - 1 >= dg and f:
        poly_trim(f)
        if len(f) - 1 < dg:
            break
        c = (f[-1] * inv) % p
        shift = len(f) - 1 - dg
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % p
        poly_trim(f)
    return f


def poly_gcd(f, g, p):
    f, g = list(f), list(g)
    poly_trim(f)
    poly_trim(g)
    while g:
        f, g = g, poly_mod(f, g, p)
    if f:
        inv = pow(f[-1], p - 2, p)
        f = [(c * inv) % p for c in f]
    return f


def poly_deriv(f, p):
    return poly_trim([(i * c) % p for i, c in enumerate(f)][1:])


def charpoly(M, p):
    """Characteristic polynomial det(xI - M) via Hessenberg reduction."""
    n = len(M)
    if n == 0:
        return [1]
    H = [row[:] for row in M]
    for j in range(n - 2):
        pivot = None
        for i in range(j + 1, n):
            if H[i][j] % p:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != j + 1:
            H[j + 1], H[pivot] = H[pivot], H[j + 1]
            for row in H:
                row[j + 1], row[pivot] = row[pivot], row[j + 1]
        inv = pow(H[j + 1][j], p - 2, p)
        for i in range(j + 2, n):
            if H[i][j] % p:
                f = (H[i][j] * inv) % p
                H[i] = [(a - f * b) % p for a, b in zip(H[i], H[j + 1])]
                for row in H:
                    row[j + 1] = (row[j + 1] + f * row[i]) % p
    return _hessenberg_charpoly(H, p)


def _hessenberg_charpoly(H, p):
    n = len(H)
    # charpoly of upper Hessenberg matrix by the standard recurrence
    prev = [[1]]  # p_0 = 1
    for m in range(1, n + 1):
        # p_m(x) = (x - H[m-1][m-1]) p_{m-1}(x) - sum_{i=1}^{m-1}
        #          H[m-1-i][m-1] * (prod_{k=1}^{i} H[m-k][m-k-1]) * p_{m-1-i}(x)
        a = H[m - 1][m - 1] % p
        pm = [0] + prev[m - 1]
        pm = [(c1 - a * c2) % p
              for c1, c2 in zip(pm, prev[m - 1] + [0])]
        beta = 1
        for i in range(1, m):
            beta = (beta * H[m - i][m - i - 1]) % p
            if beta == 0:
                break
            coef = (H[m - 1 - i][m - 1] * beta) % p
            if coef:
                q = prev[m - 1 - i]
                for k, c in enumerate(q):
                    pm[k] = (pm[k] - coef * c) % p
        pm = pm + [0] * (m + 1 - len(pm))
        prev.append(pm[: m + 1])
    out = prev[n]
    return out


def is_squarefree(f, p):
    d = poly_deriv(f, p)
    if not d:
        return len(poly_trim(list(f))) <= 2  # constant or linear after x^p issues
    return len(poly_gcd(f, d, p)) == 1
