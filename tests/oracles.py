"""Independent brute-force reference implementations used by the tests.

Everything here recomputes results from first principles with naive
algorithms (dense linear algebra, exhaustive window scans, full walk
enumeration) so that agreement with the package is meaningful.  Only
public data attributes of the package objects are read; none of the
package's algorithmic code paths are reused.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from surfalg.strings import DIRECT, INVERSE, SPECIAL, Letter


# ---------------------------------------------------------------------------
# dense mod-p linear algebra


def rref_mod(mat, p):
    """Row reduce a dense integer matrix over F_p; returns (rref, pivot_cols)."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if a[i, c] % p:
                pr = i
                break
        if pr is None:
            continue
        a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def kernel_from_rref(ref, pivots, ncols, p):
    """Coordinate-readable kernel basis read off an RREF: row i has a 1 at
    the i-th free column, 0 at the other free columns."""
    free = [c for c in range(ncols) if c not in pivots]
    n = np.zeros((len(free), ncols), dtype=np.int64)
    for i, f in enumerate(free):
        n[i, f] = 1
        for row, pc in enumerate(pivots):
            n[i, pc] = -int(ref[row, f]) % p
    return n, free


def naive_hom_basis(quiver, p, m_dims, m_mats, n_dims, n_mats):
    """Intertwiners from m to n, one equation at a time.

    Unknown f_v is an m_dims[v] x n_dims[v] matrix, laid out row-major per
    vertex in sorted vertex order; arrow x: s -> t asks M_x f_t = f_s N_x.
    Returns the kernel basis of the equations, one {vertex: matrix} family
    per basis row.
    """
    vertices = sorted(quiver.vertices)
    offs, total = {}, 0
    for v in vertices:
        offs[v] = total
        total += m_dims.get(v, 0) * n_dims.get(v, 0)
    eqs = []
    for x in sorted(quiver.arrows, key=lambda x: x.id):
        s, t = x.source, x.target
        ms, mt = m_dims.get(s, 0), m_dims.get(t, 0)
        ns, nt = n_dims.get(s, 0), n_dims.get(t, 0)
        mx = m_mats.get(x.id, np.zeros((ms, mt), dtype=np.int64))
        nx = n_mats.get(x.id, np.zeros((ns, nt), dtype=np.int64))
        for i in range(ms):
            for j in range(nt):
                row = [0] * total
                for k in range(mt):
                    row[offs[t] + k * nt + j] += int(mx[i, k])
                for k in range(ns):
                    row[offs[s] + i * ns + k] -= int(nx[k, j])
                if any(c % p for c in row):
                    eqs.append(row)
    mat = np.array(eqs, dtype=np.int64).reshape(len(eqs), total)
    ref, pivots = rref_mod(mat, p)
    null, _ = kernel_from_rref(ref, pivots, total, p)
    return [
        {v: row[offs[v]:offs[v] + m_dims.get(v, 0) * n_dims.get(v, 0)]
         .reshape(m_dims.get(v, 0), n_dims.get(v, 0)) for v in vertices}
        for row in null]


def all_paths_up_to(quiver, max_len):
    """All composable paths as arrow-id tuples, grouped by length.

    Length 0 is represented by one empty tuple per vertex, tagged with the
    vertex: the return value is (trivial, by_len) where trivial is the
    sorted vertex list and by_len[d] lists the tuples of length d >= 1.
    """
    arrows = sorted((a.id, a.source, a.target) for a in quiver.arrows)
    out = {}
    for aid, s, t in arrows:
        out.setdefault(s, []).append((aid, t))
    by_len = {0: [()]}
    level = [((aid,), t) for aid, s, t in arrows]
    for d in range(1, max_len + 1):
        by_len[d] = [path for path, t in level]
        nxt = []
        for path, t in level:
            for aid, t2 in out.get(t, ()):
                nxt.append((path + (aid,), t2))
        level = nxt
    return sorted(quiver.vertices), by_len


def _truncated_ideal(quiver, rels, p, max_deg):
    """Dense RREF of the ideal truncated at max_deg.

    Builds every padded relation product u*r*v with |u| + min-term + |v|
    <= max_deg, drops the terms that overflow the degree window, and row
    reduces the whole stack at once over the columns of every path of
    length 1..max_deg in (length, lex) order.  Returns (trivial, by_len,
    cols, rref, pivot_cols).
    """
    src = {a.id: a.source for a in quiver.arrows}
    tgt = {a.id: a.target for a in quiver.arrows}

    def path_src(path):
        return src[path[0]]

    def path_tgt(path):
        return tgt[path[-1]]

    trivial, by_len = all_paths_up_to(quiver, max_deg)
    cols = []
    for d in range(1, max_deg + 1):
        cols.extend(sorted(by_len[d]))
    col_of = {path: i for i, path in enumerate(cols)}

    rows = []
    for r in rels.generators:
        m = min(len(path) for path, _ in r.terms)
        head = r.terms[0][0]
        for a in range(max_deg - m + 1):
            lefts = [()] if a == 0 else [
                u for u in by_len[a] if path_tgt(u) == path_src(head)]
            for u in lefts:
                for b in range(max_deg - m - a + 1):
                    rights = [()] if b == 0 else [
                        v for v in by_len[b] if path_src(v) == path_tgt(head)]
                    for v in rights:
                        vec = np.zeros(len(cols), dtype=np.int64)
                        hit = False
                        for path, coeff in r.terms:
                            if a + len(path) + b > max_deg:
                                continue
                            vec[col_of[u + path + v]] += coeff
                            hit = True
                        if hit and vec.any():
                            rows.append(vec)
    if rows:
        ref, pivots = rref_mod(np.stack(rows), p)
    else:
        ref, pivots = np.zeros((0, len(cols)), dtype=np.int64), []
    return trivial, by_len, cols, ref, pivots


def brute_graded_dims(quiver, rels, p, max_deg):
    """Graded dimensions of the quotient truncated at max_deg, densely:
    survivor counts per length are read off the pivot columns."""
    trivial, by_len, cols, _, pivots = _truncated_ideal(
        quiver, rels, p, max_deg)
    pivot_len = {}
    for c in pivots:
        pivot_len[len(cols[c])] = pivot_len.get(len(cols[c]), 0) + 1
    dims = [len(trivial)]
    for d in range(1, max_deg + 1):
        dims.append(len(by_len[d]) - pivot_len.get(d, 0))
    return dims


def brute_normal_forms(quiver, rels, p, deg):
    """Normal form of every path of length 1..deg modulo the ideal
    truncated at deg, as {path: {surviving path: coeff}}.

    A non-pivot column is its own normal form; a pivot column equals minus
    the non-pivot entries of its row of the fully reduced echelon form.
    With deg at least the first length where no path survives, these are
    the normal forms in the quotient of the complete path algebra.
    """
    _, _, cols, ref, pivots = _truncated_ideal(quiver, rels, p, deg)
    row_of = {c: i for i, c in enumerate(pivots)}
    out = {}
    for c, path in enumerate(cols):
        if c not in row_of:
            out[path] = {path: 1}
            continue
        row = ref[row_of[c]]
        out[path] = {cols[k]: -int(row[k]) % p for k in np.nonzero(row)[0]
                     if k != c}
    return out


# ---------------------------------------------------------------------------
# naive word checks


def _letter_ends(pres, letter):
    s, t = pres.arrows[letter.arrow]
    if letter.kind == INVERSE:
        return t, s
    return s, t


def _effective_forbidden(pres):
    out = []
    for f in pres.forbidden:
        if any(a in pres.special_ids for a in f.arrows):
            continue
        out.append(tuple(f.arrows))
    return out


def naive_max_forbidden(pres):
    eff = _effective_forbidden(pres)
    return max((len(f) for f in eff), default=0)


_CLOSURE_CACHE = {}


def _naive_closure(pairs):
    """Reflexive-transitive closure of explicit pairs, as a set of tuples."""
    cached = _CLOSURE_CACHE.get(pairs)
    if cached is not None:
        return cached
    edges = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(edges):
            for (c, d) in list(edges):
                if b == c and (a, d) not in edges:
                    edges.add((a, d))
                    changed = True
    _CLOSURE_CACHE[pairs] = edges
    return edges


def naive_comparable(pres, x, y):
    if x == y:
        return True
    closure = _naive_closure(tuple(pres.comparability))
    return (x, y) in closure or (y, x) in closure


def naive_is_string(pres, word):
    """Full-window string check; returns a bare boolean."""
    if not word:
        raise ValueError("empty word")
    for letter in word:
        if letter.arrow not in pres.arrows:
            raise ValueError("unknown arrow %r" % (letter.arrow,))
        if letter.kind == SPECIAL and letter.arrow not in pres.special_ids:
            raise ValueError("not a special arrow: %r" % (letter.arrow,))
        if letter.kind != SPECIAL and letter.arrow in pres.special_ids:
            raise ValueError("special arrow used directly: %r"
                             % (letter.arrow,))
    # composability
    for i in range(len(word) - 1):
        if _letter_ends(pres, word[i])[1] != _letter_ends(pres, word[i + 1])[0]:
            return False
    # no letter followed by its inverse (specials are self-inverse)
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a.arrow == b.arrow:
            if a.kind == SPECIAL and b.kind == SPECIAL:
                return False
            if {a.kind, b.kind} == {DIRECT, INVERSE}:
                return False
    # forbidden factors of w or w^-1, every window of every length
    eff = set(_effective_forbidden(pres))
    for i in range(len(word)):
        for j in range(i + 1, len(word) + 1):
            win = word[i:j]
            if all(l.kind == DIRECT for l in win):
                if tuple(l.arrow for l in win) in eff:
                    return False
            if all(l.kind == INVERSE for l in win):
                if tuple(l.arrow for l in reversed(win)) in eff:
                    return False
    # junction incomparability
    inv_kind = {DIRECT: INVERSE, INVERSE: DIRECT, SPECIAL: SPECIAL}
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if naive_comparable(pres, Letter(a.arrow, inv_kind[a.kind]), b):
            return False
    return True


def naive_min_period(word):
    n = len(word)
    for q in range(1, n + 1):
        if n % q == 0 and word == word[:q] * (n // q):
            return q
    return n


def naive_is_band(pres, word):
    s0 = _letter_ends(pres, word[0])[0]
    t = _letter_ends(pres, word[-1])[1]
    if s0 != t:
        return False
    if naive_min_period(word) != len(word):
        return False
    maxf = naive_max_forbidden(pres)
    m = max(2, math.ceil(maxf / len(word)) + 1)
    return naive_is_string(pres, word * m)


def _naive_key(letter):
    return (letter.arrow, 0 if letter.kind != INVERSE else 1)


def naive_canonical(word):
    rots = [word[i:] + word[:i] for i in range(len(word))]
    return min(rots, key=lambda w: [_naive_key(l) for l in w])


def naive_enumerate_bands(pres, max_len):
    """Every band up to max_len by exhaustive walk enumeration.

    Returns a dict mapping length to a set of canonical letter tuples.
    """
    letters = []
    for aid in pres.arrows:
        if aid in pres.special_ids:
            letters.append((aid, SPECIAL))
        else:
            letters.append((aid, DIRECT))
            letters.append((aid, INVERSE))
    letters = [Letter(a, k) for a, k in sorted(letters)]
    starts = {}
    for l in letters:
        starts.setdefault(_letter_ends(pres, l)[0], []).append(l)

    found = {d: set() for d in range(1, max_len + 1)}

    def walk(prefix, end):
        d = len(prefix)
        if d >= 1 and _letter_ends(pres, prefix[0])[0] == end:
            w = tuple(prefix)
            if naive_is_band(pres, w):
                found[d].add(naive_canonical(w))
        if d == max_len:
            return
        for l in starts.get(end, ()):
            prefix.append(l)
            walk(prefix, _letter_ends(pres, l)[1])
            prefix.pop()

    for v in sorted(starts):
        for l in starts[v]:
            walk([l], _letter_ends(pres, l)[1])
    return found


def _naive_moebius(n):
    primes = [q for q in range(2, n + 1)
              if n % q == 0 and all(q % r for r in range(2, q))]
    if any(n % (q * q) == 0 for q in primes):
        return 0
    return (-1) ** len(primes)


def naive_band_counts(pres, max_len):
    """(counts by length, self-inverse count) of the bands up to max_len.

    Plain Python ints over the de Bruijn graph of order k = maxF - 1, at
    least 1 and made odd: its states are the strings of length k, its edges
    the strings of length k + 1.  The closed walks of length d spell the
    words w of length d with w^m a string for every m, so the bands of
    length d number the Moebius sum of closed walks over the divisors of d,
    divided by d.  A self-inverse band of length 2m is s0.u.s1.u^-1 with
    two special centres; it is counted twice among the walks of length m
    between states that are their own inverse.
    """
    letters = [Letter(a, kind) for a in sorted(pres.arrows)
               for kind in ((SPECIAL,) if a in pres.special_ids
                            else (DIRECT, INVERSE))]
    k = max(1, naive_max_forbidden(pres) - 1)
    k += 1 - k % 2
    states = [w for w in itertools.product(letters, repeat=k)
              if naive_is_string(pres, w)]
    succ = {s: [s[1:] + (l,) for l in letters
                if naive_is_string(pres, s + (l,))] for s in states}
    inv = {DIRECT: INVERSE, INVERSE: DIRECT, SPECIAL: SPECIAL}
    fixed = {s for s in states
             if tuple(Letter(l.arrow, inv[l.kind]) for l in reversed(s)) == s}
    closed = [0] * (max_len + 1)
    between = [0] * (max_len + 1)
    for s in states:
        walks = {s: 1}
        for d in range(1, max_len + 1):
            nxt = {}
            for t, c in walks.items():
                for u in succ[t]:
                    nxt[u] = nxt.get(u, 0) + c
            walks = nxt
            closed[d] += walks.get(s, 0)
            if s in fixed:
                between[d] += sum(c for t, c in walks.items() if t in fixed)

    def primitive(seq, d):
        return sum(_naive_moebius(d // e) * seq[e]
                   for e in range(1, d + 1) if d % e == 0)

    counts = [primitive(closed, d) // d for d in range(1, max_len + 1)]
    self_inverse = sum(primitive(between, m) // 2
                       for m in range(1, max_len // 2 + 1))
    return counts, self_inverse


def naive_free_composability(pres, w1, w2, depth):
    """The free-composability verdict from naive_is_band on every pattern.

    Both bands are rotated to their least rotation starting at the least
    vertex they share.  Every binary Lyndon word up to depth, in (length,
    symbols) order, is composed from the two blocks and checked.  Returns
    ("necklaces", patterns) when all are bands, else ("fail", symbols) for
    the first that is not; the symbols are "" when no vertex is shared.
    """
    common = ({_letter_ends(pres, l)[0] for l in w1}
              & {_letter_ends(pres, l)[0] for l in w2})
    if not common:
        return ("fail", "")
    v0 = min(common)

    def block(w):
        rots = [w[i:] + w[:i] for i in range(len(w))
                if _letter_ends(pres, w[i])[0] == v0]
        return min(rots, key=lambda r: [_naive_key(l) for l in r])

    blocks = {"1": block(tuple(w1)), "2": block(tuple(w2))}
    patterns = []
    for n in range(1, depth + 1):
        for bits in itertools.product("12", repeat=n):
            s = "".join(bits)
            if all(s < s[i:] + s[:i] for i in range(1, n)):
                patterns.append(s)
    for s in patterns:
        if not naive_is_band(pres, tuple(l for c in s for l in blocks[c])):
            return ("fail", s)
    return ("necklaces", tuple(patterns))


# ---------------------------------------------------------------------------
# gluing of triangles: vertex classes by union-find, not by a corner walk


def _root(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def glued_vertex_classes(triangles):
    """Vertex classes and connected pieces of triangles glued along arcs.

    Point (i, k) is vertex k of triangle i, and side k runs from point k to
    point k+1.  The two sides that carry one arc id are glued with reversed
    orientation: the start of each is identified with the end of the other.
    Union-find over the 3T points gives the classes, numbered in point
    order; union-find over the triangles gives the pieces.  Returns
    (class of each point, number of classes, number of pieces).
    """
    points = [(i, k) for i in range(len(triangles)) for k in range(3)]
    parent = {x: x for x in points}
    tparent = list(range(len(triangles)))
    sides = {}
    for i, tri in enumerate(triangles):
        for k, arc in enumerate(tri):
            sides.setdefault(arc, []).append((i, k))
    for (i, k), (j, m) in sides.values():
        for x, y in (((i, k), (j, (m + 1) % 3)), ((i, (k + 1) % 3), (j, m))):
            parent[_root(parent, x)] = _root(parent, y)
        tparent[_root(tparent, i)] = _root(tparent, j)
    number = {}
    cls = {x: number.setdefault(_root(parent, x), len(number))
           for x in points}
    pieces = {_root(tparent, i) for i in range(len(triangles))}
    return cls, len(number), len(pieces)


def gluing_labellings(genus, punctures, arcs, triangles):
    """Every naming of the glued vertex classes by the punctures, one to
    one, under which each arc's endpoints are the classes of its two ends.

    arcs maps each arc id to its endpoint pair, and every arc fills two
    triangle sides.  The list is empty unless the triangles form one
    connected surface with Euler characteristic 2 - 2 genus.  Each naming
    is a dict class -> puncture.
    """
    cls, n, pieces = glued_vertex_classes(triangles)
    if pieces != 1 or n != len(punctures) \
            or n - len(arcs) + len(triangles) != 2 - 2 * genus:
        return []
    ends = {}
    for i, tri in enumerate(triangles):
        for k, arc in enumerate(tri):
            ends[arc] = (cls[i, k], cls[i, (k + 1) % 3])
    candidates = [set(punctures) for _ in range(n)]
    for arc, (a, b) in ends.items():
        candidates[a] &= set(arcs[arc])
        candidates[b] &= set(arcs[arc])
    out = []
    for names in itertools.product(*(sorted(c) for c in candidates)):
        if len(set(names)) == n and all(
                sorted((names[a], names[b])) == sorted(arcs[arc])
                for arc, (a, b) in ends.items()):
            out.append(dict(enumerate(names)))
    return out


# ---------------------------------------------------------------------------
# exact rational determinant for cross-checking integer determinants


def det_fraction(mat):
    a = [[Fraction(int(x)) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pr = None
        for r in range(c, n):
            if a[r][c] != 0:
                pr = r
                break
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = -det
        det *= a[c][c]
        inv = a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] / inv
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return det
