"""Words, strings and bands over a quiver presentation with monomial relations.

A word is a sequence of letters; a letter is an arrow traversed forward
(direct), backward (inverse), or a special loop (its own inverse).  Words
compose left to right: the end vertex of each letter is the start vertex of
the next.  A word w is a string when

  W3: consecutive letters are composable,
  W1: no letter is followed by its own inverse,
  W2: no factor of w or of w^-1 spells a forbidden word, and
  additionally every junction pair (l_i^-1, l_{i+1}) is incomparable in the
  comparability order carried by the presentation.

Forbidden words that involve special loops are inert for W2: the special
letter formalism already accounts for them, so only the forbidden words
without special arrows are matched against factors.

A band is a closed primitive word w such that w^m is a string for m large
enough to expose every cyclic junction and every cyclic factor up to the
longest effective forbidden word.  Bands are canonicalized to the
lexicographically least rotation; a band and its inverse are kept distinct.

Letters are named tuples (arrow, kind), so words compare and hash as tuples
do, in C.  The tuple order is the letter order, in which least rotations
and Lyndon words are taken: by arrow id, then "direct" before "inverse"; a
special arrow has only its special letter, so no other two kinds of one
arrow meet.  A letter's hash is that of the pair (arrow, kind), as every
record of the package hashes as the tuple of its fields; set and dict
orders over letters rest on it.  A word is primitive when its root
length, the length of the shortest u with w = u^k, is its own length;
_root_length finds it by descending from len(w) one prime factor at a
time, with one slice comparison per step.

Each presentation precomputes one W2 window table: for each length, the
letter tuples that spell an effective forbidden word or its inverse.  Three
private functions answer every question the checks ask: _windows_ending
scans the table for the windows that end at one position, _junction_faults
names the W3, W1 and incomparability faults of a letter pair, and
_seam_windows finds the windows that run from one word into the next.  The
string check and the junction records of composed bands use them, and so
does _context_graph, which applies them to one letter at a time.

One transfer graph, built by _context_graph, is all that bands read of
band legality: its states are contexts, suffixes of legal words that are
one letter or a proper prefix of a window, and step[i] maps each letter
that may follow state i to the next state.  A legal word walks from the
state of its first letter, and a word whose cyclic readings are all legal
labels exactly one closed walk.  band_counts counts bands by Moebius
inversion of the traces of the powers of its matrix, stepped along the
out-edges; enumerate_bands lists them, as the Lyndon words that label a
closed walk, and checks its list against the counts on the same graph.
tests/oracles.py holds independent checks of both.
"""

import collections
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "Letter",
    "ForbiddenWord",
    "WordPresentation",
    "Incompatibility",
    "StringCheck",
    "CounterExample",
    "FreeComposability",
    "BandCensus",
    "direct",
    "inverse",
    "special",
    "invert_letter",
    "invert_word",
    "parse_word",
    "format_word",
    "sphere5_presentation",
    "string_quotient",
    "is_string",
    "is_band",
    "free_composability",
    "build_xi",
    "build_eta",
    "rho1",
    "rho2",
    "enumerate_bands",
    "band_counts",
    "growth_report",
    "growth_table",
]

DIRECT = "direct"
INVERSE = "inverse"
SPECIAL = "special"
# Each letter kind's inverse kind and the suffix that spells it after the
# arrow id; parse_word finds a kind by its suffix.
_KINDS = {DIRECT: (INVERSE, ""), INVERSE: (DIRECT, "'"),
          SPECIAL: (SPECIAL, "*")}
_SUFFIXES = {suffix: kind for kind, (_, suffix) in _KINDS.items() if suffix}


class Letter(collections.namedtuple("Letter", "arrow kind")):
    __slots__ = ()

    def __new__(cls, arrow, kind):
        if kind not in _KINDS:
            raise ValueError("unknown letter kind %r" % (kind,))
        return super().__new__(cls, arrow, kind)

    def __repr__(self):
        return "Letter(%r, %s)" % (self.arrow, self.kind)


def direct(arrow):
    return Letter(arrow, DIRECT)


def inverse(arrow):
    return Letter(arrow, INVERSE)


def special(arrow):
    return Letter(arrow, SPECIAL)


def invert_letter(l):
    return Letter(l.arrow, _KINDS[l.kind][0])


def invert_word(w):
    return tuple(invert_letter(l) for l in reversed(w))


def format_word(w):
    return ".".join(l.arrow + _KINDS[l.kind][1] for l in w)


def parse_word(text):
    """Parse a dot-separated word: a1 direct, a1' inverse, eps2* special."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError("empty word text")
    out = []
    for tok in text.strip().split("."):
        tok = tok.strip()
        if not tok:
            raise ValueError("empty letter in word text %r" % (text,))
        kind = _SUFFIXES.get(tok[-1])
        aid = tok[:-1] if kind else tok
        if not aid or "'" in aid or "*" in aid:
            raise ValueError("bad letter %r in word text %r" % (tok, text))
        out.append(Letter(aid, kind or DIRECT))
    return tuple(out)


class ForbiddenWord(collections.namedtuple("ForbiddenWord", "arrows")):
    """A monomial relation: its arrow ids in composition order."""

    __slots__ = ()

    def __new__(cls, arrows):
        arrows = tuple(arrows)
        if not arrows:
            raise ValueError("empty forbidden word")
        return super().__new__(cls, arrows)


class Incompatibility(NamedTuple):
    """One violated condition, at a 1-based letter position."""

    kind: str
    position: int
    detail: str

    def __str__(self):
        return "%s at %d: %s" % (self.kind, self.position, self.detail)


class StringCheck(NamedTuple):
    """The outcome of is_string or is_band: ok exactly when violations is
    empty."""

    ok: bool
    violations: tuple


class WordPresentation:
    """Arrows with endpoints, special loops, forbidden words, comparability.

    comparability is a tuple of (smaller, larger) Letter pairs; the order
    used for the junction condition is the reflexive transitive closure of
    exactly these pairs.  Each pair must share its end vertex.

    The letter table maps each valid letter to (its inverse, its start,
    its end), filled from invert_letter and the arrows' endpoints in one
    pass: one entry per direct and inverse letter of an arrow, one per
    special loop.  letters() sorts its keys, start and end read it, and so
    does _junction_faults, which builds no letter per pair it tests.
    """

    def __init__(self, name, vertices, arrows, special_ids, forbidden,
                 comparability=()):
        self.name = name
        self.vertices = tuple(vertices)
        self.arrows = dict(arrows)
        self.special_ids = frozenset(special_ids)
        self.forbidden = tuple(forbidden)
        self.comparability = tuple(comparability)
        vset = set(self.vertices)
        for aid, (s, t) in self.arrows.items():
            if s not in vset or t not in vset:
                raise ValueError("arrow %r has unknown endpoint" % (aid,))
        for aid in self.special_ids:
            if aid not in self.arrows:
                raise ValueError("special id %r is not an arrow" % (aid,))
            s, t = self.arrows[aid]
            if s != t:
                raise ValueError("special arrow %r is not a loop" % (aid,))
        self._letter_table = {}
        for aid, (s, t) in self.arrows.items():
            if aid in self.special_ids:
                x = special(aid)
                self._letter_table[x] = (invert_letter(x), s, t)
            else:
                x = direct(aid)
                y = invert_letter(x)
                self._letter_table[x] = (y, s, t)
                self._letter_table[y] = (x, t, s)
        for f in self.forbidden:
            for aid in f.arrows:
                if aid not in self.arrows:
                    raise ValueError(
                        "forbidden word uses unknown arrow %r" % (aid,))
            for x, y in zip(f.arrows, f.arrows[1:]):
                if self.arrows[x][1] != self.arrows[y][0]:
                    raise ValueError(
                        "forbidden word %r is not composable" % (f.arrows,))
        for x, y in self.comparability:
            self.validate_letter(x)
            self.validate_letter(y)
            if self.end(x) != self.end(y):
                raise ValueError(
                    "comparability pair (%s, %s) does not share its end vertex"
                    % (format_word([x]), format_word([y])))
        self._effective = tuple(
            f for f in self.forbidden
            if not any(aid in self.special_ids for aid in f.arrows)
        )
        self._max_eff = max((len(f.arrows) for f in self._effective), default=0)
        # The W2 window table: by length, each letter tuple that spells an
        # effective forbidden word, directly or as its inverse, maps to its
        # (index, inverse?, arrows) entries; sorting entries gives the
        # reporting order (by index, direct before inverse).
        windows = collections.defaultdict(dict)
        for i, f in enumerate(self._effective):
            table = windows[len(f.arrows)]
            for key, inv in (
                    (tuple(direct(a) for a in f.arrows), False),
                    (tuple(inverse(a) for a in reversed(f.arrows)), True)):
                table[key] = table.get(key, ()) + ((i, inv, f.arrows),)
        self._w2_windows = tuple(sorted(windows.items()))
        # The proper prefixes of the windows: all that band_counts needs to
        # remember of the letters read so far, besides the last one.
        self._w2_prefixes = frozenset(
            key[:i] for _, table in self._w2_windows for key in table
            for i in range(1, len(key)))
        greater = collections.defaultdict(set)
        for x, y in self.comparability:
            greater[x].add(y)
        changed = True
        while changed:
            changed = False
            for x in list(greater):
                new = set()
                for y in greater[x]:
                    new |= greater.get(y, set())
                if not new <= greater[x]:
                    greater[x] |= new
                    changed = True
        self._greater = dict(greater)

    def validate_letter(self, l):
        if not isinstance(l, Letter):
            raise ValueError("not a letter: %r" % (l,))
        if l.arrow not in self.arrows:
            raise ValueError("unknown arrow %r in letter" % (l.arrow,))
        if l.kind == SPECIAL and l.arrow not in self.special_ids:
            raise ValueError("arrow %r is not special" % (l.arrow,))
        if l.kind != SPECIAL and l.arrow in self.special_ids:
            raise ValueError(
                "special arrow %r must be used as a special letter" % (l.arrow,))

    def start(self, l):
        return self._letter_table[l][1]

    def end(self, l):
        return self._letter_table[l][2]

    @property
    def max_effective_forbidden(self):
        return self._max_eff

    def comparable(self, x, y):
        if x == y:
            return True
        return y in self._greater.get(x, ()) or x in self._greater.get(y, ())

    def letters(self):
        """All valid letters, in letter order."""
        return sorted(self._letter_table)

    def __repr__(self):
        return "WordPresentation(%r, %d vertices, %d arrows, %d forbidden)" % (
            self.name, len(self.vertices), len(self.arrows),
            len(self.forbidden))


def sphere5_presentation():
    """The 12-arrow skewed-gentle presentation used by the growth certificate.

    Three special loops; the forbidden words comprise the special squares,
    nine quadratic words, and eleven longer words, of which exactly one
    avoids the special loops and is therefore effective for W2.
    """
    vertices = ("1", "2", "3", "4", "5", "6")
    arrows = {
        "a1": ("1", "2"),
        "a2": ("3", "2"),
        "a3": ("3", "1"),
        "b1": ("2", "4"),
        "b2": ("2", "5"),
        "b3": ("1", "6"),
        "c1": ("4", "1"),
        "c2": ("5", "3"),
        "c3": ("6", "3"),
        "eps1": ("4", "4"),
        "eps2": ("5", "5"),
        "eps3": ("6", "6"),
    }
    forbidden = [
        ForbiddenWord(("eps1", "eps1")),
        ForbiddenWord(("eps2", "eps2")),
        ForbiddenWord(("eps3", "eps3")),
    ]
    for i in "123":
        forbidden.append(ForbiddenWord(("a" + i, "b" + i)))
        forbidden.append(ForbiddenWord(("b" + i, "c" + i)))
        forbidden.append(ForbiddenWord(("c" + i, "a" + i)))
    forbidden += [
        ForbiddenWord(("b2", "eps2", "c2", "a3")),
        ForbiddenWord(("eps2", "c2", "a3", "a1")),
        ForbiddenWord(("c2", "a3", "a1", "b2")),
        ForbiddenWord(("a1", "b2", "eps2", "c2")),
        ForbiddenWord(("eps3", "c3", "a2", "b1", "eps1", "c1")),
        ForbiddenWord(("c3", "a2", "b1", "eps1", "c1", "b3")),
        ForbiddenWord(("a2", "b1", "eps1", "c1", "b3", "eps3")),
        ForbiddenWord(("b1", "eps1", "c1", "b3", "eps3", "c3")),
        ForbiddenWord(("eps1", "c1", "b3", "eps3", "c3", "a2")),
        ForbiddenWord(("c1", "b3", "eps3", "c3", "a2", "b1")),
        ForbiddenWord(("b3", "eps3", "c3", "a2", "b1", "eps1")),
    ]
    comparability = []
    for i in "123":
        comparability.append((direct("a" + i), inverse("b" + i)))
        comparability.append((direct("b" + i), inverse("c" + i)))
        comparability.append((direct("c" + i), inverse("a" + i)))
    return WordPresentation(
        "sphere5", vertices, arrows, ("eps1", "eps2", "eps3"),
        forbidden, comparability)


def string_quotient(maps, name=None):
    """String presentation obtained by killing every composition x f(x).

    The forbidden words are exactly the two-arrow paths {x f(x)}, one per
    arrow; no special loops and an empty comparability order.  Requires
    every cycle orbit to have length at least 4.
    """
    short = [orb for _, orb in maps.g_orbits if len(orb) < 4]
    if short:
        raise ValueError(
            "cycle orbit of arrow %r has length %d < 4"
            % (short[0][0], len(short[0])))
    arrows = {a.id: (a.source, a.target) for a in maps.quiver.arrows}
    forbidden = []
    for aid in sorted(arrows):
        forbidden.append(ForbiddenWord((aid, maps.f[aid])))
    return WordPresentation(
        name or "string-quotient",
        sorted(maps.quiver.vertices), arrows, (), forbidden, ())


def _windows_ending(p, w, j):
    """The window table entries (index, inverse?, arrows), in report order,
    of the effective forbidden windows of w that end at position j."""
    hits = []
    for n, table in p._w2_windows:
        if n > j + 1:
            break
        hits += table.get(tuple(w[j - n + 1 : j + 1]), ())
    if len(hits) > 1:
        hits.sort()
    return hits


def _junction_faults(p, x, y):
    """The kinds among W3, W1 and incomparability that the pair x, y of
    valid letters breaks, in that order."""
    xi, _, end = p._letter_table[x]
    faults = () if end == p._letter_table[y][1] else ("W3",)
    if y == xi:
        faults += ("W1",)
    if p.comparable(xi, y):
        faults += ("incomparability",)
    return faults


def _seam_windows(p, left, right):
    """(end, entry) of each window of left + right that starts in left and
    ends in right, by end; one ending at j starts in left when it has at
    least j - len(left) + 2 letters."""
    w = tuple(left) + tuple(right)
    k = len(left)
    return [(j, e)
            for j in range(k, min(len(w), k + p.max_effective_forbidden - 1))
            for e in _windows_ending(p, w, j) if len(e[2]) >= j - k + 2]


def _w2_violation(j, entry, n):
    """The W2 Incompatibility of a window table entry ending at j, in a
    word or the power of a closed word of n letters: a window that wraps
    past letter n says how many letters it has."""
    _, inv, arrows = entry
    s = j - len(arrows) + 1
    span = "%d-%d" % (s % n + 1, j % n + 1)
    if j >= n:
        span += " (%d letters, wrapping)" % len(arrows)
    return Incompatibility(
        "W2", s + 1,
        "letters %s spell %sforbidden word %s"
        % (span, "the inverse of " if inv else "", ".".join(arrows)))


def is_string(p, w):
    """Check the string conditions; returns every violation found.

    Violations are reported junction by junction, and at each junction in
    the order W3, W1, W2 (factors ending at the newly added letter,
    positioned at the factor start), incomparability.  Positions are
    1-based letter indices.
    """
    w = tuple(w)
    if not w:
        raise ValueError("empty word")
    for l in w:
        p.validate_letter(l)
    viols = _string_violations(p, w, len(w))
    return StringCheck(not viols, tuple(viols))


def _string_violations(p, w, n):
    """is_string's violations, naming letter i + 1 of w as i % n + 1."""
    viols = [_w2_violation(0, e, n) for e in _windows_ending(p, w, 0)]
    for i in range(len(w) - 1):
        x, y = w[i], w[i + 1]
        faults = _junction_faults(p, x, y)
        if "W3" in faults:
            viols.append(Incompatibility(
                "W3", i + 1,
                "letters %d and %d do not compose (%s ends at %s, %s starts at %s)"
                % (i % n + 1, (i + 1) % n + 1, format_word([x]), p.end(x),
                   format_word([y]), p.start(y))))
        if "W1" in faults:
            viols.append(Incompatibility(
                "W1", i + 1,
                "letter %d is the inverse of letter %d"
                % ((i + 1) % n + 1, i % n + 1)))
        viols.extend(_w2_violation(i + 1, e, n)
                     for e in _windows_ending(p, w, i + 1))
        if "incomparability" in faults:
            viols.append(Incompatibility(
                "incomparability", i + 1,
                "junction pair (%s, %s) is comparable"
                % (format_word([invert_letter(x)]), format_word([y]))))
    return viols


def _root_length(w):
    """The length of the shortest u with w = u^k.

    w is a power of w[:d] exactly when d divides len(w) and
    w[d:] == w[:-d], and the d that pass are the multiples of the root
    length; so start from len(w) and, for each prime factor q of len(w),
    divide by q while the quotient still passes."""
    d = n = len(w)
    q = 2
    while n > 1:
        if q * q > n:
            q = n  # the last prime factor
        if n % q == 0:
            while n % q == 0:
                n //= q
            while d % q == 0 and w[d // q:] == w[:-(d // q)]:
                d //= q
        q += 1
    return d


def is_primitive(w):
    w = tuple(w)
    return bool(w) and _root_length(w) == len(w)


def is_band(p, w):
    """Closed, primitive, and stringy in every cyclic reading.

    The cyclic conditions are checked on the power w^m with
    m = max(2, ceil(maxF / |w|) + 1) where maxF is the longest effective
    forbidden word; this exposes every cyclic junction and every cyclic
    factor of length up to maxF.  Each cyclic violation is reported once,
    at its position in 1..len(w), with its letters numbered in 1..len(w).
    """
    w = tuple(w)
    if not w:
        raise ValueError("empty word")
    for l in w:
        p.validate_letter(l)
    viols = []
    if p.end(w[-1]) != p.start(w[0]):
        viols.append(Incompatibility(
            "closed", len(w),
            "word ends at %s but starts at %s"
            % (p.end(w[-1]), p.start(w[0]))))
    if not is_primitive(w):
        # a proper power's least period is its root length
        viols.append(Incompatibility(
            "primitive", 1,
            "word is a proper power (least period %d)" % _root_length(w)))
    if viols:
        return StringCheck(False, tuple(viols))
    m = max(2, -(-p.max_effective_forbidden // len(w)) + 1)
    # w^m repeats every violation len(w) letters later, and holds each
    # junction and window that starts in its first copy.
    viols = tuple(v for v in _string_violations(p, w * m, len(w))
                  if v.position <= len(w))
    return StringCheck(not viols, viols)


class CounterExample(NamedTuple):
    """A composition pattern that fails the band check."""

    symbols: str
    check: object
    reason: str


class FreeComposability(NamedTuple):
    """Evidence that two bands compose freely up to a pattern depth.

    Every primitive necklace over the two block symbols, up to the stated
    depth, composes to a band after both blocks are rotated to a common
    basepoint.  junctions records the four block-boundary analyses; the
    necklace list is replayable without any enumeration.
    """

    word1: tuple
    word2: tuple
    basepoint: str
    depth: int
    max_forbidden: int
    junctions: tuple
    necklaces: tuple


def _least_rotation_at(p, w, v):
    """The least rotation of w in letter order among those starting at v."""
    return min(w[i:] + w[:i] for i in range(len(w)) if p.start(w[i]) == v)


def _lyndon_words(alphabet, maxlen):
    """All Lyndon words over the ordered alphabet, lengths 1..maxlen."""
    k = len(alphabet)
    w = [0]
    out = []
    while w:
        if len(w) <= maxlen:
            out.append(tuple(alphabet[c] for c in w))
        t = len(w)
        while len(w) < maxlen:
            w.append(w[-t])
        while w and w[-1] == k - 1:
            w.pop()
        if w:
            w[-1] += 1
    out.sort(key=lambda s: (len(s), s))
    return out


def _junction_record(p, label, left, right):
    x, y = left[-1], right[0]
    seam = tuple(_w2_violation(j, e, len(left) + len(right)).detail
                 for j, e in _seam_windows(p, left, right))
    return {
        "blocks": label,
        "last": format_word([x]),
        "first": format_word([y]),
        "violations": _junction_faults(p, x, y) + (("W2",) if seam else ()),
        "seam_factors": seam,
    }


def free_composability(p, w1, w2, depth=6):
    """Certify that all mixed compositions of two bands remain bands.

    Rotates both bands to their least common vertex, analyzes the four
    block junctions, then composes every primitive necklace over the block
    symbols 1 and 2 up to the given depth and checks that each composed
    word is a band.  Returns a FreeComposability certificate, or a
    CounterExample at the first failing pattern.  depth must be at least 2:
    shorter patterns never put the two bands next to each other.

    Lemma: suppose (a) all four junction records 11, 12, 21, 22 have no
    violations, and (b) both rotated blocks have at least maxF - 1 letters,
    maxF being the longest effective forbidden word.  By (b) a window of at
    most maxF letters meets at most two consecutive blocks, so every cyclic
    junction and every cyclic factor of a composed word, or of any power of
    it, lies inside one block (clean: the block is a band) or across one
    seam (clean by (a)).  The composed word is closed at the basepoint, so
    it is a band exactly when it is primitive.  Under (a) and (b) each
    pattern is therefore accepted on is_primitive alone, and the full band
    check runs only on a non-primitive word, to build its CounterExample.
    When (a) or (b) fails, the full band check runs on every pattern.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    w1, w2 = tuple(w1), tuple(w2)
    for which, w in (("first", w1), ("second", w2)):
        bc = is_band(p, w)
        if not bc.ok:
            raise ValueError("%s word is not a band: %s" % (
                which, "; ".join(str(v) for v in bc.violations)))
    common = {p.start(l) for l in w1} & {p.start(l) for l in w2}
    if not common:
        return CounterExample(
            "", None, "the bands visit disjoint vertex sets")
    v0 = min(common)
    r1, r2 = _least_rotation_at(p, w1, v0), _least_rotation_at(p, w2, v0)
    blocks = {"1": r1, "2": r2}
    junctions = tuple(
        _junction_record(p, a + b, blocks[a], blocks[b])
        for a, b in (("1", "1"), ("1", "2"), ("2", "1"), ("2", "2"))
    )
    primitivity_decides = not any(j["violations"] for j in junctions) and \
        min(len(r1), len(r2)) >= p.max_effective_forbidden - 1
    necklaces = []
    for sym in _lyndon_words("12", depth):
        word = sum((blocks[s] for s in sym), ())
        if not (primitivity_decides and is_primitive(word)):
            bc = is_band(p, word)
            if not bc.ok:
                return CounterExample(
                    "".join(sym), bc,
                    "composition pattern %s fails the band check"
                    % "".join(sym))
        necklaces.append(("".join(sym), len(word), True))
    return FreeComposability(
        word1=r1,
        word2=r2,
        basepoint=v0,
        depth=depth,
        max_forbidden=p.max_effective_forbidden,
        junctions=junctions,
        necklaces=tuple(necklaces),
    )


def rho1(maps, alpha):
    """First flank of the cycle construction, as a tuple of arrow ids: the
    g-orbit of gamma = f(alpha) from its third arrow on."""
    return maps.g_orbit(maps.f[alpha])[2:]


def rho2(maps, alpha):
    """Second flank of the cycle construction, as a tuple of arrow ids: the
    g-orbit of beta = f(f(alpha)) without its first and last arrows."""
    return maps.g_orbit(maps.f[maps.f[alpha]])[1:-1]


def build_xi(maps, alpha):
    """The closed word (alpha)(rho1)^-1(delta)(rho2)^-1 around two cycles.

    alpha is an arrow id; gamma = f(alpha) and beta = f(gamma) are the other
    two arrows of its triangle, delta = f(g(gamma)) is the matching arrow of
    the neighboring triangle.  Requires both cycle orbits to have length at
    least 3 (puncture valency at least 4 guarantees this with room to spare).
    """
    gamma = maps.f[alpha]
    beta = maps.f[gamma]
    n_gamma = len(maps.g_orbit(gamma))
    n_beta = len(maps.g_orbit(beta))
    if n_gamma < 3 or n_beta < 3:
        raise ValueError(
            "cycle orbits too short (lengths %d and %d; need at least 3)"
            % (n_gamma, n_beta))
    delta = maps.f[maps.g[gamma]]
    word = [direct(alpha)]
    word.extend(inverse(a) for a in reversed(rho1(maps, alpha)))
    word.append(direct(delta))
    word.extend(inverse(a) for a in reversed(rho2(maps, alpha)))
    return tuple(word)


def build_eta(maps, alpha):
    """The word eta paired with xi(alpha): xi(g(beta)) inverted, where
    beta = f(f(alpha)) is the third arrow of alpha's triangle."""
    return invert_word(build_xi(maps, maps.g[maps.f[maps.f[alpha]]]))


class BandCensus(NamedTuple):
    """The bands up to a length bound, from the closed walks of one context
    graph: how many, and with enumerate_bands which.

    counts[d-1] is the number of bands of length d, and self_inverse the
    number of bands that are a rotation of their own inverse; both always
    come from band_counts.  words is None in a census from band_counts;
    enumerate_bands adds every band in canonical rotation, sorted by length
    then letter order.
    """

    presentation_name: str
    max_len: int
    counts: tuple
    self_inverse: int
    words: tuple = None

    def count(self, d):
        return self.counts[d - 1]

    @property
    def total(self):
        return sum(self.counts)


def _context_graph(p):
    """The states and the step table of the transfer graph, the one
    reader of the band rule for band_counts and enumerate_bands.

    The context of a legal word is its longest suffix that is one letter
    or a proper prefix of a window.  The states are the contexts that legal
    words reach, the one-letter ones first, in letter order.  step[i] maps
    each letter that may follow state i, in letter order, to the state
    reached.  A letter y may follow context c when the junction rule lets
    it follow the last letter of c (follow lists such letters) and no
    window ends at y.  Such a window starts inside c, so _windows_ending on
    c + (y,) finds it, and the new context is a suffix of c + (y,).
    """
    letters = p.letters()
    starting = collections.defaultdict(list)
    for y in letters:
        starting[p.start(y)].append(y)
    # W3 rules out every pair that does not compose
    follow = {x: [y for y in starting[p.end(x)]
                  if not _junction_faults(p, x, y)] for x in letters}
    states = [(x,) for x in letters if not _windows_ending(p, (x,), 0)]
    index, step = {c: i for i, c in enumerate(states)}, []
    for c in states:  # grows while it is walked
        step.append({})
        for y in follow[c[-1]]:
            u = c + (y,)
            if not _windows_ending(p, u, len(c)):
                t = next((u[i:] for i in range(len(u) - 1)
                          if u[i:] in p._w2_prefixes), u[-1:])
                j = step[-1][y] = index.setdefault(t, len(states))
                if j == len(states):
                    states.append(t)
    return states, step


def enumerate_bands(p, max_len):
    """Every band of length <= max_len, each in canonical rotation.

    A band in canonical rotation w is a Lyndon word that labels exactly one
    closed walk in the graph of _context_graph, the graph band_counts
    counts in: the walk from the context s of w^m, m large, which ends with
    the last letter of w.  A Lyndon word labelling a closed walk is a band.
    From each s, a depth-first walk extends w while it stays a prenecklace
    and can get back to s within max_len letters, and collects w back at s
    when it is Lyndon.  A Lyndon word starts with its least letter, so w
    starts with none greater than a letter of s, a suffix of w^m.

    The counts and self_inverse are band_counts' census, counted on the
    same graph, which the listed lengths must match.
    """
    graph = _context_graph(p)
    census = _census(p, max_len, graph)
    states, step = graph
    out = [tuple(s.items()) for s in step]  # (letter, state) per out-edge
    into = [[] for _ in states]
    for i, s in enumerate(step):
        for j in s.values():
            into[j].append(i)
    found = []
    for s, c in enumerate(states):
        dist, queue = {s: 0}, [s]  # the fewest letters from each back to s
        for j in queue:  # grows while it is walked
            for i in into[j]:
                if i not in dist:
                    dist[i] = dist[j] + 1
                    queue.append(i)
        first = min(c)  # the greatest first letter
        path = []  # the edges (letter, context) of w

        def rec(i, per):  # at context i; per is the period of w
            t = len(path)
            if t and i == s and per == t:
                found.append(tuple(y for y, _ in path))
            for e in out[i]:
                y, j = e
                if (y < path[t - per][0] if t else y > first) or \
                        j not in dist or t + 1 + dist[j] > max_len:
                    continue
                path.append(e)
                rec(j, per if t and y == path[t - per][0] else t + 1)
                path.pop()

        rec(s, 0)
    words = tuple(sorted(found, key=lambda w: (len(w), w)))
    lengths = collections.Counter(map(len, words))
    listed = [lengths[d] for d in range(1, max_len + 1)]
    if tuple(listed) != census.counts:
        raise RuntimeError(
            "internal error: the enumerated bands (%s by length) differ "
            "from the counted ones (%s)" % (listed, list(census.counts)))
    return census._replace(words=words)


def _moebius(n):
    m, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            m = -m
        q += 1
    return -m if n > 1 else m


def _primitive_part(seq, d):
    """The sum over e | d of mu(d/e) seq[e-1]."""
    return sum(_moebius(d // e) * seq[e - 1]
               for e in range(1, d + 1) if d % e == 0)


def band_counts(p, max_len):
    """The census of bands of length <= max_len, counted without listing a
    band: counts per length and self_inverse, but no words.

    Transfer matrix: A is the adjacency matrix of the context graph of
    _context_graph, which enumerate_bands walks too.  A word w with every
    cyclic reading legal labels exactly one closed walk, from the context
    of w^m for m large; so tr(A^d) is the sum over e | d of e times the
    number of bands of length e, and Moebius inversion gives the counts.
    A is never built: row i of A^d is the sum of the rows of A^(d-1) at
    the targets of i's out-edges, a parallel edge counted once per letter.
    The target lists are padded to the largest out-degree r with the index
    of a zero row, so each length is one gather and one sum, O(n^2 r) for
    n contexts in place of the O(n^3) of a dense product.  r is at most
    the number of letters that the junction rule lets follow one letter,
    while a one-letter context can have many in-edges: genus2's string
    quotient with a window for each g-path of 17 arrows has 576 contexts,
    out-degree 2 and in-degree up to 16, and one length takes about 2 ms
    along the out-edges, 15 ms along the in-edges and 0.3 s as a dense
    int64 product (2-core Xeon, numpy 2.4).

    A band that is a rotation of its inverse is symmetric about two letters
    per period, each a special letter: between them the word would put a
    letter next to its inverse, or a special letter next to itself, which
    W1 forbids.  So odd lengths have none, and a band of length 2m reads
    s0.u.s1.u^-1 with s0, s1 special.  Let k be maxF - 1, at least 1,
    rounded up to an odd number, so that every window has at most k + 1
    letters, and call a legal word of length k fixed when it is its own
    inverse.  W(m), the number of legal words of length k + m that begin
    and end with a fixed word, counts each self-inverse band of length 2e,
    e | m, twice (once from each centre); so there are the sum over e | m
    of mu(m/e) W(e) / 2 of length 2m.  For m >= k such a word is S.y.T,
    and the walks of length m - k from the context of S count the y.

    The arithmetic is exact: int64 while n r^max_len < 2^62, with n the
    contexts and fixed words and r the largest out-degree bounding every
    walk count, Python ints otherwise.
    """
    return _census(p, max_len, _context_graph(p))


def _census(p, max_len, graph):
    """band_counts on graph, the result of _context_graph(p): every word
    that it tests is a walk along the graph's steps."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    states, step = graph

    def walk(i, word):  # the state that word leads to from state i, or None
        for y in word:
            i = None if i is None else step[i].get(y)
        return i

    k = max(1, p.max_effective_forbidden - 1) | 1
    first = {c[0]: i for i, c in enumerate(states) if len(c) == 1}
    halves = [((x,), i) for x, i in first.items() if x.kind == SPECIAL]
    for _ in range(k // 2):
        halves = [(h + (y,), j) for h, i in halves for y, j in step[i].items()]
    fixed = {}  # each fixed word, with its state
    for h, _ in halves:
        w = invert_word(h[1:]) + h
        i = walk(first.get(w[0]), w[1:])
        if i is not None:
            fixed[w] = i
    n = len(states)
    out = [list(s.values()) for s in step]  # the targets of the out-edges
    r = max(map(len, out), default=0)
    dtype = np.int64 if (n + len(fixed)) * r ** max_len < 2 ** 62 else object
    # padded with n, the index of a zero row
    targets = np.array([t + [n] * (r - len(t)) for t in out],
                       dtype=np.intp).reshape(n, r)
    start, end = np.zeros(n, dtype=dtype), np.zeros(n, dtype=dtype)
    if k <= max_len // 2:  # W(m) for some m >= k is wanted
        for i in fixed.values():
            start[i] += 1
        end[:] = [sum(walk(i, w) is not None for w in fixed) for i in range(n)]
    # W(m) for m < k: S and T overlap in k - m letters
    walks = [sum(walk(i, t[k - m:]) is not None
                 for s, i in fixed.items() for t in fixed
                 if s[m:] == t[:k - m])
             for m in range(1, min(k, max_len // 2 + 1))]
    power = np.eye(n + 1, n, dtype=dtype)  # A^d, then a zero row
    traces = []
    for d in range(max_len + 1):
        if d:
            # row i of A^d sums the rows of A^(d-1) at the targets of i's
            # out-edges
            np.add.reduce(power.take(targets, axis=0), axis=1,
                          out=power[:n])
            traces.append(int(power.trace()))
        if d + k <= max_len // 2:
            walks.append(int(start @ power[:n] @ end))
    return BandCensus(
        presentation_name=p.name,
        max_len=max_len,
        counts=tuple(_primitive_part(traces, d) // d
                     for d in range(1, max_len + 1)),
        self_inverse=sum(_primitive_part(walks, m) // 2
                         for m in range(1, max_len // 2 + 1)),
    )


def _rate(b, d):
    """b^(1/d); through logarithms only for a count too large for a float."""
    try:
        return b ** (1.0 / d)
    except OverflowError:
        return math.exp(math.log(b) / d)


def growth_report(census):
    """Counts, growth rates and inversion pairing for a band census."""
    rates = {}
    best = 0.0
    best_d = 0
    for d in range(1, census.max_len + 1):
        b = census.count(d)
        if b > 0:
            r = _rate(b, d)
            rates[d] = r
            if r > best:
                best, best_d = r, d
    return {
        "presentation": census.presentation_name,
        "max_len": census.max_len,
        "counts": {d: census.count(d) for d in range(1, census.max_len + 1)},
        "rates": rates,
        "max_rate": best,
        "argmax_length": best_d,
        "total": census.total,
        "self_inverse": census.self_inverse,
        "up_to_inversion": (census.total + census.self_inverse) // 2,
    }


def growth_table(rep, indent=""):
    """The length / count / count^(1/length) table of a growth report."""
    lines = [indent + "length  count  count^(1/length)"]
    for d, c in rep["counts"].items():
        r = ("%.4f" % rep["rates"][d]) if c else "-"
        lines.append(indent + "%6d  %5d  %s" % (d, c, r))
    return lines
