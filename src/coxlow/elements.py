"""Group elements, inversion sets, cone membership and low elements.

Elements are identified with their ShortLex normal form (the
lexicographically least among the shortest words); equality and hashing go
through the normal form exclusively.  A root is identified by its id in
``rs.root_table`` throughout: inversion sets (frozensets of ids), the small
roots, lambda masks and the right-descent roots by which ``is_low`` decides
(it solves no cone) all hold ids.  ``elements_by_length`` walks the normal
forms with the ShortLex automaton, which accepts exactly one word per
element, so the walk is exact, compares no two elements and computes no
matrix; it builds and keeps each level as automaton states alone, derives a
level's letters and parent indices when they are first read, and reads a
word back and builds its Element only when an entry is drawn.
The inversion set convention is N(w) = Phi+ cap w(Phi-).  One fold,
``_word_inversions``, turns a word into N(w), reading it from the right:
N(s x) = {alpha_s} u s N(x), or s (N(x) - {alpha_s}) when alpha_s is
already in N(x).  ``inversion_set`` returns it for a reduced word and names
the largest non-reduced suffix of any other; ``normalize`` peels the least
left descent off it until it is empty.  ``is_low`` and ``left_descents``
trace signed roots and build no N(w).  Every step reads the table's
reflections: no routine here keeps a matrix or keys a vector, so root
identity is decided in ``RootTable.reflect`` alone.

Low elements are found exactly by extending low elements on the left by
their least left descent (see ``_low_search``); the search stops on its
own, and the length caps of ``enumerate_low`` and ``enumerate_low_stable``
are only safety bounds.
"""

import itertools
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .automaton import build_automaton, build_shortlex_automaton
from .core import Root, check_bound
from .errors import NonReducedInput, NumericallyAmbiguous
from .smallroots import small_roots

EPS_CONE = 1e-7


@dataclass(frozen=True, slots=True)
class Element:
    """A group element as its ShortLex-minimal reduced word."""

    word: tuple

    @property
    def length(self):
        return len(self.word)

    def __repr__(self):
        return "Element(%s)" % ("".join(str(s) for s in self.word) or "e")


IDENTITY = Element(())


# -- normal forms -------------------------------------------------------

def normalize(rs, word):
    """ShortLex normal form of an arbitrary generator word: ``_shortlex``
    reads it off N(w), as ``_word_inversions`` folds it from the word.  No
    coordinate's sign is tested."""
    return _shortlex(rs, _word_inversions(rs, word)[0])


def _check_letters(rs, word):
    """Raise ValueError at the first letter of word outside range(rank)."""
    if not rs.generators.issuperset(word):
        s = next(s for s in word if s not in rs.generators)
        raise ValueError("generator %r out of range" % (s,))


def _word_inversions(rs, word):
    """(N(w), p) for the element w of any word: N(w) as a list of
    root-table ids, p the largest position with word[p:] not reduced, or
    None.  Read from the right, N(s x) = {alpha_s} u s N(x) if alpha_s is
    not in N(x), else s (N(x) - {alpha_s}) (Bjorner-Brenti, Combinatorics
    of Coxeter Groups, 4.4).  Each step reads cols[s]; only an entry the
    table has not filled yet goes through reflect, and cols[s][s] is never
    filled, so alpha_s is found there.  A letter outside range(rs.rank)
    raises ValueError."""
    _check_letters(rs, word)
    table = rs.root_table
    cols, reflect = table.cols, table.reflect
    ids, first_bad = [], None
    p = len(word)
    for s in reversed(word):
        p -= 1
        col, k, hit = cols[s], 0, None
        for i in ids:
            j = col[i]
            if j is None:
                if i == s:
                    hit = k
                else:
                    ids[k] = reflect(i, s)
            else:
                ids[k] = j
            k += 1
        if hit is None:
            ids.append(s)
        else:
            del ids[hit]
            if first_bad is None:
                first_bad = p
    return ids, first_bad


def _left_multiply(rs, s, ids):
    """N(s w) = {alpha_s} u s N(w) from N(w) = ``ids``, for alpha_s not in
    N(w); reflect raises on alpha_s, which s negates."""
    reflect = rs.root_table.reflect
    return {s} | {reflect(i, s) for i in ids}


def _shortlex(rs, ids):
    """The ShortLex normal form of the element w with N(w) = ``ids``.

    Greedy: the first letter of the ShortLex-least reduced word is the
    least left descent s, the least simple root in N(w); peel it off
    (N(s w) = s (N(w) - {alpha_s}), through cols[s]) until N(w) is empty."""
    cols, reflect = rs.root_table.cols, rs.root_table.reflect
    ids, letters = list(ids), []
    while ids:
        s = min(ids)        # alpha_s has id s, below every non-simple root
        letters.append(s)
        ids.remove(s)
        col = cols[s]
        ids = [reflect(i, s) if (j := col[i]) is None else j for i in ids]
    return Element(tuple(letters))


# -- inversion sets -----------------------------------------------------

def inversion_set(rs, w):
    """N(w) = Phi+ cap w(Phi-) for a reduced word w, as the frozenset of
    the roots' ids in rs.root_table, so alpha_s is in N(w) iff s is;
    |N(w)| = length(w).  It is the fold of ``_word_inversions``.  A word
    that is not reduced raises NonReducedInput, naming the largest p with
    word[p:] not reduced, where alpha_(word[p]) is already in
    N(word[p + 1:]); a letter outside range(rs.rank) raises ValueError."""
    word = w.word
    ids, p = _word_inversions(rs, word)
    if p is not None:
        raise NonReducedInput(
            "word %r is not reduced at position %d: alpha_%d is already "
            "in N(%r)" % (word, p, word[p], word[p + 1:]))
    return frozenset(ids)


def left_descents(rs, w):
    """{s : alpha_s in N(w)} = {s : length(s w) < length(w)}.

    N(w) is not built: for w = s_1 ... s_k, t is a left descent iff
    w^-1(alpha_t) = s_k ... s_1(alpha_t) is negative.  The trace of
    alpha_t through s_1, ..., s_(k-1) is a signed root-table id, as in
    ``is_low``, and s_k negates it exactly when it sits at
    alpha_(s_k), so the image itself is never computed.  Any word over
    range(rs.rank) will do, reduced or not: the answer is for its element
    (NonReducedInput is not raised); another letter raises ValueError."""
    word = w.word
    _check_letters(rs, word)
    if not word:
        return set()
    table = rs.root_table
    cols, reflect = table.cols, table.reflect
    prefix, last = word[:-1], word[-1]
    descents = set()
    for t in range(rs.rank):
        i, negative = t, False
        for s in prefix:
            j = cols[s][i]
            if j is None:
                if i == s:
                    negative = not negative
                    continue
                j = reflect(i, s)
            i = j
        if negative != (i == last):
            descents.add(t)
    return descents


def small_inversion_mask(rs, sigma, w, inv=None):
    """lambda(w) = Sigma cap N(w), as a bitmask over Sigma's indexing."""
    if inv is None:
        inv = inversion_set(rs, w)
    return sum(1 << sigma.bit[i] for i in inv if i in sigma.bit)


# -- cone membership ----------------------------------------------------

def _solve_subset(rs, cols, target):
    """Solve sum c_i a_i = target by Gaussian elimination.

    Returns (coeffs, residual_ok_value) or None when the subset is
    rank-deficient.  In the exact backend the solve is exact and the
    residual is exactly checked; in the float backend the pivoting uses
    EPS_CONE and the caller checks residual/coefficients."""
    n = rs.rank
    k = len(cols)
    rows = [[cols[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    if rs.exact:
        # exact coordinates may be ints, and int / int is a float
        rows = [list(map(Fraction, row)) for row in rows]
    piv_tol = 0 if rs.exact else EPS_CONE
    pivots = []
    r = 0
    for c in range(k):
        best = max(range(r, n), key=lambda i: abs(rows[i][c]), default=None)
        if best is None or abs(rows[best][c]) <= piv_tol:
            return None
        rows[r], rows[best] = rows[best], rows[r]
        pivots.append(c)
        factor = rows[r][c]
        rows[r] = [x / factor for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    coeffs = [rows[i][k] for i in range(k)]
    residual = max(abs(target[i] - sum(cols[j][i] * coeffs[j] for j in range(k)))
                   for i in range(n))
    return coeffs, residual


def cone_membership(rs, generators, gamma):
    """Is gamma a nonnegative combination of the given roots?

    By conic Caratheodory, membership holds iff gamma lies in the cone of
    some linearly independent subset of size <= rank, so all such subsets
    are solved directly (exactly in the rational backend); a repeated
    generator only adds rank-deficient subsets, which are skipped.  Float
    solves whose best residual lands in the gray zone [EPS_CONE, 10 EPS_CONE]
    raise NumericallyAmbiguous, naming gamma, instead of silently flipping."""
    vecs = [g.coords if isinstance(g, Root) else tuple(g) for g in generators]
    target = gamma.coords if isinstance(gamma, Root) else tuple(gamma)
    if not vecs:
        return False
    coeff_tol = 0 if rs.exact else EPS_CONE
    gray = None
    for k in range(1, rs.rank + 1):
        for subset in itertools.combinations(vecs, k):
            solved = _solve_subset(rs, subset, target)
            if solved is None:
                continue
            coeffs, residual = solved
            if any(c < -coeff_tol for c in coeffs):
                continue
            if rs.exact:
                if residual == 0:
                    return True
            elif residual < EPS_CONE:
                return True
            elif residual <= 10 * EPS_CONE:
                gray = residual if gray is None else min(gray, residual)
    if gray is not None:
        raise NumericallyAmbiguous(
            "cone membership of %r: residual %g in gray zone [%g, %g]"
            % (target, gray, EPS_CONE, 10 * EPS_CONE))
    return False


# -- low elements -------------------------------------------------------

def is_low(rs, sigma, w):
    """Does N(w) lie in the cone of Sigma cap N(w)?  Decided by the roots
    -w(alpha_t), t a right descent: w is low iff they are all small.  Each
    is an extreme ray of cone(N(w)), since N(w s_t) = N(w) - {-w(alpha_t)}
    is an inversion set, which holds every positive root in its cone; so a
    low w has them all small.  The tests check the converse against a cone
    solve (``cone_is_low``).  N(w) need not be the cone closure of these
    roots: on A3, N(s0 s1) = {alpha_0, s0 alpha_1} has the one s0 alpha_1.
    Each w(alpha_t) is a signed root-table id: s alpha_s = -alpha_s,
    s(-beta) = -(s beta).
    Any word over range(rs.rank) will do, reduced or not: the answer is
    for its element; another letter raises ValueError.

    Each step reads the table's column cols[s]; only an entry the table
    has not filled yet goes through reflect, and cols[s][s] is never
    filled, so the negation is found there too."""
    _check_letters(rs, w.word)
    table = rs.root_table
    cols, reflect = table.cols, table.reflect
    rev = w.word[::-1]
    for t in range(rs.rank):
        i, negative = t, False
        for s in rev:
            j = cols[s][i]
            if j is None:
                if i == s:
                    negative = not negative
                    continue
                j = reflect(i, s)
            i = j
        if negative and i not in sigma.bit:
            return False
    return True


# -- element enumeration ------------------------------------------------

class Level:
    """One level of the element walk, as integers: entry k reaches the
    ShortLex state ``states[k]``, and extends the word of entry
    ``parents[k]`` of ``prev`` by ``letters[k]``.  The walk stores only
    ``states``, with ``moves``, the walk's table of each state's defined
    letters and their targets, shared by all its levels.  ``letters`` and
    ``parents`` are read-only arrays derived from ``prev.states`` and
    ``moves`` the first time either is read, and kept after that.

    A level is read through len and iteration.  Iterating builds ``_words``
    from the previous level's, in a loop back to the last level that has
    them, reading each level's letters and parents before it drops
    ``prev``.  Only a drawn entry gets an Element.  Level 0 holds the
    identity, with no prev, letter or parent."""

    def __init__(self, prev, states, moves):
        self.prev, self.states, self.moves = prev, states, moves
        self._links = ([None], [None]) if prev is None else None
        self._words = [()] if prev is None else None

    @property
    def letters(self):
        return self._read_links()[0]

    @property
    def parents(self):
        return self._read_links()[1]

    def _read_links(self):
        # each parent's children are its defined letters, in order
        if self._links is None:
            letters_of, prev_states = self.moves[0], self.prev.states
            letters = array("H")
            for state in prev_states:
                letters += letters_of[state]
            parents = array("I", [p for p, state in enumerate(prev_states)
                                  for _ in letters_of[state]])
            self._links = letters, parents
        return self._links

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        chain, level = [], self
        while level._words is None:
            chain.append(level)
            level = level.prev
        for level in reversed(chain):
            letters, parents = level._read_links()
            words, level.prev = level.prev._words, None
            level._words = [words[p] + (s,) for s, p in zip(letters, parents)]
        return ((Element(w), p, state)
                for w, p, state in zip(self._words, self.parents, self.states))


def elements_by_length(rs, max_len=None):
    """Yield (length, Level) level by level over the ShortLex normal forms.

    Each entry is (Element, parent, state): parent is the index, in the
    previous level, of the entry whose word this one extends by one letter
    (None for the identity), and state is the ShortLex automaton state the
    word reaches.  That automaton, built from the small roots, accepts
    exactly one word per element (Brink-Howlett, "A finiteness property and
    an automatic structure for Coxeter groups", 1993); a level lists the
    accepted one-letter extensions of the previous level's words in
    ShortLex order.  So the walk is exact, compares no two elements and
    computes no matrix.  It builds each level from the previous level's
    states alone, appending each state's array of targets, and stores only
    the states: letters, parents, words and Elements are built when read
    (see Level).  A bad max_len raises ValueError on the first next()."""
    if max_len is not None:
        check_bound(max_len)
    transitions = build_shortlex_automaton(rs, small_roots(rs)).transitions
    moves = ([array("H", [s for s, t in enumerate(row) if t is not None])
              for row in transitions],
             [array("I", [t for t in row if t is not None])
              for row in transitions])
    _, targets = moves
    level = Level(None, array("I", [0]), moves)
    length = 0
    yield 0, level
    while max_len is None or length < max_len:
        states = array("I")
        for state in level.states:
            states += targets[state]
        if not states:
            return
        level = Level(level, states, moves)
        length += 1
        yield length, level


def elements_up_to_length(rs, max_len):
    """All elements of length <= max_len (see elements_by_length)."""
    return [e for _, entries in elements_by_length(rs, max_len) for e in entries]


@dataclass
class BijectionReport:
    """Low elements found at bounded length against the small inversion
    sets.  ``mapping`` sends each low element to its lambda mask and
    ``inversions`` to its N(x), both in (length, word) order; a state of
    the automaton that no low element realizes is reported unresolved,
    never as a disproof."""

    max_len: int
    n_lambda: int
    mapping: dict
    inversions: dict
    unresolved_masks: tuple

    @property
    def n_low(self):
        return len(self.mapping)

    @property
    def injective(self):
        return len(set(self.mapping.values())) == len(self.mapping)

    @property
    def complete(self):
        return not self.unresolved_masks

    @property
    def bijective(self):
        return self.injective and self.complete


def bijection_report(aut, mapping, inversions, max_len):
    """The search's ``mapping`` and ``inversions`` (see _low_search)
    against the states of ``aut``."""
    unresolved = set(aut.states) - set(mapping.values())
    return BijectionReport(max_len, len(aut.states), mapping, inversions,
                           tuple(sorted(unresolved)))


def _low_search(rs, sigma, cap):
    """The low elements of length <= cap, by left extension.

    Low elements are closed under suffixes (Dyer-Hohlweg, "Small roots, low
    elements, and the weak order in Coxeter groups", 2016), so level k + 1
    holds exactly the low y = s x, x low on level k and alpha_s not in
    N(x), with N(y) = {alpha_s} u s N(x); the search stops at the first
    level that adds nothing.  y is kept only when s is its least left
    descent (no t < s has s alpha_t in N(x)), so each y is met once, as
    its ShortLex normal form (s,) + x.word.  Returns ({Element: lambda
    mask}, {Element: N(x)}, both in (length, word) order, the last length
    examined).  A cap that is not an int >= 0 raises ValueError."""
    check_bound(cap)
    reflect = rs.root_table.reflect
    masks, invs = {IDENTITY: 0}, {IDENTITY: frozenset()}
    level = [(IDENTITY, frozenset())]
    length = 0
    while level and length < cap:
        length += 1
        new_level = []
        for s in range(rs.rank):
            for x, inv in level:
                if s in inv or any(reflect(t, s) in inv for t in range(s)):
                    continue
                y = Element((s,) + x.word)
                if is_low(rs, sigma, y):
                    invs[y] = inv_y = frozenset(_left_multiply(rs, s, inv))
                    masks[y] = small_inversion_mask(rs, sigma, y, inv=inv_y)
                    new_level.append((y, inv_y))
        level = new_level
    return masks, invs, length


def enumerate_low(rs, sigma, max_len):
    """All low elements of length <= max_len, with a BijectionReport.

    The report states whether every state of the canonical automaton (every
    small inversion set) is realized by some low element found."""
    masks, invs, _ = _low_search(rs, sigma, max_len)
    aut = build_automaton(rs, sigma)
    return list(masks), bijection_report(aut, masks, invs, max_len)


def enumerate_low_stable(rs, sigma, cap=25):
    """All low elements, by a search that stops on its own.

    ``cap`` is only a safety bound on the length.  Returns (lows, report,
    reached), where reached is the last length the search examined: one
    more than the longest low element, unless the cap was hit."""
    masks, invs, reached = _low_search(rs, sigma, cap)
    aut = build_automaton(rs, sigma)
    return list(masks), bijection_report(aut, masks, invs, reached), reached
