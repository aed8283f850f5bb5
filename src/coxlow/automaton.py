"""The canonical reduced-word automaton on small inversion sets.

States are subsets of the small roots, encoded as bitmasks over the frozen
indexing of SmallRootSet; state 0 is the empty set, every state is
accepting, and the transition on s is defined iff alpha_s is not in the
state.  Reading a word u letter by letter the state tracks
Sigma cap N(u^{-1}), so a run hits an undefined transition exactly when
the word stops being reduced.
"""

from collections import deque

from .core import check_bound


class Automaton:
    """Deterministic acceptor of reduced words (all states accepting).

    ``first_in[k]`` is the (state index, letter) of the first transition
    into state k, in (state index, letter) order; None for the start."""

    def __init__(self, sigma, states, transitions, first_in):
        self.sigma = sigma
        self.states = tuple(states)        # bitmasks; states[0] == 0
        self.transitions = tuple(tuple(row) for row in transitions)
        self.first_in = tuple(first_in)
        self.state_index = {mask: i for i, mask in enumerate(self.states)}

    def __len__(self):
        return len(self.states)

    def run(self, word):
        state = 0
        for s in word:
            state = self.transitions[state][s]
            if state is None:
                return None
        return state


def _reflection_table(rs, sigma):
    """table[b][s] = bit of s . sigma_b inside Sigma, or None; s negates
    sigma_b when it is alpha_s."""
    reflect = rs.root_table.reflect
    return [tuple(None if i == s else sigma.bit.get(reflect(i, s))
                  for s in range(rs.rank))
            for i in sigma.ids]


def _close(rs, delta):
    """Number the states reachable from the empty set breadth first, trying
    letters in increasing order; returns (states, transitions, first_in)
    for Automaton.  The transition that numbers a state is its first
    in-transition, in (state index, letter) order."""
    start = 0
    states = [start]
    index = {start: 0}
    transitions = []
    first_in = [None]
    queue = deque([start])
    while queue:
        mask = queue.popleft()
        row = []
        for s in range(rs.rank):
            new = delta(mask, s)
            if new is None:
                row.append(None)
            else:
                if new not in index:
                    index[new] = len(states)
                    states.append(new)
                    queue.append(new)
                    first_in.append((len(transitions), s))
                row.append(index[new])
        transitions.append(row)
    return states, transitions, first_in


def _reduced_word_delta(rs, sigma):
    """The transition of build_automaton; None when alpha_s is in A."""
    table = _reflection_table(rs, sigma)
    simple_bit = [1 << sigma.bit[s] for s in range(rs.rank)]  # alpha_s: id s

    def delta(mask, s):
        if mask & simple_bit[s]:
            return None
        new = simple_bit[s]
        m = mask
        i = 0
        while m:
            if m & 1:
                j = table[i][s]
                if j is not None:
                    new |= 1 << j
            m >>= 1
            i += 1
        return new

    return delta


def build_automaton(rs, sigma):
    """Build the automaton with delta(A, s) = {alpha_s} u (s A cap Sigma)."""
    return Automaton(sigma, *_close(rs, _reduced_word_delta(rs, sigma)))


def build_shortlex_automaton(rs, sigma):
    """Acceptor of ShortLex normal forms.

    Same transition as the reduced-word automaton, plus poison bits: after
    reading s, the roots s . alpha_j for j < s are marked as if they were
    inversions, which rejects any continuation that a lexicographically
    smaller reduced word could also reach."""
    reduced = _reduced_word_delta(rs, sigma)
    reflect = rs.root_table.reflect
    poison = [0] * rs.rank
    for s in range(rs.rank):
        for j in range(s):
            t = sigma.bit.get(reflect(j, s))
            if t is not None:
                poison[s] |= 1 << t

    def delta(mask, s):
        new = reduced(mask, s)
        return None if new is None else new | poison[s]

    return Automaton(sigma, *_close(rs, delta))


def is_reduced(aut, word):
    """True iff the run never hits an undefined transition."""
    return aut.run(word) is not None


def growth_series(aut, k):
    """Number of accepted words of each length 0..k (exact big integers):
    the reduced words for build_automaton, the elements for
    build_shortlex_automaton.  Counts are non-negative, so the first zero
    term leaves every count zero: the steps stop there and the rest of the
    series is padded with zeros (a finite group's series ends early)."""
    check_bound(k)
    counts = [0] * len(aut.states)
    counts[0] = 1
    series = [1]
    for _ in range(k):
        new = [0] * len(aut.states)
        for i, row in enumerate(aut.transitions):
            c = counts[i]
            if c:
                for t in row:
                    if t is not None:
                        new[t] += c
        counts = new
        series.append(sum(counts))
        if not series[-1]:
            break
    return series + [0] * (k + 1 - len(series))


def count_elements(rs, sigma, k):
    """Number of distinct group elements of each length 0..k.

    Counts paths in the ShortLex acceptor, under the bijection between
    elements and their normal forms; the tests cross-check the counts
    against a matrix BFS that knows no automaton (``matrix_bfs_levels`` in
    tests/conftest.py)."""
    return growth_series(build_shortlex_automaton(rs, sigma), k)


def export_dot(aut):
    """DOT text for the automaton; byte-stable across runs."""
    lines = ["digraph reduced_words {", "  rankdir=LR;",
             '  start [shape=point, label=""];']
    for i, mask in enumerate(aut.states):
        idxs = [j for j in range(len(aut.sigma)) if mask >> j & 1]
        label = "%d: {%s}" % (mask, ",".join(str(j) for j in idxs))
        lines.append('  n%d [shape=circle, label="%s"];' % (i, label))
    lines.append("  start -> n0;")
    for i, row in enumerate(aut.transitions):
        for s, t in enumerate(row):
            if t is not None:
                lines.append('  n%d -> n%d [label="s%d"];' % (i, t, s))
    lines.append("}")
    return "\n".join(lines) + "\n"
