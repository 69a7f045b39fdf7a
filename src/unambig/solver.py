"""Exhaustive search for alternative preimages of a word under a pattern.

A morphism sigma is ambiguous with respect to a pattern alpha iff some
morphism tau agrees with sigma on alpha's image but not on alpha's variables;
deciding that is a bounded search over all factorizations of the image word.
A pattern is a fixed point of a nontrivial morphism iff the same question
has an answer for the pattern read as a word over its own variables, with
sigma the identity.  Every search of either kind takes its first
alternative from the walk in one loop, :func:`_first_alternative`.

The search is deterministic: variables are assigned in order of first
occurrence, candidate image lengths ascend from 0 (or 1 when erasing images
are disallowed), and pruning never changes the order in which solutions
appear.  One node is one candidate image counted for an unassigned variable.
The last variable opens no choice point: at most one of its lengths can end
on the word's end, so all its candidates are counted in one step and only
that length is tried.  The variable before it, the deepest choice, opens
none either: its candidates run in one loop, each followed by the last
variable's step, and count the same nodes.  A pattern of one variable has
no such loop and takes that step once, before the walk.  The search walks
the pattern with an explicit stack of choice points, one per assigned
variable but the last two, so its depth is bounded by memory, not by the
interpreter's recursion limit.

Where the pattern splits as alpha = beta gamma with no variable in both
halves, the search below the first variable of gamma depends only on the
word position where gamma starts.  Each search remembers, for the length of
one call, how many nodes such a subtree counted when it held no solution, and
counts them again in one step when the subtree opens at the same position.
``nodes_explored`` therefore counts candidates in the search tree, those of
remembered subtrees included; on such decomposable patterns it no longer
tracks time.

A search that needs only a verdict, under a budget that covers its whole
tree, on a word of three or more letters, also stops each choice point at
the longest image that occurs again later in the word (occurrence
lookahead).  Each word position is probed once per walk, for as long an
image as any choice point opening there may take.  The walk yields the same
assignments from fewer nodes, so no search that reports a node count or a
witness uses it.

A fixed-point search walks the canonical key spelt one code point per
symbol.  A verdict without a witness is a pure function of the key and the
budget, so it is cached, bounded, for the life of the process
(:func:`_key_verdict`); a key and its mirror share the entry of the lesser.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf
from typing import Iterator

from .errors import DomainError
from .morphisms import Morphism, Substitution
from .words import Pattern, canonical_symbols, first_occurrence_order, validate_word

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class Witness:
    """An alternative morphism mapping the pattern onto the word."""

    tau: Morphism
    differing_variable: int | None
    nodes_explored: int


@dataclass(frozen=True)
class NoWitness:
    """The search space was exhausted without finding an alternative."""

    nodes_explored: int


@dataclass(frozen=True)
class BudgetExhausted:
    """The node budget ran out before the search reached a verdict."""

    nodes_explored: int


@dataclass(frozen=True)
class FixedPoint:
    """A nontrivial substitution phi with phi(pattern) = pattern."""

    phi: Substitution
    differing_variable: int
    nodes_explored: int


@dataclass(frozen=True)
class NotFixedPoint:
    nodes_explored: int


class _BudgetHit(Exception):
    pass


def _validate_budget(budget: int) -> None:
    # type(), not isinstance(): True is an int to isinstance
    if type(budget) is not int or budget < 1:
        raise DomainError(f"budget must be a positive node count, got {budget!r}")


def _iter_assignments(
    symbols: tuple[int, ...],
    word: str,
    min_len: int,
    counter: list[int],
    budget: float,
    lookahead: bool = False,
) -> Iterator[dict]:
    """Yield every variable assignment whose pointwise image equals ``word``.

    Images are slices of it.  Candidates are pruned by remaining-length
    feasibility: the unassigned occurrences in the suffix must be able to
    stretch (or shrink) to exactly the remaining word.
    One node is one candidate image counted.  The last slot opens no choice
    point: its candidates are counted in one step, and only the length that
    ends on the word's end, when whole, is tried.  A walk of one slot takes
    that step in the set-up and returns.  Otherwise the penultimate slot
    opens no choice point either: its candidates run in one loop, the only
    place where the last slot's step is taken.  Each counts its node and
    checks the symbols between the penultimate slot's first occurrence and
    the last slot's (the stretch); one that passes takes the last slot's
    step, and only a whole length checks the symbols after the last slot's
    first occurrence (the tail).  The nodes, the yields and their order are
    those of a choice point per slot.  ``counter[0]`` holds the node count
    whenever an assignment is yielded and when the search ends; counting a
    node beyond ``budget`` raises _BudgetHit with ``counter[0] == budget``.

    A cut slot's first occurrence follows every occurrence of every earlier
    slot, so the subtree of its choice point reads no earlier image and is
    a function of the word position alone.  A cut choice point exhausted
    with no yield since it opened leaves its node count in ``memo``; a later
    opening at the same position counts those nodes at once and is
    exhausted.  The penultimate slot's loop does the same.  The last slot's
    count is a function of the position too, found in one step, so it keeps
    no memo entry.

    With ``lookahead``, the candidates of a slot that occurs again, other
    than the last slot, stop at the longest image that occurs in ``word``
    again after its own end: a shorter image occurs wherever a longer one
    does, and any image must occur again to match the slot's next
    occurrence.  Whether an image occurs again depends on its word
    position and length alone, so the walk finds each position's count
    once, up to the longest image that position has been asked for so far,
    and resumes it only when a later opening there allows longer images.
    The yields and their order stay the same, but fewer nodes are counted,
    so only :func:`_ambiguity_verdict`, which needs no node count and sets
    it only under a budget that covers the whole tree, asks for it.
    """
    n = len(symbols)
    total = len(word)
    order: list[int] = []
    index: dict[int, int] = {}
    for s in symbols:
        if s not in index:
            index[s] = len(order)
            order.append(s)
    idx = [index[s] for s in symbols]
    if not order:
        # the empty pattern maps onto the empty word alone
        counter[0] = 0
        if not total:
            yield {}
        return
    if min_len * n > total:
        counter[0] = 0
        return
    last = len(order) - 1
    if not last:
        # a single slot is the last slot, with no penultimate slot's loop
        # to take its step: of its lengths min_len..k, only total / n, when
        # whole, maps onto the word; all are counted here in one step and
        # that one alone is tried.  The exit above keeps k >= min_len.
        k = total // n
        nodes = k - min_len + 1
        if nodes > budget:
            counter[0] = budget
            raise _BudgetHit
        counter[0] = nodes
        if k * n == total and word[:k] * n == word:
            yield {order[0]: word[:k]}
        return
    counts = [0] * len(order)
    for s in idx:
        counts[s] += 1
    # pending: occurrences left of the slots seen so far
    cut = [False] * len(order)
    seen = pending = 0
    for s in idx:
        if s == seen:
            cut[s] = not pending
            pending += counts[s]
            seen += 1
        pending -= 1
    # the last slot opens no choice point, so its cut flag is never read and
    # it keeps no memo entry; it occurs lo times.  The penultimate slot pen
    # runs its candidates in one loop, each followed by the last slot's step;
    # its stretch and tail are found when it first opens, so a walk that ends
    # before that pays nothing for them.
    pen = last - 1
    lo = counts[last]
    span = total + lo * min_len
    stretch = tail = None
    # Variable slots are assigned in order, each at its first occurrence, so
    # every symbol before position p is assigned.  images[-1] belongs to a
    # sentinel choice point that has no candidates.
    images: list = [None] * (len(order) + 1)
    # The innermost choice point is held in locals: it opened at position cp
    # in symbols and cq in word for slot x, which occurs occ times; base is
    # the least length of the word with x's occurrences left out, so image
    # length ln for x gives reach base + occ * ln; ln is the length tried and
    # hi the largest one with reach <= total.  Outer choice points wait on
    # the stack as tuples.
    stack: list[tuple] = []
    cp = cq = base = occ = ln = hi = 0
    x = -1
    nodes = 0
    # memo: (cut slot, word position) -> nodes of its solution-free subtree;
    # opened[s]: the node count when slot s's choice point opened; yielded:
    # the node count at the last yield
    memo: dict[tuple[int, int], int] = {}
    # again[q]: the longest image at word position q known to occur again
    # after its own end, as counted so far; ~count once a failed find has
    # ended the count, so it is final.  The empty image always occurs again.
    again = [0] * (total + 1) if lookahead else None
    opened = [0] * len(order)
    yielded = -1
    # p, q: positions in symbols and word; reach: the least length of the
    # word under the current assignment.  hi keeps reach <= total, so the walk
    # needs no length check.
    p, q, reach = 0, 0, min_len * n
    while True:
        # walk forward over assigned variables to a mismatch or the next
        # unassigned variable, which opens a choice point unless it is the
        # penultimate; the last is assigned only in the penultimate's loop
        while True:
            s = idx[p]
            img = images[s]
            if img is None:
                if cut[s]:
                    known = memo.get((s, q))
                    if known is not None:
                        if nodes + known > budget:
                            counter[0] = budget
                            raise _BudgetHit
                        nodes += known
                        break
                    opened[s] = nodes
                # slot s occurs o times; b is the least length of the word
                # with them left out, and h its longest image
                o = counts[s]
                b = reach - o * min_len
                h = (total - b) // o
                if lookahead and o > 1:
                    top = again[q]
                    if top < 0:
                        # a failed find ended the count at q
                        top = ~top
                    elif top < h:
                        while top < h and word.find(word[q : q + top + 1], q + top + 1) >= 0:
                            top += 1
                        again[q] = top if top == h else ~top
                    if top < h:
                        h = top
                if s != pen:
                    stack.append((cp, cq, base, x, ln, hi, occ))
                    cp, cq, base, x, ln, hi, occ = p, q, b, s, min_len - 1, h, o
                    break
                # The penultimate slot opens no choice point: each candidate
                # counts its node and checks the stretch, and one that passes
                # counts the last slot's candidates in one step, adding both
                # at once: of the last slot's lengths min_len..k, only
                # rem / lo, when whole, gives reach == total, and only then
                # is that length tried and the tail checked.
                if stretch is None:
                    at = idx.index(last, p)
                    stretch = idx[p + 1 : at]
                    tail = idx[at + 1 :]
                for m in range(min_len, h + 1):
                    images[s] = word[q : q + m]
                    r = q + m
                    for t in stretch:
                        img = images[t]
                        k = len(img)
                        if word[r : r + k] != img:
                            break
                        r += k
                    else:
                        rem = span - b - o * m
                        k = rem // lo
                        nodes += k - min_len + 2
                        if nodes > budget:
                            counter[0] = budget
                            raise _BudgetHit
                        if k * lo == rem:
                            images[last] = word[r : r + k]
                            r += k
                            for t in tail:
                                img = images[t]
                                k = len(img)
                                if word[r : r + k] != img:
                                    break
                                r += k
                            else:
                                counter[0] = yielded = nodes
                                yield dict(zip(order, images))
                            images[last] = None
                        continue
                    if nodes >= budget:
                        counter[0] = nodes
                        raise _BudgetHit
                    nodes += 1
                images[s] = None
                if cut[s] and opened[s] > yielded:
                    memo[s, q] = nodes - opened[s]
                break
            k = len(img)
            if word[q : q + k] != img:
                break
            p += 1
            q += k
        # advance the innermost choice point that has a candidate left
        while ln >= hi:
            images[x] = None
            if not stack:
                counter[0] = nodes
                return
            if cut[x] and opened[x] > yielded:
                memo[x, cq] = nodes - opened[x]
            cp, cq, base, x, ln, hi, occ = stack.pop()
        if nodes >= budget:
            counter[0] = nodes
            raise _BudgetHit
        nodes += 1
        ln += 1
        images[x] = word[cq : cq + ln]
        p = cp + 1
        q = cq + ln
        reach = base + occ * ln


def find_alternative(
    pattern: Pattern,
    word: str,
    excluded: Morphism | None = None,
    *,
    allow_erasing: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> Witness | NoWitness | BudgetExhausted:
    """Search for a morphism tau with tau(pattern) = word, differing from
    ``excluded`` on at least one of the pattern's variables.

    With no excluded morphism, any preimage counts and the witness carries no
    differing variable.  Otherwise the witness is the first alternative of
    the walk, and its differing variable the least one it maps differently;
    no other search names one.  Identical queries return identical results,
    witness and node count included.
    """
    if not pattern:
        raise DomainError("the pattern must be non-empty")
    validate_word(word)
    _validate_budget(budget)
    images = None
    if excluded is not None:
        missing = pattern.variables - excluded.domain
        if missing:
            raise DomainError(f"excluded morphism does not cover variables {sorted(missing)}")
        if excluded.apply(pattern) != word:
            raise DomainError("excluded morphism does not map the pattern onto the word")
        images = {v: excluded[v] for v in pattern.variables}
    counter = [0]
    min_len = 0 if allow_erasing else 1
    try:
        found = _first_alternative(
            _iter_assignments(pattern.symbols, word, min_len, counter, budget), images
        )
    except _BudgetHit:
        return BudgetExhausted(nodes_explored=counter[0])
    if found is None:
        return NoWitness(nodes_explored=counter[0])
    differing = None if images is None else min(v for v in found if found[v] != images[v])
    return Witness(tau=Morphism.of(found), differing_variable=differing, nodes_explored=counter[0])


def _first_alternative(assignments: Iterator[dict], images: dict | None) -> dict | None:
    """The first assignment of the walk unequal to ``images``, a dict over
    exactly the walk's variables, or None when the walk ends; with
    ``images`` None the first assignment counts.  A _BudgetHit from the walk
    passes through."""
    for assignment in assignments:
        if assignment != images:
            return assignment
    return None


def _ambiguity_verdict(symbols: tuple[int, ...], word: str, images: dict, budget: int) -> bool | None:
    """Whether some assignment other than ``images``, a dict over exactly
    the symbols' variables, maps the symbols onto ``word``, or None when
    the budget runs out first: the verdict of :func:`find_alternative` with
    ``images`` excluded and erasing allowed, for a word that ``images``
    produces, with no witness built.  On a canonical key and its
    :func:`_spelt` word and images, it is the key's fixed-point verdict.

    The walk takes the lookahead exactly when two things hold.  The budget
    covers the whole search tree of the symbols on a word as long as they
    are, as every word asked for is (a spelt key or a 1-uniform image), so
    the walk cannot run out and the verdict is the same.  And the word has
    three or more letters: on one or two, nearly every image occurs again,
    and the test at each choice point costs more than the nodes it saves.
    Otherwise the plain walk runs, and runs out where the counted searches
    do."""
    lookahead = _covers_search_tree(len(symbols), budget) and len(set(word)) > 2
    try:
        walk = _iter_assignments(symbols, word, 0, [0], budget, lookahead)
        return _first_alternative(walk, images) is not None
    except _BudgetHit:
        return None


def is_ambiguous(
    sigma: Morphism,
    pattern: Pattern,
    *,
    allow_erasing: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> Witness | NoWitness | BudgetExhausted:
    """Decide ambiguity of sigma with respect to the pattern.

    A Witness result means ambiguous; NoWitness means unambiguous (weakly so
    when erasing alternatives are disallowed).
    """
    missing = pattern.variables - sigma.domain
    if missing:
        raise DomainError(f"morphism does not cover variables {sorted(missing)}")
    return find_alternative(
        pattern, sigma.apply(pattern), excluded=sigma, allow_erasing=allow_erasing, budget=budget
    )


def enumerate_preimages(
    pattern: Pattern, word: str, limit: int | None = None, *, allow_erasing: bool = True
) -> list[Morphism]:
    """All morphisms mapping the pattern onto the word, in search order."""
    if not pattern:
        raise DomainError("the pattern must be non-empty")
    validate_word(word)
    if limit is not None and limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit!r}")
    min_len = 0 if allow_erasing else 1
    out: list[Morphism] = []
    for assignment in _iter_assignments(pattern.symbols, word, min_len, [0], inf):
        out.append(Morphism.of(assignment))
        if limit is not None and len(out) >= limit:
            break
    return out


# A node of the search of a pattern of length n on a word of length n (the
# pattern itself, or its image under a 1-uniform morphism) is a tuple of
# image lengths for the first k variables in first-occurrence order, k >= 1,
# and the lengths sum to at most n: with v <= n variables that is at most
# C(n + v + 1, v) - 1 <= C(2n + 1, n) - 1 nodes.  Longer patterns than the
# table covers would need a budget above 10**18.
_SEARCH_TREE_BOUND = tuple(comb(2 * n + 1, n) - 1 for n in range(32))


def _covers_search_tree(n: int, budget: int) -> bool:
    """Whether the budget covers the whole search tree of a pattern of
    length n on a word of length n.  Within such a budget the search cannot
    run out, so an exact shortcut or the lookahead walk gives what the
    search would."""
    return n < len(_SEARCH_TREE_BOUND) and _SEARCH_TREE_BOUND[n] <= budget


def _has_singleton(symbols: tuple[int, ...]) -> bool:
    """Whether some variable occurs exactly once in symbols of length >= 2,
    which makes them a fixed point: phi(x) = the pattern for that x, phi(y)
    empty for every other y.  Naming does not matter, so the symbols need not
    be canonical."""
    n = len(symbols)
    if n < 2:
        return False
    # more than n / 2 variables cannot all occur twice, so only fewer need
    # counting
    distinct = set(symbols)
    return 2 * len(distinct) > n or 1 in map(symbols.count, distinct)


def _spelt(key: tuple[int, ...]) -> tuple[str, dict[int, str]]:
    """A canonical key spelt one code point per symbol, and the identity
    images on that word; a symbol above 0x10FFFF raises DomainError."""
    try:
        word = "".join(map(chr, key))
    except ValueError:
        raise DomainError(f"a key with more than {0x10FFFF} variables cannot be spelt") from None
    return word, dict(zip(key, word))


def _fp_result(pattern: Pattern, assignment: dict, nodes: int) -> FixedPoint:
    orig = first_occurrence_order(pattern)
    mapping = {
        orig[var - 1]: Pattern(tuple(orig[ord(c) - 1] for c in image))
        for var, image in assignment.items()
    }
    differing = min(var for var, image in mapping.items() if image.symbols != (var,))
    return FixedPoint(
        phi=Substitution.of(mapping), differing_variable=differing, nodes_explored=nodes
    )


def is_fixed_point(
    pattern: Pattern, *, budget: int = DEFAULT_BUDGET
) -> FixedPoint | NotFixedPoint | BudgetExhausted:
    """Decide whether the pattern is the fixed point of a nontrivial morphism.

    This is the preimage search of the canonical key on itself, spelt by
    :func:`_spelt`, with the identity excluded: the first alternative found
    is the witness substitution, renamed back to the pattern's variables.
    The key is always searched: the cache of :func:`_key_verdict` holds
    verdicts without witnesses or node counts, and this function neither
    reads nor writes it.
    """
    key = canonical_symbols(pattern.symbols)
    if not key:
        raise DomainError("the pattern must be non-empty")
    _validate_budget(budget)
    word, identity = _spelt(key)
    counter = [0]
    try:
        found = _first_alternative(_iter_assignments(key, word, 0, counter, budget), identity)
    except _BudgetHit:
        return BudgetExhausted(nodes_explored=counter[0])
    if found is None:
        return NotFixedPoint(nodes_explored=counter[0])
    return _fp_result(pattern, found, counter[0])


def fixed_point_verdict(pattern: Pattern, *, budget: int = DEFAULT_BUDGET) -> bool | None:
    """Whether the pattern is the fixed point of a nontrivial morphism, or
    None when the budget runs out first.

    The same decision as :func:`is_fixed_point`, but no witness substitution
    is built.  When the budget covers the whole search tree, a variable
    occurring once answers first, before the pattern is canonicalised.
    Otherwise the answer is :func:`_key_verdict` of the canonical key.
    """
    symbols = pattern.symbols
    if not symbols:
        raise DomainError("the pattern must be non-empty")
    _validate_budget(budget)
    if _covers_search_tree(len(symbols), budget) and _has_singleton(symbols):
        return True
    return _key_verdict(canonical_symbols(symbols), budget)


def _canonical_verdict(key: tuple[int, ...], budget: int) -> bool | None:
    """:func:`fixed_point_verdict` of a non-empty canonical key, for a valid
    budget, with no check and no canonicalisation."""
    if _covers_search_tree(len(key), budget) and _has_singleton(key):
        return True
    return _key_verdict(key, budget)


# Scans ask about the same short keys (deleted-variable images in particular)
# over and over, so the verdicts are cached per canonical key and budget for
# the life of the process.  A variable occurring once answers before the
# cache, which would otherwise fill with keys that cost less to answer than
# to look up.
@lru_cache(maxsize=1 << 20)
def _key_verdict(key: tuple[int, ...], budget: int) -> bool | None:
    """:func:`fixed_point_verdict` of a non-empty canonical key, for a valid
    budget; every caller answers a variable occurring once itself, under a
    budget that covers the search tree.

    Under a covering budget the key answers through the lesser of itself
    and its mirror, since phi fixes alpha iff the mirrored phi fixes alpha
    reversed.  The key is decided by :func:`_ambiguity_verdict` on its
    :func:`_spelt` word: the lookahead walk under a covering budget, where
    it cannot run out, unless the key has one or two variables; otherwise
    the plain walk, which runs out exactly where :func:`is_fixed_point` does.
    """
    if _covers_search_tree(len(key), budget):
        mirrored = canonical_symbols(key[::-1])
        if mirrored < key:
            return _key_verdict(mirrored, budget)
    return _ambiguity_verdict(key, *_spelt(key), budget)
