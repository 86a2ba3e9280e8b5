"""Deterministic exact search for 0-1 programs with parity constraints.

Depth-first branch and bound over variables in ascending index order,
value 0 before 1, so the first solution found is the lexicographically
smallest assignment and enumeration streams solutions in lexicographic
order. Parity rows are propagated natively in GF(2), first in first out,
and the exact cardinality bounds the search by counting ones. The search
state is three bitmasks (free variables, ones, odd rows), and one loop
runs over a stack of pending choices (variable, value, state before):
it pops a choice, counts one decision node and propagates it. A state
that is not a solution pushes 1 for its lowest free variable, then 0
unless the count forces a 1, so 0 is tried first. Each search pins one
variable to 1 and fixes the number of ones; the pin is propagated before
the loop and is not a decision node.

Pairing bound. It applies when every variable lies in an even number of
rows: on B_1, where each edge has two endpoint rows, and on B_k for every
odd k. For each odd row a, let d(a) be the fewest free variables on a
chain from a to another odd row; two rows are linked when one free
variable lies in both. The search prunes when some odd row reaches no
other odd row, or when maxr * (ones still to place) < sum_a d(a), where
maxr is the most rows any variable lies in. Why it is sound: every
variable has an even row count, so each connected part of a completion's
new ones holds an even number of odd rows. A spanning tree of that part's
row-variable incidence graph has at most maxr edges per variable. An
Euler tour around the tree walks each edge twice and visits every odd
row, and from each odd row a to the next it passes at least d(a)
variables, so sum_a d(a) <= maxr * (the part's new ones). On B_1 this is
the T-join bound, half the sum of the distances (Edmonds and Johnson,
"Matching, Euler tours and the Chinese postman", Math. Programming 1973).
It is checked after a decision sets a one, or a zero on a variable in an
odd row. It cuts only subtrees without solutions, so the solution stream
is unchanged.
"""

from __future__ import annotations

from typing import Iterator

from .gf2 import Gf2Matrix, bit_indices

DEFAULT_NODE_LIMIT = 10**8


class NodeLimitExceeded(RuntimeError):
    """Search stopped at the decision-node limit before reaching an answer."""


class ZeroOneProgram:
    """Parity rows over binary variables x_0 .. x_{num_vars-1}.

    parity_rows: bitmasks, bit v for variable v, each required to hold an
    even number of ones: the rows of a boundary matrix B_k as
    Gf2Matrix.bits holds them (a zero row always holds). The row incidence
    the search reads, the rows' transpose, is built here once; no search
    changes the program, so one program serves every pin and length.
    """

    __slots__ = ("num_vars", "parity_rows", "_rows_of", "_var_rows", "_maxr", "_pairable")

    def __init__(self, num_vars: int, parity_rows: list[int]) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        for r, row in enumerate(parity_rows):
            if row >> num_vars:
                raise ValueError(f"parity row {r} has a variable out of range")
        self.num_vars = num_vars
        self.parity_rows = parity_rows
        self._var_rows = Gf2Matrix(num_vars, parity_rows).column_vectors()
        self._rows_of = list(map(bit_indices, self._var_rows))
        self._maxr = max(map(len, self._rows_of), default=0)
        self._pairable = all(len(rs) % 2 == 0 for rs in self._rows_of)


def _unpaired(odd: int, free: int, budget: int, row_vars: list[int], var_rows: list[int]) -> bool:
    """True when some odd row reaches no other odd row over free variables,
    or when the distances d(a) sum to more than budget. Each breadth-first
    search stops as soon as the sum must exceed it."""
    left = odd.bit_count()
    total = 0
    todo = odd
    if left == 2:  # d(a) = d(b): search from a alone and count it twice
        budget //= 2
        left = 1
        todo &= -todo
    while todo:
        a = todo & -todo
        todo ^= a
        left -= 1
        seen = frontier = a
        unused = free
        dist = 0
        while True:
            dist += 1
            if total + dist + left > budget:
                return True
            # frontier: rows first reached over dist - 1 variables; reach:
            # the unused free variables in them
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= row_vars[low.bit_length() - 1]
            reach &= unused
            unused ^= reach
            frontier = 0
            while reach:
                low = reach & -reach
                reach ^= low
                frontier |= var_rows[low.bit_length() - 1]
            frontier &= ~seen
            if frontier & odd:
                break
            if not frontier:
                return True
            seen |= frontier
        total += dist
    return False


def iter_solutions(
    p: ZeroOneProgram, pin: int, cardinality: int, node_limit: int = DEFAULT_NODE_LIMIT
) -> Iterator[int]:
    """Stream, as bitmasks in lexicographic order, every solution of p
    with x_pin = 1 and exactly cardinality ones."""
    if not 0 <= pin < p.num_vars:
        raise ValueError(f"pinned variable {pin} out of range")
    if cardinality < 0:
        raise ValueError("cardinality must be nonnegative")
    rows_of, row_vars, var_rows = p._rows_of, p.parity_rows, p._var_rows
    maxr, pairable, target = p._maxr, p._pairable, cardinality

    def assign(var: int, val: int, free: int, ones_mask: int, odd: int):
        """The state after var = val and all propagation, or None on conflict."""
        ones = ones_mask.bit_count()
        nfree = free.bit_count()
        queue = [(var, val)]
        for v, x in queue:  # first in first out: the loop reaches what the row pass appends
            bit = 1 << v
            if not free & bit:
                if bool(ones_mask & bit) != x:
                    return None
                continue
            free ^= bit
            nfree -= 1
            if x:
                ones_mask |= bit
                ones += 1
                odd ^= var_rows[v]
            for r in rows_of[v]:
                rest = row_vars[r] & free
                if not rest:
                    if odd >> r & 1:
                        return None
                elif not rest & (rest - 1):
                    queue.append((rest.bit_length() - 1, odd >> r & 1))
            # each new one can clear at most maxr odd rows
            if ones > target or ones + nfree < target or odd.bit_count() > maxr * (target - ones):
                return None
        if pairable and odd and (val or var_rows[var] & odd):
            if _unpaired(odd, free, maxr * (target - ones), row_vars, var_rows):
                return None
        return free, ones_mask, odd

    def solutions() -> Iterator[int]:
        state = assign(pin, 1, (1 << p.num_vars) - 1, 0, 0)
        nodes = 0
        stack: list[tuple[int, int, tuple[int, int, int]]] = []  # (var, value, state before)
        while True:
            if state is not None:
                free, ones_mask, odd = state
                ones = ones_mask.bit_count()
                # exact-count shortcut: remaining variables are all zero. The
                # counts leave no state with no free variable and ones < target
                if ones == target and not odd:
                    yield ones_mask
                else:
                    var = (free & -free).bit_length() - 1
                    stack.append((var, 1, state))
                    if ones + free.bit_count() > target:  # 1 is not forced
                        stack.append((var, 0, state))
            if not stack:
                return
            var, val, parent = stack.pop()
            nodes += 1
            if nodes > node_limit:
                raise NodeLimitExceeded(f"node limit {node_limit} exceeded; search is incomplete")
            state = assign(var, val, *parent)

    return solutions()
