"""Deterministic exact search for 0-1 programs with parity constraints.

Depth-first branch and bound over variables in ascending index order,
value 0 before 1, so the first solution found is the lexicographically
smallest assignment and enumeration streams solutions in lexicographic
order. Parity rows are propagated natively in GF(2), first in first out,
and an exact cardinality bounds the search by counting ones. The search
state is three bitmasks (free variables, ones, odd rows), and one loop
runs over a stack of pending choices (variable, value, state before):
it pops a choice, counts one decision node and propagates it. A state
that is not a solution pushes 1 for its lowest free variable, then 0
unless the count forces a 1, so 0 is tried first. Pins are propagated
before the loop and are not decision nodes.

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

DEFAULT_NODE_LIMIT = 10**8


class NodeLimitExceeded(RuntimeError):
    """Search stopped at the decision-node limit before reaching an answer."""


class ZeroOneProgram:
    """Feasibility program over binary variables x_0 .. x_{num_vars-1}.

    parity_rows: index groups each required to hold an even number of ones
        (default: none).
    fixed: (var, value) pins applied before branching (default: none).
    cardinality: exact number of ones required among all variables, or
        None for no count constraint.

    The loop that validates the rows also builds the row incidence the
    search reads, so fixed and cardinality may change between searches,
    but the rows may not.
    """

    __slots__ = ("num_vars", "parity_rows", "fixed", "cardinality",
                 "_rows_of", "_row_vars", "_var_rows", "_maxr", "_pairable")

    def __init__(
        self,
        num_vars: int,
        parity_rows: list[list[int]] | None = None,
        fixed: list[tuple[int, int]] | None = None,
        cardinality: int | None = None,
    ) -> None:
        self.num_vars = num_vars
        self.parity_rows = [] if parity_rows is None else parity_rows
        self.fixed = [] if fixed is None else fixed
        self.cardinality = cardinality
        if self.num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        self._rows_of: list[list[int]] = [[] for _ in range(num_vars)]
        for r, row in enumerate(self.parity_rows):
            if not row:
                raise ValueError("parity rows must be non-empty")
            if len(set(row)) != len(row):
                raise ValueError("parity row has duplicate indices")
            for v in row:
                if not 0 <= v < self.num_vars:
                    raise ValueError(f"parity row index {v} out of range")
                self._rows_of[v].append(r)
        self._row_vars = [sum(1 << v for v in row) for row in self.parity_rows]
        self._var_rows = [sum(1 << r for r in rs) for rs in self._rows_of]
        self._maxr = max(map(len, self._rows_of), default=0)
        self._pairable = all(len(rs) % 2 == 0 for rs in self._rows_of)
        for v, x in self.fixed:
            if not 0 <= v < self.num_vars:
                raise ValueError(f"pinned variable {v} out of range")
            if x not in (0, 1):
                raise ValueError(f"pinned value must be 0 or 1, got {x}")
        if self.cardinality is not None and self.cardinality < 0:
            raise ValueError("cardinality must be nonnegative")


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


def iter_solutions(p: ZeroOneProgram, node_limit: int = DEFAULT_NODE_LIMIT) -> Iterator[int]:
    """Stream every solution of p as a bitmask, in lexicographic order."""
    rows_of, row_vars, var_rows = p._rows_of, p._row_vars, p._var_rows
    maxr, pairable = p._maxr, p._pairable
    n, target, pins = p.num_vars, p.cardinality, list(p.fixed)

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
            if target is not None and (
                ones > target or ones + nfree < target or odd.bit_count() > maxr * (target - ones)
            ):
                return None
        if pairable and odd and (val or var_rows[var] & odd):
            budget = maxr * (nfree if target is None else target - ones)
            if _unpaired(odd, free, budget, row_vars, var_rows):
                return None
        return free, ones_mask, odd

    def solutions() -> Iterator[int]:
        if target is not None and target > n:
            return
        state = ((1 << n) - 1, 0, 0)
        for v, x in pins:
            state = state and assign(v, x, *state)  # None after a conflict: nothing to search
        nodes = 0
        stack: list[tuple[int, int, tuple[int, int, int]]] = []  # (var, value, state before)
        while True:
            if state is not None:
                free, ones_mask, odd = state
                ones = ones_mask.bit_count()
                # exact-count shortcut: remaining variables are all zero
                if not free or (ones == target and not odd):
                    yield ones_mask
                else:
                    # ones == target never gets here: it yields above or fails the counts
                    var = (free & -free).bit_length() - 1
                    stack.append((var, 1, state))
                    if target is None or ones + free.bit_count() > target:  # 1 is not forced
                        stack.append((var, 0, state))
            if not stack:
                return
            var, val, parent = stack.pop()
            nodes += 1
            if nodes > node_limit:
                raise NodeLimitExceeded(f"node limit {node_limit} exceeded; search is incomplete")
            state = assign(var, val, *parent)

    return solutions()

