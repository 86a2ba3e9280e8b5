"""Deterministic exact search for 0-1 programs with parity constraints.

Depth-first branch and bound over variables in ascending index order,
value 0 before 1, so the first solution found is the lexicographically
smallest assignment and enumeration streams solutions in lexicographic
order. Parity rows are propagated natively in GF(2), and an exact
cardinality bounds the search by counting ones.
"""

from __future__ import annotations

from collections import deque
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
    """

    __slots__ = ("num_vars", "parity_rows", "fixed", "cardinality")

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
        for row in self.parity_rows:
            if not row:
                raise ValueError("parity rows must be non-empty")
            if len(set(row)) != len(row):
                raise ValueError("parity row has duplicate indices")
            for v in row:
                if not 0 <= v < self.num_vars:
                    raise ValueError(f"parity row index {v} out of range")
        for v, x in self.fixed:
            if not 0 <= v < self.num_vars:
                raise ValueError(f"pinned variable {v} out of range")
            if x not in (0, 1):
                raise ValueError(f"pinned value must be 0 or 1, got {x}")
        if self.cardinality is not None and self.cardinality < 0:
            raise ValueError("cardinality must be nonnegative")


class _Frame:
    __slots__ = ("var", "vals", "idx", "mark")

    def __init__(self, var: int, vals: tuple[int, ...], mark: int) -> None:
        self.var = var
        self.vals = vals
        self.idx = 0
        self.mark = mark


class _Search:
    """One depth-first run over a program; owns all mutable state."""

    def __init__(self, p: ZeroOneProgram, node_limit: int) -> None:
        self.n = p.num_vars
        self.rows = [list(row) for row in p.parity_rows]
        self.var_rows: list[list[int]] = [[] for _ in range(self.n)]
        for r, row in enumerate(self.rows):
            for v in row:
                self.var_rows[v].append(r)
        self.target = p.cardinality
        self.pins = list(p.fixed)
        self.node_limit = node_limit

        self.value = [-1] * self.n
        self.trail: list[int] = []
        self.row_free = [len(row) for row in self.rows]
        self.row_par = [0] * len(self.rows)
        self.odd_rows = 0
        self.ones = 0
        self.free = self.n
        self.ones_mask = 0
        self.hint = 0
        self.nodes = 0
        # each new one can clear at most this many odd rows
        self.max_rows_per_var = max((len(rs) for rs in self.var_rows), default=0)

    def _conflict_by_counts(self) -> bool:
        if self.target is None:
            return False
        if self.ones > self.target:
            return True
        if self.ones + self.free < self.target:
            return True
        return self.odd_rows > self.max_rows_per_var * (self.target - self.ones)

    def _assign(self, var: int, val: int) -> bool:
        """Apply one assignment plus all propagation; False on conflict.

        Every applied assignment lands on the trail, so the caller can
        roll back to its mark after a conflict.
        """
        queue = deque([(var, val)])
        while queue:
            v, x = queue.popleft()
            cur = self.value[v]
            if cur != -1:
                if cur != x:
                    return False
                continue
            self.value[v] = x
            self.trail.append(v)
            self.free -= 1
            if x:
                self.ones += 1
                self.ones_mask |= 1 << v
            # finish the whole row pass before reporting a conflict: undo
            # reverses every row of v, so none may be left half-applied
            conflict = False
            for r in self.var_rows[v]:
                self.row_free[r] -= 1
                if x:
                    self.row_par[r] ^= 1
                    self.odd_rows += 1 if self.row_par[r] else -1
                free = self.row_free[r]
                if free == 0:
                    if self.row_par[r]:
                        conflict = True
                elif free == 1:
                    lone = next(u for u in self.rows[r] if self.value[u] == -1)
                    queue.append((lone, self.row_par[r]))
            if conflict or self._conflict_by_counts():
                return False
        return True

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            v = self.trail.pop()
            x = self.value[v]
            self.value[v] = -1
            self.free += 1
            if x:
                self.ones -= 1
                self.ones_mask &= ~(1 << v)
            for r in self.var_rows[v]:
                self.row_free[r] += 1
                if x:
                    self.odd_rows += -1 if self.row_par[r] else 1
                    self.row_par[r] ^= 1

    def _next_unassigned(self) -> int | None:
        v = self.hint
        while v < self.n and self.value[v] != -1:
            v += 1
        self.hint = v
        return v if v < self.n else None

    def _decision_values(self, var: int) -> tuple[int, ...]:
        # ones == target never gets here: solutions() yields or _conflict_by_counts rejects
        if self.target is not None and self.ones + self.free == self.target:
            return (1,)
        return (0, 1)

    def _count_node(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise NodeLimitExceeded(
                f"node limit {self.node_limit} exceeded; search is incomplete"
            )

    def solutions(self) -> Iterator[int]:
        if self.target is not None and self.target > self.free:
            return
        root = len(self.trail)
        ok = True
        for v, x in self.pins:
            if not self._assign(v, x):
                ok = False
                break
        if not ok:
            self._undo(root)
            return
        stack: list[_Frame] = []
        descend = True
        while True:
            if descend:
                # exact-count shortcut: remaining variables are all zero
                if self.target is not None and self.ones == self.target and self.odd_rows == 0:
                    yield self.ones_mask
                    descend = False
                    continue
                var = self._next_unassigned()
                if var is None:
                    yield self.ones_mask
                    descend = False
                    continue
                frame = _Frame(var, self._decision_values(var), len(self.trail))
                stack.append(frame)
            else:
                if not stack:
                    self._undo(root)
                    return
                frame = stack[-1]
                frame.idx += 1
            self._undo(frame.mark)
            self.hint = frame.var
            descend = False
            while frame.idx < len(frame.vals):
                val = frame.vals[frame.idx]
                self._count_node()
                if self._assign(frame.var, val):
                    descend = True
                    break
                self._undo(frame.mark)
                frame.idx += 1
            if not descend:
                stack.pop()


def iter_solutions(p: ZeroOneProgram, node_limit: int = DEFAULT_NODE_LIMIT) -> Iterator[int]:
    """Stream every solution of p as a bitmask, in lexicographic order."""
    return _Search(p, node_limit).solutions()


def solve(p: ZeroOneProgram, node_limit: int = DEFAULT_NODE_LIMIT) -> int | None:
    """Lexicographically smallest feasible assignment, or None if infeasible."""
    for mask in iter_solutions(p, node_limit):
        return mask
    return None


def enumerate_solutions(
    p: ZeroOneProgram,
    limit: int,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> list[int]:
    """First `limit` solutions in lexicographic order, from one search pass."""
    if limit <= 0:
        raise ValueError("limit must be positive")
    out: list[int] = []
    for mask in iter_solutions(p, node_limit):
        out.append(mask)
        if len(out) >= limit:
            break
    return out
