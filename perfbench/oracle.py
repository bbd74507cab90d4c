"""Independent exact computations that the benchmark checks riskspan against.

Nothing here imports riskspan: every routine is a separate Fraction
implementation (Gaussian elimination, brute-force gauges, martingale and
replication checks), so a fault in the program cannot hide behind the same
fault in its checker.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

F0 = Fraction(0)
INF = float("inf")

Vector = Sequence[Fraction]


def _echelon(rows: Sequence[Vector]) -> list[list[Fraction]]:
    """Row echelon form (pivot rows only) by exact elimination."""
    work = [list(r) for r in rows if any(r)]
    reduced: list[list[Fraction]] = []
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in work if r[col] != 0), None)
        if pivot is None:
            continue
        work.remove(pivot)
        for r in work:
            if r[col] != 0:
                factor = r[col] / pivot[col]
                for j in range(col, width):
                    r[j] -= factor * pivot[j]
        reduced.append(pivot)
    return reduced


def rank(rows: Sequence[Vector]) -> int:
    return len(_echelon(rows)) if rows else 0


def in_span(vectors: Sequence[Vector], x: Vector) -> bool:
    if not any(x):
        return True
    return rank(list(vectors) + [x]) == rank(vectors)


def solve_columns(columns: Sequence[Vector], x: Vector) -> Optional[list[Fraction]]:
    """The unique c with sum c_j columns_j = x for independent columns, or None."""
    n, k = len(x), len(columns)
    aug = [[columns[j][i] for j in range(k)] + [x[i]] for i in range(n)]
    row = 0
    pivots = []
    for col in range(k):
        pivot = next((i for i in range(row, n) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [v / pv for v in aug[row]]
        for i in range(n):
            if i != row and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    if any(aug[i][k] != 0 for i in range(row, n)):
        return None
    return [aug[i][k] for i in range(k)]


def brute_gauge(generators: Sequence[Vector], x: Vector):
    """min sum |c_j| over basic solutions of sum c_j v_j = x; INF off the span.

    An optimal solution of the gauge LP sits at a basic solution, whose
    support is an independent set of generators; extended to a basis of the
    span it gives a unique coefficient vector, so the minimum over all
    independent r-subsets (r = rank) is the gauge.
    """
    if not any(x):
        return F0
    r = rank(generators)
    if not in_span(generators, x):
        return INF
    best = None
    for subset in combinations(range(len(generators)), r):
        cols = [generators[j] for j in subset]
        if rank(cols) != r:
            continue
        coeffs = solve_columns(cols, x)
        if coeffs is None:
            continue
        total = sum((abs(c) for c in coeffs), F0)
        if best is None or total < best:
            best = total
    return best


def weighted_pairing(mu: Vector, f: Vector, g: Vector) -> Fraction:
    return sum((w * a * b for w, a, b in zip(mu, f, g)), F0)


def polar_gauge(mu: Vector, generators: Sequence[Vector], g: Vector) -> Fraction:
    return max(sum((w * abs(a * b) for w, a, b in zip(mu, v, g)), F0) for v in generators)


def null_space(rows: Sequence[Vector], width: int) -> list[list[Fraction]]:
    """A basis of {x : rows @ x = 0} from the reduced row echelon form."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    row = 0
    for col in range(width):
        pivot = next((i for i in range(row, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        pv = work[row][col]
        work[row] = [v / pv for v in work[row]]
        for i in range(len(work)):
            if i != row and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[row])]
        pivots.append(col)
        row += 1
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vec = [F0] * width
        vec[free] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -work[r][free]
        basis.append(vec)
    return basis


def sup_norm(x: Vector) -> Fraction:
    return max(abs(v) for v in x)


def dominates(big: Vector, small: Vector) -> bool:
    return all(abs(s) <= abs(b) for b, s in zip(big, small))


# ---------------------------------------------------------------------------
# market trees, from the benchmark's own node table
#
# A tree is a dict id -> (parent, prices) plus the sorted leaf ids; children
# are listed in id order.


class TreeSpec:
    def __init__(self, nodes: dict[str, tuple[Optional[str], tuple[Fraction, ...]]]):
        self.nodes = nodes
        self.children: dict[str, list[str]] = {nid: [] for nid in nodes}
        for nid, (parent, _prices) in sorted(nodes.items()):
            if parent is not None:
                self.children[parent].append(nid)
        self.root = next(nid for nid, (parent, _p) in nodes.items() if parent is None)
        self.leaves = sorted(nid for nid, kids in self.children.items() if not kids)
        self.internal = sorted(nid for nid, kids in self.children.items() if kids)

    def leaves_below(self, nid: str) -> list[str]:
        return [leaf for leaf in self.leaves if leaf.startswith(nid)]

    def move(self, parent: str, child: str, asset: int) -> Fraction:
        return self.nodes[child][1][asset] - self.nodes[parent][1][asset]

    def gains(self) -> list[list[Fraction]]:
        """The constant claim plus each one-node one-asset strategy's gain."""
        assets = len(self.nodes[self.root][1])
        out = [[Fraction(1)] * len(self.leaves)]
        for nid in self.internal:
            for k in range(assets):
                vec = [F0] * len(self.leaves)
                for kid in self.children[nid]:
                    for leaf in self.leaves_below(kid):
                        vec[self.leaves.index(leaf)] = self.move(nid, kid, k)
                out.append(vec)
        return out

    def forward(self, capital: Fraction, hedge: dict[str, Sequence[Fraction]]) -> list[Fraction]:
        """Leaf values of a self-financing strategy started with ``capital``."""
        value = {self.root: capital}
        for nid in sorted(self.nodes, key=len):
            parent = self.nodes[nid][0]
            if parent is None:
                continue
            gain = sum(
                (Fraction(h) * self.move(parent, nid, k) for k, h in enumerate(hedge[parent])),
                F0,
            )
            value[nid] = value[parent] + gain
        return [value[leaf] for leaf in self.leaves]

    def is_martingale_measure(self, q: Vector, strict: bool = False) -> bool:
        """Probability on the leaves under which every price is a martingale."""
        if len(q) != len(self.leaves) or sum(q, F0) != 1:
            return False
        if any(w < 0 or (strict and w == 0) for w in q):
            return False
        mass = dict(zip(self.leaves, q))
        assets = len(self.nodes[self.root][1])
        for nid in self.internal:
            for k in range(assets):
                drift = sum(
                    (
                        sum((mass[leaf] for leaf in self.leaves_below(kid)), F0)
                        * self.move(nid, kid, k)
                        for kid in self.children[nid]
                    ),
                    F0,
                )
                if drift != 0:
                    return False
        return True


def parse_fraction(text: str) -> Fraction:
    """Read the program's ``"p/q"`` rendering without its parser."""
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))
