"""Nerve cohomology on a cochain complex shrunk by its unit pivots.

H^k needs only C^{k-1} -A-> C^k -B-> C^{k+1}, the integer matrices of d_{k-1}
and d_k as sparse rows.  An entry p = +-1 of A at row b (a k-cell) and column
a (a (k-1)-cell) is eliminated by the Gaussian-elimination lemma: a and b
leave the complex, A takes the rank-1 update A - A[:, a] p A[b, :], and B
loses column b.  A unit entry of B at row b, column a is eliminated the same
way, and A loses row a.  This is algebraic Morse theory with the coreduction
pairs of Mrozek and Batko ("Coreduction homology algorithm", Discrete
Comput. Geom. 2009; Kaczynski, Mischaikow and Mrozek, Computational Homology,
2004).  The cells left over (critical cells) span a complex homotopy
equivalent to the first, and the Smith normal form sees only it.

The k-cochain maps of the equivalence come from a log of the eliminations.
Forward (cocycles to critical cocycles), an A-pair with pivot row b adds
-z[b] p times the column A[:, a] of its time; a B-pair's k-cell is dropped.
Back (critical cocycles to cocycles), in reverse order, the k-cell a of a
B-pair gets -p times the row B[b, :] of its time applied to the cochain; an
A-pair's k-cell gets 0.  Both are identities on the critical cells.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

from .coeff import ZGroup, _snf, sparse_apply, sparse_mix
from .errors import CocycleError


def _eliminate(rows, ncols, log, drop=()):
    """Eliminate the unit pivots of the sparse integer rows in place, after
    deleting the columns in drop, and append (row, column, pivot, pivot row,
    pivot column) for each to log; the pivot row and column are their
    entries off the pivot, at the time.

    Pivot rule: the row of fewest entries that holds a unit, least id first,
    and in it the unit whose column has the fewest entries, least id first;
    no choice reads a set's order, so no choice depends on the hash seed.
    A heap holds (entries, id) keys; ``live[i]`` is the entry count under
    which row i sits in it, or -1, so a key that went stale is passed over
    and a row whose count comes back to its live key is not pushed again."""
    cols = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    for c in drop:
        for s in cols[c]:
            del rows[s][c]
        cols[c] = set()
    live = [len(row) or -1 for row in rows]
    heap = [(size, i) for i, size in enumerate(live) if size > 0]
    heapify(heap)
    while heap:
        size, r = heappop(heap)
        if live[r] != size:
            continue
        live[r] = -1
        row = rows[r]
        best = None
        for c, x in row.items():
            if x == 1 or x == -1:
                key = (len(cols[c]), c)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        c = best[1]
        p = row.pop(c)
        rows[r] = {}
        for j in row:
            cols[j].discard(r)
        pcol = cols[c]
        pcol.discard(r)
        col = {}
        for s in pcol:
            srow = rows[s]
            x = col[s] = srow.pop(c)
            q = -x * p
            for j, y in row.items():
                v = srow.get(j)
                if v is None:
                    srow[j] = q * y
                    cols[j].add(s)
                elif v + q * y:
                    srow[j] = v + q * y
                else:
                    del srow[j]
                    cols[j].discard(s)
            size = len(srow) or -1
            if live[s] != size:
                live[s] = size
                if size > 0:
                    heappush(heap, (size, s))
        log.append((r, c, p, row, col))


class Reduction:
    """C^{k-1} -A-> C^k -B-> C^{k+1}, given as the rows of A over n_prev
    columns and the rows of B over n columns, with every unit pivot of A
    and then of B eliminated; A and B are consumed.

    ``cells`` are the critical k-cells and the critical (k-1)- and
    (k+1)-cells that still meet them, as ids; ``A`` and ``B`` are the
    leftover matrices on their positions there, so no row of B and no column
    of A is zero.  The cells that meet no critical k-cell change no H^k."""

    def __init__(self, A, n_prev, B, n):
        self._log_a, self._log_b = [], []
        _eliminate(A, n_prev, self._log_a)
        gone = {r for r, *_ in self._log_a}
        _eliminate(B, n, self._log_b, gone)
        gone.update(c for _, c, *_ in self._log_b)
        crit = [i for i in range(n) if i not in gone]
        prev = sorted({j for i in crit for j in A[i]})
        nxt = [i for i, row in enumerate(B) if row]
        self.cells = prev, crit, nxt
        pos_prev = {c: i for i, c in enumerate(prev)}
        pos = {c: i for i, c in enumerate(crit)}
        self.A = [{pos_prev[j]: x for j, x in A[i].items()} for i in crit]
        self.B = [{pos[j]: x for j, x in B[i].items()} for i in nxt]

    def project(self, z, group=None, taken=None):
        """The critical cocycle of a full k-cocycle z, a list of values of
        group (Z by default), with the value t = p z[b] that each A-pair's
        column took appended to taken."""
        group = group or ZGroup()
        zero, z = group.zero(), list(z)
        for b, _, p, _, col in self._log_a:
            t = group.mul_int(p, z[b])
            if taken is not None:
                taken.append(t)
            if t != zero:
                for s, x in col.items():
                    z[s] = group.add(z[s], group.mul_int(-x, t))
        return [z[i] for i in self.cells[1]]

    def solve(self, z, group):
        """A (k-1)-cochain alpha, {cell: value}, with d(alpha) = z for a
        k-cocycle z, a list of values of group, or None when there is none.
        Each step of the reduction keeps the solutions: an A-pair (b, a, p)
        solves its row b for alpha[a], which is the rank-1 update of the
        other rows and the forward step of `project`; a B-pair's k-cell
        drops out, since a cocycle that vanishes off it vanishes there (the
        pivot of B is a unit).  So the leftover of d_{k-1} is solved on the
        critical cells by its SNF, and alpha is lifted back through the
        A-pairs in reverse: alpha[a] = t - p (row . alpha), with t what
        `project` gave the pair."""
        taken = []
        z = self.project(z, group, taken)
        xs = _snf(self.A, len(self.cells[0])).solve_group(z, group)
        if xs is None:
            return None
        alpha = dict(zip(self.cells[0], xs))
        for (_, a, p, row, _), t in zip(reversed(self._log_a),
                                        reversed(taken)):
            for j, x in row.items():
                if j in alpha:
                    t = group.add(t, group.mul_int(-p * x, alpha[j]))
            alpha[a] = t
        return alpha

    def lift(self, w, m=0):
        """The full k-cocycle, a sparse {cell: value} (mod m when m), of a
        critical cocycle given sparse on critical positions."""
        crit = self.cells[1]
        z = {crit[i]: x for i, x in w.items()}
        for _, a, p, row, _ in reversed(self._log_b):
            v = 0
            for j, x in row.items():
                v -= x * z.get(j, 0)
            if v:
                v = v * p % m if m else v * p
                if v:
                    z[a] = v
        return z

    def cohomology(self, d_k, m=0, field=False):
        """H^k over Z (m = 0), Z/m or, when field, over Q(a), as a presented
        group: generator cocycles modulo relations, reduced by one SNF of
        the relations.  Q is flat over Z, so over Q(a) this is H^k over Z
        tensored with Q(a): the torsion dies and the free generators are a
        basis.  Returns (free rank, invariant factors, representatives as
        sparse full cocycles, coordinates of a full integer cocycle).  The
        coordinates refuse a non-cocycle by the full matrix of d_k, which
        d_k() builds on their first call."""
        n, width = len(self.cells[1]), len(self.cells[0])
        S = _snf(self.B, n, want_u=False, want_vinv=True)
        r = S.rank
        # rows < r of Vinv*A vanish since BA = 0: coboundaries lie in the
        # span of the columns r.. of V
        if not m:
            # ker B is spanned by the columns r.. of V, over Z and a field
            gens, scale = S.kernel(), [1] * (n - r)
            rel = [sparse_mix(row, self.A) for row in S.Vinv[r:]]

            def to_gens(z):
                return z[r:]
        else:
            # mod m, x times column j of V is a cocycle exactly when s_j
            # divides x, for s_j = m / gcd(d_j, m) (d_j = 0, so s_j = 1, past
            # the rank); the scaled column then has order m / s_j
            gens = S.V
            scale = [m // math.gcd(d, m) for d in S.diag + [0] * (n - r)]
            # relation width + i: generator i has order m / s_i (alone below r)
            rel = [{width + i: m // s} for i, s in enumerate(scale)]
            for i in range(r, n):
                rel[i] = {**sparse_mix(S.Vinv[i], self.A),
                          width + i: m // scale[i]}

            def to_gens(z):
                return [x % m // sj for x, sj in zip(z, scale)]

        q = len(gens)
        ncols = width + (n if m else 0)
        R = _snf(rel, ncols, want_u=False, want_v=False, want_uinv=True)
        rR, eR = R.rank, R.diag
        torsion = [] if field else [i for i in range(rR) if eR[i] > 1]
        out_idx = torsion + list(range(rR, q))
        mods = [eR[i] for i in torsion] + [0] * (q - rR)
        U_out = B = None

        def coordinates(z):
            nonlocal U_out, B
            if U_out is None:
                # no pivot choice reads a factor, so this is the U of R
                U = _snf(rel, ncols, want_v=False).U
                U_out, B = [U[i] for i in out_idx], d_k()
            if any(x % m if m else x for x in sparse_apply(B, z)):
                raise CocycleError("class oracle applied to a non-cocycle")
            z = to_gens(sparse_apply(S.Vinv, self.project(z)))
            return [x % e if e else x
                    for x, e in zip(sparse_apply(U_out, z), mods)]

        # U_R is unimodular, so generator i of the group is column i of
        # U_R^-1 in the coordinates of the scaled gens
        reps = [self.lift(sparse_mix(
            {j: scale[j] * x for j, x in R.Uinv[i].items()}, gens), m)
            for i in out_idx]
        return q - rR, mods[:len(torsion)], reps, coordinates
