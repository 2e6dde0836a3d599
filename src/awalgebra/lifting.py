"""The quotient realization: operators that commute with Delta(E), read
on block_w / E(block_(w-1)); and the slices of an interval, on which its
operators are those of the interval's own realization.

Let E = Delta(E) be the raising operator of a realization, over all its
legs, assembled through the coproduct.  It maps weight block w-1 into
block w and is cut off out of the top block.  The seed states S_w of
block w are its states with no quanta on leg 1.

    (span) for every state m of block w with m_1 >= 1, column m - e_1
           of E has a nonzero entry in row m and every other nonzero
           entry in a row of block w with fewer quanta on leg 1.

Under (span), block w = E(block w-1) (+) span S_w, and E is injective
on block w-1.  Eliminating along the pivots E[m, m - e_1], most leg-1
quanta first, writes any vector of block w as E of a vector of block
w-1 plus a remainder on the seeds (remainder).  A nonzero E v is
nonzero in row u + e_1 for u a state of v with the most leg-1 quanta,
which no other state of v reaches; so E v != 0, and E(block w-1) meets
span S_w only in 0.

Quotient.  The seeds are a basis of M_w = block w / E(block w-1).  An
operator X that is block diagonal and commutes with E on the columns of
weight <= top - 1 maps E(block w-1) into itself for w <= top, so it
induces a map Xbar of M_w: column s of Xbar is the remainder of column s
of X (quotient_operator).  Induced maps compose, (XY)bar = Xbar Ybar,
and sums and scalings pass through, so a polynomial R in such operators
has Rbar the same polynomial in their reductions.  Xbar lives on the
seed rows and columns of the full basis, so the sparse kernel is
unchanged.

Separation.  Rbar = 0 does not by itself give R = 0: on a sum of two
lowest-weight modules, the map that sends the lowest vector v2 of one
to E v1 in the other, and E^i v2 to E^(i+1) v1, commutes with E and is
zero on every M_w.  An operator C with distinct eigenvalues on the
M_w tells them apart.  quotient_table checks, for operators ops
(C among them) and eigenvalues lambda_0..lambda_top:

    (i)   every op is block diagonal and commutes with E on the columns
          of weight <= top - 1 (commutes_below_top);
    (ii)  (span) holds for every block 1..top;
    (iii) every op commutes with C on the columns of weight <= top;
    (iv)  Cbar = lambda_w on M_w for every w <= top;
    (v)   lambda_0..lambda_top are pairwise distinct.

A scalar op, sigma times the identity (is_scalar), commutes with every
operator and is block diagonal, so it meets (i) and (iii) with no
product formed; quotient_table forms neither product for it.  Q0 and
the single-leg Casimirs are scalar, a leg being one irreducible
lowest-weight module.

Lemma.  A block diagonal Y that commutes with E on the columns of
weight <= top - 1 and is zero on the seed columns of weight <= top is
zero on every column of weight <= top: by induction on w, Y E v =
E Y v = 0 for v in block w-1, and block w = E(block w-1) + span S_w.
Under (i), [X, C] is such a Y, so (iii) is checked on the seed columns.

P_w(C) = prod_(x<=w) (C - lambda_x) is zero on block w <= top, by
induction: block 0 is M_0, where C = lambda_0 by (iv); on block w,
P_w(C) E v = E (C - lambda_w) P_(w-1)(C) v = 0 for v in block w-1, and
for a seed s, (iv) gives (C - lambda_w) s = E u with u in block w-1, so
P_w(C) s = P_(w-1)(C) E u = E P_(w-1)(C) u = 0.  (spectra.py's
corollary rests on this paragraph.)

Theorem.  Let R be a polynomial in ops with Rbar = 0 on M_w for every
w <= top.  Then R is zero on every column of weight <= top.  By (i) and
(iii), R is block diagonal, commutes with E on the columns of weight
<= top - 1 and with C on those of weight <= top.  By induction on w:
block 0 is M_0, where R = Rbar = 0.  For w >= 1 let R be zero on block
w-1, and s a seed of block w.  Rbar s = 0 gives R s = E u with u in
block w-1, and (iv) gives (C - lambda_w) s = E u' with u' in block w-1.
Then

    E (C - lambda_w) u = (C - lambda_w) R s = R (C - lambda_w) s
                       = R E u' = E R u' = 0,

so (C - lambda_w) u = 0, E being injective on block w-1.  With it
P_(w-1)(lambda_w) u = P_(w-1)(C) u = 0, and P_(w-1)(lambda_w) != 0 by
(v), so u = 0 and R s = 0.  R is also zero on E(block w-1), since
R E v = E R v = 0, so R is zero on block w.

Corollary (central commutators).  Let Y be a polynomial in ops.  Then
[C, Y] is zero on every column of weight <= top: Cbar = lambda_w on M_w
by (iv), and Ybar maps each M_w into itself, so R = [C, Y] has Rbar =
[Cbar, Ybar] = 0, and the theorem applies.  A scalar op X = sigma I
(is_scalar) commutes with every operator, so [X, Y] = 0 on every
column.  Neither needs a product formed, and neither reads a
reduction: GeneratorRegistry.central names C and the scalar ops from
the certificate alone.

Corollary (commutant closure).  Let x be a derived generator, computed
in a table from the labels of its definition as s^-1 [L, R]_q - sum A B
(opalgebra.derived_terms), and Y an operator that commutes with each of
those labels' operators.  [., Y] is a derivation, so [x, Y] is a sum of
products each holding a factor [c, Y] = 0 for c among L, R, A, B, and
[x, Y] = 0 with no product formed.  A commutator recorded zero is zero
on every column, by the theorem or by a full evaluation, and so is one
with C or a scalar op as an operand, by the corollary above; from such
premises the rule is exact on the full table, and on the quotient
table, whose derived generators are the reductions of the full ones.

Relation residuals (opalgebra.GeneratorRegistry.residual) use this with
E the total Delta(E), C the total Casimir and lambda_w =
lambda(k_1 + ... + k_legs + w); GeneratorRegistry.commutator_of answers
a commutator with a central operand (GeneratorRegistry.central: the
total Casimir, and Q0 and the single-leg Casimirs, which are scalar) by
the first corollary, and one of a derived generator with a label that
commutes with its definition's labels by the second.  Casimir
spectra (spectra.certified_counts) use quotient_table with ops = {C}
alone on an interval A's own realization p_A (below): E and C are p_A's
total Delta(E) and Casimir, lambda_w = lambda(k_A + w), and (iii) is
empty.

Slices.  Let A = lo..hi be an interval of legs of a realization p and
p_A the realization of its legs alone (RepParams.interval_realization:
hi - lo + 1 legs, the labels k_lo..k_hi, the same q and n_max).  Split
a state into its inner part m[lo-1:hi], whose weight is its A-weight,
and its outside part o, the quanta on the other legs.  The slice of o
is the span of the states with outside part o; the slice of o = 0 is
the zero-outside slice.

    Slice lemma.  On the slice of o, with |o| = m outside quanta, A's
    E, F, K and Kinv (interval_ops(p, A), either fold) are those of
    p_A under the index map state -> inner part, restricted to the
    A-weights <= n_max - m, with E also cut on the columns of A-weight
    n_max - m.  A's Casimir there is p_A's restricted, with no cut.
    So on the zero-outside slice (m = 0) all five are p_A's.

Proof.  Each leg generator is filled from a table of one value per
occupation of its own leg, and is the identity on the other legs.  The
table is uqrep.leg_table(q, k, n_max, generator): its arguments are q,
the leg's label and the truncation, with no leg index and no outside
quanta, so this premise lives in its signature.  Only E's cut, at total
weight n_max = A-weight + m, sees the outside quanta.  A's generators
are lincombs of products of the generators of its legs (the coproduct
folds), so they keep o and act on the slice of o as p_A's do, with E
cut at A-weight n_max - m.  The Casimir is a lincomb of K K, Kinv Kinv
and E F, and in E F the E acts below the column's A-weight, where
nothing is cut.

Casimir spectra (spectra.certified_counts) are the lemma's only user:
block w of p is the sum over the outside parts o of the states of
A-weight w - |o| on the slice of o, where A's Casimir is p_A's on its
block w - |o|.  The lemma is a property of how uqrep builds A's
operators, so it serves only operators that uqrep builds.
"""

from __future__ import annotations

from math import gcd, lcm

from .sparse import SparseOperator


def seed_states(basis, w: int) -> list:
    """S_w: the states of block w with no quanta on leg 1, in index
    order."""
    states = basis.states
    return [j for j in basis.weight_block(w) if not states[j][0]]


def commutes_below_top(op, e, top: int) -> bool:
    """op is block diagonal and op E - E op vanishes on the columns of
    weight <= top - 1.  The columns are restricted before the products,
    which leaves those columns' values unchanged."""
    basis = op.basis
    weights = basis.weights
    for j, col in op.cols.items():
        w = weights[j]
        if any(weights[i] != w for i in col):
            return False
    below = range(0, basis.weight_block(top - 1).stop if top else 0)
    return SparseOperator.lincomb(
        basis, ((1, op, e.restricted(below)), (-1, e, op.restricted(below)))
    ).is_zero()


def spanned_by_lifting(e, w: int) -> bool:
    """(span) for block w >= 1: block w = E(block w-1) + span S_w by
    induction on the quanta on leg 1."""
    basis = e.basis
    states, weights = basis.states, basis.weights
    for row in basis.weight_block(w):
        m = states[row]
        n = m[0]
        if n == 0:
            continue
        col = e.cols.get(basis.index_of((n - 1,) + m[1:]), {})
        if not col.get(row):
            return False
        for i in col:
            if i != row and (weights[i] != w or states[i][0] >= n):
                return False
    return True


def remainder(r: dict, e) -> tuple[dict, int]:
    """(rest, scale) for a vector r of block w >= 1 (int numerators by
    row): scale r - rest lies in E(block w-1), rest lies on the seed
    rows and scale is a positive int; (span) must hold for block w.  So
    r lies in E(block w-1) exactly when rest is empty, and the seed
    coordinates of r in M_w are rest / scale.

    The rows of r with quanta on leg 1 are eliminated, most quanta
    first, along the pivots E[m, m - e_1] that spanned_by_lifting
    checks: eliminating row m subtracts a multiple of column m - e_1,
    whose other entries have fewer leg-1 quanta, so no row with as many
    comes back.  The steps are fraction free: r is scaled by pivot/gcd,
    with the pivot's sign moved to the subtracted multiple, and scale
    collects those factors.
    """
    basis = e.basis
    states = basis.states
    r = {i: x for i, x in r.items() if x}
    scale = 1
    while r:
        m = max(r, key=lambda i: states[i][0])
        n = states[m][0]
        if not n:
            break
        x = r.pop(m)
        col = e.cols[basis.index_of((n - 1,) + states[m][1:])]
        pivot = col[m]
        g = gcd(pivot, x) if pivot > 0 else -gcd(pivot, x)
        pivot, x = pivot // g, x // g
        if pivot != 1:
            scale *= pivot
            for i in r:
                r[i] *= pivot
        for i, y in col.items():
            if i != m:
                z = r.get(i, 0) - x * y
                if z:
                    r[i] = z
                else:
                    del r[i]
    return r, scale


def quotient_operator(op, e, seeds) -> SparseOperator:
    """Xbar for X = op on the seed columns seeds (leg 1): column s is the
    remainder of column s of op through E, over its scale."""
    rests = {}
    for s in seeds:
        col = op.cols.get(s)
        if col:
            rest, scale = remainder(col, e)
            if rest:
                rests[s] = rest, scale
    common = lcm(1, *(scale for _, scale in rests.values()))
    cols = {}
    for s, (rest, scale) in rests.items():
        m = common // scale
        cols[s] = {i: x * m for i, x in rest.items()} if m != 1 else rest
    return SparseOperator._reduced(op.basis, cols, 0, op.den * common)


def is_scalar(op) -> bool:
    """op = sigma * identity: every basis column holds exactly one
    entry, on the diagonal, and all these entries have one value."""
    cols = op.cols
    if len(cols) != len(op.basis):
        return False
    values = {col.get(j) if len(col) == 1 else None for j, col in cols.items()}
    return len(values) == 1 and None not in values


def quotient_table(ops: dict, total: str, e, eigenvalues) -> dict | None:
    """{label: Xbar} for every op of ops, on the seeds (leg 1) of weight
    <= top = len(eigenvalues) - 1, when (i)-(v) of the module doc hold
    with C = ops[total] and E = e, the total Delta(E); None otherwise.
    A scalar op (is_scalar) meets (i) and (iii) with no product formed;
    its reduction is computed all the same."""
    top = len(eigenvalues) - 1
    basis = e.basis
    c = ops.get(total)
    if c is None or len(set(eigenvalues)) != len(eigenvalues):  # (v)
        return None
    if not all(spanned_by_lifting(e, w) for w in range(1, top + 1)):  # (ii)
        return None
    general = [op for op in ops.values() if not is_scalar(op)]
    if not all(commutes_below_top(op, e, top) for op in general):  # (i)
        return None
    seeds = [j for w in range(top + 1) for j in seed_states(basis, w)]
    c_seeds = c.restricted(seeds)
    for op in general:  # (iii), by the lemma
        if op is not c and not SparseOperator.lincomb(
            basis, ((1, op, c_seeds), (-1, c, op.restricted(seeds)))
        ).is_zero():
            return None
    table = {x: quotient_operator(op, e, seeds) for x, op in ops.items()}
    weights = basis.weights
    scalar = SparseOperator(basis, {s: {s: eigenvalues[weights[s]]} for s in seeds}, 0)
    if table[total] != scalar:  # (iv)
        return None
    return table
