"""Exhaustive axiom verification for twisted graded Frobenius algebras.

Every axiom is multilinear in its vector arguments, so quantifiers over
vectors reduce to basis indices; quantifiers over group and module elements
are run in full.  The verifier therefore decides each axiom exactly.

Checks are reported in a fixed order under fixed tags:

    bimodule              module action: homomorphism, invertible, grading law
    associativity         twisted associativity of multiplication
    unit                  two-sided unit
    eta-symmetric         inner product symmetry
    eta-nondegenerate     inner product rank
    pairing-nondegenerate induced pairing V_a x V_{a^-1} full rank
    phi-module            conjugation intertwines the module action
    phi-fix               conjugation fixes its own component pointwise
    phi-unit              conjugation fixes the unit
    phi-commute           commutation law v u = phi_b(u) v
    phi-isometry          conjugation preserves the inner product
    phi-mult              conjugation is multiplicative up to an A-scalar
    phi-compose           composition law with its A-scalar, and invertibility
    trace                 the two twisted traces agree
    lemma-1.1-a .. -d     pairing compatibility identities (consequences)

plus internal consistency probes (tags ``internal-*``) re-checking facts that
follow from the axioms: module bilinearity of multiplication, triviality of
the identity conjugation, and the scalar form of phi on inverse components.
A failed consequence with all primary axioms green indicates an internal
inconsistency of the verifier or the data, and is flagged as such.

Each call first builds private index tables (group and module products,
inverses and actions as lists, kappa as an index cube, the stored blocks and
tensors as row lists), so that a product with a basis vector is a row read
and a kappa-scalar three lookups.  The tables live for that call only.  The
checks still run every quantifier in full.  Every combination of rows on the
tables goes through the row-list kernel of :mod:`linalg`, the same loops that
``Matrix.mul``, ``apply_map`` and ``TFAlgebra.multiply`` run, and each case
of an identity (associativity, phi-mult, phi-compose, phi-module, trace, the
lemma-1.1 identities and bilinearity) is one kernel call: a fused check
(``_agree``, ``_agree_product``) that compares both sides, or one
``_matmul`` or ``_comb`` compared with a stored block.  phi-module checks
its block one row at a time, and trace forms its two blocks once per pair
of components.  Entries are stored as
residues (``Matrix`` and ``TFAlgebra`` reduce them once, as they store them);
nothing downstream re-reduces.  So the tables read the stored rows as they
are, and an entry given unreduced (6 over F5) compares as its residue in
vector and block identities alike.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._record import _FrozenRecord, _Record
from .algebra import TFAlgebra
from .linalg import Matrix, _agree, _agree_product, _comb, _dot, _inverse, _matmul

PRIMARY_TAGS = (
    "bimodule",
    "associativity",
    "unit",
    "eta-symmetric",
    "eta-nondegenerate",
    "pairing-nondegenerate",
    "phi-module",
    "phi-fix",
    "phi-unit",
    "phi-commute",
    "phi-isometry",
    "phi-mult",
    "phi-compose",
    "trace",
)

LEMMA_TAGS = ("lemma-1.1-a", "lemma-1.1-b", "lemma-1.1-c", "lemma-1.1-d")

INTERNAL_TAGS = (
    "internal-bilinearity",
    "internal-phi-identity",
    "internal-phi-inverse-scalar",
)

ALL_TAGS = PRIMARY_TAGS + LEMMA_TAGS + INTERNAL_TAGS

# the fifteen families the mutation suite quantifies over: the lemma
# identities count as a single family
TAG_FAMILIES = PRIMARY_TAGS + ("lemma-1.1",)


def tag_family(tag: str) -> str | None:
    if tag in PRIMARY_TAGS:
        return tag
    if tag in LEMMA_TAGS:
        return "lemma-1.1"
    return None


class CheckResult(_FrozenRecord):
    def __init__(self, tag: str, passed: bool, witness: tuple | None = None, detail: str = ""):
        self._set(tag, passed, witness, detail)

    @property
    def internal(self) -> bool:
        return self.tag in INTERNAL_TAGS or self.tag in LEMMA_TAGS


class VerificationReport(_Record):
    """Per-axiom outcomes, in canonical check order."""

    def __init__(self, checks: list[CheckResult] | None = None):
        self._set([] if checks is None else checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing_tags(self) -> list[str]:
        seen = []
        for c in self.checks:
            if not c.passed and c.tag not in seen:
                seen.append(c.tag)
        return seen

    def failing_families(self) -> list[str]:
        out = []
        for tag in self.failing_tags():
            fam = tag_family(tag)
            if fam is not None and fam not in out:
                out.append(fam)
        return out

    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def internal_inconsistency(self) -> bool:
        """A consequence failed although every primary axiom passed."""
        primary_ok = all(c.passed for c in self.checks if c.tag in PRIMARY_TAGS)
        return primary_ok and any(not c.passed for c in self.checks if c.internal)

    def result(self, tag: str) -> CheckResult:
        for c in self.checks:
            if c.tag == tag:
                return c
        raise KeyError(tag)

    def to_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            where = "" if c.witness is None else f"  at {c.witness}"
            extra = f"  ({c.detail})" if c.detail and not c.passed else ""
            lines.append(f"{status:4}  {c.tag}{where}{extra}")
        verdict = "PASS" if self.passed else "FAIL"
        if self.internal_inconsistency():
            verdict += " (internal inconsistency: a consequence failed with all axioms green)"
        lines.append(f"overall: {verdict}")
        return lines

    def to_summary(self) -> dict:
        return {
            "status": "pass" if self.passed else "fail",
            "internal_inconsistency": self.internal_inconsistency(),
            "checks": [
                {
                    "tag": c.tag,
                    "passed": c.passed,
                    "witness": list(c.witness) if c.witness is not None else None,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# per-call index tables
# ---------------------------------------------------------------------------


class _Tables:
    """Everything one ``verify`` call reads, as lists indexed by integers.

    Module elements become positions in ``el`` (the order of ``A.elements()``)
    with product, inverse, action and kappa tables over them.  Blocks, tensors
    and the unit are the stored row lists, whose entries are residues already:
    ``mult[a][b][i][j]`` is e_i e_j and ``mcol[a][b][t][s]`` is e_s e_t.
    Derived: ``mk[a][b][x][i][j]`` is x.(e_i e_j) and ``pk[b][a][x]`` the
    block of v -> x.phi_b(v) on V_a, for x in the subgroup kappa's values
    generate (None at any other x); ``pm[a][i][j]`` is the pairing
    eta(e_i e_j, unit) of V_a with V_{a^-1}, also as width-1 rows:
    ``pt[a][i][j]`` is ``[pm[a][i][j]]`` and ``pc[a][j][i]`` the same row.
    """

    def __init__(self, V: TFAlgebra):
        G, A, F = V.context.group, V.context.module, V.context.field
        Gs, dims, mul = G.elements(), V.dims, G.table
        self.F, self.dims, self.e, self.G = F, dims, G.identity, Gs
        self.mul, self.inv = mul, G.inverse
        self.conj = conj = [[mul[ba][binv] for ba in mul[b]] for b, binv in zip(Gs, G.inverse)]
        self.el = el = list(A.elements())
        pos = {x: k for k, x in enumerate(el)}
        self.one, self.ainv = pos[A.one()], [pos[A.inv(x)] for x in el]
        self.amul = [[pos[A.mul(x, y)] for y in el] for x in el]
        self.aact = [[pos[A.act(g, x)] for x in el] for g in Gs]
        # kappa's values as positions in el, by mixed radix: for rank 1 they are the positions
        n, k, kap = G.order, A.rank, V.context.kappa.values
        if k != 1:
            kap, values = [0] * n**3, kap
            for i, m in enumerate(A.moduli):
                kap = [p * m + x for p, x in zip(kap, values[i::k])]
        self.kap = [[kap[(a * n + b) * n : (a * n + b + 1) * n] for b in Gs] for a in Gs]
        self.act = act = [[V.a_action[(a, x)].rows for x in el] for a in Gs]
        self.phi = phi = [[V.phi[(b, a)].rows for a in Gs] for b in Gs]
        self.mult = mult = [[V.mult[(a, b)] for b in Gs] for a in Gs]
        self.eta, self.unit = V.eta.rows, V.unit
        self.mcol = [[[[r[t] for r in mult[a][b]] for t in range(dims[b])] for b in Gs] for a in Gs]
        # x.(e_i e_j) and x.phi_b(e_i), one block per x in the subgroup that kappa's
        # values generate: the only module elements the twisted identities act by
        reach, gens, grown = {self.one}, set(kap), [self.one]
        for x in grown:
            new = {self.amul[x][g] for g in gens} - reach
            reach |= new
            grown += new
        xs = [(x, x in reach) for x in range(len(el))]
        self.mk = [[[[_matmul(F, r, act[ab][x], dims[ab]) for r in mult[a][b]] if hit else None
                     for x, hit in xs] for b, ab in zip(Gs, mul[a])] for a in Gs]
        self.pk = [[[_matmul(F, phi[b][a], act[c][x], dims[c]) if hit else None for x, hit in xs]
                    for a, c in zip(Gs, conj[b])] for b in Gs]
        self.ident = {d: Matrix.identity(F, d).rows for d in set(dims)}
        etau = [_dot(F, self.unit, row) for row in self.eta]
        self.pm = pm = [[[_dot(F, w, etau) for w in row] for row in mult[a][G.inv(a)]] for a in Gs]
        self.pt = [[[[w] for w in row] for row in P] for P in pm]
        self.pc = [[[[row[j]] for row in P] for j in range(dims[G.inverse[a]])] for a, P in zip(Gs, pm)]
        # rows of the inverse of each nonempty conjugation block, None where it has none
        self.phinv = {k: _inverse(F, M.rows, M.nrows) if M.nrows == M.ncols else None
                      for k, M in V.phi.items() if M.nrows}


# ---------------------------------------------------------------------------
# individual checks, in the order of ALL_TAGS; each yields (witness, detail)
# at a failure, and the driver reads the first
# ---------------------------------------------------------------------------


def _check_bimodule(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    """Module action: rho_a(1)=id, homomorphism, invertible, grading law."""
    F, el = T.F, T.el
    for a in T.G:
        d, acts = T.dims[a], T.act[a]
        if acts[T.one] != T.ident[d]:
            yield (a, el[T.one]), "identity of A must act as id"
        for x, M in enumerate(acts):
            if d and _inverse(F, M, d) is None:
                yield (a, el[x]), "module action not invertible"
            # grading law: x acts as its a-twist on component a
            if M != acts[T.aact[a][x]]:
                yield (a, el[x]), "action of x and of (a.x) differ on V_a"
            for y, N in enumerate(acts):
                if _matmul(F, M, N, d) != acts[T.amul[x][y]]:
                    yield (a, el[x], el[y]), "action is not a homomorphism"


def _check_associativity(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, G, dims, mul, mult, mcol, mk, kap = T.F, T.G, T.dims, T.mul, T.mult, T.mcol, T.mk, T.kap
    for a in G:
        for b in G:
            ab, uvs, kab = mul[a][b], mult[a][b], kap[a][b]
            for c in G:
                n, bc = dims[mul[ab][c]], mul[b][c]
                # (u v) w  against  kappa . (u (v w))
                cols, vws, kus = mcol[ab][c], mult[b][c], mk[a][bc][kab[c]]
                for i, uvrow in enumerate(uvs):
                    for j, uv in enumerate(uvrow):
                        for t, vw in enumerate(vws[j]):
                            if not _agree(F, uv, cols[t], vw, kus[i], n):
                                yield (a, b, c, i, j, t), ""


def _check_unit(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, e = T.F, T.e
    for a in T.G:
        d = T.dims[a]
        for i, u in enumerate(T.ident[d]):
            if _comb(F, T.unit, T.mcol[e][a][i], d) != u:
                yield (a, i), "left unit fails"
            if _comb(F, T.unit, T.mult[a][e][i], d) != u:
                yield (a, i), "right unit fails"


def _check_eta_symmetric(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    rows = T.eta
    for i in range(len(rows)):
        for j in range(len(rows)):
            if rows[i][j] != rows[j][i]:
                yield (i, j), ""


def _check_eta_nondegenerate(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    d = V.dims[V.context.identity]
    if V.eta.rank() != d:
        yield (), f"rank {V.eta.rank()} < {d}"


def _check_pairing(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    dims = T.dims
    for a in T.G:
        ainv = T.inv[a]
        if dims[a] != dims[ainv]:
            detail = f"dims {dims[a]} != {dims[ainv]} on inverse components"
            yield (a,), detail
        rank = Matrix(T.F, T.pm[a], ncols=dims[ainv]).rank()
        if rank != dims[a]:
            yield (a,), f"pairing rank {rank} < {dims[a]}"


def _check_phi_module(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    """phi_b (x v) = (b.x) phi_b(v): block identity per (b, a, x)."""
    F = T.F
    for b in T.G:
        for a in T.G:
            c = T.conj[b][a]
            blk, n, acts = T.phi[b][a], T.dims[c], T.act[c]
            for x, M in enumerate(T.act[a]):
                # act by x then conjugate, against conjugate then act by b.x, row by row
                K = acts[T.aact[b][x]]
                for row, prow in zip(M, blk):
                    if not _agree(F, row, blk, prow, K, n):
                        yield (b, a, T.el[x]), ""
                        break


def _check_phi_fix(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    for b in T.G:
        if T.phi[b][b] != T.ident[T.dims[b]]:
            yield (b,), ""


def _check_phi_unit(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    for b in T.G:
        if _comb(T.F, T.unit, T.phi[b][T.e], len(T.unit)) != T.unit:
            yield (b,), ""


def _check_phi_commute(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    """v u = phi_b(u) v for v in V_b, u anywhere."""
    F = T.F
    for b in T.G:
        for a in T.G:
            blk, n = T.phi[b][a], T.dims[T.mul[b][a]]
            vus, cols = T.mult[b][a], T.mcol[T.conj[b][a]][b]
            for j, vu in enumerate(vus):
                for i, pu in enumerate(blk):
                    if _comb(F, pu, cols[j], n) != vu[i]:
                        yield (b, a, j, i), ""


def _check_phi_isometry(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, eta, d = T.F, T.eta, T.dims[T.e]
    for b in T.G:
        blk = T.phi[b][T.e]
        # eta(phi u, phi v) == eta(u, v) as a matrix identity
        if _matmul(F, _matmul(F, blk, eta, d), [list(col) for col in zip(*blk)], d) != eta:
            yield (b,), ""


def _check_phi_mult(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, G, dims, mul, mult, kap, m, ainv = T.F, T.G, T.dims, T.mul, T.mult, T.kap, T.amul, T.ainv
    for b in G:
        cb, Pb, pkb = T.conj[b], T.phi[b], T.pk[b]
        for a in G:
            ca, kba = cb[a], kap[b][a]
            kca, kcab = kap[ca], kap[ca][b]
            for g in G:
                ag, cg = mul[a][g], cb[g]
                # phi_b(u) phi_b(v)  against  l . phi_b(u v), with the A-element
                # l = kappa(ca, cg, b) kappa(ca, b, g)^-1 kappa(b, a, g)
                n, pp, uvs = dims[cb[ag]], mult[ca][cg], mult[a][g]
                lpk = pkb[ag][m[m[kca[cg][b]][ainv[kcab[g]]]][kba[g]]]
                for i, pu in enumerate(Pb[a]):
                    for j, pv in enumerate(Pb[g]):
                        if not _agree_product(F, pu, pv, pp, uvs[i][j], lpk, n):
                            yield (b, a, g, i, j), ""


def _check_phi_compose(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, dims = T.F, T.dims
    # invertibility first: the composition law forces it
    for b in T.G:
        for a in T.G:
            if dims[a] != dims[T.conj[b][a]]:
                yield (b, a), "conjugation block is not square"
            if dims[a] and T.phinv[(b, a)] is None:
                yield (b, a), "conjugation block is singular"
    G, phi, conj, kap, m, ainv = T.G, T.phi, T.conj, T.kap, T.amul, T.ainv
    for c in G:
        pkc, kc = T.pk[c], kap[c]
        for b in G:
            cb, cjb, kcb = T.mul[c][b], conj[b], kap[c][b]
            for a in G:
                # phi_{cb}  against  phi_b then phi_c then the A-element
                # h = kappa(cb.a, c, b) kappa(c, b.a, b)^-1 kappa(c, b, a)
                cba, ba = conj[cb][a], cjb[a]
                hpk = pkc[ba][m[m[kap[cba][c][b]][ainv[kc[ba][b]]]][kcb[a]]]
                if phi[cb][a] != _matmul(F, phi[b][a], hpk, dims[cba]):
                    yield (c, b, a), ""


def _check_trace(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    """Two twisted traces agree for every homogeneous left multiplier."""
    F, dims, mul, inv, act, kap = T.F, T.dims, T.mul, T.inv, T.act, T.kap
    for a in T.G:
        for b in T.G:
            comm, ba, db = mul[mul[a][b]][mul[inv[a]][inv[b]]], T.conj[b][a], dims[b]
            unconj = T.phinv[(a, b)] if db else []
            if unconj is None:
                if dims[comm]:
                    yield (a, b, 0), "conjugation block is singular"
                continue
            # each side is trace(C W) = sum_k,m C[k][m] W[m][k], C the multiplier's block
            # and W: on V_a conjugate by b and act by kappa, on V_b un-conjugate by a and
            # act by kappa
            left = _matmul(F, act[a][kap[comm][b][a]], T.phi[b][a], dims[ba])
            right = _matmul(F, unconj, act[b][kap[comm][ba][b]], db)
            left = [[w[k]] for k in range(dims[ba]) for w in left]
            right = [[w[j]] for j in range(db) for w in right]
            for t in range(dims[comm]):
                lhs = [x for row in T.mult[comm][ba][t] for x in row]
                rhs = [x for row in T.mult[comm][b][t] for x in row]
                if not _agree(F, lhs, left, rhs, right, 1):
                    yield (a, b, t), ""


def _check_lemma_a(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, dims = T.F, T.dims
    for a in T.G:
        ainv, pt, pc = T.inv[a], T.pt[a], T.pc[a]
        for x in range(len(T.el)):
            # eta(x u, v) against eta(u, x v)
            xu, xv = T.act[a][x], T.act[ainv][x]
            for i in range(dims[a]):
                for j in range(dims[ainv]):
                    if not _agree(F, xu[i], pc[j], xv[j], pt[i], 1):
                        yield (a, T.el[x], i, j), ""


def _check_lemma_b(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, dims = T.F, T.dims
    for a in T.G:
        ainv = T.inv[a]
        # eta(u v) against eta(t v, u) with t the inverse kappa-scalar
        tv, pt, pc = T.act[ainv][T.ainv[T.kap[ainv][a][ainv]]], T.pt[a], T.pc[ainv]
        for i in range(dims[a]):
            for j in range(dims[ainv]):
                if _comb(F, tv[j], pc[i], 1) != pt[i][j]:
                    yield (a, i, j), ""


def _check_lemma_c(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, kap, m, ainvs = T.F, T.kap, T.amul, T.ainv
    for b in T.G:
        for a in T.G:
            ainv, ca = T.inv[a], T.conj[b][a]
            # eta(phi_b u, phi_b v) against eta(l u, v), with l as in phi-mult at g = a^-1
            cg, pt, pc = T.conj[b][ainv], T.pt[ca], T.pc[a]
            lu = T.act[a][m[m[kap[ca][cg][b]][ainvs[kap[ca][b][ainv]]]][kap[b][a][ainv]]]
            for i, pu in enumerate(T.phi[b][a]):
                for j, pv in enumerate(T.phi[b][ainv]):
                    if not _agree_product(F, pu, pv, pt, lu[i], pc[j], 1):
                        yield (b, a, i, j), ""


def _check_lemma_d(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F = T.F
    for a in T.G:
        for b in T.G:
            ab, abinv = T.mul[a][b], T.inv[T.mul[a][b]]
            # eta(u v, w) against eta(kappa u, v w)
            ku, pt, pc = T.act[a][T.kap[a][b][abinv]], T.pt[a], T.pc[ab]
            for i, uvrow in enumerate(T.mult[a][b]):
                for j, vws in enumerate(T.mult[b][abinv]):
                    for t, vw in enumerate(vws):
                        if not _agree_product(F, ku[i], vw, pt, uvrow[j], pc[t], 1):
                            yield (a, b, i, j, t), ""


def _check_bilinearity(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    """x(uv) = (xu)v = u(xv): the module acts by central scalars on products."""
    F = T.F
    for a in T.G:
        for b in T.G:
            uvs, cols, ab = T.mult[a][b], T.mcol[a][b], T.mul[a][b]
            n = T.dims[ab]
            for x, K in enumerate(T.act[ab]):
                xus, xvs, xe = T.act[a][x], T.act[b][x], T.el[x]
                for i, uvrow in enumerate(uvs):
                    for j, uv in enumerate(uvrow):
                        if not _agree(F, uv, K, xus[i], cols[j], n):
                            yield (a, b, xe, i, j), "x(uv) != (xu)v"
                        if not _agree(F, uv, K, xvs[j], uvs[i], n):
                            yield (a, b, xe, i, j), "x(uv) != u(xv)"


def _check_phi_identity(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    for a in T.G:
        if T.phi[T.e][a] != T.ident[T.dims[a]]:
            yield (a,), ""


def _check_phi_inverse_scalar(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    """On V_{a^-1}, phi_a acts by the inverse kappa(a^-1, a, a^-1)-scalar."""
    for a in T.G:
        ainv = T.inv[a]
        if T.phi[a][ainv] != T.act[ainv][T.ainv[T.kap[ainv][a][ainv]]]:
            yield (a,), ""


_CHECKS = (
    _check_bimodule,
    _check_associativity,
    _check_unit,
    _check_eta_symmetric,
    _check_eta_nondegenerate,
    _check_pairing,
    _check_phi_module,
    _check_phi_fix,
    _check_phi_unit,
    _check_phi_commute,
    _check_phi_isometry,
    _check_phi_mult,
    _check_phi_compose,
    _check_trace,
    _check_lemma_a,
    _check_lemma_b,
    _check_lemma_c,
    _check_lemma_d,
    _check_bilinearity,
    _check_phi_identity,
    _check_phi_inverse_scalar,
)


def verify(V: TFAlgebra) -> VerificationReport:
    """Run every axiom and consequence check; never raises on bad data."""
    T = _Tables(V)
    checks = []
    for tag, check in zip(ALL_TAGS, _CHECKS):
        failure = next(check(V, T), None)
        checks.append(CheckResult(tag, True) if failure is None else CheckResult(tag, False, *failure))
    return VerificationReport(checks)
