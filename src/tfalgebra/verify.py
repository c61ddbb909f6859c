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
tables goes through the row-list kernel of :mod:`linalg` (``_comb``,
``_product``, ``_dot``, ``_matmul``), the same loops that ``Matrix.mul``,
``apply_map`` and ``TFAlgebra.multiply`` run.  Entries are stored as
residues (``Matrix`` and ``TFAlgebra`` reduce them once, as they store them);
nothing downstream re-reduces.  So the tables read the stored rows as they
are, and an entry given unreduced (6 over F5) compares as its residue in
vector and block identities alike.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._record import _FrozenRecord, _Record
from .algebra import TFAlgebra
from .linalg import Matrix, _comb, _dot, _matmul, _product

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
    Derived: ``mk[a][b][x][i][j]`` is x.(e_i e_j), ``pk[b][a][x]`` the block
    of v -> x.phi_b(v) on V_a, and ``pm[a][i][j]`` the pairing
    eta(e_i e_j, unit) of V_a with V_{a^-1}.
    """

    def __init__(self, V: TFAlgebra):
        G, A, F = V.context.group, V.context.module, V.context.field
        Gs, dims, mul = G.elements(), V.dims, G.table
        self.F, self.dims, self.e, self.G = F, dims, G.identity, Gs
        self.mul, self.inv = mul, G.inverse
        self.conj = conj = [[G.conj(b, a) for a in Gs] for b in Gs]
        self.el = el = list(A.elements())
        pos = {x: k for k, x in enumerate(el)}
        self.one, self.ainv = pos[A.one()], [pos[A.inv(x)] for x in el]
        self.amul = [[pos[A.mul(x, y)] for y in el] for x in el]
        self.aact = [[pos[A.act(g, x)] for x in el] for g in Gs]
        n, kap = G.order, [pos[v] for v in V.context.kappa.entries()]
        self.kap = [[kap[(a * n + b) * n : (a * n + b + 1) * n] for b in Gs] for a in Gs]
        self.act = act = [[V.a_action[(a, x)].rows for x in el] for a in Gs]
        self.phi = phi = [[V.phi[(b, a)].rows for a in Gs] for b in Gs]
        self.mult = mult = [[V.mult[(a, b)] for b in Gs] for a in Gs]
        self.eta, self.unit = V.eta.rows, V.unit
        self.mcol = [[[[r[t] for r in mult[a][b]] for t in range(dims[b])] for b in Gs] for a in Gs]
        # x.(e_i e_j) and x.phi_b(e_i), one block per module element x
        self.mk = [[[[_matmul(F, r, K, dims[ab]) for r in mult[a][b]] for K in act[ab]]
                    for b, ab in zip(Gs, mul[a])] for a in Gs]
        self.pk = [[[_matmul(F, phi[b][a], K, dims[c]) for K in act[c]]
                    for a, c in zip(Gs, conj[b])] for b in Gs]
        self.ident = {d: Matrix.identity(F, d).rows for d in set(dims)}
        etau = [_dot(F, self.unit, row) for row in self.eta]
        self.pm = [[[_dot(F, w, etau) for w in row] for row in mult[a][G.inv(a)]] for a in Gs]
        # rows of the inverse of each nonempty conjugation block, None where it has none
        inverses = {k: M.inverse() for k, M in V.phi.items() if M.nrows}
        self.phinv = {k: None if M is None else M.rows for k, M in inverses.items()}


def _l_value(T: _Tables, b: int, a: int, g: int) -> int:
    """The A-element l with phi_b(u) phi_b(v) = l . phi_b(u v) for u in V_a, v in V_g."""
    kap, m, ca, cg = T.kap, T.amul, T.conj[b][a], T.conj[b][g]
    return m[m[kap[ca][cg][b]][T.ainv[kap[ca][b][g]]]][kap[b][a][g]]


def _h_value(T: _Tables, c: int, b: int, a: int) -> int:
    """The A-element relating phi_{cb} with phi_c . phi_b on V_a."""
    kap, m, cb = T.kap, T.amul, T.mul[c][b]
    return m[m[kap[T.conj[cb][a]][c][b]][T.ainv[kap[c][T.conj[b][a]][b]]]][kap[c][b][a]]


def _is_image(F, vec, coeffs, rows) -> bool:
    """Whether vec = sum_k coeffs[k] rows[k]; the table entries are reduced, so lists compare."""
    return _comb(F, coeffs, rows, len(vec)) == vec


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
            if d and V.a_action[(a, el[x])].rank() != d:
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
                            if not _is_image(F, _comb(F, uv, cols[t], n), vw, kus[i]):
                                yield (a, b, c, i, j, t), ""


def _check_unit(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, e = T.F, T.e
    for a in T.G:
        d = T.dims[a]
        for i, u in enumerate(T.ident[d]):
            if not _is_image(F, u, T.unit, T.mcol[e][a][i]):
                yield (a, i), "left unit fails"
            if not _is_image(F, u, T.unit, T.mult[a][e][i]):
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
            blk, n, pk = T.phi[b][a], T.dims[T.conj[b][a]], T.pk[b][a]
            for x, M in enumerate(T.act[a]):
                # act by x, then conjugate
                if _matmul(F, M, blk, n) != pk[T.aact[b][x]]:
                    yield (b, a, T.el[x]), ""


def _check_phi_fix(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    for b in T.G:
        if T.phi[b][b] != T.ident[T.dims[b]]:
            yield (b,), ""


def _check_phi_unit(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    for b in T.G:
        if not _is_image(T.F, T.unit, T.unit, T.phi[b][T.e]):
            yield (b,), ""


def _check_phi_commute(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    """v u = phi_b(u) v for v in V_b, u anywhere."""
    F = T.F
    for b in T.G:
        for a in T.G:
            blk = T.phi[b][a]
            vus, cols = T.mult[b][a], T.mcol[T.conj[b][a]][b]
            for j, vu in enumerate(vus):
                for i, pu in enumerate(blk):
                    if not _is_image(F, vu[i], pu, cols[j]):
                        yield (b, a, j, i), ""


def _check_phi_isometry(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, eta, d = T.F, T.eta, T.dims[T.e]
    for b in T.G:
        blk = T.phi[b][T.e]
        # eta(phi u, phi v) == eta(u, v) as a matrix identity
        if _matmul(F, _matmul(F, blk, eta, d), [list(col) for col in zip(*blk)], d) != eta:
            yield (b,), ""


def _check_phi_mult(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, G, dims, mul, mult = T.F, T.G, T.dims, T.mul, T.mult
    for b in G:
        cb, Pb, pkb = T.conj[b], T.phi[b], T.pk[b]
        for a in G:
            for g in G:
                ag = mul[a][g]
                # phi_b(u) phi_b(v)  against  l . phi_b(u v)
                n, pp, uvs = dims[cb[ag]], mult[cb[a]][cb[g]], mult[a][g]
                lpk = pkb[ag][_l_value(T, b, a, g)]
                for i, pu in enumerate(Pb[a]):
                    for j, pv in enumerate(Pb[g]):
                        if not _is_image(F, _product(F, pu, pv, pp, n), uvs[i][j], lpk):
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
    G, phi, conj = T.G, T.phi, T.conj
    for c in G:
        pkc = T.pk[c]
        for b in G:
            cb, cjb = T.mul[c][b], conj[b]
            for a in G:
                # phi_{cb}  against  phi_b then phi_c then the h-scalar
                hpk = pkc[cjb[a]][_h_value(T, c, b, a)]
                if phi[cb][a] != _matmul(F, phi[b][a], hpk, dims[conj[cb][a]]):
                    yield (c, b, a), ""


def _check_trace(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    """Two twisted traces agree for every homogeneous left multiplier."""
    F, dims, mul, inv = T.F, T.dims, T.mul, T.inv
    for a in T.G:
        for b in T.G:
            comm, ba, da, db = mul[mul[a][b]][mul[inv[a]][inv[b]]], T.conj[b][a], dims[a], dims[b]
            kappa_c = T.mk[comm][ba][T.kap[comm][b][a]]
            K2 = T.act[b][T.kap[comm][ba][b]]
            unconj = T.phinv[(a, b)] if db else []
            for t in range(dims[comm]):
                # left side: V_a -> V_a, conjugate by b, multiply by c, act by kappa
                lhs = F.zero
                for i, pu in enumerate(T.phi[b][a]):
                    lhs = F.add(lhs, _comb(F, pu, kappa_c[t], da)[i])
                # right side: V_b -> V_b, multiply by c, un-conjugate by a, act by kappa
                if unconj is None:
                    yield (a, b, t), "conjugation block is singular"
                rhs = F.zero
                for j, cv in enumerate(T.mult[comm][b][t]):
                    rhs = F.add(rhs, _comb(F, _comb(F, cv, unconj, db), K2, db)[j])
                if lhs != rhs:
                    yield (a, b, t), ""


def _check_lemma_a(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, dims = T.F, T.dims
    for a in T.G:
        ainv, P = T.inv[a], T.pm[a]
        for x in range(len(T.el)):
            # eta(x u, v) against eta(u, x v)
            xu, xv = _matmul(F, T.act[a][x], P, dims[ainv]), T.act[ainv][x]
            for i in range(dims[a]):
                for j in range(dims[ainv]):
                    if xu[i][j] != _dot(F, xv[j], P[i]):
                        yield (a, T.el[x], i, j), ""


def _check_lemma_b(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, dims = T.F, T.dims
    for a in T.G:
        ainv = T.inv[a]
        # eta(u v) against eta(t v, u) with t the inverse kappa-scalar
        tv, cols = T.act[ainv][T.ainv[T.kap[ainv][a][ainv]]], [list(c) for c in zip(*T.pm[ainv])]
        for i in range(dims[a]):
            for j in range(dims[ainv]):
                if T.pm[a][i][j] != _dot(F, tv[j], cols[i]):
                    yield (a, i, j), ""


def _check_lemma_c(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, dims = T.F, T.dims
    for b in T.G:
        for a in T.G:
            ainv, ca = T.inv[a], T.conj[b][a]
            # eta(phi_b u, phi_b v) against eta(l u, v)
            pu = _matmul(F, T.phi[b][a], T.pm[ca], dims[T.inv[ca]])
            lu = _matmul(F, T.act[a][_l_value(T, b, a, ainv)], T.pm[a], dims[ainv])
            for i in range(dims[a]):
                for j, pv in enumerate(T.phi[b][ainv]):
                    if _dot(F, pv, pu[i]) != lu[i][j]:
                        yield (b, a, i, j), ""


def _check_lemma_d(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    F, dims = T.F, T.dims
    for a in T.G:
        for b in T.G:
            ab, abinv = T.mul[a][b], T.inv[T.mul[a][b]]
            # eta(u v, w) against eta(kappa u, v w)
            ku = _matmul(F, T.act[a][T.kap[a][b][abinv]], T.pm[a], dims[T.inv[a]])
            for i, uvrow in enumerate(T.mult[a][b]):
                for j, vws in enumerate(T.mult[b][abinv]):
                    left = _comb(F, uvrow[j], T.pm[ab], dims[abinv])
                    for t, vw in enumerate(vws):
                        if left[t] != _dot(F, vw, ku[i]):
                            yield (a, b, i, j, t), ""


def _check_bilinearity(V: TFAlgebra, T: _Tables) -> Iterator[tuple]:
    """x(uv) = (xu)v = u(xv): the module acts by central scalars on products."""
    F = T.F
    for a in T.G:
        for b in T.G:
            uvs, cols = T.mult[a][b], T.mcol[a][b]
            for x, wholes in enumerate(T.mk[a][b]):
                xus, xvs, xe = T.act[a][x], T.act[b][x], T.el[x]
                for i, whole_row in enumerate(wholes):
                    for j, whole in enumerate(whole_row):
                        if not _is_image(F, whole, xus[i], cols[j]):
                            yield (a, b, xe, i, j), "x(uv) != (xu)v"
                        if not _is_image(F, whole, xvs[j], uvs[i]):
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
