"""Consistent sequences of S_n-representations and their stability checkers.

Every sequence is a Sequence: per level n an explicit representation (a
rep.Rep: a span inside a free module acting through an index, possibly as
a quotient) and the connecting maps phi_n, with n_min and the starts of its
monotone and stable ranges set once, as attributes, by its construction's
proposition.  The checkers verify, on a finite window, the three
uniform-stability conditions and the monotonicity condition; the latter
quantifies over isotypic components, which suffices by semisimplicity.
Both walk one level loop, whose builder _level decomposes each level once.

Two backends coexist: multiplicity bookkeeping through induced characters
(fast; _level takes a hint whose degree is the level's dimension) and
explicit linear algebra (needed for Conditions I/II, for monotonicity, which
quantifies over subspaces, and for levels without a usable hint).
On the explicit side, Rep.character reads traces off the pivots of the
reduced echelon basis, and both checkers read constituents through one pair
of Gelfand-Tsetlin methods: Rep.weight_vectors gives m_mu weight vectors of
the row-reading tableau of each constituent mu of level n, whose S_n-span
is its isotypic component, and Rep.span_multiplicities reads the
multiplicities of span(S_{n+1} . phi_n(those)) off their projections by the
last Jucys-Murphy element, each carried onto one tableau of its
constituent, with a weight guard for a phi_n that is not S_n-equivariant.
No span is closed and nothing sums over S_n.

Every level acts through a KeyIndex: levels inside a tabloid module
(induced modules and Specht spans, and the quotients, kernels and images
built from them, which reuse their source's index) through
specht.tabloid_index, and a sum through one index over its tagged keys
whose key action is its summands'.  Without a modulus traces are read off
the pivots with no action, while quotients act and reduce.
All verdicts are statements about the tested window only.
"""

from fractions import Fraction

from ._record import Frozen, Record
from .characters import (
    ClassFunction,
    decompose,
    induced_character,
    irreducible_character,
    young_permutation_character,
)
from .linalg import Echelon, add_into, kernel_basis, span_dim
from .partitions import Partition, curly_pad, dim_irrep, partitions_of, unpad
from .rep import KeyIndex, Rep
from .specht import iota, specht_module, tabloid_index
from .tabloids import PseudoTabloid


# ---------------------------------------------------------------------------
# sequences


class Sequence:
    """A consistent sequence: level n >= n_min is rep(n), phi(n, v) maps it
    into level n + 1, and character_hint(n), when not None, is its character.
    Its construction's proposition puts the monotone range at
    n >= monotone_start and the stable range at n >= stable_start."""

    def __init__(self, label: str, n_min: int, monotone_start: int, stable_start: int):
        self.label = label
        self.n_min = n_min
        self.monotone_start = monotone_start
        self.stable_start = stable_start

    def character_hint(self, n: int) -> ClassFunction | None:
        return None


class InducedModuleSequence(Sequence):
    """I_n(M^lam): free on pseudo-tabloids, phi reinterprets the ambient."""

    def __init__(self, lam: Partition):
        self.lam = lam
        k = sum(lam)
        # Prop: an induced sequence is monotone from |lam| and stable from 2|lam|
        super().__init__(f"I_n(M^{lam})", k, k, 2 * k)

    def rep(self, n: int) -> Rep:
        index = tabloid_index(self.lam, n)
        return Rep(n, index, [{t: 1} for t in index.keys])

    def character_hint(self, n: int) -> ClassFunction:
        k = sum(self.lam)
        return young_permutation_character(n, tuple(self.lam) + ((n - k,) if n > k else ()))

    def phi(self, n: int, v: dict) -> dict:
        return iota(v)


class InducedSpechtSequence(InducedModuleSequence):
    """I_n(V_lam) inside I_n(M^lam)."""

    def __init__(self, lam: Partition):
        super().__init__(lam)
        self.label = f"I_n(V_{lam})"

    def rep(self, n: int) -> Rep:
        return specht_module(self.lam, n)

    def character_hint(self, n: int) -> ClassFunction:
        return induced_character(irreducible_character(self.lam), n)


class SumSequence(Sequence):
    def __init__(self, left, right):
        self.left = left
        self.right = right
        super().__init__(
            f"{left.label} (+) {right.label}",
            max(left.n_min, right.n_min),
            max(left.monotone_start, right.monotone_start),
            max(left.stable_start, right.stable_start),
        )

    def rep(self, n: int) -> Rep:
        """Keys tagged ("L" | "R", key) on one KeyIndex, whose key action
        hands each key to its summand's index; the summands' moduli become
        one modulus over its positions."""
        parts = {"L": self.left.rep(n), "R": self.right.rep(n)}

        def act_key(sigma, key):
            t, k = key
            return t, parts[t].index.act_key(sigma, k)

        def tag(t, v: dict) -> dict:
            return {(t, k): c for k, c in v.items()}

        index = KeyIndex([(t, k) for t, part in parts.items() for k in part.index.keys], act_key)
        moduli = [index.encode(tag(t, w)) for t, part in parts.items() for w in part.modulus_basis()]
        vectors = [tag(t, v) for t, part in parts.items() for v in part.basis()]
        return Rep(n, index, vectors, modulus=Echelon(moduli) if moduli else None)

    def character_hint(self, n: int) -> ClassFunction | None:
        left, right = self.left.character_hint(n), self.right.character_hint(n)
        return None if left is None or right is None else left + right

    def phi(self, n: int, v: dict) -> dict:
        lpart = {k: c for (tag, k), c in v.items() if tag == "L"}
        rpart = {k: c for (tag, k), c in v.items() if tag == "R"}
        out = {("L", k): c for k, c in self.left.phi(n, lpart).items()}
        out.update({("R", k): c for k, c in self.right.phi(n, rpart).items()})
        return out


class QuotientSequence(Sequence):
    """V_n / W_n for a subsequence W < V over the same ambient keys."""

    def __init__(self, big, small):
        self.big = big
        self.small = small
        # Prop: the quotient is monotone once the subsequence is stable
        super().__init__(
            f"({big.label}) / ({small.label})",
            max(big.n_min, small.n_min),
            max(big.monotone_start, small.stable_start),
            max(big.stable_start, small.stable_start),
        )

    def rep(self, n: int) -> Rep:
        w_rep = self.small.rep(n)
        v_rep = self.big.rep(n)
        return Rep(n, w_rep.index, v_rep.basis(), modulus=w_rep.echelon)

    def character_hint(self, n: int) -> ClassFunction | None:
        big, small = self.big.character_hint(n), self.small.character_hint(n)
        return None if big is None or small is None else big - small

    def phi(self, n: int, v: dict) -> dict:
        return self.big.phi(n, v)


class MapSequence:
    """A consistent family f_n: domain_n -> codomain_n given by a key map."""

    def __init__(self, domain, codomain, key_map, label="f"):
        self.domain = domain
        self.codomain = codomain
        self.key_map = key_map
        self.label = label

    def apply(self, v: dict) -> dict:
        out: dict = {}
        for key, c in v.items():
            key2, coeff = self.key_map(key)
            add_into(out, {key2: coeff * c})
        return out


def _map_ranges(fmap: MapSequence) -> tuple[int, int, int]:
    """n_min, monotone_start and stable_start of ker f and of im f."""
    # Prop: both are monotone and stable once the domain is stable and the codomain monotone
    start = max(fmap.domain.stable_start, fmap.codomain.monotone_start)
    return fmap.domain.n_min, start, start


class KernelSequence(Sequence):
    def __init__(self, fmap: MapSequence):
        self.fmap = fmap
        super().__init__(f"ker({fmap.label})", *_map_ranges(fmap))

    def rep(self, n: int) -> Rep:
        domain = self.fmap.domain.rep(n)
        basis = domain.basis()
        kernel = kernel_basis([self.fmap.apply(v) for v in basis], basis)
        return Rep(n, domain.index, kernel)

    def phi(self, n: int, v: dict) -> dict:
        return self.fmap.domain.phi(n, v)


class ImageSequence(Sequence):
    def __init__(self, fmap: MapSequence):
        self.fmap = fmap
        super().__init__(f"im({fmap.label})", *_map_ranges(fmap))

    def rep(self, n: int) -> Rep:
        domain = self.fmap.domain.rep(n)
        codomain = self.fmap.codomain.rep(n)
        images = [self.fmap.apply(v) for v in domain.basis()]
        return Rep(n, codomain.index, images)

    def phi(self, n: int, v: dict) -> dict:
        return self.fmap.codomain.phi(n, v)


class ZeroPhiSequence(Sequence):
    """A deliberately broken sequence: phi_n = 0 (monotonicity must fail)."""

    def __init__(self, base):
        self.base = base
        super().__init__(f"{base.label} with phi = 0", base.n_min, base.monotone_start, base.stable_start)

    def rep(self, n: int) -> Rep:
        return self.base.rep(n)

    def character_hint(self, n: int) -> ClassFunction | None:
        return self.base.character_hint(n)

    def phi(self, n: int, v: dict) -> dict:
        return {}


def row_merge_key(t: PseudoTabloid):
    """Row symmetrization onto the one-row shape: stack all rows, sorted."""
    merged = tuple(sorted(x for row in t.rows for x in row))
    return PseudoTabloid(t.n, (merged,)), 1


# ---------------------------------------------------------------------------
# reports and checkers


class StabilityReport(Record):
    """Per-level verdicts of a checker on the window (n_start, n_max); each
    omitted container starts empty."""

    _fields = ("label", "window", "injectivity", "surjectivity", "multiplicities", "monotone", "witnesses")

    def __init__(
        self,
        label: str,
        window: tuple[int, int],
        injectivity: dict | None = None,
        surjectivity: dict | None = None,
        multiplicities: dict | None = None,
        monotone: dict | None = None,
        witnesses: list | None = None,
    ):
        self.label = label
        self.window = window
        self.injectivity = {} if injectivity is None else injectivity
        self.surjectivity = {} if surjectivity is None else surjectivity
        self.multiplicities = {} if multiplicities is None else multiplicities
        self.monotone = {} if monotone is None else monotone
        self.witnesses = [] if witnesses is None else witnesses

    def _from(self, flags: dict):
        good = None
        for n in sorted(flags):
            if flags[n]:
                if good is None:
                    good = n
            else:
                good = None
        return good

    def injectivity_from(self):
        return self._from(self.injectivity)

    def surjectivity_from(self):
        return self._from(self.surjectivity)

    def monotone_from(self):
        return self._from(self.monotone)

    def multiplicity_stable_from(self, label: Partition | None = None):
        """First window level from which multiplicities are constant; restrict
        to one stable label when given."""

        def at(n: int):
            counts = self.multiplicities[n]
            return counts if label is None else counts.get(label, 0)

        ns = sorted(self.multiplicities)
        return self._from({a: at(a) == at(b) for a, b in zip(ns, ns[1:])})

    @property
    def ok(self) -> bool:
        return not self.witnesses


class InsufficientWindow(Exception):
    pass


def _level(seq, n: int, report: StabilityReport) -> tuple[Rep, dict]:
    """Level n of seq and its decomposition, whose multiplicities are
    recorded in report by stable label.  The character is the sequence's
    hint when its degree is the level's dimension, the traces otherwise (a
    hint that drops or adds a constituent is not used)."""
    level = seq.rep(n)
    hinted = seq.character_hint(n)
    chi = hinted if hinted is not None and hinted.degree() == level.dim else level.character()
    counts = decompose(chi).counts
    report.multiplicities[n] = {unpad(mu): c for mu, c in counts.items()}
    return level, counts


def _levels(seq, n_start: int, n_max: int, report: StabilityReport):
    """The level loop of both checkers: (n, level n, its counts, level n + 1,
    its counts) for n_start <= n < n_max, each level built once by _level."""
    if n_max <= n_start:
        return
    target = _level(seq, n_start, report)
    for n in range(n_start, n_max):
        source, target = target, _level(seq, n + 1, report)
        yield n, *source, *target


def check_uniform_stability(seq, n_start: int, n_max: int) -> StabilityReport:
    """Conditions I (injective), II (spanning), III (constant multiplicities)
    of uniform representation stability, on the window [n_start, n_max].

    Condition III compares the multiplicities _level records; Conditions I
    and II run on the explicit backend.  Condition II pushes m_mu weight
    vectors of every constituent mu of level n (Rep.weight_vectors) through
    phi_n, sums the dimensions of the constituents that
    Rep.span_multiplicities finds in their S_{n+1}-span, and compares the
    sum with the dimension of level n + 1.  Images off their weights, which
    only a phi_n that is not S_n-equivariant gives, are recorded as a
    "branching" witness, and that level is not onto.
    """
    if n_max < n_start + 1:
        raise InsufficientWindow(f"window [{n_start}, {n_max}] has no map to check")
    report = StabilityReport(seq.label, (n_start, n_max))
    for n, source, counts, target, target_counts in _levels(seq, n_start, n_max, report):
        images = [target.nf(seq.phi(n, v)) for v in source.basis()]
        inj = span_dim(images) == source.dim
        report.injectivity[n] = inj
        if not inj:
            report.witnesses.append((n, "injectivity"))
        weights = {mu: [seq.phi(n, v) for v in source.weight_vectors(mu, m)] for mu, m in counts.items()}
        mults, faults = target.span_multiplicities(weights, target_counts)
        report.witnesses.extend((n, "branching", fault) for fault in faults)
        spanned = sum(m * dim_irrep(nu) for nu, m in mults.items())
        report.surjectivity[n] = not faults and spanned == target.dim
        if not faults and spanned != target.dim:
            report.witnesses.append((n, "surjectivity", spanned, target.dim))
    ns = sorted(report.multiplicities)
    for a, b in zip(ns, ns[1:]):
        if report.multiplicities[a] != report.multiplicities[b]:
            report.witnesses.append(
                (a, "multiplicity_change", report.multiplicities[a], report.multiplicities[b])
            )
    return report


def check_monotone(seq, n_start: int, n_max: int, only: Partition | None = None) -> StabilityReport:
    """Monotonicity on the window: for each isotypic component W = V_mu^k of
    V_n, the S_{n+1}-span of phi_n(W) contains V_{mu{n+1}}^k.

    W is the S_n-span of its k weight vectors of the row-reading tableau of
    mu (Rep.weight_vectors), so for an S_n-equivariant phi_n the span of
    phi_n(W) is that of their images, and the multiplicity of V_{mu{n+1}} in
    it is read off those images (Rep.span_multiplicities): one projection
    by the last Jucys-Murphy element, and no span is closed.  Fewer than k
    weight vectors is an "isotypic_dim" witness (with the number found),
    and images off their weights, which only a phi_n that is not
    S_n-equivariant gives, a "branching" witness.  `only` restricts to
    components with the given stable label, e.g. () for the trivial
    representation.
    """
    report = StabilityReport(seq.label, (n_start, n_max))
    for n, source, counts, target, target_counts in _levels(seq, n_start, n_max, report):
        level_ok = True
        wanted = sorted((mu for mu in counts if only is None or unpad(mu) == only), reverse=True)
        for mu in wanted:
            k = counts[mu]
            weights = source.weight_vectors(mu, k)
            if len(weights) != k:
                level_ok = False
                report.witnesses.append((n, mu, "isotypic_dim", len(weights)))
                continue
            mu_next = curly_pad(mu)
            images = [seq.phi(n, v) for v in weights]
            mults, faults = target.span_multiplicities({mu: images}, target_counts, [mu_next])
            if faults:
                level_ok = False
                report.witnesses.extend((n, mu, "branching", fault) for fault in faults)
                continue
            achieved = mults[mu_next]
            if achieved < k:
                level_ok = False
                report.witnesses.append((n, mu, "monotone", achieved))
        report.monotone[n] = level_ok
    return report


# ---------------------------------------------------------------------------
# the proposition suite over seeded sequences


def default_seeds() -> list:
    """Sequences built from induced modules; at least twenty, mixing plain
    induced modules with sums, quotients, kernels, and images."""
    seeds: list = [InducedSpechtSequence(())]
    for k in (1, 2, 3):
        for lam in partitions_of(k):
            seeds.append(InducedSpechtSequence(lam))
            seeds.append(InducedModuleSequence(lam))
    seeds.append(SumSequence(InducedSpechtSequence((1,)), InducedSpechtSequence((2,))))
    seeds.append(SumSequence(InducedModuleSequence((1,)), InducedSpechtSequence((1, 1))))
    seeds.append(QuotientSequence(InducedModuleSequence((1, 1)), InducedSpechtSequence((1, 1))))
    seeds.append(QuotientSequence(InducedModuleSequence((2, 1)), InducedSpechtSequence((2, 1))))
    for lam, row, shapes in (((1, 1), (2,), "(1,1)->(2)"), ((2, 1), (3,), "(2,1)->(3)")):
        merge = MapSequence(
            InducedModuleSequence(lam), InducedModuleSequence(row), row_merge_key, label=f"row merge {shapes}"
        )
        seeds += [KernelSequence(merge), ImageSequence(merge)]
    return seeds


class SuiteReport(Record):
    """The property suite's checks, each (name, subject, ok, detail)."""

    _fields = ("checks", "seed_count")

    def __init__(self, checks: list | None = None, seed_count: int = 0):
        self.checks = [] if checks is None else checks
        self.seed_count = seed_count

    @property
    def ok(self) -> bool:
        return all(entry[2] for entry in self.checks)

    def failures(self):
        return [entry for entry in self.checks if not entry[2]]


def property_suite(seeds=None, n_max: int = 5) -> SuiteReport:
    """Run the sub/quotient/sum/kernel-image propositions on concrete
    sequences.  A violation signals an implementation bug, so the suite is
    a build gate."""
    if seeds is None:
        seeds = default_seeds()
    report = SuiteReport(seed_count=len(seeds))

    for seq in seeds:
        start = max(seq.monotone_start, 1)
        if start + 1 > n_max:
            continue
        mono = check_monotone(seq, start, n_max)
        report.checks.append(("monotone", seq.label, mono.ok, mono.witnesses))
        stable_from = max(seq.stable_start, 1)
        if stable_from + 1 <= n_max:
            stab = check_uniform_stability(seq, stable_from, n_max)
            # Prop: monotone + uniformly multiplicity stable => uniformly stable
            implied = (not mono.ok or stab.multiplicity_stable_from() is None) or stab.ok
            report.checks.append(("monsurj-implication", seq.label, implied, stab.witnesses))

    # additivity: c(V) = c(W) + c(V/W) for explicit sub/quotient pairs
    for lam in [(1, 1), (2, 1)]:
        big = InducedModuleSequence(lam)
        small = InducedSpechtSequence(lam)
        quot = QuotientSequence(big, small)
        ok = True
        for n in range(sum(lam), n_max + 1):
            cv = decompose(big.rep(n).character()).counts
            cw = decompose(small.rep(n).character()).counts
            cq = decompose(quot.rep(n).character()).counts
            merged = dict(cw)
            for key, val in cq.items():
                merged[key] = merged.get(key, 0) + val
            ok = ok and {k: v for k, v in merged.items() if v} == cv
        report.checks.append(("additivity", f"M^{lam} vs V_{lam}", ok, None))

    # the single-lambda (trivial representation) restriction
    for lam in [(1,), (1, 1)]:
        seq = InducedSpechtSequence(lam)
        mono_triv = check_monotone(seq, max(sum(lam), 1), n_max, only=())
        report.checks.append(("monsingle-trivial", seq.label, mono_triv.ok, mono_triv.witnesses))

    # a broken sequence must be detected
    broken = ZeroPhiSequence(InducedSpechtSequence((1,)))
    mono_broken = check_monotone(broken, 1, 3)
    report.checks.append(("broken-detected", broken.label, not mono_broken.ok, None))

    return report


# ---------------------------------------------------------------------------
# range arithmetic (the spectral-sequence induction, symbolically)


class RangeParams(Frozen):
    """RangeParams(m, ell): the slope m > 0 and offset ell of a range."""

    __slots__ = _fields = ("m", "ell")

    def __init__(self, m: Fraction, ell: int):
        if m <= 0:
            raise ValueError("m must be positive")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "ell", ell)


def _format_bound(m: Fraction, offset: int) -> str:
    if offset == 0:
        inner = "p+q"
    elif offset > 0:
        inner = f"p+q+{offset}"
    else:
        inner = f"p+q-{-offset}"
    if m == 1:
        return f"n >= {inner}"
    coef = str(m.numerator) if m.denominator == 1 else f"({m.numerator}/{m.denominator})"
    return f"n >= {coef}({inner})"


def propagate_ranges(params: RangeParams, pages: int) -> list[tuple[int, str, str]]:
    """Stable/monotone bounds per page r >= 2, as affine functions of p+q.

    The page-r bounds equal the page-2 bounds for every r: the kernel at an
    entry inherits the entry's bound, the image inherits its source's bound,
    and the quotient of the two takes the max, which never grows.
    """
    stable = _format_bound(params.m, params.ell)
    monotone = _format_bound(params.m, params.ell - 1)
    return [(r, stable, monotone) for r in range(2, pages + 1)]
