"""Consistent sequences of S_n-representations and their stability checkers.

A sequence provides, per level n, an explicit representation (a rep.Rep: a
span inside a free module with a vector action, possibly as a quotient),
plus the connecting maps phi_n.  The checkers verify, on a finite window,
the three uniform-stability conditions and the monotonicity condition; the
latter quantifies over isotypic components, which suffices by
semisimplicity.

Two backends coexist: multiplicity bookkeeping through induced characters
(fast, used for Condition III) and explicit linear algebra (needed for
Conditions I/II and for monotonicity, which quantifies over subspaces).
On the explicit side, Rep.character reads traces off the pivots of the
reduced echelon basis, Rep.isotypic takes the joint eigenspace of the
Jucys-Murphy power sums and Rep.sn_span closes spans under the generators;
none sums over S_n.
All verdicts are statements about the tested window only.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .characters import (
    ClassFunction,
    decompose,
    induced_character,
    irreducible_character,
    young_permutation_character,
)
from .linalg import add_into, kernel_basis, span_dim
from .partitions import Partition, curly_pad, dim_irrep, partitions_of, unpad
from .rep import Rep
from .specht import act_vec, specht_module
from .tabloids import PseudoTabloid, act_tabloid, pseudo_tabloids


def _act_tagged(sigma, v: dict) -> dict:
    """The tabloid action on a direct sum, keys tagged ("L" | "R", tabloid)."""
    return {(tag, act_tabloid(sigma, t)): c for (tag, t), c in v.items()}


def stable_multiplicities(chi: ClassFunction) -> dict[Partition, int]:
    """Multiplicities keyed by stable label (the partition with its first part dropped)."""
    return {unpad(mu): c for mu, c in decompose(chi).counts.items()}


# ---------------------------------------------------------------------------
# sequences


class InducedModuleSequence:
    """I_n(M^lam): free on pseudo-tabloids, phi reinterprets the ambient."""

    def __init__(self, lam: Partition):
        self.lam = lam
        self.label = f"I_n(M^{lam})"

    def n_min(self) -> int:
        return sum(self.lam)

    def monotone_start(self) -> int:
        return sum(self.lam)

    def stable_start(self) -> int:
        return 2 * sum(self.lam)

    def rep(self, n: int) -> Rep:
        vectors = [{t: 1} for t in pseudo_tabloids(self.lam, n)]
        return Rep(n, act_vec, vectors)

    def character_hint(self, n: int) -> ClassFunction:
        k = sum(self.lam)
        return young_permutation_character(n, tuple(self.lam) + ((n - k,) if n > k else ()))

    def phi(self, n: int, v: dict) -> dict:
        return {PseudoTabloid(t.n + 1, t.rows): c for t, c in v.items()}


class InducedSpechtSequence(InducedModuleSequence):
    """I_n(V_lam) inside I_n(M^lam)."""

    def __init__(self, lam: Partition):
        super().__init__(lam)
        self.label = f"I_n(V_{lam})"

    def rep(self, n: int) -> Rep:
        return specht_module(self.lam, n)

    def character_hint(self, n: int) -> ClassFunction:
        return induced_character(irreducible_character(self.lam), n)


class SumSequence:
    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.label = f"{left.label} (+) {right.label}"

    def n_min(self) -> int:
        return max(self.left.n_min(), self.right.n_min())

    def monotone_start(self) -> int:
        return max(self.left.monotone_start(), self.right.monotone_start())

    def stable_start(self) -> int:
        return max(self.left.stable_start(), self.right.stable_start())

    def rep(self, n: int) -> Rep:
        vectors = [
            {("L", k): c for k, c in v.items()} for v in self.left.rep(n).basis()
        ] + [{("R", k): c for k, c in v.items()} for v in self.right.rep(n).basis()]
        return Rep(n, _act_tagged, vectors)

    def character_hint(self, n: int) -> ClassFunction:
        return self.left.character_hint(n) + self.right.character_hint(n)

    def phi(self, n: int, v: dict) -> dict:
        lpart = {k: c for (tag, k), c in v.items() if tag == "L"}
        rpart = {k: c for (tag, k), c in v.items() if tag == "R"}
        out = {("L", k): c for k, c in self.left.phi(n, lpart).items()}
        out.update({("R", k): c for k, c in self.right.phi(n, rpart).items()})
        return out


class QuotientSequence:
    """V_n / W_n for a subsequence W < V over the same ambient keys."""

    def __init__(self, big, small):
        self.big = big
        self.small = small
        self.label = f"({big.label}) / ({small.label})"

    def n_min(self) -> int:
        return max(self.big.n_min(), self.small.n_min())

    def monotone_start(self) -> int:
        # Prop: the quotient is monotone once the subsequence is stable
        return max(self.big.monotone_start(), self.small.stable_start())

    def stable_start(self) -> int:
        return max(self.big.stable_start(), self.small.stable_start())

    def rep(self, n: int) -> Rep:
        w_rep = self.small.rep(n)
        v_rep = self.big.rep(n)
        return Rep(n, v_rep.act, v_rep.basis(), modulus=w_rep.echelon)

    def character_hint(self, n: int) -> ClassFunction:
        return self.big.character_hint(n) - self.small.character_hint(n)

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


class KernelSequence:
    def __init__(self, fmap: MapSequence):
        self.fmap = fmap
        self.label = f"ker({fmap.label})"

    def n_min(self) -> int:
        return self.fmap.domain.n_min()

    def monotone_start(self) -> int:
        return max(self.fmap.domain.stable_start(), self.fmap.codomain.monotone_start())

    def stable_start(self) -> int:
        return self.monotone_start()

    def rep(self, n: int) -> Rep:
        domain = self.fmap.domain.rep(n)
        basis = domain.basis()
        return Rep(n, domain.act, kernel_basis([self.fmap.apply(v) for v in basis], basis))

    def character_hint(self, n: int):
        return None

    def phi(self, n: int, v: dict) -> dict:
        return self.fmap.domain.phi(n, v)


class ImageSequence:
    def __init__(self, fmap: MapSequence):
        self.fmap = fmap
        self.label = f"im({fmap.label})"

    def n_min(self) -> int:
        return self.fmap.domain.n_min()

    def monotone_start(self) -> int:
        return max(self.fmap.domain.stable_start(), self.fmap.codomain.monotone_start())

    def stable_start(self) -> int:
        return self.monotone_start()

    def rep(self, n: int) -> Rep:
        domain = self.fmap.domain.rep(n)
        codomain = self.fmap.codomain.rep(n)
        return Rep(n, codomain.act, [self.fmap.apply(v) for v in domain.basis()])

    def character_hint(self, n: int):
        return None

    def phi(self, n: int, v: dict) -> dict:
        return self.fmap.codomain.phi(n, v)


class ZeroPhiSequence:
    """A deliberately broken sequence: phi_n = 0 (monotonicity must fail)."""

    def __init__(self, base):
        self.base = base
        self.label = f"{base.label} with phi = 0"

    def n_min(self) -> int:
        return self.base.n_min()

    def monotone_start(self) -> int:
        return self.base.monotone_start()

    def stable_start(self) -> int:
        return self.base.stable_start()

    def rep(self, n: int) -> Rep:
        return self.base.rep(n)

    def character_hint(self, n: int):
        return self.base.character_hint(n)

    def phi(self, n: int, v: dict) -> dict:
        return {}


def row_merge_key(t: PseudoTabloid):
    """Row symmetrization onto the one-row shape: stack all rows, sorted."""
    merged = tuple(sorted(x for row in t.rows for x in row))
    return PseudoTabloid(t.n, (merged,)), 1


def _sequence_character(seq, n: int) -> ClassFunction:
    hinted = seq.character_hint(n) if hasattr(seq, "character_hint") else None
    return hinted if hinted is not None else seq.rep(n).character()


# ---------------------------------------------------------------------------
# reports and checkers


@dataclass
class StabilityReport:
    label: str
    window: tuple[int, int]
    injectivity: dict = field(default_factory=dict)
    surjectivity: dict = field(default_factory=dict)
    multiplicities: dict = field(default_factory=dict)
    monotone: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

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
        ns = sorted(self.multiplicities)
        good = None
        for i in range(len(ns) - 1):
            a, b = self.multiplicities[ns[i]], self.multiplicities[ns[i + 1]]
            if label is not None:
                a, b = a.get(label, 0), b.get(label, 0)
            if a == b:
                if good is None:
                    good = ns[i]
            else:
                good = None
        return good

    @property
    def ok(self) -> bool:
        return not self.witnesses


class InsufficientWindow(Exception):
    pass


def check_uniform_stability(seq, n_start: int, n_max: int) -> StabilityReport:
    """Conditions I (injective), II (spanning), III (constant multiplicities)
    of uniform representation stability, on the window [n_start, n_max].

    Condition III runs on the character backend when the sequence provides
    one; Conditions I and II always run on the explicit backend.
    """
    if n_max < n_start + 1:
        raise InsufficientWindow(f"window [{n_start}, {n_max}] has no map to check")
    report = StabilityReport(seq.label, (n_start, n_max))
    for n in range(n_start, n_max + 1):
        report.multiplicities[n] = stable_multiplicities(_sequence_character(seq, n))
    for n in range(n_start, n_max):
        source, target = seq.rep(n), seq.rep(n + 1)
        images = [target.nf(seq.phi(n, v)) for v in source.basis()]
        inj = span_dim(images) == source.dim
        report.injectivity[n] = inj
        if not inj:
            report.witnesses.append((n, "injectivity"))
        span = target.sn_span(images)
        surj = span.dim == target.dim
        report.surjectivity[n] = surj
        if not surj:
            report.witnesses.append((n, "surjectivity", span.dim, target.dim))
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

    `only` restricts to components with the given stable label, e.g. () for
    the trivial representation.
    """
    report = StabilityReport(seq.label, (n_start, n_max))
    for n in range(n_start, n_max):
        source = seq.rep(n)
        target = seq.rep(n + 1)
        counts = decompose(_sequence_character(seq, n)).counts
        level_ok = True
        for mu, k in sorted(counts.items(), reverse=True):
            if only is not None and unpad(mu) != only:
                continue
            component = source.isotypic(mu)
            if len(component) != k * dim_irrep(mu):
                level_ok = False
                report.witnesses.append((n, mu, "isotypic_dim", len(component)))
                continue
            span = target.sn_span([seq.phi(n, v) for v in component])
            achieved = span.character().inner(irreducible_character(curly_pad(mu)))
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
    merge = MapSequence(
        InducedModuleSequence((1, 1)),
        InducedModuleSequence((2,)),
        row_merge_key,
        label="row merge (1,1)->(2)",
    )
    seeds.append(KernelSequence(merge))
    seeds.append(ImageSequence(merge))
    merge3 = MapSequence(
        InducedModuleSequence((2, 1)),
        InducedModuleSequence((3,)),
        row_merge_key,
        label="row merge (2,1)->(3)",
    )
    seeds.append(KernelSequence(merge3))
    seeds.append(ImageSequence(merge3))
    return seeds


@dataclass
class SuiteReport:
    checks: list = field(default_factory=list)  # (name, subject, ok, detail)
    seed_count: int = 0

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
        start = max(seq.monotone_start(), 1)
        if start + 1 > n_max:
            continue
        mono = check_monotone(seq, start, n_max)
        report.checks.append(("monotone", seq.label, mono.ok, mono.witnesses))
        stable_from = max(seq.stable_start(), 1)
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


@dataclass(frozen=True)
class RangeParams:
    m: Fraction
    ell: int

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("m must be positive")


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
