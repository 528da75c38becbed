"""Spans and counters around repstab's public functions, installed from outside.

Nothing under src/ knows about tracing: install() replaces functions and
methods with wrappers in every repstab module namespace that bound them by
name (e.g. all_perms in perms, specht, e2 and configspaces).

Each timed wrapper keeps a frame on a stack, so a wrapper's self time is its
duration minus the time of the wrapped calls beneath it.  Per stem the tracer
keeps calls, inclusive time (outermost calls only, so recursion is not
counted twice) and self time.  Coarse calls are also kept as spans (name,
start, end, parent, query); calls that run thousands of times per query
("hot") only feed the totals, so memory stays small.
"""

import functools
import sys
import time
from fractions import Fraction

# (module, qualified name, stem, kind).  kind: "span" records a span, "hot"
# only totals, "count" counts calls without timing, "iter" counts the items
# a returned iterator yields.
TARGETS = (
    ("repstab.e2", "E2Page.__init__", "e2.page_build", "span"),
    ("repstab.e2", "E2Page.differential_rank", "e2.differential_rank", "span"),
    ("repstab.e2", "E2Page.cohomology_dims", "e2.cohomology_dims", "span"),
    ("repstab.e2", "E2Page.diff_key", "e2.diff_key", "count"),
    ("repstab.e2", "E2Page.act_vec", "e2.act_vec", "count"),
    ("repstab.e2", "E2Page.cohomology_cell_character", "e2.cell_character", "span"),
    ("repstab.e2", "InvariantComplex.basis", "e2.invariant_basis", "span"),
    ("repstab.e2", "InvariantComplex.differential_rank", "e2.invariant_rank", "span"),
    ("repstab.e2", "e2_cell_dim", "e2.character_backend", "span"),
    ("repstab.e2", "e2_cell_character", "e2.character_backend", "span"),
    ("repstab.perms", "all_perms", "perms.perms_enumerated", "iter"),
    ("repstab.specht", "project_tabloid", "specht.project_tabloid", "hot"),
    ("repstab.specht", "isotypic_component", "specht.isotypic", "span"),
    ("repstab.specht", "sn_span", "specht.sn_span", "span"),
    ("repstab.specht", "Subspace.character", "specht.character", "span"),
    ("repstab.specht", "specht_module", "specht.specht_module", "span"),
    ("repstab.specht", "verify_claims", "specht.verify_claims", "span"),
    ("repstab.specht", "monotonicity_witness", "specht.monotonicity_witness", "span"),
    ("repstab.stability", "check_monotone", "stability.check_monotone", "span"),
    ("repstab.stability", "check_uniform_stability", "stability.check_uniform_stability", "span"),
    ("repstab.stability", "Rep.isotypic", "stability.rep_isotypic", "span"),
    ("repstab.stability", "Rep.sn_span", "stability.rep_sn_span", "span"),
    ("repstab.stability", "Rep.character", "stability.rep_character", "span"),
    ("repstab.stability", "property_suite", "stability.property_suite", "span"),
    ("repstab.linalg", "Echelon.insert", "linalg.insert", "hot"),
    ("repstab.linalg", "Echelon.reduce", "linalg.reduce", "hot"),
    ("repstab.linalg", "Echelon.coords", "linalg.reduce", "hot"),
    ("repstab.linalg", "Echelon.basis", "linalg.basis", "count"),
    ("repstab.linalg", "kernel_basis", "linalg.kernel_basis", "span"),
    ("repstab.characters", "decompose", "characters.decompose", "span"),
    ("repstab.characters", "induced_character", "characters.induced_character", "span"),
    ("repstab.arnold", "straighten", "arnold.straighten", "hot"),
    ("repstab.arnold", "top_character", "arnold.top_character", "span"),
    ("repstab.manifolds", "load_manifold", "manifolds.load", "span"),
    ("repstab.configspaces", "betti_unordered", "configspaces.betti_unordered", "span"),
    ("repstab.configspaces", "colored_betti", "configspaces.colored_betti", "span"),
    ("repstab.configspaces", "e2_page", "configspaces.e2_page", "count"),
)


def _den_bits(values) -> int:
    best = 0
    for x in values:
        if type(x) is Fraction:
            bits = x.denominator.bit_length()
            if bits > best:
                best = bits
    return best


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [stem, child seconds]
        self.active: dict[str, int] = {}
        self.totals: dict[str, list] = {}  # stem -> [calls, inclusive s, self s]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []  # (stem, start, end, parent, query)
        self.query = None
        self.distinct_projections: set = set()

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def _timed(self, stem: str, fn, record: bool, after=None):
        stack, active, totals, spans = self.stack, self.active, self.totals, self.spans
        clock = time.perf_counter
        totals.setdefault(stem, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [stem, 0.0]
            stack.append(frame)
            outermost = not active.get(stem)
            active[stem] = active.get(stem, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[stem] -= 1
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                total = totals[stem]
                total[0] += 1
                total[2] += duration - frame[1]
                if outermost:
                    total[1] += duration
                if record:
                    spans.append((stem, start, end, parent[0] if parent else None, self.query))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, stem: str, fn, after=None):
        counters = self.counters
        counters.setdefault(stem + "_calls", 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[stem + "_calls"] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _iterated(self, stem: str, fn):
        counters = self.counters
        counters.setdefault(stem, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[stem] += 1
                yield item

        return wrapper

    # -- per-target bookkeeping beyond calls and time ---------------------

    def _hooks(self):
        def page_built(args, result):
            self.count("e2.page_elements", args[0].total_dim)

        def inserted(args, result):
            self.count("linalg.insert_grew", 1 if result else 0)
            self._note_bits(args[1].values())

        def coords_out(args, result):
            self._note_bits(result[0])

        def basis_out(args, result):
            for row in result:
                self._note_bits(row.values())

        def projected(args, result):
            self.distinct_projections.add(args)

        return {
            "E2Page.__init__": page_built,
            "Echelon.insert": inserted,
            "Echelon.coords": coords_out,
            "Echelon.basis": basis_out,
            "project_tabloid": projected,
        }

    def _note_bits(self, values) -> None:
        bits = _den_bits(values)
        if bits > self.counters.get("linalg.max_denominator_bits", 0):
            self.counters["linalg.max_denominator_bits"] = bits

    def _cache_misses(self) -> dict[str, int]:
        """Cache fills so far: built pages and specht_module misses."""
        return {
            "configspaces.e2_page": len(self._configspaces._PAGES),
            "specht.specht_module": self._specht_module.cache_info().misses,
        }

    def install(self) -> None:
        """Wrap every target; modules must already be imported."""
        self._configspaces = sys.modules["repstab.configspaces"]
        self._specht_module = sys.modules["repstab.specht"].specht_module
        self._misses_at_install = self._cache_misses()
        hooks = self._hooks()
        modules = [m for name, m in list(sys.modules.items()) if name == "repstab" or name.startswith("repstab.")]
        for module_name, qualname, stem, kind in TARGETS:
            module = sys.modules[module_name]
            owner, _, attr = qualname.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = vars(holder)[attr]
            hook = hooks.get(qualname)
            if kind == "iter":
                wrapper = self._iterated(stem, original)
            elif kind == "count":
                wrapper = self._counted(stem, original, hook)
            else:
                wrapper = self._timed(stem, original, kind == "span", hook)
            if owner:
                setattr(holder, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def summary(self) -> dict:
        """Totals, counters and spans as plain JSON data."""
        counters = dict(self.counters)
        counters["specht.project_tabloid_distinct"] = len(self.distinct_projections)
        now = self._cache_misses()
        for stem, at_install in self._misses_at_install.items():
            counters[stem + "_misses"] = now[stem] - at_install
        return {"totals": self.totals, "counters": counters, "spans": self.spans}
