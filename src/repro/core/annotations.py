"""Annotation algebras — what the solver composes during closure.

The constraint solver is generic over the annotation domain.  It needs
exactly the operations the transitive-closure rule of Section 3.1 uses:

* an identity element (``f_ε``),
* an associative composition (``then`` in word order — the paper's
  ``g ∘ f`` is ``then(f, g)``),
* a *liveness* test used to drop annotations that are "necessarily
  non-accepting" (the paper's minimality-based pruning), and
* hashability, so derived constraints deduplicate — the termination
  argument of Lemma 3.1 is precisely that annotations range over a
  finite set.

Five algebras are provided:

* :class:`MonoidAlgebra` — representative functions of a property DFA,
  the paper's main construction (Section 2.4);
* :class:`CompiledMonoidAlgebra` — the *specialized* form (Section 8):
  annotations are small integers indexing the enumerated monoid, and
  every operation is a precompiled table lookup;
* :class:`ProductAlgebra` — component-wise products, used for n-bit
  gen/kill languages without building the ``2^n``-state product machine
  (Sections 3.3, 4);
* :class:`CompiledGenKillAlgebra` — the compiled counterpart of an
  n-bit gen/kill product: the n one-bit components are packed into one
  integer, composition is a handful of bitwise operations;
* :class:`repro.core.parametric.ParametricAlgebra` — substitution
  environments for parametric annotations (Section 6.4).

Compiled algebras are drop-in solver domains (``identity``/``then``/
``is_live``) whose annotations are plain ``int``s; :func:`compile_algebra`
builds one from a machine.  ``encode``/``decode`` convert between the
compiled and object representations, which is what the cross-validation
suite uses to prove the two modes solve identically.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Protocol, Sequence

from repro.dfa.automaton import DFA, Symbol
from repro.dfa.monoid import RepresentativeFunction, TransitionMonoid

Annotation = Hashable


class AnnotationAlgebra(Protocol):
    """The operations the solver requires of an annotation domain."""

    identity: Annotation

    def then(self, first: Annotation, second: Annotation) -> Annotation:
        """Composition in word order: ``first``'s word, then ``second``'s."""
        ...

    def is_live(self, annotation: Annotation) -> bool:
        """May words of this class still extend to a word of interest?"""
        ...


class MonoidAlgebra:
    """Annotations are representative functions of a property machine.

    This is the paper's bidirectional-solver domain: each annotation is
    an element of ``F_M^≡`` and composition is function composition
    (constant-time table lookup once memoized).
    """

    def __init__(self, machine: DFA, eager: bool = True, max_size: int = 500_000):
        self.machine = machine
        self.monoid = TransitionMonoid(machine, eager=eager, max_size=max_size)
        self.identity = self.monoid.identity
        self._live_memo: dict[RepresentativeFunction, bool] = {}

    def symbol(self, symbol: Symbol) -> RepresentativeFunction:
        """The annotation ``f_σ`` of a single alphabet symbol."""
        return self.monoid.generator(symbol)

    def word(self, word: Iterable[Symbol]) -> RepresentativeFunction:
        """The annotation of an arbitrary word over the alphabet."""
        return self.monoid.of_word(word)

    def then(
        self, first: RepresentativeFunction, second: RepresentativeFunction
    ) -> RepresentativeFunction:
        return self.monoid.then(first, second)

    def is_live(self, annotation: RepresentativeFunction) -> bool:
        cached = self._live_memo.get(annotation)
        if cached is None:
            cached = self.monoid.is_live(annotation)
            self._live_memo[annotation] = cached
        return cached

    def is_accepting(self, annotation: RepresentativeFunction) -> bool:
        """Does the annotation represent full words of ``L(M)``?"""
        return self.monoid.is_accepting(annotation)

    def state_after(self, annotation: RepresentativeFunction) -> int:
        """The machine state reached from the start by the annotation."""
        return annotation(self.machine.start)


class CompiledMonoidAlgebra:
    """The specialized annotation domain of Section 8: indices + tables.

    BANSHEE compiles an annotation specification by enumerating
    ``F_M^≡`` once and emitting a dense composition table; thereafter
    the solver never touches state-mapping tuples.  This class is that
    compilation step: annotations are ``int`` indices into a frozen
    ``elements`` tuple, ``then`` is a single ``table[f][g]`` access, and
    the liveness/acceptance/forward-class predicates are precomputed
    per-index tuples — no memo dicts, no per-call hashing.

    Requires eager enumeration; machines whose monoid exceeds
    ``max_size`` (the Fig 2 adversarial family) must stay on the lazy
    :class:`MonoidAlgebra`.
    """

    def __init__(self, machine: DFA, max_size: int = 500_000):
        self.machine = machine
        self.monoid = TransitionMonoid(machine, eager=True, max_size=max_size)
        elements, table = self.monoid.composition_table()
        #: Frozen element list; ``elements[i]`` is the representative
        #: function a compiled annotation ``i`` stands for.
        self.elements: tuple[RepresentativeFunction, ...] = tuple(elements)
        self._table: tuple[tuple[int, ...], ...] = tuple(
            tuple(row) for row in table
        )
        self._index: dict[RepresentativeFunction, int] = {
            fn: i for i, fn in enumerate(self.elements)
        }
        self.identity: int = self._index[self.monoid.identity]
        #: The identity's table index, exposed so the solver's per-edge
        #: identity test (cycle elimination) is a plain int comparison.
        self.identity_index: int = self.identity
        self._live: tuple[bool, ...] = tuple(
            self.monoid.is_live(fn) for fn in self.elements
        )
        self._accepting: tuple[bool, ...] = tuple(
            self.monoid.is_accepting(fn) for fn in self.elements
        )
        start = machine.start
        self._state_after: tuple[int, ...] = tuple(
            fn(start) for fn in self.elements
        )
        self._symbols: dict[Symbol, int] = {
            sym: self._index[fn] for sym, fn in self.monoid.generators.items()
        }

    def size(self) -> int:
        return len(self.elements)

    # -- conversions --------------------------------------------------------

    def encode(self, fn: RepresentativeFunction) -> int:
        """Compiled index of an object-mode annotation."""
        return self._index[fn]

    def decode(self, annotation: int) -> RepresentativeFunction:
        """Object-mode annotation a compiled index stands for."""
        return self.elements[annotation]

    # -- the solver interface ------------------------------------------------

    def symbol(self, symbol: Symbol) -> int:
        """The compiled annotation ``f_σ`` of a single alphabet symbol."""
        return self._symbols[symbol]

    def word(self, word: Iterable[Symbol]) -> int:
        table = self._table
        symbols = self._symbols
        fn = self.identity
        for sym in word:
            fn = table[fn][symbols[sym]]
        return fn

    def then(self, first: int, second: int) -> int:
        return self._table[first][second]

    def is_live(self, annotation: int) -> bool:
        return self._live[annotation]

    def is_accepting(self, annotation: int) -> bool:
        return self._accepting[annotation]

    def state_after(self, annotation: int) -> int:
        return self._state_after[annotation]

    def forward_class(self, annotation: int) -> int:
        """Right-congruence class — same as :meth:`state_after`."""
        return self._state_after[annotation]


def compile_algebra(machine: DFA, max_size: int = 500_000) -> CompiledMonoidAlgebra:
    """Specialize the annotation domain for ``machine`` (the §8 pipeline:
    machine → transition monoid → composition table → compiled algebra)."""
    return CompiledMonoidAlgebra(machine, max_size=max_size)


class UnannotatedAlgebra:
    """The trivial one-element algebra — ordinary set constraints.

    Solving with this algebra is exactly the classical cubic fragment;
    it exists so the solver can serve as its own unannotated baseline in
    the complexity benchmarks (Section 4's ``O(n^3)`` reference point).
    """

    identity = ()

    def then(self, first: tuple, second: tuple) -> tuple:
        return ()

    def is_live(self, annotation: tuple) -> bool:
        return True

    def is_accepting(self, annotation: tuple) -> bool:
        return True


class ProductAlgebra:
    """Component-wise product of annotation algebras.

    An n-bit gen/kill language (Section 3.3) is the product of n one-bit
    machines; representing annotations as tuples of one-bit functions
    keeps composition ``O(n)`` instead of materializing the exponential
    product machine.  Liveness is approximated component-wise: a product
    annotation is live iff *every* component is live (equivalently, dead
    as soon as *any* component is dead — a necessary condition, not a
    sufficient one, hence sound for pruning).
    """

    def __init__(self, components: Sequence[Any]):
        if not components:
            raise ValueError("ProductAlgebra needs at least one component")
        self.components = tuple(components)
        self.n_components = len(self.components)
        self.identity = tuple(c.identity for c in self.components)
        # Composition memo: the annotation domain is finite (Lemma 3.1),
        # so the table of observed pairs is bounded — and the solver
        # re-composes the same pairs constantly (every transitive step
        # over a hot edge).  ``compose_calls``/``compose_evals`` expose
        # the hit rate to the regression tests.
        self._then_memo: dict[tuple[tuple, tuple], tuple] = {}
        self.compose_calls = 0
        self.compose_evals = 0

    def then(self, first: tuple, second: tuple) -> tuple:
        self.compose_calls += 1
        key = (first, second)
        out = self._then_memo.get(key)
        if out is None:
            self.compose_evals += 1
            components = self.components
            out = tuple(
                components[i].then(first[i], second[i])
                for i in range(self.n_components)
            )
            self._then_memo[key] = out
        return out

    def is_live(self, annotation: tuple) -> bool:
        components = self.components
        for i in range(self.n_components):
            if not components[i].is_live(annotation[i]):
                return False
        return True

    def accepting_bits(self, annotation: tuple) -> tuple[bool, ...]:
        """Per-component acceptance — e.g. which dataflow facts hold."""
        components = self.components
        return tuple(
            components[i].is_accepting(annotation[i])
            for i in range(self.n_components)
        )

    def is_accepting(self, annotation: tuple) -> bool:
        """Accepting in the product language (all components accept)."""
        components = self.components
        for i in range(self.n_components):
            if not components[i].is_accepting(annotation[i]):
                return False
        return True


class CompiledGenKillAlgebra:
    """Compiled n-bit gen/kill product: one ``int`` per annotation.

    The one-bit monoid is ``{f_ε, f_gen, f_kill}`` (Fig 1).  Each
    component is packed into two bitmask positions of a single integer:
    bit ``i`` of the low word says the component is *forced* (non-ε) and
    bit ``i`` of the high word says the forced value is *gen*.  Word-
    order composition ``then(f, g)`` — "``g`` wins wherever ``g`` is
    forced" — is then four bitwise operations on machine words instead
    of rebuilding an n-tuple, so it is ``O(n / wordsize)`` rather than
    ``O(n)`` object operations, with zero allocation for the common
    widths.

    ``bit_machine`` defaults to the Fig 1 machine; any 2-state machine
    whose monoid is ``{identity, constant-on, constant-off}`` works (the
    constructor verifies the shape).  ``encode``/``decode`` convert to
    and from the tuple annotations of the equivalent
    :class:`ProductAlgebra` of :class:`MonoidAlgebra` components.
    """

    def __init__(
        self,
        n_bits: int,
        bit_machine: DFA | None = None,
        gen: Symbol = "g",
        kill: Symbol = "k",
    ):
        if n_bits < 1:
            raise ValueError("CompiledGenKillAlgebra needs at least one bit")
        if bit_machine is None:
            from repro.dfa.gallery import one_bit_machine

            bit_machine = one_bit_machine(gen=gen, kill=kill)
        self.bit = CompiledMonoidAlgebra(bit_machine)
        if self.bit.size() != 3:
            raise ValueError(
                "bit machine must have the 3-element gen/kill monoid "
                f"{{f_eps, f_gen, f_kill}}, got {self.bit.size()} elements"
            )
        self._eps = self.bit.identity
        self._gen = self.bit.symbol(gen)
        self._kill = self.bit.symbol(kill)
        self.n_bits = n_bits
        self._mask = (1 << n_bits) - 1
        self.identity = 0
        #: Packed identity (every bit ε), as an int for the solver's O(1)
        #: identity test in cycle elimination.
        self.identity_index = 0
        # Per-element predicates of the one-bit monoid, used to assemble
        # the packed predicates below.
        accepting = {
            e: self.bit.is_accepting(e) for e in (self._eps, self._gen, self._kill)
        }
        live = {e: self.bit.is_live(e) for e in (self._eps, self._gen, self._kill)}
        self._acc_eps = accepting[self._eps]
        self._acc_gen = accepting[self._gen]
        self._acc_kill = accepting[self._kill]
        #: With the standard Fig 1 machine every one-bit element is live,
        #: so the product-wide liveness test degenerates to ``True``.
        self._never_dead = all(live.values())
        self._dead_eps = not live[self._eps]
        self._dead_gen = not live[self._gen]
        self._dead_kill = not live[self._kill]

    # -- packing -------------------------------------------------------------

    def of_effect(self, gen_bits: Iterable[int], kill_bits: Iterable[int]) -> int:
        """Packed annotation of a statement generating/killing fact sets."""
        forced = 0
        value = 0
        for i in gen_bits:
            bit = 1 << i
            forced |= bit
            value |= bit
        for i in kill_bits:
            forced |= 1 << i
        return forced | (value << self.n_bits)

    def encode(self, annotation: tuple) -> int:
        """Pack a :class:`ProductAlgebra`-style tuple of one-bit elements."""
        if len(annotation) != self.n_bits:
            raise ValueError(
                f"expected {self.n_bits} components, got {len(annotation)}"
            )
        forced = 0
        value = 0
        bit_index = self.bit._index
        for i, component in enumerate(annotation):
            element = (
                component
                if isinstance(component, int)
                else bit_index[component]
            )
            if element == self._gen:
                forced |= 1 << i
                value |= 1 << i
            elif element == self._kill:
                forced |= 1 << i
        return forced | (value << self.n_bits)

    def decode(self, annotation: int) -> tuple[RepresentativeFunction, ...]:
        """The tuple-of-representative-functions view of a packed int."""
        forced = annotation & self._mask
        value = annotation >> self.n_bits
        out = []
        for i in range(self.n_bits):
            bit = 1 << i
            if forced & bit:
                out.append(self.bit.decode(self._gen if value & bit else self._kill))
            else:
                out.append(self.bit.decode(self._eps))
        return tuple(out)

    # -- the solver interface ------------------------------------------------

    def then(self, first: int, second: int) -> int:
        """``g`` wins wherever forced; ``f`` shows through elsewhere."""
        n = self.n_bits
        mask = self._mask
        f_forced = first & mask
        f_value = first >> n
        g_forced = second & mask
        g_value = second >> n
        keep = ~g_forced & mask
        return (f_forced | g_forced) | (((f_value & keep) | g_value) << n)

    def is_live(self, annotation: int) -> bool:
        if self._never_dead:
            return True
        forced = annotation & self._mask
        value = annotation >> self.n_bits
        if self._dead_eps and (~forced & self._mask):
            return False
        if self._dead_gen and (forced & value):
            return False
        if self._dead_kill and (forced & ~value):
            return False
        return True

    def accepting_mask(self, annotation: int) -> int:
        """Bitmask of accepting components (bit ``i`` set iff fact ``i``
        holds after the annotation's words)."""
        forced = annotation & self._mask
        value = annotation >> self.n_bits
        result = 0
        if self._acc_gen:
            result |= forced & value
        if self._acc_kill:
            result |= forced & ~value
        if self._acc_eps:
            result |= ~forced & self._mask
        return result

    def accepting_bits(self, annotation: int) -> tuple[bool, ...]:
        """Per-component acceptance, in :class:`ProductAlgebra` layout."""
        mask = self.accepting_mask(annotation)
        return tuple(bool(mask & (1 << i)) for i in range(self.n_bits))

    def is_accepting(self, annotation: int) -> bool:
        return self.accepting_mask(annotation) == self._mask
