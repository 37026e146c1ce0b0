"""Systems built from truth assignments under per-context constraints.

An epistemic specification fixes, per context, which joint outcome tuples are
admissible (for binary variables: the two must agree, or must differ, or any
explicitly listed set).  A deterministic variant assigns one admissible
outcome to every variable; note a variable is a (content, context) pair, so
the same content may legitimately take different values in different
contexts.  Mixing the variants' point masses yields an ordinary system whose
contextuality can then be analyzed.

Contexts share no variable, so the variants are the product of each context's
admissible tuples.  enumerate_variants returns that product as a read-only
sequence that decodes a variant only when asked for one, and the uniform
mixture of all of them gives each context the uniform table over its own
admissible tuples, which uniform_mixture builds directly, per context.

liar_system(n) is the ring of Liar sentences: content q_i asserts q_{i+1} in
contexts 1..n-1 and the last context denies the loop closure (q_n and q_1
must differ), so no globally consistent truth assignment exists even though
every single context is satisfiable.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .coupling import check_atom_cap
from .errors import DomainMismatch, EmptyVariantSet, InvalidArgument
from .systems import (
    MINUS, PLUS, System, check_cell, check_context, check_plus_minus_one,
    exact_number, exact_text, to_form, validate_system,
)

EQUAL = "equal"
UNEQUAL = "unequal"
ALLOWED = "allowed"


@dataclass(frozen=True)
class ContextConstraint:
    """Admissibility rule for one context's joint outcomes.

    kind 'equal'/'unequal' applies to two binary '+1'/'-1' variables; kind
    'allowed' lists the admissible outcome tuples explicitly (any arity).
    """

    kind: str
    allowed: tuple[tuple[str, ...], ...] | None = None

    @staticmethod
    def equal() -> "ContextConstraint":
        return ContextConstraint(kind=EQUAL)

    @staticmethod
    def unequal() -> "ContextConstraint":
        return ContextConstraint(kind=UNEQUAL)

    @staticmethod
    def explicit(tuples) -> "ContextConstraint":
        return ContextConstraint(
            kind=ALLOWED, allowed=tuple(tuple(t) for t in tuples)
        )


@dataclass(frozen=True)
class EpistemicContext:
    context: str
    contents: tuple[str, ...]
    constraint: ContextConstraint


@dataclass(frozen=True)
class EpistemicSpec:
    """Contents registry plus constrained contexts; validated on build."""

    outcomes: dict[str, tuple[str, ...]]
    contexts: tuple[EpistemicContext, ...]


@dataclass(frozen=True)
class DeterministicVariant:
    """One admissible outcome per (content, context) variable."""

    assignment: dict[tuple[str, str], str]


def _admissible(spec: EpistemicSpec, ctx: EpistemicContext):
    """Admissible outcome tuples of one context, in canonical product order."""
    domains = [spec.outcomes[q] for q in ctx.contents]
    kind = ctx.constraint.kind
    if kind in (EQUAL, UNEQUAL):
        if len(ctx.contents) != 2:
            raise DomainMismatch(
                f"context {ctx.context!r}: '{kind}' needs exactly 2 contents"
            )
        for q in ctx.contents:
            check_plus_minus_one(
                f"context {ctx.context!r}: '{kind}' on content {q!r}", spec.outcomes[q]
            )
        if kind == EQUAL:
            keep = lambda t: t[0] == t[1]
        else:
            keep = lambda t: t[0] != t[1]
    elif kind == ALLOWED:
        allowed = ctx.constraint.allowed or ()
        for t in allowed:
            check_cell(ctx.context, ctx.contents, t, spec.outcomes)
        allowed_set = set(allowed)
        keep = lambda t: t in allowed_set
    else:
        raise DomainMismatch(f"unknown constraint kind {kind!r}")
    return tuple(t for t in itertools.product(*domains) if keep(t))


class VariantProduct(Sequence):
    """The deterministic variants of a spec, decoded on demand.

    `contexts` pairs each context of `spec` with its admissible tuples,
    sorted by context id.  Variant k is read off the mixed-radix digits of k
    over the contexts in that order, the last context varying fastest: the
    order of itertools.product.
    """

    def __init__(self, spec: EpistemicSpec, contexts: tuple[tuple, ...]):
        self.spec = spec
        self.contexts = contexts
        self._len = math.prod(len(tuples) for _, tuples in contexts)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(self._len))]
        k = operator.index(index)
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("variant index out of range")
        cells = []
        for _, tuples in reversed(self.contexts):
            k, digit = divmod(k, len(tuples))
            cells.append(tuples[digit])
        assignment: dict[tuple[str, str], str] = {}
        for (ctx, _), cell in zip(self.contexts, reversed(cells)):
            for q, o in zip(ctx.contents, cell):
                assignment[(q, ctx.context)] = o
        return DeterministicVariant(assignment=assignment)


def enumerate_variants(
    spec: EpistemicSpec, cap: int | None = None
) -> Sequence[DeterministicVariant]:
    """All deterministic variants satisfying every context's constraint.

    A context id defined twice, a content listed twice in one context and
    a content missing from spec.outcomes are refused first, with the errors
    validate_system raises for them.  The assignment space (product of all
    variables' outcome set sizes) must stay within the cap; raises
    CapExceeded otherwise and EmptyVariantSet when some context admits no
    tuple at all.  Contexts are independent (variables are per-context), so
    the variants are exactly the product of the per-context admissible
    tuples.  The result is a read-only sequence over that product (a
    VariantProduct): its length is the product of the per-context tuple
    counts, and indexing or iterating builds each variant on demand, in
    canonical order (itertools.product over the contexts sorted by id).
    """
    seen: set[str] = set()
    for ctx in spec.contexts:
        check_context(ctx.context, ctx.contents, spec.outcomes, seen)
    sizes = [len(spec.outcomes[q]) for ctx in spec.contexts for q in ctx.contents]
    check_atom_cap(sizes, cap)

    contexts = []
    for ctx in sorted(spec.contexts, key=lambda c: c.context):
        tuples = _admissible(spec, ctx)
        if not tuples:
            raise EmptyVariantSet(
                f"context {ctx.context!r} admits no outcome tuple"
            )
        contexts.append((ctx, tuples))
    return VariantProduct(spec, tuple(contexts))


def uniform_mixture(
    spec: EpistemicSpec,
    variants: Sequence[DeterministicVariant],
    weights: Sequence | None = None,
) -> System:
    """Mix variant point masses into an ordinary system.

    Every context's table is the weighted average of the variants' fixed
    outcome tuples; weights default to uniform, pass the number gate of a
    probability (systems.exact_number) and sum to exactly 1.  The spec
    supplies structure (outcome sets, context content order) that the
    variants alone cannot.

    All of a spec's variants (enumerate_variants of an equal spec) mixed
    uniformly give each context the uniform table over its own k admissible
    tuples, 1/k each; that table is built directly, without visiting a
    variant.
    """
    if not variants:
        raise EmptyVariantSet("cannot mix an empty variant list")
    if (
        weights is None
        and isinstance(variants, VariantProduct)
        and variants.spec == spec
    ):
        blocks = [
            (ctx.context, ctx.contents, dict.fromkeys(cells, Fraction(1, len(cells))))
            for ctx, cells in variants.contexts
        ]
        return validate_system(spec.outcomes, blocks)
    # a view decodes its variants on every walk; walk them once
    variants = list(variants)
    if weights is None:
        weights = [Fraction(1, len(variants))] * len(variants)
    else:
        weights = [exact_number(x) for x in weights]
        if len(weights) != len(variants):
            raise DomainMismatch("one weight per variant required")
        if any(x < 0 for x in weights):
            raise DomainMismatch("weights must be nonnegative")
    # over one common denominator, the tables are sums of int numerators
    den, nums = to_form(weights)
    if sum(nums) != den:
        total = exact_text(Fraction(sum(nums), den))
        raise DomainMismatch(f"weights sum to {total}, expected 1")

    needed = {
        (q, ctx.context) for ctx in spec.contexts for q in ctx.contents
    }
    for i, variant in enumerate(variants):
        if needed - set(variant.assignment):
            raise DomainMismatch(f"variant {i} does not cover every variable")

    blocks = []
    for ctx in spec.contexts:
        sums: dict[tuple[str, ...], int] = {}
        for variant, w in zip(variants, nums):
            cell = tuple(variant.assignment[(q, ctx.context)] for q in ctx.contents)
            sums[cell] = sums.get(cell, 0) + w
        table = {cell: Fraction(w, den) for cell, w in sums.items()}
        blocks.append((ctx.context, ctx.contents, table))
    return validate_system(spec.outcomes, blocks)


def liar_system(n: int) -> EpistemicSpec:
    """The rank-n Liar ring.

    Contents q1..qn over '+1'/'-1'; context i measures (q_i, q_{i+1}) and
    requires equality, except the last context, which measures (q_n, q_1)
    and requires inequality.  For n = 2 the context labels carry the
    direction of inference, since both contexts measure the same pair.
    """
    if n < 2:
        raise InvalidArgument(f"liar system needs n >= 2, got {n}")
    qs = [f"q{i}" for i in range(1, n + 1)]
    outcomes = {q: (PLUS, MINUS) for q in qs}
    contexts = []
    for i in range(1, n + 1):
        a = qs[i - 1]
        b = qs[i % n]
        label = f"c{i}"
        if n == 2:
            label = f"c{i}:{a}->{b}"
        constraint = (
            ContextConstraint.unequal() if i == n else ContextConstraint.equal()
        )
        contexts.append(
            EpistemicContext(context=label, contents=(a, b), constraint=constraint)
        )
    return EpistemicSpec(outcomes=outcomes, contexts=tuple(contexts))
