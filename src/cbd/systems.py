"""Data model and validation for content-context systems of random variables.

A system is a finite family of random variables doubly indexed by *content*
(the property being measured) and *context* (the conditions under which it is
measured).  Variables that share a context are jointly distributed through
that context's table; variables in different contexts have no joint
distribution at all.  The set of variables measuring one content across
contexts is that content's *connection*.

All probabilities are exact rationals (fractions.Fraction), so every verdict
downstream is a matter of exact arithmetic rather than tolerance.  Three
rules on exact values live here only: exact_number, the gate every number
passes (probabilities and mixture weights); to_form, the integer encoding
over a common denominator; and check_cell, the outcome-tuple check.

A System indexes its marginals once, on first use.  One pass over each
context table sums integer numerators over the lcm of the table's
denominators, so no Fraction is added.  The index keeps only each
variable's reduced integer *form*, a (den, nums) pair with nums in the
content's registry outcome order and gcd(den, *nums) == 1; two marginals of
one content are equal exactly when their forms are.  The isolated deltas
and the consistency check read these forms; marginal() decodes one form
into a Marginal when it is called.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DomainMismatch,
    DuplicateContentInContext,
    DuplicateContext,
    EmptySystem,
    InvalidProbability,
    NotPlusMinusOne,
    ProbabilitySumMismatch,
    UnknownContent,
    VariableNotInContext,
)

# Canonical binary outcome labels, required through check_plus_minus_one by
# expectation() and the cyclic criterion, coupling.min_coupling_pair and the
# epistemic 'equal'/'unequal' constraints.  Other outcome sets are fine
# everywhere else.
PLUS = "+1"
MINUS = "-1"

# The one zero: a table's default for an absent cell, and every zero weight
# the simplex returns.
ZERO = Fraction(0)

# Python's default int-to-str digit limit: an input number whose numerator or
# denominator has more digits is refused.  A decimal exponent beyond it is
# refused before Fraction builds its power of ten.  Values derived from the
# inputs can grow past it (a sum's denominator is the lcm of its terms'), so
# reports print them through int_text.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_DIGITS
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)$")


def int_text(n: int) -> str:
    """str(n), converted MAX_DIGITS digits at a time where str() would refuse."""
    head, chunks = abs(n), []
    while head >= _DIGIT_BOUND:
        head, low = divmod(head, _DIGIT_BOUND)
        chunks.append(f"{low:0{MAX_DIGITS}d}")
    return "-" * (n < 0) + str(head) + "".join(reversed(chunks))


# Exact rationals as integers: (den, nums), value i == nums[i] / den.  A
# marginal's form lists its content's registry outcomes in order, and is
# reduced: gcd(den, *nums) == 1.
Form = tuple[int, tuple[int, ...]]


def to_form(values: Iterable[Fraction]) -> Form:
    """The values as integer numerators over the lcm of their denominators.

    That lcm leaves no factor common to it and all the numerators, so the
    form is reduced."""
    den = 1
    nums = []
    for v in values:
        d = v.denominator
        if den % d:
            scale = d // math.gcd(den, d)
            nums = [n * scale for n in nums]
            den *= scale
        nums.append(v.numerator * (den // d))
    return den, tuple(nums)


def exact_number(value) -> Fraction:
    """Convert an exact number to a Fraction: a Fraction, an int, or a string
    in rational ("3/4") or decimal ("0.75") form.  Floats have already lost
    exactness to binary rounding, and this package promises exact arithmetic;
    they are refused with InvalidProbability, as are booleans, other types
    and numerators or denominators of more than MAX_DIGITS digits."""
    if isinstance(value, float):
        raise InvalidProbability(
            f"float probability {value!r} is not exact; pass a string or Fraction"
        )
    if isinstance(value, Fraction):
        frac = value
    elif isinstance(value, int) and not isinstance(value, bool):
        frac = Fraction(value)
    elif isinstance(value, str):
        text = value.strip()
        try:
            exponent = _EXPONENT.search(text)
            if exponent and int(exponent.group(1)) > MAX_DIGITS:
                raise InvalidProbability(f"exponent of {value!r} beyond {MAX_DIGITS}")
            frac = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidProbability(f"cannot parse probability {value!r}: {exc}")
    else:
        raise InvalidProbability(f"unsupported probability type {type(value).__name__}")
    if abs(frac.numerator) >= _DIGIT_BOUND or frac.denominator >= _DIGIT_BOUND:
        raise InvalidProbability(
            f"probability with more than {MAX_DIGITS} digits in its numerator "
            f"or denominator"
        )
    return frac


def exact_text(x: Fraction) -> str:
    """str(x), or a note of its size where str() would refuse the digits."""
    long = abs(x.numerator) >= _DIGIT_BOUND or x.denominator >= _DIGIT_BOUND
    return f"a rational with more than {MAX_DIGITS} digits" if long else str(x)


def to_fraction(value) -> Fraction:
    """exact_number(value), refused with InvalidProbability outside [0, 1]."""
    frac = exact_number(value)
    if frac < 0 or frac > 1:
        raise InvalidProbability(f"probability {frac} outside [0, 1]")
    return frac


@dataclass(frozen=True)
class ContextBlock:
    """One context: an ordered tuple of contents and the joint table over them.

    The table maps outcome tuples (components in `contents` order) to exact
    probabilities.  Tuples absent from the table have probability zero; after
    validation the table holds the nonzero support only.
    """

    context: str
    contents: tuple[str, ...]
    table: dict[tuple[str, ...], Fraction]

    def prob(self, cell: tuple[str, ...]) -> Fraction:
        return self.table.get(cell, ZERO)


@dataclass(frozen=True)
class System:
    """A validated content-context system.

    outcomes: registry mapping each content id to its outcome label tuple.
    blocks:   context blocks sorted by context id.
    Treat instances as immutable; every derived enumeration (variables,
    atoms, connections) is ordered lexicographically for reproducibility.
    """

    outcomes: dict[str, tuple[str, ...]]
    blocks: tuple[ContextBlock, ...]

    # The index below is built on first use and cached in the instance
    # dict; cached properties are not dataclass fields, so equality, repr
    # and serialization see only outcomes and blocks.

    @cached_property
    def _by_context(self) -> dict[str, ContextBlock]:
        return {blk.context: blk for blk in self.blocks}

    @cached_property
    def _by_content(self) -> dict[str, tuple[str, ...]]:
        by_content: dict[str, list[str]] = {}
        for blk in self.blocks:
            for q in blk.contents:
                by_content.setdefault(q, []).append(blk.context)
        return {q: tuple(ctxs) for q, ctxs in by_content.items()}

    @cached_property
    def _marginals(self) -> dict[tuple[str, str], Form]:
        """(context, content) -> the variable's reduced Form: one pass over
        each context table, summing integer numerators over the table's lcm
        denominator."""
        position = {
            q: {o: i for i, o in enumerate(outs)} for q, outs in self.outcomes.items()
        }
        forms: dict[tuple[str, str], Form] = {}
        for blk in self.blocks:
            den, cell_nums = to_form(blk.table.values())
            sums = [[0] * len(position[q]) for q in blk.contents]
            where = [position[q] for q in blk.contents]
            for cell, num in zip(blk.table, cell_nums):
                for total, pos, o in zip(sums, where, cell):
                    total[pos[o]] += num
            for q, nums in zip(blk.contents, sums):
                g = math.gcd(den, *nums)
                if g > 1:
                    form = (den // g, tuple([n // g for n in nums]))
                else:
                    form = (den, tuple(nums))
                forms[(blk.context, q)] = form
        return forms

    def block(self, context: str) -> ContextBlock:
        return self._by_context[context]

    @property
    def context_ids(self) -> tuple[str, ...]:
        return tuple(blk.context for blk in self.blocks)

    @cached_property
    def content_ids(self) -> tuple[str, ...]:
        """Contents that appear in at least one context, sorted."""
        return tuple(sorted(self._by_content))

    @cached_property
    def variables(self) -> tuple[tuple[str, str], ...]:
        """All (context, content) variables, sorted lexicographically."""
        pairs = [(blk.context, q) for blk in self.blocks for q in blk.contents]
        return tuple(sorted(pairs))

    def contexts_of(self, content: str) -> tuple[str, ...]:
        return self._by_content.get(content, ())

    def pairs(self) -> list[tuple[str, str, str]]:
        """Every content-sharing pair of variables, as (content, context_a,
        context_b): contents sorted, then each content's contexts paired in
        sorted order.  The isolated deltas and the coupling objective both
        range over exactly these pairs."""
        return [
            (q, ca, cb)
            for q in self.content_ids
            for ca, cb in itertools.combinations(self._by_content[q], 2)
        ]


def check_context(
    context: str,
    contents: tuple[str, ...],
    registry: Mapping[str, Sequence[str]],
    seen: set[str],
) -> None:
    """Refuse a context id already in seen (then add it), a content listed
    twice in the context, an unhashable content (the registry's ids are
    strings) and a content missing from the registry."""
    if context in seen:
        raise DuplicateContext(f"context {context!r} defined twice")
    seen.add(context)
    for q in contents:
        if contents.count(q) > 1:
            raise DuplicateContentInContext(
                f"content {q!r} appears twice in context {context!r}"
            )
        try:
            known = q in registry
        except TypeError:
            raise DomainMismatch(
                f"context {context!r}: content {q!r} is not a string"
            ) from None
        if not known:
            raise UnknownContent(
                f"context {context!r} references unknown content {q!r}"
            )


def check_cell(context: str, contents: tuple, cell: tuple, registry: Mapping) -> None:
    """Refuse an outcome tuple whose arity is not the context's, or with an
    outcome outside its content's outcome set."""
    if len(cell) != len(contents):
        raise DomainMismatch(
            f"context {context!r}: outcome tuple {cell} has arity "
            f"{len(cell)}, expected {len(contents)}"
        )
    for q, o in zip(contents, cell):
        if o not in registry[q]:
            raise DomainMismatch(
                f"context {context!r}: outcome {o!r} not in the "
                f"outcome set of content {q!r}"
            )


def check_plus_minus_one(what: str, outcomes: Collection[str]) -> None:
    """Refuse an outcome collection other than exactly {'+1', '-1'}."""
    if set(outcomes) != {PLUS, MINUS}:
        raise NotPlusMinusOne(f"{what} needs the '+1'/'-1' outcome labels")


def validate_system(
    outcome_sets: Mapping[str, Sequence[str]],
    blocks: Iterable[tuple[str, Sequence[str], Mapping[tuple[str, ...], object]]],
) -> System:
    """Validate raw system data and return a canonical System.

    `blocks` is an iterable of (context_id, contents, table) triples; table
    values may be anything to_fraction() accepts.  Raises a CbdError subclass
    naming the offending context or content on any violation.
    """
    registry: dict[str, tuple[str, ...]] = {}
    for content, values in outcome_sets.items():
        vals = tuple(values)
        if not isinstance(content, str) or not all(isinstance(o, str) for o in vals):
            raise DomainMismatch(
                f"content {content!r}: content ids and outcome labels must be strings"
            )
        if len(vals) < 2:
            raise DomainMismatch(
                f"content {content!r} needs at least 2 outcomes, got {len(vals)}"
            )
        if len(set(vals)) != len(vals):
            raise DomainMismatch(f"content {content!r} lists duplicate outcomes")
        registry[content] = vals

    parsed: dict[str, Fraction] = {}  # each distinct string parsed once
    seen_contexts: set[str] = set()
    out_blocks: list[ContextBlock] = []
    for context, contents, table in blocks:
        if not isinstance(context, str):
            raise DomainMismatch(f"context id {context!r} is not a string")
        contents = tuple(contents)
        check_context(context, contents, registry, seen_contexts)
        if not contents:
            raise DomainMismatch(f"context {context!r} lists no contents")
        support: dict[tuple[str, ...], Fraction] = {}
        listed: set[tuple[str, ...]] = set()  # zero cells included
        for cell, raw in table.items():
            cell = tuple(cell)
            check_cell(context, contents, cell, registry)
            if cell in listed:
                raise DomainMismatch(
                    f"context {context!r}: outcome tuple {cell} listed twice"
                )
            listed.add(cell)
            if type(raw) is str:
                p = parsed.get(raw)
                if p is None:
                    p = parsed[raw] = to_fraction(raw)
            else:
                p = to_fraction(raw)
            if p != 0:
                support[cell] = p
        den, nums = to_form(support.values())
        if sum(nums) != den:
            raise ProbabilitySumMismatch(context, Fraction(sum(nums), den))
        out_blocks.append(ContextBlock(context, contents, support))

    if not out_blocks:
        raise EmptySystem("a system needs at least one context")
    out_blocks.sort(key=lambda blk: blk.context)
    return System(outcomes=registry, blocks=tuple(out_blocks))


@dataclass(frozen=True)
class Marginal:
    """Distribution of one variable: a content observed in one context.

    probs covers the full outcome set, zeros included, so two marginals of
    the same content compare cell for cell.  A marginal read from a system
    is decoded from the variable's reduced integer form (see marginal_forms)
    on each call: keys in the content's registry outcome order, values
    Fraction(n, den).
    """

    content: str
    context: str
    probs: dict[str, Fraction]


@dataclass(frozen=True)
class Connection:
    """All variables measuring one content, ordered by context id."""

    content: str
    members: tuple[Marginal, ...]


class Consistency(NamedTuple):
    per_connection: dict[str, bool]
    overall: bool


def marginal(system: System, content: str, context: str) -> Marginal:
    """Marginal distribution of `content` inside `context`.

    Decoded from the variable's form in the system's marginal index, which
    sums each context's table over all other contents' outcomes once.
    """
    try:
        den, nums = system._marginals[(context, content)]
    except KeyError:
        raise VariableNotInContext(
            f"content {content!r} not in context {context!r}"
        ) from None
    probs = {o: Fraction(n, den) for o, n in zip(system.outcomes[content], nums)}
    return Marginal(content, context, probs)


def marginal_forms(system: System) -> Mapping[tuple[str, str], Form]:
    """(context, content) -> the variable's reduced integer form: the
    system's marginal index itself; treat it as read-only."""
    return system._marginals


def connections(system: System) -> list[Connection]:
    """One Connection per content that appears in at least one context."""
    out = []
    for q in system.content_ids:
        members = tuple(
            marginal(system, q, c) for c in system.contexts_of(q)
        )
        out.append(Connection(content=q, members=members))
    return out


def is_consistently_connected(system: System) -> Consistency:
    """Whether every content has identical marginals in all its contexts.

    Returns the per-connection flags and their conjunction.  Connections
    with a single member are trivially consistent.
    """
    forms = marginal_forms(system)
    per: dict[str, bool] = {}
    for q in system.content_ids:
        first, *rest = (forms[(c, q)] for c in system.contexts_of(q))
        per[q] = all(form == first for form in rest)
    return Consistency(per_connection=per, overall=all(per.values()))


def expectation(system: System, context: str, contents: Sequence[str]) -> Fraction:
    """Expected product of the named variables inside one context.

    Requires each involved content to use the canonical '+1'/'-1' outcome
    labels.  A single content gives that variable's expectation.
    """
    blk = system.block(context)
    positions = []
    for q in contents:
        if q not in blk.contents:
            raise VariableNotInContext(
                f"content {q!r} not in context {context!r}"
            )
        check_plus_minus_one(f"content {q!r}", system.outcomes[q])
        positions.append(blk.contents.index(q))
    total = ZERO
    for cell, p in blk.table.items():
        sign = 1
        for pos in positions:
            if cell[pos] == MINUS:
                sign = -sign
        total += sign * p
    return total
