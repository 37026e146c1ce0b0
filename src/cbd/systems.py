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
over a common denominator; and check_cell, the outcome-tuple check.  The
rules on a system live here too, once each: validate_system and the system
file parser both build a System through outcome_set, context_block and
build_system.

A System indexes its marginals once, on first use.  One pass over each
context table sums integer numerators over the lcm of the table's
denominators, so no Fraction is added.  The index keeps only each
variable's reduced integer *form*, a (den, nums) pair with nums in the
content's registry outcome order and gcd(den, *nums) == 1; two marginals of
one content are equal exactly when their forms are.  The isolated deltas
and the consistency check read these forms; marginal() decodes one form
into a Marginal when it is called.  The isolated deltas and their sum are
cached with the index (isolated_deltas), and s_odd reads a ring's product
expectations off the same table forms for its closed form, in cyclic.py.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import cached_property
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DomainMismatch,
    DuplicateCell,
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
# the cyclic criterion and the epistemic 'equal'/'unequal' constraints.
# Other outcome sets are fine everywhere else.
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

# A "p" string in a system file, as schema/system.schema.json's "pattern"
# states it; to_fraction, the Python API's gate, also reads signs and exponents.
P_PATTERN = r"^\s*([0-9]+(/[1-9][0-9]*)?|[0-9]*\.[0-9]+)\s*$"
P_GRAMMAR = re.compile(P_PATTERN)


def int_text(n: int) -> str:
    """str(n), converted MAX_DIGITS digits at a time where str() would refuse."""
    head, chunks = abs(n), []
    while head >= _DIGIT_BOUND:
        head, low = divmod(head, _DIGIT_BOUND)
        chunks.append(f"{low:0{MAX_DIGITS}d}")
    return "-" * (n < 0) + str(head) + "".join(reversed(chunks))


def format_exact(x: Fraction) -> str:
    """str(x), its digits printed in full however many there are."""
    try:
        return str(x)
    except ValueError:  # more than MAX_DIGITS digits: str() refuses them
        num = int_text(x.numerator)
        return num if x.denominator == 1 else f"{num}/{int_text(x.denominator)}"


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


def total_variation(f1: Form, f2: Form) -> Fraction:
    """The mass f1 puts above f2, for two forms over the same outcome order:
    sum_o max(0, a_o*d2 - b_o*d1) / (d1*d2).  For two distributions that is
    their total variation distance."""
    if f1 == f2:
        return ZERO
    (d1, a), (d2, b) = f1, f2
    excess = sum(max(0, x * d2 - y * d1) for x, y in zip(a, b))
    return Fraction(excess, d1 * d2)


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


def to_fraction(value) -> Fraction:
    """exact_number(value), refused with InvalidProbability outside [0, 1]."""
    frac = exact_number(value)
    if frac < 0 or frac > 1:
        raise InvalidProbability(f"probability {frac} outside [0, 1]")
    return frac


class ContextBlock(NamedTuple):
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


class _SystemFields(NamedTuple):
    outcomes: dict[str, tuple[str, ...]]
    blocks: tuple[ContextBlock, ...]


class System(_SystemFields):
    """A validated content-context system.

    outcomes: registry mapping each content id to its outcome label tuple.
    blocks:   context blocks sorted by context id.
    Treat instances as immutable; every derived enumeration (variables,
    atoms, connections) is ordered lexicographically for reproducibility.
    """

    # The index below is built on first use and cached in the instance
    # dict, which this subclass of the named tuple has (it declares no
    # __slots__); equality, repr and serialization see only the fields.

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
    def _tables(self) -> tuple[Form, ...]:
        """Each block's table values as a Form, in table order, in block
        order."""
        return tuple([to_form(blk.table.values()) for blk in self.blocks])

    @cached_property
    def _marginals(self) -> dict[tuple[str, str], Form]:
        """(context, content) -> the variable's reduced Form: one pass over
        each context table, summing integer numerators over the table's lcm
        denominator."""
        position = {
            q: {o: i for i, o in enumerate(outs)} for q, outs in self.outcomes.items()
        }
        forms: dict[tuple[str, str], Form] = {}
        for blk, (den, cell_nums) in zip(self.blocks, self._tables):
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

    @cached_property
    def _isolated(self) -> IsolatedDeltas:
        """Every pairs() entry with its isolated delta, the total variation
        of its two marginal forms, and their sum over one denominator."""
        forms = self._marginals
        pairs = tuple(
            PairDelta(q, ca, cb, total_variation(forms[(ca, q)], forms[(cb, q)]))
            for q, ca, cb in self.pairs()
        )
        den, nums = to_form(pair.delta for pair in pairs)
        return IsolatedDeltas(pairs, Fraction(sum(nums), den))

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


def outcome_set(content, values) -> tuple[str, ...]:
    """A content's outcome set as a tuple, by the label rule: the content id
    and each outcome label are non-empty strings, and the set is a sequence
    of at least two distinct labels, never one bare string."""
    vals = tuple(values)
    labels = (content, *vals)
    # str.__instancecheck__(x) is isinstance(x, str), as a function map takes
    if isinstance(values, str) or "" in labels or not all(
        map(str.__instancecheck__, labels)
    ):
        raise DomainMismatch(
            f"content {content!r}: outcome set {values!r}: ids and labels must "
            f"be non-empty strings, and an outcome set a sequence of them"
        )
    if len(vals) < 2 or len(set(vals)) != len(vals):
        raise DomainMismatch(
            f"content {content!r} needs at least 2 outcomes, with no duplicate outcomes"
        )
    return vals


def check_context(context, contents, registry: Mapping, seen: set) -> tuple[str, ...]:
    """A context's contents as a tuple, by the label rule: the context id is
    a non-empty string not yet in seen (then it is added), and contents is a
    non-empty sequence, never one bare string, of distinct registry ids."""
    if not (isinstance(context, str) and context):
        raise DomainMismatch(f"context id {context!r} is not a non-empty string")
    if isinstance(contents, str):
        raise DomainMismatch(f"context {context!r}: contents {contents!r} is a string")
    contents = tuple(contents)
    if not contents:
        raise DomainMismatch(f"context {context!r} lists no contents")
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
    return contents


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


def context_block(context, contents, cells, registry, seen, parsed, grammar=None):
    """One context's ContextBlock: check_context, then per (outcome tuple,
    probability) in cells, check_cell, no tuple listed twice and to_fraction,
    once per distinct str (not a subclass) into the memo parsed, after a full
    match of the compiled regex grammar if given; nonzero cells sum to 1."""
    contents = check_context(context, contents, registry, seen)
    support, listed = {}, set()  # listed holds the zero cells too
    for cell, raw in cells:
        check_cell(context, contents, cell, registry)
        if cell in listed:
            raise DuplicateCell(f"context {context!r}: cell {cell} listed twice")
        listed.add(cell)
        if type(raw) is not str:
            p = to_fraction(raw)
        elif (p := parsed.get(raw)) is None:
            if grammar and not grammar.fullmatch(raw):
                what = f"context {context!r}: probability {raw!r}"
                raise InvalidProbability(f"{what} is not an ASCII 'num/den' or decimal")
            p = parsed[raw] = to_fraction(raw)
        if p:
            support[cell] = p
    den, nums = to_form(support.values())
    if sum(nums) != den:
        raise ProbabilitySumMismatch(context, Fraction(sum(nums), den))
    return ContextBlock(context, contents, support)


def build_system(registry: dict, blocks: list[ContextBlock]) -> System:
    """The System of checked blocks, sorted by context id."""
    if not blocks:
        raise EmptySystem("a system needs at least one context")
    return System(registry, tuple(sorted(blocks, key=lambda blk: blk.context)))


def validate_system(
    outcome_sets: Mapping[str, Sequence[str]],
    blocks: Iterable[tuple[str, Sequence[str], Mapping[tuple[str, ...], object]]],
) -> System:
    """Validate raw system data and return a canonical System: outcome_set
    checks each content, and context_block each (context_id, contents, table)
    of blocks, as in a system file's parser; table values may be anything
    to_fraction() accepts.  A CbdError names the offending context or content."""
    registry = {q: outcome_set(q, values) for q, values in outcome_sets.items()}
    seen, parsed = set(), {}
    return build_system(registry, [
        context_block(context, contents, [(tuple(c), p) for c, p in table.items()],
                      registry, seen, parsed)
        for context, contents, table in blocks
    ])


class Marginal(NamedTuple):
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


class PairDelta(NamedTuple):
    """One System.pairs() entry with its isolated delta, built once per pair
    by System._isolated or analysis.analyze_deterministic."""

    content: str
    context_a: str
    context_b: str
    delta: Fraction


class IsolatedDeltas(NamedTuple):
    """The PairDelta of every content-sharing pair, in System.pairs() order,
    and their sum, the in-isolation baseline delta_sum."""

    pairs: tuple[PairDelta, ...]
    total: Fraction


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


def isolated_deltas(system: System) -> IsolatedDeltas:
    """The system's isolated deltas and their sum, computed from the marginal
    index on first use and cached with it: one read per system, however many
    callers ask."""
    return system._isolated


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


def s_odd(system: System) -> Fraction:
    """s_odd of the product expectations <R_a R_b>, one per context of a
    system whose contexts each measure two '+1'/'-1' contents (a ring, as
    cyclic.py checks): the largest sum of them with an odd number negated.
    Each is read in block order, in integers off its context's table form,
    the one the marginal index sums: a cell counts +1 where its two labels
    agree and -1 where they differ, and the sum is taken over the common
    denominator, so no Fraction is added."""
    terms = []
    for blk, (den, nums) in zip(system.blocks, system._tables):
        same = 0
        for (x, y), num in zip(blk.table, nums):
            if x == y:
                same += num
        terms.append((2 * same - den, den))
    common = math.lcm(*[den for _, den in terms])
    total = negated = 0
    least = common
    for e, den in terms:
        value = abs(e) * (common // den)
        total += value
        negated ^= e < 0
        least = min(least, value)
    if not negated:
        total -= 2 * least
    return Fraction(total, common)
