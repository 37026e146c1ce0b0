"""One system file format: schema/system.schema.json states it, and
parse_system_text follows it.

The differential test mutates seeded valid files one edit at a time and
asks both for a verdict.  They must agree on every file, except where the
parser refuses a file by one of the rules a schema cannot state
(BEYOND_SCHEMA).  The drift lock reads the schema and holds the parser's key
sets and probability grammar to its text.
"""

import copy
import io
import json
import pathlib
import random
from fractions import Fraction

import jsonschema
import pytest

from cbd import (
    CbdError,
    DomainMismatch,
    DuplicateCell,
    DuplicateContext,
    InvalidProbability,
    ProbabilitySumMismatch,
    SystemFileError,
    UnknownContent,
    parse_system_text,
    write_system,
)
from cbd.serialization import CELL_KEYS, CONTENT_KEYS, CONTEXT_KEYS, SYSTEM_KEYS
from cbd.systems import MAX_DIGITS, P_PATTERN
from helpers import rand_system

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "schema" / "system.schema.json")
    .read_text(encoding="utf-8")
)
VALIDATOR = jsonschema.Draft7Validator(SCHEMA)

# The rules a schema cannot state, each with the error and message fragment
# by which the parser refuses a file that the schema accepts.
BEYOND_SCHEMA = {
    "probability sums": (ProbabilitySumMismatch, "sums to"),
    # a "p" string's value, and a JSON number's exact value (a validator
    # compares the nearest float, and 1 + 1e-20 rounds to 1.0)
    "probabilities within [0, 1]": (InvalidProbability, "outside [0, 1]"),
    "content ids listed twice": (SystemFileError, "declared twice"),
    "context ids listed twice": (DuplicateContext, "defined twice"),
    "cells listed twice": (DuplicateCell, "listed twice"),
    "unknown contents": (UnknownContent, "unknown content"),
    "outcomes outside their set": (DomainMismatch, "not in the outcome set"),
    "arity": (DomainMismatch, "arity"),
    "the MAX_DIGITS exponent and digit limits": (InvalidProbability, str(MAX_DIGITS)),
}

# "p" strings of value 1/2 that Fraction() reads but the schema refuses: an
# exponent, a sign, underscores, non-ASCII digits and a denominator with a
# leading zero.
CRAFTED_P = ["5e-1", "+0.5", "1_0/2_0", "٠.٥", "０.５", "1/02", "01/02"]
# Other strings that the schema refuses, and valid spellings of 1/2.
REFUSED_P = ["5.", "1/0", "-0", "1 /2", "", " ", "½", "0x1", "inf", "1/2/2"]
VALID_P = [" 1/2 ", ".5", "2/4", "0.50", "01/2", "\t1/2\n"]


def schema_accepts(text):
    return VALIDATOR.is_valid(json.loads(text))


def parser_error(text):
    try:
        parse_system_text(text)
    except CbdError as exc:
        return exc
    return None


def beyond_schema(error):
    """The rule a schema cannot state that error refuses by, or None."""
    for rule, (cls, fragment) in BEYOND_SCHEMA.items():
        if isinstance(error, cls) and fragment in str(error):
            return rule
    return None


def assert_agree(text, what):
    accepted = schema_accepts(text)
    error = parser_error(text)
    if error is None:
        assert accepted, f"{what}: the parser accepts a file the schema refuses"
    elif accepted:
        assert beyond_schema(error), (
            f"{what}: the schema accepts a file the parser refuses: {error!r}"
        )
    return accepted, error


def one_context(p='"1/2"', extra=None):
    """A one-context file whose two cells hold p, as JSON text, and 1/2;
    extra names the object that gets an unknown key."""
    cells = [{"outcomes": ["x"], "p": None}, {"outcomes": ["y"], "p": "1/2"}]
    doc = {
        "contents": [{"id": "q", "values": ["x", "y"]}],
        "contexts": [{"id": "c", "contents": ["q"], "distribution": cells}],
    }
    target = {
        None: {},
        "top level": doc,
        "content": doc["contents"][0],
        "context": doc["contexts"][0],
        "cell": cells[0],
    }[extra]
    target["note"] = "unknown"
    return json.dumps(doc).replace("null", p, 1)


@pytest.mark.parametrize("p", CRAFTED_P + REFUSED_P)
def test_schema_and_parser_refuse_the_same_p_strings(p):
    accepted, error = assert_agree(one_context(json.dumps(p)), repr(p))
    assert not accepted
    assert isinstance(error, InvalidProbability)


@pytest.mark.parametrize("p", VALID_P)
def test_schema_and_parser_accept_the_same_p_strings(p):
    assert assert_agree(one_context(json.dumps(p)), repr(p)) == (True, None)


@pytest.mark.parametrize("where", ["top level", "content", "context", "cell"])
def test_unknown_keys_are_refused_by_both(where):
    accepted, error = assert_agree(one_context(extra=where), where)
    assert not accepted
    assert isinstance(error, SystemFileError)
    assert "unknown key 'note'" in str(error)


@pytest.mark.parametrize(
    "p, rule",
    [
        # a JSON number is not a string, so the string grammar does not bind it
        ("0.5", None),
        ("5e-1", None),
        ("0.50E0", None),
        ("1e-3000000", "the MAX_DIGITS exponent and digit limits"),
        ("1e-4300", "the MAX_DIGITS exponent and digit limits"),
        ("1.00000000000000000001", "probabilities within [0, 1]"),
        ('"3/2"', "probabilities within [0, 1]"),
    ],
)
def test_p_values_the_schema_accepts_and_a_rule_beyond_it_refuses(p, rule):
    accepted, error = assert_agree(one_context(p), p)
    assert accepted
    assert beyond_schema(error) == rule


def _walk(node, path=()):
    """(path, node) for node and everything inside it."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _walk(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _walk(value, path + (i,))


def _edit(doc, path, change):
    """A deep copy of doc with change applied to the container at path[:-1]
    and the key path[-1]."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    change(parent, path[-1])
    return doc


def _set(value):
    def change(parent, key):
        parent[key] = value

    return change


def _drop(parent, key):
    del parent[key]


def _repeat(parent, key):
    parent.insert(key, copy.deepcopy(parent[key]))


def _add_key(parent, key):
    parent[key]["note"] = 1


# one value of each JSON type, for the "change a type" edits
OTHER_TYPES = [None, True, 7, 0.25, "x", ["x"], {}]


def _same_value_spellings(p):
    """Other valid spellings of the probability string p: padded, with a
    leading zero, unreduced, and as a decimal string and a JSON number
    where p has a short decimal form."""
    x = Fraction(p)
    out = [f" {p} ", f"0{p}", f"{2 * x.numerator}/{2 * x.denominator}"]
    if 10**6 % x.denominator == 0:
        n = x.numerator * 10**6 // x.denominator
        out += [f"{n // 10**6}.{n % 10**6:06d}", n / 10**6]
    return out


# a decimal string the schema's pattern accepts, but whose denominator has
# more than MAX_DIGITS digits
LONG_P = "0." + "0" * MAX_DIGITS + "1"


def mutations(doc):
    """(description, file text) for every one-edit variant of doc: drop or
    add a key, drop or repeat an array item, change a type, empty a string,
    or respell a probability."""
    for path, node in _walk(doc):
        others = [v for v in OTHER_TYPES if type(v) is not type(node)]
        if not path:
            yield "top level + key", json.dumps({**doc, "note": 1})
            yield from (("top level = " + json.dumps(v), json.dumps(v)) for v in others)
            continue
        edits = [("= " + json.dumps(v), _set(v)) for v in others]
        edits.append(("dropped", _drop))
        if isinstance(node, dict):
            edits.append(("+ key", _add_key))
        if isinstance(path[-1], int):
            edits.append(("repeated", _repeat))
        if isinstance(node, str):
            edits.append(("emptied", _set("")))
        if path[-1] == "p":
            spellings = CRAFTED_P + REFUSED_P + VALID_P + [LONG_P, "3/2"]
            spellings += _same_value_spellings(node)
            edits += [(f"= {s!r}", _set(s)) for s in spellings]
        for what, change in edits:
            yield f"{list(path)} {what}", json.dumps(_edit(doc, path, change))


def test_schema_and_parser_agree_on_mutated_files():
    rng = random.Random(97)
    verdicts = {"accepted": 0, "refused by both": 0}
    verdicts.update((rule, 0) for rule in BEYOND_SCHEMA)
    for _ in range(6):
        buf = io.StringIO()
        write_system(rand_system(rng, ternary_share=0.3), buf)
        doc = json.loads(buf.getvalue())
        assert assert_agree(buf.getvalue(), "unmutated") == (True, None)
        for what, text in mutations(doc):
            accepted, error = assert_agree(text, what)
            if error is None:
                verdicts["accepted"] += 1
            elif accepted:
                verdicts[beyond_schema(error)] += 1
            else:
                verdicts["refused by both"] += 1
    # every kind of verdict is reached, so no exception is vacuous
    assert 0 not in verdicts.values(), verdicts


def test_parser_keys_and_grammar_are_the_schema_text():
    contexts = SCHEMA["properties"]["contexts"]["items"]
    objects = {
        "top level": (SCHEMA, SYSTEM_KEYS),
        "content": (SCHEMA["properties"]["contents"]["items"], CONTENT_KEYS),
        "context": (contexts, CONTEXT_KEYS),
        "cell": (contexts["properties"]["distribution"]["items"], CELL_KEYS),
    }
    for name, (node, keys) in objects.items():
        assert set(node["required"]) == set(keys), name
        assert set(node["properties"]) == set(keys), name
        assert node["additionalProperties"] is False, name
    p = objects["cell"][0]["properties"]["p"]["oneOf"]
    assert [branch["type"] for branch in p] == ["string", "number"]
    assert p[0]["pattern"] == P_PATTERN
