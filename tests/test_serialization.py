import copy
import gc
import io
import json
import math
import pathlib
import random
from fractions import Fraction

import jsonschema
import pytest

from cbd import (
    DomainMismatch,
    DuplicateCell,
    InvalidProbability,
    ProbabilitySumMismatch,
    SystemFileError,
    UnknownContent,
    analyze,
    enumerate_variants,
    liar_system,
    marginal,
    parse_system,
    parse_system_data,
    parse_system_text,
    system_to_dict,
    uniform_mixture,
    validate_system,
    write_system,
)
from cbd.serialization import (
    dumps_indented,
    format_exact,
    format_report_text,
    format_value,
    rational_json,
    report_to_dict,
)
from helpers import (
    M,
    P,
    fold_exact,
    long_denominator_system,
    order_effect_system,
    pm_registry,
    rand_deterministic,
    rand_system,
)

F = Fraction

ORDER_EFFECT_JSON = """
{
  "contents": [
    {"id": "q1", "values": ["+1", "-1"]},
    {"id": "q2", "values": ["+1", "-1"]}
  ],
  "contexts": [
    {
      "id": "c1",
      "contents": ["q1", "q2"],
      "distribution": [
        {"outcomes": ["+1", "+1"], "p": "1/4"},
        {"outcomes": ["-1", "+1"], "p": "1/4"},
        {"outcomes": ["-1", "-1"], "p": "1/2"}
      ]
    },
    {
      "id": "c2",
      "contents": ["q1", "q2"],
      "distribution": [
        {"outcomes": ["+1", "-1"], "p": "1/4"},
        {"outcomes": ["-1", "+1"], "p": "1/2"},
        {"outcomes": ["-1", "-1"], "p": "1/4"}
      ]
    }
  ]
}
"""


def test_parse_matches_builder():
    sys_ = parse_system_text(ORDER_EFFECT_JSON)
    assert sys_ == order_effect_system()
    report = analyze(sys_)
    assert report.cnt == F(1, 2)
    assert report.contextual


def test_json_numbers_parse_from_literal_text():
    text = """
    {
      "contents": [{"id": "q", "values": ["x", "y"]}],
      "contexts": [{
        "id": "c",
        "contents": ["q"],
        "distribution": [
          {"outcomes": ["x"], "p": 0.1},
          {"outcomes": ["y"], "p": 0.9}
        ]
      }]
    }
    """
    sys_ = parse_system_text(text)
    # 0.1 means exactly 1/10, not the nearest binary float
    assert marginal(sys_, "q", "c").probs == {"x": F(1, 10), "y": F(9, 10)}


def test_repeating_decimals_as_fractions():
    text = """
    {
      "contents": [{"id": "q", "values": ["a", "b", "c"]}],
      "contexts": [{
        "id": "c1",
        "contents": ["q"],
        "distribution": [
          {"outcomes": ["a"], "p": "1/3"},
          {"outcomes": ["b"], "p": "1/3"},
          {"outcomes": ["c"], "p": "1/3"}
        ]
      }]
    }
    """
    sys_ = parse_system_text(text)
    assert sum(sys_.block("c1").table.values()) == 1


def test_integer_probabilities_and_zero_cells():
    text = """
    {
      "contents": [{"id": "q", "values": ["x", "y"]}],
      "contexts": [{
        "id": "c",
        "contents": ["q"],
        "distribution": [
          {"outcomes": ["x"], "p": 1},
          {"outcomes": ["y"], "p": 0}
        ]
      }]
    }
    """
    sys_ = parse_system_text(text)
    assert sys_.block("c").table == {("x",): F(1)}


def test_sum_mismatch_names_context_and_exact_total():
    text = """
    {
      "contents": [{"id": "q", "values": ["x", "y"]}],
      "contexts": [{
        "id": "lopsided",
        "contents": ["q"],
        "distribution": [
          {"outcomes": ["x"], "p": 0.5},
          {"outcomes": ["y"], "p": 0.49}
        ]
      }]
    }
    """
    with pytest.raises(ProbabilitySumMismatch) as exc:
        parse_system_text(text)
    assert "lopsided" in str(exc.value)
    assert "99/100" in str(exc.value)


def test_float_rejected_in_data_api():
    data = {
        "contents": [{"id": "q", "values": ["x", "y"]}],
        "contexts": [
            {
                "id": "c",
                "contents": ["q"],
                "distribution": [
                    {"outcomes": ["x"], "p": 0.5},
                    {"outcomes": ["y"], "p": 0.5},
                ],
            }
        ],
    }
    with pytest.raises(InvalidProbability):
        parse_system_data(data)


def test_json_boolean_and_huge_exponent_rejected():
    text = """
    {
      "contents": [{"id": "q", "values": ["x", "y"]}],
      "contexts": [{
        "id": "c",
        "contents": ["q"],
        "distribution": [{"outcomes": ["x"], "p": true}]
      }]
    }
    """
    with pytest.raises(InvalidProbability):
        parse_system_text(text)
    with pytest.raises(InvalidProbability, match="exponent"):
        parse_system_text(text.replace("true", "1e-3000000"))


def test_bad_json_reports_location():
    with pytest.raises(SystemFileError) as exc:
        parse_system_text('{\n  "contents": [}', source="broken.json")
    msg = str(exc.value)
    assert msg.startswith("broken.json: line 2")
    assert "column" in msg


@pytest.mark.parametrize(
    "data, fragment",
    [
        ([], "top level"),
        ({"contents": []}, "contexts"),
        ({"contents": [{"id": "q"}], "contexts": []}, "contents[0]"),
        (
            {"contents": [{"id": "q", "values": ["x", 1]}], "contexts": []},
            "contents[0]",
        ),
        (
            {
                "contents": [
                    {"id": "q", "values": ["x", "y"]},
                    {"id": "q", "values": ["x", "y"]},
                ],
                "contexts": [],
            },
            "declared twice",
        ),
        (
            {
                "contents": [{"id": "q", "values": ["x", "y"]}],
                "contexts": [{"id": "c", "contents": ["q"]}],
            },
            "contexts[0]",
        ),
        (
            {
                "contents": [{"id": "q", "values": ["x", "y"]}],
                "contexts": [
                    {
                        "id": "c",
                        "contents": ["q"],
                        "distribution": [{"outcomes": ["x"]}],
                    }
                ],
            },
            "distribution[0]",
        ),
        (
            {
                "contents": [{"id": "q", "values": ["x", "y"]}],
                "contexts": [
                    {
                        "id": "c",
                        "contents": ["q"],
                        "distribution": [
                            {"outcomes": ["x"], "p": "1/2"},
                            {"outcomes": ["x"], "p": "1/2"},
                        ],
                    }
                ],
            },
            "twice",
        ),
        (
            {
                "contents": [{"id": "q", "values": ["x", "y"]}],
                "contexts": [{"id": "c", "contents": [["q"]], "distribution": []}],
            },
            "contexts[0]",
        ),
        (
            {
                "contents": [{"id": "q", "values": ["x", "y"]}],
                "contexts": [
                    {
                        "id": "c",
                        "contents": ["q"],
                        "distribution": [{"outcomes": [["x"]], "p": "1"}],
                    }
                ],
            },
            "context 'c' distribution[0]",
        ),
    ],
)
def test_structural_errors(data, fragment):
    with pytest.raises(SystemFileError) as exc:
        parse_system_data(data)
    assert fragment in str(exc.value)


def test_round_trip_random_systems():
    rng = random.Random(71)
    fixtures = [rand_system(rng) for _ in range(10)]
    for n in (2, 3):
        spec = liar_system(n)
        fixtures.append(uniform_mixture(spec, enumerate_variants(spec)))
    fixtures.append(order_effect_system())
    for sys_ in fixtures:
        buf = io.StringIO()
        write_system(sys_, buf)
        assert parse_system_text(buf.getvalue()) == sys_


def test_parse_system_from_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(ORDER_EFFECT_JSON, encoding="utf-8")
    assert parse_system(str(path)) == order_effect_system()


def test_parse_system_from_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(ORDER_EFFECT_JSON))
    assert parse_system("-") == order_effect_system()


def test_overlong_integer_literal_is_a_file_error(tmp_path):
    # json's int() refuses literals beyond its digit limit with a bare
    # ValueError; it must reach the caller as a SystemFileError naming the file
    text = ORDER_EFFECT_JSON.replace('"1/4"', "1" + "0" * 5000, 1)
    assert text != ORDER_EFFECT_JSON
    path = tmp_path / "long.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemFileError) as exc:
        parse_system(str(path))
    assert str(exc.value).startswith(f"{path}:")


def test_deeply_nested_json_is_a_file_error():
    # json's decoder recurses once per nesting level; running out of stack
    # must reach the caller as a SystemFileError naming the source
    with pytest.raises(SystemFileError, match="^deep.json: "):
        parse_system_text("[" * 100_000, source="deep.json")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("old", ['"1/4"', '"c2"'], ids=["p", "id"])
def test_non_json_constants_are_file_errors(token, old):
    # json.loads reads these tokens, but JSON has none of them; the file is
    # refused when it is loaded, before any probability or id is read
    text = ORDER_EFFECT_JSON.replace(old, token, 1)
    assert text != ORDER_EFFECT_JSON
    with pytest.raises(SystemFileError, match=f"^bad.json: {token} is not JSON$"):
        parse_system_text(text, source="bad.json")


def test_parse_system_missing_file(tmp_path):
    with pytest.raises(SystemFileError) as exc:
        parse_system(str(tmp_path / "nope.json"))
    assert "nope.json" in str(exc.value)


@pytest.mark.parametrize(
    "old, new, error, rule",
    [
        pytest.param(
            '"p": "1/4"}', '"p": "1/8"}', ProbabilitySumMismatch,
            "distribution of context 'c1' sums to 7/8, expected 1", id="sum",
        ),
        pytest.param(
            '"contents": ["q1", "q2"]', '"contents": ["q1", "q3"]', UnknownContent,
            "'q3'", id="unknown-content",
        ),
        pytest.param(
            '["+1", "+1"]', '["+1", "0"]', DomainMismatch, "'0'", id="outcome",
        ),
        pytest.param(
            '["-1", "+1"], "p": "1/4"', '["-1", "-1"], "p": "1/4"', DuplicateCell,
            "listed twice", id="duplicate-cell",
        ),
    ],
)
def test_domain_refusals_name_the_file(tmp_path, old, new, error, rule):
    # the rules a schema cannot state name the file, as the structural ones
    # do, and keep their class
    text = ORDER_EFFECT_JSON.replace(old, new, 1)
    assert text != ORDER_EFFECT_JSON
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as exc:
        parse_system(str(path))
    message = str(exc.value)
    assert message.startswith(f"{path}: ") and rule in message
    assert message.count(str(path)) == 1
    with pytest.raises(error, match=f"^bad.json: .*{rule}"):
        parse_system_text(text, source="bad.json")


SCHEMA_PATH = pathlib.Path(__file__).resolve().parent.parent / "schema" / "system.schema.json"


def load_schema():
    return json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))


def test_emitted_files_validate_against_schema():
    schema = load_schema()
    rng = random.Random(73)
    docs = [system_to_dict(rand_system(rng)) for _ in range(5)]
    docs.append(system_to_dict(order_effect_system()))
    docs.append(json.loads(ORDER_EFFECT_JSON))
    for doc in docs:
        jsonschema.validate(doc, schema)


def test_schema_rejects_malformed_documents():
    schema = load_schema()
    good = json.loads(ORDER_EFFECT_JSON)

    bad_p = json.loads(ORDER_EFFECT_JSON)
    bad_p["contexts"][0]["distribution"][0]["p"] = "1/0"
    stray = json.loads(ORDER_EFFECT_JSON)
    stray["plot"] = True
    negative = json.loads(ORDER_EFFECT_JSON)
    negative["contexts"][0]["distribution"][0]["p"] = -0.25

    jsonschema.validate(good, schema)
    for doc in (bad_p, stray, negative):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)


def test_empty_labels_in_a_file_are_refused_as_the_schema_refuses_them():
    doc = {
        "contents": [{"id": "", "values": ["", "b"]}],
        "contexts": [
            {"id": "", "contents": [""], "distribution": [{"outcomes": [""], "p": "1"}]}
        ],
    }
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, load_schema())
    with pytest.raises(DomainMismatch, match="non-empty"):
        parse_system_data(doc)


REPORT_SCHEMA_PATH = SCHEMA_PATH.with_name("report.schema.json")


def load_report_schema():
    return json.loads(REPORT_SCHEMA_PATH.read_text(encoding="utf-8"))


def test_reports_validate_against_schema():
    schema = load_report_schema()
    rng = random.Random(79)
    systems = [rand_system(rng) for _ in range(8)]
    systems += [rand_deterministic(rng) for _ in range(8)]
    systems += [order_effect_system(), long_denominator_system()]
    reports = [analyze(s) for s in systems]
    assert {r.deterministic for r in reports} == {True, False}
    for report in reports:
        for witness in (False, True):
            doc = report_to_dict(report, include_witness=witness)
            assert ("witness" in doc) is witness
            jsonschema.validate(doc, schema)


def test_report_schema_rejects_malformed_reports():
    schema = load_report_schema()
    good = report_to_dict(analyze(order_effect_system()), include_witness=True)
    jsonschema.validate(good, schema)

    missing = copy.deepcopy(good)
    del missing["system_delta"]
    numeric_exact = copy.deepcopy(good)
    numeric_exact["cnt"]["exact"] = 0.5
    stray = copy.deepcopy(good)
    stray["plot"] = True
    bare_witness = copy.deepcopy(good)
    del bare_witness["witness"]["atoms"]
    empty_context = copy.deepcopy(good)
    empty_context["connections"][0]["pairs"][0]["context_a"] = ""

    for doc in (missing, numeric_exact, stray, bare_witness, empty_context):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)


def test_format_value():
    assert format_value(F(1, 2)) == "1/2 (0.5)"
    assert format_value(F(0)) == "0"
    assert format_value(F(1)) == "1"
    assert format_value(F(2)) == "2"
    assert format_value(F(1, 3)) == "1/3 (0.333333)"
    assert format_exact(F(3, 4)) == "3/4"
    assert rational_json(F(1, 4)) == {"exact": "1/4", "decimal": 0.25}


def test_report_dict_shape():
    report = analyze(order_effect_system())
    doc = report_to_dict(report, include_witness=True)
    assert doc["contents"] == 2
    assert doc["contexts"] == 2
    assert doc["variables"] == 4
    assert doc["consistent"] is True
    assert doc["deterministic"] is False
    assert doc["contextual"] is True
    assert doc["cnt"] == {"exact": "1/2", "decimal": 0.5}
    assert doc["delta_sum"] == {"exact": "0", "decimal": 0.0}
    by_content = {c["content"]: c for c in doc["connections"]}
    assert set(by_content) == {"q1", "q2"}
    for entry in by_content.values():
        assert entry["consistent"] is True
        assert entry["pairs"] == [
            {
                "context_a": "c1",
                "context_b": "c2",
                "delta": {"exact": "0", "decimal": 0.0},
            }
        ]
    atoms = doc["witness"]["atoms"]
    assert sum(F(a["p"]["exact"]) for a in atoms) == 1
    assert len(doc["witness"]["variables"]) == 4
    json.dumps(doc)  # must be serializable as-is


def test_report_text_lines():
    report = analyze(order_effect_system())
    text = format_report_text(report)
    assert text.splitlines() == [
        "contents: 2   contexts: 2   variables: 4",
        "deterministic: no",
        "consistently connected: yes",
        "connection q1: delta(c1, c2) = 0",
        "connection q2: delta(c1, c2) = 0",
        "delta_sum = 0",
        "system_delta = 1/2 (0.5)",
        "cnt = 1/2 (0.5)",
        "verdict: contextual",
    ]


def test_report_text_witness_block():
    report = analyze(order_effect_system())
    text = format_report_text(report, include_witness=True)
    lines = text.splitlines()
    idx = lines.index("witness coupling:")
    assert lines[idx + 1] == "  variables: q1@c1, q2@c1, q1@c2, q2@c2"
    weights = []
    for line in lines[idx + 2 :]:
        assert line.startswith("  p[")
        weights.append(F(line.split("= ")[1].split(" ")[0]))
    assert sum(weights) == 1


def test_report_text_single_context_connection():
    sys_ = validate_system(
        pm_registry("q1"),
        [("c1", ("q1",), {(P,): F(1, 2), (M,): F(1, 2)})],
    )
    text = format_report_text(analyze(sys_))
    assert "connection q1: single context" in text
    assert "verdict: noncontextual" in text


def test_reports_print_long_exact_values_in_full():
    report = analyze(long_denominator_system())
    assert report.delta_sum == F(1, 7**5000) - F(1, 3**9000)
    assert report.delta_sum.denominator.bit_length() == 28_302
    doc = report_to_dict(report, include_witness=True)
    assert fold_exact(doc["delta_sum"]["exact"]) == report.delta_sum
    assert fold_exact(doc["system_delta"]["exact"]) == report.system_delta
    assert doc["cnt"] == {"exact": "0", "decimal": 0.0}
    text = format_report_text(report, include_witness=True)
    line = next(ln for ln in text.splitlines() if ln.startswith("delta_sum = "))
    exact, reading = line.removeprefix("delta_sum = ").split(" ")
    assert fold_exact(exact) == report.delta_sum
    assert reading == f"({float(report.delta_sum):g})"
    assert format_exact(F(-(10**5000) - 7, 3)) == "-1" + "0" * 4999 + "7/3"
    assert format_exact(F(10**4300)) == "1" + "0" * 4300


def test_non_utf8_file_is_a_file_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + ORDER_EFFECT_JSON.encode("utf-16-le"))
    with pytest.raises(SystemFileError) as exc:
        parse_system(str(path))
    assert str(exc.value).startswith(f"{path}: not UTF-8")


# ---------------------------------------------------------------------------
# dumps_indented: json.dumps(doc, indent=2), byte for byte


def _assert_indented_like_json(doc):
    assert dumps_indented(doc) == json.dumps(doc, indent=2)


def test_reports_and_system_files_match_json_dumps():
    systems = []
    for n in range(2, 7):
        spec = liar_system(n)
        systems.append(uniform_mixture(spec, enumerate_variants(spec)))
    rng = random.Random(11)
    systems += [rand_system(rng, 6, 6, 3, 0.3, 4096) for _ in range(40)]
    systems += [rand_deterministic(rng) for _ in range(10)]
    systems += [order_effect_system(), long_denominator_system()]
    for system in systems:
        buf = io.StringIO()
        write_system(system, buf)
        assert buf.getvalue() == json.dumps(system_to_dict(system), indent=2) + "\n"
        report = analyze(system)
        _assert_indented_like_json(report_to_dict(report))
        _assert_indented_like_json(report_to_dict(report, include_witness=True))


def _random_text(rng):
    pool = [
        lambda: chr(rng.randrange(0x20)),  # control characters
        lambda: chr(rng.randrange(0x20, 0x7F)),
        lambda: rng.choice('"\\/'),
        lambda: chr(rng.randrange(0x80, 0x110000)),  # non-ASCII
        lambda: chr(rng.randrange(0xD800, 0xE000)),  # lone surrogates
    ]
    return "".join(rng.choice(pool)() for _ in range(rng.randrange(8)))


def _random_document(rng, depth=0):
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.randint(-(10**30), 10**30)
    if kind == 2:
        special = [-0.0, math.nan, math.inf, -math.inf]
        ordinary = [rng.random(), rng.uniform(-1e20, 1e20), 10.0 ** rng.randint(-30, 30)]
        return rng.choice(special + ordinary)
    if kind == 3:
        return rng.choice([True, False])
    if kind == 4:
        return None
    items = [_random_document(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {_random_text(rng): item for item in items}


def test_dumps_indented_matches_json_on_random_documents():
    rng = random.Random(83)
    for _ in range(500):
        _assert_indented_like_json(_random_document(rng))


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        "",
        {"a": {}, "b": [], "c": ()},
        [[], {}, [[]], [{}], ({},)],
        (1, (2, ()), [3.5]),
        "caf\u00e9 \u2713 \U0001d11e \u2028",
        "\x00\x01\n\t\x1f\x7f",
        '"quoted" \\ back/slash',
        "lone \ud800 and \udfff",
        {"\u00e9\ud83d": "key", "": None, "\\": ['"']},
        -0.0,
        0.0,
        1e-07,
        1e16,
        1e22,
        123456789.125,
        math.nan,
        math.inf,
        -math.inf,
        [math.nan, math.inf, -math.inf, -0.0],
        True,
        False,
        None,
        [True, False, None, 0, -1, 10**40],
        {"t": True, "f": False, "n": None, "i": -7},
    ],
)
def test_dumps_indented_edge_cases(doc):
    _assert_indented_like_json(doc)


@pytest.mark.parametrize(
    "doc", [F(1, 2), {1: "a"}, {"a": {1, 2}}, [b"bytes"], [object()]]
)
def test_dumps_indented_refuses_other_types(doc):
    with pytest.raises(TypeError):
        dumps_indented(doc)


def test_dumps_indented_leaves_no_garbage():
    # a writer that refers to itself, such as a closure that calls itself,
    # is a reference cycle that keeps each output list alive until the
    # collector runs
    doc = report_to_dict(analyze(order_effect_system()), include_witness=True)
    gc.collect()
    gc.disable()
    try:
        dumps_indented(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()

