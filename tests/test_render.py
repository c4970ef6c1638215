"""render.dump_json against json.dumps(sort_keys=True, indent=2).

dump_json writes the report bytes itself, with the C string encoder, instead
of through json.dumps, whose indented output runs the pure-Python encoder.
Its bytes must equal json.dumps's exactly on any document a report can be.
"""

import json
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsheffer import cli, render
from dsheffer.render import dump_json

# non-ASCII text, quotes, backslashes and control characters among the rest
text = st.text(alphabet=st.sampled_from('ab"\\/\n\t\r\x00\x1f\x7f é€😀') | st.characters(),
               max_size=8)
leaves = (text | st.integers() | st.integers(-(2 ** 200), 2 ** 200) | st.booleans()
          | st.none())
documents = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(text, inner, max_size=5)),
    max_leaves=40,
)


@settings(deadline=None)
@given(documents)
@example({"": [], "b": {}, "a": [(), {}, [[]]], "t": True, "f": False, "z": None,
          "big": -(10 ** 40), "s": 'q"\\ \u00e9'})
@example([])
@example({})
@example(())
@example("x")
@example(None)
def test_dump_json_equals_indented_json_dumps(doc):
    assert dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("key", [1, None, True, (1, 2)])
def test_dump_json_rejects_a_key_that_is_not_a_str(key):
    with pytest.raises(TypeError):
        dump_json({"a": [{key: 1}]})


@pytest.mark.parametrize("leaf", [1.5, object(), {1, 2}])
def test_dump_json_rejects_a_leaf_json_cannot_write(leaf):
    with pytest.raises(TypeError):
        dump_json({"a": [leaf]})


def test_reports_never_run_the_pure_python_encoder(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("json.encoder._make_iterencode called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", forbidden)
    with pytest.raises(AssertionError):
        json.dumps({"a": 1}, indent=2)              # the patch is in force
    source = ["--family", "laguerre-eq9", "--d", "2", "--param", "alpha=1/2", "--order", "6"]
    for command in ("expand", "recurrence", "verify"):
        assert cli.main([command, *source]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["command"] == command


def tally(doc, counts: Counter) -> Counter:
    """Count doc's dicts and lists, int leaves, and bool or None leaves."""
    if isinstance(doc, (dict, list)):
        counts["container"] += 1
        for value in doc.values() if isinstance(doc, dict) else doc:
            tally(value, counts)
    elif type(doc) is int:
        counts["int"] += 1
    elif doc is None or isinstance(doc, bool):
        counts["bool or None"] += 1
    return counts


@pytest.mark.parametrize("source", [
    ["--family", "meixner-eq16", "--d", "2", "--param", "beta=1", "--param", "c=1/2"],
    ["--family", "laguerre-eq11", "--param", "alpha=1/2", "--check-d", "1"],
])
def test_a_verify_report_takes_one_write_call_per_dict_and_list(source, monkeypatch, capsys):
    # str and int leaves are written in their container's loop; bool and None
    # leaves keep a call of their own
    cli.main(["verify", "--order", "12", *source])
    doc = json.loads(capsys.readouterr().out)
    counts = tally(doc, Counter())
    assert counts["int"] > 50                   # unchecked_boundaries, checked, orders ...
    calls = []
    original = render._write_json
    monkeypatch.setattr(render, "_write_json",
                        lambda obj, pad, out: calls.append(obj) or original(obj, pad, out))
    assert render.dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert len(calls) == counts["container"] + counts["bool or None"]
    assert sum(isinstance(c, (dict, list)) for c in calls) == counts["container"]
