"""The CLI on drawn couple files and argv: a documented exit code, never a traceback.

Couple files are drawn as JSON documents (any document, couple-shaped
ones valid or not, objects that repeat a key) and as raw bytes.  Argv is
drawn from the parser's own grammar: a subcommand, then its options with
values by each option's declared type and choices, in any order, with
stray tokens.  `--order` is always given and at most 6, so every run is
small.  Every run must exit 0, 1, 2 or 3 without an exception leaving
`cli.main`, and a JSON document printed on exit 0 must echo the couple
file it read as its `source`.
"""

import argparse
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from dsheffer import catalog, cli

COMMANDS = next(action.choices for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
PARAM_NAMES = sorted({name for info in catalog.FAMILIES.values() for name in info.params})
SAMPLES = catalog.default_sample_specs()
SOURCE_OPTIONS = ("family", "couple_file", "d", "param", "aux")


def _not_an_int(text: str) -> bool:
    # an int-typed option's junk must not parse, or it could ask for any order or d
    try:
        int(text)
    except ValueError:
        return True
    return False


junk = st.text(max_size=6)
int_junk = junk.filter(_not_an_int)
rational = st.integers(-9, 9).map(str) | st.builds("{}/{}".format, st.integers(-9, 9),
                                                    st.integers(1, 5))

# ---------------------------------------------------------------- couple files

leaves = (st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats()
          | st.text(max_size=6))
documents = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["d", "gamma", "sigma"]) | st.text(max_size=4),
                      children, max_size=4),
    max_leaves=12)
coefficient = st.integers(-5, 5) | rational | st.just("1/0") | leaves


@st.composite
def couple_texts(draw):
    """A couple-shaped document: of the couple's shape, or near it on the other side."""
    d = draw(st.integers(1, 3))
    exact = st.integers(-4, 4) | rational
    pairs = [("d", d), ("gamma", draw(st.lists(exact, min_size=d + 1, max_size=d + 1))),
             ("sigma", draw(st.lists(exact, min_size=d + 2, max_size=d + 2)))]
    if draw(st.sampled_from([False] * 3 + [True])):      # one in four is off the shape
        pairs = [
            ("d", draw(st.just(d) | st.integers(-1, 4) | leaves)),
            ("gamma", draw(st.lists(coefficient, max_size=5) | documents)),
            ("sigma", draw(st.lists(coefficient, max_size=6) | documents)),
        ]
        pairs = draw(st.permutations(pairs))[:draw(st.sampled_from([3, 3, 3, 2]))]
        if draw(st.booleans()):
            # a repeated or unknown key, which json would otherwise read silently
            pairs.append((draw(st.sampled_from(["d", "gamma", "sigma", "extra"])),
                          draw(coefficient)))
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


# half the files are couple-shaped, so that many runs reach a report
file_bytes = st.one_of(couple_texts().map(str.encode), couple_texts().map(str.encode),
                       documents.map(json.dumps).map(str.encode), st.binary(max_size=40))

# ---------------------------------------------------------------- argv


def option_values(action, paths):
    """Values for one option, by its declared type and choices and what it names."""
    if action.dest == "couple_file":
        return st.sampled_from(paths["couple_file"])
    if action.dest == "out":
        return st.sampled_from(paths["out"])
    if action.dest == "order":
        return st.integers(-1, 6).map(str)
    if action.choices:
        return st.sampled_from(sorted(action.choices)) | junk
    if action.type is int:
        return st.integers(-1, 5).map(str) | int_junk
    if action.dest == "family":
        return st.sampled_from(sorted(catalog.FAMILIES)) | junk
    if action.dest == "param":
        return st.builds("{}={}".format, st.sampled_from(PARAM_NAMES) | junk, rational | junk)
    if action.dest == "aux":
        return st.lists(rational, max_size=4).map(",".join) | junk
    return junk


@st.composite
def argvs(draw, paths):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [a for a in COMMANDS[command]._actions if a.option_strings]
    groups = []
    source = draw(st.sampled_from(["file", "file", "family", "none"]))
    if any(a.dest == "couple_file" for a in actions) and source != "none":
        # most runs name one source, the couple file or a catalog sample
        if source == "file":
            groups.append(["--couple-file", paths["couple_file"][0]])
        else:
            spec = draw(st.sampled_from(SAMPLES))
            groups.append(["--family", spec.family, "--d", str(spec.d)])
            groups += [["--param", f"{k}={v}"] for k, v in spec.params.items()]
            if spec.aux is not None:
                groups.append(["--aux=" + ",".join(map(str, spec.aux))])
    # options that name or shape a source are drawn in a run of their own
    other = [a for a in actions if a.dest not in SOURCE_OPTIONS]
    for action in draw(st.lists(st.sampled_from(draw(st.sampled_from([actions, other, other]))),
                                max_size=2)):
        flag = draw(st.sampled_from(action.option_strings))
        groups.append([flag] if action.nargs == 0 else [flag, draw(option_values(action, paths))])
    if any(a.dest == "order" for a in actions):
        groups.append(["--order", str(draw(st.integers(3, 6) | st.integers(-1, 6)))])
    if draw(st.sampled_from([False] * 7 + [True])):
        groups.append([draw(int_junk)])                       # a stray token
    return [command] + [token for group in draw(st.permutations(groups)) for token in group]


# ---------------------------------------------------------------- the property

def expected_source(doc) -> dict:
    """The source a run that read doc must print: its keys in lowest terms, padded."""
    d = doc["d"]

    def padded(values, length):
        exact = [Fraction(v) for v in values]
        assert not any(exact[length:])          # only zeros may follow the last entry
        return [str(v) for v in (exact + [Fraction(0)] * length)[:length]]

    return {"kind": "couple", "d": d,
            "gamma": padded(doc["gamma"], d + 1), "sigma": padded(doc["sigma"], d + 2)}


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(file_bytes, st.data())
def test_the_cli_exits_with_a_documented_code_on_any_input(content, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        couple_file = tmp / "couple.json"
        couple_file.write_bytes(content)
        paths = {"couple_file": [str(couple_file), str(tmp / "missing.json"), str(tmp)],
                 "out": [str(tmp / "out.txt"), str(tmp), str(tmp / "missing" / "out.txt")]}
        argv = data.draw(argvs(paths))
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3)
        event(f"exit {code}")                   # pytest --hypothesis-show-statistics
        assert "Traceback" not in stderr.getvalue()
        if code != 0:
            return
        out = tmp / "out.txt"
        text = out.read_text() if out.exists() else stdout.getvalue()
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return                              # csv, latex or help
        if "source" in report and report["source"]["kind"] == "couple":
            assert report["source"] == expected_source(json.loads(couple_file.read_text()))
            event("a couple file's source compared")
