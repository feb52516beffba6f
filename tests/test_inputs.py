"""What the command line does with its input files.

Three tables are recorded data, read here and never rewritten by a test:

- ``encode_digests.json``: sha256 of ``encode`` stdout for every bundled
  descriptor and for the descriptors below, recorded before the encoders
  became calls of the general constructors;
- ``malformed_inputs.json``: malformed inputs, each with the exit code
  and the one stderr line it must give;
- ``script_digests.json``: exit code and stdout digest of each
  walkthrough script in ``scripts/``.

A property test then replaces one field or entry of a bundled input with
an arbitrary JSON value: the run must end with exit 0 or 1, never with a
traceback, and a presentation that ``encode`` writes must load back.
"""

import hashlib
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from .conftest import DATA, REPO
from .test_cli import BUNDLED, run_cli

HERE = pathlib.Path(__file__).parent

# descriptors for the families with no bundled file, and edge cases
ENCODE_DESCRIPTORS = {
    "monoid": ("monoid", {
        "generators": ["x", "y"],
        "relations": [[["x", "x", "x"], []], [["y", "y"], []],
                      [["x", "y", "x", "y"], []]],
    }),
    "monoid_point": ("monoid", {"generators": ["a"], "relations": [], "point": "p"}),
    "monoid_trivial_relation": ("monoid", {"generators": ["a"], "relations": [[[], []]]}),
    "congruence": ("congruence", {
        "monoid": {"generators": ["a"], "relations": [[["a", "a", "a"], ["a"]]]},
        "congruence": [["a", "a"]],
        "tag": "C",
    }),
    "cosets_empty_subgroup": ("cosets", {
        "generators": ["x", "y"],
        "relations": [[["x", "x", "x"], []], [["y", "y"], []], [["x", "y", "x", "y"], []]],
        "subgroup": [],
    }),
    "quotient_plain": ("quotient", {"points": ["p", "q", "r"], "pairs": [["p", "q"]]}),
    "quotient_equivariant": ("quotient", {
        "points": ["p", "q", "r"],
        "pairs": [["p", "r"]],
        "monoid": {"generators": ["m"], "relations": [[["m", "m"], []]]},
        "action": {"m": ["q", "p", "r"]},
    }),
    "induced": ("induced", {
        "source": {"generators": ["a"], "relations": [[["a", "a"], []]]},
        "target": {"generators": ["g"], "relations": [[["g", "g", "g", "g"], []]]},
        "morphism": {"a": ["g", "g"]},
        "points": ["p", "q"],
        "action": {"a": ["q", "p"]},
    }),
    "category_points": ("category", {
        "objects": [1, 2],
        "arrows": [["f", 1, 2], ["g", 2, 1]],
        "relations": [[["f", "g"], []]],
        "points": ["u", "v"],
    }),
    "colimit_default_objects": ("colimit", {
        "arrows": [[1, 2]],
        "xObjects": [["x"], ["y", "z"]],
        "xArrows": [["z"]],
    }),
    "orbits_conjugation_default_labels": ("orbits", {
        "variant": "conjugation",
        "group": {"generators": ["a", "b"],
                  "relations": [[["a", "a", "a"], []], [["b", "b"], []],
                                [["a", "b", "a", "b"], []]]},
        "elements": [[], ["a"], ["b"], ["a", "a"], ["a", "b"], ["b", "a"]],
        "inverses": {"a": ["a", "a"], "b": ["b"]},
    }),
}
ENCODE_DIGESTS = json.loads((HERE / "encode_digests.json").read_text())
ENCODE_RUNS = [(family, name) for family, name in BUNDLED if family is not None] + [
    (family, name) for name, (family, _) in ENCODE_DESCRIPTORS.items()]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family,name", ENCODE_RUNS)
def test_encode_output_matches_recorded_digest(capsys, tmp_path, family, name):
    if name in ENCODE_DESCRIPTORS:
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(ENCODE_DESCRIPTORS[name][1]))
    else:
        f = DATA / name
    code, out, err = run_cli(capsys, "encode", family, str(f))
    assert (code, err) == (0, "")
    assert _sha256(out) == ENCODE_DIGESTS[name]


MALFORMED = json.loads((HERE / "malformed_inputs.json").read_text())


@pytest.mark.parametrize("case", MALFORMED, ids=[c["name"] for c in MALFORMED])
def test_malformed_input_exits_1_naming_the_field(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    if "hex" in case:
        (tmp_path / "input.json").write_bytes(bytes.fromhex(case["hex"]))
    else:
        (tmp_path / "input.json").write_text(json.dumps(case["input"]))
    code, out, err = run_cli(capsys, *case["argv"], "input.json")
    assert (code, out, err) == (1, "", case["stderr"] + "\n")


@pytest.mark.parametrize("argv", [("rules",), ("encode", "monoid")], ids=["rules", "encode"])
def test_deeply_nested_json_exits_1_without_a_traceback(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input.json").write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, *argv, "input.json")
    assert (code, out, err) == (1, "", "kanbex: input.json: invalid JSON: nested too deeply\n")


SCRIPT_DIGESTS = json.loads((HERE / "script_digests.json").read_text())


@pytest.mark.parametrize("script", sorted(SCRIPT_DIGESTS))
def test_walkthrough_script_output_matches_recorded_digest(script):
    run = subprocess.run([sys.executable, str(REPO / "scripts" / script)],
                         capture_output=True, text=True, timeout=120)
    assert {"exit": run.returncode, "stdout": _sha256(run.stdout)} == SCRIPT_DIGESTS[script]


# --- one field or entry replaced by an arbitrary JSON value ---

FUZZED = [(family, name) for family, name in BUNDLED if family is not None] + [
    (None, "infinite_extension.json")]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=3) | st.sampled_from(["a", "b", "x1", "b1", "H", "conjugation"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _slots(value, path=()):
    """Paths to every field and entry of a JSON document, itself excluded."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(FUZZED), pick=st.integers(0, 10 ** 6), value=json_values)
def test_one_replaced_field_never_raises(capsys, tmp_path, case, pick, value):
    family, name = case
    doc = json.loads((DATA / name).read_text())
    slots = list(_slots(doc))
    f = tmp_path / "input.json"
    f.write_text(json.dumps(_replaced(doc, slots[pick % len(slots)], value)))
    if family is None:
        code, _, _ = run_cli(capsys, "rules", str(f))
        assert code in (0, 1)
        return
    code, out, _ = run_cli(capsys, "encode", family, str(f))
    assert code in (0, 1)
    if code == 0:
        f.write_text(out)
        code, _, err = run_cli(capsys, "rules", str(f))
        assert code == 0, err

