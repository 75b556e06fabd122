"""Every JSON input of ``src/granary`` is parsed by ``jsonl`` and typed by ``jsonl.from_json``.

Each one is checked, and its errors worded, in one place. A module other
than ``jsonl.py`` that reads ``json.loads`` or ``json.load`` as an
attribute, or imports either from ``json``, is flagged, and so is a record
reader (a ``*_from_record`` function, or ``DistillJournal.__init__``) that
builds its record without ``from_json``. Those checks read the files with
the stdlib ``ast`` module alone, never importing or running them.

Two hypothesis properties cover every dataclass the package reads from
JSON: a valid instance, written as JSON, reads back equal, and a field
given a value of another JSON type is refused by name.
"""

import ast
import dataclasses
import json
import typing
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granary.config import BackendSettings, DatasetSettings, ModelSettings, PipelineConfig, TrainSettings
from granary.corpus import LearningNode, LearningStage, ManifestEntry
from granary.dataset import CptRecord, SftRecord
from granary.distiller import QtsaEntry
from granary.errors import SchemaViolation
from granary.evalharness import McqItem
from granary.jsonl import from_json
from granary.tinylm import ModelConfig

PACKAGE = Path(__file__).parents[1] / "src" / "granary"
PARSERS = {"load", "loads"}


def _package() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def json_parses(package: dict[str, str]) -> list[str]:
    """``module:line`` of each use of ``json.load`` or ``json.loads`` in
    ``package`` (module name -> source) outside the ``jsonl`` module."""
    found = []
    for module, source in package.items():
        if module == "jsonl":
            continue
        for node in ast.walk(ast.parse(source)):
            attribute = (
                isinstance(node, ast.Attribute)
                and node.attr in PARSERS
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            )
            imported = (
                isinstance(node, ast.ImportFrom)
                and node.module == "json"
                and any(alias.name in PARSERS for alias in node.names)
            )
            if attribute or imported:
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_only_jsonl_parses_json():
    assert json_parses(_package()) == []


def test_checker_flags_what_it_should():
    package = {
        "jsonl": "import json\nx = json.loads('1')\n",
        "a": "import json\ny = json.loads(s)\nz = json.dumps(y)\n",
        "b": "from json import dumps, load as read\n",
        "c": "import json\nwith open(p) as fh:\n    v = json.load(fh)\n",
        "d": "from .jsonl import read_json\nloads = 1\nobj.loads(s)\nread_json(p)\n",
    }
    assert json_parses(package) == ["a:2", "b:1", "c:3"]


def _calls_from_json(function: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call) and "from_json" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(function)
    )


def record_readers(package: dict[str, str]) -> dict[str, bool]:
    """For each record reader in ``package`` (module name -> source), keyed
    ``module.function``, whether it calls ``from_json``. The readers are the
    functions named ``*_from_record`` and ``DistillJournal.__init__``."""
    found = {}
    for module, source in package.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and node.name.endswith("_from_record"):
                found[f"{module}.{node.name}"] = _calls_from_json(node)
            if isinstance(node, ast.ClassDef) and node.name == "DistillJournal":
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and method.name == "__init__":
                        found[f"{module}.DistillJournal.__init__"] = _calls_from_json(method)
    return found


def test_every_record_reader_builds_its_record_with_from_json():
    readers = record_readers(_package())
    assert [name for name, typed in readers.items() if not typed] == []
    assert set(readers) >= {
        "corpus.node_from_record",
        "distiller.entry_from_record",
        "distiller.DistillJournal.__init__",
        "dataset.chat_example_from_record",
        "dataset.cpt_text_from_record",
    }


def test_reader_checker_flags_what_it_should():
    package = {
        "a": "def node_from_record(rec):\n    return Node(**rec)\n",
        "b": "def entry_from_record(rec):\n    return jsonl.from_json(Entry, rec, 'e')\ndef to_record(e):\n    pass\n",
        "c": (
            "class DistillJournal:\n"
            "    def __init__(self, path):\n"
            "        self.entry = Entry(**read(path))\n"
            "    def load(self):\n"
            "        return from_json(Entry, {}, 'e')\n"
        ),
    }
    assert record_readers(package) == {
        "a.node_from_record": False,
        "b.entry_from_record": True,
        "c.DistillJournal.__init__": False,
    }


# A valid instance of each dataclass the package reads from JSON; the properties draw others from it.
VALID = {
    type(instance): instance
    for instance in (
        LearningNode("n1", "d1", ["Ch 1", "Sec 1.1"], "text", 3),
        QtsaEntry("e1", "n1", 0, "q", "t", "s", "a", "rejected", "dangling_reference"),
        SftRecord("e1", "domain", "", "u", "a"),
        CptRecord("n1", "text"),
        McqItem("q1", "stem", {"A": "yes", "B": "no"}, "A"),
        ManifestEntry("d1", "Title", LearningStage.ANALOG_IC),
        BackendSettings(),
        DatasetSettings(),
        ModelSettings(),
        TrainSettings(),
        PipelineConfig(),
        ModelConfig(),
    )
}

_PLAIN = {
    str: st.text(max_size=8),
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    bool: st.booleans(),
    type(None): st.none(),
}


def _valid(hint):
    """Values of the annotation ``hint`` that survive a trip through JSON."""
    if dataclasses.is_dataclass(hint):
        return _instances(hint)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return st.sampled_from(list(hint))
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return st.lists(_valid(args[0]), max_size=3)
    if typing.get_origin(hint) is dict:
        return st.dictionaries(st.text(max_size=3), _valid(args[1]), max_size=3)
    if args:  # a union
        return st.one_of(*map(_valid, args))
    return _PLAIN[hint]


@st.composite
def _instances(draw, cls):
    """``cls``'s valid instance with each field in turn redrawn; a value the class's own checks refuse is not kept."""
    instance, hints = VALID[cls], typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        try:
            instance = dataclasses.replace(instance, **{f.name: draw(_valid(hints[f.name]))})
        except ValueError:
            pass
    return instance


def _as_json(instance) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(instance)))


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from(list(VALID)), data=st.data())
def test_a_valid_instance_reads_back_equal(cls, data):
    instance = data.draw(_instances(cls))
    assert from_json(cls, _as_json(instance), "x") == instance


# For each annotation, JSON values of other types. An int that a float can hold stands for that float.
WRONG = {
    "str": [5, 1.5, True, None, ["x"], {"x": "y"}],
    "int": [True, 1.5, "1", None, [1]],
    "float": [True, "1.5", None, [1.5], 10**400, float("inf"), float("nan")],
    "bool": [0, 1, "true", None],
    "str | None": [5, False, ["x"]],
    "int | None": [True, 1.5, "7"],
    "list[str]": [[1], [None], [["x"]], "x", {"x": "y"}, None],
    "dict[str, str]": [{"A": 1}, {"A": None}, ["A"], "A", None],
    "LearningStage": ["nope", 5, None],
}
# And for a field that holds a dataclass, read from its own object.
WRONG_OBJECT = [5, "x", ["x"], None, True]


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from(list(VALID)), data=st.data())
def test_a_value_of_another_json_type_is_refused_by_name(cls, data):
    record = _as_json(data.draw(_instances(cls)))
    field = data.draw(st.sampled_from(dataclasses.fields(cls)))
    nested = dataclasses.is_dataclass(typing.get_type_hints(cls)[field.name])
    value = data.draw(st.sampled_from(WRONG_OBJECT if nested else WRONG[field.type]))
    with pytest.raises(SchemaViolation, match=rf"^x\.{field.name}( must be a JSON object$|: expected )"):
        from_json(cls, {**record, field.name: value}, "x")


def test_the_properties_cover_every_class_the_package_reads():
    read = {
        node.args[0].id
        for module, source in _package().items()
        if module != "jsonl"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "from_json"
    }
    assert read == {"PipelineConfig", "ManifestEntry", "McqItem", "ModelConfig", "LearningNode", "QtsaEntry",
                    "SftRecord", "CptRecord"}
    assert read <= {cls.__name__ for cls in VALID}
