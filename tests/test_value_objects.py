"""The value-object contract of the frozen dataclasses built through a hand-written ``__init__``.

``TeleportResult``, ``BellBranch``, ``BellDecomposition``, ``BlochVector``,
``ModelPrediction`` and ``EventRecord`` store their fields without the
``object.__setattr__`` calls of a generated frozen ``__init__``. Everything
else must stay what ``@dataclass(frozen=True)`` makes: the signature, ``==``,
``hash`` (a ``TypeError`` for ``BellDecomposition``, whose branches are a
dict), ``repr``, ``__match_args__``, pickling and copying, validation at
construction and under ``dataclasses.replace``, and frozen fields.
"""

import copy
import dataclasses
import inspect
import pickle
import re
from typing import Callable, NamedTuple

import pytest

from spinport.bellkit import BELL_ORDER, BellBranch, BellDecomposition, BellLabel, decompose_12
from spinport.reaction import EventRecord, ModelPrediction
from spinport.spinalg import BlochVector, InvariantError, Ket, NormalizationError, SpinAlgebraError, tensor
from spinport.teleport import BeamState, TeleportResult, prepare_beam, prepare_deuteron

NEUTRON_PRE, NEUTRON_POST = Ket([0.6, -0.8]), Ket([0.6, 0.8])


def branches_of(a: complex, b: complex) -> dict:
    return decompose_12(tensor(prepare_beam(BeamState(a, b)), prepare_deuteron())).branches


BRANCHES, OTHER_BRANCHES = branches_of(0.6, 0.8j), branches_of(1, 0)


def unpack_result(instance):
    match instance:
        case TeleportResult(outcome, probability, neutron_pre, neutron_post, fidelity_pre, fidelity_post):
            return outcome, probability, neutron_pre, neutron_post, fidelity_pre, fidelity_post


def unpack_branch(instance):
    match instance:
        case BellBranch(coefficient, conditional):
            return coefficient, conditional


def unpack_decomposition(instance):
    match instance:
        case BellDecomposition(branches):
            return (branches,)


def unpack_prediction(instance):
    match instance:
        case ModelPrediction(qt_bloch, conventional_bloch, enhancement):
            return qt_bloch, conventional_bloch, enhancement


def unpack_vector(instance):
    match instance:
        case BlochVector(px, py, pz):
            return px, py, pz


def unpack_record(instance):
    match instance:
        case EventRecord(event_id, accepted, axis_index, spin_outcome):
            return event_id, accepted, axis_index, spin_outcome


class Case(NamedTuple):
    cls: type
    args: tuple
    other: tuple
    #: the fields of an instance, read through the class's own positional pattern (None if it does not match)
    unpack: Callable
    #: (field, value, error, message): replacements that the class's checks refuse
    refused: tuple
    #: (changes, check): a replacement that the checks accept, and what must hold of it
    accepted: tuple


CASES = [
    Case(
        TeleportResult,
        (BellLabel.PSI_MINUS, 0.25, NEUTRON_PRE, NEUTRON_POST, 0.28, 1.0),
        (BellLabel.PSI_PLUS, 0.25, NEUTRON_PRE, None, 0.28, None),
        unpack_result,
        (
            ("probability", 1.5, SpinAlgebraError, "outcome probability 1.5 outside [0, 1]"),
            ("probability", float("nan"), SpinAlgebraError, "outcome probability nan outside [0, 1]"),
            ("fidelity_pre", -1e-9, SpinAlgebraError, "fidelity -1e-09 outside [0, 1]"),
            ("fidelity_pre", float("nan"), SpinAlgebraError, "fidelity nan outside [0, 1]"),
            ("fidelity_post", 1.5, SpinAlgebraError, "fidelity 1.5 outside [0, 1]"),
        ),
        ({"neutron_post": None, "fidelity_post": None}, lambda result: result.fidelity_post is None),
    ),
    Case(
        BellBranch,
        (0.5 + 0.5j, NEUTRON_PRE),
        (0.5 - 0.5j, NEUTRON_PRE),
        unpack_branch,
        (),
        ({"coefficient": 0j}, lambda branch: not branch.defined and branch.probability == 0.0),
    ),
    Case(
        BellDecomposition,
        (BRANCHES,),
        (OTHER_BRANCHES,),
        unpack_decomposition,
        (
            ("branches", {label: BRANCHES[label] for label in BELL_ORDER[:3]},
             SpinAlgebraError, "decomposition must carry exactly one branch per Bell label"),
            ("branches", {**dict.fromkeys(BELL_ORDER, BellBranch(0.5, NEUTRON_PRE)),
                          BellLabel.PHI_MINUS: BellBranch(0.75, NEUTRON_PRE)},
             NormalizationError, "Bell branch probabilities sum to 1.3125, not 1 within 1e-12"),
            ("branches", list(BRANCHES.values()),
             SpinAlgebraError, "decomposition must carry exactly one branch per Bell label"),
            ("branches", list(BELL_ORDER), SpinAlgebraError, "decomposition must map each Bell label to a BellBranch"),
            ("branches", dict.fromkeys(BELL_ORDER, 0.25),
             SpinAlgebraError, "decomposition must map each Bell label to a BellBranch"),
        ),
        # the probabilities that the check keeps are those of the new branches
        ({"branches": OTHER_BRANCHES},
         lambda decomposition: decomposition.probabilities() == {label: OTHER_BRANCHES[label].probability
                                                                 for label in BELL_ORDER}),
    ),
    Case(
        ModelPrediction,
        (BlochVector(0.1, -0.2, 0.3), BlochVector(0.0, -0.02, 0.0), 18.7),
        (BlochVector(0.1, -0.2, 0.3), BlochVector(0.0, -0.02, 0.0), 18.8),
        unpack_prediction,
        (),
        ({"enhancement": 1.0}, lambda prediction: prediction.enhancement == 1.0),
    ),
    Case(
        BlochVector,
        (0.1, -0.2, 0.3),
        (0.1, 0.2, 0.3),
        unpack_vector,
        (
            ("px", 2.0, InvariantError, "Bloch vector (2.0, -0.2, 0.3) has norm > 1"),
            ("py", float("nan"), InvariantError, "Bloch vector (0.1, nan, 0.3) is not finite"),
            ("pz", float("inf"), InvariantError, "Bloch vector (0.1, -0.2, inf) is not finite"),
        ),
        # integers are stored as floats, as the generated __init__ and __post_init__ stored them
        ({"px": 0, "py": 0, "pz": 1},
         lambda vector: [(type(c), c) for c in (vector.px, vector.py, vector.pz)] == [(float, 0.0), (float, 0.0), (float, 1.0)]),
    ),
    Case(
        EventRecord,
        (3, True, 1, -1),
        (3, True, 1, 1),
        unpack_record,
        tuple(("spin_outcome", spin, ValueError, f"spin outcome must be +1 or -1, got {spin}") for spin in (0, 2, -2)),
        ({"event_id": 4, "accepted": False}, lambda record: record == EventRecord(4, False, 1, -1)),
    ),
]


def field_names(cls: type) -> tuple:
    return tuple(field.name for field in dataclasses.fields(cls))


def generated_twin(cls: type) -> type:
    """The class as ``@dataclass(frozen=True)`` generates it, with no checks: the reference for eq, hash and repr."""
    return dataclasses.make_dataclass(cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)], frozen=True)


def state(value):
    """``value`` with each ``Ket`` by its amplitude bytes, since a ``Ket`` compares by identity: a dataclass
    instance by its type and whole ``__dict__`` (the fields and whatever its checks store), a dict by its items."""
    if isinstance(value, Ket):
        return value.amplitudes.tobytes()
    if isinstance(value, dict):
        return {key: state(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value):
        return type(value), state(vars(value))
    return value


def hashed(instance):
    """``hash(instance)``, or ``TypeError`` where an unhashable field makes hashing raise it."""
    try:
        return hash(instance)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.cls.__name__)
class TestHandWrittenInit:
    def test_positional_and_keyword_construction(self, case):
        instance = case.cls(*case.args)
        assert tuple(getattr(instance, name) for name in field_names(case.cls)) == case.args
        assert case.cls(**dict(zip(field_names(case.cls), case.args))) == instance
        *head, last = case.args
        assert case.cls(*head, **{field_names(case.cls)[-1]: last}) == instance

    def test_the_signature_lists_the_fields_in_order(self, case):
        assert tuple(inspect.signature(case.cls).parameters) == field_names(case.cls)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda args, names: (args[:-1], {}),
            lambda args, names: (args + (0,), {}),
            lambda args, names: (args, {"charge": 0}),
            lambda args, names: (args[:-1], {"spin": 0}),
            lambda args, names: (args, {names[0]: args[0]}),
        ],
        ids=["missing", "extra", "unknown", "unknown-for-missing", "repeated"],
    )
    def test_a_missing_extra_or_unknown_argument_is_a_type_error(self, case, mutate):
        args, kwargs = mutate(case.args, field_names(case.cls))
        with pytest.raises(TypeError):
            case.cls(*args, **kwargs)

    def test_equality_hash_and_repr_are_the_generated_ones(self, case):
        instance, twin = case.cls(*case.args), case.cls(*case.args)
        assert instance == twin and instance is not twin and hashed(instance) == hashed(twin)
        assert instance != case.cls(*case.other) and instance != case.args
        if hashed(instance) is not TypeError:
            assert len({instance, twin, case.cls(*case.other)}) == 2
        reference = generated_twin(case.cls)(*case.args)
        assert hashed(instance) == hashed(reference)
        assert repr(instance) == repr(reference)
        assert repr(instance).startswith(f"{case.cls.__name__}({field_names(case.cls)[0]}=")

    def test_match_args(self, case):
        assert case.cls.__match_args__ == field_names(case.cls)
        assert case.unpack(case.cls(*case.args)) == case.args

    @pytest.mark.parametrize(
        "round_trip",
        [lambda instance: pickle.loads(pickle.dumps(instance)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips(self, case, round_trip):
        instance = case.cls(*case.args)
        again = round_trip(instance)
        assert type(again) is case.cls
        assert state(again) == state(instance) and repr(again) == repr(instance)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(again, field_names(case.cls)[0], case.args[0])

    def test_replace_validates(self, case):
        instance = case.cls(*case.args)
        changes, check = case.accepted
        replaced = dataclasses.replace(instance, **changes)
        assert type(replaced) is case.cls and check(replaced)
        assert dataclasses.replace(instance) == instance

    def test_each_construction_runs_the_checks_once(self, case, monkeypatch):
        if "__post_init__" not in vars(case.cls):
            # nothing to check: any coefficient and conditional form a branch, any two vectors and a ratio a prediction
            assert case.cls in (BellBranch, ModelPrediction)
            return
        calls = []
        original = vars(case.cls)["__post_init__"]
        monkeypatch.setattr(case.cls, "__post_init__", lambda self: calls.append(self) or original(self))
        instance = case.cls(*case.args)
        assert len(calls) == 1 and calls[0] is instance
        replaced = dataclasses.replace(instance)
        assert len(calls) == 2 and calls[1] is replaced

    def test_fields_can_be_neither_set_nor_deleted(self, case):
        instance = case.cls(*case.args)
        for name in field_names(case.cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(instance, name)
        assert instance == case.cls(*case.args)


def refusal_id(case: Case, index: int, row: tuple) -> str:
    """``Class-field=value``; a value whose text is long (a mapping of branches) is named by its type and row."""
    field, value = row[:2]
    shown = str(value) if len(str(value)) <= 24 else f"{type(value).__name__}{index}"
    return f"{case.cls.__name__}-{field}={shown}"


@pytest.mark.parametrize(
    "case, field, value, error, message",
    [pytest.param(case, *row, id=refusal_id(case, index, row))
     for case in CASES for index, row in enumerate(case.refused)],
)
def test_a_refused_value_raises_at_construction_and_under_replace(case, field, value, error, message):
    with pytest.raises(error, match=re.escape(message)):
        case.cls(**{**dict(zip(field_names(case.cls), case.args)), field: value})
    with pytest.raises(error, match=re.escape(message)):
        dataclasses.replace(case.cls(*case.args), **{field: value})
