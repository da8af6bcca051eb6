"""The argument contract of the public surface, fuzzed.

Every callable in ``kerrgate.__all__`` is either in :data:`FUZZ` or in
:data:`EXCUSED` with its reason (``test_surface.py`` keeps the two lists
complete).  A :data:`FUZZ` entry calls the callable with valid arguments of
the kinds ``kerrgate.states`` declares (a real, an amplitude, a count or
qubit index, a polarization label, and the lists and arrays built of them),
then replaces one of them with an ill-formed value: a bool, text, a complex,
nan, an infinity, a huge or negative number, a tuple of the wrong arity, a
NumPy scalar or a 0-d array, an object of another kind (:data:`OBJECTS`),
or any value of the parameter's strategy.  The call must return a finite
value, or raise ``ValidationError``, ``ContractError`` or a ``TypeError``
its docstring names; no warning may escape, and a bool or text
(:data:`REFUSED`) is refused wherever it goes.  A parameter that takes a
state, a probe, a gate, a coupling or a generator is fuzzed with the same
values: only an object of its own class is taken.  The gates that feed
forward are fuzzed a second time (:data:`ODD`) with every outcome forced
odd, so that a fuzzed value reaches their corrections.
"""

import cmath
import dataclasses
import math
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrgate import (
    ANCILLA_PLUS,
    ContractError,
    HybridState,
    KerrCoupling,
    ProbeMode,
    SingleQubitGate,
    ValidationError,
    apply_cross_kerr,
    apply_single_qubit,
    bit_flip,
    build_parity_coupling_pair,
    cnot,
    coherent_overlap,
    diagonal_basis_change,
    diagonal_gate,
    entangler,
    entangler_45,
    fidelity,
    geometry,
    kernel_value,
    merge_and_prune,
    new_state,
    norm_squared,
    outcome_density,
    p_error,
    parity_gate,
    qnd_photon_measure,
    recycle_ancilla,
    run_shots,
    sample_and_collapse,
    sample_quadrature,
)

THETA = 2.0 * math.asin(math.sqrt(20.0 / 400.0))  # xd = 20 at alpha = 100
PROBE = ProbeMode(100.0, THETA)
PAIRS = [(0.6, 0.8), (0.28, 0.96)]
STATE = new_state(PAIRS)
CNOT_STATE = new_state([PAIRS[0], ANCILLA_PLUS, PAIRS[1]])


def _kicked():
    state = STATE.activate_probe(ProbeMode(2.0, 0.5))
    for coupling in build_parity_coupling_pair(0, 1):
        state = apply_cross_kerr(state, coupling)
    return state


KICKED = _kicked()
COUPLING = KerrCoupling(0, "H", 1)


def rng():
    return np.random.default_rng(1)


#: refused wherever they go: a bool is no number, and text is no number or
#: sequence of them (the command line parses it)
REFUSED = (True, False, np.bool_(True), "1", "", np.array("H"), object())

#: ill-formed for most kinds, or well-formed for a few (a NumPy scalar, "H")
ILL = REFUSED + (
    "H", 1j, np.complex128(1 + 1j),
    math.nan, math.inf, -math.inf, np.float64(math.nan), 1e300, -1e300, 10**400, -(10**400),
    -1, -0.5, 2.5, np.int64(1), np.int64(-3), np.float64(2.0), np.float32(0.25),
    np.array(1.0), np.array(1), np.array("H"), np.array([1.0, 2.0]),
    (), (0, 1), (1.0, 0.0, 0.0), [0], None,
)

#: an object of each kind, ill-formed wherever another kind or a number goes
OBJECTS = (STATE, KICKED, PROBE, bit_flip(0), COUPLING, np.random.default_rng(2))
ILL += OBJECTS

ill = st.sampled_from(ILL)
real = st.one_of(ill, st.floats(), st.integers())
index = st.one_of(ill, st.integers(-(2**70), 2**70))
amplitude = st.one_of(ill, st.complex_numbers(), st.floats())
label = st.one_of(
    ill, st.sampled_from(["H", "V", "D", "h", "HV", np.str_("V")]), st.text(max_size=2)
)
pair = st.one_of(
    ill, st.tuples(amplitude, amplitude), st.tuples(amplitude),
    st.tuples(amplitude, amplitude, amplitude),
    st.sampled_from([(0.6, 0.8), (1, 0), (0j, 1.0), ANCILLA_PLUS]),
)
pairs = st.one_of(ill, st.lists(pair, max_size=3))
basis = st.one_of(ill, st.text("HVD", max_size=3), st.lists(label, max_size=3))
branch = st.one_of(
    ill, st.tuples(amplitude, basis, index), st.tuples(amplitude, basis),
    st.tuples(amplitude, basis, index, index),
)
branches = st.one_of(ill, st.lists(branch, max_size=3))
matrix = st.one_of(
    ill, st.lists(st.lists(amplitude, max_size=3), max_size=3),
    st.sampled_from(
        [np.eye(2), np.eye(3), [[0, 1], [1, 0]], [[1, 0]], [[1, 0], [0]], np.eye(2) > 0]
    ),
)
outcomes = st.one_of(real, st.lists(st.floats(), max_size=3), st.lists(real, max_size=2))
experiment = st.one_of(ill, st.sampled_from(["parity", "cnot", "sweep", np.str_("entangler")]))


#: a count of work above this is valid but slow, so it is not fuzzed
SLOW_COUNT = 64


class Entry(NamedTuple):
    """``call`` takes the fuzzed parameters only, ``valid`` their valid
    values, ``kinds`` a strategy for each; ``type_error`` names the
    parameters whose ``TypeError`` the callable's docstring names, and
    ``work`` those that count work, whose values above ``SLOW_COUNT`` are
    skipped."""

    call: Callable
    valid: tuple
    kinds: tuple
    type_error: tuple = ()
    work: tuple = ()


#: the fuzzed public callables, by their name in ``kerrgate.__all__``
FUZZ = {
    "ProbeMode": Entry(ProbeMode, (8.0, 0.5), (real, real)),
    "geometry": Entry(geometry, (8.0, 0.5), (real, real)),
    "p_error": Entry(p_error, (8.0, 0.5), (real, real)),
    "KerrCoupling": Entry(KerrCoupling, (0, "H", 1), (index, label, index)),
    "SingleQubitGate": Entry(SingleQubitGate, (np.eye(2), 0), (matrix, index)),
    "HybridState": Entry(
        HybridState.from_branches,
        (2, [(0.6, "HV", 1), (0.8j, ("V", "V"), 0)], PROBE), (index, branches, ill),
    ),
    "new_state": Entry(new_state, (PAIRS,), (pairs,)),
    "coherent_overlap": Entry(coherent_overlap, (1 + 2j, 2.0), (amplitude, amplitude)),
    "kernel_value": Entry(kernel_value, (1.0, 0.5 + 0.5j), (real, amplitude)),
    "merge_and_prune": Entry(merge_and_prune, (STATE, 0.1), (ill, real)),
    "bit_flip": Entry(bit_flip, (1,), (index,)),
    "diagonal_basis_change": Entry(diagonal_basis_change, (1,), (index,)),
    "diagonal_gate": Entry(diagonal_gate, (0, 0.3, -0.3), (index, real, real)),
    "build_parity_coupling_pair": Entry(build_parity_coupling_pair, (0, 1), (index, index)),
    "outcome_density": Entry(lambda state, x: outcome_density(state)(x), (KICKED, 3.0),
                             (ill, outcomes)),
    "sample_and_collapse": Entry(sample_and_collapse, (KICKED, rng(), None), (ill, ill, real)),
    "sample_quadrature": Entry(sample_quadrature, (KICKED, rng()), (ill, ill)),
    "norm_squared": Entry(norm_squared, (KICKED,), (ill,)),
    "fidelity": Entry(fidelity, (STATE, STATE), (ill, ill)),
    "apply_single_qubit": Entry(apply_single_qubit, (STATE, bit_flip(0)), (ill, ill)),
    "apply_cross_kerr": Entry(apply_cross_kerr, (KICKED, COUPLING), (ill, ill)),
    "qnd_photon_measure": Entry(
        qnd_photon_measure, (STATE, 0, rng(), None), (ill, index, ill, label)
    ),
    "recycle_ancilla": Entry(recycle_ancilla, (STATE, 1, "V"), (ill, index, label)),
    "parity_gate": Entry(parity_gate, (STATE, 0, 1, PROBE, rng(), None),
                         (ill, index, index, ill, ill, real)),
    "entangler": Entry(entangler, (STATE, 0, 1, PROBE, rng(), None),
                       (ill, index, index, ill, ill, real)),
    "entangler_45": Entry(entangler_45, (STATE, 0, 1, PROBE, rng(), None),
                          (ill, index, index, ill, ill, real)),
    "cnot": Entry(
        cnot, (CNOT_STATE, 0, 1, 2, PROBE, rng(), None, None, None),
        (ill, index, index, index, ill, ill, real, real, label),
    ),
    "run_shots": Entry(
        lambda name, inputs, alpha, theta, shots, seed: run_shots(name, inputs, alpha, theta,
                                                                  shots, seed),
        ("cnot", PAIRS, 100.0, THETA, 2, 7), (experiment, pairs, real, real, index, index),
        type_error=(5,), work=(4,),
    ),
}

#: the odd peak, ``x0 - xd / 2``: an outcome forced there reads odd
ODD_X = PROBE.x0 - 0.5 * PROBE.xd

#: a second call of each gate that feeds forward, with every record forced
#: odd and the CNOT's ancilla forced V, so that a fuzzed value reaches the
#: corrections; the first record ``rng()`` gives ``entangler`` and
#: ``entangler_45`` in :data:`FUZZ` reads even, and applies none.  A forced
#: call reads no generator, so it passes none and fuzzes none.
ODD = {
    "entangler-odd": Entry(
        lambda state, a, b, probe, x: entangler(state, a, b, probe, None, x),
        (STATE, 0, 1, PROBE, ODD_X), (ill, index, index, ill, real),
    ),
    "entangler_45-odd": Entry(
        lambda state, a, b, probe, x: entangler_45(state, a, b, probe, None, x),
        (STATE, 0, 1, PROBE, ODD_X), (ill, index, index, ill, real),
    ),
    "cnot-odd": Entry(
        lambda state, c, a, t, probe, x1, x2, v: cnot(state, c, a, t, probe, None, x1, x2, v),
        (CNOT_STATE, 0, 1, 2, PROBE, ODD_X, ODD_X, "V"),
        (ill, index, index, index, ill, real, real, label),
    ),
}
#: every fuzzed call, by its public name or, for :data:`ODD`, that name and ``-odd``
CASES = {**FUZZ, **ODD}

#: the public callables left out of the fuzz, each with its reason
EXCUSED = {
    "Branch": "a record the package builds; HybridState.from_branches checks each one given",
    "GateTrace": "a record the gates return, never built from a caller's arguments",
    "HomodyneRecord": "a record a measurement returns, never built from a caller's arguments",
    "ShotStats": "a record run_shots returns, never built from a caller's arguments",
    "PolBasisString": "a type alias, tuple[str, ...]",
    "ContractError": "an exception type",
    "ValidationError": "an exception type",
}


def finite(value) -> bool:
    """Every number ``value`` holds is finite (a state's amplitudes, a
    record's fields, an array's entries)."""
    if isinstance(value, (bool, int, str, type(None))):
        return True
    if isinstance(value, (float, complex)):
        return cmath.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(finite(v) for v in value)
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    raise AssertionError(f"unexpected return type {type(value)!r}")


def call(entry: Entry, args):
    """``entry.call`` on ``args``, each generator among them replaced by a
    fresh ``rng()``, so that every call reads the same words."""
    return entry.call(*(rng() if isinstance(a, np.random.Generator) else a for a in args))


def check(entry: Entry, position: int, value, refused: bool = False) -> None:
    if position in entry.work and isinstance(value, int) and value > SLOW_COUNT:
        return
    args = list(entry.valid)
    args[position] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(entry, args)
        except (ValidationError, ContractError):
            return
        except TypeError:
            if position not in entry.type_error:
                raise
            return
    assert not refused, f"{value!r} was taken"
    assert finite(result), result


@pytest.mark.parametrize("name", list(CASES))
def test_each_ill_formed_value_is_refused_or_gives_a_finite_result(name):
    entry = CASES[name]
    for position in range(len(entry.valid)):
        for value in ILL:
            check(entry, position, value, refused=any(value is r for r in REFUSED))


@pytest.mark.parametrize("name", list(CASES))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_drawn_arguments_are_refused_or_give_a_finite_result(name, data):
    entry = CASES[name]
    position = data.draw(st.integers(0, len(entry.valid) - 1), label="position")
    check(entry, position, data.draw(entry.kinds[position], label="value"))


@pytest.mark.parametrize("name", list(CASES))
def test_the_valid_call_returns(name):
    """Each entry's valid arguments return, so the fuzz starts from a call
    that works and each refusal is the fuzzed value's."""
    entry = CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert finite(call(entry, entry.valid))


@pytest.mark.parametrize("name", list(ODD))
def test_the_odd_calls_feed_forward(name):
    """Every record of an :data:`ODD` call reads odd, and its trace holds the
    corrections the fuzzed values reach."""
    trace, _ = call(ODD[name], ODD[name].valid)
    assert [r.parity for r in trace.records] == ["odd"] * len(trace.records)
    assert trace.corrections
