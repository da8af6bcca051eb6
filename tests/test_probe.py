"""The probe's detector constants: derived once, by ``ProbeMode``, from the
expressions each engine used to derive for itself, and built along one path.

The grid spans the probes the paper cares about, from an empty mode to
``ALPHA_MAX``, at no coupling, deep in the weak-Kerr limit, at xd = 20 and
at the largest kicks; pairs ``ProbeMode`` refuses are skipped.
"""

import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from kerrgate import ProbeMode, ValidationError, analysis, cli, new_state
from kerrgate.measurement import sample_and_collapse
from kerrgate.optics import apply_cross_kerr, build_parity_coupling_pair
from kerrgate.states import ALPHA_MAX

SRC = Path(__file__).resolve().parents[1] / "src" / "kerrgate"


def theta_for(alpha, xd=20.0):
    """The kick that splits the peaks by ``xd``, or None if none does."""
    if not 4.0 * alpha >= xd:
        return None
    return 2.0 * math.asin(math.sqrt(xd / (4.0 * alpha)))


def grid():
    for alpha in (0.0, 1e-3, 3.0, 100.0, 1e9, 1e15, ALPHA_MAX):
        for theta in (0.0, 1e-7, theta_for(alpha), math.pi / 2, math.pi):
            if theta is None:
                continue
            try:
                ProbeMode(alpha, theta)
            except ValidationError:
                continue
            yield alpha, theta


GRID = list(grid())


def label(alpha, theta, k):
    return alpha * cmath.exp(1j * k * theta)


def test_the_grid_spans_every_amplitude_and_kick():
    assert {alpha for alpha, _ in GRID} == {0.0, 1e-3, 3.0, 100.0, 1e9, 1e15, ALPHA_MAX}
    assert {theta for _, theta in GRID} >= {0.0, 1e-7, math.pi / 2, math.pi}


@pytest.mark.parametrize("alpha,theta", GRID)
def test_derived_constants_equal_the_expressions_they_replace(alpha, theta):
    probe = ProbeMode(alpha, theta)
    assert probe.x0.hex() == (alpha * (1 + math.cos(theta))).hex()
    assert probe.xd.hex() == (4 * alpha * math.sin(theta / 2) ** 2).hex()
    assert probe.a.hex() == label(alpha, theta, 1).real.hex()
    assert probe.b.hex() == label(alpha, theta, 1).imag.hex()
    expected = [(2.0 * label(alpha, theta, k).real).hex() for k in (-1, 0, 1)]
    assert [float(p).hex() for p in probe.peaks] == expected
    assert not probe.peaks.flags.writeable


@pytest.mark.parametrize("alpha,theta", GRID)
def test_collapse_phase_equals_the_two_term_kernel_phase(alpha, theta):
    """``phi`` from ``p = b (x - a)`` equals ``phi`` from the difference of
    the two kernels' unwrapped phases, ``Im l (x - Re l)`` of ``l = label(1)``
    and of ``label(0)``, at an x forced on either side of ``x0``."""
    probe = ProbeMode(alpha, theta)
    state = new_state([(0.6, 0.8), (0.28, 0.96)]).activate_probe(probe)
    for coupling in build_parity_coupling_pair(0, 1):
        state = apply_cross_kerr(state, coupling)
    one, zero = label(alpha, theta, 1), label(alpha, theta, 0)
    # a quarter sigma past each peak: one x either side of x0, except at
    # alpha = ALPHA_MAX and theta = 0, where 2 alpha absorbs the quarter and
    # no x past x0 keeps a nonzero kernel
    sides = {float(probe.peaks[1]) + 0.25: "even", float(probe.peaks[0]) - 0.25: "odd"}
    if (alpha, theta) == (ALPHA_MAX, 0.0):
        sides = {2 * alpha: "odd"}
    for x, parity in sides.items():
        record, _ = sample_and_collapse(state, None, force_x=x)
        p = one.imag * (x - one.real) - zero.imag * (x - zero.real)
        assert record.parity == parity
        assert record.phi.hex() == (math.atan2(math.sin(p), math.cos(p)) % (2 * math.pi)).hex()


@pytest.mark.parametrize(
    "first,second",
    [
        ((100, 0.5), (100.0, 0.5)),
        ((-0.0, 0.5), (0.0, 0.5)),
        ((1.5, 1), (1.5, 1.0)),
        ((1.5, -0.0), (1.5, 0.0)),
    ],
    ids=["int-alpha", "signed-zero-alpha", "int-theta", "signed-zero-theta"],
)
def test_probes_that_compare_equal_are_equal_in_every_field(first, second):
    """A cached probe may serve any key equal to its own, so equal keys must
    give the same floats: ints become floats and -0.0 becomes 0.0."""
    first, second = ProbeMode(*first), ProbeMode(*second)
    assert first == second
    for name in ("alpha", "theta", "x0", "xd", "a", "b"):
        assert getattr(first, name).hex() == getattr(second, name).hex(), name
    assert first.peaks.tobytes() == second.peaks.tobytes()


@pytest.mark.parametrize("first", [None, (1.0, 0.5), (1, 0.5)],
                         ids=["empty-cache", "float-key-first", "int-key-first"])
def test_a_bool_alpha_is_refused_whichever_key_filled_the_cache(first):
    """``True`` is no real, though ``(True, 0.5)`` and ``(1.0, 0.5)`` are
    equal keys to an ``lru_cache``: ``geometry`` checks the kinds before the
    lookup, so no cached probe answers for a key it never checked."""
    analysis.geometry.cache_clear()
    if first is not None:
        analysis.geometry(*first)
    for build in (ProbeMode, analysis.geometry):
        with pytest.raises(ValidationError, match=r"^probe alpha must be a real number, got True$"):
            build(True, 0.5)


def test_numpy_scalars_are_stored_as_builtin_floats():
    probe = ProbeMode(np.float64(8.0), np.float32(0.5))
    assert (type(probe.alpha), type(probe.theta)) == (float, float)
    assert probe == ProbeMode(8.0, float(np.float32(0.5)))


def test_a_cli_row_does_not_depend_on_what_the_cache_holds(tmp_path):
    """The same sweep writes the same file whichever equal key filled the
    cache first, a zero theta of either sign or an int amplitude."""
    argv = ["--experiment", "sweep", "--alpha", "8", "--theta", "0.72", "--shots", "20",
            "--grid-alpha", "0:8:3", "--grid-theta", "0:-0:3"]
    outputs = []
    for keys in ([(0.0, 0.0), (8, -0.0)], [(0.0, -0.0), (8.0, 0.0)]):
        analysis.geometry.cache_clear()
        for key in keys:
            analysis.geometry(*key)
        out = tmp_path / f"run{len(outputs)}.csv"
        assert cli.main(argv + ["--output", str(out)]) == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]
    assert ",-0," not in outputs[0]


# -- one constructor path ------------------------------------------------------


def probe_constructions(source: str) -> list[str]:
    """The enclosing function of every ``ProbeMode(...)`` call in ``source``,
    ``"<module>"`` outside any function."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "ProbeMode":
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_the_scan_finds_a_construction():
    source = "def f(a):\n    return states.ProbeMode(a, 0.1)\nP = ProbeMode(1.0, 0.2)\n"
    assert probe_constructions(source) == ["f", "<module>"]


def test_the_package_builds_its_probes_only_through_geometry():
    """Outside ``states.py`` a probe is built only by the cache
    ``analysis.geometry``, so every caller shares its probe."""
    stray = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "states.py":
            continue
        allowed = ["geometry"] if path.name == "analysis.py" else []
        calls = [where for where in probe_constructions(path.read_text()) if where not in allowed]
        if calls:
            stray[path.name] = calls
    assert stray == {}
    assert probe_constructions((SRC / "analysis.py").read_text()) == ["geometry"]

