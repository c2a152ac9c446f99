"""The one slice-function interface: every HoloSliceFunction type
implements eval_rows, batched over arrays, and eval is its one-row case."""
import functools
import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicereg
from slicereg import (ContinuedLog, PowerSeries, Quaternion, SliceCoord,
                      SphereSample, UnitImaginary, ball_spec, extend_to_completion,
                      formula_stem, regular_ext)
from slicereg.counterexample import BranchedLogFamily, CounterexampleConfig
from slicereg.errors import OutOfDomainError
from slicereg.holomorphic import HoloSliceFunction
from slicereg.quaternions import UNIT_I, UNIT_J, UNIT_K

from helpers import horner_eval
from test_trace_targets import _targets

Q = Quaternion


def _slice_function_types() -> dict:
    """Every HoloSliceFunction subclass defined in a slicereg module, by
    "module.Class"."""
    types = {}
    for info in pkgutil.iter_modules(slicereg.__path__):
        module = importlib.import_module(f"slicereg.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and issubclass(obj, HoloSliceFunction) \
                    and obj is not HoloSliceFunction and obj.__module__ == module.__name__:
                types[f"{info.name}.{name}"] = obj
    return types


def test_every_slice_function_type_implements_eval_rows_and_no_own_eval():
    """A type defines eval_rows; it defines eval only where the benchmark's
    trace targets pin that name, so one scalar entry serves every type."""
    types = _slice_function_types()
    assert {"holomorphic.PowerSeries", "holomorphic.ContinuedLog", "extension.StemPair",
            "counterexample.BranchedLogFamily"} <= set(types)
    pinned = {f"{module}.{qualname}" for module, qualname in _targets()}
    assert [name for name, t in types.items() if "eval_rows" not in vars(t)] == []
    assert [name for name, t in types.items()
            if "eval" in vars(t) and f"{name}.eval" not in pinned] == []


_SERIES = PowerSeries((Q(0.2, 0.1, 0, 0), Q(0, 1, 0.3, 0), Q(0.5, 0, 0, -0.4),
                       Q(-0.1, 0.2, 0, 0.3)), radius=1.6)
_LOG = ContinuedLog(pole=(0.0, 0.5), base=(1.0, 0.5), base_value=Q(0.1, 0, 0, 0.2),
                    cuts=(np.array([[0.0, 0.5], [0.0, 2.0]]),), carrier=UNIT_J,
                    bbox=(-2.0, 2.0, -2.0, 2.0))
_UNITS = [UNIT_I, -UNIT_I, UNIT_J, -UNIT_J, UNIT_K, UnitImaginary(0.36, -0.48, 0.8)]


@functools.lru_cache(maxsize=None)
def _function(name):
    """The slice function of each kind, built on first use."""
    ball = ball_spec(0.0, 1.0, h=0.05)
    if name == "series":
        return _SERIES
    if name == "log":
        return _LOG
    if name == "log-view":
        return _LOG.on_slice(-UNIT_J)
    if name == "family":
        return BranchedLogFamily(CounterexampleConfig())
    if name == "formula":
        return formula_stem(_SERIES.on_slice(UNIT_I), _SERIES.on_slice(UNIT_K))
    if name == "regular":
        return regular_ext(_SERIES.on_slice(_UNITS[5]), ball)
    return extend_to_completion(_SERIES, ball, SphereSample(8), [[0.5, 0.5]], force=True)[0]


_KINDS = ["series", "log", "log-view", "family", "formula", "regular", "completion"]
_unit_vectors = st.one_of(
    st.sampled_from([u.to_list() for u in _UNITS]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: UnitImaginary(*v).to_list()))


def _rows(span):
    """Lists of rows (x, y, unit vector): real rows and rows off the axis,
    within and past the domain of a function whose box has half-width
    span."""
    point = st.one_of(st.tuples(st.floats(-span, span), st.just(0.0)),
                      st.tuples(st.floats(-span, span), st.floats(1e-6, span)))
    return st.lists(st.tuples(point, _unit_vectors), min_size=1, max_size=8).map(
        lambda rows: [(x, y, v) for (x, y), v in rows])


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(_KINDS))
    return kind, draw(_rows(6.0 if kind == "family" else 2.5))


def _same(got: Quaternion, row, real: bool) -> bool:
    """got equals the row bit for bit; on the real axis, where eval takes
    the unit i and the row its own unit, a zero may differ in sign."""
    want = np.array(got.to_list())
    return want.tolist() == row.tolist() if real else want.tobytes() == row.tobytes()


@settings(max_examples=250, deadline=None)
@given(_cases())
def test_eval_is_the_one_row_case_of_eval_rows(case):
    """Each row of one eval_rows call equals eval at its point, and eval
    raises OutOfDomainError exactly where the row is not ok."""
    kind, rows = case
    f = _function(kind)
    x, y, vectors = (np.array(a) for a in zip(*rows))
    values, ok = f.eval_rows(x, y, vectors)
    for (px, py, v), row, good in zip(rows, values, ok):
        coord = SliceCoord.make(px, py, UnitImaginary(*v))
        if not good:
            assert np.isnan(row).all()
            with pytest.raises(OutOfDomainError):
                f.eval(coord)
            continue
        assert _same(f.eval(coord), row, py == 0.0)


_series = st.builds(
    lambda coeffs, center, radius: PowerSeries(tuple(Q(*c) for c in coeffs), center, radius),
    st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 4), min_size=1, max_size=8),
    st.floats(-0.5, 0.5), st.one_of(st.just(np.inf), st.floats(0.2, 2.0)))


@settings(max_examples=200, deadline=None)
@given(_series, _rows(2.5))
def test_power_series_rows_are_the_scalar_horner_scheme(series, rows):
    """PowerSeries.eval_rows equals the scalar Horner oracle bit for bit,
    and a row is not ok exactly where the oracle raises."""
    x, y, vectors = (np.array(a) for a in zip(*rows))
    values, ok = series.eval_rows(x, y, vectors)
    for (px, py, v), row, good in zip(rows, values, ok):
        try:
            want = horner_eval(series, SliceCoord.make(px, py, UnitImaginary(*v)))
        except OutOfDomainError:
            assert not good and np.isnan(row).all()
            continue
        assert good and _same(want, row, py == 0.0)
