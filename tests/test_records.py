"""Value semantics of the package's records: frozen, equal by fields, dataclass-style repr."""

import ast
import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import pytest

from enerscale.carbon import CarbonCycleParams
from enerscale.cli import RunManifest
from enerscale.datasets import Snapshot
from enerscale.errors import DomainError
from enerscale.growth import CarbonizationEstimate, KayaComponents, RatesRow
from enerscale.ingestion import DataSourceDescriptor, ManifestEntry, ValidationReport
from enerscale.projection import (
    AtmosphereState,
    CapacityRequirement,
    Scenario,
    SteadyStateResult,
    Trajectory,
)
from enerscale.reconstruction import PppMerRatio, ReconstructionResult, WealthSeries
from enerscale.records import Record
from enerscale.scaling import ScalingEstimate
from enerscale.series import AnnualSeries, Period, SeriesKind
from enerscale.tables import TableResult
from enerscale.units import Quantity, Unit

P = Period(1980, 2017)
ENERGY = AnnualSeries(SeriesKind.ENERGY, Unit.EJ_PER_YR, (2000, 2001), (1.0, 2.0))
WEALTH = WealthSeries(AnnualSeries(SeriesKind.WEALTH, Unit.TUSD, (1, 2), (50.0, 51.0)),
                      Quantity(50.0, Unit.TUSD), "test")
RATIO = PppMerRatio(1.5, P)
PARAMS = CarbonCycleParams(sigma=0.02)
SCENARIO = Scenario(2017.0, 40.0, 3000.0, 0.006, 0.018, 0.024)
TRAJECTORY = Trajectory(SCENARIO, (2017.0,), (3000.0,), (10.0,), (130.0,))
DESCRIPTOR = DataSourceDescriptor(Path("x.csv"), SeriesKind.ENERGY, Unit.EJ_PER_YR)

#: (class, its fields in order with a valid value each), for every record class.
RECORDS = [
    (Quantity, dict(value=1.5, unit=Unit.PPMV)),
    (Period, dict(start_year=1980, end_year=2017)),
    (AnnualSeries, dict(kind=SeriesKind.ENERGY, unit=Unit.EJ_PER_YR, years=(2000, 2001),
                        values=(1.0, 2.0))),
    (DataSourceDescriptor, dict(path=Path("x.csv"), kind=SeriesKind.ENERGY, unit=Unit.EJ_PER_YR,
                                year_column="y", value_column="v", scale=2.0)),
    (ManifestEntry, dict(name="energy", descriptor=DESCRIPTOR, contiguous=False)),
    (ValidationReport, dict(gaps=((3, 4),), coverage=P)),
    (PppMerRatio, dict(value=1.5, window=P)),
    (WealthSeries, dict(series=WEALTH.series, w1=WEALTH.w1, method="test")),
    (ReconstructionResult, dict(gdp=ENERGY, wealth=WEALTH, ratio=RATIO,
                                spline_knot_years=(1, 1000))),
    (ScalingEstimate, dict(period=P, mean=Quantity(6.0, Unit.GW_PER_TUSD),
                           std=Quantity(0.1, Unit.GW_PER_TUSD),
                           ci95_halfwidth=Quantity(0.05, Unit.GW_PER_TUSD),
                           trend_per_year=-0.001)),
    (RatesRow, dict(period=P, eta_w=0.02, eta_e=0.019, lambda_eps=0.021, eta_i=-0.001,
                    eta_eps=0.012, eta_y=0.031)),
    (CarbonCycleParams, dict(sigma=0.02, kappa_a=0.5, preindustrial=280.0,
                             allow_sigma_out_of_band=True)),
    (AtmosphereState, dict(year=2017.0, delta_co2=130.0)),
    (CarbonizationEstimate, dict(period=P, c=0.018, eta_c=-0.003, lambda_c=1.2,
                                 lambda_c_std=0.06)),
    (KayaComponents, dict(period=P, eta_pop=0.013, eta_affluence=0.018, eta_productivity=0.012,
                          eta_carbonization=-0.002, eta_emissions=0.017)),
    (Snapshot, dict(gdp_mer=ENERGY, gdp_ppp=ENERGY, energy=ENERGY, energy_production=ENERGY,
                    emissions=ENERGY, population=ENERGY, concentration=ENERGY)),
    (TableResult, dict(table_id=1, title="t", header=("a", "b"), rows=((1, 2.5),))),
    (Scenario, dict(start_year=2017.0, horizon_years=40.0, w0=3000.0, lambda_gw=0.006, c0=0.018,
                    eta_w=0.024, eta_c=-0.01, delta0=130.0, carbon_params=PARAMS, dt=0.5)),
    (Trajectory, dict(scenario=SCENARIO, years=(2017.0, 2018.0), wealth=(1.0, 2.0),
                      emissions=(3.0, 4.0), deltas=(5.0, 6.0))),
    (CapacityRequirement, dict(gw_per_year=400.0)),
    (SteadyStateResult, dict(trajectory=TRAJECTORY, freeze_year=2017.0, freeze_wealth=3000.0,
                             asymptote_delta=200.0)),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_semantics(cls, fields):
    record, twin = cls(**fields), cls(*fields.values())
    assert record._fields == tuple(fields)
    assert not hasattr(record, "__dict__")
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == twin and hash(record) == hash(twin) and not record != twin
    # Equality is by fields and class: a subclass with equal fields and a
    # tuple of the values never compare equal.
    other = type(cls.__name__, (cls,), {"__slots__": ()})(**fields)
    assert record != other and other != record
    assert record != tuple(fields.values())
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert record._replace() == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_every_package_record_is_checked():
    """Each ``Record`` subclass defined in the package is a ``RECORDS`` row."""
    import enerscale

    defined = set()
    for module in pkgutil.iter_modules(enerscale.__path__):
        if module.name == "__main__":
            continue
        namespace = importlib.import_module(f"enerscale.{module.name}")
        defined.update(
            cls for _, cls in inspect.getmembers(namespace, inspect.isclass)
            if issubclass(cls, Record) and cls is not Record
            and cls.__module__ == namespace.__name__
        )
    checked = {cls for cls, _ in RECORDS}
    assert sorted(c.__name__ for c in defined - checked) == []
    assert len(checked) == len(RECORDS)


def test_only_the_base_init_stores_fields():
    """No module but ``records`` calls or imports ``set_field``, or calls ``object.__setattr__``."""
    import enerscale

    package = Path(enerscale.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "records.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                called = ast.unparse(node.func)
                if called == "object.__setattr__" or called.rsplit(".", 1)[-1] == "set_field":
                    found.append(f"{path.name}:{node.lineno}: calls {called}")
            elif isinstance(node, ast.ImportFrom):
                if any(alias.name == "set_field" for alias in node.names):
                    found.append(f"{path.name}:{node.lineno}: imports set_field")
    assert found == []


class Pair(Record):
    __slots__ = _fields = ("first", "second")


def test_base_init_binds_positional_and_keyword_fields():
    assert Pair(1, 2) == Pair(1, second=2) == Pair(second=2, first=1)
    pair = Pair(1, second=2)
    assert (pair.first, pair.second) == (1, 2)


@pytest.mark.parametrize("args, kwargs, message", [
    ((1,), {}, r"Pair\(\) is missing field 'second'"),
    ((), {"second": 2}, r"Pair\(\) is missing field 'first'"),
    ((1, 2), {"third": 3}, r"Pair\(\) got an unknown field 'third'"),
    ((1,), {"first": 1, "second": 2}, r"Pair\(\) got field 'first' twice"),
    ((1, 2, 3), {}, r"Pair\(\) takes 2 fields but 3 were given"),
], ids=["missing", "missing-first", "unknown", "repeated", "extra"])
def test_base_init_rejects_a_bad_binding(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)


def test_derived_values_are_not_fields():
    recon = ReconstructionResult(ENERGY, WEALTH, RATIO, (1, 1000))
    assert recon.w1 is WEALTH.w1 and "w1" not in recon._fields
    capacity = CapacityRequirement(365.25)
    assert capacity.gw_per_day == 1.0 and repr(capacity) == "CapacityRequirement(gw_per_year=365.25)"
    with pytest.raises(AttributeError):
        capacity.gw_per_day = 2.0


def test_scenario_derived_scaling_is_not_a_field():
    scenario = Scenario(2017.0, 40.0, 3000.0, 0.006, 0.018, 0.024)
    assert Scenario.__slots__ == Scenario._fields and isinstance(Scenario.lambda_ej, property)
    assert "lambda_ej" not in scenario._fields and "lambda_ej" not in repr(scenario)
    assert scenario.lambda_ej == pytest.approx(0.006 * 0.031536)
    with pytest.raises(AttributeError):
        scenario.lambda_ej = 1.0
    moved = scenario._replace(lambda_gw=0.012)
    assert moved.lambda_ej == pytest.approx(2 * scenario.lambda_ej)
    assert moved != scenario and moved._replace(lambda_gw=0.006) == scenario


def test_replace_validates():
    with pytest.raises(DomainError, match="horizon"):
        SCENARIO._replace(horizon_years=0.0)


def test_run_manifest_is_a_mutable_record():
    """A plain class, not a ``Record``: fresh containers per instance, assignable attributes."""
    manifest = RunManifest(["enerscale", "report"], {"a": "1"})
    twin = RunManifest(["enerscale", "report"], {"a": "1"})
    assert not isinstance(manifest, Record)
    assert manifest.inputs == {} and manifest.outputs == []
    assert manifest.inputs is not twin.inputs and manifest.outputs is not twin.outputs
    assert manifest.add_output(Path("x")) == Path("x")
    manifest.add_output(Path("x"))
    assert manifest.outputs == ["x"] and twin.outputs == []
    manifest.parameters = {"b": "2"}
    assert manifest.parameters == {"b": "2"}
