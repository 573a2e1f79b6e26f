"""Tests for :class:`RunConfig` and the entry points that take it."""

import dataclasses
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    DEFAULT_DURATION_BITS,
    ENGINES,
    RunConfig,
    make_simulator,
    run_and_measure,
)
from repro.experiments.scenarios import experiment_1


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.duration_bits == DEFAULT_DURATION_BITS
        assert cfg.engine == "fast"
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "duration_bits", "bus_speed", "name", "engine"]

    def test_engine_validation(self):
        assert ENGINES == ("fast", "bit")
        with pytest.raises(ConfigurationError, match="engine"):
            RunConfig(engine="quantum")

    def test_duration_validation(self):
        with pytest.raises(ConfigurationError):
            RunConfig(duration_bits=-1)

    def test_bus_speed_validation(self):
        with pytest.raises(ConfigurationError):
            RunConfig(bus_speed=0)

    def test_policy_mapping(self):
        assert RunConfig(engine="fast").policy() == "auto"
        assert RunConfig(engine="bit").policy() == "off"

    def test_with_overrides_revalidates(self):
        cfg = RunConfig(duration_bits=1_000)
        assert cfg.with_overrides(engine="bit").engine == "bit"
        with pytest.raises(ConfigurationError):
            cfg.with_overrides(engine="nope")


class TestLegacyShims:
    """The one ``config=`` path that replaced the pre-RunConfig keywords."""

    def test_config_path_does_not_warn(self):
        setup = experiment_1()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            setup.run(config=RunConfig(duration_bits=2_000))
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]

    def test_make_simulator_config(self):
        sim = make_simulator(config=RunConfig(bus_speed=125_000))
        assert sim.bus_speed == 125_000
        assert sim.wire.record

    def test_run_and_measure_engine_selection(self):
        setup = experiment_1()
        run_and_measure(setup.sim, setup.attackers,
                        defenders=(setup.defender,),
                        config=RunConfig(duration_bits=4_000, engine="bit"))
        assert setup.sim._ff_engine is None
