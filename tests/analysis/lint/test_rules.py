"""Per-rule good/bad fixture snippets for the domain lint rules."""

import textwrap

import pytest

from repro.analysis.lint import lint_source, resolve_rules
from repro.analysis.lint.registry import SharedContext

VOCAB = SharedContext(event_vocabulary=frozenset({
    "FrameStarted", "FrameTransmitted", "AttackDetected",
}))

ENGINE_PATH = "src/repro/bus/simulator.py"
APP_PATH = "src/repro/experiments/sweeps.py"


def findings_for(source, path=APP_PATH, select=None, shared=None):
    rules = resolve_rules(select=select) if select else None
    found, _ = lint_source(textwrap.dedent(source), path, rules=rules,
                           shared=shared or VOCAB)
    return found


def codes_for(source, path=APP_PATH, select=None, shared=None):
    return [f.code for f in findings_for(source, path=path, select=select,
                                         shared=shared)]


# ----------------------------------------------------------------- RC101

WALLCLOCK_BAD = """
    import time

    def step(self):
        return time.perf_counter()
"""


def test_rc101_flags_wallclock_in_engine_path():
    codes = codes_for(WALLCLOCK_BAD, path=ENGINE_PATH)
    assert codes == ["RC101"]


def test_rc101_allows_wallclock_outside_engine():
    assert codes_for(WALLCLOCK_BAD, path=APP_PATH) == []


def test_rc101_tracks_import_aliases():
    source = """
        import time as _time

        def run():
            start = _time.monotonic()
            return start
    """
    assert codes_for(source, path=ENGINE_PATH) == ["RC101"]


def test_rc101_flags_from_import_and_datetime():
    source = """
        from time import perf_counter
        from datetime import datetime

        def run():
            return perf_counter(), datetime.now()
    """
    codes = codes_for(source, path=ENGINE_PATH)
    # The from-import is flagged once at the import line; datetime.now()
    # is flagged at the call.
    assert codes.count("RC101") == 2


def test_rc101_good_engine_code_is_clean():
    source = """
        def step(self, time):
            self._time = time
            return self._time
    """
    assert codes_for(source, path=ENGINE_PATH) == []


# ----------------------------------------------------------------- RC102

def test_rc102_flags_global_rng_in_engine():
    source = """
        import random

        def jitter():
            return random.randint(0, 3)
    """
    assert codes_for(source, path=ENGINE_PATH) == ["RC102"]


def test_rc102_flags_unseeded_random_instance():
    source = """
        import random

        def make_rng():
            return random.Random()
    """
    assert codes_for(source, path=ENGINE_PATH) == ["RC102"]


def test_rc102_allows_seeded_random_instance():
    source = """
        import random

        def make_rng(seed):
            return random.Random(seed)
    """
    assert codes_for(source, path=ENGINE_PATH) == []


def test_rc102_allows_global_rng_outside_engine():
    source = """
        import random

        def pick():
            return random.choice([1, 2])
    """
    assert codes_for(source, path=APP_PATH) == []


# ----------------------------------------------------------------- RC103

def test_rc103_flags_float_literal_equality():
    source = """
        def check(load):
            return load == 0.5
    """
    assert codes_for(source) == ["RC103"]


def test_rc103_flags_bit_time_call_equality():
    source = """
        def check(sim, t):
            return sim.milliseconds() != t
    """
    assert codes_for(source) == ["RC103"]


def test_rc103_allows_ordering_and_int_equality():
    source = """
        def check(sim, t):
            return sim.milliseconds() > t and sim.time == 12
    """
    assert codes_for(source) == []


# ----------------------------------------------------------------- RC105

def test_rc105_flags_unknown_event_type():
    source = """
        def fire(self, t):
            self.emit(MysteryEvent(time=t))
    """
    assert codes_for(source) == ["RC105"]


def test_rc105_allows_vocabulary_events():
    source = """
        def fire(self, t):
            self.emit(FrameStarted(time=t))
            self.emit(AttackDetected(time=t))
    """
    assert codes_for(source) == []


def test_rc105_ignores_non_constructor_emit_args():
    # PeriodicMessage.emit(time) takes plain values, not event constructors.
    source = """
        def tick(self, time, queue):
            queue.enqueue(message.emit(time), time)
            self.emit(existing_event)
    """
    assert codes_for(source) == []


def test_rc105_skips_when_vocabulary_unresolved():
    source = """
        def fire(self, t):
            self.emit(MysteryEvent(time=t))
    """
    assert codes_for(source, shared=SharedContext()) == []


# ----------------------------------------------------------------- RC106

PERSISTED_PATH = "src/repro/experiments/store.py"

UNVERSIONED = """
    class Blob:
        def to_dict(self):
            return {}

        @classmethod
        def from_dict(cls, data):
            return cls()
"""


def test_rc106_flags_unversioned_persisted_class():
    assert codes_for(UNVERSIONED, path=PERSISTED_PATH) == ["RC106"]


def test_rc106_applies_to_obs_modules():
    assert codes_for(UNVERSIONED, path="src/repro/obs/metrics.py") \
        == ["RC106"]


def test_rc106_ignores_non_persisted_modules():
    assert codes_for(UNVERSIONED, path=APP_PATH) == []


def test_rc106_accepts_schema_version_field():
    source = """
        class Blob:
            schema_version: int = 1

            def to_dict(self):
                return {}

            @classmethod
            def from_dict(cls, data):
                return cls()
    """
    assert codes_for(source, path=PERSISTED_PATH) == []


def test_rc106_accepts_module_level_constant():
    source = "BLOB_SCHEMA_VERSION = 2\n" + textwrap.dedent(UNVERSIONED)
    assert codes_for(source, path=PERSISTED_PATH) == []


def test_rc106_ignores_one_way_serialization():
    source = """
        class ViewOnly:
            def to_dict(self):
                return {}
    """
    assert codes_for(source, path=PERSISTED_PATH) == []


# ----------------------------------------------------------------- RC108

INIT_PATH = "src/repro/fake/__init__.py"


def test_rc108_requires_all_when_reexporting():
    source = """
        from repro.fake.mod import Thing
    """
    assert codes_for(source, path=INIT_PATH) == ["RC108"]


def test_rc108_flags_missing_and_unbound_entries():
    source = """
        from repro.fake.mod import Thing, Other

        __all__ = ["Thing", "Ghost"]
    """
    findings = findings_for(source, path=INIT_PATH)
    messages = " ".join(f.message for f in findings)
    assert [f.code for f in findings] == ["RC108", "RC108"]
    assert "'Ghost'" in messages and "'Other'" in messages


def test_rc108_accepts_complete_all():
    source = """
        from repro.fake.mod import Thing, Other

        __all__ = ["Other", "Thing"]
    """
    assert codes_for(source, path=INIT_PATH) == []


def test_rc108_ignores_plain_modules_and_empty_inits():
    assert codes_for("from repro.fake.mod import Thing\n",
                     path="src/repro/fake/mod.py") == []
    assert codes_for("", path=INIT_PATH) == []


# -------------------------------------------------------------- selection

def test_select_runs_only_requested_rules():
    source = """
        import time

        def step(load):
            return time.perf_counter() == 0.5
    """
    assert sorted(codes_for(source, path=ENGINE_PATH)) == ["RC101", "RC103"]
    assert codes_for(source, path=ENGINE_PATH,
                     select=["RC103"]) == ["RC103"]


def test_unknown_rule_code_raises():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        resolve_rules(select=["RC999"])


def test_parse_error_becomes_rc100_finding():
    findings = findings_for("def broken(:\n")
    assert [f.code for f in findings] == ["RC100"]


# ----------------------------------------------------------------- RC109

FAULTS_PATH = "src/repro/faults/wire.py"


def test_rc109_flags_global_rng_in_faults():
    source = """
        import random

        def apply(level):
            if random.random() < 0.5:
                return 1 - level
            return level
    """
    assert codes_for(source, path=FAULTS_PATH) == ["RC109"]


def test_rc109_flags_unseeded_and_entropy_seeded_random():
    source = """
        import random

        def build(spec):
            a = random.Random()
            b = random.Random(id(spec))
            c = random.SystemRandom()
            return a, b, c
    """
    assert codes_for(source, path=FAULTS_PATH) == [
        "RC109", "RC109", "RC109"]


def test_rc109_flags_from_import_of_global_rng():
    source = """
        from random import shuffle

        def corrupt(entries):
            shuffle(entries)
    """
    assert codes_for(source, path=FAULTS_PATH) == ["RC109"]


def test_rc109_accepts_spec_seeded_random():
    source = """
        import random

        def build(spec):
            return random.Random(spec.seed)

        def derive(seed, index):
            return random.Random(seed + index)
    """
    assert codes_for(source, path=FAULTS_PATH) == []


def test_rc109_only_applies_under_faults():
    source = """
        import random

        def roll():
            return random.random()
    """
    assert codes_for(source, path=APP_PATH) == []
