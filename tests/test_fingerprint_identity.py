"""Workload fingerprints are persisted identities: plan stores, job
checkpoints bound to a workload and the benchmark's golden table all
key on them.  The service memoises request -> key; this file pins that
the memo never changes a key, never conflates two workloads and never
grows without bound.

``GOLDEN`` holds literal digests captured at the commit *before* the
memo existed (``python tests/test_fingerprint_identity.py`` prints the
table for the current tree); ``golden/parent_plans.json`` is a plan
store that commit wrote.
"""

import dataclasses
import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ML4all
from repro.cluster import ClusterSpec
from repro.cluster.storage import DatasetStats, PartitionedDataset
from repro.core.iterations import SpeculationSettings
from repro.core.plans import TrainingSpec
from repro.gd import step_size
from repro.gd.gradients import task_gradient
from repro.gd.step_size import InverseSqrtStep
from repro.service import OptimizerService
from repro.service import core as service_core
from repro.service.fingerprint import (
    freeze,
    memo_key,
    trial_context_digest,
    workload_fingerprint,
)

DATASETS = ("adult", "covtype", "yearpred", "higgs")
VARIANTS = {
    "default": {},
    "epsilon": {"epsilon": 0.01},
    "fixed_iterations": {"fixed_iterations": 40},
    "algorithm": {"algorithm": "sgd"},
    "batch": {"batch": 500},
    "step": {"step": 0.5},
}

GOLDEN = {
    "adult/default":
        "551ebf23674bf1563af3e8e86444851c9947f53d7450226981e7af911f359b16",
    "adult/epsilon":
        "c16c69672caed61865e0acc75162df214bd3c3827371c10ad7ef0fe7af9a0416",
    "adult/fixed_iterations":
        "998362bd7047733dd43cc1c157ca968943e2aab0e131d983d97bb09690568ab5",
    "adult/algorithm":
        "73dcddfc253b5248a6a6df016cd4ae5d5cac8d35c4f2a9b5f2e2e227f6558506",
    "adult/batch":
        "a0c0a8fbdaaf9a3ed845cac81e4ecbd33a3ddce2131501b91b48fe8fe981e9eb",
    "adult/step":
        "e52d110e071fb43a9024bcdfc4a613cc7cf90e7b139705a0fe41a39ec8d0462b",
    "covtype/default":
        "06c554333435f8660ebbbb0149a44c5ff9578f9d4f9affc1c198966eed26378b",
    "covtype/epsilon":
        "9779e388d051b8f610a0235dda80f2a459c284b7b46b77762a1fa65c050e96de",
    "covtype/fixed_iterations":
        "68b3c7e14779ea7c81256d346b00cf781a1e842e578cd771a043ae4180a422a1",
    "covtype/algorithm":
        "a0ba1fb8095326461996ccd9019ae38ba399767173df5c02b5ee1012bcc616a5",
    "covtype/batch":
        "048314959532651ebb17fcf43d4150153c074fcf71ffd21868de34e064b1f1b6",
    "covtype/step":
        "4728f5dd2a418adafa88fca90cc5deff648c10bde30c9a4c4b9c689c5e4ea496",
    "yearpred/default":
        "0baac10e601a7da517e5d8da5f78234360de1612ef443f8799dbe2e6f685055b",
    "yearpred/epsilon":
        "74ea5fa29b5f98f2d02a714b0b7f8bc9c3c56ef221cf778db469a808a5402db3",
    "yearpred/fixed_iterations":
        "3ea74e497d763bce697c2478e47f5449a78abde8f54bc909f2bbe62e20e9ace3",
    "yearpred/algorithm":
        "513e1847029f1be751c975bb5f50080f45fb04f45afa90c3c5f74b1a8d9e86a1",
    "yearpred/batch":
        "48fe13367fbdabebd04d191e47c562219496a1e2d70a08836a5f95f4161b39d4",
    "yearpred/step":
        "6870f63874c9122dc81b7351cd63a5b6b8c058a7ca2d2e85a42854dbdb374d97",
    "higgs/default":
        "09d1b34810f2f16cb8ef6137b678ff155a03e50e2973028bbecf3c60968acb08",
    "higgs/epsilon":
        "0fa56a1de97104abeb5c571584cf2c354b329997bd31308aa166a8c89373258a",
    "higgs/fixed_iterations":
        "28efeb9df5c23e0e652d6f551789c7353c8280352d5e08567b4dd30c59ad278d",
    "higgs/algorithm":
        "def97dc277ec6e72f6cfd06b20e6000f22219d9e74680740549deef55edf4da4",
    "higgs/batch":
        "903375301fa96db8cdc5ca58af29706fb5cd1c21e2d2a6abf8244aa264dad94f",
    "higgs/step":
        "94ec0256d7ee001130fa99b5f08ee956acc421ab09ccc1e4a7be5fb7f34c2bfc",
}


def fingerprint(system, request):
    (r,) = system._normalize_requests([request], {})
    return system.service().fingerprint(
        r.dataset, r.training, r.fixed_iterations, r.algorithms,
        r.batch_sizes,
    )


@pytest.fixture(scope="module")
def system():
    return ML4all(seed=7)


class TestGoldenTable:
    def test_the_table_covers_every_dataset_and_variant(self):
        assert set(GOLDEN) == {
            f"{d}/{v}" for d in DATASETS for v in VARIANTS}
        assert len(set(GOLDEN.values())) == len(GOLDEN) >= 24

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_cold_and_memoised_keys_are_the_parents(self, system, name):
        dataset, variant = name.split("/")
        request = {"dataset": dataset, **VARIANTS[variant]}
        service = system.service()
        service._fingerprints.clear()
        assert fingerprint(system, request) == GOLDEN[name]  # cold
        assert len(service._fingerprints) == 1
        assert fingerprint(system, request) == GOLDEN[name]  # from the memo
        assert len(service._fingerprints) == 1

    def test_a_plan_store_the_parent_wrote_is_served_warm(self, tmp_path):
        store = tmp_path / "plans.json"
        shutil.copy(Path(__file__).parent / "golden" / "parent_plans.json",
                    store)
        system = ML4all(seed=7, cache_path=str(store))
        results = system.optimize_many([
            {"dataset": "adult", "epsilon": 0.05, "fixed_iterations": 40},
            {"dataset": "adult", "epsilon": 0.05, "max_iter": 200},
        ], max_workers=1)
        service = system.service()
        assert service.warm_loaded == 2
        assert [r.cache_hit for r in results] == [True, True]
        assert service.metrics.value("service.computed") == 0


def tiny_dataset(seed, spec):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 3))
    y = np.sign(rng.normal(size=40))
    stats = DatasetStats(name="tiny", task="logreg", n=40, d=3)
    return PartitionedDataset(X, y, stats, spec, representation="text")


class TestMemoNeverConflates:
    @pytest.fixture()
    def service(self):
        return OptimizerService(seed=7)

    def test_a_mutated_speculation_field_changes_the_key(self, service):
        dataset = tiny_dataset(0, service.spec)
        training = TrainingSpec(task="logreg")
        before = service.fingerprint(dataset, training)
        assert service.fingerprint(dataset, training) == before
        service.speculation.sample_size += 1  # same object, new value
        after = service.fingerprint(dataset, training)
        assert after != before
        # ...and it is the key a service that never saw the old value
        # computes cold.
        fresh = OptimizerService(
            seed=7, speculation=dataclasses.replace(service.speculation))
        assert fresh.fingerprint(dataset, training) == after

    def test_seed_algorithms_and_content_each_change_the_key(self, service):
        dataset = tiny_dataset(0, service.spec)
        training = TrainingSpec(task="logreg")
        keys = {
            service.fingerprint(dataset, training),
            OptimizerService(seed=8).fingerprint(dataset, training),
            service.fingerprint(dataset, training, algorithms=("sgd",)),
            service.fingerprint(dataset, training,
                                algorithms=("sgd", "bgd")),
            # equal DatasetStats, different arrays
            service.fingerprint(tiny_dataset(1, service.spec), training),
        }
        assert len(keys) == 5

    def test_fixed_iterations_requests_ignore_the_content_digest(
        self, service
    ):
        training = TrainingSpec(task="logreg")
        a, b = (tiny_dataset(s, service.spec) for s in (0, 1))
        assert a.content_digest() != b.content_digest()
        assert service.fingerprint(a, training, fixed_iterations=10) == \
            service.fingerprint(b, training, fixed_iterations=10)
        assert service.fingerprint(a, training) != \
            service.fingerprint(b, training)

    def test_equal_numbers_of_different_types_keep_their_own_keys(
        self, service
    ):
        """1 == 1.0 == True and they hash alike, but they freeze (so
        fingerprinted, at every earlier commit) differently."""
        dataset = tiny_dataset(0, service.spec)
        keys = [
            service.fingerprint(dataset,
                                TrainingSpec(task="logreg", step_size=step))
            for step in (1, 1.0, True, 1, 1.0, True)
        ]
        assert len(set(keys[:3])) == 3
        assert keys[:3] == keys[3:]

    def test_an_unhashable_step_schedule_is_fingerprinted_not_memoised(
        self, service
    ):
        dataset = tiny_dataset(0, service.spec)

        def key(alpha):
            return service.fingerprint(dataset, TrainingSpec(
                task="logreg", step_size=InverseSqrtStep(alpha)))

        assert key(0.5) == key(0.5)  # by value: two schedule objects
        assert key(0.5) != key(0.25)
        assert service._fingerprints == {}

    def test_the_memo_is_bounded(self, service, monkeypatch):
        monkeypatch.setattr(service_core, "_FINGERPRINT_MEMO_SIZE", 8)
        dataset = tiny_dataset(0, service.spec)
        keys = [
            service.fingerprint(dataset, TrainingSpec(
                task="logreg", tolerance=1e-3 * (i + 1)))
            for i in range(80)
        ]
        assert len(set(keys)) == 80
        assert len(service._fingerprints) == 8
        # the survivors are the latest, and still right
        assert service.fingerprint(dataset, TrainingSpec(
            task="logreg", tolerance=1e-3 * 80)) == keys[-1]
        assert len(service._fingerprints) == 8

    def test_trial_contexts_are_memoised_by_what_a_trial_reads(
        self, service
    ):
        dataset = tiny_dataset(0, service.spec)

        def context(**fields):
            return service.trial_context(
                dataset, TrainingSpec(task="logreg", **fields))

        digest = trial_context_digest(
            dataset.content_digest(), task_gradient("logreg"), 1.0, "l1",
            7, service.speculation)
        # Tolerance and cap only re-fit and re-price: one entry.
        assert context() == context(tolerance=0.05, max_iter=9) == digest
        assert len(service._trial_contexts) == 1
        assert context(l2=0.1) != digest
        service.speculation.sample_size += 1
        moved = context()
        assert moved != digest
        assert moved == OptimizerService(
            seed=7, speculation=dataclasses.replace(service.speculation),
        ).trial_context(dataset, TrainingSpec(task="logreg"))
        entries = len(service._trial_contexts)
        assert context(step_size=InverseSqrtStep(0.5)) == \
            context(step_size=InverseSqrtStep(0.5))
        assert len(service._trial_contexts) == entries


# ----------------------------------------------------------------------
# freeze walks dataclass fields; the asdict-based freeze it replaced is
# kept here as the oracle: every persisted fingerprint was digested by it.
# ----------------------------------------------------------------------
def reference_fingerprint(stats, training, spec, **extra):
    """The workload digest as every commit before the constant-parts
    memo computed it: one ``repr`` of the whole frozen payload."""
    payload = (
        freeze(stats),
        freeze(training),
        freeze(spec),
        tuple(sorted((k, freeze(v)) for k, v in extra.items())),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


SIGNED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, 0.5, 1.0, 2.5e-7, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
POSITIVE = st.floats(min_value=1e-12, max_value=1e6)
STEPS = st.one_of(
    POSITIVE,
    st.integers(1, 4),
    st.just(True),
    # a schedule object: memo_key cannot key it, so the full path runs
    st.builds(InverseSqrtStep, POSITIVE),
)
TRAININGS = st.builds(
    TrainingSpec,
    task=st.sampled_from(["logreg", "svm", "linreg"]),
    step_size=STEPS,
    tolerance=POSITIVE,
    max_iter=st.integers(1, 10_000),
    l2=st.sampled_from([0.0, -0.0, 0.01, 1.5]),
    time_budget_s=st.one_of(st.none(), POSITIVE),
    seed=st.integers(0, 3),
)


class TestFingerprintPathIsTheReference:
    """The service renders only the training spec per request and keeps
    the text of the rest per value; the digest must stay the one-``repr``
    digest above, cold and with the constant parts memoised."""

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.builds(
            ClusterSpec, n_nodes=st.integers(1, 8),
            page_io_disk_s=SIGNED_FLOATS, network_byte_s=SIGNED_FLOATS,
            jitter_sigma=st.sampled_from([0.0, -0.0, 0.05])),
        speculation=st.builds(
            SpeculationSettings, sample_size=st.integers(10, 2000),
            speculation_tolerance=SIGNED_FLOATS),
        first=TRAININGS,
        second=TRAININGS,
        fixed=st.one_of(st.none(), st.integers(1, 500)),
        algorithms=st.sampled_from([None, ("sgd",), ("bgd", "mgd")]),
    )
    def test_new_requests_digest_as_the_reference(
        self, spec, speculation, first, second, fixed, algorithms
    ):
        service = OptimizerService(spec=spec, speculation=speculation,
                                   seed=7)
        dataset = tiny_dataset(0, spec)
        extra = dict(
            data_digest=None if fixed is not None
            else dataset.content_digest(),
            representation=dataset.representation,
            algorithms=algorithms or service.algorithms,
            batch_sizes=service.batch_sizes, fixed_iterations=fixed,
            speculation=speculation, seed=7,
        )

        def key(training):
            return service.fingerprint(dataset, training, fixed, algorithms)

        first_key = key(first)
        assert first_key == reference_fingerprint(
            dataset.stats, first, spec, **extra)
        # The constant parts now come from the memo.
        same_slot = (memo_key(second) is not None
                     and memo_key(second) == memo_key(first))
        assert key(second) == (
            first_key if same_slot  # e.g. l2 0.0 then -0.0: one workload
            else reference_fingerprint(dataset.stats, second, spec, **extra))

    def test_workload_fingerprint_without_parts_is_the_reference(self):
        stats = DatasetStats(name="tiny", task="logreg", n=40, d=3)
        training = TrainingSpec(task="logreg", step_size=InverseSqrtStep(2))
        spec = ClusterSpec(jitter_sigma=-0.0)
        assert workload_fingerprint(stats, training, spec, seed=1, a=None) \
            == reference_fingerprint(stats, training, spec, seed=1, a=None)


def asdict_freeze(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.asdict(value)
        return (
            type(value).__name__,
            tuple(sorted((k, asdict_freeze(v)) for k, v in fields.items())),
        )
    if isinstance(value, dict):
        return tuple(sorted((str(k), asdict_freeze(v))
                            for k, v in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        items = tuple(asdict_freeze(v) for v in value)
        return tuple(sorted(items, key=repr)) if isinstance(
            value, (set, frozenset)
        ) else items
    if callable(value) and hasattr(value, "__qualname__"):
        return (getattr(value, "__module__", ""), value.__qualname__)
    state = getattr(value, "__dict__", None)
    if state is not None and type(value).__repr__ is object.__repr__:
        return (
            type(value).__name__,
            tuple(sorted((k, asdict_freeze(v)) for k, v in state.items())),
        )
    return repr(value)


def asdict_trial_context_digest(data_digest, gradient, step_size,
                                convergence, seed, speculation) -> str:
    settings = dataclasses.asdict(speculation)
    del settings["model"]
    payload = (data_digest, asdict_freeze(gradient),
               asdict_freeze(step_size), convergence, seed,
               asdict_freeze(settings))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@dataclasses.dataclass
class Box:
    first: object
    second: object = None


@dataclasses.dataclass(frozen=True)
class Frozen:
    value: object


class Holder:
    """A plain object: asdict copied it whole, dataclasses inside too."""

    def __init__(self, inner):
        self.inner = inner


SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False) | st.text(max_size=4))
HASHABLE = SCALARS | st.builds(Frozen, SCALARS)
SCHEDULES = st.one_of(
    st.builds(step_size.ConstantStep, st.floats(0.01, 10)),
    st.builds(step_size.InverseSqrtStep, st.floats(0.01, 10)),
    st.builds(step_size.OffsetStep,
              st.builds(step_size.InverseStep, st.floats(0.01, 10)),
              st.integers(0, 100)),
)
VALUES = st.recursive(
    SCALARS | SCHEDULES | st.frozensets(HASHABLE, max_size=3),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        # The oracle merges (or fails to sort) keys that print alike,
        # so it is only consulted on dicts whose keys do not.
        st.dictionaries(st.text(max_size=3) | st.integers(), children,
                        max_size=3).filter(
            lambda d: len({str(k) for k in d}) == len(d)),
        st.sets(HASHABLE, max_size=3),
        st.builds(Box, children, children),
        st.builds(Frozen, children),
        st.builds(Holder, children),
    ),
    max_leaves=12,
)


class TestFreezeIsTheAsdictFreeze:
    @given(VALUES)
    @settings(max_examples=300, deadline=None)
    def test_any_value(self, value):
        assert freeze(value) == asdict_freeze(value)
        assert freeze(Box(value, [Box(value)])) == \
            asdict_freeze(Box(value, [Box(value)]))

    @given(st.builds(SpeculationSettings,
                     sample_size=st.integers(1, 5000),
                     speculation_tolerance=st.floats(1e-6, 1.0),
                     time_budget_s=st.floats(0.01, 10.0),
                     model=st.sampled_from(("power", "inverse"))),
           VALUES)
    @settings(max_examples=100, deadline=None)
    def test_trial_context_digest(self, speculation, step):
        args = ("digest", task_gradient("logreg", l2=0.1), step, "l1", 7,
                speculation)
        assert trial_context_digest(*args) == \
            asdict_trial_context_digest(*args)

    def test_keys_that_print_alike_keep_their_values_apart(self):
        assert freeze({'0': [], 0: None}) == \
            (('0', 'int', None), ('0', 'str', ()))
        assert freeze({'0': 1, 0: 2}) != freeze({'0': 2, 0: 1})
        assert freeze({'0': 1, 0: 2, 'a': 3}) == \
            (('0', 'int', 2), ('0', 'str', 1), ('a', 3))
        # Only the clashing keys change shape.
        assert freeze({'0': 1, 1: 2}) == asdict_freeze({'0': 1, 1: 2})

    def test_the_services_own_dataclasses(self, system):
        (r,) = system._normalize_requests([{"dataset": "adult"}], {})
        service = system.service()
        for value in (r.dataset.stats, r.training, service.spec,
                      service.speculation):
            assert freeze(value) == asdict_freeze(value)


if __name__ == "__main__":
    import json

    live = ML4all(seed=7)
    print(json.dumps({
        f"{d}/{v}": fingerprint(live, {"dataset": d, **extra})
        for d in DATASETS for v, extra in VARIANTS.items()
    }, indent=1))
