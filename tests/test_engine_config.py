"""The one engine config: knob declaration, composition table, CLI round trip.

* every row of :data:`COMPOSITION_RULES` is violated by a minimal scenario
  and answers with exactly its message, before a worker pool is spawned;
* every cell of the execution matrix either is refused by the table or
  runs — lossless sync cells bitwise-equal to serial, the rest finite;
* every knob survives the trip CLI flag → ``ExperimentSettings`` →
  ``FederatedConfig`` (directly and through ``AdaFGLConfig``), which is
  what the three hand-copied configs used to be trusted for;
* the training half the same way: the chain ``EngineConfig`` ←
  ``FederatedConfig`` ← ``AdaFGLConfig`` ← ``ExperimentSettings`` declares
  every field in one class body, every field reaches the trainer, and the
  defaults are the ones the hand-copied classes had.
"""

import dataclasses
import itertools
import tempfile

import numpy as np
import pytest

from repro import cli
from repro.core import AdaFGLConfig
from repro.experiments import ExperimentSettings
from repro.federated import FederatedConfig
from repro.federated.engine import (
    ClientStore,
    EngineConfig,
    FaultEvent,
    FaultPlan,
    FedAvgAggregation,
    ModelSpec,
    StoreFederatedTrainer,
    backends,
    check_composition,
    engine_fields,
)
from repro.federated.engine.config import COMPOSITION_RULES, cli_flag
from repro.fgl.fedgnn import FederatedGNN
from repro.fgl.fedpub import FedPubAggregation
from repro.simulation import community_split

KNOBS = dataclasses.fields(EngineConfig)
CHAIN = (EngineConfig, FederatedConfig, AdaFGLConfig, ExperimentSettings)

#: every field → default of the chain's classes, captured at the commit
#: before the classes became one chain (ExperimentSettings: the fields it
#: had; the rest it now inherits)
ENGINE_DEFAULTS = dict(
    backend=None, num_workers=0,
    intra_worker="auto", round_mode="sync", hierarchical=False,
    async_buffer=1, staleness_cap=3, delta_codec="bitdelta", delta_top_k=32,
    delta_bits=8, worker_speeds=None, transport="pipe",
    transport_options=None, on_worker_failure="fail", round_timeout=None,
    checkpoint_every=0, checkpoint_dir="checkpoints", resume_from=None,
    fault_plan=None)
TRAINING_DEFAULTS = dict(
    rounds=20, local_epochs=3, lr=0.01, weight_decay=5e-4, participation=1.0,
    seed=0, eval_every=1)
ADAFGL_DEFAULTS = dict(
    hidden=64, extractor_model="gcn", personalized_epochs=30,
    personalized_lr=0.01, alpha=0.7, beta=0.7, k_prop=3, message_layers=2,
    dropout=0.3, knowledge_weight=0.1, sparse_propagation=False,
    propagation_top_k="auto", use_propagation_cache=True, lp_steps=5,
    lp_kappa=0.5, mask_probability=0.5, use_knowledge_preserving=True,
    use_topology_independent=True, use_learnable_message=True,
    use_local_topology=True, use_hcs=True)
SETTINGS_DEFAULTS = dict(num_clients=5, hidden=32, personalized_epochs=60,
                         sparse_propagation=True)
#: a non-default value for each of the seven training fields
TRAINING = dict(rounds=2, local_epochs=1, lr=0.02, weight_decay=0.0,
                participation=0.75, seed=3, eval_every=2)


@pytest.fixture(scope="module")
def four_clients(homophilous_graph):
    return community_split(homophilous_graph, 4, seed=0)


def _config(**kwargs):
    defaults = dict(rounds=2, local_epochs=1, lr=0.02, seed=0,
                    backend="process_pool", num_workers=2,
                    intra_worker="serial")
    defaults.update(kwargs)
    return FederatedConfig(**defaults)


# ----------------------------------------------------------------------
# Declaration
# ----------------------------------------------------------------------
class TestDeclaration:
    def test_nineteen_knobs_each_declared_once(self):
        assert len(KNOBS) == 19
        for config_class in (FederatedConfig, AdaFGLConfig,
                             ExperimentSettings):
            assert issubclass(config_class, EngineConfig)
            own = set(config_class.__annotations__)
            assert not own & {knob.name for knob in KNOBS}

    def test_every_field_is_declared_in_one_class_body(self):
        assert [cls.__mro__[1] for cls in CHAIN[1:]] == list(CHAIN[:-1])
        redefaulted = set()
        for parent, cls in zip(CHAIN, CHAIN[1:]):
            inherited = {f.name: f.default for f in dataclasses.fields(parent)}
            own = {f.name: f.default for f in dataclasses.fields(cls)}
            for name in vars(cls)["__annotations__"]:
                if name in inherited:
                    assert own[name] != inherited[name], (cls, name)
                    redefaulted.add((cls, name))
        assert redefaulted == {(ExperimentSettings, name) for name in (
            "hidden", "personalized_epochs", "sparse_propagation")}
        assert set(vars(FederatedConfig)["__annotations__"]) == set(TRAINING)

    def test_defaults_are_the_hand_copied_classes(self, monkeypatch):
        for knob in dataclasses.fields(ExperimentSettings):
            if knob.metadata.get("env"):
                monkeypatch.delenv(knob.metadata["env"], raising=False)
        assert vars(EngineConfig()) == ENGINE_DEFAULTS
        assert vars(FederatedConfig()) == {**ENGINE_DEFAULTS,
                                           **TRAINING_DEFAULTS}
        assert vars(AdaFGLConfig()) == {
            **ENGINE_DEFAULTS, **TRAINING_DEFAULTS, **ADAFGL_DEFAULTS}
        settings = ExperimentSettings()
        assert vars(settings) == {
            **ENGINE_DEFAULTS, **TRAINING_DEFAULTS, **ADAFGL_DEFAULTS,
            **SETTINGS_DEFAULTS}
        # What the two converters handed the trainers at the parent.
        assert settings.federated_config() == FederatedConfig()
        assert settings.adafgl_config() == AdaFGLConfig(
            hidden=32, personalized_epochs=60, sparse_propagation=True)

    def test_scale_variables_replace_the_declaring_fields_defaults(
            self, monkeypatch):
        for env, value in [("REPRO_ROUNDS", "7"), ("REPRO_EPOCHS", "2"),
                           ("REPRO_CLIENTS", "9"),
                           ("REPRO_PERSONALIZED_EPOCHS", "not-a-number")]:
            monkeypatch.setenv(env, value)
        settings = ExperimentSettings(local_epochs=4)
        assert (settings.rounds, settings.local_epochs, settings.num_clients,
                settings.personalized_epochs) == (7, 4, 9, 60)
        assert settings.federated_config().rounds == 7
        assert (FederatedConfig().rounds, AdaFGLConfig().rounds) == (20, 20)

    def test_unset_backend_follows_the_worker_count(self):
        assert EngineConfig().execution_backend() == "serial"
        assert EngineConfig(num_workers=2).execution_backend() \
            == "process_pool"
        assert EngineConfig(num_workers=2, backend="serial") \
            .execution_backend() == "serial"

    def test_env_replaces_runner_defaults_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_TRANSPORT", "tcp")
        settings = ExperimentSettings()
        assert (settings.num_workers, settings.transport) == (3, "tcp")
        explicit = ExperimentSettings(num_workers=0, transport="pipe")
        assert (explicit.num_workers, explicit.transport) == (0, "pipe")
        library = FederatedConfig()
        assert (library.num_workers, library.transport) == (0, "pipe")

    def test_validate_names_the_offending_knob(self):
        for knob, value in [("intra_worker", "quantum"),
                            ("delta_codec", "zip"),
                            ("on_worker_failure", "shrug"),
                            ("transport", "smoke-signal")]:
            with pytest.raises(ValueError, match=knob):
                EngineConfig(**{knob: value}).validate()
        for kwargs, knob in [
                (dict(delta_codec="topk", delta_top_k=0), "delta_top_k"),
                (dict(delta_codec="qtopk", delta_bits=1), "delta_bits"),
                (dict(worker_speeds=[0.0]), "worker_speeds"),
                (dict(round_timeout=0.0), "round_timeout")]:
            with pytest.raises(ValueError, match=knob):
                EngineConfig(**kwargs).validate()


# ----------------------------------------------------------------------
# Composition table: one scenario per row, in table order
# ----------------------------------------------------------------------
class _Personal(FedAvgAggregation):
    name = "personal"

    def personalize(self, client, global_state, context=None):
        return global_state


def _hook(trainer):
    trainer.after_round = lambda round_index, participants: None


def _extra_loss(trainer):
    trainer.clients[0].extra_loss = lambda client, logits: None


def _strategy(factory):
    """A tweak that declares ``factory()`` as the trainer's strategy, the
    way FED-PUB and GCFL+ do after ``super().__init__``."""
    def declare(trainer):
        trainer.strategy = factory()
    return declare


def _store_round(trainer):
    """Hand the trainer's config to a store trainer over the same clients."""
    with tempfile.TemporaryDirectory() as path:
        store = ClientStore.create(
            path, (client.graph for client in trainer.clients),
            ModelSpec(hidden=16))
        StoreFederatedTrainer(store, trainer.config)


ASYNC = dict(round_mode="async")

#: (config overrides, trainer tweak or None, client count, exact message)
SCENARIOS = [
    (dict(backend="serial", hierarchical=True), None, 4,
     "hierarchical=True requires the process_pool backend (got 'serial')"),
    (dict(hierarchical=True, delta_codec="topk"), None, 4,
     "hierarchical=True requires delta_codec='bitdelta': lossy codecs "
     "cannot carry the exact fixed-point edge aggregates (got 'topk')"),
    (dict(fault_plan=FaultPlan([FaultEvent(0, 1, "delay", duration=0.1)])),
     None, 4,
     "fault plan schedules network events ['delay'] but transport='pipe' "
     "has no wire to disturb; network fault kinds require transport='tcp'"),
    (dict(backend="serial", participation=1.5), None, 4,
     "participation must be in (0, 1]"),
    (dict(ASYNC, delta_codec="topk"), _store_round, 4,
     "a client-store round is synchronous hierarchical FedAvg over lossless "
     "partials; it cannot serve round_mode='async', delta_codec='topk'"),
    (dict(backend="serial", round_mode="chaotic"), None, 4,
     "round_mode must be 'sync' or 'async', got 'chaotic'"),
    (dict(ASYNC, hierarchical=True), None, 4,
     "hierarchical=True requires round_mode='sync' (async seals merge "
     "per-report, not per-shard partials)"),
    (dict(ASYNC, backend="serial"), None, 4,
     "round_mode='async' requires the process_pool backend (got 'serial')"),
    (dict(hierarchical=True), _hook, 4,
     "hierarchical=True does not support trainers overriding the "
     "barrier-round hooks (edge aggregators never ship per-client states "
     "up)"),
    (dict(hierarchical=True), _strategy(FedPubAggregation), 4,
     "hierarchical=True requires a streaming-capable aggregation "
     "(got 'fed-pub', which gathers every state)"),
    (dict(ASYNC, async_buffer=0), None, 4, "async_buffer must be >= 1"),
    (dict(ASYNC, staleness_cap=-1), None, 4, "staleness_cap must be >= 0"),
    (dict(ASYNC, checkpoint_every=1), None, 4,
     "round_mode='async' does not support checkpoint/resume; "
     "use round_mode='sync'"),
    (dict(ASYNC), _strategy(_Personal), 4,
     "round_mode='async' does not support personalized aggregation "
     "('personal' overrides personalize); use round_mode='sync'"),
    (dict(ASYNC), _hook, 4,
     "round_mode='async' does not support trainers overriding the "
     "barrier-round hooks; use round_mode='sync'"),
    (dict(ASYNC), None, 1, "round_mode='async' needs at least two clients"),
    (dict(ASYNC), _extra_loss, 4,
     "round_mode='async' requires every client to be picklable (no "
     "coordinator-resident extra_loss hooks)"),
]


class TestCompositionTable:
    def test_one_scenario_per_row(self):
        assert len(SCENARIOS) == len(COMPOSITION_RULES)
        for (_, _, _, expected), (_, _, message) in zip(SCENARIOS,
                                                        COMPOSITION_RULES):
            assert expected.startswith(message.split("{")[0])

    @pytest.mark.parametrize("row", range(len(SCENARIOS)))
    def test_row_refuses_before_any_worker_exists(self, row, four_clients,
                                                  monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was spawned")

        monkeypatch.setattr(backends, "PersistentWorkerPool", no_pool)
        overrides, tweak, count, expected = SCENARIOS[row]
        built = []
        with pytest.raises(ValueError) as refusal:
            trainer = FederatedGNN(four_clients[:count], "gcn", hidden=16,
                                   config=_config(**overrides))
            built.append(trainer)
            if tweak is not None:
                tweak(trainer)
            trainer.run()
        assert str(refusal.value) == expected
        for trainer in built:
            assert getattr(trainer.backend, "_pool", None) is None

    def test_rows_are_checked_with_the_context_they_need(self):
        hierarchical_topk = EngineConfig(hierarchical=True,
                                         delta_codec="topk")
        with pytest.raises(ValueError, match="bitdelta"):
            check_composition(hierarchical_topk)
        # A run-level row is not evaluated from a config alone.
        check_composition(EngineConfig(round_mode="chaotic"))


# ----------------------------------------------------------------------
# Execution matrix: refused by the table, or runs
# ----------------------------------------------------------------------
def _matrix():
    cells = list(itertools.product(
        ("serial", "batched", "process_pool"), ("sync", "async"),
        (False, True), ("bitdelta", "topk", "qtopk"), ("pipe",)))
    cells += [("process_pool", "sync", hierarchical, "bitdelta", "tcp")
              for hierarchical in (False, True)]
    return cells


def _supported(backend, round_mode, hierarchical, codec, transport):
    if backend != "process_pool":
        return round_mode == "sync" and not hierarchical
    if hierarchical:
        return round_mode == "sync" and codec == "bitdelta"
    return True


@pytest.fixture(scope="module")
def serial_history(four_clients):
    trainer = FederatedGNN(four_clients, "gcn", hidden=16,
                           config=_config(backend="serial", num_workers=0))
    return trainer.run()


@pytest.mark.parametrize("cell", _matrix(), ids=lambda cell: "-".join(
    str(part) for part in cell))
def test_every_cell_runs_or_is_refused(cell, four_clients, serial_history):
    backend, round_mode, hierarchical, codec, transport = cell
    workers = 2 if backend == "process_pool" else 0

    def run():
        trainer = FederatedGNN(four_clients, "gcn", hidden=16, config=_config(
            backend=backend, num_workers=workers, round_mode=round_mode,
            hierarchical=hierarchical, delta_codec=codec,
            transport=transport))
        return trainer.run()

    if not _supported(*cell):
        with pytest.raises(ValueError):
            run()
        return
    history = run()
    assert history.rounds == [1, 2]
    assert np.all(np.isfinite(history.loss))
    if round_mode == "sync" and codec == "bitdelta":
        np.testing.assert_array_equal(history.loss, serial_history.loss)
        assert history.test_accuracy == serial_history.test_accuracy
        assert history.train_accuracy == serial_history.train_accuracy


# ----------------------------------------------------------------------
# CLI round trip
# ----------------------------------------------------------------------
def _non_default(knob):
    choices = knob.metadata["choices"]
    if callable(choices):
        choices = choices()
    if choices:
        return next(choice for choice in choices if choice != knob.default)
    if isinstance(knob.default, bool):
        return True
    if isinstance(knob.default, int):
        return knob.default + 2
    return 2.5 if knob.metadata["parse"] is float else "somewhere/else"


class TestCliRoundTrip:
    def test_sixteen_scalar_knobs_have_flags(self):
        flagged = [knob.name for knob in KNOBS if cli_flag(knob)]
        assert len(flagged) == 16
        assert {knob.name for knob in KNOBS} - set(flagged) == {
            "worker_speeds", "transport_options", "fault_plan"}

    @pytest.mark.parametrize(
        "knob", [knob for knob in KNOBS if cli_flag(knob)],
        ids=lambda knob: knob.name)
    def test_flag_reaches_both_federated_configs(self, knob):
        value = _non_default(knob)
        argv = ["run", cli_flag(knob)]
        if not isinstance(knob.default, bool):
            argv.append(str(value))
        settings = cli._settings(cli.build_parser().parse_args(argv))
        assert getattr(settings, knob.name) == value
        assert getattr(settings.federated_config(), knob.name) == value
        assert getattr(settings.adafgl_config().federated_config(),
                       knob.name) == value

    def test_structured_knobs_survive_the_copies(self):
        structured = dict(worker_speeds=[1.0, 0.5],
                          transport_options={"mode": "process"},
                          fault_plan=FaultPlan([]))
        settings = ExperimentSettings(**structured)
        for config in (settings.federated_config(),
                       settings.adafgl_config().federated_config()):
            for name, value in structured.items():
                assert getattr(config, name) is value

    @pytest.mark.parametrize("config_class",
                             [AdaFGLConfig, ExperimentSettings])
    def test_every_federated_field_survives_the_projections(
            self, config_class):
        values = {knob.name: _non_default(knob) for knob in KNOBS}
        values.update(TRAINING)
        assert set(values) == {
            knob.name for knob in dataclasses.fields(FederatedConfig)}
        config = config_class(**values)
        copies = [config.federated_config()]
        if config_class is ExperimentSettings:
            copies += [config.adafgl_config(),
                       config.adafgl_config().federated_config()]
        for copy in copies:
            for name, value in values.items():
                assert getattr(copy, name) == value, name

    @pytest.mark.parametrize("method", ["fedgcn", "adafgl"])
    def test_training_fields_reach_the_trainer_run_method_builds(
            self, method, four_clients):
        from repro.experiments import run_method

        settings = ExperimentSettings(**TRAINING, personalized_epochs=2,
                                      hidden=8)
        trainer = run_method(method, four_clients, settings)["trainer"]
        if method == "adafgl":
            assert trainer.config == settings.adafgl_config()
            trainer = trainer.extractor.trainer
        for name, value in TRAINING.items():
            assert getattr(trainer.config, name) == value, name
        assert trainer.history.rounds == [2]

    def test_an_override_that_names_no_field_is_refused(self):
        settings = ExperimentSettings(weight_decay=0.0, eval_every=7)
        assert settings.adafgl_config(alpha=0.3).alpha == 0.3
        with pytest.raises(TypeError, match="weight_decy"):
            settings.adafgl_config(weight_decy=0.0)
        with pytest.raises(TypeError, match="weight_decy"):
            ExperimentSettings(weight_decy=0.0)

    def test_copies_carry_every_knob(self):
        settings = ExperimentSettings(num_workers=2, delta_codec="qtopk")
        assert engine_fields(settings.federated_config()) \
            == engine_fields(settings)
        assert engine_fields(settings.adafgl_config()) \
            == engine_fields(settings)


# ----------------------------------------------------------------------
# Docs guard
# ----------------------------------------------------------------------
class TestKnobDocsGuard:
    def _guard(self):
        import importlib.util
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "check_knob_docs", repo / "tools" / "check_knob_docs.py")
        guard = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(guard)
        return guard, (repo / "README.md").read_text()

    def test_readme_table_matches_the_fields(self):
        guard, readme = self._guard()
        assert guard.check(readme) == []

    def test_guard_catches_a_drifted_table(self):
        guard, readme = self._guard()
        drifted = readme.replace("| `--workers` |", "| `--num-workers` |") \
            .replace("| `delta_bits` | `8` |", "| `delta_bits` | `16` |")
        findings = guard.check(drifted)
        assert any("`num_workers`: flag" in finding for finding in findings)
        assert any("`delta_bits`: default" in finding for finding in findings)
        assert guard.check(readme.replace(guard.HEADER, "")) != []

    def test_chain_walk_counts_and_catches_a_second_declaration(self):
        guard, _ = self._guard()
        findings, declarations, redefaults, names = guard.check_chain()
        assert (findings, declarations, redefaults, names) == ([], 49, 3, 49)

        @dataclasses.dataclass
        class Forked(ExperimentSettings):
            lr: float = 0.01
            hidden: int = 16

        class Store:
            def __init__(self, store, config=None, *, rounds=10):
                pass

        findings, declarations, redefaults, names = guard.check_chain(
            Forked, outside=(Store,))
        assert findings == [
            "Forked.lr re-declares the field of FederatedConfig with an "
            "unchanged default",
            "Store(rounds=) re-declares an option of FederatedConfig"]
        assert (declarations, redefaults, names) == (49, 4, 48)
