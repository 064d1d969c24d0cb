"""The federation engine's execution knobs: declared once, validated once.

:class:`EngineConfig` declares every knob that shapes *how* federated rounds
execute: name, default and — as field metadata — CLI help, allowed values,
flag name and the environment variable the experiment runner reads.
``FederatedConfig``, ``AdaFGLConfig`` and ``ExperimentSettings`` inherit it,
the CLI flags are generated from it, :func:`engine_fields` is the one
expansion that carries the knobs into a backend factory and :func:`project`
the one copy from a config of the chain into a class further up it, so a new
knob is one field here.  :meth:`EngineConfig.validate` checks value domains;
:data:`COMPOSITION_RULES` is the one ordered table of knob combinations the
engine refuses (:func:`check_composition`).
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from types import SimpleNamespace
from typing import (TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple,
                    Union)

from repro.federated.engine.aggregation import AggregationStrategy
from repro.federated.engine.faults import NETWORK_KINDS
from repro.federated.engine.transport import TRANSPORTS

if TYPE_CHECKING:
    from repro.federated.engine.backends import ExecutionBackend


def _backend_names():
    # Imported on use: the backends module itself imports this one.
    from repro.federated.engine.backends import list_backends

    return list_backends()


def _knob(default, help: str, *, choices=None, flag: Optional[str] = "",
          env: Optional[str] = None, parse: Optional[Callable] = None):
    # ``help``: the CLI help text.  ``choices``: a tuple of allowed values,
    # or a callable listing an open registry.  ``flag``: overrides the
    # generated ``--knob-name``; None for a structured knob without a flag.
    # ``env``: the variable that replaces the default in ExperimentSettings.
    # ``parse``: the flag's argument type where the default's does not tell.
    return field(default=default, metadata={
        "help": help, "choices": choices, "flag": flag, "env": env,
        "parse": parse})


def env_default(default, env: str):
    """A training field (no flag generated) ``ExperimentSettings`` reads the
    default of from the variable ``env``."""
    return field(default=default, metadata={"env": env})


@dataclass(kw_only=True)
class EngineConfig:
    """Every execution knob of the federation engine.

    Each field's ``help`` metadata is its documentation (it is also the CLI
    help); the README's "The federation engine" section has the knob table
    and the long-form description of round modes, codecs, transports and
    fault tolerance.  ``backend`` accepts a registry name or a ready-made
    instance.  ``worker_speeds``, ``transport_options`` and
    ``fault_plan`` are structured and therefore library-only (no flag).
    """

    backend: Union[str, "ExecutionBackend", None] = _knob(
        None, "execution backend for federated local training",
        choices=_backend_names)
    num_workers: int = _knob(
        0, "process-pool width (backend=process_pool and AdaFGL Step-2)",
        flag="--workers", env="REPRO_WORKERS")
    intra_worker: str = _knob(
        "auto", "how a persistent pool worker trains its resident client "
        "shard (auto fuses it through the batched engine when possible)",
        choices=("auto", "serial"))
    round_mode: str = _knob(
        "sync", "process-pool round discipline: sync pipelined rounds "
        "(exact) or bounded-staleness async rounds", choices=("sync", "async"))
    hierarchical: bool = _knob(
        False, "process-pool workers act as edge aggregators: one "
        "pre-aggregated fixed-point partial per shard per round instead of "
        "per-client uploads (sync rounds, bitwise-equal to flat FedAvg)")
    async_buffer: int = _knob(1, "async mode: shard reports per server seal")
    staleness_cap: int = _knob(
        3, "async mode: drop reports older than this many server rounds")
    delta_codec: str = _knob(
        "bitdelta", "persistent-pool upload transport: lossless bit deltas, "
        "lossy top-k sparsified deltas, or top-k plus uniform quantisation "
        "(qtopk)", choices=("bitdelta", "topk", "qtopk"))
    delta_top_k: int = _knob(
        32, "delta entries kept per parameter with --delta-codec topk/qtopk")
    delta_bits: int = _knob(
        8, "bits per transported delta value with --delta-codec qtopk")
    worker_speeds: Optional[Sequence[float]] = _knob(
        None, "simulated relative speed of each pool worker, cycled over the "
        "pool (straggler experiments, deterministic async runs)", flag=None)
    transport: str = _knob(
        "pipe", "coordinator-worker channel of the process pool: pipe "
        "(in-host, the parity reference) or tcp framed sockets with CRC, "
        "heartbeats and reconnect (default: REPRO_TRANSPORT or pipe)",
        choices=TRANSPORTS, env="REPRO_TRANSPORT")
    transport_options: Optional[Dict] = _knob(
        None, "keyword options of the transport factory (TCP knobs such as "
        "heartbeat_timeout, mode=\"external\", or a wan link spec)",
        flag=None)
    on_worker_failure: str = _knob(
        "fail", "process-pool crash policy: abort the run, respawn the dead "
        "worker in place, or spread its clients over the survivors",
        choices=("fail", "restart", "redistribute"))
    round_timeout: Optional[float] = _knob(
        None, "seconds before a round drops its late shards (the aggregate "
        "reweights over the reporters)", parse=float)
    checkpoint_every: int = _knob(
        0, "write a resumable checkpoint every N rounds (0 disables; sync "
        "rounds only)")
    checkpoint_dir: str = _knob(
        "checkpoints", "directory for checkpoint files (default: "
        "checkpoints/)")
    resume_from: Optional[str] = _knob(
        None, "checkpoint file to restore before training (resumes the "
        "interrupted run bitwise on the serial/sync paths)")
    fault_plan: Optional[object] = _knob(
        None, "seeded FaultPlan injected at the worker-loop and transport "
        "seams (chaos testing)", flag=None)

    def execution_backend(self) -> Union[str, "ExecutionBackend"]:
        """``backend``, with the unset default resolved.

        ``None`` auto-selects the process pool when ``num_workers > 1`` —
        AdaFGL's Step 2 trains on that pool, so Step 1 shares it — and the
        serial reference otherwise; an explicit name (``"serial"``
        included) or instance is returned as is.
        """
        if self.backend is not None:
            return self.backend
        return "process_pool" if self.num_workers > 1 else "serial"

    def validate(self) -> "EngineConfig":
        """Check the worker-pool knobs' value domains; returns ``self``.

        Run by :class:`~repro.federated.engine.ProcessPoolBackend` when it
        is built (directly or by a trainer).  ``round_mode`` and the async
        knobs are refused when a run starts instead
        (:data:`COMPOSITION_RULES`): they matter to the round loop, not to
        the pool.
        """
        for name in ("intra_worker", "delta_codec", "on_worker_failure",
                     "transport"):
            choices = _KNOBS[name].metadata["choices"]
            if getattr(self, name) not in choices:
                raise ValueError(
                    f"{name} must be one of {', '.join(choices)}, "
                    f"got {getattr(self, name)!r}")
        if self.delta_codec in ("topk", "qtopk") and self.delta_top_k < 1:
            raise ValueError("delta_top_k must be >= 1")
        if self.delta_codec == "qtopk" \
                and not 2 <= int(self.delta_bits) <= 32:
            raise ValueError("delta_bits must be in [2, 32]")
        if self.worker_speeds is not None:
            speeds = [float(speed) for speed in self.worker_speeds]
            if not speeds or any(speed <= 0 for speed in speeds):
                raise ValueError("worker_speeds must be positive floats")
        if self.round_timeout is not None and self.round_timeout <= 0:
            raise ValueError("round_timeout must be positive (or None)")
        check_composition(self)
        return self


_KNOBS: Dict[str, Field] = {knob.name: knob for knob in fields(EngineConfig)}


def engine_fields(config: EngineConfig) -> Dict[str, object]:
    """The engine knobs of ``config`` as keyword arguments (shallow)."""
    return {name: getattr(config, name) for name in _KNOBS}


def project(cls, source):
    """``source`` narrowed to ``cls``, a config class it inherits from: every
    field of ``cls`` copied by name (shallow)."""
    return cls(**{knob.name: getattr(source, knob.name)
                  for knob in fields(cls)})


def cli_flag(knob: Field) -> Optional[str]:
    """The knob's command-line flag (``None`` for structured knobs)."""
    flag = knob.metadata["flag"]
    return "--" + knob.name.replace("_", "-") if flag == "" else flag


# ----------------------------------------------------------------------
# What composes with what
# ----------------------------------------------------------------------
#: the barrier-round hooks a trainer may override; overriding one keeps the
#: sync loop at depth 0 (no overlap), and the async loop refuses it
ROUND_HOOKS = ("before_round", "after_round", "aggregate")


def overrides_hooks(trainer, hooks: Sequence[str] = ROUND_HOOKS) -> bool:
    """True when the trainer overrides or monkeypatches one of ``hooks``."""
    from repro.federated.trainer import FederatedTrainer

    return any(
        name in trainer.__dict__  # instance-level monkeypatch (tests do this)
        or getattr(type(trainer), name) is not getattr(FederatedTrainer, name)
        for name in hooks)


def _overrides(strategy, method: str) -> bool:
    return getattr(type(strategy), method) \
        is not getattr(AggregationStrategy, method)


def _network_kinds(config) -> list:
    """Network fault kinds scheduled on a transport with no wire."""
    if config.fault_plan is None or config.transport == "tcp":
        return []
    return sorted(set(config.fault_plan.scheduled_kinds())
                  & set(NETWORK_KINDS))


#: the knobs a client-store round (``StoreFederatedTrainer``) would have to
#: ignore: it runs one fixed discipline, so they must stay at their defaults
_STORE_FIXES = ("round_mode", "delta_codec", "worker_speeds",
                "on_worker_failure", "round_timeout", "checkpoint_every",
                "resume_from", "fault_plan")

#: Ordered rows ``(needs, broken, message)``, one per refused combination.
#: ``needs`` is the context the row is checked with: ``"config"`` wherever a
#: config is validated, ``"backend"`` once the trainer has built its backend,
#: ``"store"`` when the config drives rounds over a client store, ``"run"``
#: when a run starts (these read the strategy, the trainer's hooks
#: or its clients, all of which a subclass may still replace after
#: construction) and ``"async"`` when a ``round_mode="async"`` run starts.
#: ``broken(c)`` is truthy when ``c.config`` / ``c.backend`` / ``c.strategy``
#: / ``c.trainer`` is refused; ``message`` is formatted with ``c`` and
#: ``hit``, the value ``broken`` returned.
COMPOSITION_RULES: Tuple[Tuple[str, Callable, str], ...] = (
    # make_backend filters keywords by signature, so a backend that cannot
    # edge-aggregate would silently ignore the flag — fail loudly instead.
    ("backend", lambda c: c.config.hierarchical
     and not getattr(c.backend, "hierarchical", False),
     "hierarchical=True requires the process_pool backend "
     "(got '{c.backend.name}')"),
    ("config", lambda c: c.config.hierarchical
     and c.config.delta_codec != "bitdelta",
     "hierarchical=True requires delta_codec='bitdelta': lossy codecs cannot "
     "carry the exact fixed-point edge aggregates "
     "(got {c.config.delta_codec!r})"),
    ("config", lambda c: _network_kinds(c.config),
     "fault plan schedules network events {hit} but "
     "transport={c.config.transport!r} has no wire to disturb; network fault "
     "kinds require transport='tcp'"),
    # A bare EngineConfig (a directly built pool backend) samples nobody.
    ("config", lambda c: not 0.0 < getattr(c.config, "participation", 1.0)
     <= 1.0, "participation must be in (0, 1]"),
    ("store", lambda c: ", ".join(
        f"{name}={getattr(c.config, name)!r}" for name in _STORE_FIXES
        if getattr(c.config, name) != _KNOBS[name].default),
     "a client-store round is synchronous hierarchical FedAvg over lossless "
     "partials; it cannot serve {hit}"),
    ("run", lambda c: c.config.round_mode not in ("sync", "async"),
     "round_mode must be 'sync' or 'async', got {c.config.round_mode!r}"),
    ("async", lambda c: c.config.hierarchical,
     "hierarchical=True requires round_mode='sync' (async seals merge "
     "per-report, not per-shard partials)"),
    ("async", lambda c: not getattr(c.backend, "supports_pipelining", False),
     "round_mode='async' requires the process_pool backend "
     "(got '{c.backend.name}')"),
    ("run", lambda c: c.config.hierarchical and overrides_hooks(c.trainer),
     "hierarchical=True does not support trainers overriding the "
     "barrier-round hooks (edge aggregators never ship per-client states "
     "up)"),
    ("run", lambda c: c.config.hierarchical
     and not _overrides(c.strategy, "begin_stream"),
     "hierarchical=True requires a streaming-capable aggregation "
     "(got '{c.strategy.name}', which gathers every state)"),
    ("async", lambda c: c.config.async_buffer < 1,
     "async_buffer must be >= 1"),
    ("async", lambda c: c.config.staleness_cap < 0,
     "staleness_cap must be >= 0"),
    # A seal is not a barrier: worker-side state is mid-shard at any
    # checkpointable moment, so a resumed async run could not reproduce the
    # interrupted one.  Refuse instead of writing checkpoints that silently
    # do not round-trip.
    ("async", lambda c: c.config.checkpoint_every or c.config.resume_from,
     "round_mode='async' does not support checkpoint/resume; "
     "use round_mode='sync'"),
    # The async loop re-dispatches each shard with the raw sealed global
    # model and never runs the barrier-round hooks — both assume a
    # synchronous round.  Refuse loudly instead of silently degenerating personalized
    # methods (FED-PUB, GCFL+) or hook-overriding trainers to plain async
    # FedAvg.
    ("async", lambda c: _overrides(c.strategy, "personalize"),
     "round_mode='async' does not support personalized aggregation "
     "('{c.strategy.name}' overrides personalize); use round_mode='sync'"),
    ("async", lambda c: overrides_hooks(c.trainer,
                                        ROUND_HOOKS + ("personalize",)),
     "round_mode='async' does not support trainers overriding the "
     "barrier-round hooks; use round_mode='sync'"),
    ("async", lambda c: len(c.trainer.clients) < 2,
     "round_mode='async' needs at least two clients"),
    ("async", lambda c: any(client.extra_loss is not None
                            for client in c.trainer.clients),
     "round_mode='async' requires every client to be picklable (no "
     "coordinator-resident extra_loss hooks)"),
)


def check_composition(config: EngineConfig, backend=None, strategy=None,
                      trainer=None, store=None) -> None:
    """Refuse a knob combination the engine cannot run.

    Raises ``ValueError`` with the message of the first broken row of
    :data:`COMPOSITION_RULES`.  Called with growing context: by
    :meth:`EngineConfig.validate` (config alone), by the store trainer with
    its ``store``, by the trainer once its backend is built, and with
    everything at the top of
    :meth:`~repro.federated.FederatedTrainer.run` — before a worker pool
    exists, so a refused run never spawns a process.
    """
    known = {"config"}
    if backend is not None:
        known.add("backend")
    if store is not None:
        known.add("store")
    if trainer is not None:
        known.add("run")
        if config.round_mode == "async":
            known.add("async")
    c = SimpleNamespace(config=config, backend=backend, strategy=strategy,
                        trainer=trainer)
    for needs, broken, message in COMPOSITION_RULES:
        hit = needs in known and broken(c)
        if hit:
            raise ValueError(message.format(c=c, hit=hit))
