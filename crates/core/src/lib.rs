//! Thermal-safe system-on-chip test scheduling guided by a test-session
//! thermal model — a from-scratch reproduction of *"Rapid Generation of
//! Thermal-Safe Test Schedules"* (Rosinger, Al-Hashimi, Chakrabarty,
//! DATE 2005).
//!
//! # What this crate does
//!
//! Testing an SoC core dissipates far more power than normal operation, and
//! classic power-constrained test scheduling only bounds the *total* power of
//! each test session. Because power density varies wildly across the die, two
//! sessions with identical total power can differ by tens of degrees in peak
//! temperature. This crate implements the paper's alternative:
//!
//! 1. a cheap, resistive **session thermal model** ([`SessionThermalModel`])
//!    derived from the floorplan, which scores a candidate session by how
//!    poorly its *active* cores can shed heat to their *passive* neighbours,
//! 2. the **thermal-aware scheduling algorithm**
//!    ([`ThermalAwareScheduler`], Algorithm 1 of the paper) that greedily
//!    fills sessions under a session-thermal-characteristic limit (`STCL`)
//!    and validates each candidate against a full thermal simulation before
//!    committing it, penalising violators through adaptive weights, and
//! 3. the **baselines and experiment drivers** needed to reproduce the
//!    paper's evaluation ([`PowerConstrainedScheduler`],
//!    [`SequentialScheduler`], [`experiments`], [`report`]).
//!
//! The thermal simulation itself lives in [`thermsched_thermal`], the
//! floorplan geometry in [`thermsched_floorplan`] and the system-under-test
//! description in [`thermsched_soc`]; this crate ties them together behind a
//! scheduler-facing API.
//!
//! # Quick start
//!
//! The [`Engine`] facade owns everything a scheduling session needs — the
//! backend (any [`thermsched_thermal::ThermalBackend`]; by default an
//! RC-compact simulator whose precomputed-operator fast path is selected
//! automatically wherever it is exact), the configuration, and a session
//! cache that stays warm across runs:
//!
//! ```
//! use thermsched::Engine;
//! use thermsched_soc::library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The 15-core Alpha-21364-like system the paper evaluates on, scheduled
//! // at the paper's mid-range operating point (TL = 165 C, STCL = 50).
//! let sut = library::alpha21364_sut();
//! let engine = Engine::builder().sut(&sut).build()?;
//!
//! let outcome = engine.schedule()?;
//! println!("schedule length: {} s", outcome.schedule_length());
//! println!("simulation effort: {} s", outcome.simulation_effort);
//! println!("hottest committed session: {:.1} C", outcome.max_temperature);
//! assert!(outcome.max_temperature < 165.0);
//!
//! // Sweeps are declarative; points reuse the engine's warm cache.
//! let report = engine.sweep(&thermsched::SweepSpec::grid(&[165.0], &[20.0, 100.0]))?;
//! assert_eq!(report.points().len(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! # Grid backend defaults
//!
//! A `GridThermalSimulator` defaults to its **full-fidelity transient path**
//! (`fidelity() == Transient`, `backend_name() == "grid-transient"`); the
//! steady-state upper-bound behaviour is one call away via
//! `.with_fidelity(SimulationFidelity::SteadyState)`.
//!
//! `TransientMethod::Adi` (Peaceman–Rachford alternating directions, `O(n)`
//! per step, for 96×96+ cell grids) sits next to the default `Auto` and
//! `ImplicitEuler`. Two consequences for exhaustive matches and capability
//! checks:
//!
//! * selecting it via `TransientConfig::with_method` makes the grid backend
//!   report `backend_name() == "grid-transient-adi"`;
//! * `uses_fast_path()` (and therefore `supports_fast_path()`) is `false`
//!   for ADI — its iterates are not provably monotone, so session maxima
//!   are tracked per step rather than read off the final state.
//!
//! # Scaling out
//!
//! For many scheduling runs over many systems, the `thermsched_service`
//! crate layers a batch service on top of the engine: a seeded scenario
//! corpus generator, a worker pool with per-worker engine reuse, and one
//! shared session store per scenario — a [`SessionCacheHandle`] whose shard
//! count the service configures ([`SessionCacheHandle::sharded`]; an
//! engine's own store has one shard).
//!
//! Beyond one process, the `thermsched_wire` crate defines the wire format
//! every public type here serialises to (`SchedulerConfig`, `TestSchedule`,
//! `CacheStats`, … all implement its `Wire` trait), and the service crate's
//! `MultiprocCoordinator` shards a corpus across real worker processes over
//! that format — with per-job results byte-identical at any process count.
//!
//! # Observability
//!
//! PR 9 threads the `thermsched_obs` crate through the stack. Inside this
//! crate, [`Engine`] (via `Engine::set_tracer` /
//! `EngineBuilder::with_tracer`) and [`ThermalAwareScheduler`] emit spans
//! around scheduling (`engine.schedule`, `scheduler.phase1`,
//! `scheduler.phase2`) and store traffic (`store.probe`, `store.publish`);
//! an engine built without a tracer pays nothing. The raw counter structs
//! ([`StoreStats`], [`OperatorCacheStats`], and the service crate's
//! `ServiceStats`) are unchanged and remain the exact source of truth —
//! the metrics registry is a *view* over them under stable dotted names.
//! Code that scraped counter fields can migrate to the registry as
//! follows:
//!
//! | counter field | metrics-registry name |
//! |---|---|
//! | `StoreStats::lookups` / `hits` / `insertions` / `contended_locks` | `store.lookups` / `store.hits` / `store.insertions` / `store.contended_locks` |
//! | `OperatorCacheStats::hits` / `misses` | `operator_cache.hits` / `operator_cache.misses` |
//! | `ServiceStats::job_count` | `service.jobs` |
//! | `ServiceStats::completed` / `failed` / `panicked` / `deadline_exceeded` / `shed` / `rejected` | `service.completed` / `service.failed` / `service.panicked` / `service.deadline_exceeded` / `service.shed` / `service.rejected` |
//! | `ServiceStats::retried_attempts` / `injected_faults` / `worker_crashes` | `service.retried_attempts` / `service.injected_faults` / `service.worker_crashes` |
//! | `ServiceStats::warm_cache_hits` / `cached_validations` / `prewarmed_sessions` | `service.warm_cache_hits` / `service.cached_validations` / `service.prewarmed_sessions` |
//! | `ServiceStats::latency` (percentiles) | `job.latency_seconds` (histogram) |
//! | `ServiceStats::wall_seconds` / `jobs_per_second` | `service.wall_seconds` / `service.jobs_per_second` (gauges) |
//!
//! # Time-varying power and online re-scheduling
//!
//! PR 10 adds *online mode*: sessions may run under a time-varying power
//! trace ([`TraceProfile`], materialised per candidate into a
//! `thermsched_thermal::PowerTrace`) and may be re-planned from a
//! caller-supplied temperature state instead of an ambient die. Everything
//! is additive — [`SchedulerConfig`] is untouched (it stays `Copy`); the
//! online inputs travel in an [`OnlineContext`]. New entry points map onto
//! the existing ones as follows:
//!
//! | offline call | online equivalent |
//! |---|---|
//! | `engine.schedule()` | [`Engine::schedule_online`]`(&ctx)` |
//! | `engine.schedule_with(cfg)` | [`Engine::schedule_online_with`]`(cfg, &ctx)` |
//! | `engine.schedule_with_checkpoint(cfg, ck)` | [`Engine::schedule_online_with_checkpoint`]`(cfg, &ctx, ck)` |
//! | `scheduler.schedule()` | `scheduler.with_online(ctx)?.schedule()` |
//! | `ThermalSimulator::simulate_session(&p, d)` | `ThermalSimulator::simulate_trace(&trace, initial)` |
//! | `SessionCache::key(cores)` | [`SessionCache::online_key`]`(cores, ctx.context_hash())` |
//!
//! Cache hygiene: online results are keyed through
//! [`SessionCache::online_key`] (sorted cores + a `usize::MAX` sentinel +
//! the context hash), so traced or warm-started entries can never alias the
//! constant-power entries offline runs share, and [`OperatorKey`] gained an
//! optional `with_context` discriminator for the same reason. Offline
//! behaviour — including every golden snapshot — is bit-for-bit unchanged:
//! an empty [`OnlineContext`] is normalised away, and a constant
//! single-segment profile materialises to the exact single-phase trace the
//! fast path already serves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod checkpoint;
mod config;
mod engine;
mod error;
pub mod experiments;
mod online;
mod operator_cache;
mod parallel;
pub mod report;
mod schedule;
mod scheduler;
mod session_cache;
mod session_model;
mod session_store;
mod sweep;
mod validator;
mod weights;
mod wire;

pub use baseline::{PackingOrder, PowerConstrainedScheduler, SequentialScheduler};
pub use checkpoint::{EffortBudget, InterruptReason, ScheduleCheckpoint, ScheduleProgress};
pub use config::{CoreOrdering, CoreViolationPolicy, SchedulerConfig};
pub use engine::{Engine, EngineBuilder};
pub use error::ScheduleError;
pub use experiments::{AblationPoint, BaselineComparison, SweepPoint};
pub use online::{OnlineContext, TraceProfile, TraceSegment};
pub use operator_cache::{OperatorCacheHandle, OperatorCacheStats, OperatorKey};
pub use parallel::NestedParallelismGuard;
pub use schedule::{TestSchedule, TestSession};
pub use scheduler::{ScheduleOutcome, SessionRecord, ThermalAwareScheduler};
pub use session_cache::SessionCache;
pub use session_model::{SessionModelOptions, SessionThermalModel, DEFAULT_STC_SCALE};
pub use session_store::{SessionCacheHandle, StoreStats};
pub use sweep::{SweepReport, SweepRunner, SweepSpec, SweepVariant};
pub use validator::{ScheduleEvaluation, ScheduleValidator, SessionEvaluation};
pub use weights::CoreWeights;

/// Convenience result alias used throughout this crate.
pub type Result<T, E = ScheduleError> = std::result::Result<T, E>;
