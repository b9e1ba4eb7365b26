//! # preempt-sched
//!
//! The PreemptDB scheduling runtime (paper §4–§5): worker threads with
//! one transaction context per priority level, a scheduling thread that
//! dispatches into per-worker lock-free queues and triggers **batched
//! on-demand preemption** via user interrupts, **starvation prevention**,
//! and the Wait / Cooperative / Cooperative-Handcrafted baselines — all
//! implemented over the same mechanisms so comparisons are apples to
//! apples (§6.1: "for fair comparison, all policies are implemented in
//! PreemptDB codebase").
//!
//! Runs execute either on the deterministic virtual-time simulator
//! ([`Runtime::Simulated`], the substitute for the paper's 32-core
//! testbed) or on real OS threads ([`Runtime::Threads`]).

// Scheduling is hot-path code driven by external state (queues, clocks,
// workers that can die): recoverable conditions must be handled, not
// unwrapped. Audited sites use expect() with an invariant message.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod admission;
pub mod clock;
pub mod controller;
pub mod deque;
pub mod metrics;
pub mod policy;
pub mod request;
pub mod runner;
pub mod scheduler;
pub mod starvation;
pub mod worker;

pub use admission::{AdmissionControl, AdmittedFactory};
pub use deque::StealDeque;
pub use controller::{
    Controller, ControllerConfig, ControllerReport, Decision, SensorSnapshot, ThresholdPoint,
};
pub use metrics::{Histogram, KindMetrics, Metrics};
pub use policy::{Policy, STARVATION_DISABLED};
pub use request::{Priority, Request, RequestQueue, WorkOutcome};
pub use runner::{run, RunReport, Runtime, WorkerTotals};
pub use scheduler::{
    scheduler_main, scheduler_shard_main, split_factory, DriverConfig, RecoveryHooks,
    RobustnessConfig, SchedulerStats, SharedFactory, SpawnFn, SweepFn,
    WorkloadFactory,
};
pub use starvation::StarvationState;
pub use worker::{
    worker_main, yield_hint, WakeTarget, WorkerShared, DEGRADED_YIELD_INTERVAL, UINTR_POLL_COST,
};
