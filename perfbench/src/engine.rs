//! A timing wrapper around the banking serving engine.
//!
//! [`TimingFactory`] plugs into `ServerCore` in place of
//! `BankingFactory` and hands out [`TimingSession`]s that forward every
//! call to the real `BankingSession`, timing it with a wall clock from
//! outside. Nothing in the program is changed: the wrapper sees only
//! the public `EngineFactory`/`TenantEngine` surface.

use crate::stats::timed;
use comet::{BankingFactory, BankingSession};
use comet_middleware::FaultLog;
use comet_obs::Collector;
use comet_serve::{EngineFactory, QuerySelector, Request, ServeError, TenantEngine};
use comet_transform::ParamSet;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError};

/// One successful engine call, kept for the per-layer probes.
#[derive(Debug, Clone)]
pub enum Step {
    /// `ApplyConcern` with its concern and `Si`.
    Apply(String, ParamSet),
    /// `UndoLast`.
    Undo,
    /// `Generate` with its backend id.
    Generate(String),
    /// One query batch.
    Query(Vec<QuerySelector>),
    /// `Snapshot`.
    Snapshot,
}

/// Wall-clock samples (µs) of engine calls, by request kind. A failed
/// call counts with the time it took to fail.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub apply: Vec<f64>,
    /// First generate at a model state (per backend).
    pub generate: Vec<f64>,
    /// Generate repeated at an unchanged model state.
    pub generate_repeat: Vec<f64>,
    pub undo: Vec<f64>,
    pub snapshot: Vec<f64>,
    /// Every engine call.
    pub ops: Vec<f64>,
    /// Summed engine-call time.
    pub engine_us: f64,
    /// `BankingFactory::create` per tenant.
    pub create_us: Vec<f64>,
    /// Engine counters (cache hits, WAL fsyncs), summed over sessions.
    pub counters: BTreeMap<&'static str, u64>,
    /// Successful calls per tenant, in order (only when recording).
    pub logs: BTreeMap<String, Vec<Step>>,
}

impl Tally {
    /// Appends `other`'s samples and sums its counters.
    pub fn absorb(&mut self, other: Tally) {
        self.apply.extend(other.apply);
        self.generate.extend(other.generate);
        self.generate_repeat.extend(other.generate_repeat);
        self.undo.extend(other.undo);
        self.snapshot.extend(other.snapshot);
        self.ops.extend(other.ops);
        self.engine_us += other.engine_us;
        self.create_us.extend(other.create_us);
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        self.logs.extend(other.logs);
    }

    /// Multiplies every time in the tally by `factor` (see [`crate::host`]).
    pub fn scale(&mut self, factor: f64) {
        let lists = [
            &mut self.apply,
            &mut self.generate,
            &mut self.generate_repeat,
            &mut self.undo,
            &mut self.snapshot,
            &mut self.ops,
            &mut self.create_us,
        ];
        for t in lists.into_iter().flatten() {
            *t *= factor;
        }
        self.engine_us *= factor;
    }

    /// A summed engine counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Wraps a `BankingFactory`; sessions report into a shared tally.
pub struct TimingFactory {
    inner: BankingFactory,
    sink: Arc<Mutex<Tally>>,
    record: bool,
}

impl TimingFactory {
    /// Wraps `inner`; `record` keeps each tenant's call log.
    pub fn new(inner: BankingFactory, record: bool) -> Self {
        TimingFactory { inner, sink: Arc::default(), record }
    }

    /// Takes everything sessions reported so far.
    pub fn take(&self) -> Tally {
        std::mem::take(&mut *self.sink.lock().expect("tally lock"))
    }
}

impl EngineFactory for TimingFactory {
    type Engine = TimingSession;

    fn create(&self, tenant: &str, obs: &Collector) -> TimingSession {
        let (inner, create_us) = timed(|| self.inner.create(tenant, obs));
        let local = Tally { create_us: vec![create_us], ..Tally::default() };
        TimingSession {
            inner,
            tenant: tenant.to_owned(),
            local,
            log: self.record.then(Vec::new),
            fresh: BTreeSet::new(),
            sink: Arc::clone(&self.sink),
        }
    }

    fn query_pool(&self) -> Vec<QuerySelector> {
        self.inner.query_pool()
    }
}

/// A `BankingSession` whose calls are timed from outside.
pub struct TimingSession {
    inner: BankingSession,
    tenant: String,
    local: Tally,
    log: Option<Vec<Step>>,
    /// Backends already generated at the current model state.
    fresh: BTreeSet<String>,
    sink: Arc<Mutex<Tally>>,
}

impl TimingSession {
    fn note(&mut self, us: f64) {
        self.local.engine_us += us;
        self.local.ops.push(us);
    }
}

impl TenantEngine for TimingSession {
    fn execute(&mut self, req: &Request, obs: &Collector) -> Result<String, ServeError> {
        let (result, us) = timed(|| self.inner.execute(req, obs));
        self.note(us);
        let step = match req {
            Request::ApplyConcern { concern, si } => {
                self.local.apply.push(us);
                Step::Apply(concern.clone(), si.clone())
            }
            Request::UndoLast => {
                self.local.undo.push(us);
                Step::Undo
            }
            Request::Generate { backend } => {
                if self.fresh.contains(backend) {
                    self.local.generate_repeat.push(us);
                } else {
                    self.local.generate.push(us);
                }
                Step::Generate(backend.clone())
            }
            Request::Snapshot => {
                self.local.snapshot.push(us);
                Step::Snapshot
            }
            Request::Query(_) => unreachable!("queries are batched via execute_queries"),
        };
        // A failed call changed nothing, so only a successful one moves
        // the model state or enters the log.
        if result.is_ok() {
            match &step {
                Step::Apply(..) | Step::Undo => self.fresh.clear(),
                Step::Generate(backend) => {
                    self.fresh.insert(backend.clone());
                }
                Step::Query(_) | Step::Snapshot => {}
            }
            if let Some(log) = &mut self.log {
                log.push(step);
            }
        }
        result
    }

    fn execute_queries(
        &mut self,
        selectors: &[QuerySelector],
        obs: &Collector,
    ) -> Result<Vec<u64>, ServeError> {
        let (result, us) = timed(|| self.inner.execute_queries(selectors, obs));
        self.note(us);
        if let (Ok(_), Some(log)) = (&result, &mut self.log) {
            log.push(Step::Query(selectors.to_vec()));
        }
        result
    }

    fn next_apply(&mut self) -> Option<Request> {
        self.inner.next_apply()
    }

    fn applied(&self) -> Vec<String> {
        self.inner.applied()
    }

    fn take_service_us(&mut self) -> u64 {
        self.inner.take_service_us()
    }

    fn fault_log(&self) -> FaultLog {
        self.inner.fault_log()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.counters()
    }
}

impl Drop for TimingSession {
    fn drop(&mut self) {
        let mut local = std::mem::take(&mut self.local);
        for (name, value) in self.inner.counters() {
            *local.counters.entry(name).or_default() += value;
        }
        if let Some(log) = self.log.take() {
            local.logs.insert(self.tenant.clone(), log);
        }
        // Every absorb leaves the tally whole, so a poisoned lock's data
        // is still valid; a panic here would abort the run.
        self.sink.lock().unwrap_or_else(PoisonError::into_inner).absorb(local);
    }
}
