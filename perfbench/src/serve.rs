//! `durable-journal`: the banking serving engine with per-tenant
//! journals, under a write-heavy mix, restarted from its journals every
//! few rounds.
//!
//! A run is a fixed number of rounds for its `--seconds`, so its counts
//! depend only on its arguments. Each round is one complete serve in
//! a fresh data dir: the plan is rendered to TOML and parsed, the
//! banking factory runs interaction analysis, `ServerCore::run_with`
//! drives every tenant to quiescence on one shard, and the timing
//! wrapper records the wall time of every engine call. Rounds cycle
//! through [`SEEDS`] seeds derived from the run's seed, so each seed's
//! report is produced at least twice and must come out byte-identical
//! every time.

use crate::engine::{Step, Tally, TimingFactory};
use crate::host;
use crate::layers::{LayerTimes, Probe, SpanTimes};
use crate::report::Outcome;
use crate::stats::{median, ratio, timed, us};
use crate::Series;
use comet::{BankingFactory, MdaLifecycle, SERVE_WORKFLOW};
use comet_gen::Backend;
use comet_obs::{Collector, Trace};
use comet_repo::DurableRepository;
use comet_serve::{EngineFactory, RunConfig, ServeReport, ServerCore, TenantEngine, WorkloadPlan};
use comet_workflow::WorkflowModel;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Distinct plans a run cycles through. A run's medians depend on its
/// mix of plans (how deep the tenants' stacks of applied concerns get),
/// so many plans per run keep that mix, and the medians, alike from
/// seed to seed.
const SEEDS: usize = 40;
/// Rounds a run does per `--seconds`, set so that a run takes about
/// that long on a 2-core x86-64 host in its slow state (see
/// [`crate::host`]), and less when the host is undisturbed.
const ROUNDS_PER_S: f64 = 6.0;
/// Fewest rounds a run does: enough for every minimum sample count,
/// and for every seed to be served twice in every collection setting.
const MIN_ROUNDS: u64 = (2 * SEEDS * CONFIGS.len()) as u64;
/// Interaction-matrix builds the traced run times.
const MATRIX_BUILDS: usize = 5;
/// Rounds between restarts.
const RECOVER_EVERY: usize = 2;

/// The workload plan for `seed`, as the TOML a user would write: 8
/// tenants x 2 closed-loop clients, apply = undo = 0.3, snapshot 0.2,
/// query 0.1, generate 0.1.
fn plan_toml(seed: u64) -> String {
    format!(
        "seed = {seed}\ntenants = 8\nclients = 2\nrequests = 48\n\n[mix]\napply = 0.3\nundo = \
         0.3\ngenerate = 0.1\nquery = 0.1\nsnapshot = 0.2\n"
    )
}

/// The `k`-th seed a run derives from its `--seed` (splitmix64).
fn derive_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed.wrapping_mul(SEEDS as u64).wrapping_add(k as u64 + 1);
    z = z.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 1_000_000_007
}

fn steps() -> Vec<String> {
    SERVE_WORKFLOW.iter().map(|s| (*s).to_owned()).collect()
}

/// One complete serve.
struct Round {
    report: ServeReport,
    /// The merged trace, when the round was traced.
    trace: Option<Trace>,
    tally: Tally,
    /// Plan parse → factory → core, plus every tenant's session
    /// creation: the time from plan to ready-to-serve.
    setup_us: f64,
    /// Serving wall time, session creation excluded.
    serve_us: f64,
}

fn round(seed: u64, cfg: &RunConfig, data_dir: &Path, record: bool) -> Result<Round, String> {
    let t0 = Instant::now();
    let plan = WorkloadPlan::parse_toml(&plan_toml(seed)).map_err(|e| e.to_string())?;
    plan.validate_concerns(|c| comet_concerns::by_name(c).is_some()).map_err(|e| e.to_string())?;
    plan.validate_backends(|b| Backend::parse(b).is_some()).map_err(|e| e.to_string())?;
    let factory = BankingFactory::with_steps(plan.seed, None, &steps())
        .map_err(|e| e.to_string())?
        .with_data_dir(data_dir);
    let factory = TimingFactory::new(factory, record);
    let core = ServerCore::new(&plan, &factory, 1).map_err(|e| e.to_string())?;
    let prepare_us = us(t0.elapsed());
    let (outcome, run_us) = timed(|| core.run_with(cfg));
    let tally = factory.take();
    let create_us: f64 = tally.create_us.iter().sum();
    Ok(Round {
        report: outcome.report,
        trace: outcome.trace,
        tally,
        setup_us: prepare_us + create_us,
        serve_us: run_us - create_us,
    })
}

/// Collection settings a traced run rotates through.
const CONFIGS: [RunConfig; 3] = [
    RunConfig { traced: false, metrics: false },
    RunConfig { traced: true, metrics: false },
    RunConfig { traced: false, metrics: true },
];

/// Per-config totals over a run's rounds.
#[derive(Default)]
struct Totals {
    tally: Tally,
    series: Series,
    spans: SpanTimes,
    issued: u64,
    ok: u64,
}

impl Totals {
    /// Adds a round, and the restart that followed it if there was one,
    /// with every time scaled by `factor` (see [`crate::host`]).
    fn add(&mut self, mut r: Round, restart_us: Option<f64>, factor: f64) {
        r.tally.scale(factor);
        let t = &r.tally;
        let kinds = [&t.apply, &t.undo, &t.snapshot, &t.generate, &t.generate_repeat];
        for (series, samples) in self.series.kinds.iter_mut().zip(kinds) {
            series.extend_from_slice(samples);
        }
        self.series.ops.extend_from_slice(&t.ops);
        self.series.setup.push(r.setup_us * factor);
        self.series.recover.extend(restart_us.map(|t| t * factor));
        self.series.done += r.report.completed;
        self.series.wall_us += r.serve_us * factor;
        if let Some(trace) = &r.trace {
            self.spans.add(trace, factor);
        }
        self.issued += r.report.issued;
        self.ok += r.report.ok;
        self.tally.absorb(r.tally);
    }

    fn ops_per_s(&self) -> f64 {
        ratio(self.series.done as f64, self.series.wall_us) * 1e6
    }
}

/// Runs `durable-journal`: a fixed number of rounds for `seconds`. Every
/// few rounds the workload restarts: each tenant's session is rebuilt
/// from the latest round's journal and checked. With `trace`, rounds
/// rotate through the collection settings and the run reports the
/// per-layer table.
pub fn run(seed: u64, seconds: f64, trace: bool, data: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seeds: Vec<u64> = (0..SEEDS).map(|k| derive_seed(seed, k)).collect();
    let configs: &[RunConfig] = if trace { &CONFIGS } else { &CONFIGS[..1] };
    let mut totals: Vec<Totals> = configs.iter().map(|_| Totals::default()).collect();
    let mut reports: Vec<Option<ServeReport>> = vec![None; SEEDS];
    let mut probed = LayerTimes::default();
    let mut reference = Vec::new();
    // The latest round's journal, seed index and report.
    let mut journal: Option<(PathBuf, usize, ServeReport)> = None;
    let started = Instant::now();
    let rounds = crate::units_for(seconds, ROUNDS_PER_S, MIN_ROUNDS) as usize;
    for i in 0..rounds {
        let c = i % configs.len();
        let k = (i / configs.len()) % SEEDS;
        let dir = data.join(format!("round{i}"));
        // The first plain round keeps its call log for the layer probes.
        let record = trace && i == 0;
        let before = host::reference_us();
        let r = round(seeds[k], &configs[c], &dir, record)?;
        match &reports[k] {
            None => reports[k] = Some(r.report.clone()),
            Some(first) => out.check(*first == r.report, || {
                format!("seed {} served a different report on round {i}", seeds[k])
            }),
        }
        if let Some((old, _, _)) = journal.replace((dir, k, r.report.clone())) {
            std::fs::remove_dir_all(old).map_err(|e| e.to_string())?;
        }
        let restart_us = match &journal {
            Some((dir, k, report)) if (i + 1).is_multiple_of(RECOVER_EVERY) => {
                Some(recover(seeds[*k], dir, report, &mut out)?)
            }
            _ => None,
        };
        let f = host::factor(before, host::reference_us());
        reference.push(before);
        if record {
            probe_logs(&r.tally, data, &mut probed, &mut out)?;
        }
        totals[c].add(r, restart_us, f);
        crate::hang_guard(started)?;
    }
    // The reports are a pure function of the seed: equal digests across
    // runs of one seed show the counts repeat.
    let text: String = reports.iter().flatten().map(|r| r.to_string()).collect();
    eprintln!("digest: {:016x}", comet_serve::fnv1a64(text.as_bytes()));
    for t in &totals {
        out.attempted += t.issued;
        out.failed += t.issued - t.ok;
    }
    let (dir, _, report) = journal.expect("a journal exists");
    let journals = inspect(&dir, &report, &mut out)?;

    if trace {
        out.put("host.reference_us", median(&reference), "us");
        return layer_metrics(&totals, &journals, &probed, out);
    }
    let plain = &totals[0];
    plain.series.put(plain.ok, plain.issued, &mut out)?;
    Ok(out)
}

/// Rebuilds every tenant's session from the journals in `dir` through
/// `BankingFactory::with_data_dir(..).create`, checks each rebuilt
/// applied list against the served report, and returns the µs it took.
fn recover(seed: u64, dir: &Path, report: &ServeReport, out: &mut Outcome) -> Result<f64, String> {
    let factory = BankingFactory::with_steps(seed, None, &steps())
        .map_err(|e| e.to_string())?
        .with_data_dir(dir);
    let obs = Collector::disabled();
    let (sessions, t) =
        timed(|| report.tenants.keys().map(|t| factory.create(t, &obs)).collect::<Vec<_>>());
    for (session, (tenant, stats)) in sessions.iter().zip(&report.tenants) {
        out.check(session.applied() == stats.applied, || {
            format!("{tenant}: recovered {:?}, served {:?}", session.applied(), stats.applied)
        });
    }
    Ok(t)
}

/// Per-journal figures: `DurableRepository::open` µs and size in bytes.
struct Journals {
    open_us: Vec<f64>,
    bytes: Vec<f64>,
}

/// Opens, measures and fscks every tenant journal under `dir`.
fn inspect(dir: &Path, report: &ServeReport, out: &mut Outcome) -> Result<Journals, String> {
    let mut j = Journals { open_us: Vec::new(), bytes: Vec::new() };
    for tenant in report.tenants.keys() {
        let tdir = dir.join(tenant);
        let (opened, t) = timed(|| DurableRepository::open(&tdir));
        opened.map_err(|e| format!("{tenant}: {e}"))?;
        j.open_us.push(t);
        j.bytes.push(dir_bytes(&tdir) as f64);
        let fsck = DurableRepository::fsck(&tdir).map_err(|e| format!("{tenant}: {e}"))?;
        out.check(fsck.ok(), || format!("{tenant}: fsck found {:?}", fsck.problems));
    }
    Ok(j)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Drives every tenant's recorded calls through a lifecycle of its own
/// (with a journal, as the served tenants have) and probes the
/// unspanned layers at each state it reaches. Every artifact the
/// lifecycle serves, from its cache or not, must equal a cold render of
/// the same state.
fn probe_logs(
    tally: &Tally,
    data: &Path,
    out: &mut LayerTimes,
    checks: &mut Outcome,
) -> Result<(), String> {
    let bodies = comet::chaos::banking_bodies();
    let matrix = comet::serve_interaction_matrix(&steps()).map_err(|e| e.to_string())?;
    let workflow =
        matrix.constrain(steps().iter().fold(WorkflowModel::new("serve"), |w, s| w.step(s, true)));
    for (tenant, log) in &tally.logs {
        let dir = data.join("probe").join(tenant);
        let pim = comet::chaos::executable_banking_pim();
        let mut probe = Probe::new(&pim, Some(&dir.join("probe")), out)?;
        let mut mda = MdaLifecycle::new_durable(pim, workflow.clone(), &dir.join("lifecycle"))
            .map_err(|e| e.to_string())?;
        // The cold render of each backend at the current state.
        let mut cold: BTreeMap<Backend, String> = BTreeMap::new();
        for step in log {
            match step {
                Step::Apply(concern, si) => {
                    let pair = comet_concerns::by_name(concern).ok_or("unknown concern")?;
                    probe.before_apply(mda.model(), concern, si)?;
                    mda.apply_concern(&pair, si.clone()).map_err(|e| e.to_string())?;
                    probe.after_apply(&mda)?;
                    cold.clear();
                }
                Step::Undo => {
                    mda.undo_last().map_err(|e| e.to_string())?;
                    probe.after_undo()?;
                    cold.clear();
                }
                Step::Generate(backend) => {
                    let be = Backend::parse(backend).ok_or("unknown backend")?;
                    let system = mda.generate(&bodies, be).map_err(|e| e.to_string())?;
                    if let Entry::Vacant(slot) = cold.entry(be) {
                        slot.insert(probe.at_generate(&mda, &system, &bodies)?);
                    }
                    checks.check(cold[&be] == system.artifact, || {
                        format!("{tenant}: served {backend} artifact differs from a cold render")
                    });
                }
                Step::Snapshot => probe.snapshot(mda.model()),
                Step::Query(selectors) => probe.query(mda.model(), selectors),
            }
        }
    }
    std::fs::remove_dir_all(data.join("probe")).map_err(|e| e.to_string())
}

/// The per-layer table of a traced run.
fn layer_metrics(
    totals: &[Totals],
    journals: &Journals,
    lt: &LayerTimes,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let plain = &totals[0];
    let t = &plain.tally;
    let (ops, serve_us) = (plain.issued as f64, plain.series.wall_us);
    out.put("serve.sched_us_per_req", (serve_us - t.engine_us) / ops, "us");
    out.put("serve.engine_busy_frac", ratio(t.engine_us, serve_us), "ratio");
    out.put("serve.create_us", median(&t.create_us), "us");
    let mut builds = Vec::new();
    for _ in 0..MATRIX_BUILDS {
        let (m, t) = timed(|| comet::serve_interaction_matrix(&steps()));
        m.map_err(|e| e.to_string())?;
        builds.push(t / 1e3);
    }
    out.put("interaction.matrix_build_ms", median(&builds), "ms");
    crate::layers::put(&totals[1].spans, totals[1].tally.engine_us, lt, &mut out);
    let gen = ratio(
        t.counter("gen_cache_hits") as f64,
        (t.counter("gen_cache_hits") + t.counter("gen_cache_misses")) as f64,
    );
    let weave = ratio(
        t.counter("weave_cache_hits") as f64,
        (t.counter("weave_cache_hits") + t.counter("weave_cache_misses")) as f64,
    );
    out.put("gen.cache_hit_ratio", gen, "ratio");
    out.put("aop.weave_cache_hit_ratio", weave, "ratio");
    out.put(
        "repo.wal_fsyncs_per_op",
        ratio(t.counter("wal_fsyncs") as f64, t.ops.len() as f64),
        "1/op",
    );
    out.put("repo.open_us", median(&journals.open_us), "us");
    out.put("repo.journal_bytes", median(&journals.bytes), "bytes");
    out.put("obs.trace_overhead", ratio(plain.ops_per_s(), totals[1].ops_per_s()), "ratio");
    out.put("metrics.overhead", ratio(plain.ops_per_s(), totals[2].ops_per_s()), "ratio");
    Ok(out)
}
