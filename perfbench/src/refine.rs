//! `refine-large`: one `MdaLifecycle` refining a 100-class synthetic
//! model, timed call by call without the serving layer.
//!
//! Each cycle applies logging → transactions → security, each with a
//! seeded subset of the model's operations as its `Si` targets, so
//! every post-apply state is content the generation cache has not
//! seen. After each apply the cycle generates once (the miss path),
//! repeats that generate unchanged (the hit path) and takes an XMI
//! snapshot; then it undoes all three steps. A run does a fixed number
//! of cycles for its `--seconds`, so its counts and its memory (the
//! generation cache keeps every state it rendered) depend only on its
//! arguments.

use crate::host;
use crate::layers::{LayerTimes, Probe, SpanTimes};
use crate::report::Outcome;
use crate::stats::{median, ratio, timed, us};
use crate::{Series, APPLY, GENERATE, GENERATE_REPEAT, SNAPSHOT, UNDO};
use comet::MdaLifecycle;
use comet_codegen::BodyProvider;
use comet_gen::Backend;
use comet_metrics::MetricsRegistry;
use comet_model::Model;
use comet_obs::Collector;
use comet_repo::DurableRepository;
use comet_serve::QuerySelector;
use comet_transform::{ParamSet, ParamValue};
use comet_workflow::WorkflowModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

const CLASSES: usize = 100;
const ATTRS: usize = 4;
const OPS: usize = 6;
/// Operations each concern's `Si` targets.
const TARGETS: usize = 8;
const STEPS: [&str; 3] = ["logging", "transactions", "security"];
/// The backend every timed generate renders.
const BACKEND: Backend = Backend::JavaFunctional;
/// Cycles a run does per `--seconds`, set so that a run takes about
/// that long on a 2-core x86-64 host in its slow state (see
/// [`crate::host`]), and less when the host is undisturbed.
const CYCLES_PER_S: f64 = 8.0;
/// Fewest cycles a run does: enough for every minimum sample count.
const MIN_CYCLES: u64 = 70;
/// Cycles between timed set-ups and restarts.
const EXTRAS_EVERY: u64 = 2;
/// Journal opens the traced run times.
const OPENS: usize = 10;

fn pim() -> Model {
    comet_model::sample::synthetic(CLASSES, ATTRS, OPS)
}

fn workflow() -> WorkflowModel {
    STEPS.iter().fold(WorkflowModel::new("refine"), |w, s| w.step(s, true))
}

/// The three `Si` of cycle `cycle`, drawn from the run's seed.
fn cycle_si(seed: u64, cycle: u64) -> Vec<(&'static str, ParamSet)> {
    let mut rng = StdRng::seed_from_u64(seed ^ cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut draw = |suffix: &str| -> Vec<String> {
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < TARGETS {
            let i = rng.gen_range(0..CLASSES * OPS);
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked.iter().map(|i| format!("C{}.op{}{suffix}", i / OPS, i % OPS)).collect()
    };
    vec![
        ("logging", ParamSet::new().with("targets", ParamValue::from(draw("")))),
        ("transactions", ParamSet::new().with("methods", ParamValue::from(draw("")))),
        ("security", ParamSet::new().with("protected", ParamValue::from(draw(":teller")))),
    ]
}

/// What one collection setting measured.
#[derive(Default)]
struct Samples {
    series: Series,
    /// Summed lifecycle-call time.
    engine_us: f64,
    attempted: u64,
    ok: u64,
}

impl Samples {
    /// Records one lifecycle call of request kind `kind` (see [`crate::KINDS`]).
    fn op(&mut self, kind: usize, us: f64, ok: bool) {
        self.attempted += 1;
        self.ok += u64::from(ok);
        self.engine_us += us;
        self.series.kinds[kind].push(us);
        self.series.ops.push(us);
    }

    /// Multiplies every time by `factor` (see [`crate::host`]).
    fn scale(&mut self, factor: f64) {
        self.series.scale(factor);
        self.engine_us *= factor;
    }

    fn absorb(&mut self, other: Samples) {
        self.series.absorb(other.series);
        self.engine_us += other.engine_us;
        self.attempted += other.attempted;
        self.ok += other.ok;
    }

    fn ops_per_s(&self) -> f64 {
        ratio(self.series.done as f64, self.series.wall_us) * 1e6
    }
}

/// How a cycle collects: plain, traced, with every latency observed
/// into a metrics histogram, or probed layer by layer between calls.
const PLAIN: usize = 0;
const TRACED: usize = 1;
const METERED: usize = 2;
const PROBED: usize = 3;

/// One cycle against `mda`, recorded into a fresh `s` and each call
/// checked into `out`; `probe`
/// times the unspanned layers between the calls. Returns the cycle's
/// cache-served artifacts.
#[allow(clippy::too_many_arguments)]
fn cycle(
    mda: &mut MdaLifecycle,
    bodies: &BodyProvider,
    sis: Vec<(&'static str, ParamSet)>,
    s: &mut Samples,
    mut probe: Option<&mut Probe>,
    metrics: Option<&mut MetricsRegistry>,
    out: &mut Outcome,
) -> Result<Vec<String>, String> {
    let t0 = Instant::now();
    let mut hits = Vec::new();
    for (concern, si) in sis {
        let pair = comet_concerns::by_name(concern).expect("standard concern");
        if let Some(p) = probe.as_deref_mut() {
            p.before_apply(mda.model(), concern, &si)?;
        }
        let (r, t) = timed(|| mda.apply_concern(&pair, si).map(|_| ()));
        out.check(r.is_ok(), || format!("apply {concern}: {:?}", r.as_ref().err()));
        s.op(APPLY, t, r.is_ok());
        if let Some(p) = probe.as_deref_mut() {
            p.after_apply(mda)?;
        }
        let (first, t) = timed(|| mda.generate(bodies, BACKEND));
        s.op(GENERATE, t, first.is_ok());
        let (before_hits, _) = mda.gen_cache_stats();
        let (again, t2) = timed(|| mda.generate(bodies, BACKEND));
        s.op(GENERATE_REPEAT, t2, again.is_ok());
        out.check(mda.gen_cache_stats().0 == before_hits + 1, || {
            format!("repeated generate after {concern} missed the cache")
        });
        match (first, again) {
            (Ok(a), Ok(b)) => {
                out.check(a.artifact == b.artifact, || {
                    format!("cache-served artifact after {concern} differs from its render")
                });
                if let Some(p) = probe.as_deref_mut() {
                    p.at_generate(mda, &a, bodies)?;
                }
                hits.push(b.artifact);
            }
            (a, b) => out.problems.push(format!("generate: {:?} / {:?}", a.err(), b.err())),
        }
        let (xmi, t) = timed(|| comet_xmi::export_model(mda.model()));
        std::hint::black_box(xmi);
        s.op(SNAPSHOT, t, true);
        if let Some(p) = probe.as_deref_mut() {
            p.query(mda.model(), &queries());
        }
    }
    for _ in STEPS {
        let (r, t) = timed(|| mda.undo_last());
        out.check(r.is_ok(), || format!("undo: {:?}", r.as_ref().err()));
        s.op(UNDO, t, r.is_ok());
        if let Some(p) = probe.as_deref_mut() {
            p.after_undo()?;
        }
    }
    if let Some(reg) = metrics {
        let h = reg.histogram("refine_op_latency_us", &[("workload", "refine-large")]);
        for t in &s.series.ops {
            reg.observe(h, *t as u64);
        }
    }
    s.series.done += s.series.ops.len() as u64;
    s.series.wall_us += us(t0.elapsed());
    Ok(hits)
}

/// The query batch a probe answers at each refined state.
fn queries() -> [QuerySelector; 2] {
    [QuerySelector::Classes, QuerySelector::Operations("C0".to_owned())]
}

/// A fresh model and lifecycle, with the µs it took and the µs of
/// `MdaLifecycle::new` alone.
fn setup() -> Result<(MdaLifecycle, f64, f64), String> {
    let t0 = Instant::now();
    let model = pim();
    let (mda, t) = timed(|| MdaLifecycle::new(model, workflow()));
    Ok((mda.map_err(|e| e.to_string())?, us(t0.elapsed()), t))
}

/// Runs `refine-large`: a fixed number of cycles for `seconds`. Every
/// few cycles it also times a fresh set-up and a restart from a journal
/// of cycle 0's applies. With `trace`, cycles rotate through the
/// collection settings and the run reports the per-layer table.
pub fn run(seed: u64, seconds: f64, trace: bool, data: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let journal = Journal::write(seed, data)?;
    let (mut mda, _, _) = setup()?;
    let mut create = Vec::new();
    let mut reference = Vec::new();
    let bodies = BodyProvider::default();
    let settings = if trace { PROBED + 1 } else { 1 };
    let mut samples: Vec<Samples> = (0..settings).map(|_| Samples::default()).collect();
    let mut registry = MetricsRegistry::enabled();
    let mut layers = LayerTimes::default();
    let mut probe = Probe::new(&pim(), None, &mut layers)?;
    let mut spans = SpanTimes::default();
    let mut first_hits = Vec::new();
    let started = Instant::now();
    for c in 0..crate::units_for(seconds, CYCLES_PER_S, MIN_CYCLES) {
        let setting = c as usize % settings;
        if setting == TRACED {
            mda.set_collector(Collector::enabled());
        }
        let before = host::reference_us();
        let mut unit = Samples::default();
        let hits = cycle(
            &mut mda,
            &bodies,
            cycle_si(seed, c),
            &mut unit,
            (setting == PROBED).then_some(&mut probe),
            (setting == METERED).then_some(&mut registry),
            &mut out,
        )?;
        let traced = (setting == TRACED).then(|| mda.collector().take());
        mda.set_collector(Collector::disabled());
        if c == 0 {
            first_hits = hits;
        }
        let mut create_us = None;
        if (c + 1).is_multiple_of(EXTRAS_EVERY) {
            let (fresh, s, t) = setup()?;
            drop(fresh);
            create_us = Some(t);
            unit.series.setup.push(s);
            unit.series.recover.push(journal.recover(&mut out)?);
        }
        let f = host::factor(before, host::reference_us());
        reference.push(before);
        unit.scale(f);
        samples[setting].absorb(unit);
        create.extend(create_us.map(|t| t * f));
        if let Some(trace) = &traced {
            spans.add(trace, f);
        }
        crate::hang_guard(started)?;
    }
    drop(probe);
    for s in &samples {
        out.attempted += s.attempted;
        out.failed += s.attempted - s.ok;
    }
    // Cycle 0's artifacts are a pure function of the seed.
    eprintln!("digest: {:016x}", comet_gen::fnv1a64(first_hits.concat().as_bytes()));
    check_cold(seed, &bodies, &first_hits, &mut out)?;
    let (open_us, journal_bytes) = journal.inspect(&mut out)?;

    let plain = &samples[PLAIN];
    if trace {
        let per_op = (plain.series.wall_us - plain.engine_us) / plain.attempted as f64;
        out.put("serve.sched_us_per_req", per_op, "us");
        out.put("serve.engine_busy_frac", ratio(plain.engine_us, plain.series.wall_us), "ratio");
        out.put("serve.create_us", median(&create), "us");
        let bindings: Vec<_> = cycle_si(seed, 0)
            .into_iter()
            .map(|(c, si)| (comet_concerns::by_name(c).expect("standard concern"), si))
            .collect();
        let (m, t) = timed(|| comet_interaction::build_matrix(&pim(), &bodies, &bindings));
        m.map_err(|e| e.to_string())?;
        out.put("interaction.matrix_build_ms", t / 1e3, "ms");
        crate::layers::put(&spans, samples[TRACED].engine_us, &layers, &mut out);
        let (gh, gm) = mda.gen_cache_stats();
        let (wh, wm) = mda.weave_cache_stats();
        out.put("gen.cache_hit_ratio", ratio(gh as f64, (gh + gm) as f64), "ratio");
        out.put("aop.weave_cache_hit_ratio", ratio(wh as f64, (wh + wm) as f64), "ratio");
        let fsyncs = ratio(mda.wal_fsyncs() as f64, plain.attempted as f64);
        out.put("repo.wal_fsyncs_per_op", fsyncs, "1/op");
        out.put("repo.open_us", median(&open_us), "us");
        out.put("repo.journal_bytes", journal_bytes, "bytes");
        let overhead = |s: &Samples| ratio(plain.ops_per_s(), s.ops_per_s());
        out.put("obs.trace_overhead", overhead(&samples[TRACED]), "ratio");
        out.put("host.reference_us", median(&reference), "us");
        out.put("metrics.overhead", overhead(&samples[METERED]), "ratio");
    } else {
        plain.series.put(plain.ok, plain.attempted, &mut out)?;
    }
    Ok(out)
}

/// Renders cycle 0's three states cold, through a fresh lifecycle, and
/// compares them with the cache-served artifacts of the run.
fn check_cold(
    seed: u64,
    bodies: &BodyProvider,
    hits: &[String],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut fresh = MdaLifecycle::new(pim(), workflow()).map_err(|e| e.to_string())?;
    for ((concern, si), hit) in cycle_si(seed, 0).into_iter().zip(hits) {
        let pair = comet_concerns::by_name(concern).expect("standard concern");
        fresh.apply_concern(&pair, si).map_err(|e| e.to_string())?;
        let cold = fresh.generate(bodies, BACKEND).map_err(|e| e.to_string())?;
        out.check(cold.artifact == *hit, || {
            format!("cache-served artifact after {concern} differs from a cold render")
        });
    }
    out.check(hits.len() == STEPS.len(), || "cycle 0 served no artifacts".to_owned());
    Ok(())
}

/// A durable journal of cycle 0's three applies, and what a restart
/// from it must rebuild.
struct Journal {
    dir: PathBuf,
    sis: Vec<(&'static str, ParamSet)>,
    xmi: String,
    applied: Vec<String>,
}

impl Journal {
    fn write(seed: u64, data: &Path) -> Result<Journal, String> {
        let dir = data.join("refine-journal");
        let sis = cycle_si(seed, 0);
        let mut live =
            MdaLifecycle::new_durable(pim(), workflow(), &dir).map_err(|e| e.to_string())?;
        for (concern, si) in &sis {
            let pair = comet_concerns::by_name(concern).expect("standard concern");
            live.apply_concern(&pair, si.clone()).map_err(|e| e.to_string())?;
        }
        let xmi = comet_xmi::export_model(live.model());
        let applied = live.applied().iter().map(|a| a.cmt.concern().to_owned()).collect();
        Ok(Journal { dir, sis, xmi, applied })
    }

    /// Rebuilds the lifecycle from the journal, checks it, and returns
    /// the µs `MdaLifecycle::recover` took.
    fn recover(&self, out: &mut Outcome) -> Result<f64, String> {
        let resolve = |concern: &str| {
            let si = self.sis.iter().find(|(c, _)| *c == concern)?.1.clone();
            comet_concerns::by_name(concern).map(|p| (p, si))
        };
        let (r, t) = timed(|| MdaLifecycle::recover(&self.dir, workflow(), resolve));
        let (mda, _) = r.map_err(|e| e.to_string())?;
        let applied: Vec<String> =
            mda.applied().iter().map(|a| a.cmt.concern().to_owned()).collect();
        out.check(applied == self.applied, || {
            format!("recovered {applied:?}, applied {:?}", self.applied)
        });
        out.check(comet_xmi::export_model(mda.model()) == self.xmi, || {
            "recovered model differs from the journalled one".to_owned()
        });
        Ok(t)
    }

    /// Times `DurableRepository::open` and fscks the journal; returns
    /// the open times and the journal's size in bytes.
    fn inspect(&self, out: &mut Outcome) -> Result<(Vec<f64>, f64), String> {
        let mut open_us = Vec::new();
        for _ in 0..OPENS {
            let (opened, t) = timed(|| DurableRepository::open(&self.dir));
            opened.map_err(|e| e.to_string())?;
            open_us.push(t);
        }
        let fsck = DurableRepository::fsck(&self.dir).map_err(|e| e.to_string())?;
        out.check(fsck.ok(), || format!("fsck found {:?}", fsck.problems));
        Ok((open_us, crate::serve::dir_bytes(&self.dir) as f64))
    }
}
