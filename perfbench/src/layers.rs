//! Per-layer figures of a traced run.
//!
//! Layers the program wraps in spans of its own are read from the
//! traced run's trace through `Trace::to_profile`, as self wall time
//! per call: transform apply (`transform apply:*`), functional codegen
//! (`codegen functional`), aspect rendering (`codegen render:aspects`)
//! and what the lifecycle's apply and generate phases do outside those
//! (`lifecycle concern:*`, `lifecycle generate`). The time of the traced
//! engine calls that no layer span covers is the unattributed share.
//!
//! Layers the program calls without a span are timed from outside by a
//! [`Probe`], which calls each layer's public function on the
//! workload's own state right after the lifecycle reached it:
//! repository commit and undo, XMI export, the weave, the content hash
//! and every backend's render, model queries, and the transform
//! condition cache. The program's `weave` span is not used: it wraps
//! only the trace recording that follows the weave.

use crate::report::Outcome;
use crate::stats::{median, ratio, timed};
use comet::{GeneratedSystem, MdaLifecycle};
use comet_aop::{IncrementalWeaver, Weaver};
use comet_codegen::BodyProvider;
use comet_gen::{Backend, GenCache, GenInput, GeneratorFactory};
use comet_model::Model;
use comet_obs::Trace;
use comet_repo::{CommitDelta, DurableRepository, Repository};
use comet_serve::QuerySelector;
use comet_transform::{ConditionCache, ParamSet};
use std::collections::BTreeMap;
use std::path::Path;

/// Span counts and self wall time (µs), by `(category, name)`, summed
/// over the traces of a run.
#[derive(Debug, Default)]
pub struct SpanTimes {
    rows: BTreeMap<(String, String), (u64, f64)>,
}

/// Span categories that are not a layer of their own: the serving
/// loop's request span and the lifecycle's phases around the layers.
const UNLAYERED: [&str; 2] = ["serve", "lifecycle"];

impl SpanTimes {
    /// Adds the rows of `trace.to_profile()` (`cat span count
    /// self-ticks total-ticks self-us total-us`), times scaled by
    /// `factor` (see [`crate::host`]).
    pub fn add(&mut self, trace: &Trace, factor: f64) {
        for line in trace.to_profile().lines().skip(1) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let [cat, name @ .., count, _, _, self_us, _] = cols.as_slice() else { continue };
            let (Ok(count), Ok(self_us)) = (count.parse::<u64>(), self_us.parse::<f64>()) else {
                continue;
            };
            let row = self.rows.entry(((*cat).to_owned(), name.join(" "))).or_default();
            row.0 += count;
            row.1 += self_us * factor;
        }
    }

    /// Self µs per span of the spans in `cat` whose name starts with
    /// `prefix`, 0 when there are none.
    pub fn per_span(&self, cat: &str, prefix: &str) -> f64 {
        let (n, us) = self
            .rows
            .iter()
            .filter(|((c, name), _)| c == cat && name.starts_with(prefix))
            .fold((0, 0.0), |(n, us), (_, (c, u))| (n + c, us + u));
        ratio(us, n as f64)
    }

    /// Summed self µs of every layer span.
    pub fn layered_us(&self) -> f64 {
        self.rows
            .iter()
            .filter(|((c, _), _)| !UNLAYERED.contains(&c.as_str()))
            .map(|(_, r)| r.1)
            .sum()
    }
}

/// Layer timings (µs samples) and counts from the probes of a run.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub commit: Vec<f64>,
    pub undo: Vec<f64>,
    pub export: Vec<f64>,
    pub export_bytes: Vec<f64>,
    /// A cold weave of each generated state.
    pub weave: Vec<f64>,
    /// A cold content hash (XMI export + FNV-1a) of each generated state.
    pub content_hash: Vec<f64>,
    /// A cold render per backend id, at each generated state.
    pub backend_render: BTreeMap<&'static str, Vec<f64>>,
    pub query: Vec<f64>,
    pub ocl_evaluations: u64,
    pub ocl_hits: u64,
}

/// The median of a sample set, 0 when the run never reached the layer.
fn med(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// The repository a probe commits the workload's states into, of the
/// kind the workload's lifecycle uses.
enum Repo {
    Memory(Repository),
    Durable(DurableRepository),
}

/// Times the unspanned layers on the states one lifecycle goes through.
/// Call its methods around the lifecycle's own calls, in their order.
pub struct Probe<'a> {
    repo: Repo,
    conditions: ConditionCache,
    factory: GeneratorFactory,
    out: &'a mut LayerTimes,
}

impl<'a> Probe<'a> {
    /// A probe starting at `pim`, committing into memory or, with
    /// `journal`, into a fresh durable repository there.
    pub fn new(
        pim: &Model,
        journal: Option<&Path>,
        out: &'a mut LayerTimes,
    ) -> Result<Self, String> {
        let mut repo = match journal {
            None => Repo::Memory(Repository::new("probe")),
            Some(dir) => {
                Repo::Durable(DurableRepository::create(dir, "probe").map_err(|e| e.to_string())?)
            }
        };
        match &mut repo {
            Repo::Memory(r) => r.commit(pim, "initial PIM", None),
            Repo::Durable(d) => d.commit(pim, "initial PIM", None),
        }
        .map_err(|e| e.to_string())?;
        Ok(Probe {
            repo,
            conditions: ConditionCache::new(),
            factory: GeneratorFactory::with_standard_backends(),
            out,
        })
    }

    /// Before the lifecycle applies `concern` with `si` to `model`:
    /// applies the same transformation to a copy through the probe's
    /// condition cache, which is kept across applies and cleared on
    /// undo as the lifecycle keeps its own.
    pub fn before_apply(
        &mut self,
        model: &Model,
        concern: &str,
        si: &ParamSet,
    ) -> Result<(), String> {
        let pair = comet_concerns::by_name(concern).ok_or("unknown concern")?;
        let (cmt, _) = pair.specialize(si.clone()).map_err(|e| e.to_string())?;
        let (evaluated, hits) = (self.conditions.evaluations(), self.conditions.hits());
        cmt.apply_incremental(&mut model.clone(), &mut self.conditions)
            .map_err(|e| e.to_string())?;
        self.out.ocl_evaluations += self.conditions.evaluations() - evaluated;
        self.out.ocl_hits += self.conditions.hits() - hits;
        Ok(())
    }

    /// After a successful apply: commits the new state with the apply's
    /// own delta, and exports it.
    pub fn after_apply(&mut self, mda: &MdaLifecycle) -> Result<(), String> {
        let step = mda.applied().last().ok_or("nothing applied")?;
        let delta = CommitDelta {
            created: step.report.created.clone(),
            modified: step.report.modified.clone(),
            removed: step.report.removed.clone(),
        };
        let (msg, concern) = (step.cmt.full_name(), step.cmt.concern());
        let model = mda.model();
        let (r, t) = timed(|| match &mut self.repo {
            Repo::Memory(r) => r.commit_with_delta(model, &msg, Some(concern), delta),
            Repo::Durable(d) => d.commit_with_delta(model, &msg, Some(concern), delta),
        });
        r.map_err(|e| e.to_string())?;
        self.out.commit.push(t);
        self.snapshot(model);
        Ok(())
    }

    /// After a successful undo: steps the probe's repository back.
    pub fn after_undo(&mut self) -> Result<(), String> {
        let (r, t) = timed(|| match &mut self.repo {
            Repo::Memory(r) => r.undo(),
            Repo::Durable(d) => d.undo(),
        });
        r.ok_or("probe repository has no step to undo")?.map_err(|e| e.to_string())?;
        self.out.undo.push(t);
        self.conditions.invalidate_all();
        Ok(())
    }

    /// At the first generate of a state, given what it produced: a cold
    /// weave, a cold content hash and every backend's cold render.
    /// Returns the cold render of `system`'s backend.
    pub fn at_generate(
        &mut self,
        mda: &MdaLifecycle,
        system: &GeneratedSystem,
        bodies: &BodyProvider,
    ) -> Result<String, String> {
        let model = mda.model();
        let aspects = mda.aspects();
        let (woven, t) = timed(|| {
            IncrementalWeaver::new(Weaver::new(aspects)).weave_at(
                model.revision(),
                &system.functional,
                None,
            )
        });
        woven.map_err(|e| e.to_string())?;
        self.out.weave.push(t);
        let (_, t) = timed(|| GenCache::new().content_hash(model));
        self.out.content_hash.push(t);
        let concerns: Vec<String> =
            mda.applied().iter().map(|a| a.cmt.concern().to_owned()).collect();
        let input = GenInput {
            model,
            functional: &system.functional,
            woven: &system.woven,
            concerns: &concerns,
            bodies,
        };
        let mut cold = String::new();
        for backend in Backend::ALL {
            let generator = self.factory.get(backend).ok_or("unregistered backend")?;
            let (artifact, t) = timed(|| generator.generate(&input));
            self.out.backend_render.entry(backend.id()).or_default().push(t);
            if backend == system.backend {
                cold = artifact;
            }
        }
        Ok(cold)
    }

    /// At a snapshot: exports the state.
    pub fn snapshot(&mut self, model: &Model) {
        let (xmi, t) = timed(|| comet_xmi::export_model(model));
        self.out.export.push(t);
        self.out.export_bytes.push(xmi.len() as f64);
    }

    /// At a query batch: answers it on the state.
    pub fn query(&mut self, model: &Model, selectors: &[QuerySelector]) {
        let (n, t) = timed(|| {
            selectors
                .iter()
                .map(|s| match s {
                    QuerySelector::Classes => model.classes().len(),
                    QuerySelector::Stereotype(st) => model.stereotyped(st).len(),
                    QuerySelector::Operations(c) => {
                        model.find_classifier(c).map_or(0, |id| model.operations_of(id).len())
                    }
                })
                .sum::<usize>()
        });
        std::hint::black_box(n);
        self.out.query.push(t);
    }
}

/// The layer metrics read from spans and probes. `engine_us` is the
/// summed wall time of the traced engine calls whose spans `spans` holds.
pub fn put(spans: &SpanTimes, engine_us: f64, lt: &LayerTimes, out: &mut Outcome) {
    out.put("transform.apply_us", spans.per_span("transform", "apply:"), "us");
    out.put("codegen.functional_us", spans.per_span("codegen", "functional"), "us");
    out.put("aspectgen.render_us", spans.per_span("codegen", "render:aspects"), "us");
    out.put("lifecycle.apply_self_us", spans.per_span("lifecycle", "concern:"), "us");
    out.put("lifecycle.generate_self_us", spans.per_span("lifecycle", "generate"), "us");
    out.put("unattributed.share", 1.0 - ratio(spans.layered_us(), engine_us), "ratio");
    out.put("ocl.evaluations", lt.ocl_evaluations as f64, "count");
    let hit_ratio = ratio(lt.ocl_hits as f64, (lt.ocl_hits + lt.ocl_evaluations) as f64);
    out.put("ocl.cache_hit_ratio", hit_ratio, "ratio");
    out.put("xmi.export_us", med(&lt.export), "us");
    out.put("xmi.bytes", med(&lt.export_bytes), "bytes");
    out.put("repo.commit_us", med(&lt.commit), "us");
    out.put("repo.undo_us", med(&lt.undo), "us");
    out.put("aop.weave_us", med(&lt.weave), "us");
    for b in Backend::ALL {
        let samples = lt.backend_render.get(b.id()).map_or(&[][..], Vec::as_slice);
        out.put(format!("gen.render_us.{}", b.id()), med(samples), "us");
    }
    out.put("gen.content_hash_us", med(&lt.content_hash), "us");
    out.put("model.query_us", med(&lt.query), "us");
}
