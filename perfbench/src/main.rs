//! COMET end-to-end benchmark.
//!
//! ```text
//! comet-perfbench --workload <refine-large|durable-journal>
//!                 --seed N --seconds S --trace <0|1> --data DIR
//! ```
//!
//! Runs one workload in this process, on one shard, with the rayon pool
//! pinned to one thread, and prints one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer table with `--trace 1`.
//! Output checks that fail make the line say `"correct": false`.
//! `DIR` holds the run's journals and is left for the caller to remove.
//!
//! A run does a fixed amount of work for its `--seconds` (whole
//! refinement cycles or serve rounds), so its counts and its memory
//! depend only on its arguments. Every time measured in a unit of work
//! is scaled to the speed of the undisturbed host (see [`host`]).

mod engine;
mod host;
mod layers;
mod refine;
mod report;
mod serve;
mod stats;

use report::Outcome;
use std::path::PathBuf;

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What a run measured for the end-to-end metrics.
#[derive(Default)]
pub struct Series {
    /// Request latencies (µs) by kind, indexed as [`KINDS`]; a failed
    /// request counts with the time it took to fail.
    pub kinds: [Vec<f64>; 5],
    /// Every operation's µs.
    pub ops: Vec<f64>,
    /// Whole set-ups and restarts (µs).
    pub setup: Vec<f64>,
    pub recover: Vec<f64>,
    /// Operations completed in the measured phase, and its wall µs.
    pub done: u64,
    pub wall_us: f64,
}

/// Names of [`Series::kinds`], and their indices.
pub const KINDS: [&str; 5] = ["apply", "undo", "snapshot", "generate", "generate_repeat"];
pub const APPLY: usize = 0;
pub const UNDO: usize = 1;
pub const SNAPSHOT: usize = 2;
pub const GENERATE: usize = 3;
pub const GENERATE_REPEAT: usize = 4;

impl Series {
    /// Multiplies every time in the series by `factor` (see [`host`]).
    pub fn scale(&mut self, factor: f64) {
        let lists =
            self.kinds.iter_mut().chain([&mut self.ops, &mut self.setup, &mut self.recover]);
        for t in lists.flatten() {
            *t *= factor;
        }
        self.wall_us *= factor;
    }

    /// Appends `other`'s samples and adds its totals.
    pub fn absorb(&mut self, other: Series) {
        for (mine, theirs) in self.kinds.iter_mut().zip(other.kinds) {
            mine.extend(theirs);
        }
        self.ops.extend(other.ops);
        self.setup.extend(other.setup);
        self.recover.extend(other.recover);
        self.done += other.done;
        self.wall_us += other.wall_us;
    }

    /// Every end-to-end metric, or an error naming the first one
    /// without enough samples.
    pub fn put(&self, ok: u64, attempted: u64, out: &mut Outcome) -> Result<(), String> {
        let setup = stats::summary("setup", &self.setup, 50.0, stats::MIN_REPEATS)?;
        out.put("setup_s", setup / 1e6, "s");
        out.put("ops_per_s", stats::ratio(self.done as f64, self.wall_us) * 1e6, "1/s");
        for (k, kind) in KINDS.iter().enumerate() {
            let p50 = stats::summary(kind, &self.kinds[k], 50.0, stats::needed_for(50.0))?;
            out.put(format!("{kind}_p50_us"), p50, "us");
        }
        let p99 = stats::summary("op", &self.ops, 99.0, stats::needed_for(99.0))?;
        out.put("op_p99_us", p99, "us");
        out.put("success_rate", stats::ratio(ok as f64, attempted as f64), "ratio");
        out.put("peak_rss_mib", peak_rss_mib(), "MiB");
        let recover = stats::summary("recover", &self.recover, 50.0, stats::MIN_REPEATS)?;
        out.put("recover_s", recover / 1e6, "s");
        Ok(())
    }
}

/// Whole units of work (cycles, rounds) a run of `seconds` does at
/// `per_second`, and never fewer than `least`. A run's work is fixed by
/// its arguments, so its counts and its memory depend only on them.
pub fn units_for(seconds: f64, per_second: f64, least: u64) -> u64 {
    ((seconds * per_second).ceil() as u64).max(least)
}

/// A run that has not finished its fixed work by then is hung.
pub const HANG_S: f64 = 150.0;

/// An error once `started` is [`HANG_S`] in the past.
pub fn hang_guard(started: std::time::Instant) -> Result<(), String> {
    let elapsed = started.elapsed().as_secs_f64();
    if elapsed > HANG_S {
        return Err(format!("fixed work not done after {elapsed:.0} s"));
    }
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    data: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut data) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?),
            "--trace" => trace = Some(value == "1"),
            "--data" => data = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        data: data.ok_or("--data is required")?,
    })
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        std::fs::create_dir_all(&args.data).map_err(|e| e.to_string())?;
        eprintln!(
            "host: nproc={} threads=1 shards=1 commit={} workload={} seed={}",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            std::env::var("COMET_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned()),
            args.workload,
            args.seed
        );
        // One worker thread: the weaver's parallel map runs inline, so
        // a run occupies one core and shard workers spawn no threads.
        let pool =
            rayon::ThreadPoolBuilder::new().num_threads(1).build().map_err(|e| e.to_string())?;
        pool.install(|| match args.workload.as_str() {
            "durable-journal" => serve::run(args.seed, args.seconds, args.trace, &args.data),
            "refine-large" => refine::run(args.seed, args.seconds, args.trace, &args.data),
            other => Err(format!("unknown workload `{other}`")),
        })
    });
    match outcome {
        Ok(out) => {
            for p in &out.problems {
                eprintln!("check failed: {p}");
            }
            println!("{}", out.to_json());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_whose_every_op_failed_still_prints_a_json_result() {
        let mut s = Series { done: 0, wall_us: 1e6, ..Series::default() };
        for k in 0..KINDS.len() {
            s.kinds[k] = vec![12.5; 40];
        }
        s.ops = vec![12.5; 1000];
        s.setup = vec![900.0; 5];
        s.recover = vec![700.0; 5];
        let mut out = Outcome { attempted: 1000, failed: 1000, ..Outcome::default() };
        s.put(0, 1000, &mut out).unwrap();
        out.put("nan", f64::NAN, "ratio");
        out.put("inf", f64::INFINITY, "us");
        let line = out.to_json();
        assert!(line.contains("\"success_rate\": {\"value\": 0.0, "), "{line}");
        assert!(line.contains("\"op_p99_us\": {\"value\": 12.5, "), "{line}");
        assert!(line.contains("\"nan\": {\"value\": null, "), "{line}");
        assert!(line.contains("\"inf\": {\"value\": null, "), "{line}");
        assert!(!line.contains("inf,") && !line.contains("NaN"), "{line}");
    }
}
