//! # aladin-e2ebench
//!
//! The repository's end-to-end benchmark. One run generates a world from its
//! seed with `aladin-datagen` and drives the public API along the whole path:
//! source dumps → batch integration (`import`, structure discovery, the four
//! link phases, duplicates, the worker pool) → a durable warehouse that gains
//! held-out sources, refreshes a changed one, crashes and reopens
//! (`relstore::persist`/`wal`, `Server::resume`) → one reader beside one
//! live writer (`core::serve`, `core::access`, relstore's parse, analyze,
//! optimize and execute).
//!
//! A timed run (`trace = false`) reports the end-to-end metrics. A traced
//! run reports the per-layer metrics: it executes the phases once with
//! spans, measures what a span costs a served read, then replays every
//! layer's public functions inside spans.
//! See `DESIGN.md` beside this crate for the metric map.

mod calibrate;
mod layers;
mod phases;
mod stats;
mod trace;
pub mod workload;

use aladin_core::eval::LinkEvaluation;
use calibrate::Clock;
use phases::{Evolved, Tally};
use stats::{mean, median};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Inputs, ReadSpace, Scale, Workload};

/// End-to-end metrics and their units, in output order.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("integrate_s", "s"),
    ("link_precision", "ratio"),
    ("link_recall", "ratio"),
    ("implicit_recall", "ratio"),
    ("duplicate_precision", "ratio"),
    ("duplicate_recall", "ratio"),
    ("add_source_s", "s"),
    ("refresh_s", "s"),
    ("reopen_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("read_ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run and their units, in output order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("import.s", "s"),
    ("import.rows", "count"),
    ("import.quarantined", "count"),
    ("structure.s", "s"),
    ("links.explicit_s", "s"),
    ("links.sequence_s", "s"),
    ("links.text_s", "s"),
    ("links.shared_term_s", "s"),
    ("links.explicit_count", "count"),
    ("links.sequence_count", "count"),
    ("links.text_count", "count"),
    ("links.shared_term_count", "count"),
    ("links.sequence_useful_ratio", "ratio"),
    ("links.text_useful_ratio", "ratio"),
    ("links.cap_hits", "count"),
    ("duplicates.s", "s"),
    ("duplicates.candidates_scored", "count"),
    ("duplicates.yield", "ratio"),
    ("parallel.efficiency", "ratio"),
    ("persist.snapshot_write_s", "s"),
    ("persist.snapshot_read_s", "s"),
    ("persist.bytes_per_input_byte", "ratio"),
    ("recovery.snapshot_load_s", "s"),
    ("recovery.reintegrate_s", "s"),
    ("serve.snapshot_build_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.publishes", "count"),
    ("serve.publish_s", "s"),
    ("serve.read_p99_during_publish_ms", "ms"),
    ("serve.read_p99_idle_ms", "ms"),
    ("serve.read_samples", "count"),
    ("serve.key_space", "count"),
    ("serve.max_distinct_reads_per_generation", "count"),
    ("access.point_us", "us"),
    ("access.search_us", "us"),
    ("access.follow_us", "us"),
    ("access.view_us", "us"),
    ("access.join_us", "us"),
    ("relstore.parse_us", "us"),
    ("relstore.analyze_us", "us"),
    ("relstore.optimize_us", "us"),
    ("relstore.execute_us", "us"),
    ("relstore.rows_returned", "count"),
    ("host.cpu_s", "s"),
    ("host.steal_s", "s"),
    ("host.slowdown", "ratio"),
    ("trace.read_overhead_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a timed one.
    pub trace: bool,
    /// World size.
    pub scale: Scale,
    /// Scratch directory for durable warehouses; removed afterwards.
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans (JSON lines).
    pub trace_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every correctness gate held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics; empty when a gate broke.
    pub metrics: Vec<Metric>,
    /// Messages of the broken gates.
    pub broken: Vec<String>,
}

impl Report {
    fn new(
        tally: Tally,
        values: Vec<(&'static str, f64)>,
        table: &[(&'static str, &'static str)],
    ) -> Report {
        let mut broken = tally.broken;
        if tally.failed > 0 && broken.is_empty() {
            broken.push(format!("{} operations failed", tally.failed));
        }
        let mut metrics = Vec::new();
        for (name, unit) in table {
            match values.iter().find(|(n, _)| n == name) {
                Some((_, v)) if v.is_finite() => metrics.push(Metric {
                    name,
                    value: *v,
                    unit,
                }),
                _ => broken.push(format!("metric {name} was not measured")),
            }
        }
        let correct = broken.is_empty();
        Report {
            correct,
            attempted: tally.attempted.max(1),
            failed: tally.failed,
            metrics: if correct { metrics } else { Vec::new() },
            broken,
        }
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run the benchmark.
pub fn run(options: &Options) -> Report {
    let _ = std::fs::remove_dir_all(&options.work_dir);
    let report = if options.trace {
        run_traced(options)
    } else {
        run_timed(options)
    };
    let _ = std::fs::remove_dir_all(&options.work_dir);
    report
}

/// Set up: generate the inputs of rendering `seed` and pre-build, in the
/// work directory's `name`, the durable warehouse the evolution starts from.
fn setup(
    options: &Options,
    seed: u64,
    name: &str,
    clock: &mut Clock,
    tally: &mut Tally,
) -> (Inputs, Option<phases::Base>, f64) {
    let ((inputs, base), elapsed) = clock.time(|| {
        let inputs = Inputs::generate(&options.workload, seed, options.scale);
        let base = phases::prebuild(&inputs, &options.work_dir.join(name));
        (inputs, base)
    });
    let base = base
        .map_err(|e| {
            tally.op(false);
            tally.gate(e);
        })
        .ok();
    (inputs, base, elapsed)
}

/// Renderings of the world a timed run's rounds take in turn. The seed
/// decides how the sources render the world, and so how much work each
/// phase does: alone, it moved `reopen_s` by about 13% and the quality
/// ratios by up to 10% between seeds. A run reports the mean over its
/// renderings, which moves less.
const RENDERINGS: usize = 4;

/// Rounds a timed run makes at least: every rendering once, and one twice,
/// so the repeatability gates compare something.
const MIN_ROUNDS: usize = RENDERINGS + 1;

/// Rounds a timed run makes at most.
const MAX_ROUNDS: usize = 20;

/// The seed of rendering `k` of a run on `seed`; rendering 0 is `seed`.
fn rendering_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The values of the rounds of each rendering (round `i` renders
/// `i % RENDERINGS`).
fn by_rendering(values: &[f64]) -> impl Iterator<Item = Vec<f64>> + '_ {
    (0..RENDERINGS.min(values.len()))
        .map(|k| values.iter().skip(k).step_by(RENDERINGS).copied().collect())
}

/// Reader time per round.
fn serve_slice(options: &Options) -> Duration {
    Duration::from_secs_f64((options.seconds / 32.0).max(0.25))
}

/// A timed run is a sequence of rounds until the budget is spent. Each
/// round sets up, batch-integrates, evolves the durable warehouse and
/// serves from it for a slice of time, so every metric's samples spread
/// over the whole run and meet the same host conditions.
///
/// Round `i` takes rendering `i % RENDERINGS` of the world. Every phase
/// is timed in seconds at the reference speed (see [`calibrate`]), the
/// reads too. Every timing, `setup_s` included, is the mean over the
/// renderings of its mean over their rounds; the quality ratios are the
/// mean over the renderings.
fn run_timed(options: &Options) -> Report {
    let tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let mut samples = phases::ReadSamples::default();
    let mut per_round: Vec<(&'static str, Vec<f64>)> = [
        "setup_s",
        "integrate_s",
        "add_source_s",
        "refresh_s",
        "reopen_s",
        "read_p50_ms",
        "read_p99_ms",
        "read_ops_per_s",
    ]
    .into_iter()
    .map(|name| (name, Vec::new()))
    .collect();
    let mut push = |name: &str, value: f64| {
        if let Some((_, values)) = per_round.iter_mut().find(|(n, _)| *n == name) {
            values.push(value);
        }
    };
    let (mut integrated, mut reopened) = (Vec::new(), Vec::new());
    let mut scores: Vec<[f64; 5]> = Vec::new();
    let (mut reads, mut publishes, mut key_space) = (0, 0, 0);
    let mut clock = Clock::new(true);
    let budget = Duration::from_secs_f64(options.seconds);
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || (start.elapsed() < budget && round < MAX_ROUNDS) {
        let seed = rendering_seed(options.seed, round % RENDERINGS);
        let name = format!("durable-{round}");
        let (inputs, base, setup) = setup(options, seed, &name, &mut clock, &mut tally);
        push("setup_s", setup);
        let Some(base) = base else { break };

        // Batch integration: the discovery output must not change between
        // rounds of a rendering.
        let Some(run) = phases::integrate(&inputs, &mut clock, &tracer, &mut tally) else {
            break;
        };
        push("integrate_s", run.integrate_s);
        integrated.push(phases::fingerprint(&run.aladin));
        if round < RENDERINGS {
            scores.push(quality_ratios(&phases::quality(&run.aladin, &inputs)));
        }
        drop(run);

        // Durable evolution, crash and reopen.
        let Some(evolved) = phases::evolve(base, &inputs, &mut clock, &tracer, &mut tally) else {
            break;
        };
        push("add_source_s", evolved.add_s);
        push("refresh_s", evolved.refresh_s);
        push("reopen_s", evolved.reopen_s);
        reopened.push(phases::fingerprint(
            evolved.server.snapshot().warehouse().aladin(),
        ));

        // Live serving over the reopened warehouse.
        samples.clear();
        let served = phases::serve_live(
            &evolved.server,
            &inputs,
            &options.workload,
            options.seed.wrapping_add(round as u64),
            serve_slice(options),
            &mut clock,
            &mut samples,
            &tracer,
            &mut tally,
        );
        let Evolved { server, dir, .. } = evolved;
        drop(server);
        let _ = std::fs::remove_dir_all(dir);
        let Some(served) = served else { break };
        let slice = samples.summary();
        push("read_p50_ms", slice.p50_ms);
        push("read_p99_ms", slice.p99_ms);
        push("read_ops_per_s", slice.reads as f64 / served.reading_s);
        reads += slice.reads;
        publishes += served.publish_s.len();
        key_space = served.key_space;
        round += 1;
    }
    for (what, prints) in [
        ("batch integration", &integrated),
        ("durable evolution", &reopened),
    ] {
        // Round `i` repeats the rendering of round `i - RENDERINGS`.
        let mut repeats = prints.iter().zip(prints.iter().skip(RENDERINGS));
        if repeats.any(|(a, b)| a != b) {
            tally.gate(format!(
                "{what} is not repeatable: link/duplicate fingerprints differ"
            ));
        }
    }

    // The per-round values, for a reader who wants more than the means.
    let rounds: Vec<String> = per_round
        .iter()
        .map(|(name, values)| {
            let values: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
            format!("\"{name}\": [{}]", values.join(", "))
        })
        .collect();
    eprintln!("rounds: {{{}}}", rounds.join(", "));
    let marks: Vec<String> = clock.marks().iter().map(|v| format!("{v:.3}")).collect();
    eprintln!("host slowdown at every mark: [{}]", marks.join(", "));
    eprintln!(
        "{round} rounds; {reads} reads over {key_space} distinct keys; {publishes} publishes"
    );

    let mut values: Vec<(&'static str, f64)> = per_round
        .iter()
        .map(|(name, values)| {
            let means: Vec<f64> = by_rendering(values).map(|v| mean(&v)).collect();
            (*name, mean(&means))
        })
        .collect();
    // Net of the latency buffer, which is resident for the whole run.
    values.push((
        "peak_rss_mb",
        host::peak_rss_mb() - samples.bytes() as f64 / host::MIB,
    ));
    if !scores.is_empty() {
        let names = [
            "link_precision",
            "link_recall",
            "implicit_recall",
            "duplicate_precision",
            "duplicate_recall",
        ];
        for (i, name) in names.into_iter().enumerate() {
            let of_each: Vec<f64> = scores.iter().map(|s| s[i]).collect();
            values.push((name, mean(&of_each)));
        }
    }
    Report::new(tally, values, &END_TO_END)
}

/// Link precision and recall, implicit recall, duplicate precision and
/// recall, in the order [`run_timed`] names them.
fn quality_ratios(q: &LinkEvaluation) -> [f64; 5] {
    [
        q.explicit_links.precision(),
        q.explicit_links.recall(),
        q.withheld_recall,
        q.duplicates.precision(),
        q.duplicates.recall(),
    ]
}

fn run_traced(options: &Options) -> Report {
    let cpu_start = host::process_cpu_s();
    let steal_start = host::steal_s();
    let slowdown_start = calibrate::slowdown();
    let on = Tracer::new(true);
    let mut clock = Clock::new(false);
    let mut tally = Tally::default();
    let (inputs, base, _) = setup(options, options.seed, "durable", &mut clock, &mut tally);
    let Some(base) = base else {
        return Report::new(tally, Vec::new(), &PER_LAYER);
    };

    // Integration and evolution get a few spans around whole calls; the
    // pair stage inside `add_databases` has none, so its wall time is the
    // untraced one `parallel.efficiency` divides by.
    let integrated = phases::integrate(&inputs, &mut clock, &on, &mut tally);
    let evolved = phases::evolve(base, &inputs, &mut clock, &on, &mut tally);
    let (Some(integrated), Some(evolved)) = (integrated, evolved) else {
        return Report::new(tally, Vec::new(), &PER_LAYER);
    };

    let mut samples = phases::ReadSamples::default();
    let served = phases::serve_live(
        &evolved.server,
        &inputs,
        &options.workload,
        options.seed,
        serve_slice(options) * 8,
        &mut clock,
        &mut samples,
        &on,
        &mut tally,
    );
    let read_summary = samples.summary();
    drop(samples);
    let snapshot = evolved.server.snapshot();
    let space = ReadSpace::build(
        &snapshot,
        &inputs.words,
        options.seed,
        options.workload.hot_keys_per_kind,
    );
    let overhead = layers::trace_overhead(&evolved.server, &space, options.seed, &mut tally);
    let reads = layers::replay_reads(&snapshot, &space, options.seed, 3000, &on, &mut tally);
    drop(snapshot);
    let Evolved {
        server,
        dir,
        dir_bytes,
        ..
    } = evolved;
    drop(server);
    layers::replay_recovery(&dir, &on, &mut tally);

    let (sources, imported) = layers::import_and_analyze(&inputs, &on, &mut tally);
    let pairs = layers::replay_pairs(&sources, &integrated.aladin.metrics(), &on, &mut tally);
    layers::replay_persist(&sources, &options.work_dir.join("persist"), &on, &mut tally);

    let ratio = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let pair_s = on.total_s("pair");
    let recovery_open = on.total_s("recovery.open");
    let snapshot_load = on.total_s("recovery.snapshot_load");
    let mut values: Vec<(&'static str, f64)> = vec![
        ("import.s", on.total_s("import")),
        ("import.rows", imported.rows as f64),
        ("import.quarantined", imported.quarantined as f64),
        ("structure.s", on.total_s("structure")),
        ("links.explicit_s", on.total_s("links.explicit")),
        ("links.sequence_s", on.total_s("links.sequence")),
        ("links.text_s", on.total_s("links.text")),
        ("links.shared_term_s", on.total_s("links.shared_term")),
        ("links.explicit_count", pairs.links[0] as f64),
        ("links.sequence_count", pairs.links[1] as f64),
        ("links.text_count", pairs.links[2] as f64),
        ("links.shared_term_count", pairs.links[3] as f64),
        (
            "links.sequence_useful_ratio",
            ratio(pairs.sequence_useful, pairs.pairs),
        ),
        (
            "links.text_useful_ratio",
            ratio(pairs.text_useful, pairs.pairs),
        ),
        ("links.cap_hits", pairs.cap_hits as f64),
        ("duplicates.s", on.total_s("duplicates")),
        (
            "duplicates.candidates_scored",
            pairs.candidates_scored as f64,
        ),
        (
            "duplicates.yield",
            ratio(pairs.duplicates, pairs.candidates_scored),
        ),
        (
            "parallel.efficiency",
            pair_s / (phases::batch_config().workers as f64 * integrated.add_s),
        ),
        ("persist.snapshot_write_s", on.total_s("persist.write")),
        ("persist.snapshot_read_s", on.total_s("persist.read")),
        (
            "persist.bytes_per_input_byte",
            dir_bytes as f64 / inputs.corpus.byte_size() as f64,
        ),
        ("recovery.snapshot_load_s", snapshot_load),
        ("recovery.reintegrate_s", recovery_open - snapshot_load),
        ("serve.snapshot_build_s", on.total_s("serve.snapshot_build")),
        ("access.point_us", reads.access_us[0]),
        ("access.search_us", reads.access_us[1]),
        ("access.follow_us", reads.access_us[2]),
        ("access.view_us", reads.access_us[3]),
        ("access.join_us", reads.access_us[4]),
        ("relstore.parse_us", reads.relstore_us[0]),
        ("relstore.analyze_us", reads.relstore_us[1]),
        ("relstore.optimize_us", reads.relstore_us[2]),
        ("relstore.execute_us", reads.relstore_us[3]),
        ("relstore.rows_returned", reads.rows_returned as f64),
        ("trace.read_overhead_us", overhead.per_read_us),
        ("trace.overhead_ratio", overhead.ratio),
    ];
    if let Some(s) = &served {
        let m = &s.metrics;
        values.extend([
            (
                "serve.cache_hit_ratio",
                ratio(
                    m.cache_hits as usize,
                    (m.cache_hits + m.cache_misses) as usize,
                ),
            ),
            ("serve.cache_evictions", m.cache_evictions as f64),
            ("serve.publishes", m.snapshots_published as f64),
            ("serve.publish_s", median(&s.publish_s)),
            // A side without reads is not measured, not perfect.
            (
                "serve.read_p99_during_publish_ms",
                read_summary.p99_during_publish_ms.unwrap_or(f64::NAN),
            ),
            (
                "serve.read_p99_idle_ms",
                read_summary.p99_idle_ms.unwrap_or(f64::NAN),
            ),
            ("serve.read_samples", s.reads as f64),
            ("serve.key_space", s.key_space as f64),
            (
                "serve.max_distinct_reads_per_generation",
                s.max_distinct_per_generation as f64,
            ),
        ]);
    }
    values.extend([
        ("host.cpu_s", host::process_cpu_s() - cpu_start),
        ("host.steal_s", host::steal_s() - steal_start),
        (
            "host.slowdown",
            (slowdown_start + calibrate::slowdown()) / 2.0,
        ),
        (
            "error_rate",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        ),
    ]);
    if let Some(path) = &options.trace_out {
        if let Err(e) = on.write_jsonl(path) {
            tally.gate(format!("writing the spans failed: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    eprintln!(
        "trace: {} spans; a span costs a served read {:.3} us ({:.1}%)",
        on.spans().len(),
        overhead.per_read_us,
        overhead.ratio * 100.0
    );
    Report::new(tally, values, &PER_LAYER)
}

/// Host counters from `/proc` (Linux). They are not program metrics; they
/// let a reader tell host noise from a code change.
pub mod host {
    /// Bytes per MiB, the unit of [`peak_rss_mb`].
    pub const MIB: f64 = 1024.0 * 1024.0;

    /// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, 100 on
    /// Linux for every architecture this benchmark runs on).
    const TICKS_PER_S: f64 = 100.0;

    /// Peak resident set size of this process in MiB (`VmHWM`).
    pub fn peak_rss_mb() -> f64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|status| {
                status
                    .lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
            .map_or(f64::NAN, |kb| kb * 1024.0 / MIB)
    }

    /// User plus system CPU seconds of this process so far.
    pub fn process_cpu_s() -> f64 {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|stat| {
                let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
                let utime: f64 = fields.get(11)?.parse().ok()?;
                let stime: f64 = fields.get(12)?.parse().ok()?;
                Some((utime + stime) / TICKS_PER_S)
            })
            .unwrap_or(f64::NAN)
    }

    /// Seconds of CPU time stolen from this machine's CPUs by the
    /// hypervisor so far, summed over CPUs.
    pub fn steal_s() -> f64 {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| {
                let line = stat.lines().next()?;
                let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
                Some(steal / TICKS_PER_S)
            })
            .unwrap_or(f64::NAN)
    }
}
