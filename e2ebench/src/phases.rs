//! The timed phases of a run: batch integration, durable evolution (with a
//! crash and reopen), and live serving with one reader beside one writer.
//! Each phase checks its own correctness gates and counts every operation
//! it attempts.

use crate::calibrate::Clock;
use crate::stats::SplitMix;
use crate::trace::Tracer;
use crate::workload::{
    Inputs, Read, ReadKind, ReadSpace, Workload, HELD_OUT, REFRESHED, WRITER_SOURCE,
};
use aladin_core::eval::{evaluate_links, LinkEvaluation};
use aladin_core::{Aladin, AladinConfig, ServeConfig, ServeMetrics, Server};
use aladin_relstore::Database;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Operations attempted and failed, plus the correctness gates that did not
/// hold. A failed gate makes the whole run report as failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors, quarantined sources, failed or
    /// inconsistent reads).
    pub failed: u64,
    /// Gates that did not hold, as messages.
    pub broken: Vec<String>,
}

impl Tally {
    /// Count one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a broken correctness gate.
    pub fn gate(&mut self, message: impl Into<String>) {
        self.broken.push(message.into());
    }
}

/// Configuration of batch integration: two pipeline workers (one per CPU
/// of the reference machine), blocked duplicate candidates (the default).
pub fn batch_config() -> AladinConfig {
    AladinConfig {
        workers: 2,
        ..AladinConfig::default()
    }
}

/// Configuration of the durable warehouse. One pipeline worker: the live
/// writer shares the machine with a reader, so writer plus reader use the
/// two CPUs. Persistence fsyncs on every commit, as shipped.
pub fn durable_config(dir: &Path) -> AladinConfig {
    AladinConfig {
        workers: 1,
        data_dir: Some(dir.to_path_buf()),
        ..AladinConfig::default()
    }
}

/// Order-independent digest of every discovered link and duplicate.
pub fn fingerprint(aladin: &Aladin) -> u64 {
    let mut lines: Vec<String> = aladin
        .metadata()
        .links()
        .iter()
        .chain(aladin.metadata().duplicates())
        .map(|l| format!("{:?}", l))
        .collect();
    lines.sort();
    crate::stats::fnv1a(lines.join("\n").as_bytes())
}

/// One batch integration from the dumps.
pub struct Integrated {
    /// The integrated warehouse.
    pub aladin: Aladin,
    /// Time from dumps to committed warehouse (see [`Clock::time`]).
    pub integrate_s: f64,
    /// Wall time of `add_databases` alone.
    pub add_s: f64,
}

/// Import every dump and batch-integrate them in memory.
pub fn integrate(
    inputs: &Inputs,
    clock: &mut Clock,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Option<Integrated> {
    let op = tracer.next_id();
    let (outcome, integrate_s) = clock.time(|| {
        tracer.span("integrate", None, op, |id| {
            let dbs = tracer.span("integrate.import", Some(id), op, |_| {
                inputs.corpus.import_all()
            });
            let dbs = dbs.map_err(|e| format!("import failed: {e}"))?;
            let mut aladin = Aladin::new(batch_config());
            let add_start = Instant::now();
            tracer
                .span("integrate.add_databases", Some(id), op, |_| {
                    aladin.add_databases(dbs)
                })
                .map_err(|e| format!("integration failed: {e}"))?;
            Ok::<_, String>((aladin, add_start.elapsed().as_secs_f64()))
        })
    });
    match outcome {
        Ok((aladin, add_s)) => {
            let failures = aladin.metrics().failures.len();
            tally.op(failures == 0);
            if failures > 0 {
                tally.gate(format!("integration contained {failures} pair failures"));
            }
            Some(Integrated {
                aladin,
                integrate_s,
                add_s,
            })
        }
        Err(e) => {
            tally.op(false);
            tally.gate(e);
            None
        }
    }
}

/// Quality of an integrated warehouse against the generator's truth.
pub fn quality(aladin: &Aladin, inputs: &Inputs) -> LinkEvaluation {
    evaluate_links(aladin, &inputs.truth)
}

/// A durable warehouse of every source but the held-out ones, being served.
pub struct Base {
    /// The server over the durable warehouse.
    pub server: Server,
    /// Its data directory.
    pub dir: PathBuf,
}

/// Pre-build the durable warehouse the evolution phase starts from.
pub fn prebuild(inputs: &Inputs, dir: &Path) -> Result<Base, String> {
    let _ = std::fs::remove_dir_all(dir);
    let dbs = inputs
        .corpus
        .sources
        .iter()
        .filter(|s| !HELD_OUT.contains(&s.name.as_str()))
        .map(|s| s.import())
        .collect::<Result<Vec<Database>, _>>()
        .map_err(|e| format!("import failed: {e}"))?;
    let mut aladin = Aladin::new(durable_config(dir));
    aladin
        .add_databases(dbs)
        .map_err(|e| format!("durable base build failed: {e}"))?;
    let server = Server::start(aladin, ServeConfig::default())
        .map_err(|e| format!("serving the base failed: {e}"))?;
    Ok(Base {
        server,
        dir: dir.to_path_buf(),
    })
}

/// Timings of one durable evolution (see [`Clock::time`]).
pub struct Evolved {
    /// The server after the crash and reopen.
    pub server: Server,
    /// Its data directory.
    pub dir: PathBuf,
    /// Adding the held-out sources, one at a time (import included).
    pub add_s: f64,
    /// Refreshing the changed source (import excluded, persist included).
    pub refresh_s: f64,
    /// `Server::resume` until the first snapshot is served.
    pub reopen_s: f64,
    /// Data-directory bytes before the crash.
    pub dir_bytes: u64,
}

/// Add the held-out sources, refresh a changed source, crash (drop all
/// process state) and reopen. Gates: the reopened warehouse fingerprints
/// equal to the pre-crash one, and its generation is not below the last
/// published one.
pub fn evolve(
    base: Base,
    inputs: &Inputs,
    clock: &mut Clock,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Option<Evolved> {
    let Base { server, dir } = base;
    let op = tracer.next_id();
    let mut add_s = 0.0;
    for name in HELD_OUT {
        let dump = inputs.corpus.source(name)?;
        let (outcome, s) = clock.time(|| {
            tracer.span("evolve.add_source", None, op, |_| {
                let db = dump.import().map_err(|e| e.to_string())?;
                server.add_database(db).map_err(|e| e.to_string())
            })
        });
        add_s += s;
        tally.op(outcome.is_ok());
        if let Err(e) = outcome {
            tally.gate(format!("adding '{name}' failed: {e}"));
            return None;
        }
    }

    let changed = inputs.changed.source(REFRESHED)?.import();
    let Ok(changed) = changed else {
        tally.op(false);
        tally.gate("importing the changed release failed");
        return None;
    };
    let (refreshed, refresh_s) = clock.time(|| {
        tracer.span("evolve.refresh", None, op, |_| {
            server.refresh_source(changed, 1.0)
        })
    });
    tally.op(matches!(refreshed, Ok(Some(_))));
    if !matches!(refreshed, Ok(Some(_))) {
        tally.gate(format!("refreshing '{REFRESHED}' did not re-integrate"));
        return None;
    }

    let before = fingerprint(server.snapshot().warehouse().aladin());
    let published = server.generation();
    let dir_bytes = dir_size(&dir);
    drop(server);

    let (resumed, reopen_s) = clock.time(|| {
        tracer.span("evolve.reopen", None, op, |_| {
            Server::resume(durable_config(&dir), ServeConfig::default())
        })
    });
    let (server, recovery) = match resumed {
        Ok(r) => r,
        Err(e) => {
            tally.op(false);
            tally.gate(format!("resume failed: {e}"));
            return None;
        }
    };
    let mut ok = true;
    if !recovery.lost.is_empty() || recovery.truncated_events.is_some() {
        tally.gate(format!(
            "recovery lost {:?} / truncated {:?}",
            recovery.lost, recovery.truncated_events
        ));
        ok = false;
    }
    if fingerprint(server.snapshot().warehouse().aladin()) != before {
        tally.gate("reopened warehouse differs from the pre-crash one");
        ok = false;
    }
    if server.resumed_generation().is_none_or(|g| g < published) || server.generation() < published
    {
        tally.gate(format!(
            "resumed at generation {:?}/{} below the published {published}",
            server.resumed_generation(),
            server.generation()
        ));
        ok = false;
    }
    tally.op(ok);
    Some(Evolved {
        server,
        dir,
        add_s,
        refresh_s,
        reopen_s,
        dir_bytes,
    })
}

/// Total size of the regular files under `dir`.
pub fn dir_size(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_size(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// Pause of the live writer between refreshes. A source refreshed every
/// second is already far more often than any real one; a longer pause lets
/// the cache warm between publishes and keeps the writer from taking the
/// reader's CPU for much of the time when the host lends only one.
const WRITER_PAUSE: Duration = Duration::from_millis(1000);

/// Reads compared against the pinned snapshot after the timed loop.
const VERIFIED_READS: usize = 200;

/// What one live-serving loop measured besides the read latencies.
pub struct Served {
    /// Reads attempted.
    pub reads: usize,
    /// Seconds the reader spent reading, in seconds at the reference
    /// speed for a calibrated loop (see [`crate::calibrate`]), else as
    /// measured.
    pub reading_s: f64,
    /// Per publish: from the writer's `refresh_source` call until the
    /// reader first saw the new generation.
    pub publish_s: Vec<f64>,
    /// Serving counters after the loop.
    pub metrics: ServeMetrics,
    /// Distinct reads in the workload's key space.
    pub key_space: usize,
    /// Most distinct reads the reader sent between two generations it saw
    /// (counted by a traced loop only; 0 otherwise). Every publish purges
    /// the cache, so this is the key space the cache has to hold.
    pub max_distinct_per_generation: usize,
}

/// How often a calibrated reader stops to calibrate the host's slowdown.
/// The slowdown changes within a second, so calibrating only around a
/// serving slice left the slice's percentiles in the slower moments.
const CALIBRATION_INTERVAL: Duration = Duration::from_millis(300);

/// Reads the latency buffer holds before it grows.
const SAMPLE_CAPACITY: usize = 8 << 20;

/// Reads of a traced serving loop that get a span each. The latency
/// samples cover every read; the spans of the first reads suffice to see
/// where a read's time goes, and keep the written trace small.
const TRACED_READS: usize = 20_000;

/// A failed read in the sample buffer: above every measured latency.
const FAILED: u32 = u32::MAX;

/// Latency of every read of a run: nanoseconds, with the lowest bit set
/// when a publish was in progress as the read started. The buffer is
/// written through once up front, so it is resident for the whole run and
/// [`ReadSamples::bytes`] can be taken off the process's peak memory.
pub struct ReadSamples {
    buf: Vec<u32>,
    len: usize,
}

/// Percentiles of a run's reads, in milliseconds. A failed read ranks above
/// every measured latency.
#[derive(Debug, Clone, Copy)]
pub struct ReadSummary {
    /// Reads sampled.
    pub reads: usize,
    /// Median latency.
    pub p50_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// 99th percentile of the reads that started while a refresh/publish
    /// was in progress; `None` without such reads.
    pub p99_during_publish_ms: Option<f64>,
    /// 99th percentile of the other reads.
    pub p99_idle_ms: Option<f64>,
}

impl Default for ReadSamples {
    fn default() -> Self {
        ReadSamples {
            buf: vec![FAILED; SAMPLE_CAPACITY],
            len: 0,
        }
    }
}

impl ReadSamples {
    fn record(&mut self, elapsed: Duration, ok: bool, during_publish: bool) {
        let ns = u32::try_from(elapsed.as_nanos())
            .unwrap_or(FAILED - 1)
            .min(FAILED - 1);
        let sample = if ok {
            (ns & !1) | u32::from(during_publish)
        } else {
            FAILED
        };
        if self.len < self.buf.len() {
            self.buf[self.len] = sample;
        } else {
            self.buf.push(sample);
        }
        self.len += 1;
    }

    /// Bytes the buffer holds resident.
    pub fn bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<u32>()
    }

    /// Divide the latencies of reads `from..` by `slowdown`.
    fn rescale(&mut self, from: usize, slowdown: f64) {
        for sample in &mut self.buf[from..self.len] {
            if *sample != FAILED {
                let ns = (f64::from(*sample & !1) / slowdown) as u32;
                *sample = (ns.min(FAILED - 1) & !1) | (*sample & 1);
            }
        }
    }

    /// Forget every read, keeping the buffer.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Percentiles over the reads recorded since the last `clear`.
    pub fn summary(&mut self) -> ReadSummary {
        let samples = &mut self.buf[..self.len];
        // First split by the publish bit, then overall.
        samples.sort_unstable_by_key(|s| (*s != FAILED && *s & 1 == 1, *s));
        let idle = samples.partition_point(|s| *s == FAILED || *s & 1 == 0);
        let p99_idle_ms = sorted_percentile_ms(&samples[..idle], 99.0);
        let p99_during_publish_ms = sorted_percentile_ms(&samples[idle..], 99.0);
        samples.sort_unstable_by_key(|s| if *s == FAILED { FAILED } else { *s & !1 });
        ReadSummary {
            reads: samples.len(),
            p50_ms: sorted_percentile_ms(samples, 50.0).unwrap_or(f64::NAN),
            p99_ms: sorted_percentile_ms(samples, 99.0).unwrap_or(f64::NAN),
            p99_during_publish_ms,
            p99_idle_ms,
        }
    }
}

/// Nearest-rank percentile of a sorted sample of encoded latencies, in ms.
fn sorted_percentile_ms(sorted: &[u32], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let v = sorted[rank.clamp(1, sorted.len()) - 1];
    Some(if v == FAILED {
        f64::INFINITY
    } else {
        f64::from(v & !1) / 1e6
    })
}

/// Serve a seeded Zipf read stream from one reader thread while one writer
/// thread keeps refreshing a source, for `duration`, recording every read's
/// latency into `samples`. Gates: no failed or inconsistent read, and
/// sampled cached answers equal the direct answers on the same pinned
/// snapshot (checked after the loop).
///
/// With a calibrated `clock` the reader marks it every
/// [`CALIBRATION_INTERVAL`] and divides the latencies of the reads in
/// between by the slowdown over them, so the samples are in seconds at the
/// reference speed; the calibrations count in neither the latencies nor
/// [`Served::reading_s`].
#[allow(clippy::too_many_arguments)]
pub fn serve_live(
    server: &Server,
    inputs: &Inputs,
    workload: &Workload,
    seed: u64,
    duration: Duration,
    clock: &mut Clock,
    samples: &mut ReadSamples,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Option<Served> {
    let space = ReadSpace::build(
        &server.snapshot(),
        &inputs.words,
        seed,
        workload.hot_keys_per_kind,
    );
    if space.is_empty() {
        tally.gate("empty read space");
        return None;
    }
    let Some(Ok(release)) = inputs.corpus.source(WRITER_SOURCE).map(|d| d.import()) else {
        tally.gate("importing the writer's source failed");
        return None;
    };

    let publishing = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let writer_failed = AtomicBool::new(false);
    let refreshes: Mutex<Vec<(u64, Instant)>> = Mutex::new(Vec::new());
    let writer_failures = Mutex::new(0u64);
    let deadline = Instant::now() + duration;

    let reader = std::thread::scope(|scope| {
        scope.spawn(|| loop {
            std::thread::sleep(
                WRITER_PAUSE.min(deadline.saturating_duration_since(Instant::now())),
            );
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let db = release.clone();
            let op = tracer.next_id();
            publishing.store(true, Ordering::SeqCst);
            let start = Instant::now();
            let result = tracer.span("serve.refresh", None, op, |_| {
                server.refresh_source(db, 1.0)
            });
            publishing.store(false, Ordering::SeqCst);
            let ok = matches!(result, Ok(Some(_)));
            if ok {
                refreshes
                    .lock()
                    .expect("writer alone holds the refresh list")
                    .push((server.generation(), start));
            } else {
                *writer_failures
                    .lock()
                    .expect("writer alone holds the counter") += 1;
                writer_failed.store(true, Ordering::SeqCst);
            }
            if !ok || Instant::now() >= deadline {
                break;
            }
        });
        // The reader runs on the calling thread. The cache entries it
        // allocates then come from the same allocator arena in every round,
        // instead of from whichever arena a fresh thread is given; freed
        // memory of another arena stays resident, which made the peak
        // memory jump by about the cache's size from run to run.
        {
            let mut rng = SplitMix::new(seed);
            let mut seen: BTreeMap<u64, Instant> = BTreeMap::new();
            let mut reads = 0usize;
            let mut failed = 0u64;
            let mut inconsistent = 0u64;
            let mut first_failure: Option<String> = None;
            let initial = server.generation();
            let mut last = 0u64;
            let mut distinct: HashSet<usize> = HashSet::new();
            let mut max_distinct = 0usize;
            let calibrated = clock.calibrated();
            clock.mark();
            let (mut chunk_start, mut chunk_first) = (Instant::now(), samples.len);
            let mut reading_s = 0.0;
            let mut end_chunk = |chunk_s: f64, first: usize, samples: &mut ReadSamples| {
                let slowdown = clock.mark();
                if calibrated {
                    samples.rescale(first, slowdown);
                }
                reading_s += chunk_s / slowdown;
            };
            // Past the deadline, keep reading until one publish was seen,
            // so that every slice measures `publish_s` at least once.
            while Instant::now() < deadline
                || (last == initial && !writer_failed.load(Ordering::SeqCst))
            {
                let snapshot = server.snapshot();
                let generation = snapshot.generation();
                if snapshot.warehouse().metadata().generation() != generation || generation < last {
                    inconsistent += 1;
                }
                if generation > last {
                    seen.insert(generation, Instant::now());
                    last = generation;
                    max_distinct = max_distinct.max(distinct.len());
                    distinct.clear();
                }
                drop(snapshot);
                let (key, read) = space.draw_keyed(&mut rng);
                let publish = publishing.load(Ordering::SeqCst);
                let t = Instant::now();
                let ok = if reads < TRACED_READS {
                    serve_read(read, server, tracer)
                } else {
                    read.serve(server).is_some()
                };
                samples.record(t.elapsed(), ok, publish);
                if tracer.enabled() {
                    distinct.insert(key);
                }
                reads += 1;
                if !ok {
                    failed += 1;
                    first_failure.get_or_insert_with(|| format!("{read:?}"));
                }
                if calibrated && chunk_start.elapsed() >= CALIBRATION_INTERVAL {
                    end_chunk(chunk_start.elapsed().as_secs_f64(), chunk_first, samples);
                    (chunk_start, chunk_first) = (Instant::now(), samples.len);
                }
            }
            stop.store(true, Ordering::SeqCst);
            let chunk_s = chunk_start.elapsed().as_secs_f64();
            end_chunk(chunk_s, chunk_first, samples);
            (
                reads,
                failed,
                seen,
                inconsistent,
                first_failure,
                reading_s,
                max_distinct.max(distinct.len()),
            )
        }
    });
    let (reads, failed_reads, seen, inconsistent, first_failure, reading_s, max_distinct) = reader;

    tally.attempted += reads as u64;
    tally.failed += failed_reads + inconsistent;
    if failed_reads + inconsistent > 0 {
        tally.gate(format!(
            "{failed_reads} failed and {inconsistent} inconsistent reads; first failure: {}",
            first_failure.unwrap_or_default()
        ));
    }
    let refreshes = refreshes.into_inner().expect("writer thread has ended");
    let writer_failures = writer_failures
        .into_inner()
        .expect("writer thread has ended");
    tally.attempted += refreshes.len() as u64 + writer_failures;
    tally.failed += writer_failures;
    if writer_failures > 0 {
        tally.gate(format!("{writer_failures} writer refreshes failed"));
    }
    let publish_s: Vec<f64> = refreshes
        .iter()
        .filter_map(|(generation, start)| {
            seen.get(generation)
                .map(|t| t.saturating_duration_since(*start).as_secs_f64())
        })
        .collect();

    // Outside the timed loop, with the writer stopped: a cached answer must
    // equal the direct answer on the same pinned snapshot.
    let snapshot = server.snapshot();
    let mut rng = SplitMix::new(seed ^ 0xC0FFEE);
    let mut mismatches = 0usize;
    let mut first_mismatch = None;
    for _ in 0..VERIFIED_READS {
        let read = space.draw(&mut rng);
        let _ = read.serve(server);
        let cached = read.serve_digest(server);
        if cached.is_none() || cached != read.direct(&snapshot) {
            mismatches += 1;
            first_mismatch.get_or_insert_with(|| format!("{read:?}"));
        }
    }
    tally.op(mismatches == 0 && server.generation() == snapshot.generation());
    if mismatches > 0 {
        tally.gate(format!(
            "{mismatches} of {VERIFIED_READS} cached answers differ from the pinned snapshot; first: {}",
            first_mismatch.unwrap_or_default()
        ));
    }

    Some(Served {
        reads,
        reading_s,
        publish_s,
        metrics: server.metrics(),
        key_space: space.len(),
        max_distinct_per_generation: max_distinct,
    })
}

/// Serve one read through the server inside a span of its kind; true when
/// it succeeded. With a disabled tracer this is the untraced read.
pub fn serve_read(read: &Read, server: &Server, tracer: &Tracer) -> bool {
    let op = tracer.next_id();
    tracer
        .span(kind_span(read), None, op, |_| read.serve(server))
        .is_some()
}

/// Span name of a served read.
fn kind_span(read: &Read) -> &'static str {
    match read.kind() {
        ReadKind::Point => "serve.read.point",
        ReadKind::Search => "serve.read.search",
        ReadKind::Follow => "serve.read.follow",
        ReadKind::View => "serve.read.view",
        ReadKind::Join => "serve.read.join",
    }
}
