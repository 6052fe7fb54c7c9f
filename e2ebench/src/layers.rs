//! Layer-by-layer replays for the traced run. Each replay calls one layer's
//! public functions directly, inside spans, on the same inputs the timed
//! phases used, and returns the layer's work counts. The pair replay must
//! reproduce the pipeline's per-pair link and duplicate counts exactly, so
//! the split it reports is of the same program.

use crate::phases::{batch_config, durable_config, serve_read, Tally};
use crate::stats::{median, SplitMix};
use crate::trace::Tracer;
use crate::workload::{Inputs, Read, ReadKind, ReadSpace};
use aladin_core::duplicates::detect_duplicates;
use aladin_core::links::{
    discover_explicit_links, discover_sequence_links, discover_shared_term_links,
    discover_text_links,
};
use aladin_core::pipeline::analyze_database;
use aladin_core::{Aladin, PipelineMetrics, Server, Snapshot, SourceStructure, Warehouse};
use aladin_import::{import_files_with, ImportOptions};
use aladin_relstore::{analyze, exec, optimize, persist, sql, Database};
use std::path::Path;
use std::time::Instant;

/// Counts of the import and structure replay.
#[derive(Debug, Default)]
pub struct ImportCounts {
    /// Rows imported over all sources.
    pub rows: usize,
    /// Records a tolerant import quarantined.
    pub quarantined: usize,
}

/// Import every dump (tolerantly, so malformed records are counted rather
/// than fatal) and analyse its structure.
pub fn import_and_analyze(
    inputs: &Inputs,
    tracer: &Tracer,
    tally: &mut Tally,
) -> (Vec<(Database, SourceStructure)>, ImportCounts) {
    let config = batch_config();
    let mut counts = ImportCounts::default();
    let mut out = Vec::new();
    for dump in &inputs.corpus.sources {
        let op = tracer.next_id();
        let imported = tracer.span("import", None, op, |_| {
            import_files_with(
                &dump.name,
                dump.format,
                &dump.files,
                &ImportOptions::tolerant(usize::MAX),
            )
        });
        let Ok((db, quarantine)) = imported else {
            tally.op(false);
            tally.gate(format!("replayed import of '{}' failed", dump.name));
            continue;
        };
        counts.rows += db.total_rows();
        counts.quarantined += quarantine.len();
        let structure = tracer.span("structure", None, op, |_| analyze_database(&db, &config));
        match structure {
            Ok(s) => out.push((db, s)),
            Err(e) => {
                tally.op(false);
                tally.gate(format!("replayed analysis of '{}' failed: {e}", dump.name));
            }
        }
    }
    (out, counts)
}

/// Counts of the pair replay.
#[derive(Debug, Default)]
pub struct PairCounts {
    /// Pair jobs replayed.
    pub pairs: usize,
    /// Links found per phase: explicit, sequence, text, shared-term.
    pub links: [usize; 4],
    /// Pairs with at least one sequence link.
    pub sequence_useful: usize,
    /// Pairs with at least one text link.
    pub text_useful: usize,
    /// Pairs whose sequence or text links reached the per-pair cap.
    pub cap_hits: usize,
    /// Duplicate links found.
    pub duplicates: usize,
    /// Duplicate candidate pairs scored.
    pub candidates_scored: usize,
}

/// Replay every pair job of a batch integration of `sources` (in input
/// order: each source against the ones before it, sorted by name) through
/// the four link phases and duplicate detection, and check each pair's
/// counts against the pipeline's own per-pair record in `pipeline`.
pub fn replay_pairs(
    sources: &[(Database, SourceStructure)],
    pipeline: &PipelineMetrics,
    tracer: &Tracer,
    tally: &mut Tally,
) -> PairCounts {
    let config = batch_config();
    let mut counts = PairCounts::default();
    for (i, (db, structure)) in sources.iter().enumerate() {
        let mut others: Vec<&(Database, SourceStructure)> = sources[..i].iter().collect();
        others.sort_by(|a, b| a.0.name().cmp(b.0.name()));
        for (other_db, other_structure) in others {
            let op = tracer.next_id();
            let replayed = tracer.span("pair", None, op, |pair| {
                let explicit = tracer.span("links.explicit", Some(pair), op, |_| {
                    let mut links =
                        discover_explicit_links(db, structure, other_db, other_structure, &config)?
                            .links;
                    links.extend(
                        discover_explicit_links(other_db, other_structure, db, structure, &config)?
                            .links,
                    );
                    Ok::<_, aladin_core::AladinError>(links)
                })?;
                let sequence = tracer.span("links.sequence", Some(pair), op, |_| {
                    discover_sequence_links(db, structure, other_db, other_structure, &config)
                })?;
                let text = tracer.span("links.text", Some(pair), op, |_| {
                    discover_text_links(db, structure, other_db, other_structure, &config)
                })?;
                let shared = tracer.span("links.shared_term", Some(pair), op, |_| {
                    discover_shared_term_links(db, structure, other_db, other_structure, &config)
                })?;
                let duplicates = tracer.span("duplicates", Some(pair), op, |_| {
                    detect_duplicates(db, structure, other_db, other_structure, &explicit, &config)
                })?;
                Ok::<_, aladin_core::AladinError>((
                    [explicit.len(), sequence.len(), text.len(), shared.len()],
                    duplicates,
                ))
            });
            let (found, duplicates) = match replayed {
                Ok(r) => r,
                Err(e) => {
                    tally.op(false);
                    tally.gate(format!(
                        "replayed pair {} vs {} failed: {e}",
                        db.name(),
                        other_db.name()
                    ));
                    continue;
                }
            };
            counts.pairs += 1;
            for (total, n) in counts.links.iter_mut().zip(found) {
                *total += n;
            }
            counts.sequence_useful += usize::from(found[1] > 0);
            counts.text_useful += usize::from(found[2] > 0);
            counts.cap_hits += usize::from(
                found[1] >= config.max_implicit_links_per_pair
                    || found[2] >= config.max_implicit_links_per_pair,
            );
            counts.duplicates += duplicates.links.len();
            counts.candidates_scored += duplicates.candidates_scored;

            let recorded = |step: &str| {
                pipeline
                    .timings
                    .iter()
                    .find(|t| {
                        t.source == db.name()
                            && t.step == step
                            && t.pair.as_deref() == Some(other_db.name())
                    })
                    .map(|t| t.output_count)
            };
            let links: usize = found.iter().sum();
            if recorded("link discovery") != Some(links)
                || recorded("duplicate detection") != Some(duplicates.links.len())
            {
                tally.gate(format!(
                    "replay of {} vs {} found {links} links / {} duplicates, the pipeline {:?} / {:?}",
                    db.name(),
                    other_db.name(),
                    duplicates.links.len(),
                    recorded("link discovery"),
                    recorded("duplicate detection"),
                ));
            }
        }
    }
    counts
}

/// Write and read back a snapshot of every source under `dir`.
pub fn replay_persist(
    sources: &[(Database, SourceStructure)],
    dir: &Path,
    tracer: &Tracer,
    tally: &mut Tally,
) {
    if std::fs::create_dir_all(dir).is_err() {
        tally.gate("cannot create the persist replay directory");
        return;
    }
    for (db, _) in sources {
        let op = tracer.next_id();
        let path = dir.join(format!("{}.snap", db.name()));
        let written = tracer.span("persist.write", None, op, |_| {
            persist::write_snapshot_at(&path, db, 0)
        });
        let read = tracer.span("persist.read", None, op, |_| persist::read_snapshot(&path));
        let ok =
            written.is_ok() && read.is_ok_and(|(back, _)| back.total_rows() == db.total_rows());
        tally.op(ok);
        if !ok {
            tally.gate(format!("snapshot round trip of '{}' failed", db.name()));
        }
    }
}

/// Cold-start recovery of the durable warehouse in `dir`, split into its
/// snapshot loads and the rest (re-integration), then the snapshot build of
/// the recovered warehouse.
pub fn replay_recovery(dir: &Path, tracer: &Tracer, tally: &mut Tally) {
    let op = tracer.next_id();
    let opened = tracer.span("recovery.open", None, op, |_| {
        Aladin::open(durable_config(dir))
    });
    let snapshots: Vec<_> = std::fs::read_dir(dir.join("sources"))
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    for path in snapshots
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "snap"))
    {
        let loaded = tracer.span("recovery.snapshot_load", None, op, |_| {
            persist::read_snapshot(path)
        });
        tally.op(loaded.is_ok());
    }
    match opened {
        Ok((aladin, recovery)) => {
            tally.op(recovery.lost.is_empty());
            let warehouse = Warehouse::from_aladin(aladin);
            let warmed = tracer.span("serve.snapshot_build", None, op, |_| warehouse.warm());
            tally.op(warmed.is_ok());
        }
        Err(e) => {
            tally.op(false);
            tally.gate(format!("replayed recovery failed: {e}"));
        }
    }
}

/// Medians of the read replay, in microseconds, plus relstore counts.
#[derive(Debug, Default)]
pub struct ReadReplay {
    /// Median uncached latency per read kind, in `ReadKind::ALL` order.
    pub access_us: [f64; 5],
    /// Median parse / analyze / optimize / execute time of the relational
    /// reads.
    pub relstore_us: [f64; 4],
    /// Rows the relational reads returned.
    pub rows_returned: usize,
}

/// Replay `count` reads of the workload's stream directly on the pinned
/// snapshot's warehouse (no serving cache), and the relational ones again
/// through relstore's parse, analyze, optimize and execute.
pub fn replay_reads(
    snapshot: &Snapshot,
    space: &ReadSpace,
    seed: u64,
    count: usize,
    tracer: &Tracer,
    tally: &mut Tally,
) -> ReadReplay {
    const ACCESS: [&str; 5] = [
        "access.point",
        "access.search",
        "access.follow",
        "access.view",
        "access.join",
    ];
    let mut rng = SplitMix::new(seed);
    let mut out = ReadReplay::default();
    for _ in 0..count {
        let read = space.draw(&mut rng);
        let op = tracer.next_id();
        let kind = ReadKind::ALL
            .iter()
            .position(|k| *k == read.kind())
            .expect("every kind is listed");
        let ok = tracer.span(ACCESS[kind], None, op, |_| {
            read.direct_with(snapshot, |_, n| n)
        });
        tally.op(ok.is_some());
        let wh = snapshot.warehouse();
        let (source, plan) = match read {
            Read::Sql(source, query) => (
                source,
                tracer
                    .span("relstore.parse", None, op, |_| sql::parse(query))
                    .ok(),
            ),
            Read::Join(source, table) => (source, wh.join_path_plan(source, table).ok()),
            _ => continue,
        };
        let (Some(plan), Ok(db)) = (plan, wh.database(source)) else {
            tally.op(false);
            tally.gate("a relational read did not compile to a plan");
            continue;
        };
        tracer.span("relstore.analyze", None, op, |_| {
            analyze::analyze(db, &plan)
        });
        let optimized = tracer.span("relstore.optimize", None, op, |_| {
            optimize::optimize(db, &plan)
        });
        match tracer.span("relstore.execute", None, op, |_| {
            exec::execute(db, &optimized)
        }) {
            Ok(table) => out.rows_returned += table.row_count(),
            Err(e) => {
                tally.op(false);
                tally.gate(format!("relstore execution failed: {e}"));
            }
        }
    }
    for (slot, name) in out.access_us.iter_mut().zip(ACCESS) {
        *slot = median(&tracer.durations_s(name)) * 1e6;
    }
    let stages = [
        "relstore.parse",
        "relstore.analyze",
        "relstore.optimize",
        "relstore.execute",
    ];
    for (slot, name) in out.relstore_us.iter_mut().zip(stages) {
        *slot = median(&tracer.durations_s(name)) * 1e6;
    }
    out
}

/// What tracing costs a served read.
#[derive(Debug)]
pub struct TraceOverhead {
    /// Median over chunk pairs of traced minus untraced time, per read, in
    /// microseconds.
    pub per_read_us: f64,
    /// The same difference as a share of the untraced time.
    pub ratio: f64,
}

/// Reads per chunk of the overhead measurement.
const OVERHEAD_CHUNK: usize = 20_000;

/// Chunk pairs of the overhead measurement.
const OVERHEAD_PAIRS: usize = 12;

/// Measure the tracing overhead where the spans are: the serving loop's
/// per-read span. With the writer stopped, the same seeded chunk of reads
/// is served untraced and traced in alternating order (ABBA), after one
/// untraced warm-up chunk, so both sides meet a warm cache and the same
/// host conditions. The spans go to a throwaway tracer.
pub fn trace_overhead(
    server: &Server,
    space: &ReadSpace,
    seed: u64,
    tally: &mut Tally,
) -> TraceOverhead {
    let untraced = Tracer::new(false);
    let chunk = |tracer: &Tracer, tally: &mut Tally| {
        let mut rng = SplitMix::new(seed);
        let start = Instant::now();
        let mut failed = 0u64;
        for _ in 0..OVERHEAD_CHUNK {
            failed += u64::from(!serve_read(space.draw(&mut rng), server, tracer));
        }
        let elapsed = start.elapsed().as_secs_f64();
        tally.attempted += OVERHEAD_CHUNK as u64;
        tally.failed += failed;
        elapsed
    };
    chunk(&untraced, tally);
    let (mut diffs, mut bases) = (Vec::new(), Vec::new());
    for pair in 0..OVERHEAD_PAIRS {
        let traced = Tracer::new(true);
        let (off, on) = if pair % 2 == 0 {
            let off = chunk(&untraced, tally);
            (off, chunk(&traced, tally))
        } else {
            let on = chunk(&traced, tally);
            (chunk(&untraced, tally), on)
        };
        diffs.push(on - off);
        bases.push(off);
    }
    let diff = median(&diffs);
    TraceOverhead {
        per_read_us: diff / OVERHEAD_CHUNK as f64 * 1e6,
        ratio: diff / median(&bases),
    }
}
