//! The ALADIN integration pipeline.
//!
//! [`Aladin`] is the warehouse plus the orchestration of the five-step
//! integration process (Figure 2 of the paper). Sources are added
//! incrementally: analysing a new source "does not involve data or metadata
//! from other data sources" (steps 1–3), and only link discovery and duplicate
//! detection (steps 4–5) touch the already-integrated sources.
//!
//! # Figure 2 step map
//!
//! | Paper step | Code | Recorded as |
//! |---|---|---|
//! | 1. Import | `aladin_import::import_files_with` via [`Aladin::add_source_files`] | `"import"` |
//! | 2. Primary objects (unique attributes, accessions, relationships, primary relation) | [`analyze_database`] → [`crate::unique`], [`crate::accession`], [`crate::relationships`], [`crate::primary`] | `"structure discovery"` |
//! | 3. Secondary objects | [`analyze_database`] → [`crate::secondary`] | `"structure discovery"` |
//! | 4. Link discovery (explicit + implicit) | [`crate::links`] per source pair | `"link discovery"` (one [`StepTiming`] per pair), split into `"link discovery/explicit"`, `"/sequence"`, `"/text"` and `"/shared-term"` |
//! | 5. Duplicate detection | [`crate::duplicates`] per source pair | `"duplicate detection"` (one [`StepTiming`] per pair) |
//!
//! # Parallelism and determinism
//!
//! Steps 2–3 are source-local, so [`Aladin::add_databases`] analyses a batch
//! of new sources concurrently; steps 4–5 decompose into independent
//! pair jobs (the new source against each already-integrated source), which
//! [`Aladin::add_database`] fans out over [`crate::parallel::run_jobs`] with
//! [`AladinConfig::workers`] threads. Every pair job is a pure function of
//! its inputs and the results are merged in a fixed order — source name,
//! then pair, then row — so the metadata repository is identical for every
//! worker count (the wall-clock values inside [`StepTiming`]s are the only
//! thing that varies between runs).
//!
//! # Fault tolerance
//!
//! Integration is transactional: every mutation a source would make is
//! staged (`StagedSource`) and committed only once the source — and, under
//! [`BatchErrorPolicy::FailFast`], the whole batch — is known to succeed, so
//! a failing `add_database`/`add_databases`/`refresh_source` call leaves the
//! warehouse and the metadata repository exactly as before. A pair job that
//! panics is contained by the worker pool and recorded as a
//! [`PairFailure`] instead of taking the run down; a whole-source failure
//! under [`BatchErrorPolicy::ContinueOnError`] quarantines just that source
//! ([`SourceOutcome::Quarantined`]) while the rest of the batch integrates.

use crate::accession::detect_accession_candidates;
use crate::config::{AladinConfig, BatchErrorPolicy, FaultInjection};
use crate::duplicates::detect_duplicates;
use crate::error::{AladinError, AladinResult, SourceFailure};
use crate::links::explicit::discover_explicit_links;
use crate::links::implicit::{
    discover_sequence_links, discover_shared_term_links, discover_text_links,
};
use crate::metadata::{
    Link, MetadataRepository, ObjectRef, PairFailure, PipelineMetrics, SourceStructure, StepTiming,
};
use crate::parallel::run_jobs;
use crate::primary::select_primary_relations;
use crate::relationships::discover_relationships;
use crate::secondary::discover_secondary_relations;
use crate::unique::detect_unique_columns;
use aladin_import::{import_files_with, QuarantinedRecord, SourceFormat};
use aladin_relstore::stats::profile_table;
use aladin_relstore::wal::{self, Wal};
use aladin_relstore::{persist, Database, RelError};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Number of sample values stored per column in the metadata repository.
const SAMPLE_SIZE: usize = 10;

/// Analyse the internal structure of a single source (steps 2 and 3 of the
/// integration process), without reference to any other source.
pub fn analyze_database(db: &Database, config: &AladinConfig) -> AladinResult<SourceStructure> {
    // Column statistics (the reusable statistical metadata).
    let mut column_stats = Vec::new();
    for table in db.tables() {
        column_stats.extend(profile_table(table, SAMPLE_SIZE)?);
    }
    // Step 2: unique attributes, accession candidates, relationships, primary.
    let unique_columns = detect_unique_columns(db)?;
    let accession_candidates =
        detect_accession_candidates(db, &unique_columns, &column_stats, config)?;
    let relationships = discover_relationships(db, &unique_columns, config)?;
    let primary_relations =
        match select_primary_relations(&accession_candidates, &relationships, config) {
            Ok(p) => p,
            Err(AladinError::Discovery(_)) => Vec::new(), // tolerated failure mode
            Err(e) => return Err(e),
        };
    // Step 3: secondary relations.
    let secondary_relations = discover_secondary_relations(db, &primary_relations, &relationships);

    Ok(SourceStructure {
        source: db.name().to_string(),
        unique_columns,
        accession_candidates,
        relationships,
        primary_relations,
        secondary_relations,
        column_stats,
    })
}

/// Timed source-local analysis with fault injection applied: a source listed
/// in [`FaultInjection::panic_analysis`] panics (to exercise panic
/// containment), one listed in [`FaultInjection::fail_analysis`] returns a
/// discovery error (to exercise rollback). Inert configurations go straight
/// to [`analyze_database`].
fn analyze_with_faults(
    db: &Database,
    config: &AladinConfig,
) -> AladinResult<(SourceStructure, Duration)> {
    let name = db.name();
    if config.faults.panic_analysis.iter().any(|s| s == name) {
        panic!("injected analysis panic: {name}");
    }
    if config.faults.fail_analysis.iter().any(|s| s == name) {
        return Err(AladinError::Discovery(format!(
            "injected analysis failure: {name}"
        )));
    }
    let start = Instant::now();
    analyze_database(db, config).map(|structure| (structure, start.elapsed()))
}

/// Summary of integrating one source.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IntegrationReport {
    /// Source name.
    pub source: String,
    /// Number of tables imported.
    pub tables: usize,
    /// Number of rows imported.
    pub rows: usize,
    /// Detected primary relations (table, accession column).
    pub primary_relations: Vec<(String, String)>,
    /// Number of secondary relations.
    pub secondary_relations: usize,
    /// Number of guessed or declared relationships.
    pub relationships: usize,
    /// Explicit cross-reference links discovered against existing sources.
    pub explicit_links: usize,
    /// Implicit links (sequence, text, shared-term) discovered.
    pub implicit_links: usize,
    /// Duplicate links discovered.
    pub duplicates: usize,
    /// Attribute pairs compared during link discovery (pruning metric).
    pub pairs_compared: usize,
    /// Per-step aggregate timings for this source (pairwise steps summed over
    /// all pairs; the per-pair breakdown lives in the metadata repository and
    /// is surfaced via [`Aladin::metrics`]).
    pub step_timings: Vec<StepTiming>,
    /// Records quarantined during import (only populated by
    /// [`Aladin::add_source_files`]; empty for pre-imported databases or when
    /// nothing was malformed).
    pub quarantined: Vec<QuarantinedRecord>,
    /// Contained pairwise-job failures: pairs skipped by panic isolation
    /// instead of taking the whole integration down. Also recorded in the
    /// metadata repository and surfaced via [`PipelineMetrics::failures`].
    pub pair_failures: Vec<PairFailure>,
}

impl IntegrationReport {
    /// Total elapsed time across all steps.
    pub fn total_elapsed(&self) -> Duration {
        self.step_timings.iter().map(|t| t.elapsed).sum()
    }

    /// Elapsed time of one named step, if recorded.
    pub fn step_elapsed(&self, step: &str) -> Option<Duration> {
        self.step_timings
            .iter()
            .find(|t| t.step == step)
            .map(|t| t.elapsed)
    }
}

/// Which link-discovery families to run (used by experiments to isolate
/// costs; the default runs everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkDiscoveryPlan {
    /// Run explicit cross-reference discovery.
    pub explicit: bool,
    /// Run sequence-homology link discovery.
    pub sequence: bool,
    /// Run text-similarity link discovery.
    pub text: bool,
    /// Run shared-term link discovery.
    pub shared_terms: bool,
    /// Run duplicate detection.
    pub duplicates: bool,
}

impl Default for LinkDiscoveryPlan {
    fn default() -> Self {
        LinkDiscoveryPlan {
            explicit: true,
            sequence: true,
            text: true,
            shared_terms: true,
            duplicates: true,
        }
    }
}

impl LinkDiscoveryPlan {
    /// Only explicit cross-reference discovery and duplicates.
    pub fn explicit_only() -> LinkDiscoveryPlan {
        LinkDiscoveryPlan {
            explicit: true,
            sequence: false,
            text: false,
            shared_terms: false,
            duplicates: true,
        }
    }
}

/// Everything one pair job (the new source against one already-integrated
/// source) discovered, plus its cost metrics. Jobs are independent, so the
/// pipeline fans them out over worker threads and merges the outcomes in a
/// fixed order.
#[derive(Debug, Clone)]
struct PairOutcome {
    /// The already-integrated source this job compared against.
    other: String,
    explicit: Vec<Link>,
    implicit: Vec<Link>,
    duplicates: Vec<Link>,
    /// Attribute pairs compared during explicit link discovery.
    pairs_compared: usize,
    /// Duplicate candidate pairs scored.
    candidates_scored: usize,
    link_elapsed: Duration,
    /// One `link discovery/<phase>` timing per link phase that ran.
    phase_timings: Vec<StepTiming>,
    duplicate_elapsed: Duration,
}

/// Steps 4 + 5 between the (already analysed) new source and one
/// already-integrated source. Pure function of its inputs: no shared mutable
/// state, so pair jobs can run on any thread in any order.
fn discover_against(
    db: &Database,
    structure: &SourceStructure,
    other_db: &Database,
    other_structure: &SourceStructure,
    plan: &LinkDiscoveryPlan,
    config: &AladinConfig,
) -> AladinResult<PairOutcome> {
    let mut explicit: Vec<Link> = Vec::new();
    let mut implicit: Vec<Link> = Vec::new();
    let mut pairs_compared = 0usize;

    // One timing per link phase that ran, recorded as `link discovery/<phase>`.
    let mut phase_timings: Vec<StepTiming> = Vec::new();
    let mut phase = |name: &str, started: Instant, output_count: usize, pairs_compared: usize| {
        phase_timings.push(StepTiming {
            source: db.name().to_string(),
            step: format!("link discovery/{name}"),
            pair: Some(other_db.name().to_string()),
            elapsed: started.elapsed(),
            output_count,
            pairs_compared,
        });
    };

    let start = Instant::now();
    if plan.explicit {
        let started = Instant::now();
        let out = discover_explicit_links(db, structure, other_db, other_structure, config)?;
        pairs_compared += out.pairs_compared;
        explicit.extend(out.links);
        let out = discover_explicit_links(other_db, other_structure, db, structure, config)?;
        pairs_compared += out.pairs_compared;
        explicit.extend(out.links);
        phase("explicit", started, explicit.len(), pairs_compared);
    }
    if plan.sequence {
        let started = Instant::now();
        let links = discover_sequence_links(db, structure, other_db, other_structure, config)?;
        phase("sequence", started, links.len(), 0);
        implicit.extend(links);
    }
    if plan.text {
        let started = Instant::now();
        let links = discover_text_links(db, structure, other_db, other_structure, config)?;
        phase("text", started, links.len(), 0);
        implicit.extend(links);
    }
    if plan.shared_terms {
        let started = Instant::now();
        let links = discover_shared_term_links(db, structure, other_db, other_structure, config)?;
        phase("shared-term", started, links.len(), 0);
        implicit.extend(links);
    }
    let link_elapsed = start.elapsed();

    let start = Instant::now();
    let mut duplicates: Vec<Link> = Vec::new();
    let mut candidates_scored = 0usize;
    if plan.duplicates {
        // The explicit links discovered above all connect this very pair, so
        // they are exactly the seeds the old sequential pipeline passed.
        let outcome =
            detect_duplicates(db, structure, other_db, other_structure, &explicit, config)?;
        duplicates = outcome.links;
        candidates_scored = outcome.candidates_scored;
    }

    Ok(PairOutcome {
        other: other_db.name().to_string(),
        explicit,
        implicit,
        duplicates,
        pairs_compared,
        candidates_scored,
        link_elapsed,
        phase_timings,
        duplicate_elapsed: start.elapsed(),
    })
}

/// Per-source outcome of a batch integration run under an explicit error
/// policy ([`Aladin::add_databases_with`]).
#[derive(Debug, Clone)]
pub enum SourceOutcome {
    /// The source was integrated; its report.
    Integrated(IntegrationReport),
    /// The source failed and was quarantined: nothing of it was committed,
    /// the rest of the batch was integrated without it.
    Quarantined(SourceFailure),
}

impl SourceOutcome {
    /// The source this outcome describes.
    pub fn source(&self) -> &str {
        match self {
            SourceOutcome::Integrated(r) => &r.source,
            SourceOutcome::Quarantined(f) => &f.source,
        }
    }

    /// True when the source was integrated.
    pub fn is_integrated(&self) -> bool {
        matches!(self, SourceOutcome::Integrated(_))
    }

    /// The integration report, when the source was integrated.
    pub fn report(&self) -> Option<&IntegrationReport> {
        match self {
            SourceOutcome::Integrated(r) => Some(r),
            SourceOutcome::Quarantined(_) => None,
        }
    }

    /// The failure, when the source was quarantined.
    pub fn failure(&self) -> Option<&SourceFailure> {
        match self {
            SourceOutcome::Integrated(_) => None,
            SourceOutcome::Quarantined(f) => Some(f),
        }
    }
}

/// Outcome of one batch integration: one [`SourceOutcome`] per input source,
/// in input order.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Per-source outcomes, in input order.
    pub outcomes: Vec<SourceOutcome>,
}

impl BatchReport {
    /// The reports of the integrated sources, in input order.
    pub fn integrated(&self) -> impl Iterator<Item = &IntegrationReport> {
        self.outcomes.iter().filter_map(SourceOutcome::report)
    }

    /// The failures of the quarantined sources, in input order.
    pub fn quarantined(&self) -> impl Iterator<Item = &SourceFailure> {
        self.outcomes.iter().filter_map(SourceOutcome::failure)
    }

    /// True when every source of the batch was integrated.
    pub fn is_complete(&self) -> bool {
        self.outcomes.iter().all(SourceOutcome::is_integrated)
    }

    /// Collapse into the classic result: the integration reports when the
    /// batch is complete, [`AladinError::PartialIntegration`] listing every
    /// quarantined source otherwise.
    pub fn into_result(self) -> AladinResult<Vec<IntegrationReport>> {
        let mut reports = Vec::new();
        let mut failures = Vec::new();
        for outcome in self.outcomes {
            match outcome {
                SourceOutcome::Integrated(r) => reports.push(r),
                SourceOutcome::Quarantined(f) => failures.push(f),
            }
        }
        if failures.is_empty() {
            Ok(reports)
        } else {
            Err(AladinError::PartialIntegration { failures })
        }
    }
}

/// Everything integrating one source would change, computed against the
/// committed warehouse plus the batch sources staged before it — but not yet
/// applied. Staging is the transactional heart of the pipeline: all mutations
/// of a batch are computed first and applied only when the whole batch (under
/// `FailFast`) or this source (under `ContinueOnError`) is known to succeed,
/// so a failure never leaves partial state behind.
#[derive(Debug)]
struct StagedSource {
    db: Database,
    structure: SourceStructure,
    structure_timing: StepTiming,
    pair_timings: Vec<StepTiming>,
    explicit_links: Vec<Link>,
    implicit_links: Vec<Link>,
    duplicate_links: Vec<Link>,
    failures: Vec<PairFailure>,
    report: IntegrationReport,
}

/// What [`Aladin::open`] recovered from the data directory.
#[derive(Debug, Clone, Default)]
pub struct PipelineRecovery {
    /// Sources recovered and re-integrated, in last-commit order.
    pub recovered: Vec<String>,
    /// Sources named by the event log whose snapshots were missing, corrupt,
    /// or failed re-integration; recovery proceeds without them.
    pub lost: Vec<String>,
    /// Why (and that) the pipeline event log's tail was truncated, if it was.
    pub truncated_events: Option<String>,
    /// Wall-clock time of the whole recovery (snapshot loads +
    /// re-integration).
    pub elapsed: Duration,
}

/// Wrap a storage-layer durability failure in the pipeline error taxonomy.
fn durability(context: impl Into<String>, cause: RelError) -> AladinError {
    AladinError::Durability {
        context: context.into(),
        cause,
    }
}

/// File-system-safe snapshot file name for a source: alphanumerics, `.`,
/// `_` and `-` pass through, every other byte is `%XX`-escaped (injective,
/// so distinct source names never collide on disk).
fn source_snapshot_file(source: &str) -> String {
    let mut out = String::with_capacity(source.len() + 5);
    for b in source.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out.push_str(".snap");
    out
}

/// Append one committed-sources event to the pipeline event log. The log is
/// tiny (one record per batch), so each append re-opens and replays it —
/// that keeps [`Aladin`] free of file handles and therefore `Clone`.
fn append_pipeline_event(dir: &Path, names: &[String]) -> Result<(), RelError> {
    let (_, mut log) = Wal::recover(&dir.join("pipeline.wal"), 0)?;
    let mut payload = Vec::new();
    payload.push(1u8);
    persist::put_u32(&mut payload, names.len() as u32);
    for name in names {
        persist::put_str(&mut payload, name);
    }
    log.append(&payload)?;
    Ok(())
}

/// Replay the pipeline event log into the list of active sources in
/// last-commit order. Damage truncates the tail (reported, never fatal);
/// an undecodable record stops replay the same way.
fn replay_pipeline_events(dir: &Path) -> Result<(Vec<String>, Option<String>), RelError> {
    let replay = wal::replay(&dir.join("pipeline.wal"), 0)?;
    let mut active: Vec<String> = Vec::new();
    let mut truncated = replay.truncated;
    'records: for record in &replay.records {
        let mut cur = persist::Cursor::new(&record.payload);
        let decoded = (|| -> Result<Vec<String>, RelError> {
            if cur.u8()? != 1 {
                return Err(RelError::Durability("unknown pipeline event tag".into()));
            }
            let n = cur.u32()? as usize;
            let mut names = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                names.push(cur.str()?);
            }
            Ok(names)
        })();
        match decoded {
            Ok(names) => {
                for name in names {
                    active.retain(|a| a != &name);
                    active.push(name);
                }
            }
            Err(e) => {
                truncated = Some(format!(
                    "event record seq {} undecodable ({e}); tail ignored",
                    record.seq
                ));
                break 'records;
            }
        }
    }
    Ok((active, truncated))
}

/// The ALADIN warehouse and integration pipeline.
#[derive(Debug, Clone)]
pub struct Aladin {
    config: AladinConfig,
    plan: LinkDiscoveryPlan,
    warehouse: BTreeMap<String, Database>,
    metadata: MetadataRepository,
}

impl Aladin {
    /// Create an empty warehouse with the given configuration.
    pub fn new(config: AladinConfig) -> Aladin {
        Aladin {
            config,
            plan: LinkDiscoveryPlan::default(),
            warehouse: BTreeMap::new(),
            metadata: MetadataRepository::new(),
        }
    }

    /// Create an empty warehouse with the default configuration.
    pub fn with_defaults() -> Aladin {
        Aladin::new(AladinConfig::default())
    }

    /// Replace the link-discovery plan (which families of links are computed).
    pub fn set_link_plan(&mut self, plan: LinkDiscoveryPlan) {
        self.plan = plan;
    }

    /// The configuration.
    pub fn config(&self) -> &AladinConfig {
        &self.config
    }

    /// Replace the fault-injection configuration (the fault harness arms
    /// faults *after* an initial healthy integration this way; production
    /// configurations leave it inert).
    pub fn set_faults(&mut self, faults: FaultInjection) {
        self.config.faults = faults;
    }

    /// The metadata repository.
    pub fn metadata(&self) -> &MetadataRepository {
        &self.metadata
    }

    /// Mutable metadata access for the serving layer's resume path (fast-
    /// forwarding the generation counter past the recovery reset).
    pub(crate) fn metadata_mut(&mut self) -> &mut MetadataRepository {
        &mut self.metadata
    }

    /// Names of the integrated sources.
    pub fn source_names(&self) -> Vec<&str> {
        self.warehouse.keys().map(String::as_str).collect()
    }

    /// The imported database of a source.
    pub fn database(&self, source: &str) -> AladinResult<&Database> {
        self.warehouse
            .get(source)
            .ok_or_else(|| AladinError::UnknownSource(source.to_string()))
    }

    /// Number of integrated sources.
    pub fn source_count(&self) -> usize {
        self.warehouse.len()
    }

    /// Import and integrate a source given as raw files (step 1 + steps 2–5).
    /// Import honours the configured error budget and quarantines malformed
    /// records ([`AladinConfig::import_error_budget`]); the quarantine report
    /// lands in [`IntegrationReport::quarantined`].
    pub fn add_source_files(
        &mut self,
        source_name: &str,
        format: SourceFormat,
        files: &[(String, String)],
    ) -> AladinResult<IntegrationReport> {
        let start = Instant::now();
        let options = self.config.import_options();
        let (db, quarantine) = import_files_with(source_name, format, files, &options)?;
        let import_elapsed = start.elapsed();
        let rows = db.total_rows();
        let mut report = self.add_database(db)?;
        report.quarantined = quarantine.records().to_vec();
        report.step_timings.insert(
            0,
            StepTiming {
                output_count: rows,
                ..StepTiming::local(source_name, "import", import_elapsed)
            },
        );
        Ok(report)
    }

    /// Integrate an already-imported relational database (steps 2–5).
    /// Transactional: on failure the warehouse and the metadata repository
    /// are exactly as before the call.
    pub fn add_database(&mut self, db: Database) -> AladinResult<IntegrationReport> {
        let mut reports = self.add_databases(vec![db])?;
        reports
            .pop()
            .ok_or_else(|| AladinError::Discovery("batch produced no report".into()))
    }

    /// Integrate a batch of already-imported relational databases (steps 2–5
    /// for each), equivalent to calling [`Aladin::add_database`] for each in
    /// order. The source-local analysis (steps 2–3) of all new sources runs
    /// concurrently over [`AladinConfig::workers`] threads — the paper's
    /// observation that analysing a new source "does not involve data or
    /// metadata from other data sources" makes the batch embarrassingly
    /// parallel — while links and duplicates are still discovered and merged
    /// in input order, so the result is identical to sequential addition.
    ///
    /// Error handling follows [`AladinConfig::batch_policy`]. Under
    /// `FailFast` (the default) the batch is all-or-nothing: any failing
    /// source aborts the whole call with its error and the warehouse is left
    /// exactly as before. Under `ContinueOnError`, failing sources are
    /// quarantined and the call returns
    /// [`AladinError::PartialIntegration`] naming them — the healthy sources
    /// stay committed; use [`Aladin::add_databases_with`] to get the
    /// per-source outcomes instead of an error.
    pub fn add_databases(&mut self, dbs: Vec<Database>) -> AladinResult<Vec<IntegrationReport>> {
        self.add_databases_with(dbs, self.config.batch_policy)?
            .into_result()
    }

    /// Integrate a batch under an explicit error policy, reporting a
    /// [`SourceOutcome`] per input source.
    ///
    /// All mutations are staged per source and committed only once the fate
    /// of the batch is known: under [`BatchErrorPolicy::FailFast`] the first
    /// failing source aborts the call with its error and *nothing* is
    /// committed; under [`BatchErrorPolicy::ContinueOnError`] failing
    /// sources are quarantined ([`SourceOutcome::Quarantined`]) and every
    /// healthy source is integrated exactly as if the failing ones had not
    /// been in the batch.
    pub fn add_databases_with(
        &mut self,
        dbs: Vec<Database>,
        policy: BatchErrorPolicy,
    ) -> AladinResult<BatchReport> {
        // Reject name collisions (within the batch and against the
        // warehouse) before any work, regardless of policy: a collision is a
        // caller bug, not a source fault.
        let mut batch_names: BTreeSet<String> = BTreeSet::new();
        for db in &dbs {
            if self.warehouse.contains_key(db.name()) || !batch_names.insert(db.name().to_string())
            {
                return Err(AladinError::DuplicateSource(db.name().to_string()));
            }
        }

        // Steps 2 + 3: source-local analysis, one job per new source. A
        // panicking analysis job is contained by the pool and converted into
        // a per-source failure here.
        let config = &self.config;
        let analyses = run_jobs(config.workers, dbs.len(), |i| {
            analyze_with_faults(&dbs[i], config)
        });
        let analyzed: Vec<AladinResult<(SourceStructure, Duration)>> = analyses
            .into_iter()
            .zip(&dbs)
            .map(|(result, db)| match result {
                Ok(inner) => inner,
                Err(p) => Err(AladinError::Discovery(format!(
                    "analysis of source '{}' panicked: {}",
                    db.name(),
                    p.message
                ))),
            })
            .collect();

        // Steps 4 + 5: stage each source in input order against the
        // committed warehouse plus the sources staged before it. Nothing is
        // committed yet.
        enum Slot {
            Staged,
            Failed(SourceFailure),
        }
        let mut staged: Vec<StagedSource> = Vec::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(analyzed.len());
        for (db, analysis) in dbs.into_iter().zip(analyzed) {
            let name = db.name().to_string();
            let outcome = analysis.and_then(|(structure, elapsed)| {
                self.stage_source(db, structure, elapsed, &staged, None)
            });
            match outcome {
                Ok(s) => {
                    staged.push(s);
                    slots.push(Slot::Staged);
                }
                Err(error) => match policy {
                    BatchErrorPolicy::FailFast => return Err(error),
                    BatchErrorPolicy::ContinueOnError => {
                        slots.push(Slot::Failed(SourceFailure {
                            source: name,
                            error: Box::new(error),
                        }));
                    }
                },
            }
        }

        // Durability: before any in-memory commit, persist the staged
        // sources' snapshots and one event-log record naming them all, so a
        // crash after this point recovers the whole batch and a crash before
        // it recovers none of it (batch atomicity on disk mirrors the
        // in-memory staging contract).
        if !staged.is_empty() {
            if let Some(dir) = self.config.data_dir.clone() {
                self.persist_staged(&dir, &staged)?;
            }
        }

        // Commit phase: every staged source, in input order.
        let mut staged = staged.into_iter();
        let mut outcomes = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot {
                Slot::Staged => {
                    let s = staged.next().ok_or_else(|| {
                        AladinError::Discovery("staged source missing at commit".into())
                    })?;
                    outcomes.push(SourceOutcome::Integrated(self.commit_staged(s)));
                }
                Slot::Failed(f) => outcomes.push(SourceOutcome::Quarantined(f)),
            }
        }
        Ok(BatchReport { outcomes })
    }

    /// Steps 4–5 for one analysed source, computed against the committed
    /// warehouse plus the already-staged batch sources (minus `exclude`, used
    /// by [`Aladin::refresh_source`] to hide the stale version of the source
    /// being refreshed) — without mutating anything. Pair jobs run
    /// concurrently; outcomes are merged in source-name order, each
    /// outcome's links already being in a deterministic per-pair, per-row
    /// order, so staging a batch is indistinguishable from sequential
    /// addition. A pair job that panics (or is injected to panic) is
    /// contained: the pair is skipped and recorded as a [`PairFailure`]; a
    /// pair job that returns an error fails the whole source.
    fn stage_source(
        &self,
        db: Database,
        structure: SourceStructure,
        structure_elapsed: Duration,
        staged: &[StagedSource],
        exclude: Option<&str>,
    ) -> AladinResult<StagedSource> {
        let name = db.name().to_string();
        let (config, plan) = (&self.config, self.plan);
        let empty = SourceStructure::default();
        let mut others: Vec<(&str, &Database, &SourceStructure)> = self
            .warehouse
            .iter()
            .filter(|(n, _)| Some(n.as_str()) != exclude)
            .map(|(n, d)| (n.as_str(), d, self.metadata.structure(n).unwrap_or(&empty)))
            .collect();
        for s in staged {
            others.push((s.report.source.as_str(), &s.db, &s.structure));
        }
        others.sort_by(|a, b| a.0.cmp(b.0));

        let results = run_jobs(config.workers, others.len(), |i| {
            let (other_name, other_db, other_structure) = others[i];
            if FaultInjection::pair_listed(&config.faults.panic_pairs, &name, other_name) {
                panic!("injected pair panic: {name} vs {other_name}");
            }
            if FaultInjection::pair_listed(&config.faults.fail_pairs, &name, other_name) {
                return Err(AladinError::Discovery(format!(
                    "injected pair failure: {name} vs {other_name}"
                )));
            }
            discover_against(&db, &structure, other_db, other_structure, &plan, config)
        });
        let mut outcomes: Vec<PairOutcome> = Vec::with_capacity(results.len());
        let mut failures: Vec<PairFailure> = Vec::new();
        for (result, (other_name, _, _)) in results.into_iter().zip(&others) {
            match result {
                Ok(Ok(outcome)) => outcomes.push(outcome),
                // A genuine discovery error fails the source (and, under
                // FailFast, the batch).
                Ok(Err(e)) => return Err(e),
                // A panic is contained: skip the pair, record the failure.
                Err(panic) => failures.push(PairFailure {
                    source: name.clone(),
                    pair: (*other_name).to_string(),
                    step: "link/duplicate discovery".to_string(),
                    error: panic.message,
                }),
            }
        }

        // Deterministic merge: outcomes arrive in warehouse (source-name)
        // order regardless of which worker finished first.
        let mut explicit_links: Vec<Link> = Vec::new();
        let mut implicit_links: Vec<Link> = Vec::new();
        let mut duplicate_links: Vec<Link> = Vec::new();
        let mut pairs_compared = 0usize;
        let mut candidates_scored = 0usize;
        let mut link_elapsed = Duration::ZERO;
        let mut duplicate_elapsed = Duration::ZERO;
        let mut pair_timings: Vec<StepTiming> = Vec::new();
        for outcome in outcomes {
            pairs_compared += outcome.pairs_compared;
            candidates_scored += outcome.candidates_scored;
            link_elapsed += outcome.link_elapsed;
            duplicate_elapsed += outcome.duplicate_elapsed;
            pair_timings.push(StepTiming {
                source: name.clone(),
                step: "link discovery".to_string(),
                pair: Some(outcome.other.clone()),
                elapsed: outcome.link_elapsed,
                output_count: outcome.explicit.len() + outcome.implicit.len(),
                pairs_compared: outcome.pairs_compared,
            });
            pair_timings.extend(outcome.phase_timings);
            pair_timings.push(StepTiming {
                source: name.clone(),
                step: "duplicate detection".to_string(),
                pair: Some(outcome.other),
                elapsed: outcome.duplicate_elapsed,
                output_count: outcome.duplicates.len(),
                pairs_compared: outcome.candidates_scored,
            });
            explicit_links.extend(outcome.explicit);
            implicit_links.extend(outcome.implicit);
            duplicate_links.extend(outcome.duplicates);
        }

        let structure_timing = StepTiming {
            output_count: structure.relationships.len(),
            ..StepTiming::local(name.clone(), "structure discovery", structure_elapsed)
        };
        let report = IntegrationReport {
            source: name.clone(),
            tables: db.table_count(),
            rows: db.total_rows(),
            primary_relations: structure
                .primary_relations
                .iter()
                .map(|p| (p.table.clone(), p.accession_column.clone()))
                .collect(),
            secondary_relations: structure.secondary_relations.len(),
            relationships: structure.relationships.len(),
            explicit_links: explicit_links.len(),
            implicit_links: implicit_links.len(),
            duplicates: duplicate_links.len(),
            pairs_compared,
            step_timings: vec![
                structure_timing.clone(),
                StepTiming {
                    output_count: explicit_links.len() + implicit_links.len(),
                    pairs_compared,
                    ..StepTiming::local(name.clone(), "link discovery", link_elapsed)
                },
                StepTiming {
                    output_count: duplicate_links.len(),
                    pairs_compared: candidates_scored,
                    ..StepTiming::local(name.clone(), "duplicate detection", duplicate_elapsed)
                },
            ],
            quarantined: Vec::new(),
            pair_failures: failures.clone(),
        };

        Ok(StagedSource {
            db,
            structure,
            structure_timing,
            pair_timings,
            explicit_links,
            implicit_links,
            duplicate_links,
            failures,
            report,
        })
    }

    /// Persist the staged sources of one batch: a checksummed snapshot per
    /// source under `sources/`, then a single event-log record naming them
    /// all. The event record is the commit point — snapshot files without it
    /// are invisible to recovery — so on any failure the snapshots written
    /// here are removed again (best-effort) and the batch reports a
    /// [`AladinError::Durability`] without mutating the warehouse.
    fn persist_staged(&self, dir: &Path, staged: &[StagedSource]) -> AladinResult<()> {
        let sources_dir = dir.join("sources");
        std::fs::create_dir_all(&sources_dir).map_err(|e| {
            durability(
                "creating sources directory",
                RelError::Durability(e.to_string()),
            )
        })?;
        let mut written: Vec<PathBuf> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let outcome = (|| -> Result<(), AladinError> {
            for s in staged {
                let name = s.report.source.clone();
                let path = sources_dir.join(source_snapshot_file(&name));
                let fresh = !path.exists();
                persist::write_snapshot_at(&path, &s.db, 0)
                    .map_err(|e| durability(format!("writing snapshot for '{name}'"), e))?;
                if fresh {
                    written.push(path);
                }
                names.push(name);
            }
            append_pipeline_event(dir, &names)
                .map_err(|e| durability("appending pipeline commit event", e))
        })();
        if outcome.is_err() {
            for path in written {
                let _ = std::fs::remove_file(path);
            }
        }
        outcome
    }

    /// Reopen a durable warehouse from [`AladinConfig::data_dir`]: replay the
    /// pipeline event log (truncating a torn tail), load every active
    /// source's snapshot, and re-integrate them in last-commit order. A
    /// missing or corrupt snapshot loses that source — reported in
    /// [`PipelineRecovery::lost`] — never the whole warehouse. Discovery is
    /// deterministic, so re-integration reproduces the links and duplicates
    /// the crashed process had published.
    pub fn open(config: AladinConfig) -> AladinResult<(Aladin, PipelineRecovery)> {
        let start = Instant::now();
        let dir = config.data_dir.clone().ok_or_else(|| {
            durability(
                "opening durable warehouse",
                RelError::Durability("AladinConfig::data_dir is not set".into()),
            )
        })?;
        std::fs::create_dir_all(&dir).map_err(|e| {
            durability(
                "creating data directory",
                RelError::Durability(e.to_string()),
            )
        })?;
        let (active, truncated_events) = replay_pipeline_events(&dir)
            .map_err(|e| durability("replaying pipeline event log", e))?;
        let sources_dir = dir.join("sources");
        let mut recovery = PipelineRecovery {
            truncated_events,
            ..PipelineRecovery::default()
        };
        let mut dbs = Vec::new();
        for name in active {
            let path = sources_dir.join(source_snapshot_file(&name));
            match persist::read_snapshot(&path) {
                Ok((db, _)) => dbs.push(db),
                Err(_) => recovery.lost.push(name),
            }
        }
        // Re-integrate with persistence off: the snapshots and events being
        // replayed are already on disk, re-logging them would duplicate the
        // history. `data_dir` is restored afterwards so later commits
        // persist normally.
        let mut offline = config.clone();
        offline.data_dir = None;
        let mut aladin = Aladin::new(offline);
        let report = aladin.add_databases_with(dbs, BatchErrorPolicy::ContinueOnError)?;
        for outcome in &report.outcomes {
            match outcome {
                SourceOutcome::Integrated(r) => recovery.recovered.push(r.source.clone()),
                SourceOutcome::Quarantined(f) => recovery.lost.push(f.source.clone()),
            }
        }
        aladin.config.data_dir = config.data_dir;
        recovery.elapsed = start.elapsed();
        aladin.metadata.add_timing(StepTiming::local(
            "warehouse",
            "cold-start recovery",
            recovery.elapsed,
        ));
        Ok((aladin, recovery))
    }

    /// Apply one staged source to the metadata repository and the warehouse.
    /// This is the only place integration mutates `self`, and it cannot fail:
    /// everything fallible happened during staging.
    fn commit_staged(&mut self, staged: StagedSource) -> IntegrationReport {
        let StagedSource {
            db,
            structure,
            structure_timing,
            pair_timings,
            explicit_links,
            implicit_links,
            duplicate_links,
            failures,
            report,
        } = staged;
        self.metadata.add_timing(structure_timing);
        for timing in pair_timings {
            self.metadata.add_timing(timing);
        }
        self.metadata.put_structure(structure);
        self.metadata.add_links(explicit_links);
        self.metadata.add_links(implicit_links);
        self.metadata.add_duplicates(duplicate_links);
        for failure in failures {
            self.metadata.add_failure(failure);
        }
        self.warehouse.insert(report.source.clone(), db);
        report
    }

    /// The per-step, per-pair metrics report over everything integrated so
    /// far (see [`PipelineMetrics`]).
    pub fn metrics(&self) -> PipelineMetrics {
        self.metadata.metrics()
    }

    /// Handle a changed source (Section 6.2's maintenance discussion): if the
    /// fraction of changed rows is below the configured threshold the update
    /// is deferred (returns `None`); otherwise the source is fully
    /// re-integrated (returns the new report).
    ///
    /// Transactional: the new version is analysed and staged against the
    /// warehouse *minus* the stale version first, and the stale version is
    /// swapped out only once staging has succeeded. A failed refresh
    /// therefore leaves the warehouse and the metadata repository — including
    /// the previous version of the source — exactly as before the call.
    pub fn refresh_source(
        &mut self,
        db: Database,
        changed_fraction: f64,
    ) -> AladinResult<Option<IntegrationReport>> {
        let name = db.name().to_string();
        if !self.warehouse.contains_key(&name) {
            return Err(AladinError::UnknownSource(name));
        }
        if changed_fraction < self.config.refresh_change_threshold {
            return Ok(None);
        }
        let config = &self.config;
        let (structure, elapsed) = run_jobs(1, 1, |_| analyze_with_faults(&db, config))
            .pop()
            .unwrap_or_else(|| unreachable!("one job yields one result"))
            .unwrap_or_else(|p| {
                Err(AladinError::Discovery(format!(
                    "analysis of source '{name}' panicked: {}",
                    p.message
                )))
            })?;
        let staged = self.stage_source(db, structure, elapsed, &[], Some(&name))?;
        // Durability: overwrite the source's snapshot (atomically) and log a
        // re-commit event before swapping in memory, so a crash during the
        // swap recovers the refreshed version.
        if let Some(dir) = self.config.data_dir.clone() {
            self.persist_staged(&dir, std::slice::from_ref(&staged))?;
        }
        // Staging succeeded — only now retire the stale version.
        self.warehouse.remove(&name);
        self.metadata.remove_source(&name);
        Ok(Some(self.commit_staged(staged)))
    }

    /// Wrap this pipeline in the unified access facade
    /// ([`crate::access::Warehouse`]), the entry point for browsing,
    /// searching and querying with cached access structures.
    pub fn into_warehouse(self) -> crate::access::Warehouse {
        crate::access::Warehouse::from_aladin(self)
    }

    /// All primary objects of a source as object references.
    pub fn objects_of(&self, source: &str) -> AladinResult<Vec<ObjectRef>> {
        let db = self.database(source)?;
        let structure = self
            .metadata
            .structure(source)
            .ok_or_else(|| AladinError::UnknownSource(source.to_string()))?;
        let mut out = Vec::new();
        for primary in &structure.primary_relations {
            let table = db.table(&primary.table)?;
            let idx = table.column_index(&primary.accession_column)?;
            for row in table.rows() {
                let v = &row[idx];
                if !v.is_null() {
                    out.push(ObjectRef::new(source, primary.table.clone(), v.render()));
                }
            }
        }
        Ok(out)
    }

    /// Total number of discovered links (excluding duplicates).
    pub fn link_count(&self) -> usize {
        self.metadata.links().len()
    }

    /// Total number of discovered duplicate links.
    pub fn duplicate_count(&self) -> usize {
        self.metadata.duplicates().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aladin_relstore::{ColumnDef, TableSchema, Value};

    fn protkb() -> Database {
        let mut db = Database::new("protkb");
        db.create_table(
            "protkb_entry",
            TableSchema::of(vec![
                ColumnDef::int("entry_id"),
                ColumnDef::text("ac"),
                ColumnDef::text("de"),
            ]),
        )
        .unwrap();
        db.create_table(
            "protkb_dr",
            TableSchema::of(vec![
                ColumnDef::int("dr_id"),
                ColumnDef::int("entry_id"),
                ColumnDef::text("value"),
            ]),
        )
        .unwrap();
        for (i, desc) in [
            "serine kinase involved in signalling",
            "membrane transporter for glucose",
            "ribosomal assembly factor",
        ]
        .iter()
        .enumerate()
        {
            db.insert(
                "protkb_entry",
                vec![
                    Value::Int(i as i64 + 1),
                    Value::text(format!("P1000{}", i + 1)),
                    Value::text(*desc),
                ],
            )
            .unwrap();
        }
        for (id, entry, v) in [
            (1, 1, "STRUCTDB; 1ABC"),
            (2, 2, "STRUCTDB; 2DEF"),
            (3, 3, "STRUCTDB; 3GHI"),
        ] {
            db.insert(
                "protkb_dr",
                vec![Value::Int(id), Value::Int(entry), Value::text(v)],
            )
            .unwrap();
        }
        db
    }

    fn structdb() -> Database {
        let mut db = Database::new("structdb");
        db.create_table(
            "structures",
            TableSchema::of(vec![
                ColumnDef::text("structure_id"),
                ColumnDef::text("title"),
            ]),
        )
        .unwrap();
        db.create_table(
            "chains",
            TableSchema::of(vec![
                ColumnDef::int("chain_id"),
                ColumnDef::text("structure_id"),
            ]),
        )
        .unwrap();
        for (acc, title) in [
            ("1ABC", "structure of a serine kinase"),
            ("2DEF", "structure of a glucose transporter"),
            ("3GHI", "structure of a ribosomal factor"),
        ] {
            db.insert("structures", vec![Value::text(acc), Value::text(title)])
                .unwrap();
        }
        for (id, acc) in [(1, "1ABC"), (2, "2DEF"), (3, "3GHI")] {
            db.insert("chains", vec![Value::Int(id), Value::text(acc)])
                .unwrap();
        }
        db
    }

    fn config() -> AladinConfig {
        AladinConfig {
            link_min_matches: 1,
            min_distinct_values: 2,
            ..Default::default()
        }
    }

    #[test]
    fn analyze_database_detects_structure() {
        let structure = analyze_database(&protkb(), &config()).unwrap();
        assert_eq!(structure.primary_relations.len(), 1);
        assert_eq!(structure.primary_relations[0].table, "protkb_entry");
        assert_eq!(structure.primary_relations[0].accession_column, "ac");
        assert_eq!(structure.secondary_relations.len(), 1);
        assert!(!structure.relationships.is_empty());
        assert!(!structure.column_stats.is_empty());
    }

    #[test]
    fn adding_two_sources_discovers_cross_references() {
        let mut aladin = Aladin::new(config());
        let r1 = aladin.add_database(protkb()).unwrap();
        assert_eq!(r1.explicit_links, 0); // nothing to link against yet
        assert_eq!(r1.primary_relations.len(), 1);

        let r2 = aladin.add_database(structdb()).unwrap();
        assert!(r2.explicit_links >= 3, "found {}", r2.explicit_links);
        assert!(aladin.link_count() >= 3);
        assert_eq!(aladin.source_count(), 2);
        assert!(r2.total_elapsed() > Duration::ZERO);
        assert!(!aladin.metadata().timings().is_empty());
    }

    #[test]
    fn metrics_split_link_discovery_into_its_phases() {
        let mut aladin = Aladin::new(config());
        aladin.add_database(protkb()).unwrap();
        aladin.add_database(structdb()).unwrap();
        let metrics = aladin.metrics();
        let phases: Vec<&StepTiming> = metrics
            .timings
            .iter()
            .filter(|t| t.step.starts_with("link discovery/"))
            .collect();
        let names: Vec<&str> = phases.iter().map(|t| t.step.as_str()).collect();
        assert_eq!(
            names,
            [
                "link discovery/explicit",
                "link discovery/sequence",
                "link discovery/text",
                "link discovery/shared-term"
            ]
        );
        let step = metrics.pair_timings("link discovery").next().unwrap();
        assert!(phases
            .iter()
            .all(|t| t.key() == ("structdb", t.step.as_str(), Some("protkb"))));
        assert_eq!(
            phases.iter().map(|t| t.output_count).sum::<usize>(),
            step.output_count
        );
        assert_eq!(phases[0].pairs_compared, step.pairs_compared);
        // Phases are shown on their own but not counted twice in totals.
        let steps = metrics.timings.iter().filter(|t| !t.is_phase());
        assert_eq!(
            metrics.total_elapsed(),
            steps.map(|t| t.elapsed).sum::<Duration>()
        );
    }

    #[test]
    fn duplicate_source_names_are_rejected() {
        let mut aladin = Aladin::new(config());
        aladin.add_database(protkb()).unwrap();
        let err = aladin.add_database(protkb()).unwrap_err();
        assert!(matches!(err, AladinError::DuplicateSource(_)));
    }

    #[test]
    fn objects_of_lists_primary_objects() {
        let mut aladin = Aladin::new(config());
        aladin.add_database(protkb()).unwrap();
        let objects = aladin.objects_of("protkb").unwrap();
        assert_eq!(objects.len(), 3);
        assert!(objects.iter().any(|o| o.accession == "P10001"));
        assert!(aladin.objects_of("missing").is_err());
    }

    #[test]
    fn refresh_defers_small_changes_and_reintegrates_large_ones() {
        let mut aladin = Aladin::new(config());
        aladin.add_database(protkb()).unwrap();
        aladin.add_database(structdb()).unwrap();
        let links_before = aladin.link_count();

        // Small change: deferred.
        let outcome = aladin.refresh_source(protkb(), 0.01).unwrap();
        assert!(outcome.is_none());
        assert_eq!(aladin.link_count(), links_before);

        // Large change: re-integrated, links recomputed.
        let outcome = aladin.refresh_source(protkb(), 0.5).unwrap();
        assert!(outcome.is_some());
        assert!(aladin.link_count() >= 3);
        assert_eq!(aladin.source_count(), 2);

        // Refreshing an unknown source is an error.
        assert!(aladin.refresh_source(Database::new("nope"), 1.0).is_err());
    }

    #[test]
    fn link_plan_controls_which_links_are_computed() {
        let mut aladin = Aladin::new(config());
        aladin.set_link_plan(LinkDiscoveryPlan {
            explicit: false,
            sequence: false,
            text: false,
            shared_terms: false,
            duplicates: false,
        });
        aladin.add_database(protkb()).unwrap();
        let report = aladin.add_database(structdb()).unwrap();
        assert_eq!(report.explicit_links, 0);
        assert_eq!(report.implicit_links, 0);
        assert_eq!(report.duplicates, 0);
        assert_eq!(aladin.link_count(), 0);
    }

    #[test]
    fn a_mid_batch_failure_commits_nothing_under_fail_fast() {
        let mut cfg = config();
        cfg.faults.fail_analysis.push("structdb".into());
        let mut aladin = Aladin::new(cfg);
        let generation = aladin.metadata().generation();
        let err = aladin
            .add_databases(vec![protkb(), structdb()])
            .unwrap_err();
        assert!(err.to_string().contains("injected analysis failure"));
        // All-or-nothing: the healthy first source was not stranded in the
        // warehouse by the failure of the second.
        assert_eq!(aladin.source_count(), 0);
        assert!(aladin.metadata().structure("protkb").is_none());
        assert_eq!(aladin.metadata().generation(), generation);
    }

    #[test]
    fn continue_on_error_quarantines_only_the_failing_source() {
        let mut cfg = config();
        cfg.faults.fail_analysis.push("protkb".into());
        let mut aladin = Aladin::new(cfg);
        let report = aladin
            .add_databases_with(
                vec![protkb(), structdb()],
                BatchErrorPolicy::ContinueOnError,
            )
            .unwrap();
        assert!(!report.is_complete());
        let failure = report.quarantined().next().unwrap();
        assert_eq!(failure.source, "protkb");
        assert!(failure.error.to_string().contains("injected"));
        assert_eq!(report.integrated().count(), 1);
        assert_eq!(aladin.source_count(), 1);
        assert!(aladin.database("structdb").is_ok());
        assert!(aladin.database("protkb").is_err());

        // The classic API surfaces the same outcome as PartialIntegration.
        let mut cfg = config().with_batch_policy(BatchErrorPolicy::ContinueOnError);
        cfg.faults.fail_analysis.push("protkb".into());
        let mut aladin = Aladin::new(cfg);
        let err = aladin
            .add_databases(vec![protkb(), structdb()])
            .unwrap_err();
        assert!(matches!(err, AladinError::PartialIntegration { .. }));
        assert_eq!(aladin.source_count(), 1);
    }

    #[test]
    fn source_without_accession_candidate_is_tolerated() {
        let mut db = Database::new("weird");
        db.create_table(
            "numbers",
            TableSchema::of(vec![ColumnDef::int("a"), ColumnDef::int("b")]),
        )
        .unwrap();
        db.insert("numbers", vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        let mut aladin = Aladin::new(config());
        let report = aladin.add_database(db).unwrap();
        assert!(report.primary_relations.is_empty());
        assert_eq!(aladin.source_count(), 1);
    }
}
