//! The benchmark's workloads: which generated world each one integrates and
//! which read stream it serves.
//!
//! Every workload runs the whole path — source dumps → integrated warehouse
//! → durable add/refresh → crash and reopen → reads beside a live writer —
//! because every end-to-end metric is reported on every workload. They differ
//! in the two input properties the layers' costs depend on most:
//!
//! * how much the sources overlap, which drives duplicate detection and the
//!   sequence and text link phases (the archive-vs-protein-KB pair);
//! * how large the read key space is relative to the serving cache's
//!   4,096-entry cap, which decides whether reads hit the cache or run the
//!   analyzer, optimizer and executor.

use crate::stats::{SplitMix, Zipf};
use aladin_bench::expected_truth;
use aladin_core::eval::ExpectedTruth;
use aladin_core::{LinkKind, ObjectRef, QuerySpec, Server, Snapshot};
use aladin_datagen::{Corpus, CorpusConfig, World};
use std::collections::BTreeSet;
use std::fmt::Debug;

/// Sources held out of the pre-built durable warehouse and added one at a
/// time in the timed part: the archive (the expensive pair against the
/// protein KB) and the gene source.
pub const HELD_OUT: [&str; 2] = ["archive", "genedb"];

/// Source refreshed with a changed release during durable evolution.
pub const REFRESHED: &str = "protkb";

/// Source the live writer keeps re-integrating while the reader serves. It
/// renders the same from every seed, so its discovered structure, and with
/// it the set of objects the reads address, never changes under the reader.
pub const WRITER_SOURCE: &str = "interactdb";

/// Seed of the generated world. The cost of integration is dominated by
/// aligning homologous sequences, whose lengths the world draws at random
/// per protein family; at a size one run can integrate several times, that
/// draw moves integration time by ±20% from seed to seed. Fixing the world
/// and seeding its rendering keeps the work of a run the same across seeds,
/// so the spread across seeds measures the program rather than the draw.
pub const WORLD_SEED: u64 = 2005;

/// How large a world to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's size.
    Full,
    /// A tiny world for the benchmark's own tests.
    Smoke,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Duplicate-heavy world (full archive overlap plus three structure
    /// flavours) instead of a lightly overlapping one.
    pub duplicate_heavy: bool,
    /// Distinct reads per kind; `None` serves every query of the space.
    pub hot_keys_per_kind: Option<usize>,
}

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "overlap_cold",
        duplicate_heavy: true,
        hot_keys_per_kind: None,
    },
    Workload {
        name: "sparse_hot",
        duplicate_heavy: false,
        hot_keys_per_kind: Some(80),
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The generator configuration of this workload's world.
    pub fn corpus_config(&self, seed: u64, scale: Scale) -> CorpusConfig {
        let proteins = match scale {
            Scale::Full => 100,
            Scale::Smoke => 16,
        };
        let mut config = CorpusConfig::small(seed);
        config.n_proteins = proteins;
        config.n_families = (proteins / 8).max(4);
        config.n_terms = (proteins / 3).max(12);
        config.n_taxa = 10;
        config.interaction_count = proteins * 2 / 3;
        if self.duplicate_heavy {
            // The Swiss-Prot/PIR situation plus the PDB three-flavour
            // structure databases, as in `exp_pipeline`'s largest world.
            config.archive_overlap = 1.0;
            config.structure_fraction = 0.6;
            config.three_flavour_structures = true;
            config.gene_fraction = 0.1;
        } else {
            config.archive_overlap = 0.2;
            config.structure_fraction = 0.4;
            config.three_flavour_structures = false;
            config.gene_fraction = 0.4;
        }
        config
    }
}

/// Everything a run derives from its seed before touching the system: the
/// source dumps, a changed release of every source (the same world rendered
/// with another renderer seed: other noise, other withheld references), the
/// ground truth, and the words users search for.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The sources as published.
    pub corpus: Corpus,
    /// A later release of the same sources.
    pub changed: Corpus,
    /// Ground truth in the evaluator's form.
    pub truth: ExpectedTruth,
    /// Search vocabulary: description words of the world's proteins.
    pub words: Vec<String>,
}

impl Inputs {
    /// Generate the inputs of `workload` for `seed`. The world itself (its
    /// proteins, families and sequences) comes from [`WORLD_SEED`]; `seed`
    /// decides how the sources render it — descriptions, withheld
    /// cross-references, mutated archive copies — and everything derived
    /// from the dumps.
    pub fn generate(workload: &Workload, seed: u64, scale: Scale) -> Inputs {
        let world = World::generate(&workload.corpus_config(WORLD_SEED, scale));
        let config = workload.corpus_config(seed, scale);
        let corpus = Corpus::from_world(&config, &world);
        let changed_config = CorpusConfig {
            seed: seed ^ 0x5EED_0FC4_A96E,
            ..config
        };
        let changed = Corpus::from_world(&changed_config, &world);
        let truth = expected_truth(&corpus.truth);
        let words: BTreeSet<String> = world
            .proteins
            .iter()
            .flat_map(|p| {
                p.description
                    .split_whitespace()
                    .chain(p.name.split_whitespace())
            })
            .map(|w| {
                w.trim_matches(|c: char| !c.is_alphanumeric())
                    .to_ascii_lowercase()
            })
            .filter(|w| w.len() >= 4 && w.chars().all(|c| c.is_ascii_alphabetic()))
            .collect();
        Inputs {
            corpus,
            changed,
            truth,
            words: words.into_iter().collect(),
        }
    }
}

/// The kind of a read, also the name of its per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadKind {
    /// Fetch one object by accession.
    Point,
    /// Ranked keyword search.
    Search,
    /// One object plus everything linked to it (depth 1).
    Follow,
    /// The browsable view of one object.
    View,
    /// Relational reads: a SQL point query or the path-guided join of a
    /// primary relation to a secondary table.
    Join,
}

impl ReadKind {
    /// Every kind, in the order the reader draws them from.
    pub const ALL: [ReadKind; 5] = [
        ReadKind::Point,
        ReadKind::Search,
        ReadKind::Follow,
        ReadKind::View,
        ReadKind::Join,
    ];
}

/// One read of the serving workload.
#[derive(Debug, Clone)]
pub enum Read {
    /// An object query (`Server::fetch`) on one source: a point lookup or
    /// a link traversal.
    Fetch(ReadKind, String, QuerySpec),
    /// `search(text, 10)`.
    Search(String),
    /// `view(object)`.
    View(ObjectRef),
    /// `sql(source, query)`.
    Sql(String, String),
    /// `join_path(source, secondary table)`.
    Join(String, String),
}

impl Read {
    /// The kind the read is reported under.
    pub fn kind(&self) -> ReadKind {
        match self {
            Read::Fetch(kind, ..) => *kind,
            Read::Search(_) => ReadKind::Search,
            Read::View(_) => ReadKind::View,
            Read::Sql(..) | Read::Join(..) => ReadKind::Join,
        }
    }

    /// Serve the read through the server (cached path) and hand the answer
    /// and its size to `f`. `None` for a failed read; a point lookup that
    /// finds nothing for an accession taken from the warehouse also fails.
    pub fn serve_with<T>(
        &self,
        server: &Server,
        f: impl FnOnce(&dyn Debug, usize) -> T,
    ) -> Option<T> {
        match self {
            Read::Fetch(kind, _, spec) => {
                let r = server.fetch(spec).ok()?;
                (*kind != ReadKind::Point || !r.is_empty()).then(|| f(&*r, r.len()))
            }
            Read::Search(text) => server.search(text, 10).ok().map(|r| f(&*r, r.len())),
            Read::View(object) => server.view(object).ok().map(|r| f(&*r, 1)),
            Read::Sql(source, query) => server
                .sql(source, query)
                .ok()
                .map(|r| f(&*r, r.row_count())),
            Read::Join(source, table) => server
                .join_path(source, table)
                .ok()
                .map(|r| f(&*r, r.row_count())),
        }
    }

    /// Answer the read directly on a pinned snapshot's warehouse, bypassing
    /// the serving cache; same contract as [`Read::serve_with`].
    pub fn direct_with<T>(
        &self,
        snapshot: &Snapshot,
        f: impl FnOnce(&dyn Debug, usize) -> T,
    ) -> Option<T> {
        let wh = snapshot.warehouse();
        match self {
            Read::Fetch(kind, _, spec) => {
                let r = wh.query(spec.clone()).fetch().ok()?;
                (*kind != ReadKind::Point || !r.is_empty()).then(|| f(&r, r.len()))
            }
            Read::Search(text) => wh.search_hits(text, 10).ok().map(|r| f(&r, r.len())),
            Read::View(object) => wh.view(object).ok().map(|r| f(&r, 1)),
            Read::Sql(source, query) => wh.sql(source, query).ok().map(|r| f(&r, r.row_count())),
            Read::Join(source, table) => wh
                .join_path(source, table)
                .ok()
                .map(|r| f(&r, r.row_count())),
        }
    }

    /// Serve the read; the size of the answer, `None` when it failed.
    pub fn serve(&self, server: &Server) -> Option<usize> {
        self.serve_with(server, |_, n| n)
    }

    /// Serve the read; a rendering of the answer for comparisons.
    pub fn serve_digest(&self, server: &Server) -> Option<String> {
        self.serve_with(server, |answer, _| format!("{answer:?}"))
    }

    /// Answer the read on `snapshot` directly; a rendering of the answer.
    pub fn direct(&self, snapshot: &Snapshot) -> Option<String> {
        self.direct_with(snapshot, |answer, _| format!("{answer:?}"))
    }
}

/// The distinct reads of a workload, grouped by kind, each group in a seeded
/// order that decides its Zipf ranks.
#[derive(Debug, Clone)]
pub struct ReadSpace {
    groups: Vec<Vec<Read>>,
    zipfs: Vec<Zipf>,
}

/// Zipf exponent of the read stream within each kind.
const ZIPF_EXPONENT: f64 = 0.9;

/// Link kinds a traversal can be restricted to.
const LINK_KINDS: [LinkKind; 5] = [
    LinkKind::ExplicitCrossRef,
    LinkKind::SequenceSimilarity,
    LinkKind::TextSimilarity,
    LinkKind::SharedTerm,
    LinkKind::Duplicate,
];

impl ReadSpace {
    /// Enumerate the reads over every source's primary objects on
    /// `snapshot`, shuffled with `seed`, and keep `hot_keys_per_kind` of
    /// each kind when given.
    pub fn build(
        snapshot: &Snapshot,
        words: &[String],
        seed: u64,
        hot_keys_per_kind: Option<usize>,
    ) -> ReadSpace {
        let aladin = snapshot.warehouse().aladin();
        let mut groups: Vec<Vec<Read>> = vec![Vec::new(); ReadKind::ALL.len()];
        let slot = |kind: ReadKind| {
            ReadKind::ALL
                .iter()
                .position(|k| *k == kind)
                .expect("listed")
        };
        let (point, search, follow, view, join) = (
            slot(ReadKind::Point),
            slot(ReadKind::Search),
            slot(ReadKind::Follow),
            slot(ReadKind::View),
            slot(ReadKind::Join),
        );
        for source in aladin.source_names() {
            let Some(structure) = aladin.metadata().structure(source) else {
                continue;
            };
            for object in aladin.objects_of(source).unwrap_or_default() {
                let spec = QuerySpec::accession(&object.source, &object.accession);
                groups[point].push(Read::Fetch(
                    ReadKind::Point,
                    object.source.clone(),
                    spec.clone(),
                ));
                for kind in [None].into_iter().chain(LINK_KINDS.map(Some)) {
                    groups[follow].push(Read::Fetch(
                        ReadKind::Follow,
                        object.source.clone(),
                        spec.clone().follow_links(kind, 1),
                    ));
                }
                if let Some(primary) = structure
                    .primary_relations
                    .iter()
                    .find(|p| p.table == object.table)
                {
                    groups[join].push(Read::Sql(
                        object.source.clone(),
                        format!(
                            "SELECT * FROM {} WHERE {} = '{}'",
                            primary.table, primary.accession_column, object.accession
                        ),
                    ));
                }
                groups[view].push(Read::View(object));
            }
            for secondary in &structure.secondary_relations {
                groups[join].push(Read::Join(source.to_string(), secondary.table.clone()));
            }
        }
        // Single words and word pairs, so the search key space grows with
        // the objects like the other kinds do.
        let mut rng = SplitMix::new(seed ^ 0x5EA2C4);
        groups[search].extend(words.iter().cloned().map(Read::Search));
        let pairs = (2 * groups[point].len()).saturating_sub(groups[search].len());
        if words.len() > 1 {
            for _ in 0..pairs {
                let a = &words[(rng.next_u64() % words.len() as u64) as usize];
                let b = &words[(rng.next_u64() % words.len() as u64) as usize];
                if a != b {
                    groups[search].push(Read::Search(format!("{a} {b}")));
                }
            }
        }
        for group in &mut groups {
            rng.shuffle(group);
            if let Some(keep) = hot_keys_per_kind {
                group.truncate(keep);
            }
        }
        let zipfs = groups
            .iter()
            .map(|g| Zipf::new(g.len().max(1), ZIPF_EXPONENT))
            .collect();
        ReadSpace { groups, zipfs }
    }

    /// Number of distinct reads.
    pub fn len(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// True when there is nothing to read.
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(Vec::is_empty)
    }

    /// The next read of the stream: a kind drawn uniformly among the
    /// non-empty kinds, then a Zipf-ranked read of that kind.
    pub fn draw(&self, rng: &mut SplitMix) -> &Read {
        self.draw_keyed(rng).1
    }

    /// [`ReadSpace::draw`], plus a number that identifies the read within
    /// the space.
    pub fn draw_keyed(&self, rng: &mut SplitMix) -> (usize, &Read) {
        loop {
            let kind = (rng.next_u64() % self.groups.len() as u64) as usize;
            if !self.groups[kind].is_empty() {
                let rank = self.zipfs[kind].sample(rng);
                let offset: usize = self.groups[..kind].iter().map(Vec::len).sum();
                return (offset + rank, &self.groups[kind][rank]);
            }
        }
    }
}
