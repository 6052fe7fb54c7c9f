//! Discovery of implicit links: relationships that are not stored anywhere in
//! the data but can be inferred from value similarity.
//!
//! Section 4.4 names three kinds of comparison: sequence fields (homology),
//! long text fields (information retrieval / entity recognition) and shared
//! controlled-vocabulary terms. Each discovery function below handles one of
//! them and produces object-level [`Link`]s.
//!
//! Sequences are compared only within one alphabet class: a nucleotide
//! sequence only against nucleotide sequences, a protein only against
//! proteins (see [`discover_sequence_links`]).

use crate::config::AladinConfig;
use crate::error::AladinResult;
use crate::metadata::{Link, LinkKind, ObjectRef, SourceStructure};
use crate::secondary::owner_accessions;
use aladin_relstore::Database;
use aladin_seq::alphabet::Alphabet;
use aladin_seq::blast::BlastIndex;
use aladin_textmine::tfidf::TfIdfModel;
use std::collections::{HashMap, HashSet};

/// Collect `(owner accession, value)` pairs of all columns of a source that
/// satisfy a predicate on the column statistics.
fn collect_field_values<F>(
    db: &Database,
    structure: &SourceStructure,
    mut keep: F,
) -> AladinResult<Vec<(ObjectRef, String)>>
where
    F: FnMut(&aladin_relstore::stats::ColumnStats) -> bool,
{
    let mut out = Vec::new();
    for cs in &structure.column_stats {
        if !keep(cs) {
            continue;
        }
        let table = match db.table(&cs.table) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let col = match table.column_index(&cs.column) {
            Ok(i) => i,
            Err(_) => continue,
        };
        let owners = owner_accessions(
            db,
            &structure.primary_relations,
            &structure.secondary_relations,
            &structure.relationships,
            &cs.table,
        )
        .unwrap_or_else(|_| vec![None; table.row_count()]);
        let primary_table = structure
            .secondary(&cs.table)
            .map(|s| s.primary_table.clone())
            .unwrap_or_else(|| cs.table.clone());
        for (row_idx, row) in table.rows().iter().enumerate() {
            let v = &row[col];
            if v.is_null() {
                continue;
            }
            if let Some(owner) = owners.get(row_idx).cloned().flatten() {
                out.push((
                    ObjectRef::new(db.name(), primary_table.clone(), owner),
                    v.render(),
                ));
            }
        }
    }
    Ok(out)
}

/// The alphabet class a sequence is aligned within: [`Alphabet::Dna`] for
/// nucleotide sequences (DNA or RNA), [`Alphabet::Protein`] for everything
/// else, including values no alphabet validates.
fn alphabet_class(sequence: &str) -> Alphabet {
    match Alphabet::detect(sequence) {
        Some(alphabet) if alphabet.is_nucleotide() => Alphabet::Dna,
        _ => Alphabet::Protein,
    }
}

/// One seeded index over the target sequences of one alphabet class.
struct ClassIndex {
    class: Alphabet,
    index: BlastIndex,
    /// Position in the target sequence list of each subject, by ordinal.
    targets: Vec<usize>,
}

/// The target side of sequence-link discovery: one [`ClassIndex`] per
/// alphabet class the target sequences contain.
struct TargetIndexes(Vec<ClassIndex>);

impl TargetIndexes {
    fn build(to_seqs: &[(ObjectRef, String)]) -> TargetIndexes {
        let mut indexes: Vec<ClassIndex> = Vec::new();
        for (position, (obj, seq)) in to_seqs.iter().enumerate() {
            let class = alphabet_class(seq);
            let slot = match indexes.iter().position(|c| c.class == class) {
                Some(slot) => slot,
                None => {
                    indexes.push(ClassIndex {
                        class,
                        index: BlastIndex::new(class),
                        targets: Vec::new(),
                    });
                    indexes.len() - 1
                }
            };
            indexes[slot].index.add(obj.accession.as_str(), seq);
            indexes[slot].targets.push(position);
        }
        TargetIndexes(indexes)
    }

    /// The index a query is searched against: the one of its own class, if
    /// the target has sequences of that class.
    fn for_query(&self, sequence: &str) -> Option<&ClassIndex> {
        let class = alphabet_class(sequence);
        self.0.iter().find(|c| c.class == class)
    }
}

/// Discover sequence-homology links between two sources.
///
/// Sequence fields are recognized from the column statistics ("finding
/// sequence fields is simple, as those contain only strings over a fixed
/// alphabet"). Only sequences of the same alphabet class are compared: the
/// target side gets one seeded homology index per class it contains
/// (nucleotide, protein), and every source sequence is queried against the
/// index of its own class only. A DNA sequence aligned against proteins
/// scores as noise and never yields a link.
pub fn discover_sequence_links(
    from_db: &Database,
    from_structure: &SourceStructure,
    to_db: &Database,
    to_structure: &SourceStructure,
    config: &AladinConfig,
) -> AladinResult<Vec<Link>> {
    let from_seqs = collect_field_values(from_db, from_structure, |cs| cs.looks_like_sequence())?;
    let to_seqs = collect_field_values(to_db, to_structure, |cs| cs.looks_like_sequence())?;
    if from_seqs.is_empty() || to_seqs.is_empty() {
        return Ok(Vec::new());
    }
    let indexes = TargetIndexes::build(&to_seqs);

    let mut links = Vec::new();
    let mut seen: HashSet<(ObjectRef, ObjectRef)> = HashSet::new();
    for (from_obj, seq) in &from_seqs {
        let Some(class) = indexes.for_query(seq) else {
            continue;
        };
        for hit in class.index.search(seq) {
            let (to_obj, to_seq) = &to_seqs[class.targets[hit.subject]];
            if from_obj == to_obj {
                continue;
            }
            let similarity = hit.similarity(seq.len(), to_seq.len());
            if similarity < config.sequence_link_threshold {
                continue;
            }
            if seen.insert((from_obj.clone(), to_obj.clone())) {
                links.push(Link {
                    from: from_obj.clone(),
                    to: to_obj.clone(),
                    kind: LinkKind::SequenceSimilarity,
                    score: similarity,
                    evidence: format!(
                        "alignment score {} identity {:.2}",
                        hit.alignment.score,
                        hit.alignment.identity()
                    ),
                });
            }
            if links.len() >= config.max_implicit_links_per_pair {
                return Ok(links);
            }
        }
    }
    Ok(links)
}

/// Discover text-similarity links between two sources by comparing free-text
/// annotation fields with TF-IDF cosine similarity.
pub fn discover_text_links(
    from_db: &Database,
    from_structure: &SourceStructure,
    to_db: &Database,
    to_structure: &SourceStructure,
    config: &AladinConfig,
) -> AladinResult<Vec<Link>> {
    let from_texts = collect_field_values(from_db, from_structure, |cs| cs.looks_like_free_text())?;
    let to_texts = collect_field_values(to_db, to_structure, |cs| cs.looks_like_free_text())?;
    if from_texts.is_empty() || to_texts.is_empty() {
        return Ok(Vec::new());
    }

    // Fit the model on the target documents; document ids are target ordinals.
    let model = TfIdfModel::fit(
        to_texts
            .iter()
            .enumerate()
            .map(|(i, (_, text))| (i.to_string(), text.clone())),
    );

    let mut links = Vec::new();
    let mut seen: HashSet<(ObjectRef, ObjectRef)> = HashSet::new();
    for (from_obj, text) in &from_texts {
        for (doc_id, score) in model.most_similar(text, 3, &[]) {
            if score < config.text_link_threshold {
                continue;
            }
            let idx: usize = match doc_id.parse() {
                Ok(i) => i,
                Err(_) => continue,
            };
            let to_obj = &to_texts[idx].0;
            if from_obj == to_obj {
                continue;
            }
            if seen.insert((from_obj.clone(), to_obj.clone())) {
                links.push(Link {
                    from: from_obj.clone(),
                    to: to_obj.clone(),
                    kind: LinkKind::TextSimilarity,
                    score,
                    evidence: format!("tf-idf cosine {score:.2}"),
                });
            }
            if links.len() >= config.max_implicit_links_per_pair {
                return Ok(links);
            }
        }
    }
    Ok(links)
}

/// Discover shared-term links: objects of two sources annotated with the same
/// controlled-vocabulary value (e.g. the same ontology term accession) are
/// linked pairwise.
///
/// Only values that look like identifiers (no whitespace, length ≥ 4, not
/// purely numeric) participate, and values shared by more than
/// `shared_term_max_objects` objects on either side are skipped — ubiquitous
/// terms would otherwise link everything to everything.
pub fn discover_shared_term_links(
    from_db: &Database,
    from_structure: &SourceStructure,
    to_db: &Database,
    to_structure: &SourceStructure,
    config: &AladinConfig,
) -> AladinResult<Vec<Link>> {
    // Term-like columns: identifier-shaped, not sequences or free text, and
    // not the source's own primary accession column (cross-references into a
    // *third* source are exactly what we want to compare; the object's own
    // key is not an annotation).
    let is_own_accession = |structure: &SourceStructure, table: &str, column: &str| {
        structure.primary_relations.iter().any(|p| {
            p.table.eq_ignore_ascii_case(table) && p.accession_column.eq_ignore_ascii_case(column)
        })
    };
    let looks_like_term = |cs: &aladin_relstore::stats::ColumnStats| {
        !cs.all_numeric
            && !cs.looks_like_sequence()
            && !cs.looks_like_free_text()
            && cs.avg_len >= 4.0
    };
    let from_vals = collect_field_values(from_db, from_structure, |cs| {
        looks_like_term(cs) && !is_own_accession(from_structure, &cs.table, &cs.column)
    })?;
    let to_vals = collect_field_values(to_db, to_structure, |cs| {
        looks_like_term(cs) && !is_own_accession(to_structure, &cs.table, &cs.column)
    })?;
    if from_vals.is_empty() || to_vals.is_empty() {
        return Ok(Vec::new());
    }

    let mut from_by_value: HashMap<&str, Vec<&ObjectRef>> = HashMap::new();
    for (obj, v) in &from_vals {
        if v.contains(char::is_whitespace) {
            continue;
        }
        from_by_value.entry(v.as_str()).or_default().push(obj);
    }
    let mut to_by_value: HashMap<&str, Vec<&ObjectRef>> = HashMap::new();
    for (obj, v) in &to_vals {
        if v.contains(char::is_whitespace) {
            continue;
        }
        to_by_value.entry(v.as_str()).or_default().push(obj);
    }

    let mut links = Vec::new();
    let mut seen: HashSet<(ObjectRef, ObjectRef)> = HashSet::new();
    // Shared values in sorted order: iterating the HashMap directly would
    // emit links in a per-instance order (and truncate at the per-pair cap
    // nondeterministically).
    let mut shared_values: Vec<&str> = from_by_value.keys().copied().collect();
    shared_values.sort_unstable();
    for value in shared_values {
        let from_objs = &from_by_value[value];
        let to_objs = match to_by_value.get(value) {
            Some(o) => o,
            None => continue,
        };
        if from_objs.len() > config.shared_term_max_objects
            || to_objs.len() > config.shared_term_max_objects
        {
            continue;
        }
        for from_obj in from_objs {
            for to_obj in to_objs {
                if from_obj == to_obj {
                    continue;
                }
                if seen.insert(((*from_obj).clone(), (*to_obj).clone())) {
                    links.push(Link {
                        from: (*from_obj).clone(),
                        to: (*to_obj).clone(),
                        kind: LinkKind::SharedTerm,
                        score: 0.8,
                        evidence: format!("shared value '{value}'"),
                    });
                }
                if links.len() >= config.max_implicit_links_per_pair {
                    return Ok(links);
                }
            }
        }
    }
    Ok(links)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::analyze_database;
    use aladin_relstore::{ColumnDef, TableSchema, Value};

    fn seq(base: &str, n: usize) -> String {
        base.repeat(n)
    }

    fn protein_source(name: &str, entries: &[(&str, &str, &str)]) -> Database {
        // (accession, description, sequence)
        let mut db = Database::new(name);
        db.create_table(
            "entries",
            TableSchema::of(vec![
                ColumnDef::text("acc"),
                ColumnDef::text("description"),
                ColumnDef::text("sequence"),
            ]),
        )
        .unwrap();
        for (acc, desc, sequence) in entries {
            db.insert(
                "entries",
                vec![
                    Value::text(*acc),
                    Value::text(*desc),
                    Value::text(*sequence),
                ],
            )
            .unwrap();
        }
        db
    }

    fn config() -> AladinConfig {
        AladinConfig {
            link_min_matches: 1,
            min_distinct_values: 2,
            sequence_link_threshold: 0.5,
            text_link_threshold: 0.3,
            ..Default::default()
        }
    }

    #[test]
    fn sequence_links_connect_homologous_proteins() {
        let shared = seq("MKTAYIAKQRQISFVKSHFSRQ", 3);
        let other = seq("GGGGWWWWPPPPLLLLNNNNQQQQ", 3);
        let a = protein_source(
            "protkb",
            &[
                (
                    "P10001",
                    "serine kinase involved in signalling pathways",
                    &shared,
                ),
                ("P10002", "membrane transporter for sugar molecules", &other),
            ],
        );
        let b = protein_source(
            "archive",
            &[
                (
                    "PA0001",
                    "probable serine kinase involved in signalling",
                    &shared,
                ),
                (
                    "PA0002",
                    "ribosomal assembly factor for small subunit",
                    &seq("AAAACCCCDDDDEEEEFFFF", 3),
                ),
            ],
        );
        let cfg = config();
        let sa = analyze_database(&a, &cfg).unwrap();
        let sb = analyze_database(&b, &cfg).unwrap();
        let links = discover_sequence_links(&a, &sa, &b, &sb, &cfg).unwrap();
        assert!(!links.is_empty());
        assert!(links
            .iter()
            .any(|l| l.from.accession == "P10001" && l.to.accession == "PA0001"));
        assert!(links.iter().all(|l| l.kind == LinkKind::SequenceSimilarity));
        assert!(links
            .iter()
            .all(|l| l.from.accession != "P10002" || l.to.accession != "PA0002"));
    }

    const DNA_A: &str = "ATGGCTAGCTAGGATCCGATCGATTACGGCTAGCTTAGGCATCGAAGT";
    const DNA_B: &str = "TTGACCGTAAGCTTGCAATCGGATCCATGCAAGTTCGAGGCTAACTCA";
    const PROT_P: &str = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNL";
    const PROT_Q: &str = "MSDNGPQNQRNAPRITFGWPSDSTGSNQNGERSGARSKQRRPQGLPNN";

    /// A one-table source: an accession column plus the given sequence
    /// columns, one row per `(accession, sequences)` entry.
    fn sequence_source(name: &str, columns: &[&str], rows: &[(&str, &[&str])]) -> Database {
        let mut db = Database::new(name);
        let mut defs = vec![ColumnDef::text("acc")];
        defs.extend(columns.iter().map(|c| ColumnDef::text(*c)));
        db.create_table("entries", TableSchema::of(defs)).unwrap();
        for (acc, seqs) in rows {
            let mut row = vec![Value::text(*acc)];
            row.extend(seqs.iter().map(|s| Value::text(*s)));
            db.insert("entries", row).unwrap();
        }
        db
    }

    fn sequence_links(from: &Database, to: &Database) -> Vec<(String, String, String)> {
        let cfg = config();
        let (sa, sb) = (
            analyze_database(from, &cfg).unwrap(),
            analyze_database(to, &cfg).unwrap(),
        );
        discover_sequence_links(from, &sa, to, &sb, &cfg)
            .unwrap()
            .into_iter()
            .map(|l| (l.from.accession, l.to.accession, l.evidence))
            .collect()
    }

    #[test]
    fn dna_queries_skip_a_protein_only_target() {
        let target = vec![
            (
                ObjectRef::new("protkb", "entries", "P1"),
                PROT_P.to_string(),
            ),
            (
                ObjectRef::new("protkb", "entries", "P2"),
                PROT_Q.to_string(),
            ),
        ];
        let indexes = TargetIndexes::build(&target);
        // No nucleotide index exists, so a DNA query is never searched.
        assert!(indexes.for_query(DNA_A).is_none());
        assert!(indexes.for_query(&DNA_A.to_lowercase()).is_none());
        assert_eq!(indexes.for_query(PROT_P).unwrap().targets, vec![0, 1]);

        let genes = sequence_source(
            "genedb",
            &["dna"],
            &[("GN0001", &[DNA_A]), ("GN0002", &[DNA_B])],
        );
        let proteins = sequence_source(
            "protkb",
            &["protein"],
            &[("P10001", &[PROT_P]), ("P10002", &[PROT_Q])],
        );
        assert!(sequence_links(&genes, &proteins).is_empty());
        assert!(sequence_links(&proteins, &genes).is_empty());
    }

    #[test]
    fn same_class_sequences_still_link() {
        let genes = sequence_source(
            "genedb",
            &["dna"],
            &[("GN0001", &[DNA_A]), ("GN0002", &[DNA_B])],
        );
        let clones = sequence_source(
            "clonedb",
            &["dna"],
            &[("CL0001", &[DNA_B]), ("CL0002", &[DNA_A])],
        );
        let links = sequence_links(&genes, &clones);
        assert!(links.iter().any(|(f, t, _)| f == "GN0001" && t == "CL0002"));
        assert!(links.iter().any(|(f, t, _)| f == "GN0002" && t == "CL0001"));

        let proteins = sequence_source(
            "protkb",
            &["protein"],
            &[("P10001", &[PROT_P]), ("P10002", &[PROT_Q])],
        );
        let archive = sequence_source(
            "archive",
            &["protein"],
            &[("PA0001", &[PROT_Q]), ("PA0002", &[PROT_P])],
        );
        let links = sequence_links(&proteins, &archive);
        assert!(links.iter().any(|(f, t, _)| f == "P10001" && t == "PA0002"));
        assert!(links.iter().any(|(f, t, _)| f == "P10002" && t == "PA0001"));
    }

    #[test]
    fn a_mixed_target_links_each_query_to_its_own_class() {
        // TX0001 carries DNA_A and TX0002 PROT_Q; the other column of each row holds
        // a sequence no query resembles.
        let target = sequence_source(
            "mixed",
            &["dna", "protein"],
            &[("TX0001", &[DNA_A, PROT_P]), ("TX0002", &[DNA_B, PROT_Q])],
        );
        let queries = sequence_source(
            "queries",
            &["sequence"],
            &[("QU0001", &[DNA_A]), ("QU0002", &[PROT_Q])],
        );
        let links = sequence_links(&queries, &target);
        let pairs: Vec<(&str, &str)> = links
            .iter()
            .map(|(f, t, _)| (f.as_str(), t.as_str()))
            .collect();
        assert_eq!(pairs, [("QU0001", "TX0001"), ("QU0002", "TX0002")]);
        // Each identical pair scored under its own class's scheme: +2 per
        // nucleotide match, +5 per protein identity.
        let expected = [DNA_A.len() as i32 * 2, PROT_Q.len() as i32 * 5];
        for ((_, _, evidence), score) in links.iter().zip(expected) {
            assert_eq!(*evidence, format!("alignment score {score} identity 1.00"));
        }
    }

    #[test]
    fn text_links_connect_similar_descriptions() {
        let a = protein_source(
            "protkb",
            &[
                (
                    "P10001",
                    "serine threonine kinase involved in cell cycle regulation",
                    &seq("MKTAYIAKQR", 5),
                ),
                (
                    "P10002",
                    "glucose membrane transporter of the plasma membrane",
                    &seq("GGGGWWWWLL", 5),
                ),
            ],
        );
        let b = protein_source(
            "genedb",
            &[
                (
                    "ENSG00000000001",
                    "gene encoding a serine threonine kinase for cell cycle regulation",
                    &seq("ACGTACGTAA", 5),
                ),
                (
                    "ENSG00000000002",
                    "gene encoding a ribosomal protein of the large subunit",
                    &seq("TTTTGGGGCC", 5),
                ),
            ],
        );
        let cfg = config();
        let sa = analyze_database(&a, &cfg).unwrap();
        let sb = analyze_database(&b, &cfg).unwrap();
        let links = discover_text_links(&a, &sa, &b, &sb, &cfg).unwrap();
        assert!(links
            .iter()
            .any(|l| l.from.accession == "P10001" && l.to.accession == "ENSG00000000001"));
        assert!(links.iter().all(|l| l.kind == LinkKind::TextSimilarity));
        // The transporter does not link to the ribosomal gene.
        assert!(!links
            .iter()
            .any(|l| l.from.accession == "P10002" && l.to.accession == "ENSG00000000002"));
    }

    #[test]
    fn shared_term_links_connect_objects_with_common_annotation() {
        let mut a = Database::new("protkb");
        a.create_table(
            "entries",
            TableSchema::of(vec![ColumnDef::text("acc"), ColumnDef::text("go_term")]),
        )
        .unwrap();
        a.insert(
            "entries",
            vec![Value::text("P10001"), Value::text("GO:0000001")],
        )
        .unwrap();
        a.insert(
            "entries",
            vec![Value::text("P10002"), Value::text("GO:0000002")],
        )
        .unwrap();
        a.insert(
            "entries",
            vec![Value::text("P10003"), Value::text("GO:0000001")],
        )
        .unwrap();

        let mut b = Database::new("genedb");
        b.create_table(
            "genes",
            TableSchema::of(vec![
                ColumnDef::text("gene_acc"),
                ColumnDef::text("annotation"),
            ]),
        )
        .unwrap();
        b.insert(
            "genes",
            vec![Value::text("ENSG00000000001"), Value::text("GO:0000001")],
        )
        .unwrap();
        b.insert(
            "genes",
            vec![Value::text("ENSG00000000002"), Value::text("GO:0000009")],
        )
        .unwrap();

        let cfg = config();
        let sa = analyze_database(&a, &cfg).unwrap();
        let sb = analyze_database(&b, &cfg).unwrap();
        let links = discover_shared_term_links(&a, &sa, &b, &sb, &cfg).unwrap();
        let pairs: Vec<(&str, &str)> = links
            .iter()
            .map(|l| (l.from.accession.as_str(), l.to.accession.as_str()))
            .collect();
        assert!(pairs.contains(&("P10001", "ENSG00000000001")));
        assert!(pairs.contains(&("P10003", "ENSG00000000001")));
        assert!(!pairs.iter().any(|(_, to)| *to == "ENSG00000000002"));
    }

    #[test]
    fn sources_without_matching_fields_produce_no_links() {
        let a = protein_source(
            "protkb",
            &[(
                "P10001",
                "some kinase protein description here",
                &seq("MKTAYIAKQR", 4),
            )],
        );
        let mut b = Database::new("taxdb");
        b.create_table(
            "taxa",
            TableSchema::of(vec![ColumnDef::text("code"), ColumnDef::int("taxid")]),
        )
        .unwrap();
        b.insert("taxa", vec![Value::text("TX09606"), Value::Int(9606)])
            .unwrap();
        b.insert("taxa", vec![Value::text("TX10090"), Value::Int(10090)])
            .unwrap();
        let cfg = config();
        let sa = analyze_database(&a, &cfg).unwrap();
        let sb = analyze_database(&b, &cfg).unwrap();
        assert!(discover_sequence_links(&a, &sa, &b, &sb, &cfg)
            .unwrap()
            .is_empty());
        assert!(discover_text_links(&a, &sa, &b, &sb, &cfg)
            .unwrap()
            .is_empty());
    }
}
