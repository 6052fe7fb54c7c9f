//! Seed-and-extend homology search (a BLAST-like heuristic).
//!
//! The exact Smith-Waterman alignment in [`crate::align`] is quadratic per
//! pair; comparing every sequence field value of one source against every
//! value of another source would be far too slow for link discovery. Like
//! BLAST, [`BlastIndex`] first selects candidate subjects by counting shared
//! k-mer seeds and only then runs the exact local alignment on the best
//! candidates. `aladin-core` turns the resulting [`HomologyHit`]s into
//! implicit links between objects.
//!
//! An index holds sequences of one alphabet class — nucleotide or protein —
//! and is queried only with sequences of that class: its word size, score
//! thresholds and substitution scores are those of the class, and a DNA
//! sequence aligned against proteins (or the reverse) scores as noise.

use crate::align::{local_align, Alignment};
use crate::alphabet::Alphabet;
use crate::kmer::KmerIndex;
use crate::score::ScoringScheme;
use serde::{Deserialize, Serialize};

/// Parameters of the seeded homology search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlastParams {
    /// K-mer word size used for seeding (BLAST uses 11 for DNA, 3 for
    /// proteins; the defaults here follow that split).
    pub word_size: usize,
    /// Minimum number of shared seeds for a subject to be considered.
    pub min_seeds: usize,
    /// Maximum number of candidate subjects to align per query.
    pub max_candidates: usize,
    /// Minimum alignment score for a hit to be reported.
    pub min_score: i32,
    /// Minimum identity fraction for a hit to be reported.
    pub min_identity: f64,
}

impl BlastParams {
    /// Default parameters for an alphabet.
    pub fn for_alphabet(alphabet: Alphabet) -> BlastParams {
        if alphabet.is_nucleotide() {
            BlastParams {
                word_size: 8,
                min_seeds: 2,
                max_candidates: 25,
                min_score: 20,
                min_identity: 0.7,
            }
        } else {
            BlastParams {
                word_size: 3,
                min_seeds: 2,
                max_candidates: 25,
                min_score: 30,
                min_identity: 0.4,
            }
        }
    }
}

/// A reported homology hit between a query and an indexed subject.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HomologyHit {
    /// Ordinal of the subject sequence: the value [`BlastIndex::add`]
    /// returned for it (see [`BlastIndex::subject_id`] for its identifier).
    pub subject: usize,
    /// Number of shared k-mer seeds.
    pub seeds: usize,
    /// The local alignment of query vs. subject.
    pub alignment: Alignment,
}

impl HomologyHit {
    /// A normalized similarity in `[0, 1]`: identity weighted by how much of
    /// the shorter sequence is covered by the alignment.
    pub fn similarity(&self, query_len: usize, subject_len: usize) -> f64 {
        let shorter = query_len.min(subject_len).max(1);
        let coverage = self.alignment.alignment_length.min(shorter) as f64 / shorter as f64;
        self.alignment.identity() * coverage
    }
}

/// A searchable collection of subject sequences.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlastIndex {
    params: BlastParams,
    scheme: ScoringScheme,
    kmers: KmerIndex,
    sequences: Vec<String>,
}

impl BlastIndex {
    /// Create an empty index for the given alphabet with default parameters.
    pub fn new(alphabet: Alphabet) -> BlastIndex {
        let params = BlastParams::for_alphabet(alphabet);
        BlastIndex {
            kmers: KmerIndex::new(params.word_size),
            scheme: ScoringScheme::for_alphabet(alphabet),
            params,
            sequences: Vec::new(),
        }
    }

    /// Create an index with explicit parameters and scoring scheme.
    pub fn with_params(params: BlastParams, scheme: ScoringScheme) -> BlastIndex {
        BlastIndex {
            kmers: KmerIndex::new(params.word_size),
            scheme,
            params,
            sequences: Vec::new(),
        }
    }

    /// The search parameters.
    pub fn params(&self) -> &BlastParams {
        &self.params
    }

    /// Number of indexed subject sequences.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// True if no subjects are indexed.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// Add a subject sequence under an identifier; returns its ordinal,
    /// which hits against it carry as [`HomologyHit::subject`]. Ordinals
    /// count up from 0 in insertion order.
    pub fn add(&mut self, id: impl Into<String>, sequence: &str) -> usize {
        let normalized = crate::alphabet::normalize_sequence(sequence);
        self.sequences.push(normalized);
        self.kmers
            .add_sequence(id, &self.sequences[self.sequences.len() - 1])
    }

    /// The identifier a subject was added under, by ordinal.
    pub fn subject_id(&self, ordinal: usize) -> Option<&str> {
        self.kmers.sequence_id(ordinal)
    }

    /// Search for homologs of `query`, returning hits sorted by descending
    /// alignment score, then by ordinal.
    pub fn search(&self, query: &str) -> Vec<HomologyHit> {
        let query = crate::alphabet::normalize_sequence(query);
        if query.is_empty() || self.is_empty() {
            return Vec::new();
        }
        let candidates = self.kmers.seed_counts(&query);
        let mut hits = Vec::new();
        for (ordinal, seeds) in candidates.into_iter().take(self.params.max_candidates) {
            if seeds < self.params.min_seeds {
                continue;
            }
            let subject = &self.sequences[ordinal];
            let alignment = local_align(&query, subject, &self.scheme);
            if alignment.score >= self.params.min_score
                && alignment.identity() >= self.params.min_identity
            {
                hits.push(HomologyHit {
                    subject: ordinal,
                    seeds,
                    alignment,
                });
            }
        }
        sort_hits(&mut hits);
        hits
    }

    /// Exact (unseeded) search: Smith-Waterman against every subject. Used by
    /// the E9 ablation to quantify what the seeding heuristic trades away.
    pub fn search_exact(&self, query: &str) -> Vec<HomologyHit> {
        let query = crate::alphabet::normalize_sequence(query);
        if query.is_empty() {
            return Vec::new();
        }
        let mut hits = Vec::new();
        for (ordinal, subject) in self.sequences.iter().enumerate() {
            let alignment = local_align(&query, subject, &self.scheme);
            if alignment.score >= self.params.min_score
                && alignment.identity() >= self.params.min_identity
            {
                hits.push(HomologyHit {
                    subject: ordinal,
                    seeds: 0,
                    alignment,
                });
            }
        }
        sort_hits(&mut hits);
        hits
    }
}

/// Order hits by descending alignment score, then by ordinal.
fn sort_hits(hits: &mut [HomologyHit]) {
    hits.sort_by(|a, b| {
        b.alignment
            .score
            .cmp(&a.alignment.score)
            .then(a.subject.cmp(&b.subject))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dna_index() -> BlastIndex {
        let mut idx = BlastIndex::new(Alphabet::Dna);
        idx.add("seq_a", "ACGTACGTACGTACGTACGTACGTACGT");
        idx.add("seq_b", "TTTTGGGGCCCCAAAATTTTGGGGCCCC");
        // seq_c shares a long region with seq_a
        idx.add("seq_c", "GGGGACGTACGTACGTACGTGGGG");
        idx
    }

    #[test]
    fn finds_homologous_sequences() {
        let idx = dna_index();
        let hits = idx.search("ACGTACGTACGTACGTACGT");
        assert!(!hits.is_empty());
        let id = |h: &HomologyHit| idx.subject_id(h.subject);
        assert_eq!(id(&hits[0]), Some("seq_a"));
        assert!(hits.iter().any(|h| id(h) == Some("seq_c")));
        assert!(hits.iter().all(|h| id(h) != Some("seq_b")));
        assert!(hits[0].alignment.identity() > 0.95);
    }

    #[test]
    fn unrelated_query_yields_nothing() {
        let idx = dna_index();
        let hits = idx.search("CACACACACACACACACACA");
        assert!(hits.is_empty());
    }

    #[test]
    fn empty_query_or_index() {
        let idx = dna_index();
        assert!(idx.search("").is_empty());
        let empty = BlastIndex::new(Alphabet::Dna);
        assert!(empty.is_empty());
        assert!(empty.search("ACGTACGT").is_empty());
        assert_eq!(dna_index().len(), 3);
    }

    #[test]
    fn exact_search_is_a_superset_of_seeded_search() {
        let idx = dna_index();
        let query = "ACGTACGTACGTACGTACGT";
        let seeded: Vec<usize> = idx.search(query).iter().map(|h| h.subject).collect();
        let exact: Vec<usize> = idx.search_exact(query).iter().map(|h| h.subject).collect();
        for id in &seeded {
            assert!(exact.contains(id));
        }
        assert!(exact.len() >= seeded.len());
    }

    #[test]
    fn similarity_combines_identity_and_coverage() {
        let idx = dna_index();
        let query = "ACGTACGTACGTACGTACGTACGTACGT";
        let hits = idx.search(query);
        let top = &hits[0];
        let sim = top.similarity(query.len(), 28);
        assert!(sim > 0.9);
        // Coverage penalty: same hit against a much longer hypothetical query.
        assert!(top.similarity(1000, 28) >= sim * 0.9);
    }

    #[test]
    fn protein_search_with_conservative_substitutions() {
        let mut idx = BlastIndex::new(Alphabet::Protein);
        let prot_a = idx.add("prot_a", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ");
        idx.add("prot_b", "GGGGGGGGGGWWWWWWWWWWPPPPPPPPPP");
        // Query differs from prot_a by a few conservative substitutions.
        let hits = idx.search("MKTAYIAKQRQLSFVKSHFSRQLEERLGLIEVQ");
        assert!(!hits.is_empty());
        assert_eq!(hits[0].subject, prot_a);
        assert_eq!(idx.subject_id(prot_a), Some("prot_a"));
    }
}
