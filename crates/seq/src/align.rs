//! Smith-Waterman local alignment.

use crate::score::ScoringScheme;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::hint::select_unpredictable;

/// The result of a local alignment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alignment {
    /// Alignment score under the scoring scheme.
    pub score: i32,
    /// Start offset (0-based) of the aligned region in the query.
    pub query_start: usize,
    /// End offset (exclusive) of the aligned region in the query.
    pub query_end: usize,
    /// Start offset (0-based) of the aligned region in the subject.
    pub subject_start: usize,
    /// End offset (exclusive) of the aligned region in the subject.
    pub subject_end: usize,
    /// Number of aligned positions with identical residues.
    pub identities: usize,
    /// Total number of aligned columns (including gaps).
    pub alignment_length: usize,
}

impl Alignment {
    /// Fraction of identical positions over the alignment length, in `[0,1]`.
    pub fn identity(&self) -> f64 {
        if self.alignment_length == 0 {
            0.0
        } else {
            self.identities as f64 / self.alignment_length as f64
        }
    }

    /// An empty (score 0) alignment.
    pub fn empty() -> Alignment {
        Alignment {
            score: 0,
            query_start: 0,
            query_end: 0,
            subject_start: 0,
            subject_end: 0,
            identities: 0,
            alignment_length: 0,
        }
    }
}

/// One cell of the DP row: its score and a summary of the path a traceback
/// from it would follow. Carrying the summary forward replaces the
/// traceback matrix. Both summary words pack two 32-bit halves, so that
/// choosing a move copies two words.
#[derive(Clone, Copy)]
struct Cell {
    score: i32,
    /// Where the path starts: query offset in the high half, subject offset
    /// in the low half.
    start: u64,
    /// Identities on the path in the high half, diagonal moves in the low
    /// half. The path's length follows from these and its two spans.
    counts: u64,
}

/// `counts` increment of a diagonal move between different residues.
const DIAGONAL: u64 = 1;
/// `counts` increment of a diagonal move between identical residues.
const IDENTITY: u64 = 1 << 32 | DIAGONAL;

impl Cell {
    /// A zero-score cell at `start` (packed like [`Cell::start`]), where a
    /// traceback stops: a path ending here starts here.
    fn stop(start: u64) -> Cell {
        Cell {
            score: 0,
            start,
            counts: 0,
        }
    }
}

/// Pack a query and a subject offset, both below 2^32, into one word.
fn pack(i: usize, j: usize) -> u64 {
    (i as u64) << 32 | j as u64
}

/// The high and low halves of a packed word.
fn unpack(word: u64) -> (usize, usize) {
    ((word >> 32) as usize, (word & u64::from(u32::MAX)) as usize)
}

thread_local! {
    /// The DP row, kept between calls so an alignment allocates only when
    /// its subject is longer than any before it on this thread.
    static ROW: RefCell<Vec<Cell>> = const { RefCell::new(Vec::new()) };
}

/// Smith-Waterman local alignment of `query` against `subject`.
///
/// Runs in O(|query| · |subject|) time and O(|subject|) memory: one DP row
/// is kept, and each cell carries the start, identities and diagonal moves
/// of the path a traceback from it would follow, so no traceback pass is
/// needed. Of equal-scoring moves the diagonal wins; a gap wins only when
/// strictly better (up before left), and the reported end is the first best
/// cell in row-major order. Sequences are expected to be normalized
/// (uppercase, no whitespace).
///
/// # Panics
///
/// If either sequence is 2^32 bytes or longer.
pub fn local_align(query: &str, subject: &str, scheme: &ScoringScheme) -> Alignment {
    let (q, s) = (query.as_bytes(), subject.as_bytes());
    assert!(
        u32::try_from(q.len().max(s.len())).is_ok(),
        "local_align: sequences must be shorter than 2^32 bytes"
    );
    if q.is_empty() || s.is_empty() {
        return Alignment::empty();
    }
    ROW.with(|row| align_rows(q, s, scheme, &mut row.borrow_mut()))
}

/// The DP of [`local_align`] over one reused row.
fn align_rows(q: &[u8], s: &[u8], scheme: &ScoringScheme, row: &mut Vec<Cell>) -> Alignment {
    let gap = scheme.gap_penalty;
    row.clear();
    row.extend((0..=s.len()).map(|j| Cell::stop(pack(0, j))));
    let mut best = Cell::stop(0);
    let mut best_end = 0;
    for (i, &qc) in (1..).zip(q) {
        // `diag` is cell (i-1, j-1) and `left` cell (i, j-1); the slot of
        // cell (i, j) still holds cell (i-1, j) until it is overwritten.
        let mut here = pack(i, 0);
        let mut diag = row[0];
        let mut left = Cell::stop(here);
        row[0] = left;
        for (slot, &sc) in row[1..].iter_mut().zip(s) {
            here += 1;
            let up = *slot;
            // The moves are tried diagonal, up, left; each replaces the
            // choice so far only when strictly better. On unrelated
            // sequences every choice is a coin toss, so none is a branch.
            let d = diag.score + scheme.substitution(qc, sc);
            let diagonal = Cell {
                score: d,
                start: diag.start,
                counts: diag.counts + select_unpredictable(qc == sc, IDENTITY, DIAGONAL),
            };
            let mut cell = select_unpredictable(d > 0, diagonal, Cell::stop(here));
            let u = up.score + gap;
            cell = select_unpredictable(u > cell.score, Cell { score: u, ..up }, cell);
            let l = left.score + gap;
            cell = select_unpredictable(l > cell.score, Cell { score: l, ..left }, cell);
            if cell.score > best.score {
                best = cell;
                best_end = here;
            }
            diag = up;
            left = cell;
            *slot = cell;
        }
    }
    if best.score == 0 {
        return Alignment::empty();
    }
    let (query_start, subject_start) = unpack(best.start);
    let (query_end, subject_end) = unpack(best_end);
    let (identities, diagonal) = unpack(best.counts);
    Alignment {
        score: best.score,
        query_start,
        query_end,
        subject_start,
        subject_end,
        identities,
        // Each diagonal move spans a query and a subject residue, each gap
        // one of the two.
        alignment_length: (query_end - query_start) + (subject_end - subject_start) - diagonal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_align_fully() {
        let scheme = ScoringScheme::nucleotide();
        let a = local_align("ACGTACGT", "ACGTACGT", &scheme);
        assert_eq!(a.score, 16);
        assert_eq!(a.identities, 8);
        assert_eq!(a.alignment_length, 8);
        assert_eq!(a.identity(), 1.0);
        assert_eq!(a.query_start, 0);
        assert_eq!(a.query_end, 8);
    }

    #[test]
    fn local_alignment_finds_embedded_region() {
        let scheme = ScoringScheme::nucleotide();
        let a = local_align("TTTTACGTACGTTTTT", "ACGTACGT", &scheme);
        assert_eq!(a.identities, 8);
        assert_eq!(a.query_start, 4);
        assert_eq!(a.query_end, 12);
        assert_eq!(a.subject_start, 0);
        assert_eq!(a.subject_end, 8);
    }

    #[test]
    fn mismatches_reduce_score_but_keep_alignment() {
        let scheme = ScoringScheme::nucleotide();
        let perfect = local_align("ACGTACGTACGT", "ACGTACGTACGT", &scheme);
        let mutated = local_align("ACGTACGTACGT", "ACGTACCTACGT", &scheme);
        assert!(mutated.score < perfect.score);
        assert!(mutated.identity() > 0.8);
    }

    #[test]
    fn gaps_are_introduced_when_profitable() {
        let scheme = ScoringScheme::nucleotide();
        let a = local_align("ACGTTTACGT", "ACGTACGT", &scheme);
        // 8 matches, 2 gap positions: 8*2 - 2*2 = 12
        assert_eq!(a.score, 12);
        assert_eq!(a.identities, 8);
        assert_eq!(a.alignment_length, 10);
    }

    #[test]
    fn unrelated_sequences_score_low() {
        let scheme = ScoringScheme::nucleotide();
        let a = local_align("AAAAAAAA", "CCCCCCCC", &scheme);
        assert_eq!(a.score, 0);
        assert_eq!(a.alignment_length, 0);
        assert_eq!(a.identity(), 0.0);
    }

    #[test]
    fn empty_inputs_yield_empty_alignment() {
        let scheme = ScoringScheme::nucleotide();
        assert_eq!(local_align("", "ACGT", &scheme), Alignment::empty());
        assert_eq!(local_align("ACGT", "", &scheme), Alignment::empty());
    }

    #[test]
    fn protein_alignment_uses_matrix() {
        let scheme = ScoringScheme::protein();
        // Conservative substitution (L→I) should still align well.
        let a = local_align("MKTLYIAKQR", "MKTIYIAKQR", &scheme);
        assert!(a.identity() >= 0.9);
        assert!(a.score > 30);
    }

    #[test]
    fn alignment_is_symmetric_in_score() {
        let scheme = ScoringScheme::nucleotide();
        let ab = local_align("ACGGTTAACC", "ACGTTAACGG", &scheme);
        let ba = local_align("ACGTTAACGG", "ACGGTTAACC", &scheme);
        assert_eq!(ab.score, ba.score);
        assert_eq!(ab.identities, ba.identities);
    }
}
