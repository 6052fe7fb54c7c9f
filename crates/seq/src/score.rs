//! Substitution scoring and gap penalties.

use crate::alphabet::Alphabet;
use serde::{Deserialize, Serialize};

/// A scoring scheme for pairwise alignment: substitution scores plus linear
/// gap penalties.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoringScheme {
    /// Score for aligning two identical residues (nucleotide mode) — ignored
    /// in protein mode where the substitution matrix decides.
    pub match_score: i32,
    /// Score for aligning two different residues (nucleotide mode).
    pub mismatch_score: i32,
    /// Penalty (negative contribution) per gap position.
    pub gap_penalty: i32,
    /// Whether the protein substitution matrix should be used.
    pub protein: bool,
}

impl ScoringScheme {
    /// The default nucleotide scheme: +2 match, -1 mismatch, -2 gap (the
    /// classic megablast-style parameters).
    pub fn nucleotide() -> ScoringScheme {
        ScoringScheme {
            match_score: 2,
            mismatch_score: -1,
            gap_penalty: -2,
            protein: false,
        }
    }

    /// The default protein scheme: a compact BLOSUM62-like matrix and -4 gap.
    pub fn protein() -> ScoringScheme {
        ScoringScheme {
            match_score: 4,
            mismatch_score: -2,
            gap_penalty: -4,
            protein: true,
        }
    }

    /// Pick a default scheme for an alphabet.
    pub fn for_alphabet(alphabet: Alphabet) -> ScoringScheme {
        if alphabet.is_nucleotide() {
            ScoringScheme::nucleotide()
        } else {
            ScoringScheme::protein()
        }
    }

    /// Substitution score between two residues (uppercase expected).
    #[inline]
    pub fn substitution(&self, a: u8, b: u8) -> i32 {
        if self.protein {
            i32::from(PROTEIN_SUBSTITUTION[usize::from(a)][usize::from(b)])
        } else if a == b {
            self.match_score
        } else {
            self.mismatch_score
        }
    }
}

/// A compact BLOSUM62-flavoured substitution matrix over all byte pairs,
/// computed at compile time so alignment scores a cell with one lookup.
///
/// Rather than embedding the real 20×20 matrix, residues are grouped into the
/// standard BLOSUM conservation groups; identical bytes score +5,
/// same-group substitutions +1 (case-insensitively) and every other pair -2.
/// This keeps the ranking behaviour of BLOSUM62 (identities ≫ conservative
/// substitutions > non-conservative) which is all the homology-link
/// heuristics depend on.
static PROTEIN_SUBSTITUTION: [[i8; 256]; 256] = protein_substitution();

const fn protein_substitution() -> [[i8; 256]; 256] {
    const GROUPS: [&[u8]; 8] = [
        b"ILMV", // aliphatic
        b"FWY",  // aromatic
        b"KRH",  // basic
        b"DE",   // acidic
        b"STNQ", // polar
        b"AG",   // small
        b"C",    // cysteine
        b"P",    // proline
    ];
    // Group number + 1 of every byte; 0 for bytes in no group.
    let mut group = [0usize; 256];
    let mut g = 0;
    while g < GROUPS.len() {
        let mut k = 0;
        while k < GROUPS[g].len() {
            let residue = GROUPS[g][k];
            group[residue as usize] = g + 1;
            group[residue.to_ascii_lowercase() as usize] = g + 1;
            k += 1;
        }
        g += 1;
    }
    let mut table = [[-2i8; 256]; 256];
    let mut a = 0;
    while a < 256 {
        let mut b = 0;
        while b < 256 {
            if a == b {
                table[a][b] = 5;
            } else if group[a] != 0 && group[a] == group[b] {
                table[a][b] = 1;
            }
            b += 1;
        }
        a += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nucleotide_scoring() {
        let s = ScoringScheme::nucleotide();
        assert_eq!(s.substitution(b'A', b'A'), 2);
        assert_eq!(s.substitution(b'A', b'C'), -1);
        assert_eq!(s.gap_penalty, -2);
    }

    #[test]
    fn protein_scoring_prefers_identity_then_group() {
        let s = ScoringScheme::protein();
        let identity = s.substitution(b'L', b'L');
        let conservative = s.substitution(b'L', b'I');
        let radical = s.substitution(b'L', b'D');
        assert!(identity > conservative);
        assert!(conservative > radical);
        assert_eq!(identity, 5);
        assert_eq!(conservative, 1);
        assert_eq!(radical, -2);
    }

    #[test]
    fn scheme_selection_by_alphabet() {
        assert!(!ScoringScheme::for_alphabet(Alphabet::Dna).protein);
        assert!(!ScoringScheme::for_alphabet(Alphabet::Rna).protein);
        assert!(ScoringScheme::for_alphabet(Alphabet::Protein).protein);
    }

    #[test]
    fn blosum_like_is_symmetric() {
        let s = ScoringScheme::protein();
        for a in 0..=u8::MAX {
            for b in 0..=u8::MAX {
                assert_eq!(s.substitution(a, b), s.substitution(b, a));
            }
        }
    }

    #[test]
    fn unknown_residues_score_as_radical() {
        let s = ScoringScheme::protein();
        assert_eq!(s.substitution(b'X', b'L'), -2);
        assert_eq!(s.substitution(b'X', b'X'), 5);
    }

    #[test]
    fn groups_ignore_case_but_identity_does_not() {
        let s = ScoringScheme::protein();
        assert_eq!(s.substitution(b'l', b'I'), 1);
        assert_eq!(s.substitution(b'l', b'L'), 1);
        assert_eq!(s.substitution(b'l', b'l'), 5);
    }
}
