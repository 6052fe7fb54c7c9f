//! Property-based tests for the sequence-analysis substrate.

use aladin_seq::align::{local_align, Alignment};
use aladin_seq::alphabet::{reverse_complement, Alphabet};
use aladin_seq::kmer::KmerIndex;
use aladin_seq::score::ScoringScheme;
use proptest::prelude::*;

fn dna() -> impl Strategy<Value = String> {
    "[ACGT]{1,60}"
}

/// Sequences for the kernel oracle: protein, DNA, low-complexity repeats
/// (which tie many moves and so exercise the tie-breaks), and lengths 0–1.
fn aligned_sequence() -> impl Strategy<Value = String> {
    prop_oneof![
        "[ACDEFGHIKLMNPQRSTVWY]{0,70}",
        "[ACGT]{0,70}",
        "[A]{0,40}",
        "[AG]{0,30}",
        "[ILMV]{0,30}",
        "[ACGT]{0,1}",
    ]
}

/// Reference Smith-Waterman: the full score and traceback matrices,
/// O(|q|·|s|) memory. Moves are tried diagonal, up, left, each replacing the
/// previous choice only when strictly better; the end is the first best cell
/// in row-major order.
fn naive_local_align(query: &str, subject: &str, scheme: &ScoringScheme) -> Alignment {
    #[derive(Clone, Copy)]
    enum Trace {
        Stop,
        Diagonal,
        Up,
        Left,
    }
    let (q, s) = (query.as_bytes(), subject.as_bytes());
    let cols = s.len() + 1;
    let mut score = vec![0i32; (q.len() + 1) * cols];
    let mut trace = vec![Trace::Stop; (q.len() + 1) * cols];
    let (mut best, mut best_pos) = (0, (0, 0));
    for i in 1..=q.len() {
        for j in 1..=s.len() {
            let diag = score[(i - 1) * cols + j - 1] + scheme.substitution(q[i - 1], s[j - 1]);
            let up = score[(i - 1) * cols + j] + scheme.gap_penalty;
            let left = score[i * cols + j - 1] + scheme.gap_penalty;
            let (mut v, mut t) = (0, Trace::Stop);
            if diag > v {
                (v, t) = (diag, Trace::Diagonal);
            }
            if up > v {
                (v, t) = (up, Trace::Up);
            }
            if left > v {
                (v, t) = (left, Trace::Left);
            }
            score[i * cols + j] = v;
            trace[i * cols + j] = t;
            if v > best {
                (best, best_pos) = (v, (i, j));
            }
        }
    }
    if best == 0 {
        return Alignment::empty();
    }
    let (mut i, mut j) = best_pos;
    let (mut identities, mut length) = (0, 0);
    while i > 0 && j > 0 {
        match trace[i * cols + j] {
            Trace::Stop => break,
            Trace::Diagonal => {
                identities += usize::from(q[i - 1] == s[j - 1]);
                (i, j) = (i - 1, j - 1);
            }
            Trace::Up => i -= 1,
            Trace::Left => j -= 1,
        }
        length += 1;
    }
    Alignment {
        score: best,
        query_start: i,
        query_end: best_pos.0,
        subject_start: j,
        subject_end: best_pos.1,
        identities,
        alignment_length: length,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The linear-memory kernel equals the full-matrix reference on all
    /// seven fields, under both schemes. Three calls of different sizes run
    /// one after another on the same thread, so a row buffer left over from
    /// a longer (or shorter) alignment must not leak into the next one.
    #[test]
    fn local_align_matches_full_matrix_oracle(
        a in aligned_sequence(),
        b in aligned_sequence(),
        c in aligned_sequence(),
    ) {
        for scheme in [ScoringScheme::protein(), ScoringScheme::nucleotide()] {
            for (q, s) in [(&a, &b), (&c, &a), (&b, &c)] {
                prop_assert_eq!(local_align(q, s, &scheme), naive_local_align(q, s, &scheme));
            }
        }
    }
}

proptest! {
    /// Local alignment score is symmetric, self-alignment is perfect identity,
    /// and identities never exceed the alignment length.
    #[test]
    fn alignment_properties(a in dna(), b in dna()) {
        let scheme = ScoringScheme::nucleotide();
        let ab = local_align(&a, &b, &scheme);
        let ba = local_align(&b, &a, &scheme);
        prop_assert_eq!(ab.score, ba.score);
        prop_assert!(ab.identities <= ab.alignment_length);
        prop_assert!(ab.identity() >= 0.0 && ab.identity() <= 1.0);

        let self_alignment = local_align(&a, &a, &scheme);
        prop_assert_eq!(self_alignment.identities, a.len());
        prop_assert_eq!(self_alignment.score, (a.len() as i32) * scheme.match_score);
    }

    /// The reverse complement is an involution and preserves the alphabet.
    #[test]
    fn reverse_complement_involution(a in dna()) {
        let rc = reverse_complement(&a);
        prop_assert_eq!(reverse_complement(&rc), a.clone());
        prop_assert!(Alphabet::Dna.validates(&rc));
    }

    /// Every k-mer extracted from an indexed sequence can be looked up again,
    /// and seed counts for the sequence itself rank it first.
    #[test]
    fn kmer_index_is_consistent(a in "[ACGT]{8,40}") {
        let mut index = KmerIndex::new(5);
        index.add_sequence("self", &a);
        for start in 0..=a.len() - 5 {
            let kmer = &a[start..start + 5];
            prop_assert!(!index.lookup(kmer).is_empty());
        }
        let seeds = index.seed_counts(&a);
        prop_assert_eq!(seeds[0].0, 0);
        prop_assert!(seeds[0].1 >= a.len() - 5 + 1 - 4); // repeated k-mers may collapse postings per ordinal? they don't; count >= distinct positions
    }

    /// Alphabet detection accepts what it detects.
    #[test]
    fn detection_is_consistent(a in "[ACDEFGHIKLMNPQRSTVWYacgtu]{1,30}") {
        if let Some(alphabet) = Alphabet::detect(&a) {
            prop_assert!(alphabet.validates(&a));
        }
    }
}
