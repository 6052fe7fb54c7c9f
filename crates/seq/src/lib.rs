//! # aladin-seq
//!
//! Sequence-analysis substrate for the ALADIN reproduction.
//!
//! The paper's implicit link discovery compares "the values of attributes
//! containing DNA, RNA, or protein sequences [...] to each other" and names
//! BLAST-style sequence similarity as "the most important way of inferring the
//! function of a new protein" (Section 4.4, citing Altschul et al.). The
//! original system would shell out to BLAST; this crate provides the same
//! algorithmic family in pure Rust:
//!
//! * [`alphabet`] — DNA / RNA / protein alphabet detection and validation.
//! * [`kmer`] — k-mer indexing of sequence collections (the seeding stage).
//! * [`score`] — substitution scoring (match/mismatch for nucleotides, a
//!   compact BLOSUM62-style matrix for proteins) and gap penalties.
//! * [`align`] — Smith-Waterman local alignment (exact; quadratic time,
//!   linear memory).
//! * [`blast`] — seed-and-extend homology search over a k-mer index, the
//!   heuristic used for link discovery at corpus scale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod align;
pub mod alphabet;
pub mod blast;
pub mod kmer;
pub mod score;

pub use align::{local_align, Alignment};
pub use alphabet::Alphabet;
pub use blast::{BlastIndex, BlastParams, HomologyHit};
pub use kmer::KmerIndex;
pub use score::ScoringScheme;
