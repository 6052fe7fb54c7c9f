//! E9 — Section 4.4: implicit links by sequence homology; seeded search vs.
//! exhaustive Smith-Waterman.

use aladin_seq::align::local_align;
use aladin_seq::alphabet::Alphabet;
use aladin_seq::blast::BlastIndex;
use aladin_seq::score::ScoringScheme;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn random_sequence(rng: &mut StdRng, alphabet: &[u8], len: usize) -> String {
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

fn random_protein(rng: &mut StdRng, len: usize) -> String {
    random_sequence(rng, b"ACDEFGHIKLMNPQRSTVWY", len)
}

fn bench_sequence(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let mut index = BlastIndex::new(Alphabet::Protein);
    let mut subjects = Vec::new();
    for i in 0..200 {
        let seq = random_protein(&mut rng, 150 + i % 100);
        index.add(format!("s{i}"), &seq);
        subjects.push(seq);
    }
    // A query homologous to subject 17 (a few substitutions).
    let mut query: Vec<char> = subjects[17].chars().collect();
    for pos in (0..query.len()).step_by(23) {
        query[pos] = 'A';
    }
    let query: String = query.into_iter().collect();

    let mut group = c.benchmark_group("sequence_homology");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));

    group.bench_function("seeded_search_200_subjects", |b| {
        b.iter(|| index.search(&query))
    });
    group.bench_function("exact_search_200_subjects", |b| {
        b.iter(|| index.search_exact(&query))
    });
    group.finish();

    // One alignment each: the homologous pair above, two unrelated
    // 300-residue proteins, and a DNA query against a protein subject (the
    // pairing sequence-link discovery no longer aligns).
    let protein = ScoringScheme::protein();
    let (a, b) = (random_protein(&mut rng, 300), random_protein(&mut rng, 300));
    let dna = random_sequence(&mut rng, b"ACGT", 300);
    let mut group = c.benchmark_group("single_smith_waterman");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("homologous_protein", |bench| {
        bench.iter(|| local_align(&query, &subjects[17], &protein))
    });
    group.bench_function("protein_300x300", |bench| {
        bench.iter(|| local_align(&a, &b, &protein))
    });
    group.bench_function("dna_vs_protein_300x300", |bench| {
        bench.iter(|| local_align(&dna, &a, &protein))
    });
    group.finish();
}

criterion_group!(benches, bench_sequence);
criterion_main!(benches);
