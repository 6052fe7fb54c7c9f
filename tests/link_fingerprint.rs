//! Pins every discovered link and duplicate of small generated corpora, so
//! a change to a discovery algorithm or kernel that is meant to keep the
//! answers (a faster alignment, a gate that skips work that never yields a
//! link) is shown to keep them byte for byte.

use aladin::core::{Aladin, AladinConfig};
use aladin::datagen::{Corpus, CorpusConfig};

/// FNV-1a over the sorted `Debug` renderings of every link and duplicate:
/// order-independent, and sensitive to every field (scores and evidence
/// included).
fn fingerprint(aladin: &Aladin) -> u64 {
    let mut lines: Vec<String> = aladin
        .metadata()
        .links()
        .iter()
        .chain(aladin.metadata().duplicates())
        .map(|l| format!("{l:?}"))
        .collect();
    lines.sort();
    lines
        .join("\n")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn integrate(seed: u64) -> Aladin {
    let corpus = Corpus::generate(&CorpusConfig::small(seed));
    let mut aladin = Aladin::new(AladinConfig::default());
    for dump in &corpus.sources {
        aladin
            .add_source_files(&dump.name, dump.format, &dump.files)
            .unwrap_or_else(|e| panic!("failed to integrate {}: {e}", dump.name));
    }
    aladin
}

#[test]
fn small_corpus_links_and_duplicates_are_pinned() {
    let pinned = [
        (2024, (1436, 22, 12119281816076697829u64)),
        (7, (1502, 17, 4866151730092659345)),
    ];
    let got: Vec<(u64, (usize, usize, u64))> = pinned
        .iter()
        .map(|&(seed, _)| {
            let aladin = integrate(seed);
            let digest = fingerprint(&aladin);
            (
                seed,
                (aladin.link_count(), aladin.duplicate_count(), digest),
            )
        })
        .collect();
    assert_eq!(got, pinned);
}
