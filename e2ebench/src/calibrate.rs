//! Host speed calibration.
//!
//! The reference host lends the benchmark CPUs whose speed moves between
//! levels up to about 2× apart, in spells from seconds to tens of minutes.
//! Wall times taken in different spells differ by more than any bound a
//! comparison could use, whatever the program does.
//!
//! A fixed kernel, owned by the benchmark and independent of the program
//! under test, is timed at both ends of every measured phase. Its time over
//! [`REFERENCE_KERNEL_S`], its time on the reference host in a fast spell,
//! is the host's slowdown; a phase's wall time divided by the mean slowdown
//! at its two ends is that phase in seconds at the reference speed (see
//! [`Clock`]). A change to the program moves the phase and not the kernel,
//! so it shows in full; a change of host speed moves both and cancels.
//!
//! The kernel mixes what the program spends its time on: building strings,
//! hashing them into a map, sorting, and a dynamic-programming alignment
//! like the sequence link phase's. The slowest reads slow more than the
//! kernel, so a read p99 comes out 10–20% higher at the reference speed in
//! a slow spell than in a fast one.

use crate::stats::{median, SplitMix};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Seconds one kernel takes on the reference host (2-vCPU Intel Xeon VM) in
/// a fast spell: the median of 200, taken once and fixed here.
const REFERENCE_KERNEL_S: f64 = 0.002_1;

/// Kernels per calibration; their median is the calibration, so a kernel
/// that the scheduler interrupts does not count.
const KERNELS: usize = 5;

/// Words the kernel builds.
const WORDS: usize = 1_800;

/// One kernel; a checksum keeps the optimiser from dropping the work.
fn kernel() -> u64 {
    let mut rng = SplitMix::new(0x0A1A_D1B0);
    let words: Vec<String> = (0..WORDS)
        .map(|_| {
            let len = 8 + (rng.next_u64() % 24) as usize;
            (0..len)
                .map(|_| char::from(b'a' + (rng.next_u64() % 20) as u8))
                .collect()
        })
        .collect();
    let mut counts: HashMap<String, usize> = HashMap::new();
    for (i, word) in words.iter().enumerate() {
        *counts.entry(word.clone()).or_default() += i;
    }
    let mut sorted = words.clone();
    sorted.sort();
    let mut sum = 0u64;
    for pair in sorted.windows(2) {
        sum += edit_distance(pair[0].as_bytes(), pair[1].as_bytes()) as u64;
    }
    for word in &words {
        sum += counts[word] as u64;
    }
    sum
}

/// Levenshtein distance with one rolling row.
fn edit_distance(a: &[u8], b: &[u8]) -> usize {
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, x) in a.iter().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, y) in b.iter().enumerate() {
            let next = (diagonal + usize::from(x != y))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diagonal = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// The host's slowdown now: the median kernel time over
/// [`REFERENCE_KERNEL_S`]; 1 on the reference host in a fast spell.
pub fn slowdown() -> f64 {
    let times: Vec<f64> = (0..KERNELS)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times) / REFERENCE_KERNEL_S
}

/// A thread of its own that calibrates on request while the caller waits.
/// The kernel's strings then come from that thread's allocator arena and
/// do not interleave with the program's allocations, which moved the
/// process's peak memory by megabytes from run to run.
#[derive(Debug)]
struct Calibrator {
    requests: Option<Sender<()>>,
    answers: Receiver<f64>,
    thread: Option<JoinHandle<()>>,
}

impl Calibrator {
    fn start() -> Calibrator {
        let (requests, inbox) = channel::<()>();
        let (outbox, answers) = channel();
        let thread = std::thread::spawn(move || {
            for () in inbox {
                if outbox.send(slowdown()).is_err() {
                    break;
                }
            }
        });
        Calibrator {
            requests: Some(requests),
            answers,
            thread: Some(thread),
        }
    }

    fn slowdown(&self) -> f64 {
        let asked = self.requests.as_ref().is_some_and(|r| r.send(()).is_ok());
        asked
            .then(|| self.answers.recv().ok())
            .flatten()
            .unwrap_or(f64::NAN)
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        self.requests = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Times consecutive phases in seconds at the reference speed. The clock
/// calibrates at every mark; [`Clock::time`] marks at the end of the phase
/// it times, so a phase's slowdown is the mean of the mark before it and
/// the one after. An uncalibrated clock never calibrates and reports wall
/// time.
#[derive(Debug)]
pub struct Clock {
    calibrator: Option<Calibrator>,
    last: f64,
    marks: Vec<f64>,
}

impl Clock {
    /// A clock; a calibrated one calibrates once now.
    pub fn new(calibrated: bool) -> Clock {
        let calibrator = calibrated.then(Calibrator::start);
        let last = calibrator.as_ref().map_or(1.0, Calibrator::slowdown);
        Clock {
            calibrator,
            last,
            marks: vec![last],
        }
    }

    /// Whether the clock calibrates.
    pub fn calibrated(&self) -> bool {
        self.calibrator.is_some()
    }

    /// Calibrate now; the mean slowdown since the previous mark (1 for an
    /// uncalibrated clock).
    pub fn mark(&mut self) -> f64 {
        let Some(calibrator) = &self.calibrator else {
            return 1.0;
        };
        let now = calibrator.slowdown();
        self.marks.push(now);
        let since_last = (self.last + now) / 2.0;
        self.last = now;
        since_last
    }

    /// Run `f`; its result and its duration in seconds at the reference
    /// speed.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let wall_s = start.elapsed().as_secs_f64();
        (out, wall_s / self.mark())
    }

    /// Every slowdown calibrated so far.
    pub fn marks(&self) -> &[f64] {
        &self.marks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_counts_edits() {
        assert_eq!(edit_distance(b"kitten", b"sitting"), 3);
        assert_eq!(edit_distance(b"", b"abc"), 3);
        assert_eq!(edit_distance(b"same", b"same"), 0);
    }

    #[test]
    fn uncalibrated_clock_reports_wall_time() {
        let mut clock = Clock::new(false);
        let ((), s) = clock.time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(s >= 0.005, "{s}");
        assert_eq!(clock.mark(), 1.0);
        assert_eq!(clock.marks(), &[1.0]);
    }

    #[test]
    fn calibrated_clock_marks_every_phase() {
        let mut clock = Clock::new(true);
        let ((), s) = clock.time(|| ());
        assert!(s.is_finite() && s >= 0.0, "{s}");
        assert!(clock.mark() > 0.0);
        assert_eq!(clock.marks().len(), 3);
    }

    #[test]
    fn kernel_is_deterministic_and_slowdown_positive() {
        assert_eq!(kernel(), kernel());
        let s = slowdown();
        assert!(s.is_finite() && s > 0.0, "slowdown {s}");
    }
}
