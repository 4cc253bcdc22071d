//! The `mergesort` micro-benchmark.
//!
//! The untuned version splits the array once, sorts the halves in two
//! OpenMP sections, and merges the results on one thread — so available
//! parallelism is exactly two, and the final merge is serial. The paper's
//! Figure 1 shows it "only scales to 2 threads", and because 14 of the 16
//! cores sit idle the node draws just ~60 W (the minimum across the whole
//! study, Tables I-III).
//!
//! The payload is a real merge sort: recursive sequential sort of each half,
//! then a real two-way merge, verified against the standard-library sort.

use maestro::{Maestro, RunReport};
use maestro_runtime::{fork_join, leaf, BoxTask, RuntimeParams, TaskValue};

use crate::compiler::CompilerConfig;
use crate::profiles::{self, cost_split, FREQ_GHZ};
use crate::registry::{Group, Scale, Workload};

/// Memory character of streaming sort/merge phases.
const MEM_FRAC: f64 = 0.5;
const MLP: f64 = 3.0;

/// The two-way mergesort benchmark.
pub struct MergeSort {
    elements: usize,
}

impl MergeSort {
    /// Construct at the given input scale.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => MergeSort { elements: 20_000 },
            Scale::Paper => MergeSort { elements: 1_000_000 },
        }
    }

    fn data(&self) -> Vec<u64> {
        // Deterministic pseudo-random input (xorshift).
        let mut x = 0x9E3779B97F4A7C15u64;
        (0..self.elements)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }
}

/// Real sequential merge sort (ascending), used by both half-tasks.
///
/// Top-down, with one scratch copy of the input: the two buffers swap the
/// source and destination roles at every level, so no level allocates.
pub fn merge_sort(data: &mut [u64]) {
    let mut scratch = data.to_vec();
    sort_into(&mut scratch, data);
}

/// Sort `dst` using `src` as scratch. On entry both hold the same values.
fn sort_into(src: &mut [u64], dst: &mut [u64]) {
    let n = dst.len();
    if n <= 32 {
        dst.sort_unstable(); // insertion-sized base case
        return;
    }
    let mid = n / 2;
    let (src_lo, src_hi) = src.split_at_mut(mid);
    let (dst_lo, dst_hi) = dst.split_at_mut(mid);
    // Sort each half into `src`, then merge the halves back into `dst`.
    sort_into(dst_lo, src_lo);
    sort_into(dst_hi, src_hi);
    merge_into(src_lo, src_hi, dst);
}

/// Merge sorted runs `a` and `b` into `out` (`a.len() + b.len()` long).
/// The element choice is a select, not a branch, so random keys cost no
/// mispredictions. Runs already in order are copied: the select loop is
/// latency-bound and would be slower there than a predicted branch.
fn merge_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(a.len() + b.len(), out.len(), "merge output must fit both runs exactly");
    if a.last() <= b.first() {
        out[..a.len()].copy_from_slice(a);
        out[a.len()..].copy_from_slice(b);
        return;
    }
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let take_a = a[i] <= b[j];
        out[k] = if take_a { a[i] } else { b[j] };
        i += usize::from(take_a);
        j += usize::from(!take_a);
        k += 1;
    }
    out[k..k + a.len() - i].copy_from_slice(&a[i..]);
    out[k + a.len() - i..].copy_from_slice(&b[j..]);
}

/// Real two-way merge of sorted runs.
pub fn merge(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0; a.len() + b.len()];
    merge_into(a, b, &mut out);
    out
}

struct App {
    data: Vec<u64>,
}

impl Workload for MergeSort {
    fn name(&self) -> &'static str {
        "mergesort"
    }

    fn group(&self) -> Group {
        Group::Micro
    }

    fn runtime_params(&self, cc: CompilerConfig, workers: usize) -> RuntimeParams {
        // Two coarse tasks: the shared pool is irrelevant, no extra slope.
        cc.omp_runtime_params(workers)
    }

    fn run(&self, m: &mut Maestro, cc: CompilerConfig) -> RunReport {
        let cal = profiles::calibration(self.name());
        let mult = cal.work_mult(cc);
        let intensity = cal.intensity(cc);
        // Structural timing model: t(1) = 2H + M, t(p≥2) = H + M, so
        //   H = t1 − t16 and M = 2·t16 − t1  (seconds at GCC -O2).
        let t1 = cal.serial_time_s;
        let t16 = cal.time_s[0][2];
        let half_cycles = ((t1 - t16) * FREQ_GHZ * 1e9 * mult) as u64;
        let merge_cycles = ((2.0 * t16 - t1) * FREQ_GHZ * 1e9 * mult).max(0.0) as u64;

        let mut app = App { data: self.data() };
        let mut expected = app.data.clone();
        expected.sort_unstable();
        let n = app.data.len();
        let mid = n / 2;

        let halves: Vec<BoxTask<App>> = [(0, mid), (mid, n)]
            .into_iter()
            .map(|(lo, hi)| {
                let cost = cost_split(half_cycles, MEM_FRAC, MLP, intensity);
                leaf(move |app: &mut App, _ctx| {
                    merge_sort(&mut app.data[lo..hi]);
                    (cost, TaskValue::none())
                })
            })
            .collect();
        let root = fork_join(halves, move |app: &mut App, _vals| {
            let merged = merge(&app.data[..mid], &app.data[mid..]);
            app.data = merged;
            (cost_split(merge_cycles, MEM_FRAC, MLP, intensity), TaskValue::none())
        });

        let report = m.run(self.name(), &mut app, root);
        assert_eq!(app.data, expected, "mergesort produced an unsorted array");
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro::MaestroConfig;

    #[test]
    fn merge_sort_sorts() {
        let mut v = vec![5u64, 3, 9, 1, 1, 0, 42, 7];
        merge_sort(&mut v);
        assert_eq!(v, vec![0, 1, 1, 3, 5, 7, 9, 42]);
    }

    #[test]
    fn merge_is_stable_union() {
        assert_eq!(merge(&[1, 4, 6], &[2, 4, 9]), vec![1, 2, 4, 4, 6, 9]);
        assert_eq!(merge(&[], &[1]), vec![1]);
        assert_eq!(merge(&[1], &[]), vec![1]);
    }

    #[test]
    fn scales_to_two_and_no_further() {
        let w = MergeSort::new(Scale::Test);
        let cc = CompilerConfig::gcc(crate::OptLevel::O2);
        let elapsed = |workers: usize| {
            let mut cfg = MaestroConfig::fixed(workers);
            cfg.runtime = w.runtime_params(cc, workers);
            let mut m = Maestro::new(cfg);
            w.run(&mut m, cc).elapsed_s
        };
        let t1 = elapsed(1);
        let t2 = elapsed(2);
        let t16 = elapsed(16);
        assert!(t1 / t2 > 1.5, "two-way split must help: {}", t1 / t2);
        assert!(
            (t2 - t16).abs() / t2 < 0.05,
            "no benefit past 2 threads: t2={t2} t16={t16}"
        );
    }

    #[test]
    fn low_power_at_sixteen_workers() {
        // 14 idle workers => node power far below compute-bound levels.
        let w = MergeSort::new(Scale::Test);
        let cc = CompilerConfig::gcc(crate::OptLevel::O2);
        let mut cfg = MaestroConfig::fixed(16);
        cfg.runtime = w.runtime_params(cc, 16);
        let mut m = Maestro::new(cfg);
        let r = w.run(&mut m, cc);
        assert!(
            (50.0..=75.0).contains(&r.avg_watts),
            "mergesort node power {} W should be near the paper's ~60 W",
            r.avg_watts
        );
    }
}
