//! Functional CTA execution on host threads.
//!
//! Simulated kernels still compute *real* results: the relational operators
//! partition their input into CTA-sized chunks and run each chunk's work on
//! a scoped thread pool, mirroring the BSP structure of the CUDA
//! implementations the paper builds on (partition → per-CTA work → global
//! sync → gather). Timing comes from the cost model, not from these threads;
//! this module is purely about producing correct outputs fast enough to test
//! at figure scale.

/// Default number of elements each simulated CTA processes.
pub const DEFAULT_CTA_CHUNK: usize = 64 * 1024;

/// Split `n` items into per-CTA ranges of at most `chunk` items.
pub fn cta_ranges(n: usize, chunk: usize) -> Vec<std::ops::Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut out = Vec::with_capacity(n.div_ceil(chunk));
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

/// Run `work` over every CTA range of `input` in parallel, collecting each
/// CTA's result in CTA order — the "partition, per-CTA compute, buffer"
/// stages of the paper's multi-stage kernels. The final gather is whatever
/// the caller does with the per-CTA outputs.
///
/// Work runs on scoped threads (one logical worker per available core, CTAs
/// distributed round-robin), so `work` only needs `Sync` borrows.
pub fn par_cta_map<T, R, F>(input: &[T], chunk: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let ranges = cta_ranges(input.len(), chunk);
    let n_ctas = ranges.len();
    if n_ctas == 0 {
        return Vec::new();
    }
    kfusion_trace::counter("kfusion_host_morsels_total", n_ctas as u64);
    let workers = worker_count(n_ctas);
    if workers <= 1 {
        return ranges.into_iter().enumerate().map(|(i, r)| work(i, &input[r])).collect();
    }
    let mut results: Vec<Option<R>> = (0..n_ctas).map(|_| None).collect();
    let work = &work;
    let ranges = &ranges;
    std::thread::scope(|scope| {
        for (w, mut slot_chunk) in chunked_slots(&mut results, workers).into_iter().enumerate() {
            scope.spawn(move || {
                for (offset, slot) in slot_chunk.iter_mut().enumerate() {
                    let cta = w + offset * workers;
                    let r = ranges[cta].clone();
                    **slot = Some(work(cta, &input[r]));
                }
            });
        }
    });
    results.into_iter().map(|r| r.expect("all CTAs filled")).collect()
}

/// Host workers for `n_ctas` CTAs: one per available core (probed once per
/// process), never more than there are CTAs.
fn worker_count(n_ctas: usize) -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(4, |p| p.get()));
    cores.min(n_ctas)
}

/// Partition `slots` into `workers` interleaved views: worker `w` owns slots
/// `w, w+workers, w+2*workers, ...`. Interleaving balances load when CTA
/// costs trend with position (e.g. sorted data).
fn chunked_slots<R>(slots: &mut [Option<R>], workers: usize) -> Vec<Vec<&mut Option<R>>> {
    let mut views: Vec<Vec<&mut Option<R>>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, slot) in slots.iter_mut().enumerate() {
        views[i % workers].push(slot);
    }
    views
}

/// Like [`par_cta_map`] but driven by an element *count* instead of a slice,
/// for callers whose data is columnar (several parallel arrays) rather than
/// one slice. `work(cta, range)` receives the CTA index and its index range.
pub fn par_range_map<R, F>(n: usize, chunk: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
{
    let ranges = cta_ranges(n, chunk);
    let n_ctas = ranges.len();
    if n_ctas == 0 {
        return Vec::new();
    }
    kfusion_trace::counter("kfusion_host_morsels_total", n_ctas as u64);
    let workers = worker_count(n_ctas);
    if workers <= 1 {
        return ranges.into_iter().enumerate().map(|(i, r)| work(i, r)).collect();
    }
    let mut results: Vec<Option<R>> = (0..n_ctas).map(|_| None).collect();
    let work = &work;
    let ranges = &ranges;
    std::thread::scope(|scope| {
        for (w, mut slot_chunk) in chunked_slots(&mut results, workers).into_iter().enumerate() {
            scope.spawn(move || {
                for (offset, slot) in slot_chunk.iter_mut().enumerate() {
                    let cta = w + offset * workers;
                    **slot = Some(work(cta, ranges[cta].clone()));
                }
            });
        }
    });
    results.into_iter().map(|r| r.expect("all CTAs filled")).collect()
}

/// Consume `items` in parallel, one `work(index, item)` call each, over the
/// same bounded, interleaved worker set as [`par_range_map`]: worker `w`
/// takes items `w, w + workers, ...`. For per-CTA work that owns its state
/// — a SELECT gather writing its CTA's disjoint output window — where a
/// result-collecting map does not fit.
pub fn par_for_each<T, F>(items: Vec<T>, work: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    let workers = worker_count(items.len());
    if workers <= 1 {
        items.into_iter().enumerate().for_each(|(i, item)| work(i, item));
        return;
    }
    let mut lanes: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        lanes[i % workers].push((i, item));
    }
    let work = &work;
    std::thread::scope(|scope| {
        for lane in lanes {
            scope.spawn(move || lane.into_iter().for_each(|(i, item)| work(i, item)));
        }
    });
}

/// Parallel map over equal chunks followed by an associative reduction — for
/// the CPU baseline's multi-threaded operators (paper Fig. 4(a) uses 16 CPU
/// threads).
pub fn par_map_reduce<T, A, F, G>(input: &[T], chunk: usize, map: F, reduce: G, identity: A) -> A
where
    T: Sync,
    A: Send,
    F: Fn(&[T]) -> A + Sync,
    G: Fn(A, A) -> A,
{
    let partials = par_cta_map(input, chunk, |_, part| map(part));
    partials.into_iter().fold(identity, reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_exactly() {
        let rs = cta_ranges(10, 3);
        assert_eq!(rs, vec![0..3, 3..6, 6..9, 9..10]);
        assert!(cta_ranges(0, 3).is_empty());
        assert_eq!(cta_ranges(3, 3), vec![0..3]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        cta_ranges(1, 0);
    }

    #[test]
    fn par_cta_map_preserves_order() {
        let data: Vec<u32> = (0..100_000).collect();
        let sums = par_cta_map(&data, 1024, |_, part| part.iter().map(|&x| x as u64).sum::<u64>());
        assert_eq!(sums.len(), 98);
        let total: u64 = sums.iter().sum();
        assert_eq!(total, (0..100_000u64).sum::<u64>());
        // First CTA must be the first range, not an arbitrary one.
        assert_eq!(sums[0], (0..1024u64).sum::<u64>());
    }

    #[test]
    fn par_cta_map_passes_cta_index() {
        let data = vec![0u8; 10_000];
        let idxs = par_cta_map(&data, 1000, |cta, _| cta);
        assert_eq!(idxs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let data: Vec<u32> = vec![];
        let out = par_cta_map(&data, 16, |_, part| part.len());
        assert!(out.is_empty());
    }

    #[test]
    fn par_range_map_covers_all_indices() {
        let flags: Vec<std::sync::atomic::AtomicBool> =
            (0..5000).map(|_| std::sync::atomic::AtomicBool::new(false)).collect();
        par_range_map(5000, 64, |_, r| {
            for i in r {
                flags[i].store(true, std::sync::atomic::Ordering::Relaxed);
            }
        });
        assert!(flags.iter().all(|f| f.load(std::sync::atomic::Ordering::Relaxed)));
    }

    #[test]
    fn map_reduce_matches_sequential() {
        let data: Vec<i64> = (1..=1_000_000).collect();
        let sum = par_map_reduce(&data, 4096, |p| p.iter().sum::<i64>(), |a, b| a + b, 0);
        assert_eq!(sum, 500_000_500_000);
    }

    #[test]
    fn par_for_each_visits_every_item_once_on_bounded_workers() {
        let seen: Vec<std::sync::atomic::AtomicUsize> =
            (0..37).map(|_| std::sync::atomic::AtomicUsize::new(0)).collect();
        let threads = std::sync::Mutex::new(std::collections::HashSet::new());
        par_for_each((0..37).map(|i| i * 10).collect(), |i, item: usize| {
            assert_eq!(item, i * 10, "item handed to the wrong index");
            seen[i].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            threads.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(seen.iter().all(|c| c.load(std::sync::atomic::Ordering::Relaxed) == 1));
        assert!(threads.lock().unwrap().len() <= worker_count(37));
        par_for_each(Vec::<u8>::new(), |_, _| unreachable!("no items"));
    }

    #[test]
    fn single_cta_path_works() {
        let data = [1u32, 2, 3];
        let out = par_cta_map(&data, 100, |_, p| p.to_vec());
        assert_eq!(out, vec![vec![1, 2, 3]]);
    }
}
