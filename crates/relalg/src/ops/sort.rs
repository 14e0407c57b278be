//! SORT and UNIQUE — the fusion *barriers*.
//!
//! The paper singles these out (§III-C): "SORT and UNIQUE cannot be fused
//! with any other operators", because every output element depends on the
//! whole input (dependence class (ii)). They bound fused regions in both
//! TPC-H query plans (Fig. 17).
//!
//! The functional sort is a parallel chunk-sort + k-way merge — the same
//! BSP shape a GPU merge sort has, and the cost model prices it as
//! `log2(n)` full read+write passes, which is what makes SORT ~71% of the
//! un-optimized Q1 runtime as the paper reports.

use crate::data::{RelError, Relation};
use kfusion_vgpu::exec::{par_range_map, DEFAULT_CTA_CHUNK};

/// What to order by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortBy {
    /// The tuple key.
    Key,
    /// An i64 payload column (tuples reordered; keys carried along).
    I64Col(usize),
    /// An f64 payload column, in `f64::total_cmp` order (so `-0.0 < 0.0`
    /// and NaNs sort deterministically at the extremes).
    F64Col(usize),
    /// The tuple key, descending.
    KeyDesc,
    /// An i64 payload column, descending.
    I64ColDesc(usize),
    /// An f64 payload column, descending (`f64::total_cmp` order reversed).
    F64ColDesc(usize),
}

impl SortBy {
    /// The payload column this sort keys on, if any.
    pub fn col(&self) -> Option<usize> {
        match self {
            SortBy::Key | SortBy::KeyDesc => None,
            SortBy::I64Col(c)
            | SortBy::F64Col(c)
            | SortBy::I64ColDesc(c)
            | SortBy::F64ColDesc(c) => Some(*c),
        }
    }

    /// Whether the order is descending.
    pub fn descending(&self) -> bool {
        matches!(self, SortBy::KeyDesc | SortBy::I64ColDesc(_) | SortBy::F64ColDesc(_))
    }
}

/// Order-preserving map f64 -> u64 matching [`f64::total_cmp`]: flip all
/// bits of negatives, flip only the sign bit of non-negatives.
fn f64_rank(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b ^ (1 << 63)
    }
}

/// Extract the u64 rank vector a sort orders by. Ranks are ascending; a
/// descending sort inverts the bits (stability ties still break by
/// ascending original index, which is what a stable descending SQL sort
/// does).
fn rank_vec(input: &Relation, by: SortBy) -> Result<Vec<u64>, RelError> {
    let ascending: Vec<u64> = match by {
        SortBy::Key | SortBy::KeyDesc => input.key.clone(),
        SortBy::I64Col(c) | SortBy::I64ColDesc(c) => {
            let col = input
                .cols
                .get(c)
                .ok_or(RelError::NoSuchColumn { col: c, available: input.n_cols() })?
                .as_i64()
                .ok_or(RelError::SchemaMismatch)?;
            // Order-preserving map i64 -> u64 so one comparator serves both.
            col.iter().map(|&v| (v as u64) ^ (1 << 63)).collect()
        }
        SortBy::F64Col(c) | SortBy::F64ColDesc(c) => {
            let col = input
                .cols
                .get(c)
                .ok_or(RelError::NoSuchColumn { col: c, available: input.n_cols() })?
                .as_f64()
                .ok_or(RelError::SchemaMismatch)?;
            col.iter().map(|&v| f64_rank(v)).collect()
        }
    };
    Ok(if by.descending() { ascending.into_iter().map(|r| !r).collect() } else { ascending })
}

/// Sort the relation (stable).
pub fn sort(input: &Relation, by: SortBy) -> Result<Relation, RelError> {
    let rank = rank_vec(input, by)?;
    let idx = sort_index(&rank);
    Ok(input.gathered(&idx))
}

/// [`sort`] for a caller that owns the input relation: the permutation is
/// applied one column at a time in place of the input's buffers, so
/// sorting never holds a second copy of the relation. Used by the plan executor for single-consumer
/// intermediates.
pub fn sort_owned(mut input: Relation, by: SortBy) -> Result<Relation, RelError> {
    let idx = sort_index(&rank_vec(&input, by)?);
    input.gather_in_place(&idx);
    Ok(input)
}

/// Stable sort permutation over `rank`: position `p` of the output holds
/// `idx[p]`, the input row ranked `p`-th by `(rank, original index)`.
///
/// Picks between two stable algorithms that produce the *identical*
/// permutation (both order by `(rank, index)`), so the choice is invisible
/// to callers and to cross-engine bit-equality:
/// - a two-pass counting sort when the rank range is small relative to `n`
///   (the common case after REKEY packs a handful of group codes — Q1's
///   post-rekey sort has ~6 distinct ranks, turning `n log n` comparisons
///   into two linear sweeps);
/// - the parallel chunk-sort + pairwise-merge otherwise (the BSP shape the
///   cost model prices).
fn sort_index(rank: &[u64]) -> Vec<usize> {
    let n = rank.len();
    if n == 0 {
        return Vec::new();
    }
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for &r in rank {
        lo = lo.min(r);
        hi = hi.max(r);
    }
    // Counting-sort threshold: bucket array must stay O(n) (+ a fixed floor
    // so tiny inputs with moderate ranges still qualify).
    let limit = 4 * (n as u64) + 65_536;
    if hi - lo < limit {
        return counting_sort_index(rank, lo, (hi - lo) as usize + 1);
    }
    merge_sort_index(rank)
}

/// Stable counting sort: histogram, exclusive prefix sum, then a scatter in
/// original index order (equal ranks keep ascending index — the same
/// tie-break as `merge_sort_index`).
fn counting_sort_index(rank: &[u64], lo: u64, buckets: usize) -> Vec<usize> {
    let mut offsets = vec![0usize; buckets];
    for &r in rank {
        offsets[(r - lo) as usize] += 1;
    }
    let mut sum = 0usize;
    for slot in offsets.iter_mut() {
        let count = *slot;
        *slot = sum;
        sum += count;
    }
    let mut idx = vec![0usize; rank.len()];
    for (i, &r) in rank.iter().enumerate() {
        let b = (r - lo) as usize;
        idx[offsets[b]] = i;
        offsets[b] += 1;
    }
    idx
}

fn merge_sort_index(rank: &[u64]) -> Vec<usize> {
    let n = rank.len();
    // Parallel chunk sort (each "CTA" sorts its partition)...
    let mut runs: Vec<Vec<usize>> = par_range_map(n, DEFAULT_CTA_CHUNK.max(1), |_cta, range| {
        let mut idx: Vec<usize> = range.collect();
        idx.sort_by_key(|&i| (rank[i], i)); // (rank, index) => stable
        idx
    });
    // ...then k-way merge by repeated pairwise merging (log2(k) rounds).
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge_runs(&a, &b, rank)),
                None => next.push(a),
            }
        }
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

fn merge_runs(a: &[usize], b: &[usize], rank: &[u64]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        // Tie-break on original index keeps the merge stable.
        if (rank[a[i]], a[i]) <= (rank[b[j]], b[j]) {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sort via an actual **bitonic sorting network** — the algorithm family
/// 2012-era GPU libraries used and the one the cost model prices
/// (`log²n/4` global passes). Provided alongside the merge sort so the
/// model's structural assumptions are checkable against a real network:
/// the test suite counts the network's compare-exchange passes and verifies
/// both sorts produce identical orderings.
///
/// The network sorts a power-of-two padded index array; each pass is a
/// data-parallel sweep (run across CTA-shaped chunks), exactly the shape a
/// GPU implementation has.
pub fn bitonic_sort(input: &Relation, by: SortBy) -> Result<Relation, RelError> {
    let n = input.len();
    if n <= 1 {
        return Ok(input.clone());
    }
    let rank = rank_vec(input, by)?;
    // Pad to a power of two with +inf sentinels (index n == sentinel).
    let m = n.next_power_of_two();
    let sentinel = u64::MAX;
    let key_of =
        |idx: usize| if idx < n { (rank[idx], idx as u64) } else { (sentinel, idx as u64) };
    let mut idx: Vec<usize> = (0..m).collect();
    // The classic network: k = subsequence size, j = compare distance.
    let mut k = 2usize;
    while k <= m {
        let mut j = k / 2;
        while j > 0 {
            // One full compare-exchange pass (data-parallel in a real
            // kernel; sequential sweep here — the partners are disjoint).
            for i in 0..m {
                let partner = i ^ j;
                if partner > i {
                    let ascending = i & k == 0;
                    let (a, b) = (idx[i], idx[partner]);
                    if (key_of(a) > key_of(b)) == ascending {
                        idx.swap(i, partner);
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    let order: Vec<usize> = idx.into_iter().filter(|&i| i < n).collect();
    Ok(input.gathered(&order))
}

/// Number of compare-exchange passes a bitonic network over `n` elements
/// performs — the quantity the SORT cost model charges global-memory
/// traffic for.
pub fn bitonic_pass_count(n: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    let lg = 64 - (n.next_power_of_two() - 1).leading_zeros() as u64;
    lg * (lg + 1) / 2
}

/// UNIQUE: drop consecutive duplicate tuples (full-width comparison) from a
/// sorted relation.
pub fn unique(input: &Relation) -> Result<Relation, RelError> {
    input.require_sorted()?;
    let mut out = input.empty_like();
    for i in 0..input.len() {
        let dup = i > 0 && input.tuple_eq(i, input, i - 1);
        if !dup {
            out.push_row_from(input, i);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Column;

    #[test]
    fn sort_by_key_small() {
        let r = Relation::new(vec![3, 1, 2], vec![Column::I64(vec![30, 10, 20])]).unwrap();
        let out = sort(&r, SortBy::Key).unwrap();
        assert_eq!(out.key, vec![1, 2, 3]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[10, 20, 30]);
    }

    #[test]
    fn sort_by_column_carries_key() {
        let r = Relation::new(vec![1, 2, 3], vec![Column::I64(vec![30, 10, 20])]).unwrap();
        let out = sort(&r, SortBy::I64Col(0)).unwrap();
        assert_eq!(out.cols[0].as_i64().unwrap(), &[10, 20, 30]);
        assert_eq!(out.key, vec![2, 3, 1]);
    }

    #[test]
    fn sort_handles_negative_column_values() {
        let r = Relation::new(vec![1, 2, 3], vec![Column::I64(vec![5, -7, 0])]).unwrap();
        let out = sort(&r, SortBy::I64Col(0)).unwrap();
        assert_eq!(out.cols[0].as_i64().unwrap(), &[-7, 0, 5]);
    }

    #[test]
    fn large_parallel_sort_is_correct_and_stable() {
        // Big enough to force multiple chunks and merge rounds.
        let n = 300_000usize;
        let key: Vec<u64> = (0..n as u64).map(|i| (i * 2_654_435_761) % 1000).collect();
        let payload: Vec<i64> = (0..n as i64).collect();
        let r = Relation::new(key.clone(), vec![Column::I64(payload)]).unwrap();
        let out = sort(&r, SortBy::Key).unwrap();
        assert!(out.is_key_sorted());
        assert_eq!(out.len(), n);
        // Stability: within equal keys, original order (= payload order).
        let pay = out.cols[0].as_i64().unwrap();
        for w in 0..n - 1 {
            if out.key[w] == out.key[w + 1] {
                assert!(pay[w] < pay[w + 1], "unstable at {w}");
            }
        }
    }

    #[test]
    fn sort_owned_matches_sort() {
        // Small and window-parallel sizes, every column type as a sort key.
        for n in [0usize, 5, 150_000] {
            let key: Vec<u64> = (0..n as u64).map(|i| (i * 2_654_435_761) % 977).collect();
            let ints: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 1013 - 500).collect();
            let floats: Vec<f64> = (0..n).map(|i| ((i * 31) % 97) as f64 * -0.25).collect();
            let r = Relation::new(key, vec![Column::I64(ints), Column::F64(floats)]).unwrap();
            for by in [SortBy::Key, SortBy::I64ColDesc(0), SortBy::F64Col(1)] {
                assert_eq!(sort_owned(r.clone(), by).unwrap(), sort(&r, by).unwrap(), "{n} {by:?}");
            }
        }
    }

    #[test]
    fn counting_and_merge_paths_produce_identical_permutations() {
        // Both index sorts are stable on (rank, index), so they must agree
        // exactly — this is what makes the fast path invisible to callers.
        for (n, modulus) in [(0usize, 1u64), (1, 1), (977, 7), (50_000, 1000), (10_000, 3)] {
            let rank: Vec<u64> =
                (0..n as u64).map(|i| (i.wrapping_mul(2_654_435_761)) % modulus).collect();
            let fast = counting_sort_index(
                &rank,
                rank.iter().copied().min().unwrap_or(0),
                modulus as usize,
            );
            let general = merge_sort_index(&rank);
            assert_eq!(fast, general, "n={n} modulus={modulus}");
        }
    }

    #[test]
    fn wide_rank_range_takes_merge_path_and_sorts() {
        // Ranks spread across the full u64 range exceed the counting-sort
        // threshold; the merge path must still produce a stable order.
        let n = 10_000usize;
        let key: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let r = Relation::from_keys(key);
        let out = sort(&r, SortBy::Key).unwrap();
        assert!(out.is_key_sorted());
        assert_eq!(out.len(), n);
    }

    #[test]
    fn empty_sort() {
        let r = Relation::from_keys(vec![]);
        assert!(sort(&r, SortBy::Key).unwrap().is_empty());
    }

    #[test]
    fn typed_sort_rejects_mismatched_column() {
        // An i64 sort over an f64 column (and vice versa) is a schema
        // error, not a silent reinterpretation.
        let f = Relation::new(vec![1], vec![Column::F64(vec![1.0])]).unwrap();
        assert!(matches!(sort(&f, SortBy::I64Col(0)), Err(RelError::SchemaMismatch)));
        let i = Relation::new(vec![1], vec![Column::I64(vec![1])]).unwrap();
        assert!(matches!(sort(&i, SortBy::F64Col(0)), Err(RelError::SchemaMismatch)));
    }

    #[test]
    fn sort_by_f64_column_uses_total_order() {
        let vals = vec![1.5, f64::NAN, -0.0, 0.0, f64::NEG_INFINITY, -2.5, f64::INFINITY];
        let r = Relation::new(vec![0, 1, 2, 3, 4, 5, 6], vec![Column::F64(vals.clone())]).unwrap();
        let out = sort(&r, SortBy::F64Col(0)).unwrap();
        let got = out.cols[0].as_f64().unwrap();
        let mut expect = vals;
        expect.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "total_cmp order incl. -0.0 < 0.0 and NaN at the top"
        );
    }

    #[test]
    fn sort_by_f64_column_is_stable() {
        let r = Relation::new(
            vec![10, 11, 12, 13],
            vec![Column::F64(vec![2.0, 1.0, 2.0, 1.0]), Column::I64(vec![0, 1, 2, 3])],
        )
        .unwrap();
        let out = sort(&r, SortBy::F64Col(0)).unwrap();
        assert_eq!(out.key, vec![11, 13, 10, 12]);
    }

    #[test]
    fn descending_sorts_reverse_rank_but_stay_stable() {
        let r = Relation::new(
            vec![1, 2, 3, 4],
            vec![Column::I64(vec![7, 9, 7, 8]), Column::F64(vec![0.5, -1.5, 0.5, 2.5])],
        )
        .unwrap();
        let by_i = sort(&r, SortBy::I64ColDesc(0)).unwrap();
        // 9, 8, then the two 7s in original order (stable).
        assert_eq!(by_i.cols[0].as_i64().unwrap(), &[9, 8, 7, 7]);
        assert_eq!(by_i.key, vec![2, 4, 1, 3]);
        let by_f = sort(&r, SortBy::F64ColDesc(1)).unwrap();
        assert_eq!(by_f.cols[1].as_f64().unwrap(), &[2.5, 0.5, 0.5, -1.5]);
        assert_eq!(by_f.key, vec![4, 1, 3, 2]);
        let by_k = sort(&r, SortBy::KeyDesc).unwrap();
        assert_eq!(by_k.key, vec![4, 3, 2, 1]);
    }

    #[test]
    fn bitonic_matches_merge_for_new_variants() {
        let n = 2000usize;
        let key: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 101).collect();
        let f: Vec<f64> = (0..n).map(|i| ((i * 2_654_435_761) % 997) as f64 - 500.0).collect();
        let r = Relation::new(key, vec![Column::F64(f)]).unwrap();
        for by in [SortBy::F64Col(0), SortBy::F64ColDesc(0), SortBy::KeyDesc] {
            let merge = sort(&r, by).unwrap();
            let bitonic = bitonic_sort(&r, by).unwrap();
            assert_eq!(merge, bitonic, "{by:?}");
        }
    }

    #[test]
    fn bitonic_matches_merge_sort() {
        let n = 10_000usize;
        let key: Vec<u64> = (0..n as u64).map(|i| (i * 2_654_435_761) % 5000).collect();
        let payload: Vec<i64> = (0..n as i64).collect();
        let r = Relation::new(key, vec![Column::I64(payload)]).unwrap();
        let merge = sort(&r, SortBy::Key).unwrap();
        let bitonic = bitonic_sort(&r, SortBy::Key).unwrap();
        // Both orderings are stable-equivalent on (key, original index).
        assert_eq!(bitonic.key, merge.key);
        assert_eq!(
            bitonic.cols[0].as_i64().unwrap(),
            merge.cols[0].as_i64().unwrap(),
            "tie-broken by original index, both sorts agree exactly"
        );
    }

    #[test]
    fn bitonic_handles_non_power_of_two_and_tiny() {
        for n in [0usize, 1, 2, 3, 5, 7, 100, 1023] {
            let key: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 13).collect();
            let r = Relation::from_keys(key);
            let out = bitonic_sort(&r, SortBy::Key).unwrap();
            assert!(out.is_key_sorted(), "n={n}");
            assert_eq!(out.len(), n);
        }
    }

    #[test]
    fn bitonic_by_column() {
        let r = Relation::new(vec![1, 2, 3], vec![Column::I64(vec![5, -7, 0])]).unwrap();
        let out = bitonic_sort(&r, SortBy::I64Col(0)).unwrap();
        assert_eq!(out.cols[0].as_i64().unwrap(), &[-7, 0, 5]);
    }

    #[test]
    fn pass_count_matches_cost_model_shape() {
        // The cost model charges log2(n)(log2(n)+1)/4 global passes — half
        // the true network (early passes run in shared memory). Verify the
        // 2x relationship against the real network's count.
        use crate::profiles::sort_kernel;
        for n in [1u64 << 10, 1 << 16, 1 << 20] {
            let real = bitonic_pass_count(n) as f64;
            let k = sort_kernel(n, 8.0);
            let model_passes = k.bytes_read_per_elem / 8.0;
            let ratio = real / model_passes;
            assert!(
                (1.7..2.4).contains(&ratio),
                "n={n}: network {real} vs model {model_passes} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn unique_drops_consecutive_duplicates() {
        let r = Relation::new(vec![1, 1, 2, 2, 2, 3], vec![Column::I64(vec![9, 9, 8, 8, 7, 6])])
            .unwrap();
        let out = unique(&r).unwrap();
        // (2,8) and (2,7) differ in payload: both kept.
        assert_eq!(out.key, vec![1, 2, 2, 3]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[9, 8, 7, 6]);
    }

    #[test]
    fn unique_requires_sorted() {
        let r = Relation::from_keys(vec![2, 1]);
        assert!(matches!(unique(&r), Err(RelError::NotSorted)));
    }

    #[test]
    fn unique_of_distinct_is_identity() {
        let r = Relation::from_keys(vec![1, 2, 3]);
        assert_eq!(unique(&r).unwrap(), r);
    }
}
