//! JOIN: sort-merge equijoin on the tuple key.
//!
//! The substrate stores relations key-sorted, so the equijoin is a linear
//! merge with group-wise cross products for duplicate keys. Semijoin and
//! antijoin variants implement the EXISTS / NOT EXISTS sub-queries of
//! TPC-H Q21.

use crate::data::{RelError, Relation};

fn group_end(keys: &[u64], start: usize) -> usize {
    let k = keys[start];
    let mut end = start + 1;
    while end < keys.len() && keys[end] == k {
        end += 1;
    }
    end
}

/// Inner equijoin of two key-sorted relations. Output schema: key, then
/// `a`'s payload columns, then `b`'s. Duplicate keys produce the group
/// cross-product, ordered `a`-major.
pub fn join(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    a.require_sorted()?;
    b.require_sorted()?;
    kfusion_trace::counter("kfusion_rows_in_total{op=\"join\"}", (a.len() + b.len()) as u64);
    let mut out_key = Vec::new();
    let mut a_idx: Vec<usize> = Vec::new();
    let mut b_idx: Vec<usize> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a.key[i].cmp(&b.key[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let (ae, be) = (group_end(&a.key, i), group_end(&b.key, j));
                for ai in i..ae {
                    for bi in j..be {
                        out_key.push(a.key[ai]);
                        a_idx.push(ai);
                        b_idx.push(bi);
                    }
                }
                i = ae;
                j = be;
            }
        }
    }
    kfusion_trace::counter("kfusion_rows_out_total{op=\"join\"}", out_key.len() as u64);
    let mut cols = Vec::with_capacity(a.n_cols() + b.n_cols());
    for c in &a.cols {
        cols.push(c.gather(&a_idx));
    }
    for c in &b.cols {
        cols.push(c.gather(&b_idx));
    }
    Relation::new(out_key, cols)
}

/// Column-combining join: zip two relations with *identical* key vectors
/// into one wide relation (key + `a`'s columns + `b`'s columns).
///
/// This is the join the paper's Q1 plan uses to assemble a seven-column
/// table from per-column relations keyed by row id (Fig. 17(a)). Because
/// output element `i` depends only on input elements `i`, it is dependence
/// class (i) of §III-C — freely fusable *and* fissionable, unlike the
/// general merge join.
pub fn column_join(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    if a.key != b.key {
        return Err(RelError::SchemaMismatch);
    }
    let mut cols = Vec::with_capacity(a.n_cols() + b.n_cols());
    cols.extend(a.cols.iter().cloned());
    cols.extend(b.cols.iter().cloned());
    Relation::new(a.key.clone(), cols)
}

/// [`column_join`] for a caller that owns `a`: `b`'s columns are appended
/// to `a` in place, so the key and `a`'s columns move instead of cloning.
/// Used by the plan executor for single-consumer intermediates.
pub fn column_join_owned(mut a: Relation, b: &Relation) -> Result<Relation, RelError> {
    if a.key != b.key {
        return Err(RelError::SchemaMismatch);
    }
    a.cols.extend(b.cols.iter().cloned());
    Ok(a)
}

/// Semijoin: tuples of `a` whose key appears in `b` (EXISTS). Keeps `a`'s
/// schema; duplicate matches in `b` do not duplicate output.
pub fn semijoin(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    filter_by_membership(a, b, true)
}

/// Antijoin: tuples of `a` whose key does **not** appear in `b`
/// (NOT EXISTS). Keeps `a`'s schema.
pub fn antijoin(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    filter_by_membership(a, b, false)
}

fn filter_by_membership(
    a: &Relation,
    b: &Relation,
    keep_present: bool,
) -> Result<Relation, RelError> {
    a.require_sorted()?;
    b.require_sorted()?;
    let mut out = a.empty_like();
    let mut j = 0usize;
    for i in 0..a.len() {
        while j < b.len() && b.key[j] < a.key[i] {
            j += 1;
        }
        let present = j < b.len() && b.key[j] == a.key[i];
        if present == keep_present {
            out.push_row_from(a, i);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Column;

    /// Table I JOIN example: x = {(3,a),(4,a),(2,b)}, y = {(2,f),(3,c)};
    /// join x y → {(2,b,f),(3,a,c)} (we emit key order; the paper's listing
    /// order is presentation only).
    #[test]
    fn table1_join_example() {
        // a=1 b=2 c=3 f=6.
        let mut x = Relation::new(vec![3, 4, 2], vec![Column::I64(vec![1, 1, 2])]).unwrap();
        let mut y = Relation::new(vec![2, 3], vec![Column::I64(vec![6, 3])]).unwrap();
        x.sort_by_key();
        y.sort_by_key();
        let out = join(&x, &y).unwrap();
        assert_eq!(out.key, vec![2, 3]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[2, 1]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[6, 3]);
    }

    #[test]
    fn duplicate_keys_cross_product() {
        let a = Relation::new(vec![1, 1, 2], vec![Column::I64(vec![10, 11, 20])]).unwrap();
        let b = Relation::new(vec![1, 1], vec![Column::I64(vec![100, 101])]).unwrap();
        let out = join(&a, &b).unwrap();
        assert_eq!(out.key, vec![1, 1, 1, 1]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[10, 10, 11, 11]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[100, 101, 100, 101]);
    }

    #[test]
    fn unsorted_input_is_rejected() {
        let a = Relation::from_keys(vec![2, 1]);
        let b = Relation::from_keys(vec![1]);
        assert!(matches!(join(&a, &b), Err(RelError::NotSorted)));
    }

    #[test]
    fn disjoint_keys_give_empty_join() {
        let a = Relation::from_keys(vec![1, 3, 5]);
        let b = Relation::from_keys(vec![2, 4, 6]);
        assert!(join(&a, &b).unwrap().is_empty());
    }

    #[test]
    fn join_as_column_combiner() {
        // The paper's Q1 plan joins per-column relations on row-id to build
        // a wide table (Fig. 17(a)): same keys, different payloads.
        let c1 = Relation::new(vec![0, 1, 2], vec![Column::F64(vec![1.0, 2.0, 3.0])]).unwrap();
        let c2 = Relation::new(vec![0, 1, 2], vec![Column::I64(vec![7, 8, 9])]).unwrap();
        let wide = join(&c1, &c2).unwrap();
        assert_eq!(wide.n_cols(), 2);
        assert_eq!(wide.len(), 3);
        assert_eq!(wide.cols[1].as_i64().unwrap(), &[7, 8, 9]);
    }

    #[test]
    fn column_join_zips_identical_keys() {
        let a = Relation::new(vec![0, 1], vec![Column::F64(vec![1.0, 2.0])]).unwrap();
        let b = Relation::new(vec![0, 1], vec![Column::I64(vec![5, 6])]).unwrap();
        let wide = column_join(&a, &b).unwrap();
        assert_eq!(wide.n_cols(), 2);
        assert_eq!(wide.cols[0].as_f64().unwrap(), &[1.0, 2.0]);
        assert_eq!(wide.cols[1].as_i64().unwrap(), &[5, 6]);
        assert_eq!(column_join_owned(a, &b).unwrap(), wide);
    }

    #[test]
    fn column_join_rejects_mismatched_keys() {
        let a = Relation::from_keys(vec![0, 1]);
        let b = Relation::from_keys(vec![0, 2]);
        assert!(matches!(column_join(&a, &b), Err(RelError::SchemaMismatch)));
        assert!(matches!(column_join_owned(a, &b), Err(RelError::SchemaMismatch)));
    }

    #[test]
    fn semijoin_and_antijoin_partition_input() {
        let a = Relation::from_keys(vec![1, 2, 3, 4, 5]);
        let b = Relation::from_keys(vec![2, 4, 9]);
        let semi = semijoin(&a, &b).unwrap();
        let anti = antijoin(&a, &b).unwrap();
        assert_eq!(semi.key, vec![2, 4]);
        assert_eq!(anti.key, vec![1, 3, 5]);
        assert_eq!(semi.len() + anti.len(), a.len());
    }

    #[test]
    fn semijoin_does_not_duplicate_on_multi_match() {
        let a = Relation::from_keys(vec![1, 2]);
        let b = Relation::from_keys(vec![2, 2, 2]);
        assert_eq!(semijoin(&a, &b).unwrap().key, vec![2]);
    }
}
