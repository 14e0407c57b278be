//! Columnar relation storage.
//!
//! Following Diamos et al. (GIT-CERCS-12-01), the substrate the paper builds
//! on, a relation is a densely packed array of tuples sorted by an integer
//! *key*, with fixed-width payload fields. We store it columnar: one `u64`
//! key vector plus typed payload columns. The key doubles as the join/set
//! attribute; the "first field is the key" convention of the paper's
//! Table I.

use std::fmt;

/// A typed payload column.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// 64-bit floats.
    F64(Vec<f64>),
}

impl Column {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::I64(v) => v.len(),
            Column::F64(v) => v.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove all values, keeping the allocated capacity.
    pub fn clear(&mut self) {
        match self {
            Column::I64(v) => v.clear(),
            Column::F64(v) => v.clear(),
        }
    }

    /// An empty column of the same type.
    pub fn empty_like(&self) -> Column {
        match self {
            Column::I64(_) => Column::I64(Vec::new()),
            Column::F64(_) => Column::F64(Vec::new()),
        }
    }

    /// An empty column of the same type with reserved capacity.
    pub fn empty_like_with_capacity(&self, cap: usize) -> Column {
        match self {
            Column::I64(_) => Column::I64(Vec::with_capacity(cap)),
            Column::F64(_) => Column::F64(Vec::with_capacity(cap)),
        }
    }

    /// Value at `i` as an IR [`kfusion_ir::Value`].
    pub fn value(&self, i: usize) -> kfusion_ir::Value {
        match self {
            Column::I64(v) => kfusion_ir::Value::I64(v[i]),
            Column::F64(v) => kfusion_ir::Value::F64(v[i]),
        }
    }

    /// Append the value at `src[i]` (same-typed column) to `self`.
    ///
    /// # Panics
    /// If the column types differ.
    pub fn push_from(&mut self, src: &Column, i: usize) {
        match (self, src) {
            (Column::I64(d), Column::I64(s)) => d.push(s[i]),
            (Column::F64(d), Column::F64(s)) => d.push(s[i]),
            _ => panic!("column type mismatch in push_from"),
        }
    }

    /// Append a [`kfusion_ir::Value`] of the matching type.
    ///
    /// # Panics
    /// If the value type does not match the column type.
    pub fn push_value(&mut self, v: kfusion_ir::Value) {
        match (self, v) {
            (Column::I64(d), kfusion_ir::Value::I64(x)) => d.push(x),
            (Column::F64(d), kfusion_ir::Value::F64(x)) => d.push(x),
            _ => panic!("value type mismatch in push_value"),
        }
    }

    /// Bytes per value (both variants are 8-byte scalars).
    pub const BYTES_PER_VALUE: u64 = 8;

    /// The i64 payload, if this is an integer column.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            Column::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The f64 payload, if this is a float column.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Column::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Concatenate `other` onto the end of `self`.
    ///
    /// # Panics
    /// If the column types differ.
    pub fn extend_from(&mut self, other: &Column) {
        match (self, other) {
            (Column::I64(d), Column::I64(s)) => d.extend_from_slice(s),
            (Column::F64(d), Column::F64(s)) => d.extend_from_slice(s),
            _ => panic!("column type mismatch in extend_from"),
        }
    }

    /// Take the rows at `idx`, in order.
    pub fn gather(&self, idx: &[usize]) -> Column {
        match self {
            Column::I64(v) => Column::I64(idx.iter().map(|&i| v[i]).collect()),
            Column::F64(v) => Column::F64(idx.iter().map(|&i| v[i]).collect()),
        }
    }

    /// [`Column::gather`] into a caller-owned column: replaces `dst`'s
    /// contents with the rows at `idx`, reusing its capacity. The `_into`
    /// shape the zero-allocation runtime uses wherever a gather repeats
    /// (DESIGN.md §14).
    ///
    /// # Panics
    /// If the column types differ.
    pub fn gather_into(&self, idx: &[usize], dst: &mut Column) {
        match (self, dst) {
            (Column::I64(s), Column::I64(d)) => {
                d.clear();
                d.extend(idx.iter().map(|&i| s[i]));
            }
            (Column::F64(s), Column::F64(d)) => {
                d.clear();
                d.extend(idx.iter().map(|&i| s[i]));
            }
            _ => panic!("column type mismatch in gather_into"),
        }
    }

    /// Append the rows at `base + idx[..]` (same-typed column) onto `dst` —
    /// the columnar inner loop of the batch SELECT: one type dispatch per
    /// column per batch instead of one per row. Within reserved capacity
    /// this never allocates.
    ///
    /// # Panics
    /// If the column types differ.
    pub fn gather_append(&self, base: usize, idx: &[u32], dst: &mut Column) {
        match (self, dst) {
            (Column::I64(s), Column::I64(d)) => {
                d.extend(idx.iter().map(|&i| s[base + i as usize]));
            }
            (Column::F64(s), Column::F64(d)) => {
                d.extend(idx.iter().map(|&i| s[base + i as usize]));
            }
            _ => panic!("column type mismatch in gather_append"),
        }
    }

    /// Whether `other` stores the same value type.
    pub fn same_type(&self, other: &Column) -> bool {
        matches!((self, other), (Column::I64(_), Column::I64(_)) | (Column::F64(_), Column::F64(_)))
    }

    /// Resize to exactly `n` values, zero-filled. When the current buffer
    /// cannot hold `n`, the old allocation is dropped and a fresh
    /// zero-initialized one is requested instead of growing in place —
    /// large zeroed requests come back as lazily-mapped zero pages, so the
    /// page-fault cost of first touch lands on whichever worker thread
    /// writes each region rather than serially on the caller.
    pub fn resize_zeroed(&mut self, n: usize) {
        match self {
            Column::I64(v) => resize_zeroed_vec(v, n),
            Column::F64(v) => resize_zeroed_vec(v, n),
        }
    }
}

/// Replace `dst`'s contents with `idx.iter().map(|&i| src[i])`, reusing its
/// capacity; filled over the bounded worker set in [`PAR_COPY_MIN_ROWS`]-row
/// windows once it is that large.
fn par_gather_into<T: Copy + Default + Send + Sync>(src: &[T], idx: &[usize], dst: &mut Vec<T>) {
    if idx.len() < PAR_COPY_MIN_ROWS {
        dst.clear();
        dst.extend(idx.iter().map(|&i| src[i]));
        return;
    }
    resize_zeroed_vec(dst, idx.len());
    let windows: Vec<_> =
        dst.chunks_mut(PAR_COPY_MIN_ROWS).zip(idx.chunks(PAR_COPY_MIN_ROWS)).collect();
    kfusion_vgpu::exec::par_for_each(windows, |_, (out, ids)| {
        for (o, &i) in out.iter_mut().zip(ids) {
            *o = src[i];
        }
    });
}

pub(crate) fn resize_zeroed_vec<T: Clone + Default>(v: &mut Vec<T>, n: usize) {
    if v.capacity() < n {
        *v = vec![T::default(); n];
    } else {
        v.clear();
        v.resize(n, T::default());
    }
}

/// A disjoint mutable row-window over one column's buffer — the unit of
/// work for parallel materialization (each worker owns one window of every
/// column, so scoped threads write without locks).
pub(crate) enum ColWindow<'a> {
    /// Window of an i64 column.
    I64(&'a mut [i64]),
    /// Window of an f64 column.
    F64(&'a mut [f64]),
}

impl ColWindow<'_> {
    /// Copy a whole same-typed column into this window.
    ///
    /// # Panics
    /// If types or lengths differ.
    pub(crate) fn copy_from(&mut self, src: &Column) {
        match (self, src) {
            (ColWindow::I64(d), Column::I64(s)) => d.copy_from_slice(s),
            (ColWindow::F64(d), Column::F64(s)) => d.copy_from_slice(s),
            _ => panic!("column type mismatch in ColWindow::copy_from"),
        }
    }

    /// Fill this window with `src[idx[j]]` for each position `j`.
    ///
    /// # Panics
    /// If types differ or `idx` is shorter than the window.
    pub(crate) fn gather_from(&mut self, src: &Column, idx: &[usize]) {
        match (self, src) {
            (ColWindow::I64(d), Column::I64(s)) => {
                for (o, &i) in d.iter_mut().zip(idx) {
                    *o = s[i];
                }
            }
            (ColWindow::F64(d), Column::F64(s)) => {
                for (o, &i) in d.iter_mut().zip(idx) {
                    *o = s[i];
                }
            }
            _ => panic!("column type mismatch in ColWindow::gather_from"),
        }
    }
}

/// Split `s` into consecutive disjoint mutable windows of the given
/// lengths. The lengths must sum to at most `s.len()`.
pub(crate) fn slice_windows<'a, T>(mut s: &'a mut [T], lens: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(lens.len());
    for &len in lens {
        let (head, tail) = std::mem::take(&mut s).split_at_mut(len);
        out.push(head);
        s = tail;
    }
    out
}

/// Split every column into consecutive disjoint row-windows of the given
/// lengths: result `[w][c]` is window `w` of column `c`.
pub(crate) fn col_windows<'a>(cols: &'a mut [Column], lens: &[usize]) -> Vec<Vec<ColWindow<'a>>> {
    let mut rests: Vec<ColWindow<'a>> = cols
        .iter_mut()
        .map(|c| match c {
            Column::I64(v) => ColWindow::I64(v.as_mut_slice()),
            Column::F64(v) => ColWindow::F64(v.as_mut_slice()),
        })
        .collect();
    let mut out = Vec::with_capacity(lens.len());
    for &len in lens {
        let mut row = Vec::with_capacity(rests.len());
        for rest in rests.iter_mut() {
            match rest {
                ColWindow::I64(s) => {
                    let (head, tail) = std::mem::take(s).split_at_mut(len);
                    row.push(ColWindow::I64(head));
                    *s = tail;
                }
                ColWindow::F64(s) => {
                    let (head, tail) = std::mem::take(s).split_at_mut(len);
                    row.push(ColWindow::F64(head));
                    *s = tail;
                }
            }
        }
        out.push(row);
    }
    out
}

/// Row count below which the parallel materialization helpers fall back to
/// their serial equivalents (thread spawn would cost more than the copy).
pub(crate) const PAR_COPY_MIN_ROWS: usize = 64 * 1024;

/// Structural errors on relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// Columns have differing lengths.
    RaggedColumns {
        /// Key length.
        key_len: usize,
        /// Offending column index.
        col: usize,
        /// Its length.
        col_len: usize,
    },
    /// An operator required key-sorted input but the keys are unsorted.
    NotSorted,
    /// An operator referenced a column that does not exist.
    NoSuchColumn {
        /// Requested index.
        col: usize,
        /// Available count.
        available: usize,
    },
    /// Two relations were expected to have the same schema.
    SchemaMismatch,
    /// A predicate or expression failed to evaluate.
    Eval(kfusion_ir::interp::EvalError),
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::RaggedColumns { key_len, col, col_len } => {
                write!(f, "column {col} has {col_len} rows, key has {key_len}")
            }
            RelError::NotSorted => write!(f, "relation is not key-sorted"),
            RelError::NoSuchColumn { col, available } => {
                write!(f, "no column {col} (relation has {available})")
            }
            RelError::SchemaMismatch => write!(f, "relations have different schemas"),
            RelError::Eval(e) => write!(f, "expression evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for RelError {}

impl From<kfusion_ir::interp::EvalError> for RelError {
    fn from(e: kfusion_ir::interp::EvalError) -> Self {
        RelError::Eval(e)
    }
}

/// A relation: a key vector plus payload columns of equal length.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    /// Tuple keys (the first field in the paper's Table I examples).
    pub key: Vec<u64>,
    /// Payload columns.
    pub cols: Vec<Column>,
}

impl Relation {
    /// A relation of bare keys (the paper's compressed-row SELECT inputs).
    pub fn from_keys(key: Vec<u64>) -> Self {
        Relation { key, cols: Vec::new() }
    }

    /// A relation with payload columns.
    ///
    /// # Errors
    /// [`RelError::RaggedColumns`] if lengths differ.
    pub fn new(key: Vec<u64>, cols: Vec<Column>) -> Result<Self, RelError> {
        let r = Relation { key, cols };
        r.check_rect()?;
        Ok(r)
    }

    fn check_rect(&self) -> Result<(), RelError> {
        for (i, c) in self.cols.iter().enumerate() {
            if c.len() != self.key.len() {
                return Err(RelError::RaggedColumns {
                    key_len: self.key.len(),
                    col: i,
                    col_len: c.len(),
                });
            }
        }
        Ok(())
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.key.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.key.is_empty()
    }

    /// Number of payload columns.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Stored bytes per tuple (8-byte key + 8 bytes per payload column).
    pub fn row_bytes(&self) -> u64 {
        8 + self.cols.len() as u64 * Column::BYTES_PER_VALUE
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> u64 {
        self.row_bytes() * self.len() as u64
    }

    /// Whether keys are non-decreasing.
    pub fn is_key_sorted(&self) -> bool {
        self.key.windows(2).all(|w| w[0] <= w[1])
    }

    /// Error unless key-sorted (operators with merge-based implementations
    /// require it, like the substrate's sorted key-value arrays).
    pub fn require_sorted(&self) -> Result<(), RelError> {
        if self.is_key_sorted() {
            Ok(())
        } else {
            Err(RelError::NotSorted)
        }
    }

    /// Sort tuples by key (stable), carrying payload columns along.
    pub fn sort_by_key(&mut self) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by_key(|&i| self.key[i]);
        self.permute(&idx);
    }

    /// Reorder tuples so that row `i` of the result is row `idx[i]` of the
    /// input.
    pub fn permute(&mut self, idx: &[usize]) {
        self.key = idx.iter().map(|&i| self.key[i]).collect();
        for c in &mut self.cols {
            *c = c.gather(idx);
        }
    }

    /// Remove all tuples, keeping the schema and every column's allocated
    /// capacity — the reset step of the `_into` operator variants.
    pub fn clear(&mut self) {
        self.key.clear();
        for c in &mut self.cols {
            c.clear();
        }
    }

    /// An empty relation with the same schema.
    pub fn empty_like(&self) -> Relation {
        Relation { key: Vec::new(), cols: self.cols.iter().map(Column::empty_like).collect() }
    }

    /// An empty relation with the same schema and `cap` rows of reserved
    /// capacity in the key and every column — so appends up to `cap` rows
    /// never reallocate.
    pub fn empty_like_with_capacity(&self, cap: usize) -> Relation {
        Relation {
            key: Vec::with_capacity(cap),
            cols: self.cols.iter().map(|c| c.empty_like_with_capacity(cap)).collect(),
        }
    }

    /// Clear `self` and make it share `src`'s schema, reusing each column
    /// buffer whose type already matches — the reset step of the `_into`
    /// operator variants when the caller-owned output may have come from a
    /// different operator.
    pub fn reset_like(&mut self, src: &Relation) {
        self.key.clear();
        if self.cols.len() == src.cols.len()
            && self.cols.iter().zip(&src.cols).all(|(a, b)| a.same_type(b))
        {
            for c in &mut self.cols {
                c.clear();
            }
        } else {
            self.cols = src.cols.iter().map(Column::empty_like).collect();
        }
    }

    /// Replace `self`'s rows with the concatenation of `parts` (which must
    /// share `self`'s schema), copying the parts in parallel — one worker
    /// per part, each writing a disjoint row-window sized up front. Small
    /// totals fall back to serial appends.
    ///
    /// # Panics
    /// If schemas differ.
    pub fn concat_from_parallel(&mut self, parts: &[Relation]) {
        let lens: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let total: usize = lens.iter().sum();
        if total < PAR_COPY_MIN_ROWS || parts.len() < 2 {
            self.clear();
            for p in parts {
                self.extend_from(p);
            }
            return;
        }
        resize_zeroed_vec(&mut self.key, total);
        for c in &mut self.cols {
            c.resize_zeroed(total);
        }
        let key_wins = slice_windows(&mut self.key, &lens);
        let col_wins = col_windows(&mut self.cols, &lens);
        std::thread::scope(|scope| {
            for ((kw, cw), part) in key_wins.into_iter().zip(col_wins).zip(parts) {
                scope.spawn(move || {
                    kw.copy_from_slice(&part.key);
                    for (mut w, s) in cw.into_iter().zip(&part.cols) {
                        w.copy_from(s);
                    }
                });
            }
        });
    }

    /// The relation whose row `i` is row `idx[i]` of `self` — `permute`
    /// without first cloning the unpermuted payload (SORT's output step
    /// builds each column exactly once this way). Large gathers run in
    /// parallel over disjoint output windows.
    pub fn gathered(&self, idx: &[usize]) -> Relation {
        let n = idx.len();
        if n < PAR_COPY_MIN_ROWS {
            return Relation {
                key: idx.iter().map(|&i| self.key[i]).collect(),
                cols: self.cols.iter().map(|c| c.gather(idx)).collect(),
            };
        }
        let mut out = self.empty_like();
        resize_zeroed_vec(&mut out.key, n);
        for c in &mut out.cols {
            c.resize_zeroed(n);
        }
        let lens: Vec<usize> = {
            let mut v = Vec::new();
            let mut rest = n;
            while rest > 0 {
                let take = rest.min(PAR_COPY_MIN_ROWS);
                v.push(take);
                rest -= take;
            }
            v
        };
        let key_wins = slice_windows(&mut out.key, &lens);
        let col_wins = col_windows(&mut out.cols, &lens);
        std::thread::scope(|scope| {
            let mut start = 0usize;
            for ((kw, cw), &len) in key_wins.into_iter().zip(col_wins).zip(&lens) {
                let ids = &idx[start..start + len];
                start += len;
                scope.spawn(move || {
                    for (o, &i) in kw.iter_mut().zip(ids) {
                        *o = self.key[i];
                    }
                    for (mut w, c) in cw.into_iter().zip(&self.cols) {
                        w.gather_from(c, ids);
                    }
                });
            }
        });
        out
    }

    /// [`Relation::gathered`] for an owned relation: row `i` becomes row
    /// `idx[i]`, one column at a time. Each column gathers into a spare
    /// buffer of its type and swaps with it, and the column's old buffer
    /// becomes the spare for the next one — so the reorder holds at most
    /// one spare column per value type instead of a second relation, and
    /// allocates at most three buffers whatever the width. Large columns
    /// gather in parallel over disjoint output windows.
    pub(crate) fn gather_in_place(&mut self, idx: &[usize]) {
        let mut spare_key = Vec::new();
        par_gather_into(&self.key, idx, &mut spare_key);
        self.key = spare_key;
        let (mut spare_i64, mut spare_f64) = (Vec::new(), Vec::new());
        for c in &mut self.cols {
            match c {
                Column::I64(v) => {
                    par_gather_into(v, idx, &mut spare_i64);
                    std::mem::swap(v, &mut spare_i64);
                }
                Column::F64(v) => {
                    par_gather_into(v, idx, &mut spare_f64);
                    std::mem::swap(v, &mut spare_f64);
                }
            }
        }
    }

    /// Append the rows at `base + idx[..]` of `src` (same schema) onto
    /// `self`, column at a time. Within reserved capacity this never
    /// allocates — the batch SELECT's output path.
    ///
    /// # Panics
    /// If schemas differ.
    pub fn gather_append(&mut self, src: &Relation, base: usize, idx: &[u32]) {
        self.key.extend(idx.iter().map(|&i| src.key[base + i as usize]));
        for (d, s) in self.cols.iter_mut().zip(&src.cols) {
            s.gather_append(base, idx, d);
        }
    }

    /// The IR input row for tuple `i`: slot 0 = key (as i64), slot `1+c` =
    /// column `c`. This is the calling convention every predicate and
    /// arithmetic expression in the library uses.
    pub fn ir_inputs(&self, i: usize, out: &mut Vec<kfusion_ir::Value>) {
        out.clear();
        out.push(kfusion_ir::Value::I64(self.key[i] as i64));
        for c in &self.cols {
            out.push(c.value(i));
        }
    }

    /// The batch-engine view of the same calling convention as
    /// [`Relation::ir_inputs`]: one [`kfusion_ir::batch::ColRef`] per input
    /// slot — the key column at slot 0 (loaded as `i64`), payload column `c`
    /// at slot `1+c`.
    pub fn ir_cols(&self) -> Vec<kfusion_ir::batch::ColRef<'_>> {
        use kfusion_ir::batch::ColRef;
        let mut out = Vec::with_capacity(1 + self.cols.len());
        out.push(ColRef::KeyU64(&self.key));
        for c in &self.cols {
            out.push(match c {
                Column::I64(v) => ColRef::I64(v),
                Column::F64(v) => ColRef::F64(v),
            });
        }
        out
    }

    /// The concrete IR type of each input slot under the library calling
    /// convention — the seeds batch compilation resolves register types
    /// against.
    pub fn ir_slot_types(&self) -> Vec<Option<kfusion_ir::Ty>> {
        use kfusion_ir::Ty;
        let mut out = Vec::with_capacity(1 + self.cols.len());
        out.push(Some(Ty::I64));
        for c in &self.cols {
            out.push(Some(match c {
                Column::I64(_) => Ty::I64,
                Column::F64(_) => Ty::F64,
            }));
        }
        out
    }

    /// Append row `i` of `src` (same schema).
    ///
    /// # Panics
    /// If schemas differ.
    pub fn push_row_from(&mut self, src: &Relation, i: usize) {
        self.key.push(src.key[i]);
        for (d, s) in self.cols.iter_mut().zip(&src.cols) {
            d.push_from(s, i);
        }
    }

    /// Concatenate `other` (same schema) onto `self`.
    ///
    /// # Panics
    /// If schemas differ.
    pub fn extend_from(&mut self, other: &Relation) {
        self.key.extend_from_slice(&other.key);
        for (d, s) in self.cols.iter_mut().zip(&other.cols) {
            d.extend_from(s);
        }
    }

    /// Compare full tuples at `(self, i)` and `(other, j)` for equality
    /// (used by the set operators, which work on whole tuples per Table I).
    pub fn tuple_eq(&self, i: usize, other: &Relation, j: usize) -> bool {
        if self.key[i] != other.key[j] || self.cols.len() != other.cols.len() {
            return false;
        }
        self.cols.iter().zip(&other.cols).all(|(a, b)| match (a, b) {
            (Column::I64(x), Column::I64(y)) => x[i] == y[j],
            (Column::F64(x), Column::F64(y)) => x[i].to_bits() == y[j].to_bits(),
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        Relation::new(
            vec![1, 2, 3],
            vec![Column::I64(vec![10, 20, 30]), Column::F64(vec![0.1, 0.2, 0.3])],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_rectangularity() {
        let bad = Relation::new(vec![1, 2], vec![Column::I64(vec![1])]);
        assert!(matches!(bad, Err(RelError::RaggedColumns { col: 0, .. })));
    }

    #[test]
    fn row_bytes_counts_key_and_columns() {
        assert_eq!(rel().row_bytes(), 24);
        assert_eq!(Relation::from_keys(vec![1]).row_bytes(), 8);
        assert_eq!(rel().total_bytes(), 72);
    }

    #[test]
    fn sortedness_checks() {
        assert!(rel().is_key_sorted());
        let mut r = Relation::from_keys(vec![3, 1, 2]);
        assert!(!r.is_key_sorted());
        assert!(r.require_sorted().is_err());
        r.sort_by_key();
        assert_eq!(r.key, vec![1, 2, 3]);
    }

    #[test]
    fn sort_carries_payload() {
        let mut r = Relation::new(vec![3, 1, 2], vec![Column::I64(vec![30, 10, 20])]).unwrap();
        r.sort_by_key();
        assert_eq!(r.key, vec![1, 2, 3]);
        assert_eq!(r.cols[0].as_i64().unwrap(), &[10, 20, 30]);
    }

    #[test]
    fn sort_is_stable_for_equal_keys() {
        let mut r = Relation::new(vec![2, 1, 2, 1], vec![Column::I64(vec![1, 2, 3, 4])]).unwrap();
        r.sort_by_key();
        assert_eq!(r.key, vec![1, 1, 2, 2]);
        assert_eq!(r.cols[0].as_i64().unwrap(), &[2, 4, 1, 3]);
    }

    #[test]
    fn ir_inputs_layout() {
        let r = rel();
        let mut buf = Vec::new();
        r.ir_inputs(1, &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf[0].as_i64(), Some(2));
        assert_eq!(buf[1].as_i64(), Some(20));
        assert_eq!(buf[2].as_f64(), Some(0.2));
    }

    #[test]
    fn push_and_extend_preserve_schema() {
        let r = rel();
        let mut out = r.empty_like();
        out.push_row_from(&r, 2);
        assert_eq!(out.key, vec![3]);
        out.extend_from(&r);
        assert_eq!(out.len(), 4);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[30, 10, 20, 30]);
    }

    #[test]
    fn tuple_equality_is_full_width() {
        let a = rel();
        let mut b = rel();
        assert!(a.tuple_eq(0, &b, 0));
        if let Column::I64(v) = &mut b.cols[0] {
            v[0] = 99;
        }
        assert!(!a.tuple_eq(0, &b, 0));
    }

    #[test]
    fn gather_reorders() {
        let c = Column::I64(vec![5, 6, 7]);
        assert_eq!(c.gather(&[2, 0]).as_i64().unwrap(), &[7, 5]);
    }

    #[test]
    #[should_panic(expected = "column type mismatch")]
    fn mixed_type_extend_panics() {
        let mut a = Column::I64(vec![]);
        a.extend_from(&Column::F64(vec![1.0]));
    }
}
