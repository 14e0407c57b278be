//! Exact answer fingerprints for the oracle.
//!
//! A served answer must match the oracle bit for bit: same keys, same
//! column types, same `i64` values, same `f64` *bit patterns*. Keeping every
//! expected relation in memory would let the oracle's footprint swamp the
//! service's in the memory figures, so an answer is kept as its row count
//! plus a 128-bit digest of every bit it holds (two independently seeded
//! SipHash lanes). Any change to any bit, including a single flipped `f64` bit,
//! changes the digest except with probability about 2^-128.

use kfusion::relalg::{Column, Relation};
use std::hash::{Hash, Hasher};

/// The exact identity of one query answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Answer {
    /// Rows in the answer.
    pub rows: usize,
    digest: [u64; 2],
}

impl Answer {
    /// Fingerprint `rel`: its shape and the bit pattern of every key and
    /// value, in order.
    pub fn of(rel: &Relation) -> Self {
        let lane = |seed: u64| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            seed.hash(&mut h);
            rel.key.hash(&mut h);
            rel.cols.len().hash(&mut h);
            for col in &rel.cols {
                match col {
                    Column::I64(v) => {
                        0u8.hash(&mut h);
                        v.hash(&mut h);
                    }
                    Column::F64(v) => {
                        1u8.hash(&mut h);
                        v.len().hash(&mut h);
                        for x in v {
                            x.to_bits().hash(&mut h);
                        }
                    }
                }
            }
            h.finish()
        };
        Answer { rows: rel.len(), digest: [lane(0x5eed_0001), lane(0x5eed_0002)] }
    }
}
