//! The relational operators of the paper's Table I, each implemented as a
//! functional host-side computation structured like its multi-stage GPU
//! kernel (partition → compute → buffer → gather).

pub mod aggregate;
pub mod arith;
pub mod join;
pub mod product;
pub mod project;
pub mod select;
pub mod setops;
pub mod sort;

pub use aggregate::{
    aggregate_all, aggregate_by_key, aggregate_by_key_into, pack_key2, unpack_key2, Agg,
};
pub use arith::{arith_extend, arith_extend_into, arith_extend_owned, arith_map, arith_map_into};
pub use join::{antijoin, column_join, column_join_owned, join, semijoin};
pub use product::product;
pub use project::{project, rekey, rekey_owned};
pub use select::{count_selected, select, select_chain_unfused, select_fused, select_into};
pub use setops::{difference, intersection, union};
pub use sort::{bitonic_pass_count, bitonic_sort, sort, sort_owned, unique, SortBy};
