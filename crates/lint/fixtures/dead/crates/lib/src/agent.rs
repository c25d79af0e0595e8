//! Reached only through the crate-root re-export `pphcr_lib::serve`.

pub fn serve(n: usize) -> usize {
    n
}
