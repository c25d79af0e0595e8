//! Called only through the crate-root re-export.

pub fn parse(s: &str) -> u32 {
    s.parse().unwrap()
}
