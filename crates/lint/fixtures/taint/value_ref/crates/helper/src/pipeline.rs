//! Called by nothing; only named as a value.

pub fn parse(s: &str) -> u32 {
    s.parse().unwrap()
}
