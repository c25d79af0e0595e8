//! Taint-fixture negatives: a sinner nothing roots, a pragma-excused
//! sinner, and a test-only sinner. None may surface as violations.

pub fn safe(xs: &[u32]) -> u64 {
    xs.iter().map(|&x| u64::from(x)).sum()
}

// lint: allow(reach-panic) — fixture: the slice is length-checked by construction
pub fn excused(xs: &[u32]) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    u64::from(*xs.first().unwrap())
}

/// Reachable from nothing in the root set.
fn lurking(s: &str) -> u64 {
    s.parse().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        let v: Vec<u32> = "1 2".split(' ').map(|s| s.parse().unwrap()).collect();
        assert_eq!(v.len(), 2);
    }
}
