//! Read for roots only: a `pub fn` nothing calls is not flagged here,
//! and the line rules never run.

fn main() {}

fn scenario() {
    pphcr_lib::parts::from_example();
}

pub fn unused_in_example() {
    let _t = std::time::Instant::now();
}
