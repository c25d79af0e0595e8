//! Dead-rule fixture binary: `main` reaches the library through a
//! path call, a value reference, a re-exported path and a dot call.
use pphcr_lib::parts::{self, Registry, Widget};

fn main() {
    parts::direct();
    let doubled: Vec<u32> = [1u32, 2].iter().copied().map(parts::as_value).collect();
    pphcr_lib::serve(doubled.len());
    let w = Widget;
    w.dotted();
    let _ = Registry::disabled();
    parts::reached_with_pragma();
}
