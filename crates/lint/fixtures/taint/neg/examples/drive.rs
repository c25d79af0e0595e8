//! The dead rule's root for this tree: it calls the taint root, so no
//! `pub fn` here is dead.
use pphcr_core::engine::Engine;

fn main() {
    Engine.run_tick(&[1, 2]);
}
