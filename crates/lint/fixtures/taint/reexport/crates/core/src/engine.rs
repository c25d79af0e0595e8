//! Taint-fixture root that reaches its panic only through a path to a
//! function re-exported at its crate root.

pub struct Engine;

impl Engine {
    pub fn run_tick(&mut self, s: &str) -> u32 {
        pphcr_helper::parse(s)
    }
}
