//! Taint-fixture root that reaches its panic only through a function
//! passed by value.
use pphcr_helper::pipeline;

pub struct Engine;

impl Engine {
    pub fn run_tick(&mut self, xs: &[&str]) -> u32 {
        xs.iter().copied().map(pipeline::parse).sum()
    }
}
