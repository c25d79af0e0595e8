//! One function per way of being reached, and the ones nothing reaches.

pub struct Widget;

/// Reached by a path call from `main`.
pub fn direct() {}

/// Reached only as a value: `.map(parts::as_value)`.
pub fn as_value(x: u32) -> u32 {
    x * 2
}

impl Widget {
    /// Reached by a dot call from `main`.
    pub fn dotted(&self) {}
}

pub trait Greeter {
    fn greet(&self) -> u32;

    fn greet_politely(&self) -> u32 {
        via_trait_default()
    }
}

impl Greeter for Widget {
    fn greet(&self) -> u32 {
        via_trait_impl()
    }
}

/// Reached only from a method with a body in a trait definition.
pub fn via_trait_default() -> u32 {
    1
}

/// Reached only from a method of an `impl Trait for Type` block.
pub fn via_trait_impl() -> u32 {
    2
}

/// Reached only from a non-`main` function in `examples/`.
pub fn from_example() {}

/// Reached only from a non-`main` function in `perfbench/src`.
pub fn from_perfbench() {}

pub struct Registry {
    pub enabled: bool,
    pub size: usize,
}

impl Registry {
    /// Reached through the struct-update base in `disabled`.
    pub fn new() -> Self {
        Registry { enabled: true, size: 0 }
    }

    /// Reached from `main`.
    pub fn disabled() -> Self {
        Registry { enabled: false, ..Registry::new() }
    }
}

pub struct Stray;

impl Stray {
    /// Never called: `..Registry::new()` must not reach it.
    pub fn new() -> Self {
        Stray
    }
}

/// Reached from nothing.
pub fn orphan() {}

/// Reached from nothing, but not `pub`: rustc's `dead_code` owns it.
pub(crate) fn crate_orphan() {}

/// Reached from nothing, kept by its pragma.
// lint: allow(dead) — fixture: a pragma keeps an unreachable fn
pub fn kept() {}

/// Reached from `main`, so its pragma is stale.
// lint: allow(dead) — fixture: nothing to excuse, `main` calls this
pub fn reached_with_pragma() {}
