//! Read for roots only, like `examples/`.

fn main() {}

fn workload() {
    pphcr_lib::parts::from_perfbench();
    let _t = std::time::Instant::now();
}
