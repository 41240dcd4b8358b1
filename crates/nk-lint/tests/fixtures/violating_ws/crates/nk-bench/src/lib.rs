//! A crate named `nk-bench` gets no exemption from the wall-clock rule:
//! every number the experiment harness prints is modeled.
pub fn elapsed_ns() -> u128 {
    let start = std::time::Instant::now();
    start.elapsed().as_nanos()
}
