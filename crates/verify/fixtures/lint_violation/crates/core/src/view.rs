// Seeded lint violation: the `shmem_ptr` accessor called outside the one
// core file allowed to (`crates/core/src/exec.rs`). Even with a SAFETY
// comment the call is an `unsafe-confined` error here.

pub fn borrow(part: &svsim_shmem::SharedF64Vec) -> &[std::cell::Cell<f64>] {
    // SAFETY: (not the point) this file is not on the allowlist.
    unsafe { part.as_cells() }
}
