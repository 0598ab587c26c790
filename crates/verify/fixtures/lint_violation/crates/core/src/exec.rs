// The same call where it is allowed, under its SAFETY argument: the lint
// must pass this file (the self-test asserts no finding names it).

pub fn borrow(part: &svsim_shmem::SharedF64Vec) -> &[std::cell::Cell<f64>] {
    // SAFETY: one owner per word per barrier epoch (fixture stand-in).
    unsafe { part.as_cells() }
}
