// Seeded lint violation: the kernel layer is on the `unsafe` allowlist for
// one call — into a body compiled under a wider `#[target_feature]`, right
// after the feature was detected — and that call must say so. Here it does
// not: a `safety-comment` finding (R2), which `--deny-warnings` fails on.

#[target_feature(enable = "avx2")]
fn wide(x: &mut [f64]) {
    x.iter_mut().for_each(|x| *x *= 2.0);
}

pub fn k_double(x: &mut [f64]) {
    if std::arch::is_x86_feature_detected!("avx2") {
        return unsafe { wide(x) };
    }
    x.iter_mut().for_each(|x| *x *= 2.0);
}
