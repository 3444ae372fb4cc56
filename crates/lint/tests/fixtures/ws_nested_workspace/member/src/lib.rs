// A member crate outside `crates/` (no `[workspace]` of its own): still
// in scope, so this spawn must be flagged too.

pub fn detached() {
    let _ = std::thread::spawn(|| {}).join();
}
