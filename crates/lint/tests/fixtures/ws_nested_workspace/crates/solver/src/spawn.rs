// A workspace crate: R5 applies, so this spawn must be flagged.

pub fn detached() {
    let _ = std::thread::spawn(|| {}).join();
}
