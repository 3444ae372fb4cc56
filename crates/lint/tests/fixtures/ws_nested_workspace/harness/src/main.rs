// A separate workspace: the enclosing lint run never reads this file.

fn main() {
    let _ = std::thread::spawn(|| {}).join();
}
