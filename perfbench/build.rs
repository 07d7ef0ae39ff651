//! Records the compiler version, so every result names the toolchain that
//! built the program it measured.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .unwrap_or_default();
    println!("cargo:rustc-env=PERFBENCH_RUSTC={}", version.trim()); // lint:allow(no-print-in-lib): build scripts talk to cargo on stdout
    println!("cargo:rerun-if-changed=build.rs"); // lint:allow(no-print-in-lib): build scripts talk to cargo on stdout
}
