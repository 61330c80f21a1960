//! `msm` writes its record only after every self-check and the 2× gate
//! pass, so a failing run cannot overwrite a committed `BENCH_msm.json`.

use std::path::Path;
use std::process::Command;

#[test]
fn failed_gate_writes_no_record() {
    // n = 2 batches one proof, which no batch can verify twice as fast as
    // the proof alone, so the full-size gate fails.
    let out_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("msm_failed_gate.json");
    let _ = std::fs::remove_file(&out_path);
    let out = Command::new(env!("CARGO_BIN_EXE_msm"))
        .args(["--n", "2", "--reps", "1", "--out"])
        .arg(&out_path)
        .output()
        .expect("msm starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exited {}", out.status);
    assert!(
        stderr.contains("below the 2x gate"),
        "fails on the gate: {stderr}"
    );
    assert!(!out_path.exists(), "wrote {} anyway", out_path.display());
}
