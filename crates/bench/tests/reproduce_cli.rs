//! `reproduce` checks every figure name before it calibrates, and
//! calibrates only for figures that read the rates.

use std::process::Command;

#[test]
fn unknown_figure_fails_before_calibrating() {
    // A valid name next to the unknown one must not let it through.
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["analysis", "fig9"])
        .output()
        .expect("reproduce starts");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(!out.status.success(), "exited {}", out.status);
    assert!(
        !stdout.contains("calibrating"),
        "calibrated first: {stdout}"
    );
    assert!(
        stderr.contains("unknown figure: fig9") && stderr.contains("fig3b"),
        "names the bad figure and the valid ones: {stderr}"
    );
}

#[test]
fn analysis_alone_never_calibrates() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("analysis")
        .output()
        .expect("reproduce starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "exited {}", out.status);
    assert!(stdout.contains("Sec. VI-B"), "prints the table: {stdout}");
    assert!(!stdout.contains("calibrating"), "calibrated: {stdout}");
}
