//! Runs the real `rlmul` binary: help output and rejected options that
//! have no side effects, and seeded A2C telemetry logs that repeat line
//! by line.

use rlmul::obs::json::{parse_object, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlmul-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `rlmul args…` in `cwd`, returning whether it succeeded, its
/// stdout and its stderr; a run still going after `secs` is killed and
/// fails the test (a help request that starts a daemon would otherwise
/// never return).
fn run(cwd: &Path, args: &[&str], secs: u64) -> (bool, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rlmul"))
        .args(args)
        .current_dir(cwd)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rlmul");
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(status) = child.try_wait().expect("wait on rlmul") {
            let out = child.wait_with_output().expect("collect output");
            let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
            return (status.success(), text(&out.stdout), text(&out.stderr));
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`rlmul {}` still running after {secs} s", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn help_after_any_subcommand_prints_usage_without_side_effects() {
    let dir = scratch_dir("help");
    for args in [
        ["serve", "--help"].as_slice(),
        &["serve", "-h"],
        &["serve", "--addr", "127.0.0.1:0", "--help"],
        &["train", "--method", "a2c", "--help"],
        &["--help"],
    ] {
        let (ok, stdout, _) = run(&dir, args, 30);
        assert!(ok, "`rlmul {}` must exit 0", args.join(" "));
        assert!(stdout.contains("USAGE: rlmul <command>"), "{stdout}");
    }
    assert!(!dir.join("serve-state").exists(), "a help request started the daemon");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "a help request wrote files");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts that every invocation in `cases` exits non-zero before
/// doing any work: nothing on stdout, its stderr naming the expected
/// problem, and no file created in the working directory.
fn assert_rejected(tag: &str, cases: &[(&[&str], &str)]) {
    let dir = scratch_dir(tag);
    for &(args, problem) in cases {
        let (ok, stdout, stderr) = run(&dir, args, 60);
        let cmd = args.join(" ");
        assert!(!ok, "`rlmul {cmd}` must fail");
        assert!(stdout.is_empty(), "`rlmul {cmd}` printed to stdout: {stdout}");
        assert!(stderr.contains(problem), "`rlmul {cmd}` stderr lacks `{problem}`: {stderr}");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "a rejected invocation wrote files");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_numeric_options_are_usage_errors() {
    assert_rejected(
        "badopt",
        &[
            (&["train", "--bits", "8", "--method", "sa", "--steps", "abc"], "`abc` for --steps"),
            (&["train", "--bits", "8", "--method", "sa", "--seed", "-1"], "`-1` for --seed"),
            (
                &["train", "--telemetry", "t.jsonl", "--ckpt-dir", "ck", "--ckpt-every", "often"],
                "`often` for --ckpt-every",
            ),
            (&["train", "--method", "sa", "--steps"], "--steps needs a value"),
            (&["profile", "--bits", "8x"], "`8x` for --bits"),
            (&["synth", "--target", "fast"], "`fast` for --target"),
        ],
    );
}

#[test]
fn non_finite_synthesis_target_is_a_usage_error() {
    assert_rejected(
        "nantarget",
        &[
            (&["synth", "--bits", "4", "--target", "nan"], "`nan` for --target"),
            (&["synth", "--bits", "4", "--target", "inf"], "`inf` for --target"),
            (&["synth", "--bits", "4", "--target", "-inf"], "`-inf` for --target"),
        ],
    );
}

#[test]
fn zero_step_budget_is_rejected() {
    assert_rejected(
        "zerosteps",
        &[
            (&["train", "--bits", "8", "--method", "sa", "--steps", "0"], "--steps must be"),
            (&["profile", "--bits", "8", "--method", "sa", "--steps", "0"], "--steps must be"),
        ],
    );
}

/// One telemetry line without its timing-dependent fields: every
/// `*secs` duration, and the writer's buffer high-water mark, which
/// depends on when the writer thread drains the ring.
fn untimed(line: &str) -> Vec<(String, JsonValue)> {
    let object = parse_object(line.as_bytes()).expect("telemetry line is a JSON object");
    object
        .into_fields()
        .into_iter()
        .filter(|(k, _)| !k.ends_with("secs") && k != "buffer_hwm")
        .collect()
}

#[test]
fn seeded_a2c_telemetry_repeats_line_by_line() {
    let dir = scratch_dir("a2c");
    let mut logs = Vec::new();
    for run_no in 0..2 {
        let log = format!("run{run_no}.jsonl");
        let args = [
            "train",
            "--bits",
            "6",
            "--steps",
            "40",
            "--seed",
            "3",
            "--method",
            "a2c",
            "--telemetry",
            &log,
        ];
        let (ok, _, _) = run(&dir, &args, 300);
        assert!(ok, "a2c training run failed");
        logs.push(std::fs::read_to_string(dir.join(&log)).expect("read telemetry log"));
    }
    let (a, b): (Vec<&str>, Vec<&str>) = (logs[0].lines().collect(), logs[1].lines().collect());
    assert_eq!(a.len(), b.len(), "the two logs differ in length");
    assert!(a.iter().any(|l| l.contains(r#""ev":"phase""#)), "no worker phase events logged");
    for (n, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(untimed(x), untimed(y), "line {} differs:\n{x}\n{y}", n + 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
