//! Golden outputs of the compiled `cpssec` binary.
//!
//! Pins the stdout of every batch command at `--scale 0.01` (as text, or
//! as an `fnv1a_64_wide` hash for long outputs), the bytes of every file
//! the snapshot and delta commands write, and the exact text of every
//! usage and file error. Wall-clock lines (`… in N.NNs …`) are dropped
//! before comparing. A change to the CLI's plumbing must leave every pin
//! here unchanged.

use std::path::{Path, PathBuf};
use std::process::Command;

use cpssec_model::fnv1a_64_wide;

/// Runs the binary and returns (exit code, stdout, stderr).
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_cpssec"))
        .args(args)
        .output()
        .expect("spawn cpssec");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Stdout of a command that must succeed, minus wall-clock lines.
fn stdout_of(args: &[&str]) -> String {
    let (code, stdout, stderr) = run(args);
    assert_eq!(code, Some(0), "{args:?} failed: {stderr}");
    stdout
        .lines()
        .filter(|line| !is_wall_clock(line))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// True for a line that reports elapsed time, such as
/// `47 chains in 0.75s (…)`.
fn is_wall_clock(line: &str) -> bool {
    line.split_whitespace()
        .collect::<Vec<_>>()
        .windows(2)
        .any(|w| {
            w[0] == "in"
                && w[1]
                    .strip_suffix('s')
                    .is_some_and(|n| n.contains('.') && n.parse::<f64>().is_ok())
        })
}

fn hash(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a_64_wide(bytes))
}

/// A fresh scratch directory for this test process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpssec-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn path_in(dir: &Path, name: &str) -> String {
    dir.join(name).to_str().expect("utf8 path").to_owned()
}

/// Compares every `(label, actual, expected)` and fails once, listing
/// each mismatch with its actual value.
fn assert_pins(pins: &[(String, String, &str)]) {
    let mismatches: Vec<String> = pins
        .iter()
        .filter(|(_, actual, expected)| actual != expected)
        .map(|(label, actual, expected)| format!("{label}: expected {expected:?}, got {actual:?}"))
        .collect();
    assert!(mismatches.is_empty(), "\n{}", mismatches.join("\n"));
}

const TABLE1_AT_0_01: &str = "\
Attribute                            Attack Patterns  Weaknesses  Vulnerabilities
---------------------------------------------------------------------------------
engineering workstation              2                1           2
Windows 7                            41               74          66
Labview                              0                0           6
industrial firewall appliance        45               59          2
Cisco ASA                            2                1           38
safety controller                    3                1           8
NI cRIO 9063                         0                0           7
NI RT Linux OS                       55               76          97
NI cRIO 9064                         0                0           7
NI RT Linux OS                       55               76          97
precision passive temperature probe  1                0           0
precision variable speed centrifuge  1                0           0
chiller unit                         0                0           0
";

const ASSOCIATE_SCADA_TOP_5: &str = "\
Component           Patterns  Weaknesses  Vulnerabilities
---------------------------------------------------------
BPCS platform       5         5           5
Centrifuge          1         0           0
Control firewall    5         5           5
Cooling unit        0         0           0
Corporate network   5         5           5
Programming WS      5         5           5
SIS platform        5         5           5
Temperature sensor  2         0           0
total: 78 associated vectors at implementation fidelity
";

#[test]
fn table1_and_associate_text_are_pinned() {
    assert_eq!(stdout_of(&["table1", "--scale", "0.01"]), TABLE1_AT_0_01);
    assert_eq!(
        stdout_of(&["associate", "scada", "--top", "5", "--scale", "0.01"]),
        ASSOCIATE_SCADA_TOP_5
    );
}

#[test]
fn batch_command_outputs_are_pinned() {
    // `fleet` runs 20 scenarios of 3,000 ticks instead of the default
    // 200 × 12,000 so the debug binary stays fast; the output path is the
    // same.
    let cases: &[(&[&str], &str)] = &[
        (&["help"], "874829f384b33600"),
        (&["scenarios"], "f193277e0f867998"),
        (&["table1", "--scale", "0.01"], "5d6eac80570655a3"),
        (
            &["associate", "scada", "--top", "5", "--scale", "0.01"],
            "329afbe2d8a61bac",
        ),
        (
            &[
                "associate",
                "scada",
                "--fidelity",
                "architectural",
                "--scale",
                "0.01",
            ],
            "ab64c7a561eef14c",
        ),
        (&["figure", "--scale", "0.01"], "c0069f03ddab459c"),
        (&["report", "--scale", "0.01"], "6878c5a059bbe474"),
        // At the default 12,000 ticks the consequence table reaches the
        // monitor-detected hazards H-1, H-2 and H-3; at 4,010 it reaches
        // every product-detected one (H-2 from `ruined-unstable`, H-4, H-5).
        (
            &["report", "--scale", "0.01", "--simulate"],
            "6b0c38399b38e472",
        ),
        (
            &["report", "--scale", "0.01", "--simulate", "--ticks", "4010"],
            "6d42d1af8dba858f",
        ),
        (&["json", "--scale", "0.01"], "1968f0e025dd2bd5"),
        (&["export-model"], "e46f67747a1dc4ea"),
        (&["export-corpus", "--scale", "0.01"], "c9e34dcda429e5d1"),
        (
            &["fleet", "--json", "--scenarios", "20", "--ticks", "3000"],
            "3b05d6f999e09fc3",
        ),
        (&["campaign", "scada", "--csv"], "1cd08c14b62a461f"),
        (&["campaign", "scada"], "0e309f7a57a82f36"),
    ];
    let pins: Vec<(String, String, &str)> = cases
        .iter()
        .map(|(args, expected)| (args.join(" "), hash(stdout_of(args).as_bytes()), *expected))
        .collect();
    assert_pins(&pins);
}

#[test]
fn snapshot_and_delta_outputs_and_files_are_pinned() {
    let dir = scratch_dir("files");
    let dir_text = dir.to_str().expect("utf8 path").to_owned();
    let base = path_in(&dir, "base.cpsnap");
    let d0 = path_in(&dir, "d0.cpsdelta");
    let d1 = path_in(&dir, "d1.cpsdelta");
    let applied = path_in(&dir, "applied.cpsnap");
    let compacted = path_in(&dir, "compacted.cpsnap");
    let steps: &[(&[&str], &str)] = &[
        (
            &["snapshot", "build", &base, "--scale", "0.01"],
            "ee8e721fbac8822c",
        ),
        (&["snapshot", "inspect", &base], "d8213509d1fc5ce1"),
        (
            &["snapshot", "inspect", &base, "--json"],
            "26921e980e710c6b",
        ),
        (&["snapshot", "verify", &base], "cab902ee2982dcf1"),
        (
            &[
                "delta",
                "build",
                &base,
                &d0,
                "--records",
                "40",
                "--seed",
                "5",
            ],
            "9ea1b4b6ebffa583",
        ),
        (
            &[
                "delta",
                "build",
                &d0,
                &d1,
                "--records",
                "30",
                "--seed",
                "5",
                "--serial",
                "1",
            ],
            "b7f687d14e17ed75",
        ),
        (&["delta", "inspect", &d1], "d6ed37608193f478"),
        (&["delta", "inspect", &d1, "--json"], "e67b4244b263ecc3"),
        (
            &["delta", "apply", &base, &d0, &d1, "--out", &applied],
            "d78ddbf7a6cfb220",
        ),
        (
            &["delta", "compact", &base, &d0, &d1, "--out", &compacted],
            "d35a8507f97e132f",
        ),
        (&["snapshot", "verify", &compacted], "24459f0f14f3fef1"),
    ];
    let mut pins: Vec<(String, String, &str)> = steps
        .iter()
        .map(|(args, expected)| {
            // Paths differ per run; the pinned text names them as DIR.
            let text = stdout_of(args).replace(&dir_text, "DIR");
            let label = args.join(" ").replace(&dir_text, "DIR");
            (label, hash(text.as_bytes()), *expected)
        })
        .collect();
    for (path, expected) in [
        (&base, "76399410c423b49e"),
        (&d0, "d906ae04085bcb4c"),
        (&d1, "03f0246c3346919e"),
        (&applied, "197ba4a6c4f91580"),
        (&compacted, "197ba4a6c4f91580"),
    ] {
        let bytes = std::fs::read(path).expect("written file");
        let label = format!("file {}", path.replace(&dir_text, "DIR"));
        pins.push((label, hash(&bytes), expected));
    }
    assert_pins(&pins);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_and_file_errors_are_pinned() {
    let cases: &[(&[&str], &str)] = &[
        // Command dispatch.
        (&[], "missing command (run `cpssec help` for usage)"),
        (
            &["frobnicate"],
            "unknown command `frobnicate` (run `cpssec help` for usage)",
        ),
        // Flag parsing.
        (&["table1", "--bogus"], "unknown option `--bogus`"),
        (&["table1", "--scale"], "--scale needs a value"),
        (&["table1", "--scale", "x"], "invalid scale `x`"),
        (&["table1", "--scale", "0"], "scale must be positive"),
        (&["table1", "--scale", "-1"], "scale must be positive"),
        (&["table1", "--scale", "NaN"], "invalid scale `NaN`"),
        (&["table1", "--scale", "inf"], "invalid scale `inf`"),
        (&["table1", "--scale", "1e300"], "invalid scale `1e300`"),
        (&["json", "--fidelity"], "--fidelity needs a value"),
        (&["json", "--fidelity", "exact"], "invalid fidelity `exact`"),
        (&["associate", "--top"], "--top needs a value"),
        (&["associate", "--top", "-1"], "invalid top `-1`"),
        (&["simulate", "--ticks"], "--ticks needs a value"),
        (&["simulate", "--ticks", "x"], "invalid ticks `x`"),
        (&["simulate", "--ticks", "0"], "invalid ticks `0`"),
        (&["fleet", "--scenarios"], "--scenarios needs a value"),
        (&["fleet", "--scenarios", "0"], "invalid scenarios `0`"),
        (&["fleet", "--seed"], "--seed needs a value"),
        (&["fleet", "--seed", "x"], "invalid seed `x`"),
        (&["fleet", "--threads"], "--threads needs a value"),
        (&["fleet", "--threads", "0"], "invalid threads `0`"),
        (&["fleet", "--classes"], "--classes needs a value"),
        (&["table1", "--corpus"], "--corpus needs a path"),
        (&["serve", "--snapshot"], "--snapshot needs a path"),
        (&["serve", "--slo"], "--slo needs a path"),
        (&["serve", "--tick-ms"], "--tick-ms needs a value"),
        (&["serve", "--tick-ms", "0"], "invalid tick-ms `0`"),
        (&["serve", "--max-conns"], "--max-conns needs a value"),
        (&["serve", "--max-conns", "0"], "invalid max-conns `0`"),
        (&["serve", "--queue-depth"], "--queue-depth needs a value"),
        (&["serve", "--queue-depth", "x"], "invalid queue-depth `x`"),
        (&["table1", "--trace"], "--trace needs a path"),
        (&["serve", "--addr"], "--addr needs a HOST:PORT value"),
        (&["serve", "--workers"], "--workers needs a value"),
        (&["serve", "--workers", "0"], "invalid workers `0`"),
        (&["load", "--clients"], "--clients needs a value"),
        (&["load", "--clients", "none"], "invalid clients `none`"),
        (&["load", "--requests"], "--requests needs a value"),
        (&["load", "--requests", "0"], "invalid requests `0`"),
        (&["delta", "--records"], "--records needs a value"),
        (
            &["delta", "--records", "0"],
            "invalid records `0` (expected 1..=10000)",
        ),
        (
            &["delta", "--records", "10001"],
            "invalid records `10001` (expected 1..=10000)",
        ),
        (&["delta", "--serial"], "--serial needs a value"),
        (&["delta", "--serial", "-1"], "invalid serial `-1`"),
        (&["delta", "--out"], "--out needs a path"),
        // Subcommand arguments.
        (
            &["associate"],
            "associate needs a GraphML model path (or `scada` for the built-in model)",
        ),
        (
            &["simulate"],
            "simulate needs a scenario name (see `cpssec scenarios`)",
        ),
        (
            &["simulate", "ghost"],
            "unknown scenario `ghost` (see `cpssec scenarios`)",
        ),
        (&["campaign"], "campaign needs a testbed: scada or water"),
        (
            &["campaign", "gasworks"],
            "unknown testbed `gasworks` (expected scada or water)",
        ),
        (
            &["fleet", "--classes", "quantum"],
            "unknown attack class `quantum`",
        ),
        (
            &["fleet", "--classes", ","],
            "--classes needs at least one class name",
        ),
        // `snapshot` dispatcher.
        (
            &["snapshot"],
            "snapshot needs an action: build, inspect, or verify",
        ),
        (
            &["snapshot", "verify"],
            "snapshot verify needs a .cpsnap file path",
        ),
        (
            &["snapshot", "defrost"],
            "snapshot defrost needs a .cpsnap file path",
        ),
        (
            &["snapshot", "defrost", "x.cpsnap"],
            "unknown snapshot action `defrost` (expected build, inspect, or verify)",
        ),
        // `delta` dispatcher.
        (
            &["delta"],
            "delta needs an action: build, inspect, apply, or compact",
        ),
        (
            &["delta", "build"],
            "delta build needs a parent .cpsnap or .cpsdelta path",
        ),
        (
            &["delta", "build", "p.cpsnap"],
            "delta build needs an output .cpsdelta path",
        ),
        (
            &["delta", "inspect"],
            "delta inspect needs a .cpsdelta file path",
        ),
        (&["delta", "apply"], "delta apply needs a base .cpsnap path"),
        (
            &["delta", "compact", "b.cpsnap"],
            "delta compact needs at least one .cpsdelta file after the base",
        ),
        (
            &["delta", "refry", "x"],
            "unknown delta action `refry` (expected build, inspect, apply, or compact)",
        ),
        // `flight` dispatcher.
        (&["flight"], "flight needs an action: inspect"),
        (
            &["flight", "replay", "x"],
            "unknown flight action `replay` (expected inspect)",
        ),
        (
            &["flight", "inspect"],
            "flight inspect needs a .cpsflight file path",
        ),
        // `profile` dispatcher.
        (
            &["profile"],
            "profile needs a command to run (e.g. `cpssec profile associate scada`)",
        ),
        (&["profile", "profile", "help"], "profile cannot wrap itself"),
        (&["profile", "--hz"], "--hz needs a value"),
        (
            &["profile", "--hz", "0", "help"],
            "invalid hz `0` (expected 1..=10000)",
        ),
        (
            &["profile", "--hz", "10001", "help"],
            "invalid hz `10001` (expected 1..=10000)",
        ),
        (&["profile", "--flame"], "--flame needs a path"),
        // File reads and writes.
        (
            &["snapshot", "verify", "/nonexistent/x.cpsnap"],
            "cannot read `/nonexistent/x.cpsnap`: No such file or directory (os error 2)",
        ),
        (
            &["delta", "inspect", "/nonexistent/x.cpsdelta"],
            "cannot read `/nonexistent/x.cpsdelta`: No such file or directory (os error 2)",
        ),
        (
            &["table1", "--corpus", "/nonexistent/c.jsonl"],
            "cannot read `/nonexistent/c.jsonl`: No such file or directory (os error 2)",
        ),
        (
            &["associate", "/nonexistent/m.graphml", "--scale", "0.01"],
            "cannot read `/nonexistent/m.graphml`: No such file or directory (os error 2)",
        ),
        (
            &["serve", "--slo", "/nonexistent/s.toml", "--scale", "0.01"],
            "cannot read `/nonexistent/s.toml`: No such file or directory (os error 2)",
        ),
        (
            &["flight", "inspect", "/nonexistent/x.cpsflight"],
            "cannot read `/nonexistent/x.cpsflight`: No such file or directory (os error 2)",
        ),
        (
            &["snapshot", "build", "/nonexistent/d/x.cpsnap", "--scale", "0.01"],
            "cannot write `/nonexistent/d/x.cpsnap`: No such file or directory (os error 2)",
        ),
        (
            &["scenarios", "--trace", "/nonexistent/t.json"],
            "cannot write trace `/nonexistent/t.json`: No such file or directory (os error 2)",
        ),
        (
            &["profile", "--flame", "/nonexistent/f.json", "scenarios"],
            "cannot write flame graph `/nonexistent/f.json`: No such file or directory (os error 2)",
        ),
    ];
    let pins: Vec<(String, String, &str)> = cases
        .iter()
        .map(|(args, expected)| {
            let (code, _stdout, stderr) = run(args);
            let actual = match code {
                Some(1) => stderr
                    .strip_prefix("cpssec: ")
                    .and_then(|rest| rest.strip_suffix('\n'))
                    .unwrap_or(&stderr)
                    .to_owned(),
                other => format!("exit {other:?}: {stderr}"),
            };
            (args.join(" "), actual, *expected)
        })
        .collect();
    assert_pins(&pins);
}

/// Every command `run` dispatches is listed in `cpssec help`.
#[test]
fn every_dispatched_command_is_in_usage() {
    let source = include_str!("../src/cli.rs");
    let start = source.find("pub fn run(").expect("`run` in cli.rs");
    let body = &source[start..];
    let body = &body[..body.find("\n}\n").expect("end of `run`")];
    // The string literals in `run` that are bare lowercase words are
    // exactly the command names it matches on.
    let commands: Vec<&str> = body
        .split('"')
        .skip(1)
        .step_by(2)
        .filter(|literal| {
            !literal.is_empty()
                && literal
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                && !literal.starts_with('-')
        })
        .collect();
    assert!(commands.len() >= 17, "found only {commands:?}");
    let usage = stdout_of(&["help"]);
    for command in commands {
        assert!(
            usage.contains(&format!("cpssec {command}")),
            "`{command}` is dispatched by `run` but missing from USAGE"
        );
    }
}
