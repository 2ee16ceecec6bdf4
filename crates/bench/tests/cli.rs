//! Command-line contract of `repro`: input it cannot run exits 2 with a
//! one-line message, before any phase starts.

use std::process::Command;

/// Asserts that each `(args, message)` case exits 2, prints nothing to
/// stdout and one stderr line containing `message`.
fn rejects(cases: &[(&[&str], &str)]) {
    for &(args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}

const VERBS: &str = "expected one of figs|claims|faults|xl2|engine|analyze|all";

#[test]
fn flag_only_spellings_are_not_subcommands() {
    rejects(&[
        (&["--fig", "7"], VERBS),
        (&["--claim", "rounds"], VERBS),
        (&["--all"], VERBS),
        (&["--faults", "0.1"], VERBS),
        (&["--scale", "small"], VERBS),
        (&["xl"], VERBS),
        (&["xl", "--scale", "small"], VERBS),
    ]);
}

#[test]
fn flag_only_spellings_after_a_subcommand_are_unknown() {
    rejects(&[
        (&["all", "--fig", "7"], "unknown argument --fig"),
        (&["figs", "--all"], "unknown argument --all"),
        (&["claims", "--claim", "drift"], "unknown argument --claim"),
        (&["all", "--faults", "0.1"], "unknown argument --faults"),
    ]);
}

#[test]
fn scale_takes_full_or_small_only() {
    rejects(&[
        (
            &["all", "--scale", "smal"],
            "--scale expects full|small (got smal)",
        ),
        (
            &["figs", "7", "--scale", "xl"],
            "--scale expects full|small (got xl)",
        ),
        (
            &["figs", "--scale", "xl2"],
            "--scale expects full|small (got xl2)",
        ),
        (
            &["figs", "--scale"],
            "--scale expects full|small (got nothing)",
        ),
    ]);
}

#[test]
fn unknown_figures_and_claims_are_named() {
    rejects(&[
        (
            &["figs", "9"],
            "unknown figure 9 (expected one of: 4, 5, 6, 7, 8)",
        ),
        (&["figs", "seven"], "unknown figure seven"),
        (
            &["claims", "bogus"],
            "unknown claim bogus (expected one of: rounds,",
        ),
    ]);
}

#[test]
fn subcommand_only_flags_stay_with_their_subcommand() {
    rejects(&[
        (
            &["engine", "--peers", "10"],
            "--peers only applies to repro xl2",
        ),
        (
            &["xl2", "--epochs", "5"],
            "--epochs only applies to repro engine",
        ),
        (
            &["all", "--epochs", "5"],
            "--epochs only applies to repro engine",
        ),
        (
            &["figs", "--gates", "g/"],
            "--gates only applies to repro analyze",
        ),
        (
            &["engine", "--out", "r.json"],
            "--out only applies to repro analyze",
        ),
    ]);
}

#[test]
fn operands_and_values_are_checked() {
    rejects(&[
        (
            &["analyze"],
            "repro analyze needs at least one artifact path",
        ),
        (
            &["faults", "0.1", "0.2"],
            "repro faults takes at most one loss rate",
        ),
        (&["faults", "1.5"], "loss rate must be in [0, 1)"),
        (
            &["engine", "4"],
            "repro engine takes no positional operands",
        ),
        (
            &["all", "--threads", "many"],
            "--threads: invalid value \"many\"",
        ),
        (&["all", "--seed"], "--seed needs a value"),
        (&["all", "--bogus"], "unknown argument --bogus"),
    ]);
}
