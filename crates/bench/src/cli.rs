//! Shared CLI plumbing for the figure binaries.
//!
//! Every artefact binary speaks the same dialect — the
//! [`SHARED_FLAGS`] `--fast`, `--seed <u64>`, `--scenario <name>` and
//! `--out <path>`, plus the flags it declares itself — so the parsing
//! lives here once, as [`CommonArgs`]. An argument outside a binary's
//! flags, or a value flag without its value, is a usage error: the
//! binary exits with status 2 and prints the flags it accepts, rather
//! than run without, say, the artifact a mistyped `--out` asked for.
//! Scenario names resolve through the [`carol::scenario`] registry; an
//! unknown name aborts with the catalogue, so `--scenario help` (or any
//! typo) doubles as discovery.

use carol::scenario::ScenarioSpec;

/// One command-line flag a binary accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// A flag that stands alone, as `--fast`.
    Switch(&'static str),
    /// A flag whose value is the next argument, as `--seed 3`.
    Value(&'static str),
}

impl Flag {
    fn name(&self) -> &'static str {
        match *self {
            Flag::Switch(name) | Flag::Value(name) => name,
        }
    }

    fn usage(&self) -> String {
        match self {
            Flag::Switch(name) => name.to_string(),
            Flag::Value(name) => format!("{name} <value>"),
        }
    }
}

/// The flags every artefact binary accepts.
pub const SHARED_FLAGS: [Flag; 4] = [
    Flag::Switch("--fast"),
    Flag::Value("--seed"),
    Flag::Value("--scenario"),
    Flag::Value("--out"),
];

/// The flags every artefact binary shares, parsed once.
///
/// ```
/// use bench::cli::{CommonArgs, Flag};
/// let args = CommonArgs::from_vec(
///     vec!["--fast".into(), "--out".into(), "report.json".into()],
///     &[Flag::Value("--budget")],
/// )
/// .unwrap();
/// assert!(args.fast);
/// assert_eq!(args.out_path(), Some("report.json".into()));
/// assert!(CommonArgs::from_vec(vec!["--ouy".into(), "x".into()], &[]).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// `--fast` was passed: run the CI-budget variant.
    pub fast: bool,
    /// The raw argument list (program name stripped).
    args: Vec<String>,
}

impl CommonArgs {
    /// Parses the process arguments (`std::env::args`, program name
    /// skipped) against [`SHARED_FLAGS`] and the binary's own `extra`
    /// flags. On a usage error it prints the error and the accepted flags
    /// and exits with status 2.
    pub fn parse(extra: &[Flag]) -> Self {
        Self::from_vec(std::env::args().skip(1).collect(), extra).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// Parses an explicit argument list — the testable entry point.
    ///
    /// # Errors
    ///
    /// An argument that is none of [`SHARED_FLAGS`] and `extra`, or a
    /// [`Flag::Value`] followed by nothing or by another `--` flag;
    /// the message lists the accepted flags.
    pub fn from_vec(args: Vec<String>, extra: &[Flag]) -> Result<Self, String> {
        let accepted: Vec<Flag> = SHARED_FLAGS.iter().chain(extra).copied().collect();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let error = match accepted.iter().find(|f| f.name() == arg) {
                Some(Flag::Switch(_)) => continue,
                Some(_) if rest.next().is_some_and(|v| !v.starts_with("--")) => continue,
                Some(_) => format!("{arg} needs a value"),
                None => format!("unknown argument {arg:?}"),
            };
            let names: Vec<String> = accepted.iter().map(Flag::usage).collect();
            return Err(format!("{error}; accepted flags: {}", names.join(", ")));
        }
        Ok(Self {
            fast: args.iter().any(|a| a == "--fast"),
            args,
        })
    }

    /// `true` when `flag` appears anywhere in the argument list.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The value following `--flag`, if both are present.
    pub fn flag_value(&self, flag: &str) -> Option<String> {
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1).cloned())
    }

    /// `--seed <u64>`, or `default` when the flag (or its value) is
    /// absent.
    ///
    /// # Panics
    ///
    /// Panics when the value is not a `u64` — a CLI usage error.
    pub fn seed(&self, default: u64) -> u64 {
        self.flag_value("--seed").map_or(default, |s| {
            s.parse()
                .unwrap_or_else(|_| panic!("--seed takes a u64, got {s:?}"))
        })
    }

    /// `--scenario <name>`, resolved through the registry with `seed`.
    /// `None` when the flag is absent; aborts with the catalogue on a
    /// missing or unknown name (see [`scenario_from_args`]).
    pub fn scenario(&self, seed: u64) -> Option<ScenarioSpec> {
        scenario_from_args(&self.args, seed)
    }

    /// The JSON artifact destination, `--out <path>` (`None` when the
    /// flag is absent).
    pub fn out_path(&self) -> Option<String> {
        self.flag_value("--out")
    }
}

/// Parses `--scenario <name>` out of `args`, resolving the name through
/// [`ScenarioSpec::named`] with `seed`. Returns `None` when the flag is
/// absent.
///
/// # Panics
///
/// Panics (with the registry catalogue) when the flag is present but the
/// name is missing or unknown — a CLI usage error, not a runtime
/// condition.
pub fn scenario_from_args(args: &[String], seed: u64) -> Option<ScenarioSpec> {
    let i = args.iter().position(|a| a == "--scenario")?;
    let name = args.get(i + 1).unwrap_or_else(|| {
        panic!(
            "--scenario needs a name; registered scenarios: {:?}",
            ScenarioSpec::registry_names()
        )
    });
    Some(ScenarioSpec::named(name, seed).unwrap_or_else(|| {
        panic!(
            "unknown scenario '{name}'; registered scenarios: {:?}",
            ScenarioSpec::registry_names()
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn absent_flag_is_none() {
        assert!(scenario_from_args(&args(&["--fast"]), 1).is_none());
    }

    #[test]
    fn resolves_registry_names() {
        let spec = scenario_from_args(&args(&["--fast", "--scenario", "storm-64"]), 7).unwrap();
        assert_eq!(spec.name, "storm-64");
        assert_eq!(spec.n_hosts, 64);
        assert_eq!(spec.seed, 7);
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_name_aborts_with_catalogue() {
        scenario_from_args(&args(&["--scenario", "nope"]), 1);
    }

    #[test]
    #[should_panic(expected = "--scenario needs a name")]
    fn missing_name_aborts() {
        scenario_from_args(&args(&["--scenario"]), 1);
    }

    #[test]
    fn common_args_parses_shared_dialect() {
        let a = CommonArgs::from_vec(
            args(&[
                "--fast",
                "--seed",
                "9",
                "--out",
                "x.json",
                "--scenario",
                "paper-16",
                "--stdin",
            ]),
            &[Flag::Switch("--stdin")],
        )
        .unwrap();
        assert!(a.fast);
        assert!(a.has_flag("--stdin"));
        assert!(a.has_flag("--seed"));
        assert_eq!(a.flag_value("--seed").as_deref(), Some("9"));
        assert_eq!(a.flag_value("--missing"), None);
        assert_eq!(a.out_path().as_deref(), Some("x.json"));
        assert_eq!(a.scenario(3).unwrap().name, "paper-16");
    }

    #[test]
    fn seed_reads_the_flag_or_falls_back_to_the_default() {
        let parse = |list: &[&str]| CommonArgs::from_vec(args(list), &[]).unwrap();
        assert_eq!(parse(&["--seed", "42"]).seed(7), 42);
        assert_eq!(parse(&["--fast"]).seed(7), 7);
    }

    #[test]
    #[should_panic(expected = "--seed takes a u64")]
    fn malformed_seed_aborts() {
        CommonArgs::from_vec(args(&["--seed", "-3"]), &[])
            .unwrap()
            .seed(0);
    }

    /// An argument outside the binary's flags (a removed flag, a typo,
    /// another binary's flag, a stray word), or a value flag with
    /// nothing or another flag where its value belongs, is an error
    /// that lists the accepted flags.
    #[test]
    fn undeclared_or_valueless_flags_are_rejected_with_the_accepted_list() {
        let fuzz = [Flag::Value("--budget"), Flag::Value("--cases")];
        for (list, error) in [
            (
                &["--fast", "--no-background-tune"][..],
                "unknown argument \"--no-background-tune\"",
            ),
            (&["--ouy", "x.json"], "unknown argument \"--ouy\""),
            (&["--stdin"], "unknown argument \"--stdin\""),
            (&["--fast", "stray"], "unknown argument \"stray\""),
            (&["--fast", "--out"], "--out needs a value"),
            (&["--budget", "--fast"], "--budget needs a value"),
        ] {
            let accepted = "--fast, --seed <value>, --scenario <value>, --out <value>, \
                            --budget <value>, --cases <value>";
            let got = CommonArgs::from_vec(args(list), &fuzz).unwrap_err();
            assert_eq!(got, format!("{error}; accepted flags: {accepted}"));
        }
    }
}
